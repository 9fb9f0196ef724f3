"""Homotopy limit of the two-arrow diagram n => h (inclusion and zero).

The model is the path object: pairs (x, gamma) with x in the sub-dgla n and
gamma = p(t) + q(t) dt a polynomial path in h (x) K[t, dt] satisfying
p(0) = x and p(1) = 0.  This complex is quasi-isomorphic to (h/n)[-1]; the
quasi-isomorphism integrates the dt-component and reduces mod n.  Cohomology
computations bound the polynomial t-degree by D and report stabilization.
``holim_bounded`` writes that bounded complex down in closed form, on a
basis read off h's d, the echelon rows of n and the quotient projection,
with no elimination.  The explicit path dgla (``path_dgla``) is the
``dgla.TensorDgla`` of h with the polynomial forms on [0, 1], weighted by
t-degree; it is the ambient space in which the tests check that basis.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .dgla import (CdgaModel, Dgla, FlatBasis, SubDgla, TensorDgla,
                   ValidationReport, _residual_repr, abelian_dgla, ad_exp_terms,
                   sub_quotient, tensor_dgla)
from .graded import (CohomologyResult, Complex, GradedMap, GradedVectorSpace, GVec,
                     QuotientComplex, StructuralError,
                     cohomology, induced_map_on_cohomology, is_chain_map,
                     shift_complex, vec_add, vec_degree, vec_is_zero,
                     vec_scale, vec_sub)
from .linalg import Q, Row, combine, sparse


# ---------------------------------------------------------------------------
# polynomial paths in h (x) K[t, dt]

class PathElement:
    """p(t) + q(t) dt of total degree ``degree``: the coefficient lists hold
    p_m (degree ``degree``) and q_m (degree ``degree - 1``)."""

    def __init__(self, host: Dgla, degree: int, p: list | None = None,
                 q: list | None = None):
        self.host = host
        self.degree = degree
        self.p = [] if p is None else p   # p[m]: GVec, coefficient of t^m
        self.q = [] if q is None else q   # q[m]: GVec, coefficient of t^m dt
        for coeff in self.p:
            d = vec_degree(coeff)
            if d is not None and d != self.degree:
                raise StructuralError("p-coefficient of wrong degree")
        for coeff in self.q:
            d = vec_degree(coeff)
            if d is not None and d != self.degree - 1:
                raise StructuralError("q-coefficient of wrong degree")
        while self.p and vec_is_zero(self.p[-1]):
            self.p.pop()
        while self.q and vec_is_zero(self.q[-1]):
            self.q.pop()

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def eval_p(self, t: Fraction) -> GVec:
        out: GVec = {}
        power = Q(1)
        for coeff in self.p:
            out = vec_add(out, vec_scale(power, coeff))
            power *= t
        return out

    def integral_q(self) -> GVec:
        """Integral of the dt-component over [0, 1]."""
        out: GVec = {}
        for m, coeff in enumerate(self.q):
            out = vec_add(out, vec_scale(Q(1, m + 1), coeff))
        return out


def constant_path(host: Dgla, x: GVec) -> PathElement:
    deg = vec_degree(x)
    if deg is None:
        raise StructuralError("constant path needs a homogeneous nonzero element")
    return PathElement(host, deg, [dict(x)], [])


def path_add(a: PathElement, b: PathElement) -> PathElement:
    if a.degree != b.degree:
        raise StructuralError("degree mismatch in path addition")
    p = [vec_add(x, y) for x, y in _zip_pad(a.p, b.p)]
    q = [vec_add(x, y) for x, y in _zip_pad(a.q, b.q)]
    return PathElement(a.host, a.degree, p, q)


def path_scale(c: Fraction, a: PathElement) -> PathElement:
    return PathElement(a.host, a.degree,
                       [vec_scale(c, x) for x in a.p],
                       [vec_scale(c, x) for x in a.q])


def _zip_pad(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[m] if m < len(a) else {}, b[m] if m < len(b) else {})
            for m in range(n)]


def path_d(gamma: PathElement) -> PathElement:
    """d(p + q dt) = d_h p + ((-1)^k p' + d_h q) dt for degree k."""
    h = gamma.host
    k = gamma.degree
    sign = Q(-1) if k % 2 else Q(1)
    p = [h.d(c) for c in gamma.p]
    q = []
    for m in range(max(len(gamma.p) - 1, len(gamma.q))):
        term: GVec = {}
        if m + 1 < len(gamma.p):
            term = vec_scale(sign * Q(m + 1), gamma.p[m + 1])
        if m < len(gamma.q):
            term = vec_add(term, h.d(gamma.q[m]))
        q.append(term)
    return PathElement(h, k + 1, p, q)


def path_bracket(g1: PathElement, g2: PathElement) -> PathElement:
    """Pointwise-in-t bracket with dt^2 = 0:
    [p1 + q1 dt, p2 + q2 dt] = [p1, p2] + ([p1, q2] + (-1)^{k2} [q1, p2]) dt."""
    if g1.host is not g2.host and g1.host.space.components != g2.host.space.components:
        raise StructuralError("path bracket requires the same host dgla")
    h = g1.host
    p: list[GVec] = []
    q: list[GVec] = []

    def put(coeffs: list, m: int, val: GVec):
        while len(coeffs) <= m:
            coeffs.append({})
        coeffs[m] = vec_add(coeffs[m], val)

    for m1, c1 in enumerate(g1.p):
        for m2, c2 in enumerate(g2.p):
            put(p, m1 + m2, h.bracket(c1, c2))
        for m2, c2 in enumerate(g2.q):
            put(q, m1 + m2, h.bracket(c1, c2))
    sign = Q(-1) if g2.degree % 2 else Q(1)
    for m1, c1 in enumerate(g1.q):
        for m2, c2 in enumerate(g2.p):
            put(q, m1 + m2, vec_scale(sign, h.bracket(c1, c2)))
    return PathElement(h, g1.degree + g2.degree, p, q)


# ---------------------------------------------------------------------------
# the homotopy-limit pair and its elements

class HolimPair:
    """A dgla h with a closed sub-dgla n, the quotient complex h/n, and
    (h/n)[-1] with its cohomology, made once per pair by ``holim_pair``."""

    def __init__(self, h: Dgla, n: SubDgla, quotient: QuotientComplex,
                 shifted: Complex, shifted_cohomology: CohomologyResult):
        self.h = h
        self.n = n
        self.quotient = quotient
        self.shifted = shifted
        self.shifted_cohomology = shifted_cohomology


def holim_pair(h: Dgla, n: SubDgla) -> HolimPair:
    if n.parent is not h:
        raise StructuralError("n is a sub-dgla of another dgla, not of h")
    report, quotient = sub_quotient(h, n)
    if not report.ok:
        raise StructuralError(f"n is not a closed sub-dgla: {report.failures[:3]}")
    shifted = shift_complex(quotient.complex, -1)
    return HolimPair(h, n, quotient, shifted, cohomology(shifted))


def shifted_quotient(pair: HolimPair) -> Complex:
    """(h/n)[-1], the target of the projection quasi-isomorphism, built
    once per pair."""
    return pair.shifted


class HolimElement:
    def __init__(self, pair: HolimPair, x: GVec, path: PathElement):
        self.pair = pair
        self.x = x
        self.path = path

    @property
    def degree(self) -> int:
        return self.path.degree


def holim_element(pair: HolimPair, x: GVec, path: PathElement) -> HolimElement:
    return HolimElement(pair, x, path)


def holim_validate(e: HolimElement) -> ValidationReport:
    report = ValidationReport()
    xdeg = vec_degree(e.x)
    if xdeg is not None and xdeg != e.degree:
        report.fail("degree", [f"x degree {xdeg}", f"path degree {e.degree}"])
    if not e.pair.n.contains(e.x):
        report.fail("membership", ["x outside the sub-dgla"], _residual_repr(e.x))
    at0 = vec_sub(e.path.eval_p(Q(0)), e.x)
    if not vec_is_zero(at0):
        report.fail("endpoint_zero", ["p(0) != x"], _residual_repr(at0))
    at1 = e.path.eval_p(Q(1))
    if not vec_is_zero(at1):
        report.fail("endpoint_one", ["p(1) != 0"], _residual_repr(at1))
    return report


def holim_d(e: HolimElement) -> HolimElement:
    return HolimElement(e.pair, e.pair.h.d(e.x), path_d(e.path))


def holim_project(e: HolimElement) -> GVec:
    """(x, p + q dt) of degree k -> (-1)^k (integral of q) mod n, as an
    element of (h/n)[-1].

    The result is keyed by its degree in the shifted complex (= k).  The
    integral of d(p + q dt) is d of the integral of q plus (-1)^k (p(1) -
    p(0)), and p(1) = 0, p(0) = x is in n; the sign (-1)^k turns d into the
    -d of (h/n)[-1], so the projection is an exact chain map.
    """
    bar = e.pair.quotient.projection.apply(e.path.integral_q())
    coords = bar.get(e.degree - 1)
    if not coords or not any(coords):
        return {}
    return {e.degree: [-c for c in coords] if e.degree % 2 else coords}


# ---------------------------------------------------------------------------
# the path dgla h (x) K[t, dt] truncated in t-degree, as an explicit Dgla

def _interval_forms(tmax: int) -> CdgaModel:
    """Polynomial forms on [0, 1] up to t-degree tmax; products past tmax
    are dropped (so Leibniz fails on that corner)."""
    n = tmax + 1
    space = GradedVectorSpace({0: tuple(f"t{m}" for m in range(n)),
                               1: tuple(f"t{m}*dt" for m in range(n))})
    # t^a t^b = t^{a+b} and t^a (t^b dt) = t^{a+b} dt; t^m sits at flat
    # position m and t^m dt at n + m
    upper = [((a, shift + b), {shift + a + b: 1})
             for shift in (0, n) for a in range(n) for b in range(n - a)]
    d = {0: [{m - 1: Q(m)} if m else {} for m in range(n)]}    # d t^m = m t^{m-1} dt
    return CdgaModel(Complex(space, GradedMap(space, space, 1, d)),
                     FlatBasis(space).table_from_upper(upper, symmetric=True))


def path_dgla(host: Dgla, tmax: int) -> TensorDgla:
    """h (x) Omega(Delta^1) truncated at t-degree ``tmax``: the
    ``tensor_dgla`` of the host with the forms t^m (degree 0, C position m)
    and t^m dt (degree 1, C position tmax + 1 + m), m <= tmax, where
    d t^m = m t^{m-1} dt, weighted by t-degree with t and dt each of
    weight 1.  The labels are "v@t<m>" and "v@t<m>*dt".

    Brackets whose t-degree exceeds ``tmax`` are silently projected away, so
    only use elements whose products stay within the bound, choosing tmax
    large enough for them.
    """
    n = tmax + 1
    return tensor_dgla(host, _interval_forms(tmax), tuple(range(n)) + tuple(range(1, n + 1)))


# ---------------------------------------------------------------------------
# bounded-t-degree holim complex and its cohomology

def _offsets(pair: HolimPair, tbound: int, k: int) -> tuple[int, int]:
    """Where B and C start in the degree-k basis of ``holim_bounded``."""
    b = pair.n.span.dim(k)
    return b, b + (tbound - 1) * pair.h.space.dim(k)


class HolimBounded:
    """The bounded holim complex of ``holim_bounded`` on its basis A, B, C,
    and its projection to (h/n)[-1]."""

    def __init__(self, pair: HolimPair, tbound: int, complex: Complex,
                 projection_map: GradedMap):
        self.pair = pair
        self.tbound = tbound
        self.complex = complex
        self.projection_map = projection_map  # complex.space -> shifted quotient space

    def coords(self, gamma: PathElement) -> Row | None:
        """The coordinates of the path ``gamma`` of degree k in the degree-k
        basis, or None if it is not in the bounded subcomplex: if p(1) != 0,
        if p(0) is not in n, or if p or q passes the t-degree bound.  A is
        read off the n-coordinates of p_0, B_{j,m} off p_m and C_{j,m} off
        q_m."""
        k, tbound, hspace = gamma.degree, self.tbound, self.pair.h.space
        if len(gamma.p) > tbound + 1 or len(gamma.q) > tbound:
            return None
        p = [sparse(c.get(k, ())) for c in gamma.p] or [{}]
        if combine(p, [(m, 1) for m in range(len(p))]):
            return None
        out = self.pair.n.span.coords(k, p[0])
        if out is None:
            return None
        b, c = _offsets(self.pair, tbound, k)
        for m, row in enumerate(p[1:tbound], 1):
            base = b + (m - 1) * hspace.dim(k)
            out.update((base + j, x) for j, x in row.items())
        for m, coeff in enumerate(gamma.q):
            base = c + m * hspace.dim(k - 1)
            out.update((base + j, x) for j, x in sparse(coeff.get(k - 1, ())).items())
        return out


def holim_bounded(pair: HolimPair, tbound: int) -> HolimBounded:
    """The subcomplex {p(0) in n, p(1) = 0, deg_t p <= D, deg_t q <= D - 1}
    of the path object, written down with no elimination.  In degree k its
    basis is, in this order (B and C by m, then by j):
      A_i = r_i (x) (1 - t^D), r_i the echelon rows of n^k,
      B_{j,m} = e_j (x) (t^m - t^D), e_j in h^k, 1 <= m <= D - 1,
      C_{j,m} = e_j (x) t^m dt, e_j in h^{k-1}, 0 <= m <= D - 1.
    With s = (-1)^k, d(p + q dt) = dp + (s p' + dq) dt gives
      d A_i = sum_l c_l A'_l - sD sum_j r_i[j] C'_{j,D-1}, c = coords of d r_i in n,
      d B_{j,m} = sum_l (de_j)_l B'_{l,m} + sm C'_{j,m-1} - sD C'_{j,D-1},
      d C_{j,m} = sum_l (de_j)_l C'_{l,m}.
    The projection is ``holim_project``: C_{j,m} goes to s pi(e_j)/(m + 1),
    the integral of t^m over [0, 1] being 1/(m + 1), and A and B go to 0."""
    if tbound < 1:
        raise StructuralError("t-degree bound must be at least 1")
    h, sub, hspace = pair.h, pair.n.span, pair.h.space
    d, proj = h.underlying.differential, pair.quotient.projection.columns
    components = {}
    for k in sorted(set(hspace.degrees) | {k + 1 for k in hspace.degrees}):
        ph, qh = hspace.labels(k), hspace.labels(k - 1)
        names = (*(f"n{k}_{i}@(1-t{tbound})" for i in range(sub.dim(k))),
                 *(f"{v}@(t{m}-t{tbound})" for m in range(1, tbound) for v in ph),
                 *(f"{v}@t{m}*dt" for m in range(tbound) for v in qh))
        if names:
            components[k] = names
    space = GradedVectorSpace(components)

    d_columns, p_columns = {}, {}
    for k in space.degrees:
        hp, hq, s = hspace.dim(k), hspace.dim(k - 1), -1 if k % 2 else 1
        if space.dim(k + 1):
            b1, c1 = _offsets(pair, tbound, k + 1)
            top = c1 + (tbound - 1) * hp            # C'_{0,D-1}
            cols = []
            for row in sub.rows(k):
                col = sub.coords(k + 1, d.apply_row(k, row))
                if col is None:
                    raise StructuralError(f"n is not closed under d in degree {k}")
                col.update((top + j, -s * tbound * x) for j, x in row.items())
                cols.append(col)
            dp, dq = d.columns.get(k), d.columns.get(k - 1)
            for m in range(1, tbound):
                base = b1 + (m - 1) * hspace.dim(k + 1)
                for j in range(hp):
                    col = {base + l: x for l, x in dp[j].items()} if dp else {}
                    col[c1 + (m - 1) * hp + j] = s * m
                    col[top + j] = -s * tbound
                    cols.append(col)
            for m in range(tbound):
                base = c1 + m * hp
                cols += [{base + l: x for l, x in dq[j].items()} if dq else {}
                         for j in range(hq)]
            d_columns[k] = cols
        pk = proj.get(k - 1)
        if pk:
            p_columns[k] = [{} for _ in range(_offsets(pair, tbound, k)[1])] + [
                {r: x / w for r, x in pk[j].items()} if w != 1 else pk[j]
                for w in range(s, s * (tbound + 1), s) for j in range(hq)]
    complex = Complex(space, GradedMap(space, space, 1, d_columns))
    projection = GradedMap(space, shifted_quotient(pair).space, 0, p_columns)
    return HolimBounded(pair, tbound, complex, projection)


class HolimCohomologyResult:
    def __init__(self, tbound: int, ranks: dict, quotient_ranks: dict,
                 projection_ranks: dict):
        self.tbound = tbound
        self.ranks = ranks
        self.quotient_ranks = quotient_ranks
        self.projection_ranks = projection_ranks

    @property
    def agree(self) -> bool:
        return (self.ranks == self.quotient_ranks
                and self.projection_ranks == self.ranks)


def holim_cohomology_bounded(pair: HolimPair, tbound: int) -> HolimCohomologyResult:
    """Cohomology ranks of the bounded holim complex, compared degree-wise
    with H^{k-1}(h/n), plus the ranks of the projection on cohomology."""
    bounded = holim_bounded(pair, tbound)
    hc, qc = cohomology(bounded.complex), pair.shifted_cohomology
    induced = induced_map_on_cohomology(bounded.projection_map, bounded.complex,
                                        pair.shifted, hc, qc)
    ranks = {k: linalg.rank(cols) for k, cols in induced.items()}
    proj_ranks = {k: r for k, r in ranks.items() if r}
    return HolimCohomologyResult(tbound, dict(hc.ranks), dict(qc.ranks), proj_ranks)


# ---------------------------------------------------------------------------
# the morphism (l, e^i) into holim

def induced_quotient_map(pair: HolimPair, g: Dgla, i: GradedMap) -> GradedMap:
    """a -> i_a mod n, the chain map g -> (h/n)[-1] induced by a Cartan
    homotopy whose l lands in n: d i + i d = l, so i d = -d i mod n, and -d
    is the differential of (h/n)[-1]."""
    if i.shift != -1:
        raise StructuralError("the inducing map must have degree -1")
    target = shifted_quotient(pair)
    return GradedMap(g.space, target.space, 0,
                     pair.quotient.projection.compose(i).columns)


class HolimMorphism:
    """The arity-truncated morphism (l, e^i) from g into holim(n => h).

    ``flow[m]`` is the t^m coefficient of Phi(t) = e^{t i} * l in the
    convolution dgla ``conv`` = Hom(g, h); the dt-component is concentrated
    in arity one with values (-1)^{|a|} i_a.  Hom(g, h (x) Omega) is
    (h (x) CE) (x) Omega after the Koszul swap of CE and the forms, which
    turns that dt-component into -i dt.  So ``total`` = Phi(t) - i dt is a
    path in ``conv``, and ``residual`` is its Maurer-Cartan residual, zero
    for a genuine Cartan homotopy.
    """

    def __init__(self, g: Dgla, pair: HolimPair, i: GradedMap, l: GradedMap,
                 conv: TensorDgla, flow: list, total: PathElement, residual: PathElement):
        self.g = g
        self.pair = pair
        self.i = i
        self.l = l
        self.conv = conv
        self.flow = flow
        self.total = total
        self.residual = residual

    def arity_one(self, a: GVec) -> HolimElement:
        """The first Taylor coefficient a -> (l_a, gamma_a)."""
        from .convolution import linear_part
        deg = vec_degree(a)
        if deg is None:
            raise StructuralError("need a homogeneous nonzero argument")
        p = [linear_part(self.g, self.conv, c, 0).apply(a) for c in self.flow]
        q0 = vec_scale(Q(-1) if deg % 2 else Q(1), self.i.apply(a))
        return HolimElement(self.pair, self.l.apply(a),
                            PathElement(self.pair.h, deg, p, [q0]))

    def projected_linear_part(self) -> GradedMap:
        """holim_project composed with the arity-one component."""
        target = shifted_quotient(self.pair)
        sp = self.g.space
        return GradedMap(sp, target.space, 0, {
            k: [sparse(holim_project(self.arity_one(sp.basis_element(k, idx))).get(k, []))
                for idx in range(sp.dim(k))]
            for k in sp.degrees if target.space.dim(k)})


def map_into_holim(g: Dgla, i: GradedMap, pair: HolimPair,
                   arity_bound: int = 4) -> HolimMorphism:
    """Build (l, e^i): g -> holim(n => h) from a Cartan homotopy i whose
    associated morphism l lands in n.  Rejects inputs failing either
    hypothesis; records the Maurer-Cartan residual slices of the result."""
    from .cartan import cartan_check, lie_from_cartan
    from .convolution import convolution, from_linear
    report = cartan_check(g, pair.h, i)
    if not report.ok:
        raise StructuralError(f"not a Cartan homotopy: {report.failures[:3]}")
    l = lie_from_cartan(g, pair.h, i)
    for (deg, idx) in g.space.basis():
        img = l.apply(g.space.basis_element(deg, idx))
        if not pair.n.contains(img):
            raise StructuralError(
                f"l({g.space.label(deg, idx)}) is not in the sub-dgla")

    conv = convolution(g, pair.h, arity_bound)
    d = conv.dgla
    ielem, lelem = from_linear(g, conv, i), from_linear(g, conv, l)
    flow = [lelem] + ad_exp_terms(d.bracket, vec_scale, vec_is_zero, ielem,
                                  vec_sub(d.bracket(ielem, lelem), d.d(ielem)),
                                  arity_bound + 1)
    at_one: GVec = {}
    for c in flow:
        at_one = vec_add(at_one, c)
    if not vec_is_zero(at_one):
        raise StructuralError("flow endpoint Phi(1) is nonzero; "
                              "the Cartan identities do not close the series")

    total = PathElement(d, 1, list(flow), [vec_scale(Q(-1), ielem)])
    residual = path_add(path_d(total), path_scale(Q(1, 2), path_bracket(total, total)))
    return HolimMorphism(g, pair, i, l, conv, flow, total, residual)


# ---------------------------------------------------------------------------
# quasi-abelianity witness

class QuasiAbelianWitness:
    def __init__(self, pair: HolimPair, section: GradedMap, morphism: HolimMorphism,
                 induced: dict, source_ranks: dict, holim_ranks: dict):
        self.pair = pair
        self.section = section
        self.morphism = morphism
        self.induced = induced      # degree -> matrix of H(witness map) at the bound
        self.source_ranks = source_ranks
        self.holim_ranks = holim_ranks

    @property
    def is_isomorphism(self) -> bool:
        degs = set(self.source_ranks) | set(self.holim_ranks)
        for k in degs:
            r = self.source_ranks.get(k, 0)
            if r != self.holim_ranks.get(k, 0):
                return False
            if r and linalg.rank(self.induced.get(k, [])) != r:
                return False
        return True


def quasi_abelian_witness(pair: HolimPair, section: GradedMap,
                          tbound: int = 2) -> QuasiAbelianWitness:
    """Given a degree-wise chain-map section s of h -> h/n, verify that s is
    a Cartan homotopy from the abelian dgla (h/n)[-1] into h with l = 0, and
    that the resulting map (0, e^s) into holim induces an isomorphism on
    bounded cohomology."""
    qcx = pair.quotient.complex
    if section.shift != 0:
        raise StructuralError("the section must be a degree-0 map h/n -> h")
    composite = pair.quotient.projection.compose(section).columns
    if any(composite.get(k) != [{c: 1} for c in range(qcx.space.dim(k))]
           for k in qcx.space.degrees):
        raise StructuralError("the given map is not a section of the projection")
    res = is_chain_map(section, qcx, pair.h.underlying)
    if not res.is_zero():
        raise StructuralError("the section is not a chain map")

    source = abelian_dgla(shifted_quotient(pair))
    s_shift = GradedMap(source.space, pair.h.space, -1,
                        {qdeg + 1: cols for qdeg, cols in section.columns.items()})

    morphism = map_into_holim(source, s_shift, pair, arity_bound=2)
    if not morphism.l.is_zero():
        raise StructuralError("quasi-abelian witness expects l = 0")

    bounded = holim_bounded(pair, tbound)
    columns = {}
    for k in source.space.degrees:
        if not bounded.complex.space.dim(k):
            continue
        cols = columns[k] = []
        for idx in range(source.space.dim(k)):
            e = morphism.arity_one(source.space.basis_element(k, idx))
            sol = bounded.coords(e.path)
            if sol is None:
                raise StructuralError("witness image leaves the bounded subcomplex")
            cols.append(sol)
    wmap = GradedMap(source.space, bounded.complex.space, 0, columns)

    hs = cohomology(source.underlying)
    ht = cohomology(bounded.complex)
    induced = induced_map_on_cohomology(wmap, source.underlying, bounded.complex,
                                        hs, ht)
    return QuasiAbelianWitness(pair, section, morphism, induced,
                               dict(hs.ranks), dict(ht.ranks))
