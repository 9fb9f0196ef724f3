"""Homotopy limit of the two-arrow diagram n => h (inclusion and zero).

The model is the path object.  A path is an element gamma = p(t) + q(t) dt
of the path dgla ``path_dgla(h, T)``, h (x) Omega(Delta^1) with the forms cut
at weight T (t and dt each of weight 1), and the holim is cut out by p(0) in
the sub-dgla n and p(1) = 0.  Its parts at t^m and t^m dt are read by
``TensorDgla.split``; ``at_zero``, ``at_one`` and ``integral_dt`` are the
linear readers p(0), p(1) and the integral of q over [0, 1].  This complex is
quasi-isomorphic to (h/n)[-1]; the quasi-isomorphism integrates the
dt-component and reduces mod n.  Cohomology computations bound the
polynomial t-degree by D and report stabilization.  ``holim_bounded`` writes
that bounded complex down in closed form, on a basis read off h's d, the
echelon rows of n and the quotient projection, with no elimination; the
tests check that basis inside the path dgla.  ``map_into_holim`` computes
its flow and residual on the (D, N) elements of ``linalg``.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .dgla import (CdgaModel, Dgla, FlatBasis, Sparse, SubDgla, TensorDgla, _add_into,
                   _residue, abelian_dgla, sub_quotient, tensor_dgla)
from .graded import (CohomologyResult, Complex, GradedMap, GradedVectorSpace, GVec,
                     QuotientComplex, StructuralError,
                     cohomology, induced_map_on_cohomology, is_chain_map,
                     shift_complex, vec_degree, vec_is_zero)
from .linalg import Q, Row, _d_bracket, _fractions, _num, ad_exp_terms, sparse


# ---------------------------------------------------------------------------
# the homotopy-limit pair

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


# ---------------------------------------------------------------------------
# the path dgla h (x) Omega(Delta^1) cut at a weight, and its linear readers

def _interval_forms(tmax: int) -> CdgaModel:
    """Polynomial forms on [0, 1] cut at weight tmax, t and dt each of weight
    1: t^m for m <= tmax and t^m dt for m <= tmax - 1, with d t^m =
    m t^{m-1} dt.  The forms of weight above tmax span a dg ideal, so the
    cut is a cdga with integral constants."""
    dt = tmax + 1
    space = GradedVectorSpace({0: tuple(f"t{m}" for m in range(dt)),
                               1: tuple(f"t{m}*dt" for m in range(tmax))})
    # t^a t^b = t^{a+b} and t^a (t^b dt) = t^{a+b} dt up to weight tmax; t^m
    # sits at flat position m and t^m dt at tmax + 1 + m
    upper = [((a, shift + b), {shift + a + b: 1})
             for shift, top in ((0, dt), (dt, tmax)) for a in range(top) for b in range(top - a)]
    d = {0: [{m - 1: m} if m else {} for m in range(dt)]}
    return CdgaModel(Complex(space, GradedMap(space, space, 1, d)),
                     FlatBasis(space).table_from_upper(upper, symmetric=True))


def path_dgla(host: Dgla, tmax: int) -> TensorDgla:
    """h (x) Omega(Delta^1) cut at weight ``tmax``: the ``tensor_dgla`` of the
    host with ``_interval_forms(tmax)``, t^m at C position m and t^m dt at C
    position tmax + 1 + m, of weights m and m + 1.  A product of paths
    is the product in h (x) K[t, dt] whenever its weight stays within
    ``tmax``.  The labels are "v@t<m>" and "v@t<m>*dt"."""
    return tensor_dgla(host, _interval_forms(tmax),
                       tuple(range(tmax + 1)) + tuple(range(1, tmax + 1)))


def _tmax(paths: TensorDgla) -> int:
    """The weight cut T of ``paths`` = path_dgla(h, T): its number of dt-forms."""
    return paths.c.space.dim(1)


def _read(paths: TensorDgla, gamma: GVec, values: dict) -> GVec:
    """sum_j values[j] s_j for gamma = sum_j s_j (x) f_j in ``paths``: the
    linear functional ``values`` on the forms, applied to the forms factor."""
    acc: Sparse = {}
    for j, s in paths.split(paths.dgla.table.flat(gamma)).items():
        if j in values:
            _add_into(acc, values[j], s)
    return paths.g.table.graded(acc)


def at_zero(paths: TensorDgla, gamma: GVec) -> GVec:
    """p(0) for the path gamma = p + q dt of ``paths``."""
    return _read(paths, gamma, {0: 1})


def at_one(paths: TensorDgla, gamma: GVec) -> GVec:
    """p(1) for the path gamma = p + q dt of ``paths``."""
    return _read(paths, gamma, dict.fromkeys(range(_tmax(paths) + 1), 1))


def integral_dt(paths: TensorDgla, gamma: GVec) -> GVec:
    """The integral of q over [0, 1] for the path gamma = p + q dt of
    ``paths``: t^m dt integrates to 1/(m + 1)."""
    tmax = _tmax(paths)
    return _read(paths, gamma, {tmax + 1 + m: Q(1, m + 1) for m in range(tmax)})


def join_path(paths: TensorDgla, p: dict[int, Sparse], q: dict[int, Sparse]) -> GVec:
    """sum_m p[m] (x) t^m + q[m] (x) t^m dt in ``paths``, for flat elements
    p[m] and q[m] of the host."""
    dt = _tmax(paths) + 1
    if any(m >= dt for m in p) or any(m >= dt - 1 for m in q):
        raise StructuralError("path coefficient past the weight cut")
    return paths.dgla.table.graded(paths.join({**p, **{dt + m: s for m, s in q.items()}}))


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

    def coords(self, paths: TensorDgla, gamma: GVec) -> Row | None:
        """The coordinates of the path ``gamma`` of degree k, an element of
        ``paths`` = path_dgla(h, T), in the degree-k basis, or None if it is
        not in the bounded subcomplex: if p(1) != 0, if p(0) is not in n, or
        if p or q passes the t-degree bound.  A is read off the
        n-coordinates of p(0), and B_{j,m} and C_{j,m} off the parts of
        gamma at t^m and t^m dt.  Raises if gamma is not homogeneous."""
        if vec_is_zero(gamma):
            return {}
        k, tmax, tbound, ht = vec_degree(gamma), _tmax(paths), self.tbound, paths.g.table
        if k is None:
            raise StructuralError("need a homogeneous path")
        if not vec_is_zero(at_one(paths, gamma)):
            return None
        out = self.pair.n.span.coords(k, sparse(at_zero(paths, gamma).get(k, ())))
        if out is None:
            return None
        b, c = _offsets(self.pair, tbound, k)
        hdim = self.pair.h.space.dim
        for j, part in paths.split(paths.dgla.table.flat(gamma)).items():
            if j <= tmax:                           # p_j: B_{-,j} for 0 < j < D
                if j > tbound:
                    return None
                if not 0 < j < tbound:
                    continue
                base = b + (j - 1) * hdim(k) - ht.offset[k]
            else:                                   # q_m: C_{-,m} for m < D
                m = j - tmax - 1
                if m >= tbound:
                    return None
                base = c + m * hdim(k - 1) - ht.offset[k - 1]
            out.update((base + v, x) for v, x in part.items())
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
    The projection is the holim projection, (x, p + q dt) -> s pi(integral
    of q), an exact chain map to (h/n)[-1]: C_{j,m} goes to s pi(e_j)/(m + 1),
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
    projection = GradedMap(space, pair.shifted.space, 0, p_columns)
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
    return GradedMap(g.space, pair.shifted.space, 0,
                     pair.quotient.projection.compose(i).columns)


class HolimMorphism:
    """The arity-truncated morphism (l, e^i) from g into holim(n => h).

    ``flow[m]`` is the t^m coefficient of Phi(t) = e^{t i} * l in the
    convolution dgla ``conv`` = Hom(g, h); the dt-component is concentrated
    in arity one with values (-1)^{|a|} i_a.  Hom(g, h (x) Omega) is
    (h (x) CE) (x) Omega after the Koszul swap of CE and the forms, which
    turns that dt-component into -i dt.  So ``total`` = Phi(t) - i dt is a
    path of ``paths`` = path_dgla(conv, T), and ``residual`` is its
    Maurer-Cartan residual there, zero for a genuine Cartan homotopy.  T is
    conv's arity max(2, arity_bound): flow[m] has arity at least m and conv
    vanishes above T, so no product that the weight cut drops is nonzero.
    """

    def __init__(self, g: Dgla, pair: HolimPair, i: GradedMap, l: GradedMap,
                 conv: TensorDgla, flow: list, paths: TensorDgla, total: GVec,
                 residual: GVec):
        self.g = g
        self.pair = pair
        self.i = i
        self.l = l
        self.conv = conv
        self.flow = flow
        self.paths = paths
        self.total = total
        self.residual = residual

    @cached_property
    def h_paths(self) -> TensorDgla:
        """path_dgla(h, T), where ``arity_one`` lands."""
        return path_dgla(self.pair.h, _tmax(self.paths))

    def arity_one(self, a: GVec) -> GVec:
        """The first Taylor coefficient a -> gamma_a, the path of ``h_paths``
        with t^m part the arity-one part of flow[m] at a and dt part
        (-1)^{|a|} i_a; gamma_a(0) = l_a."""
        from .convolution import linear_part
        deg = vec_degree(a)
        if deg is None:
            raise StructuralError("need a homogeneous nonzero argument")
        flat = self.pair.h.table.flat
        q = flat(self.i.apply(a))
        return join_path(self.h_paths,
                         {m: flat(linear_part(self.g, self.conv, c, 0).apply(a))
                          for m, c in enumerate(self.flow)},
                         {0: {v: -c for v, c in q.items()} if deg % 2 else q})

    def projected_linear_part(self) -> GradedMap:
        """The holim projection (-1)^k pi(integral of q) composed with the
        arity-one component."""
        target, sp, proj = self.pair.shifted.space, self.g.space, self.pair.quotient.projection
        columns = {k: [] for k in sp.degrees if target.dim(k)}
        for k, cols in columns.items():
            for idx in range(sp.dim(k)):
                gamma = self.arity_one(sp.basis_element(k, idx))
                bar = proj.apply(integral_dt(self.h_paths, gamma)).get(k - 1, ())
                cols.append({r: -x if k % 2 else x for r, x in sparse(bar).items()})
        return GradedMap(sp, target, 0, columns)


def map_into_holim(g: Dgla, i: GradedMap, pair: HolimPair,
                   arity_bound: int = 4) -> HolimMorphism:
    """Build (l, e^i): g -> holim(n => h) from a Cartan homotopy i whose
    associated morphism l lands in n.  Rejects inputs failing either
    hypothesis; records the Maurer-Cartan residual.  The check, l and the
    flow share one convolution dgla, of arity max(2, arity_bound)."""
    from .cartan import cartan_check, lie_from_cartan
    from .convolution import convolution, from_linear
    tmax = max(2, arity_bound)
    conv = convolution(g, pair.h, tmax)
    report = cartan_check(g, conv, i)
    if not report.ok:
        raise StructuralError(f"not a Cartan homotopy: {report.failures[:3]}")
    l = lie_from_cartan(g, conv, i)
    for (deg, idx) in g.space.basis():
        img = l.apply(g.space.basis_element(deg, idx))
        if not pair.n.contains(img):
            raise StructuralError(
                f"l({g.space.label(deg, idx)}) is not in the sub-dgla")

    d = conv.dgla
    t = d.table
    ielem = t.flat(from_linear(g, conv, i))
    fi, fl = _num(ielem), _num(t.flat(from_linear(g, conv, l)))
    flow = [_fractions(c) for c in [fl] + ad_exp_terms(
        t, fi, _d_bracket(t, d.dcols, fi, -1, fi, fl), tmax + 1)]
    paths = path_dgla(d, tmax)
    total = join_path(paths, dict(enumerate(flow)), {0: {v: -c for v, c in ielem.items()}})
    if not vec_is_zero(at_one(paths, total)):
        raise StructuralError("flow endpoint Phi(1) is nonzero; "
                              "the Cartan identities do not close the series")
    pt = paths.dgla.table
    residual = pt.graded(_fractions(_residue(paths.dgla, _num(pt.flat(total)))))
    return HolimMorphism(g, pair, i, l, conv, [t.graded(c) for c in flow], paths, total,
                         residual)


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

    source = abelian_dgla(pair.shifted)
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
            sol = bounded.coords(morphism.h_paths,
                                 morphism.arity_one(source.space.basis_element(k, idx)))
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
