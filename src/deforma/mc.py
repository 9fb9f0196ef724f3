"""Maurer-Cartan theory over a nilpotent coefficient ideal.

Everything here lives in g (x) m_A for a dgla g and the maximal ideal m_A of
a local Artin algebra: the Maurer-Cartan equation, the gauge action of the
exponential group exp((g (x) m_A)^0), irrelevant (stabilizer) gauges, a staged
gauge-equivalence solver, order-by-order extension with cohomological
obstruction classes, and the Baker-Campbell-Hausdorff group law.

Elements cross the public API as ``GVec``s and are computed on as the
(D, N) integer numerators of ``linalg`` (``_num``, ``_bracket``,
``_d_bracket``, ``_combine``), converted once on entry (``table.flat``,
then ``_num``) and once on exit (``_graded``), so the exponential series
and the residue of ``dgla``, the BCH recursion and the staged solvers run
on Python ints.  The host is the ``TensorDgla`` that
``artin.tensor_nilpotent`` builds, and the monomial parts of an element
are read by its ``split`` and ``join``.  On
g (x) m_A the differential is d(v (x) m) = dv (x) m, so a weight stage
d xi = r is solved one monomial at a time against one reduction of the
base d per degree (``TensorDgla.d_solver``).  ``irrelevant_stabilizer``
multiplies the ``Fraction`` coordinates of x into the stored rows.
"""

from __future__ import annotations

import math
from functools import partial, reduce

from .dgla import Dgla, Sparse, SubDgla, TensorDgla, _add_into, _residue
from .graded import GVec, StructuralError, vec_add, vec_is_zero, vec_scale
from .linalg import (Num, Q, _bracket, _combine, _d_bracket, _fractions, _num, _reduced,
                     ad_exp_terms)

_ONE = Q(1)


def _entry(t, x: GVec, deg: int, what: str) -> Sparse:
    """x in the flat coordinates of ``t``, checked homogeneous of degree ``deg``."""
    s = t.flat(x)
    if any(t.position[k][0] != deg for k in s):
        raise StructuralError(f"{what} must be homogeneous of degree {deg}")
    return s


def _graded(t, x: Num) -> GVec:
    return t.graded(_fractions(x))


def _order(ng: TensorDgla) -> int:
    """The nilpotency order of m_A, one past its top monomial weight."""
    return max(ng.weight) + 1


def _candidate(g: Dgla, x: GVec) -> Num:
    return _num(_entry(g.table, x, 1, "Maurer-Cartan candidate"))


def mc_residue(ng: TensorDgla | Dgla, x: GVec) -> GVec:
    """dx + [x, x]/2 for a degree-1 element of g (x) m_A or of any dgla."""
    g = ng.dgla if isinstance(ng, TensorDgla) else ng
    return _graded(g.table, _residue(g, _candidate(g, x)))


def is_mc(ng: TensorDgla, x: GVec) -> bool:
    return not _residue(ng.dgla, _candidate(ng.dgla, x))[1]


def _gauge_terms(ng: TensorDgla, alpha: Num, x: Num) -> list[Num]:
    """The nonzero terms ad_alpha^n / (n+1)! ([alpha, x] - d alpha), n >= 0.

    The series terminates because alpha has positive coefficient weight.
    """
    t = ng.dgla.table
    return ad_exp_terms(t, alpha, _d_bracket(t, ng.dgla.dcols, alpha, -1, alpha, x), _order(ng))


def gauge_act(ng: TensorDgla, alpha: GVec, x: GVec) -> GVec:
    """e^alpha * x = x + sum_n ad_alpha^n / (n+1)! ([alpha, x] - d alpha)."""
    t = ng.dgla.table
    fa = _num(_entry(t, alpha, 0, "gauge parameter"))
    fx = _num(_entry(t, x, 1, "gauge argument"))
    terms = _gauge_terms(ng, fa, fx)
    return _graded(t, _combine([(1, fx)] + [(1, s) for s in terms])) if terms else dict(x)


def irrelevant_stabilizer(ng: TensorDgla, x: GVec,
                          sub: SubDgla | None = None) -> list[GVec]:
    """Spanning set of the irrelevant stabilizer directions at x:
    {d h + [x, h] : h of degree -1}.

    With ``sub`` given (a sub-dgla of the base, viewed inside g (x) m_A), h
    ranges over degree -1 elements of sub (x) m_A instead.
    """
    if sub is not None and sub.parent is not ng.g:
        raise StructuralError("sub is a sub-dgla of another dgla, not of the base")
    t, base = ng.dgla.table, ng.g.table.offset.get(-1)
    fx = _entry(t, x, 1, "Maurer-Cartan point")
    vs = (sub.span.rows(-1) if sub is not None else
          [{i: 1} for i in range(ng.g.space.dim(-1))])
    rows, dcols, out = [(c, t.row(a)) for a, c in fx.items()], ng.dgla.dcols, []
    for v in vs:
        for mon in range(len(ng.weight)):
            acc: Sparse = {}
            for j, hc in v.items():     # h = v (x) m; [x, h] reads the rows of x
                b = ng.layout.at(base + j, mon)
                _add_into(acc, hc, dcols[b])
                for c, row in rows:
                    if b in row:
                        _add_into(acc, c if hc == 1 else c * hc, row[b])
            out.append(t.graded(acc))
    return [g for g in out if g]


class GaugeResult:
    def __init__(self, status: str, alpha: GVec | None = None, detail: str = ""):
        self.status = status    # "equivalent" | "not_equivalent" | "inconclusive"
        self.alpha = alpha
        self.detail = detail


def _solve_d(ng: TensorDgla, deg: int, w: int, r: Num) -> Num | None:
    """The xi of degree ``deg`` and weight w with d xi = r at the positions of
    weight w, zero wherever ``linalg.solve`` on that slice of d sets a free
    variable; None if there is none.

    d maps v (x) m to dv (x) m, so the slice is the base d once per monomial
    m of weight w, and each monomial's part of r is solved on its own
    against ``ng.d_solver(deg)``."""
    solver, gt = ng.d_solver(deg), ng.g.table
    d, n = r
    parts = ng.split({p: n[p] for p in ng.by_weight.get((deg + 1, w), ()) if p in n})
    xi = {}
    for mon, b in parts.items():
        sol = solver.solve_numerators({gt.position[v][1]: c for v, c in b.items()})
        if sol is None:
            return None
        xi[mon] = {gt.offset[deg] + j: c for j, c in sol.items()}
    return _reduced(d * solver.den, ng.join(xi))


def gauge_equivalent(ng: TensorDgla, x: GVec, y: GVec) -> GaugeResult:
    """Search for alpha with e^alpha * x = y, staged by coefficient weight.

    At each weight w the equation linearizes to d(alpha_w) = -(residual at
    weight w).  A failure at weight 1 is a genuine obstruction; so is any
    failure when the bracket vanishes (the action is then affine and the
    stages are independent).  Otherwise a failed stage is inconclusive,
    because earlier stages admitted unexplored solution families.
    """
    t = ng.dgla.table
    fx, fy = (_num(_entry(t, v, 1, "gauge argument")) for v in (x, y))
    if any(_residue(ng.dgla, f)[1] for f in (fx, fy)):
        raise StructuralError("gauge equivalence is only tested between "
                              "Maurer-Cartan elements")

    def excess(alpha: Num) -> Num:                  # e^alpha * x - y
        terms = _gauge_terms(ng, alpha, fx) if alpha[1] else []
        return _combine([(1, fx), (-1, fy)] + [(1, s) for s in terms])

    alpha: Num = (1, {})
    abelian = ng.g.is_abelian()
    for w in range(1, _order(ng)):
        r = excess(alpha)
        if not r[1]:
            break
        xi = _solve_d(ng, 0, w, r)              # d alpha_w = r at weight w
        if xi is None:
            if w == 1 or abelian:
                return GaugeResult("not_equivalent", None,
                                   f"unsolvable linear stage at weight {w}")
            return GaugeResult("inconclusive", None,
                               f"staged solver failed at weight {w}")
        alpha = _combine([(1, alpha), (1, xi)])
    if not excess(alpha)[1]:
        return GaugeResult("equivalent", _graded(t, alpha))
    return GaugeResult("inconclusive", None, "residual survived all stages")


class ObstructionClass:
    """Weight-w obstruction of a partial Maurer-Cartan solution.

    ``classes`` maps each weight-w monomial label to the coordinates of the
    corresponding degree-2 cohomology class of the base dgla.
    """

    def __init__(self, weight: int, classes: dict | None = None,
                 representative: GVec | None = None):
        self.weight = weight
        self.classes = {} if classes is None else classes
        self.representative = {} if representative is None else representative

    @property
    def vanishes(self) -> bool:
        return all(not any(v) for v in self.classes.values())


def _obstruction(ng: TensorDgla, r: Num) -> ObstructionClass | None:
    """The obstruction of the residue r; None if r is zero."""
    if not r[1]:
        return None
    weights, labels = ng.weights, ng.c.space.labels(0)
    w = min(weights[k] for k in r[1])
    r_w = {k: Q(v, r[0]) for k, v in r[1].items() if weights[k] == w}
    h2 = ng.base_cohomology
    classes = {}
    for mon, s in sorted(ng.split(r_w).items()):    # the monomials of weight w
        comp = ng.g.table.graded(s)
        if not vec_is_zero(ng.g.d(comp)):
            raise StructuralError("obstruction slice is not a cocycle; "
                                  "the input does not solve the equation "
                                  "below its residue weight")
        classes[labels[mon]] = h2.project(comp).get(2, [Q(0)] * max(h2.rank(2), 1))
    return ObstructionClass(weight=w, classes=classes, representative=ng.dgla.table.graded(r_w))


def mc_obstruction(ng: TensorDgla, x: GVec) -> ObstructionClass | None:
    """Lowest-weight obstruction to x being Maurer-Cartan; None if it is.

    The lowest-weight slice of the residue is a cocycle of the base dgla in
    degree 2, one class per monomial; x can be corrected at that weight iff
    every class vanishes.
    """
    return _obstruction(ng, _residue(ng.dgla, _candidate(ng.dgla, x)))


def _correct(ng: TensorDgla, x: Num, r: Num, w: int) -> Num:
    """x - xi, with xi of weight w and d xi the weight-w slice of the residue r."""
    xi = _solve_d(ng, 1, w, r)
    if xi is None:
        raise StructuralError("vanishing obstruction class with unsolvable "
                              "correction; inconsistent cohomology data")
    return _combine([(1, x), (-1, xi)])


def mc_correct_step(ng: TensorDgla, x: GVec) -> GVec | None:
    """One extension step: kill the lowest-weight residue by a same-weight
    correction, or None if the obstruction class is nonzero."""
    fx = _candidate(ng.dgla, x)
    r = _residue(ng.dgla, fx)
    obs = _obstruction(ng, r)
    if obs is None:
        return x
    return _graded(ng.dgla.table, _correct(ng, fx, r, obs.weight)) if obs.vanishes else None


class ExtensionResult:
    def __init__(self, status: str, element: GVec | None = None,
                 obstruction: ObstructionClass | None = None):
        self.status = status    # "solved" | "obstructed"
        self.element = element
        self.obstruction = obstruction


def mc_extend(ng: TensorDgla, seed: GVec) -> ExtensionResult:
    """Extend a seed to a full Maurer-Cartan element weight by weight.

    Stops at the first nonvanishing obstruction class.  The correction at
    weight w does not disturb lower weights, so the loop terminates within
    the nilpotency order.
    """
    t = ng.dgla.table
    x, fx = dict(seed), _num(_entry(t, seed, 1, "seed"))    # x is None once corrected
    for _ in range(_order(ng) + 1):
        r = _residue(ng.dgla, fx)
        obs = _obstruction(ng, r)
        if obs is None or not obs.vanishes:
            return ExtensionResult("solved" if obs is None else "obstructed",
                                   _graded(t, fx) if x is None else x, obs)
        fx, x = _correct(ng, fx, r, obs.weight), None
    raise RuntimeError("extension failed to terminate")


# ---------------------------------------------------------------------------
# Baker-Campbell-Hausdorff

def _bernoulli(n: int) -> list[Q]:
    """B_0 .. B_n from sum_{k <= m} C(m+1, k) B_k = 0 (so B_1 = -1/2)."""
    b = [Q(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def _compositions(n: int, parts: int):
    """Every (k_1, ..., k_parts) with k_i >= 1 and sum n."""
    if parts == 1:
        yield (n,)
        return
    for k in range(1, n - parts + 2):
        for rest in _compositions(n - k, parts - 1):
            yield (k,) + rest


def _gvec_sum(terms) -> GVec:
    return reduce(vec_add, (vec_scale(c, v) for c, v in terms), {})


def bch(bracket, x, y, cutoff: int, combine=_gvec_sum):
    """log(e^x e^y) = Z_1 + ... + Z_cutoff, with Z_n the part of bracket
    length n, by Varadarajan's recursion (Lie Groups, Lie Algebras and Their
    Representations, 1984, section 2.15):

        Z_1 = x + y,
        (n+1) Z_{n+1} = 1/2 [x - y, Z_n]
            + sum_{p >= 1, 2p <= n} B_2p / (2p)!
              sum_{k_1 + ... + k_2p = n, k_i >= 1}
              [Z_k1, [... [Z_k2p, x + y] ...]]

    with B_2p the Bernoulli numbers.  Each nested bracket is computed once,
    memoised by its suffix (k_j, ..., k_2p) and made after the shorter
    suffixes it contains.

    ``bracket`` is the Lie bracket and ``combine`` sums (coefficient, element)
    pairs, on the caller's elements (GVecs by default).  x and y should be
    degree-0 elements of a nilpotent Lie algebra whose (cutoff+1)-fold
    brackets vanish; for g (x) m_A take cutoff = order - 1, and the sum is
    then the whole series.
    """
    z = [{}, combine([(_ONE, x), (_ONE, y)])]        # z[n] = Z_n
    diff = combine([(_ONE, x), (-_ONE, y)])
    nested = {(): z[1]}                 # suffix -> [Z_kj, [..., [Z_k2p, x + y]...]]
    bernoulli = _bernoulli(cutoff)
    for n in range(1, cutoff):
        terms = [(Q(1, 2 * (n + 1)), bracket(diff, z[n]))]
        for p in range(1, n // 2 + 1):
            c = bernoulli[2 * p] / (math.factorial(2 * p) * (n + 1))
            for ks in _compositions(n, 2 * p):
                for i in range(len(ks) - 1, -1, -1):     # suffixes, shortest first
                    if ks[i:] not in nested:
                        nested[ks[i:]] = bracket(z[ks[i]], nested[ks[i + 1:]])
                terms.append((c, nested[ks]))
        z.append(combine(terms))
    return combine([(_ONE, zn) for zn in z[1:cutoff + 1]])


def gauge_path(ng: TensorDgla, alpha: GVec, x: GVec) -> GVec:
    """The homotopy p(t) + q(t) dt from x to e^alpha * x, an element of
    path_dgla(g (x) m_A, N) for the nilpotency order N of m_A:
    p(t) = e^{t alpha} * x and q = -alpha.  The t^m coefficients of p and q
    have m_A-weight at least max(m, 1), so every product that the weight cut
    N drops is zero.

    The dt-component sign is frozen by the component equation
    p' = dq + [p, q]; see the regression tests.
    """
    from .holim import join_path, path_dgla
    t, order = ng.dgla.table, _order(ng)
    fa, fx = _entry(t, alpha, 0, "gauge parameter"), _entry(t, x, 1, "gauge argument")
    terms = _gauge_terms(ng, _num(fa), _num(fx))
    return join_path(path_dgla(ng.dgla, order),
                     {0: fx, **{m: _fractions(s) for m, s in enumerate(terms, 1)}},
                     {0: {k: -c for k, c in fa.items()}})


class Pi1Group:
    """exp(h^0 (x) m_A), presented by its Lie algebra with the BCH law."""

    def __init__(self, nilpotent: TensorDgla, dimension: int, stabilizer_trivial: bool):
        self.nilpotent = nilpotent
        self.dimension = dimension
        self.stabilizer_trivial = stabilizer_trivial

    def identity(self) -> GVec:
        return {}

    def multiply(self, a: GVec, b: GVec) -> GVec:
        return pi1_multiply(self.nilpotent, a, b)

    def inverse(self, a: GVec) -> GVec:
        return pi1_inverse(a)


def pi1_at_zero(h: Dgla, a) -> Pi1Group:
    """The fundamental group at the zero deformation for a dgla with zero
    differential; unsupported (by design) when d is nonzero."""
    from .artin import ArtinAlgebra, tensor_nilpotent
    if not isinstance(a, ArtinAlgebra):
        raise StructuralError("expected an Artin coefficient algebra")
    if not h.underlying.differential.is_zero():
        raise StructuralError("pi1 at zero is only computed for zero "
                              "differential")
    ng = tensor_nilpotent(h, a)
    stab = irrelevant_stabilizer(ng, {})
    return Pi1Group(nilpotent=ng,
                    dimension=h.space.dim(0) * a.dim,
                    stabilizer_trivial=not stab)


def pi1_multiply(ng: TensorDgla, a: GVec, b: GVec) -> GVec:
    """Group law of exp((g (x) m_A)^0) on logarithms, by the
    Baker-Campbell-Hausdorff series."""
    t = ng.dgla.table
    fa, fb = (_num(_entry(t, v, 0, "group logarithm")) for v in (a, b))
    return _graded(t, bch(partial(_bracket, t), fa, fb, _order(ng) - 1,
                          _combine))


def pi1_inverse(a: GVec) -> GVec:
    return vec_scale(Q(-1), a)
