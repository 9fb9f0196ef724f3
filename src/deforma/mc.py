"""Maurer-Cartan theory over a nilpotent coefficient ideal.

Everything here lives in g (x) m_A for a dgla g and the maximal ideal m_A of
a local Artin algebra: the Maurer-Cartan equation, the gauge action of the
exponential group exp((g (x) m_A)^0), irrelevant (stabilizer) gauges, a staged
gauge-equivalence solver, order-by-order extension with cohomological
obstruction classes, and the Baker-Campbell-Hausdorff group law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .artin import NilpotentDgla
from .dgla import Dgla, SubDgla, _add_into, ad_exp_terms
from .graded import (GVec, StructuralError, cohomology, vec_add, vec_component,
                     vec_degree, vec_is_zero, vec_scale, vec_sub)
from . import linalg
from .linalg import Q, dense


def _require_degree(x: GVec, deg: int, what: str):
    d = vec_degree(x)
    if d is not None and d != deg:
        raise StructuralError(f"{what} must be homogeneous of degree {deg}")


def mc_residue(ng: NilpotentDgla | Dgla, x: GVec) -> GVec:
    """dx + [x, x]/2 for a degree-1 element of g (x) m_A or of any dgla."""
    _require_degree(x, 1, "Maurer-Cartan candidate")
    return vec_add(ng.d(x), vec_scale(Q(1, 2), ng.bracket(x, x)))


def is_mc(ng: NilpotentDgla, x: GVec) -> bool:
    return vec_is_zero(mc_residue(ng, x))


def _gauge_terms(ng: NilpotentDgla, alpha: GVec, x: GVec) -> list[GVec]:
    """The nonzero terms ad_alpha^n / (n+1)! ([alpha, x] - d alpha), n >= 0.

    The series terminates because alpha has positive coefficient weight.
    """
    _require_degree(alpha, 0, "gauge parameter")
    _require_degree(x, 1, "gauge argument")
    return ad_exp_terms(ng.bracket, vec_scale, vec_is_zero, alpha,
                        vec_sub(ng.bracket(alpha, x), ng.d(alpha)),
                        ng.coefficients.order)


def gauge_act(ng: NilpotentDgla, alpha: GVec, x: GVec) -> GVec:
    """e^alpha * x = x + sum_n ad_alpha^n / (n+1)! ([alpha, x] - d alpha)."""
    out = dict(x)
    for term in _gauge_terms(ng, alpha, x):
        out = vec_add(out, term)
    return out


def irrelevant_stabilizer(ng: NilpotentDgla, x: GVec,
                          sub: SubDgla | None = None) -> list[GVec]:
    """Spanning set of the irrelevant stabilizer directions at x:
    {d h + [x, h] : h of degree -1}.

    With ``sub`` given (a sub-dgla of the base, viewed inside g (x) m_A), h
    ranges over degree -1 elements of sub (x) m_A instead.
    """
    _require_degree(x, 1, "Maurer-Cartan point")
    deg = -1
    if sub is not None:
        out = []
        for v in sub.span.basis_in_degree(deg):
            for mon in range(ng.coefficients.dim):
                h = ng.tensor_element({deg: list(v)}, mon)
                g = vec_add(ng.d(h), ng.bracket(x, h))
                if not vec_is_zero(g):
                    out.append(g)
        return out
    # d e_i is column i of d, and [x, e_i] = sum_a x_a [e_a, e_i] is read
    # off the table rows of the nonzero coordinates of x
    t = ng.dgla.table
    if deg not in t.offset:
        return []
    base, dim = t.offset[deg], t.dims[deg]
    dcols = ng.dgla.underlying.differential.columns.get(deg)
    target = t.offset.get(deg + 1)
    rows = [(c, t.row(a)) for a, c in t.flat(x).items()]
    out = []
    for i in range(dim):
        acc = {target + r: c for r, c in dcols[i].items()} if dcols else {}
        for c, row in rows:
            entry = row.get(base + i)
            if entry:
                _add_into(acc, c, entry)
        g = t.graded(acc)
        if g:
            out.append(g)
    return out


@dataclass
class GaugeResult:
    status: str                 # "equivalent" | "not_equivalent" | "inconclusive"
    alpha: GVec | None = None
    detail: str = ""


def _weight_indices(ng: NilpotentDgla, deg: int, weight: int) -> list[int]:
    na = ng.coefficients.dim
    return [t for t in range(ng.space.dim(deg))
            if ng.coefficients.weights[t % na] == weight]


def _d_slice(ng: NilpotentDgla, deg: int, rows: list[int], cols: list[int]) -> list[dict]:
    """The rows of the submatrix of d: degree ``deg`` -> ``deg + 1`` on the
    given row and column indices, read off the columns of d."""
    dcols = ng.dgla.underlying.differential.columns.get(deg)
    at = {r: i for i, r in enumerate(rows)}
    picked = [{at[r]: c for r, c in dcols[j].items() if r in at}
              for j in cols] if dcols else []
    return linalg.transpose(picked, len(rows))


def gauge_equivalent(ng: NilpotentDgla, x: GVec, y: GVec) -> GaugeResult:
    """Search for alpha with e^alpha * x = y, staged by coefficient weight.

    At each weight w the equation linearizes to d(alpha_w) = -(residual at
    weight w).  A failure at weight 1 is a genuine obstruction; so is any
    failure when the bracket vanishes (the action is then affine and the
    stages are independent).  Otherwise a failed stage is inconclusive,
    because earlier stages admitted unexplored solution families.
    """
    _require_degree(x, 1, "gauge argument")
    _require_degree(y, 1, "gauge argument")
    if not (is_mc(ng, x) and is_mc(ng, y)):
        raise StructuralError("gauge equivalence is only tested between "
                              "Maurer-Cartan elements")
    alpha: GVec = {}
    abelian = ng.base.is_abelian()
    dim0 = ng.space.dim(0)
    dim1 = ng.space.dim(1)
    for w in range(1, ng.coefficients.order):
        current = gauge_act(ng, alpha, x) if alpha else dict(x)
        residual = vec_sub(y, current)
        if vec_is_zero(residual):
            break
        r_w = ng.weight_slice(residual, w)
        if vec_is_zero(r_w):
            continue
        rows = _weight_indices(ng, 1, w)
        cols = _weight_indices(ng, 0, w)
        r_1 = vec_component(r_w, 1, dim1)
        # d alpha_w = -r_w
        sol = linalg.solve(_d_slice(ng, 0, rows, cols),
                           {i: -r_1[r] for i, r in enumerate(rows) if r_1[r]})
        if sol is None:
            if w == 1 or abelian:
                return GaugeResult("not_equivalent", None,
                                   f"unsolvable linear stage at weight {w}")
            return GaugeResult("inconclusive", None,
                               f"staged solver failed at weight {w}")
        if sol:
            alpha = vec_add(alpha, {0: dense({cols[j]: v for j, v in sol.items()}, dim0)})
    final = gauge_act(ng, alpha, x) if alpha else dict(x)
    if vec_is_zero(vec_sub(y, final)):
        return GaugeResult("equivalent", alpha)
    return GaugeResult("inconclusive", None, "residual survived all stages")


@dataclass
class ObstructionClass:
    """Weight-w obstruction of a partial Maurer-Cartan solution.

    ``classes`` maps each weight-w monomial label to the coordinates of the
    corresponding degree-2 cohomology class of the base dgla.
    """

    weight: int
    classes: dict = field(default_factory=dict)
    representative: GVec = field(default_factory=dict)

    @property
    def vanishes(self) -> bool:
        return all(not any(v) for v in self.classes.values())


def mc_obstruction(ng: NilpotentDgla, x: GVec) -> ObstructionClass | None:
    """Lowest-weight obstruction to x being Maurer-Cartan; None if it is.

    The lowest-weight slice of the residue is a cocycle of the base dgla in
    degree 2, one class per monomial; x can be corrected at that weight iff
    every class vanishes.
    """
    r = mc_residue(ng, x)
    w = ng.min_weight(r)
    if w is None:
        return None
    r_w = ng.weight_slice(r, w)
    base = ng.base
    na = ng.coefficients.dim
    h2 = cohomology(base.underlying)
    classes = {}
    v = vec_component(r_w, 2, ng.space.dim(2))
    for mon in range(na):
        if ng.coefficients.weights[mon] != w:
            continue
        comp = [v[i * na + mon] for i in range(base.space.dim(2))]
        if not any(comp):
            continue
        dv = base.d({2: comp})
        if not vec_is_zero(dv):
            raise StructuralError("obstruction slice is not a cocycle; "
                                  "the input does not solve the equation "
                                  "below its residue weight")
        classes[ng.coefficients.labels[mon]] = h2.project({2: comp}).get(
            2, [Q(0)] * max(h2.rank(2), 1))
    return ObstructionClass(weight=w, classes=classes, representative=r_w)


def mc_correct_step(ng: NilpotentDgla, x: GVec) -> GVec | None:
    """One extension step: kill the lowest-weight residue by a same-weight
    correction, or None if the obstruction class is nonzero."""
    obs = mc_obstruction(ng, x)
    if obs is None:
        return x
    if not obs.vanishes:
        return None
    rows = _weight_indices(ng, 2, obs.weight)
    cols = _weight_indices(ng, 1, obs.weight)
    r_2 = vec_component(obs.representative, 2, ng.space.dim(2))
    sol = linalg.solve(_d_slice(ng, 1, rows, cols),
                       {i: -r_2[r] for i, r in enumerate(rows) if r_2[r]})
    if sol is None:
        raise StructuralError("vanishing obstruction class with unsolvable "
                              "correction; inconsistent cohomology data")
    xi = dense({cols[j]: v for j, v in sol.items()}, ng.space.dim(1))
    return vec_add(x, {1: xi})


@dataclass
class ExtensionResult:
    status: str                 # "solved" | "obstructed"
    element: GVec | None = None
    obstruction: ObstructionClass | None = None


def mc_extend(ng: NilpotentDgla, seed: GVec) -> ExtensionResult:
    """Extend a seed to a full Maurer-Cartan element weight by weight.

    Stops at the first nonvanishing obstruction class.  The correction at
    weight w does not disturb lower weights, so the loop terminates within
    the nilpotency order.
    """
    x = dict(seed)
    _require_degree(x, 1, "seed")
    for _ in range(ng.coefficients.order + 1):
        obs = mc_obstruction(ng, x)
        if obs is None:
            return ExtensionResult("solved", x)
        if not obs.vanishes:
            return ExtensionResult("obstructed", x, obs)
        x = mc_correct_step(ng, x)
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


def bch(bracket, x: GVec, y: GVec, cutoff: int) -> GVec:
    """log(e^x e^y) = Z_1 + ... + Z_cutoff, with Z_n the part of bracket
    length n, by Varadarajan's recursion (Lie Groups, Lie Algebras and Their
    Representations, 1984, section 2.15):

        Z_1 = x + y,
        (n+1) Z_{n+1} = 1/2 [x - y, Z_n]
            + sum_{p >= 1, 2p <= n} B_2p / (2p)!
              sum_{k_1 + ... + k_2p = n, k_i >= 1}
              [Z_k1, [... [Z_k2p, x + y] ...]]

    with B_2p the Bernoulli numbers.  Each nested bracket is computed once,
    memoised by its suffix (k_j, ..., k_2p).

    ``bracket`` is the Lie bracket; x and y should be degree-0 elements of a
    nilpotent Lie algebra whose (cutoff+1)-fold brackets vanish — for
    g (x) m_A take cutoff = order - 1.  The sum is then the whole series.
    """
    def lie(a: GVec, b: GVec) -> GVec:
        return {} if vec_is_zero(a) or vec_is_zero(b) else bracket(a, b)

    z = [{}, vec_add(x, y)]             # z[n] = Z_n
    diff = vec_sub(x, y)
    nested = {(): z[1]}                 # suffix -> [Z_kj, [..., [Z_k2p, x + y]...]]

    def nest(ks: tuple) -> GVec:
        if ks not in nested:
            nested[ks] = lie(z[ks[0]], nest(ks[1:]))
        return nested[ks]

    bernoulli = _bernoulli(cutoff)
    for n in range(1, cutoff):
        acc = vec_scale(Q(1, 2), lie(diff, z[n]))
        for p in range(1, n // 2 + 1):
            c = bernoulli[2 * p] / math.factorial(2 * p)
            for ks in _compositions(n, 2 * p):
                acc = vec_add(acc, vec_scale(c, nest(ks)))
        z.append(vec_scale(Q(1, n + 1), acc))
    total: GVec = {}
    for zn in z[1:cutoff + 1]:
        total = vec_add(total, zn)
    return total


def gauge_path(ng: NilpotentDgla, alpha: GVec, x: GVec):
    """The homotopy p(t) + q(t) dt from x to e^alpha * x inside
    (g (x) m_A) (x) K[t, dt]: p(t) = e^{t alpha} * x and q = -alpha.

    The dt-component sign is frozen by the component equation
    p' = dq + [p, q]; see the regression tests.
    """
    from .holim import PathElement
    p = [dict(x)] + _gauge_terms(ng, alpha, x)
    q = [vec_scale(Q(-1), alpha)] if not vec_is_zero(alpha) else []
    return PathElement(ng.dgla, 1, p, q)


@dataclass
class Pi1Group:
    """exp(h^0 (x) m_A), presented by its Lie algebra with the BCH law."""

    nilpotent: NilpotentDgla
    dimension: int
    stabilizer_trivial: bool

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


def pi1_multiply(ng: NilpotentDgla, a: GVec, b: GVec) -> GVec:
    """Group law of exp((g (x) m_A)^0) on logarithms, by the
    Baker-Campbell-Hausdorff series."""
    _require_degree(a, 0, "group logarithm")
    _require_degree(b, 0, "group logarithm")
    return bch(ng.bracket, a, b, ng.coefficients.order - 1)


def pi1_inverse(a: GVec) -> GVec:
    return vec_scale(Q(-1), a)
