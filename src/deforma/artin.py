"""Local Artin coefficient algebras and the nilpotent dgla g (x) m_A.

Only classical (ungraded) Artin algebras are implemented.  Monomial bases are
ordered degree-then-lexicographic for reproducibility.  g (x) m_A is
``dgla.tensor_dgla`` of g with m_A as a degree-0 cdga with zero
differential, so its basis in each degree is (g basis) major, (monomials)
minor, labelled "v@m".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .dgla import CdgaModel, Dgla, ValidationReport, tensor_dgla
from .graded import (Complex, GradedVectorSpace, GVec, StructuralError,
                     zero_map)
from .linalg import Q, Vector


def _monomial_label(exponents: tuple[int, ...], k: int) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"e{i + 1}" if k > 1 else "e")
        elif e > 1:
            parts.append((f"e{i + 1}" if k > 1 else "e") + f"^{e}")
    return "*".join(parts)


@dataclass(frozen=True)
class ArtinAlgebra:
    """Maximal ideal of a local Artin algebra, by monomial basis.

    ``table[i][j]`` is the coordinate vector of (basis i) * (basis j).
    ``weights[i]`` is the m-adic order of basis element i (used by the staged
    solvers); for truncated polynomial algebras it is the monomial degree.
    """

    labels: tuple[str, ...]
    table: tuple[tuple[tuple, ...], ...]
    order: int                      # nilpotency: m^order = 0
    generators: int
    weights: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise StructuralError("multiplication table shape mismatch")
        for row in self.table:
            for v in row:
                if len(v) != n:
                    raise StructuralError("multiplication table value length mismatch")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def multiply(self, i: int, j: int) -> Vector:
        return list(self.table[i][j])

    def multiply_vectors(self, x: Vector, y: Vector) -> Vector:
        out = [Q(0)] * self.dim
        for i, xc in enumerate(x):
            if not xc:
                continue
            for j, yc in enumerate(y):
                if not yc:
                    continue
                for t, c in enumerate(self.table[i][j]):
                    if c:
                        out[t] += xc * yc * c
        return out


def truncated_polynomial_algebra(k: int, order: int) -> ArtinAlgebra:
    """m_A for A = K[e1..ek]/(e1..ek)^order."""
    if k < 1:
        raise StructuralError("need at least one generator")
    if order < 2:
        raise StructuralError("nilpotency order must be at least 2")
    monomials: list[tuple[int, ...]] = []
    for total in range(1, order):
        batch = [e for e in itertools.product(range(total + 1), repeat=k) if sum(e) == total]
        monomials.extend(sorted(batch, reverse=True))
    index = {m: i for i, m in enumerate(monomials)}
    n = len(monomials)
    table = []
    for a in monomials:
        row = []
        for b in monomials:
            prod = tuple(x + y for x, y in zip(a, b))
            v = [Q(0)] * n
            if sum(prod) < order:
                v[index[prod]] = Q(1)
            row.append(tuple(v))
        table.append(tuple(row))
    return ArtinAlgebra(
        labels=tuple(_monomial_label(m, k) for m in monomials),
        table=tuple(table),
        order=order,
        generators=k,
        weights=tuple(sum(m) for m in monomials),
    )


def validate_artin(a: ArtinAlgebra) -> ValidationReport:
    report = ValidationReport()
    n = a.dim
    for i in range(n):
        for j in range(i, n):
            res = [x - y for x, y in zip(a.multiply(i, j), a.multiply(j, i))]
            if any(res):
                report.fail("commutativity", [a.labels[i], a.labels[j]],
                            [str(x) for x in res])
    for i in range(n):
        for j in range(n):
            ij = a.multiply(i, j)
            for t in range(n):
                et = [Q(1) if s == t else Q(0) for s in range(n)]
                lhs = a.multiply_vectors(ij, et)
                jt = a.multiply(j, t)
                ei = [Q(1) if s == i else Q(0) for s in range(n)]
                rhs = a.multiply_vectors(ei, jt)
                res = [x - y for x, y in zip(lhs, rhs)]
                if any(res):
                    report.fail("associativity",
                                [a.labels[i], a.labels[j], a.labels[t]],
                                [str(x) for x in res])
    report.merge(_check_nilpotency(a))
    return report


def _check_nilpotency(a: ArtinAlgebra) -> ValidationReport:
    report = ValidationReport()
    n = a.dim
    # m^j spanned by j-fold products; all order-fold products must vanish
    current: list[tuple[list, tuple]] = [([Q(1) if s == i else Q(0) for s in range(n)], (i,))
                                         for i in range(n)]
    for depth in range(2, a.order + 1):
        nxt = []
        for vec, word in current:
            if not any(vec):
                continue
            for t in range(n):
                et = [Q(1) if s == t else Q(0) for s in range(n)]
                prod = a.multiply_vectors(vec, et)
                if any(prod):
                    nxt.append((prod, word + (t,)))
        current = nxt
        if depth == a.order:
            for vec, word in current:
                report.fail("nilpotency", [a.labels[t] for t in word],
                            [str(x) for x in vec])
    return report


@dataclass(frozen=True)
class NilpotentDgla:
    """g (x) m_A, itself a dgla on the basis (g basis) x (monomials).

    Basis labels are "v@m"; the coordinate layout per degree is
    (g basis vector index) major, (monomial index) minor.
    """

    base: Dgla
    coefficients: ArtinAlgebra
    dgla: Dgla

    @property
    def space(self) -> GradedVectorSpace:
        return self.dgla.space

    def d(self, x: GVec) -> GVec:
        return self.dgla.d(x)

    def bracket(self, x: GVec, y: GVec) -> GVec:
        return self.dgla.bracket(x, y)

    def tensor_element(self, x: GVec, monomial: int) -> GVec:
        """x (x) (basis monomial)."""
        na = self.coefficients.dim
        out: GVec = {}
        for deg, v in x.items():
            w = [Q(0)] * (len(v) * na)
            for i, c in enumerate(v):
                if c:
                    w[i * na + monomial] = c
            if any(w):
                out[deg] = w
        return out

    def weight_slice(self, x: GVec, weight: int) -> GVec:
        na = self.coefficients.dim
        out: GVec = {}
        for deg, v in x.items():
            w = [c if self.coefficients.weights[t % na] == weight else Q(0)
                 for t, c in enumerate(v)]
            if any(w):
                out[deg] = w
        return out

    def min_weight(self, x: GVec) -> int | None:
        na = self.coefficients.dim
        weights = [self.coefficients.weights[t % na]
                   for deg, v in x.items() for t, c in enumerate(v) if c]
        return min(weights) if weights else None


def tensor_nilpotent(g: Dgla, a: ArtinAlgebra) -> NilpotentDgla:
    """g (x) m_A, the ``tensor_dgla`` of g with m_A read as a cdga
    concentrated in degree 0 with d = 0:

        d(v (x) m) = dv (x) m,   [v (x) m, w (x) m'] = [v, w] (x) mm'.
    """
    space = GradedVectorSpace({0: a.labels})
    m_a = CdgaModel(Complex(space, zero_map(space, space, 1)), {(0, 0): a.table})
    return NilpotentDgla(base=g, coefficients=a, dgla=tensor_dgla(g, m_a))
