"""Local Artin coefficient algebras and the nilpotent dgla g (x) m_A.

Only classical (ungraded) Artin algebras are implemented.  m_A is held as a
``dgla.CdgaModel`` concentrated in degree 0 with zero differential, whose
sparse table lists only the nonzero monomial products; it is validated by
``dgla.validate_cdga`` plus a nilpotency check.  Monomial bases are ordered
degree-then-lexicographic for reproducibility.  g (x) m_A is
``dgla.tensor_dgla`` of g with that cdga, weighted by monomial degree, and
its basis vectors are labelled "v@m".
"""

from __future__ import annotations

import itertools

from .dgla import (CdgaModel, Dgla, FlatBasis, TensorDgla, ValidationReport,
                   _bracket_basis_into, tensor_dgla, validate_cdga)
from .graded import Complex, GradedVectorSpace, StructuralError, zero_map
from .linalg import Echelon, Q


def _monomial_label(exponents: tuple[int, ...], k: int) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"e{i + 1}" if k > 1 else "e")
        elif e > 1:
            parts.append((f"e{i + 1}" if k > 1 else "e") + f"^{e}")
    return "*".join(parts)


class ArtinAlgebra:
    """Maximal ideal of a local Artin algebra, by monomial basis.

    ``cdga`` is m_A as a degree-0 cdga with d = 0; its basis is the monomial
    basis.  ``weights[i]`` is the m-adic order of basis element i (used by
    the staged solvers); for truncated polynomial algebras it is the
    monomial degree.
    """

    def __init__(self, cdga: CdgaModel, order: int, generators: int,
                 weights: tuple[int, ...]):
        self.cdga = cdga
        self.order = order              # nilpotency: m^order = 0
        self.generators = generators
        self.weights = weights

    @property
    def labels(self) -> tuple[str, ...]:
        return self.cdga.space.labels(0)

    @property
    def dim(self) -> int:
        return self.cdga.space.dim(0)


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
    space = GradedVectorSpace({0: tuple(_monomial_label(m, k) for m in monomials)})
    # e_a * e_b = e_{a+b} below the truncation, both orders of every pair
    upper = [((index[a], index[b]), {index[tuple(x + y for x, y in zip(a, b))]: 1})
             for a in monomials for b in monomials if sum(a) + sum(b) < order]
    table = FlatBasis(space).table_from_upper(upper, symmetric=True)
    return ArtinAlgebra(
        cdga=CdgaModel(Complex(space, zero_map(space, space, 1)), table),
        order=order,
        generators=k,
        weights=tuple(sum(m) for m in monomials),
    )


def validate_artin(a: ArtinAlgebra) -> ValidationReport:
    report = validate_cdga(a.cdga)
    report.merge(_check_nilpotency(a))
    return report


def _products(rows, vec: dict) -> list[tuple[dict, int]]:
    """The nonzero products vec * e_t with their t, in increasing t."""
    out = []
    for t in sorted({b for i in vec for b in rows[i]}):
        acc: dict = {}
        _bracket_basis_into(acc, 1, rows, vec, t)
        prod = {s: c for s, c in acc.items() if c}
        if prod:
            out.append((prod, t))
    return out


def _check_nilpotency(a: ArtinAlgebra) -> ValidationReport:
    """m^order = 0, where m^j is spanned by the products of m^(j-1) with m.
    A basis of each power is found from the one before, so the check is
    polynomial in the dimension and the order.  Only when m^order is not
    zero are the words of length ``order`` walked, for the witnesses.  The
    vectors start as ints, like the integral constants of the table, and each
    power is read as the echelon's primitive integer rows, so a table of ints
    is multiplied in ints throughout."""
    rows, n = a.cdga.table, a.dim
    power = [{i: 1} for i in range(n)]
    for _ in range(2, a.order + 1):
        e = Echelon()
        for vec in power:
            for prod, _t in _products(rows, vec):
                e.insert(prod)
        power = list(e.ints.values())
        if not power:
            return ValidationReport()
    return _nilpotency_witnesses(a)


def _nilpotency_witnesses(a: ArtinAlgebra) -> ValidationReport:
    """Every word of ``order`` basis monomials with a nonzero product."""
    report = ValidationReport()
    rows, n = a.cdga.table, a.dim
    current = [({i: 1}, (i,)) for i in range(n)] if a.order >= 2 else []
    for _ in range(2, a.order + 1):
        current = [(prod, word + (t,)) for vec, word in current
                   for prod, t in _products(rows, vec)]
    for vec, word in current:
        report.fail("nilpotency", [a.labels[t] for t in word],
                    [str(vec.get(s, Q(0))) for s in range(n)])
    return report


def tensor_nilpotent(g: Dgla, a: ArtinAlgebra) -> TensorDgla:
    """g (x) m_A, the ``tensor_dgla`` of g with m_A read as a cdga
    concentrated in degree 0 with d = 0, weighted by monomial degree:

        d(v (x) m) = dv (x) m,   [v (x) m, w (x) m'] = [v, w] (x) mm'.
    """
    return tensor_dgla(g, a.cdga, a.weights)
