"""Exact rational matrix routines.

Matrices are lists of rows, entries are ``fractions.Fraction``.  These are
the elimination kernels (rref, nullspace, solve and what is built on them),
and they take dense matrices; ``rref`` updates a row only where the pivot
row is nonzero.  Linear maps themselves are held as sparse columns
(``graded.GradedMap``), which apply and compose without a dense matrix; a
map's dense blocks are made only for these kernels and for JSON.
Everything is deterministic: pivoting is always "leftmost column, first
usable row", so identical inputs give identical outputs.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Q(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Q(1)
    return m


def copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Matrix) -> Matrix:
    n, m = shape(a)
    return [[a[i][j] for i in range(n)] for j in range(m)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = copy(a)
    rows, cols = shape(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        support = [(j, y) for j, y in enumerate(m[r]) if y]
        for i in range(rows):
            row = m[i]
            if i != r and row[c]:
                f = row[c]
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel(a: Matrix) -> tuple[list[Vector], list[int]]:
    """Basis of the kernel, one vector per free column, deterministic order,
    and the free columns: vector i is 1 at free column i and 0 at the other
    free columns, so the pair is in the echelon form of ``SubSpaceData``."""
    rows, cols = shape(a)
    red, pivots = rref(a)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    free_columns: list[int] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Q(0)] * cols
        v[free] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
        free_columns.append(free)
    return basis, free_columns


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the kernel, one vector per free column, deterministic order."""
    return kernel(a)[0]


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if inconsistent.

    Free variables are set to zero (deterministic particular solution).
    """
    rows, cols = shape(a)
    if rows != len(b):
        raise ValueError("rhs length mismatch")
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Q(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def column_space_basis(a: Matrix) -> list[Vector]:
    """Deterministic basis of the column space (the pivot columns of a)."""
    _, pivots = rref(a)
    at = transpose(a)
    return [at[c][:] for c in pivots]


def columns_matrix(vectors: list[Vector], dim: int) -> Matrix:
    """Stack vectors as columns of a dim x len(vectors) matrix."""
    m = zeros(dim, len(vectors))
    for j, v in enumerate(vectors):
        if len(v) != dim:
            raise ValueError("vector length mismatch")
        for i in range(dim):
            m[i][j] = v[i]
    return m


def in_span(vectors: list[Vector], v: Vector) -> bool:
    if not vectors:
        return all(not x for x in v)
    return solve(columns_matrix(vectors, len(v)), v) is not None


def extend_to_complement(span: list[Vector], dim: int) -> list[int]:
    """Indices of standard basis vectors completing ``span`` to all of K^dim.

    These are the pivots among the identity columns of ``[span | I]``: e_i is
    chosen iff it is independent of ``span`` and the e_j before it, so the
    result is the greedy choice in index order.
    """
    _, pivots = rref(columns_matrix(span + identity(dim), dim))
    return [p - len(span) for p in pivots if p >= len(span)]
