"""Exact rational elimination on sparse rows.

A row is a dict from column index to a nonzero ``fractions.Fraction``; a
matrix is a list of rows, and a set of vectors is a list of rows read as
columns.  ``Echelon`` holds a reduced row echelon form and takes rows one
at a time: a new row is reduced by the rows already there, its leftmost
nonzero column becomes its pivot, and that column is cleared from the other
rows, so the form stays fully reduced.  The reduced row echelon form of a
row space is unique and the pivots are chosen greedily in column order, so
every result here is, entry by entry, the one of Gauss-Jordan elimination
with "leftmost column, first usable row" pivoting; the work is in
proportion to the nonzeros met.  ``ColumnSolver`` reduces the columns of
a matrix once and then gives ``solve``'s solution for many right-hand sides,
in integer numerators.  ``sparse`` and ``dense`` convert one vector between
a row and a coordinate list.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction

Vector = list[Fraction]
Row = dict          # column index -> nonzero Fraction

_ZERO, _ONE = Q(0), Q(1)


def sparse(v: Vector) -> Row:
    return {i: c for i, c in enumerate(v) if c}


def dense(row: Row, n: int) -> Vector:
    v = [_ZERO] * n
    for i, c in row.items():
        v[i] = c
    return v


def transpose(columns: list[Row], nrows: int) -> list[Row]:
    """The rows of the matrix with these columns and ``nrows`` rows."""
    rows: list[Row] = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for r, x in col.items():
            rows[r][j] = x
    return rows


def combine(rows: list[Row], coeffs) -> Row:
    """The sum of c * rows[j] over the pairs (j, c) of ``coeffs``, zeros dropped."""
    acc: Row = {}
    for j, c in coeffs:
        for r, e in rows[j].items():
            acc[r] = acc[r] + c * e if r in acc else c * e
    return {r: s for r, s in acc.items() if s}


class Echelon:
    """A reduced row echelon form, built by inserting rows one at a time.

    ``rows[p]`` is the row with pivot p: 1 at p, 0 at every other pivot and
    before p.  Rows are replaced on update, never changed in place, and are
    not to be changed from outside.  ``_holders[j]`` lists the rows with an
    entry at the non-pivot column j, so a new pivot visits only those.
    """

    def __init__(self, rows=()):
        self.rows: dict[int, Row] = {}
        self._holders: dict[int, set[int]] = {}
        for row in rows:
            self.insert(row)

    def reduce(self, row: Row) -> Row:
        """``row`` less its part along the echelon: zero at every pivot,
        and empty iff ``row`` is in the span."""
        hits = [(p, c) for p, c in row.items() if p in self.rows]
        if not hits:
            return dict(row)
        acc = dict(row)
        for p, c in hits:
            for j, e in self.rows[p].items():
                acc[j] = acc[j] - c * e if j in acc else -c * e
        return {j: x for j, x in acc.items() if x}

    def insert(self, row: Row) -> int | None:
        """Add ``row`` to the span; its new pivot, or None if it was in it."""
        r = self.reduce(row)
        if not r:
            return None
        p = min(r)
        if r[p] != 1:
            inv = _ONE / r[p]
            r = {j: x * inv for j, x in r.items()}
        rows, holders = self.rows, self._holders
        for q in holders.pop(p, ()):
            new = dict(rows[q])
            f = new[p]
            for j, e in r.items():
                if j not in new:
                    new[j] = -f * e
                    holders.setdefault(j, set()).add(q)
                    continue
                x = new[j] - f * e
                if x:
                    new[j] = x
                else:
                    del new[j]
                    if j != p:
                        holders[j].discard(q)
            rows[q] = new
        for j in r:
            if j != p:
                holders.setdefault(j, set()).add(p)
        rows[p] = r
        return p


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """The nonzero rows of the reduced row echelon form, in pivot order, and
    the pivot columns."""
    e = Echelon(rows)
    pivots = sorted(e.rows)
    return [e.rows[p] for p in pivots], pivots


def rank(rows: list[Row]) -> int:
    return len(rref(rows)[1])


def kernel(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Basis of the kernel of the matrix with ``ncols`` columns, one vector
    per free column, and the free columns: vector i is 1 at free column i
    and 0 at the other free columns, so the pair is in the echelon form of
    ``SubSpaceData``."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = {f: {f: _ONE} for f in free}
    for row, p in zip(red, pivots):
        for j, x in row.items():
            if j != p:
                basis[j][p] = -x
    return [basis[f] for f in free], free


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of the kernel, one vector per free column, deterministic order."""
    return kernel(rows, ncols)[0]


def solve(rows: list[Row], b: Row) -> Row | None:
    """One solution x of a x = b, where a is given by its rows and b by its
    nonzero entries, indexed by row; None if there is none.  Free variables
    are zero, so x is the deterministic particular solution."""
    if any(not 0 <= i < len(rows) for i in b):
        raise ValueError("rhs entry outside the rows of the matrix")
    aug = 1 + max((max(row) for row in rows if row), default=-1)
    red, pivots = rref([{**row, aug: b[i]} if i in b else row
                        for i, row in enumerate(rows)])
    if pivots and pivots[-1] == aug:
        return None
    return {p: row[aug] for row, p in zip(red, pivots) if aug in row}


class ColumnSolver:
    """``solve`` against one reduction of the columns of a matrix, for many
    right-hand sides with integer entries.

    The columns independent of those before them are the pivot columns of
    ``solve``'s elimination, and its solution is the one that is zero at
    every other column, so it is unique and linear in b.  The columns are
    reduced once, each tagged with its index, and the image of each e_i is
    kept scaled to integers by one common denominator ``den``: its tag part
    (the solution) and what is left of e_i outside the column space.
    """

    def __init__(self, columns: list[Row], nrows: int):
        e = Echelon()
        for j, col in enumerate(columns):
            r = e.reduce({**col, nrows + j: _ONE})
            if min(r) < nrows:          # independent of the columns before it
                e.insert(r)
        images = [e.reduce({i: _ONE}) for i in range(nrows)]
        den = self.den = math.lcm(*[c.denominator for img in images for c in img.values()])
        self._parts = [({j - nrows: -c.numerator * (den // c.denominator)
                         for j, c in img.items() if j >= nrows},
                        {j: c.numerator * (den // c.denominator)
                         for j, c in img.items() if j < nrows})
                       for img in images]

    def solve_numerators(self, b: dict[int, int]) -> dict[int, int] | None:
        """``den`` times ``solve``'s x for the integer rows ``b`` (row index ->
        nonzero int), or None if b is not in the column space."""
        x: dict[int, int] = {}
        left: dict[int, int] = {}
        for i, bi in b.items():
            sol, miss = self._parts[i]
            for j, c in sol.items():
                x[j] = x[j] + bi * c if j in x else bi * c
            for j, c in miss.items():
                left[j] = left[j] + bi * c if j in left else bi * c
        if any(left.values()):
            return None
        return {j: v for j, v in x.items() if v}


def in_span(vectors: list[Row], v: Row) -> bool:
    return not Echelon(vectors).reduce(v)


def column_space_basis(columns: list[Row], echelon: Echelon | None = None) -> list[Row]:
    """The columns independent of those before them, and of the rows of
    ``echelon``, which takes them in: the pivot columns of the matrix, a
    deterministic basis of its column space."""
    e = Echelon() if echelon is None else echelon
    return [col for col in columns if e.insert(col) is not None]


def extend_to_complement(span: list[Row], dim: int) -> list[int]:
    """Indices of standard basis vectors completing ``span`` to all of K^dim:
    e_i is chosen iff it is independent of ``span`` and the e_j before it,
    the greedy choice in index order."""
    e = Echelon(span)
    chosen = []
    for i in range(dim):
        if len(e.rows) == dim:
            break
        if e.insert({i: _ONE}) is not None:
            chosen.append(i)
    return chosen
