"""Exact rational elimination on sparse rows.

A row given or handed out is a dict from column index to a nonzero
``fractions.Fraction`` (or ``int``); a matrix is a list of rows, and a set of
vectors is a list of rows read as columns.  ``Echelon`` holds a reduced row
echelon form and takes rows one at a time: a new row is reduced by the rows
already there, its leftmost nonzero column becomes its pivot, and that
column is cleared from the other rows, so the form stays fully reduced.
Inside, each row is a primitive integer row, and ``Fraction``s are made only
for the rows and reduced vectors a caller reads.  The reduced row echelon
form of a row space is unique and the pivots are chosen greedily in column
order, so every result here is, entry by entry, the one of Gauss-Jordan
elimination with "leftmost column, first usable row" pivoting; the work is
in proportion to the nonzeros met.  ``ColumnSolver`` reduces the columns of
a matrix once and then gives ``solve``'s solution for many right-hand sides,
in integer numerators.  ``sparse`` and ``dense`` convert one vector between
a row and a coordinate list.

Flat elements of a dgla are computed on one form, (D, N) (``Num``): int
numerators N = {flat position: nonzero int} over a positive denominator D
coprime to them.  ``_bracket``, ``_d_bracket`` and ``_combine`` read table
rows and flat columns of d as stored, so ``Fraction``s are made only where
``_fractions`` reads an element back; ``ad_exp_terms`` is the exponential
series of every gauge action on them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

Q = Fraction

Vector = list[Fraction]
Row = dict          # column index -> nonzero Fraction (or int)

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


class _Rows(Mapping):
    """The rows of an ``Echelon`` as ``Fraction`` rows, by pivot: the
    primitive row over its pivot entry, so 1 at the pivot.  A row is built
    when first read and dropped when its integer row changes."""

    def __init__(self, ints: dict[int, dict[int, int]]):
        self._ints, self._built = ints, {}

    def __getitem__(self, p: int) -> Row:
        row = self._built.get(p)
        if row is None:
            r = self._ints[p]
            lead = r[p]
            row = self._built[p] = {j: Q(x, lead) for j, x in r.items()}
        return row

    def __contains__(self, p) -> bool:
        return p in self._ints

    def __iter__(self):
        return iter(self._ints)

    def __len__(self) -> int:
        return len(self._ints)


def _integral(row: Row) -> tuple[dict[int, int], int]:
    """``row`` as integers over one positive common denominator."""
    out = {}
    for j, x in row.items():
        if x.denominator != 1:
            den = math.lcm(*[x.denominator for x in row.values()])
            return {j: x.numerator * (den // x.denominator) for j, x in row.items()}, den
        out[j] = x.numerator
    return out, 1


class Echelon:
    """A reduced row echelon form, built by inserting rows one at a time.

    ``ints[p]`` is the row with pivot p, stored primitive: integers with no
    common factor, positive at p, 0 at every other pivot and before p.  It
    is changed in place on insert, and is not to be changed from outside.
    ``rows[p]`` is the same row in ``Fraction``s, 1 at p, built when read.
    Rows given are brought to integers over one common denominator, and
    elimination runs fraction-free on integers (as in Bareiss, Math. Comp.
    1968), each changed row divided by the gcd of its entries, so the only
    ``Fraction``s made are the rows and reduced vectors read.
    ``_holders[j]`` lists the rows with an entry at the non-pivot column j,
    so a new pivot visits only those.
    """

    def __init__(self, rows=()):
        self.ints: dict[int, dict[int, int]] = {}
        self.rows = _Rows(self.ints)
        self._holders: dict[int, set[int]] = {}
        for row in rows:
            self.insert(row)

    def _reduce(self, row: Row) -> tuple[dict[int, int], int]:
        """``row`` less its part along the echelon, as integers over a
        positive denominator: zero at every pivot, and empty iff ``row`` is
        in the span.  ``row`` is scaled once, so that each pivot row is
        taken an integral number of times."""
        acc, den = _integral(row)
        ints = self.ints
        hits = [(p, c) for p, c in acc.items() if p in ints]
        if not hits:
            return acc, den
        m = 1
        for p, c in hits:
            lead = ints[p][p]
            m = math.lcm(m, lead // math.gcd(lead, c))
        if m != 1:
            acc = {j: m * x for j, x in acc.items()}
            den *= m
        for p, c in hits:
            r = ints[p]
            f = c * m // r[p]
            for j, e in r.items():
                acc[j] = acc[j] - f * e if j in acc else -f * e
        return {j: x for j, x in acc.items() if x}, den

    def reduce(self, row: Row) -> Row:
        """``row`` less its part along the echelon: zero at every pivot,
        and empty iff ``row`` is in the span."""
        r, den = self._reduce(row)
        return {j: Q(x, den) for j, x in r.items()}

    def insert(self, row: Row) -> int | None:
        """Add ``row`` to the span; its new pivot, or None if it was in it."""
        return self._insert(self._reduce(row)[0])

    def _insert(self, r: dict[int, int]) -> int | None:
        """``insert`` for a row ``_reduce`` has reduced."""
        if not r:
            return None
        p = min(r)
        g = math.gcd(*r.values())
        if r[p] < 0:
            g = -g
        if g != 1:
            r = {j: x // g for j, x in r.items()}
        lead, ints, holders = r[p], self.ints, self._holders
        for q in holders.pop(p, ()):
            row = ints[q]
            g = math.gcd(lead, row[p])
            a, f = lead // g, row[p] // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, e in r.items():
                if j not in row:
                    row[j] = -f * e
                    holders.setdefault(j, set()).add(q)
                    continue
                x = row[j] - f * e
                if x:
                    row[j] = x
                else:
                    del row[j]
                    if j != p:
                        holders[j].discard(q)
            g = math.gcd(*row.values())
            ints[q] = {j: x // g for j, x in row.items()} if g != 1 else row
            self.rows._built.pop(q, None)
        for j in r:
            if j != p:
                holders.setdefault(j, set()).add(p)
        ints[p] = r
        return p


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """The nonzero rows of the reduced row echelon form, in pivot order, and
    the pivot columns."""
    e = Echelon(rows)
    pivots = sorted(e.ints)
    return [e.rows[p] for p in pivots], pivots


def rank(rows: list[Row]) -> int:
    return len(Echelon(rows).ints)


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
            r = e._reduce({**col, nrows + j: 1})[0]
            if min(r) < nrows:          # independent of the columns before it
                e._insert(r)
        # e_i meets at most the row with pivot i, which is primitive, so
        # each image is in lowest terms over its denominator
        images = [e._reduce({i: 1}) for i in range(nrows)]
        den = self.den = math.lcm(*[d for _, d in images])
        self._parts = [({j - nrows: -x * (den // d) for j, x in img.items() if j >= nrows},
                        {j: x * (den // d) for j, x in img.items() if j < nrows})
                       for img, d in images]

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
    return not Echelon(vectors)._reduce(v)[0]


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
        if len(e.ints) == dim:
            break
        if e.insert({i: 1}) is not None:
            chosen.append(i)
    return chosen


# ---------------------------------------------------------------------------
# flat elements in integer numerators

Num = tuple[int, dict]      # (D, N): the element N[k] / D


def _num(s: Row) -> Num:
    """s in the (D, N) form, D the least common denominator of its entries."""
    d = math.lcm(*[c.denominator for c in s.values()])
    return d, {k: c.numerator * (d // c.denominator) for k, c in s.items()}


def _fractions(x: Num) -> Row:
    """x as a ``Fraction`` row."""
    d, n = x
    return {k: Q(v, d) for k, v in n.items()}


def _reduced(d: int, acc: dict) -> Num:
    """acc / d in the (D, N) form: the zero entries of acc are dropped and
    d and acc divided by their gcd, in place."""
    for k in [k for k, v in acc.items() if not v]:
        del acc[k]
    g = d
    for v in acc.values():
        if g == 1:
            return d, acc
        g = math.gcd(g, v)
    if g != 1:
        for k in acc:
            acc[k] //= g
    return d // g, acc


def _add_scaled(acc: dict, rest: list, f: int, s: Row):
    """acc += f s for an int f and a row s of constants, ints or
    ``Fraction``s; the terms of the constants that are not integers go to
    ``rest`` as (k, numerator, denominator)."""
    for k, c in s.items():
        if type(c) is not int:
            c, q = c.as_integer_ratio()
            if q != 1:
                rest.append((k, f * c, q))
                continue
        v = f * c
        acc[k] = acc[k] + v if k in acc else v


def _d_bracket(rows, dcols, s: Num, sign: int, x: Num, y: Num, half: bool = False) -> Num:
    """sign d(s) + [x, y], or sign d(s) + [x, y]/2 with ``half``, for sign
    1 or -1, ``rows[a]`` the table row of e_a and ``dcols[a]`` the flat
    column d(e_a)."""
    (ds, ns), (dx, nx), (dy, ny) = s, x, y
    dxy = dx * dy * (2 if half else 1)
    den = math.lcm(dxy, ds)
    acc, rest = {}, []
    f = sign * (den // ds)
    for a, c in ns.items():
        _add_scaled(acc, rest, f * c, dcols[a])
    f = den // dxy
    for a, xc in nx.items():
        row = rows[a]
        if not row:
            continue
        if len(row) <= len(ny):
            hits = [(e, ny[b]) for b, e in row.items() if b in ny]
        else:
            hits = [(row[b], yc) for b, yc in ny.items() if b in row]
        xc *= f
        for e, yc in hits:
            _add_scaled(acc, rest, xc * yc, e)
    if rest:                                        # constants that are not integers
        m = math.lcm(*[q for _, _, q in rest])
        for k in acc:
            acc[k] *= m
        for k, v, q in rest:
            v *= m // q
            acc[k] = acc[k] + v if k in acc else v
        den *= m
    return _reduced(den, acc)


def _bracket(rows, x: Num, y: Num) -> Num:
    """[x, y], ``rows[a]`` the table row of e_a."""
    return _d_bracket(rows, (), (1, {}), 1, x, y)


def ad_exp_terms(rows, alpha: Num, s: Num, limit: int) -> list[Num]:
    """The terms ad_alpha^n(s) / (n+1)!, n = 0, 1, ..., up to the first zero,
    for (D, N) elements and ``rows[a]`` the table row of e_a.

    Every gauge action is e^alpha * x = x + (sum of these terms) with
    s = [alpha, x] - d alpha.  ad_alpha must be nilpotent: a nonzero term
    past the first ``limit`` raises RuntimeError.
    """
    terms = []
    factorial = 1
    while s[1]:
        if len(terms) == limit:
            raise RuntimeError("exponential series failed to terminate")
        factorial *= len(terms) + 1
        terms.append(_reduced(s[0] * factorial, dict(s[1])) if factorial > 1 else s)
        s = _bracket(rows, alpha, s)
    return terms


def _combine(terms) -> Num:
    """The sum of c s over the pairs (c, s) of a rational c and an element s."""
    parts = [(c.numerator, d * c.denominator, n) for c, (d, n) in terms if n and c]
    den = math.lcm(*[q for _, q, _ in parts])
    acc: dict = {}
    for c, q, n in parts:
        f = c * (den // q)
        for k, v in n.items():
            acc[k] = acc[k] + f * v if k in acc else f * v
    return _reduced(den, acc)
