"""Differential graded Lie algebras: data type, axiom validation, morphisms,
sub-dglas and quotients; finite cdga models and their validation; the
tensor dgla g (x) A; and the exponential series shared by every gauge
action.

Structure constants live in one sparse table per dgla (``Dgla.table``, a
``StructureTable``): indexed by flat basis position, holding only the
nonzero constants, for both orders of each pair.  Constructors write only
nonzeros: ``end_dgla``, ``restrict_to_sub``, the Chevalley-Eilenberg cdga,
the Artin coefficients m_A and the interval forms list them, and
``tensor_dgla`` composes each row from the rows of its factors the first
time it is asked for, so no construction allocates a dense table.
``bracket`` and ``pair_bracket`` cost in proportion to the nonzeros they
meet.  A ``CdgaModel`` holds its products the same way, with the
graded-commutative sign in place of the antisymmetric one.

A table stores each integral constant as a Python ``int``, an exact subring
of the rationals that is cheaper to multiply, and every other constant as a
``Fraction``; ``table_from_upper``, which every table but the lazy tensor
table goes through, converts them, and ``tensor_dgla`` multiplies int rows
into int rows.  ``Fraction`` comes back at the public boundary:
``FlatBasis.graded`` (so ``bracket``, ``pair_bracket``, ``product``,
``multiply`` and every residual) and the dense views return ``Fraction``s
only.

``validate_dgla`` and ``validate_cdga`` make one pass per axiom over the
nonzero terms, read from the table rows as stored, and add each term into
the sum of its basis instance when the pass meets it (``_sum_flat``); the
nonzero sums are reported in basis order, so their failure lists are those
of a sweep over every instance.

Dense tables exist only at the JSON boundary.  The JSON form stores
``brackets[(m, n)][i][j]`` for degree pairs m <= n only, the other order
following from graded antisymmetry (which removes a
redundancy-consistency failure mode).  ``Dgla`` and ``CdgaModel`` take
that form, a dict, in the place of a table, with its shape checks, and
give it back as the ``brackets``/``products`` views for emitting JSON.

``tensor_dgla(g, C, weight)`` is the one construction of a dgla tensored
with a finite cdga, and its ``TensorDgla`` the one reader of the tensor
layout.  The nilpotent coefficient dglas g (x) m_A (``artin``), the path
objects h (x) Omega(Delta^1) (``holim``) and the convolution dglas
h (x) CE_{<=N}(g) (``convolution``) are all built by it.  ``validate_cdga``
is the one check of a cdga's axioms, m_A's included; ``FiltrationData``,
one ``SubSpaceData`` per level, and ``validate_filtration`` are the
decreasing filtrations of a complex that the period map reads.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from .graded import (_ZERO, CohomologyResult, Complex, GradedMap, GradedVectorSpace,
                     GVec, SubSpaceData, StructuralError, QuotientComplex, cohomology,
                     is_chain_map, quotient_complex, vec_is_zero, vec_sub)
from .linalg import ColumnSolver, Q, Vector, dense


class ValidationReport:
    """List of failed axiom instances; empty report means valid."""

    def __init__(self, failures: list[dict] | None = None, notes: dict | None = None):
        self.failures = [] if failures is None else failures
        self.notes = {} if notes is None else notes

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, kind: str, witness, residual=None):
        entry = {"kind": kind, "witness": witness}
        if residual is not None:
            entry["residual"] = residual
        self.failures.append(entry)

    def merge(self, other: "ValidationReport"):
        self.failures.extend(other.failures)
        self.notes.update(other.notes)


def _residual_repr(x: GVec) -> dict:
    return {str(d): [str(c) for c in v] for d, v in x.items() if any(v)}


Sparse = dict  # flat basis position -> nonzero coefficient
Row = dict     # flat position b -> Sparse e_a * e_b


class FlatBasis:
    """The basis of a graded space by flat position: basis vector ``idx`` of
    degree ``deg`` sits at ``offset[deg] + idx`` (``space.basis()`` order)."""

    def __init__(self, space: GradedVectorSpace):
        self.space = space
        self.dims = {deg: space.dim(deg) for deg in space.degrees}
        self.offset: dict[int, int] = {}
        self.position: list[tuple[int, int]] = []     # flat -> (deg, idx)
        for deg, dim in self.dims.items():
            self.offset[deg] = len(self.position)
            self.position.extend((deg, i) for i in range(dim))

    def __len__(self) -> int:
        return len(self.position)

    def flat(self, x: GVec) -> Sparse:
        out: Sparse = {}
        for deg, v in x.items():
            base, dim = self.offset.get(deg), self.dims.get(deg, 0)
            if len(v) != dim and any(v):
                raise ValueError(f"shape mismatch: vector of length {len(v)} in "
                                 f"degree {deg}, expected {dim}")
            for i, c in enumerate(v):
                if c:
                    out[base + i] = c
        return out

    def graded(self, s: Sparse) -> GVec:
        """The element with flat coordinates ``s``, every coefficient a
        ``Fraction``; zero degrees dropped."""
        out: GVec = {}
        for k, c in s.items():
            if c:
                deg, idx = self.position[k]
                v = out.get(deg)
                if v is None:
                    v = out[deg] = [_ZERO] * self.dims[deg]
                v[idx] = Q(c) if type(c) is int else c
        return out

    def columns(self, f: GradedMap) -> list[Sparse]:
        """f(e_a) by flat position a, in flat coordinates, for f: space -> space."""
        out: list[Sparse] = [{} for _ in self.position]
        for deg, cols in f.columns.items():
            src, dst = self.offset[deg], self.offset[deg + f.shift]
            out[src:src + len(cols)] = [{dst + r: c for r, c in col.items()} for col in cols]
        return out

    def table_from_upper(self, upper, symmetric: bool = False) -> "StructureTable":
        """The table of ``upper``, pairs ((a, b), e_a * e_b) with |a| <= |b|
        (equal degrees in both orders), constants given as ints or
        ``Fraction``s and stored as ints where integral.  A mixed-degree pair
        is mirrored with e_b * e_a = -(-1)^{|a||b|} e_a * e_b, or with
        (-1)^{|a||b|} for a graded-commutative product (``symmetric``)."""
        rows: list[Row] = [{} for _ in self.position]
        integral = True
        for (a, b), s in upper:
            if not s:
                continue
            if any(type(c) is not int for c in s.values()):
                s = _exact(s)
                integral = integral and all(type(c) is int for c in s.values())
            rows[a][b] = s
            m, n = self.position[a][0], self.position[b][0]
            if m != n:
                rows[b][a] = s if (m * n % 2 == 1) != symmetric else {
                    k: -c for k, c in s.items()}
        return StructureTable(self.space, rows.__getitem__, integral=integral)


class StructureTable(FlatBasis):
    """The nonzero structure constants of a bilinear map over a flat basis.

    ``row(a)[b]`` is the sparse vector of e_a * e_b; pairs whose product is
    zero are absent, and rows cover both orders of every pair.  Row a is
    made by ``row_of(a)`` the first time it is asked for and kept, so a few
    brackets on a large host touch only the rows of their left arguments.
    ``is_zero``, when given, decides whether every row is empty without
    making them.  Integral constants are ints and the others ``Fraction``s
    (module docstring); ``integral``, when true, says that every constant
    is an int.
    """

    def __init__(self, space: GradedVectorSpace, row_of: Callable[[int], Row],
                 is_zero: Callable[[], bool] | None = None, integral: bool = False):
        super().__init__(space)
        self._row_of = row_of
        self._is_zero = is_zero
        self.integral = integral
        self._rows: list[Row | None] = [None] * len(self.position)

    @staticmethod
    def from_dense(space: GradedVectorSpace,
                   tables: dict[tuple[int, int], list[list[Vector]]],
                   symmetric: bool = False) -> "StructureTable":
        """The table of the JSON form: ``tables[(m, n)][i][j]`` (m <= n) is
        the coordinate vector of e_i * e_j in degree m + n, and the other
        order of a mixed-degree pair follows as in ``table_from_upper``.
        The shapes are checked here, where a dense table enters."""
        for (m, n), table in tables.items():
            if m > n:
                raise StructuralError(f"table for ({m},{n}) must be stored as ({n},{m})")
            if len(table) != space.dim(m):
                raise StructuralError(f"table ({m},{n}) has {len(table)} rows, expected {space.dim(m)}")
            for row in table:
                if len(row) != space.dim(n):
                    raise StructuralError(f"table ({m},{n}) row length mismatch")
                for v in row:
                    if len(v) != space.dim(m + n):
                        raise StructuralError(f"value in ({m},{n}) has wrong length")
        basis = FlatBasis(space)
        upper = []
        for (m, n), table in tables.items():
            target = basis.offset.get(m + n)
            for i, row in enumerate(table):
                for j, v in enumerate(row):
                    upper.append(((basis.offset[m] + i, basis.offset[n] + j),
                                  {target + k: c for k, c in enumerate(v) if c}))
        return basis.table_from_upper(upper, symmetric)

    def row(self, a: int) -> Row:
        row = self._rows[a]
        if row is None:
            row = self._rows[a] = self._row_of(a)
        return row

    __getitem__ = row

    def is_zero(self) -> bool:
        if self._is_zero is not None:
            return self._is_zero()
        return not any(self.row(a) for a in range(len(self)))

    def pair(self, m: int, i: int, n: int, j: int) -> GVec:
        """e_i * e_j for basis vectors of degrees m, n."""
        if m not in self.offset or n not in self.offset:
            return {}
        entry = self.row(self.offset[m] + i).get(self.offset[n] + j)
        return self.graded(entry) if entry else {}

    def product(self, x: GVec, y: GVec) -> GVec:
        return self.graded(self.flat_product(self.flat(x), self.flat(y)))

    def flat_product(self, x: Sparse, y: Sparse) -> Sparse:
        """x * y on flat coordinates, zero coefficients dropped."""
        acc: Sparse = {}
        _bracket_into(acc, 1, self, x, y)
        return {k: c for k, c in acc.items() if c}

    def dense(self) -> dict[tuple[int, int], list[list[Vector]]]:
        """The dense tables of the JSON form: ``[(m, n)][i][j]`` for the
        degree pairs m <= n with a nonzero entry, in ascending order, every
        constant a ``Fraction``."""
        tables: dict[tuple[int, int], list[list[Vector]]] = {}
        for a, (m, i) in enumerate(self.position):
            for b, entry in self.row(a).items():
                n, j = self.position[b]
                if m > n:
                    continue
                table = tables.get((m, n))
                if table is None:
                    out = self.dims[m + n]
                    table = tables[m, n] = [[[_ZERO] * out for _ in range(self.dims[n])]
                                            for _ in range(self.dims[m])]
                cell, base = table[i][j], self.offset[m + n]
                for k, c in entry.items():
                    cell[k - base] = Q(c) if type(c) is int else c
        return dict(sorted(tables.items()))


def _add_into(acc: Sparse, scale, s: Sparse):
    """acc += scale s, with no multiplication where scale or an entry is +-1."""
    one, minus = scale == 1, scale == -1
    for k, c in s.items():
        v = c if one else -c if minus else scale if c == 1 else -scale if c == -1 else scale * c
        acc[k] = acc[k] + v if k in acc else v


def _bracket_into(acc: Sparse, scale, rows, x: Sparse, y: Sparse):
    """acc += scale [x, y], ``rows[a]`` the table row of e_a; 1 is not multiplied."""
    for a, xc in x.items():
        row = rows[a]
        if not row:
            continue
        if scale != 1:
            xc = scale * xc
        if len(row) <= len(y):
            hits = [(e, y[b]) for b, e in row.items() if b in y]
        else:
            hits = [(row[b], yc) for b, yc in y.items() if b in row]
        for e, yc in hits:
            _add_into(acc, xc if yc == 1 else xc * yc, e)


def _sum_flat(sums: dict, base: int, c, e: Sparse):
    """sums[base + j] += c e_j over the entries of e: many instances' sums in
    one dict, entry j of instance i at i n + j (n the dimension, base = i n);
    int constants and an int c stay ints."""
    for j, v in e.items():
        v *= c
        j += base
        sums[j] = sums[j] + v if j in sums else v


def _flat_sums(sums: dict, n: int):
    """The instances of ``_sum_flat`` with a nonzero sum, (i, sparse sum),
    in increasing i, each sum made as it is reached."""
    inst, acc = None, {}
    for key in sorted(sums):
        i, j = divmod(key, n)
        if i != inst:
            if any(acc.values()):
                yield inst, acc
            inst, acc = i, {}
        acc[j] = sums[key]
    if any(acc.values()):
        yield inst, acc


class Dgla:
    """Complex plus bracket structure constants.

    Brackets are evaluated from ``table``, the sparse ``StructureTable``.
    A dict of dense tables in the JSON form (``StructureTable.from_dense``)
    is accepted in its place and converted, with its shape checks.
    ``brackets`` is the dense form computed back from the table, for
    emitting JSON.
    """

    def __init__(self, underlying: Complex, table: StructureTable):
        self.underlying = underlying
        self.table = table
        if isinstance(table, dict):
            self.table = StructureTable.from_dense(self.space, table)

    @cached_property
    def brackets(self) -> dict[tuple[int, int], list[list[Vector]]]:
        """``brackets[(m, n)][i][j]`` (m <= n) is [e_i, e_j] in degree m + n."""
        return self.table.dense()

    @cached_property
    def dcols(self) -> list[Sparse]:
        """d(e_a) for every flat position a of ``table``, in flat coordinates."""
        return self.table.columns(self.underlying.differential)

    @property
    def space(self) -> GradedVectorSpace:
        return self.underlying.space

    def d(self, x: GVec) -> GVec:
        return self.underlying.d(x)

    def pair_bracket(self, m: int, i: int, n: int, j: int) -> GVec:
        """[e_i, e_j] for basis vectors of degrees m, n."""
        return self.table.pair(m, i, n, j)

    def bracket(self, x: GVec, y: GVec) -> GVec:
        return self.table.product(x, y)

    def basis_element(self, deg: int, idx: int) -> GVec:
        return self.space.basis_element(deg, idx)

    def label(self, deg: int, idx: int) -> str:
        return self.space.label(deg, idx)

    def is_abelian(self) -> bool:
        return self.table.is_zero()


def abelian_dgla(c: Complex) -> Dgla:
    return Dgla(c, {})


def _exact(s: Sparse) -> Sparse:
    """``s`` with its integral entries as ints and the rest kept."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in s.items()}


def _sweep(t: StructureTable, d: GradedMap, report: ValidationReport):
    """What an axiom sweep over ``t`` reads, by flat position: the table rows
    as stored, the columns of d, the degrees, and ``fail(kind, positions,
    acc)``, which adds a failure to ``report`` with its labels and residual.

    The rows hold integral constants as ints; the columns of d, made here,
    read their integral entries as ints too, and the other entries stay
    ``Fraction``s.  Residuals go out through ``graded``, so they print as
    the ``Fraction``s they equal."""
    rows = [t.row(a) for a in range(len(t))]
    dcols = [_exact(col) for col in t.columns(d)]
    degree = [deg for deg, _ in t.position]

    def fail(kind, positions, acc):
        report.fail(kind, [d.source.label(*t.position[p]) for p in positions],
                    _residual_repr(t.graded(acc)))
    return rows, dcols, degree, fail


def _check_leibniz(rows, dcols, degree, fail, s):
    """Graded Leibniz d(ab) = (da)b + (-1)^{s|a|} a(db), d of degree s with
    columns ``dcols`` (s = 1: the differential), in basis order.  For each a
    one pass sums the nonzero terms into the residual of their b: d(ab) from
    the b in a's row, -(da)b from the rows of the basis vectors of da, and
    -(-1)^{s|a|} a(db) from the d-preimages b, with their coefficients, of
    the basis vectors in a's row."""
    preimages = [[] for _ in rows]      # (b, coefficient of e_k in db)
    for b, db in enumerate(dcols):
        for k, c in db.items():
            preimages[k].append((b, c))
    n = len(rows)
    for a, (row, da) in enumerate(zip(rows, dcols)):
        sums: dict = {}
        for b, ab in row.items():
            for k, c in ab.items():
                if dcols[k]:
                    _sum_flat(sums, b * n, c, dcols[k])
        for k, c in da.items():
            c = -c
            for b, e in rows[k].items():
                _sum_flat(sums, b * n, c, e)
        sign = 1 if s * degree[a] % 2 else -1       # -(-1)^{s|a|}
        for k, e in row.items():
            for b, c in preimages[k]:
                _sum_flat(sums, b * n, c if sign == 1 else -c, e)
        for b, acc in _flat_sums(sums, n):
            fail("leibniz", (a, b), acc)


def validate_dgla(g: Dgla) -> ValidationReport:
    """Check graded antisymmetry, Leibniz and Jacobi on every basis instance.

    Antisymmetry compares the pairs with a bracket in either order; Leibniz
    is ``_check_leibniz``; Jacobi sums each double bracket term
    [x,y]_k [e_k, e_z] into its triple in one pass over the stored brackets.
    Instances with no nonzero term are zero without arithmetic.  Integral
    constants are multiplied as ints (see ``_sweep``).  Failures come in
    basis order, as a sweep over every instance would list them.
    """
    report = ValidationReport()
    rows, dcols, degree, fail = _sweep(g.table, g.underlying.differential, report)
    empty: Sparse = {}

    # antisymmetry [a,b] = -(-1)^{|a||b|}[b,a] on every pair with an entry in
    # either order (so [a,a] = 0 for even |a|), visited from the row of the
    # lower of the two in position order, which is (degree, position) order,
    # or from the higher one's row when the lower row lacks it; in that order
    found = []
    for a, row in enumerate(rows):
        for b, e in row.items():
            if b < a:
                if a in rows[b]:
                    continue
                lo, hi, ab, ba = b, a, empty, e
            else:
                lo, hi, ab, ba = a, b, e, rows[b].get(a, empty)
            sign = 1 if (degree[a] * degree[b]) % 2 else -1  # -(-1)^{|a||b|}
            if ba == (ab if sign == 1 else {k: -c for k, c in ab.items()}):
                continue
            acc: Sparse = {}
            _add_into(acc, 1, ab)
            _add_into(acc, -sign, ba)
            if any(acc.values()):
                found.append(((lo, hi), acc))
    for pair, acc in sorted(found, key=lambda f: f[0]):
        fail("antisymmetry", pair, acc)

    # graded Leibniz: d[a,b] = [da,b] + (-1)^{|a|}[a,db]
    _check_leibniz(rows, dcols, degree, fail, 1)

    # graded Jacobi in the symmetric cyclic form on triples a <= b <= c (with
    # antisymmetry in hand), the sum over the rotations (x, y, z) of (a, b, c)
    # of (-1)^{|x||z|}[[x,y],z].  A term [x,y]_k [e_k, e_z] is met once, at
    # entry k of the stored [x,y] and z in the row of e_k, and kept when
    # (x, y, z) is a rotation: z outside (x, y) for x < y, inside [y, x] for
    # x > y, any z for a tie; x = y = z stands for all three rotations.
    n = len(rows)
    sums: dict = {}                 # triple (a, b, c) as (a n + b) n + c
    odd = [deg % 2 for deg in degree]
    for x, row in enumerate(rows):
        for y, xy in row.items():
            for k, c in xy.items():
                for z, e in rows[k].items():
                    w = c
                    if x < y:
                        if x < z < y:
                            continue
                        t = (z * n + x) * n + y if z <= x else (x * n + y) * n + z
                    elif x > y:
                        if z < y or z > x:
                            continue
                        t = (y * n + z) * n + x
                    else:
                        t = (z * n + x) * n + x if z <= x else (x * n + x) * n + z
                        if z == x:
                            w = 3 * c
                    _sum_flat(sums, t * n, -w if odd[x] and odd[z] else w, e)
    for t, acc in _flat_sums(sums, n):
        ab, c = divmod(t, n)
        fail("jacobi", (*divmod(ab, n), c), acc)
    return report


class CdgaModel:
    """Complex plus graded-commutative product structure constants.

    Products are evaluated from ``table``; as for ``Dgla``, dense tables in
    the JSON form are accepted in its place, and ``products`` is the dense
    form computed back from the table.
    """

    def __init__(self, complex: Complex, table: StructureTable):
        self.complex = complex
        self.table = table
        if isinstance(table, dict):
            self.table = StructureTable.from_dense(self.space, table, symmetric=True)

    @cached_property
    def products(self) -> dict[tuple[int, int], list[list[Vector]]]:
        """``products[(m, n)][i][j]`` (m <= n) is e_i * e_j in degree m + n."""
        return self.table.dense()

    @property
    def space(self) -> GradedVectorSpace:
        return self.complex.space

    def d(self, x: GVec) -> GVec:
        return self.complex.d(x)

    def pair_product(self, m: int, i: int, n: int, j: int) -> GVec:
        return self.table.pair(m, i, n, j)

    def multiply(self, x: GVec, y: GVec) -> GVec:
        return self.table.product(x, y)


def validate_cdga(omega: CdgaModel) -> ValidationReport:
    """Graded commutativity, associativity and the Leibniz rule on bases.

    Failures are reported, not raised: some useful truncated models satisfy
    everything except Leibniz on their top corner, and the endomorphism
    constructions only need the complex structure.

    As in ``validate_dgla``: commutativity compares the pairs with a
    product in either order; associativity sums (ab)c with + and a(bc) with
    - into one dict of triples, in one pass over the stored products; and
    Leibniz is ``_check_leibniz``.  Integral constants are multiplied as
    ints (see ``_sweep``).  Failures come in basis order, as a sweep over
    every instance would list them.
    """
    report = ValidationReport()
    rows, dcols, degree, fail = _sweep(omega.table, omega.complex.differential, report)
    n = len(rows)
    empty: Sparse = {}

    # graded commutativity ab = (-1)^{|a||b|} ba, on the pairs with a
    # product in either order
    partners = [set() for _ in range(n)]   # b with e_b * e_a present
    for b, row in enumerate(rows):
        for a in row:
            partners[a].add(b)
    for a, row in enumerate(rows):
        for b in sorted(partners[a].union(row)):
            acc: Sparse = {}
            _add_into(acc, 1, row.get(b, empty))
            _add_into(acc, 1 if (degree[a] * degree[b]) % 2 else -1,
                      rows[b].get(a, empty))
            if any(acc.values()):
                fail("commutativity", (a, b), acc)

    # associativity (ab)c - a(bc) = 0, one pass over the stored products xy:
    # each entry k adds (xy)_k e_k e_z to the triple (x, y, z) for z in the
    # row of e_k, and -(xy)_k e_w e_k to (w, x, y) for w with e_k in its row
    sums: dict = {}                 # triple (a, b, c) as (a n + b) n + c
    for x, row in enumerate(rows):
        for y, xy in row.items():
            for k, c in xy.items():
                for z, e in rows[k].items():
                    _sum_flat(sums, ((x * n + y) * n + z) * n, c, e)
                for w in partners[k]:
                    _sum_flat(sums, ((w * n + x) * n + y) * n, -c, rows[w][k])
    for t, acc in _flat_sums(sums, n):
        ab, c = divmod(t, n)
        fail("associativity", (*divmod(ab, n), c), acc)

    _check_leibniz(rows, dcols, degree, fail, 1)
    return report


# ---------------------------------------------------------------------------
# decreasing filtrations

class FiltrationData:
    """Decreasing filtration: ``steps[p]`` is F^p, a ``SubSpaceData`` of
    ``space``; outside the given range F^p is everything (below) or zero
    (above), each built the first time it is asked for and kept."""

    def __init__(self, space: GradedVectorSpace, steps: dict[int, SubSpaceData]):
        self.space = space
        self.steps = steps
        self._subspaces = dict(steps)

    def levels(self) -> list[int]:
        return sorted(self.steps)

    def step(self, p: int) -> SubSpaceData:
        levels = self.levels()
        if levels:
            p = min(max(p, levels[0] - 1), levels[-1] + 1)
        if p not in self._subspaces:
            below = levels and p < levels[0]        # everything, else nothing
            self._subspaces[p] = SubSpaceData.from_echelon(self.space, {
                deg: ([{i: Q(1)} for i in range(self.space.dim(deg))],
                      list(range(self.space.dim(deg))))
                for deg in self.space.degrees if below})
        return self._subspaces[p]


def validate_filtration(c: Complex, f: FiltrationData) -> ValidationReport:
    report = ValidationReport()
    if f.space.components != c.space.components:
        raise StructuralError("filtration declared on a different space")
    for p in f.levels():
        sub = f.step(p)
        prev = f.step(p - 1)
        for deg, (rows, _) in sorted(sub.echelon.items()):
            for idx, row in enumerate(rows):
                if prev.coords(deg, row) is None:
                    report.fail("decreasing", [f"F^{p} degree {deg} vector {idx}"])
                img = c.differential.apply_row(deg, row)
                if sub.coords(deg + 1, img) is None:
                    report.fail("d_stability", [f"F^{p} degree {deg} vector {idx}"],
                                _residual_repr({deg + 1: dense(img, c.space.dim(deg + 1))}))
    return report


def tensor_basis(g: GradedVectorSpace, a: GradedVectorSpace) -> dict[int, list]:
    """The basis of g (x) A by total degree, as pairs ((p, i), (q, j)) for
    e_i (x) f_j.  Within a total degree the A-degree q ascends; within one
    q the g index is major and the A index minor."""
    out: dict[int, list] = {}
    for q in a.degrees:
        for p in g.degrees:
            out.setdefault(p + q, []).extend(
                ((p, i), (q, j)) for i in range(g.dim(p)) for j in range(a.dim(q)))
    return out


class TensorDgla:
    """g (x) C from ``tensor_dgla``.  ``factors[t]`` is the pair (g flat
    position, C flat position) of flat position t of ``dgla.table``, and
    ``weight[j]`` the weight of C's basis vector f_j: the monomial degree
    on m_A, the t-degree on the interval forms (t and dt each of weight
    1), the word length on CE.  ``d_solver`` and ``base_cohomology``
    describe g and are made once per host.  On a convolution dgla,
    ``words`` lists the CE word at each position of C and ``arity`` is the
    N it was built at, both set once by ``convolution``; ``wider`` holds for
    each source g the convolution dgla of arity N + 1 and the position of
    each CE word in it, made by the first ``convolution.linf_residual``."""

    def __init__(self, g: Dgla, c: CdgaModel, dgla: Dgla, factors: list[tuple[int, int]],
                 weight: tuple[int, ...]):
        self.g = g
        self.c = c
        self.dgla = dgla
        self.factors = factors
        self.weight = weight
        self._d_solvers: dict[int, ColumnSolver] = {}
        self.words, self.arity = (), 0
        self.wider: dict[Dgla, tuple] = {}

    @property
    def space(self) -> GradedVectorSpace:
        return self.dgla.space

    def d(self, x: GVec) -> GVec:
        return self.dgla.d(x)

    def bracket(self, x: GVec, y: GVec) -> GVec:
        return self.dgla.bracket(x, y)

    def split(self, x: Sparse) -> dict[int, Sparse]:
        """{j: s_j}, each s_j a flat element of g, with x = sum_j s_j (x) f_j."""
        out: dict[int, Sparse] = {}
        for t, c in x.items():
            v, j = self.factors[t]
            out.setdefault(j, {})[v] = c
        return out

    def join(self, parts: dict[int, Sparse]) -> Sparse:
        """sum_j s_j (x) f_j for ``parts`` {j: s_j}, the inverse of ``split``."""
        place = self.place
        return {place[v, j]: c for j, s in parts.items() for v, c in s.items()}

    @cached_property
    def place(self) -> dict[tuple[int, int], int]:
        """The flat position of each factor pair, the inverse of ``factors``."""
        return {vf: t for t, vf in enumerate(self.factors)}

    def tensor_element(self, x: GVec, j: int) -> GVec:
        """x (x) f_j for an element x of g and C's basis vector f_j."""
        return self.dgla.table.graded(self.join({j: self.g.table.flat(x)}))

    @cached_property
    def weights(self) -> list[int]:
        """The weight of every flat position: that of its C factor."""
        return [self.weight[j] for _, j in self.factors]

    @cached_property
    def by_weight(self) -> dict[tuple[int, int], list[int]]:
        """The flat positions of each (degree, weight), in increasing order."""
        out: dict[tuple[int, int], list[int]] = {}
        for p, (deg, _) in enumerate(self.dgla.table.position):
            out.setdefault((deg, self.weights[p]), []).append(p)
        return out

    def d_solver(self, deg: int) -> ColumnSolver:
        """The d of g from degree ``deg``, reduced once: where C has d = 0,
        d(v (x) f) = dv (x) f, so it solves the slice of d at every f."""
        if deg not in self._d_solvers:
            columns = self.g.underlying.differential.columns.get(deg, [])
            self._d_solvers[deg] = ColumnSolver(columns, self.g.space.dim(deg + 1))
        return self._d_solvers[deg]

    @cached_property
    def base_cohomology(self) -> CohomologyResult:
        """H(g), which the obstruction classes are read in."""
        return cohomology(self.g.underlying)


def tensor_dgla(g: Dgla, a: CdgaModel, weight: tuple[int, ...]) -> TensorDgla:
    """g (x) A for a dgla g and a finite cdga A, on the basis ``tensor_basis``
    with labels "v@a", and ``weight`` on A's basis:

        d(v (x) a) = dv (x) a + (-1)^{|v|} v (x) da,
        [v (x) a, w (x) b] = (-1)^{|a||w|} [v, w] (x) ab.

    d is written column by column from the flat columns of the two
    differentials.  The row of v (x) f is composed from the rows of v in
    ``g.table`` and of f in ``a.table`` when it is first asked for, over
    both orders at once; integral factor tables give integral rows.
    """
    gt, at = g.table, a.table
    basis = tensor_basis(g.space, a.space)
    space = GradedVectorSpace({
        k: tuple(f"{g.label(*v)}@{a.space.label(*f)}" for v, f in pairs)
        for k, pairs in basis.items()})
    flat = FlatBasis(space)
    factors: list = [None] * len(flat)
    for k, pairs in basis.items():
        for idx, ((p, i), (q, j)) in enumerate(pairs):
            factors[flat.offset[k] + idx] = gt.offset[p] + i, at.offset[q] + j
    place = {vf: t for t, vf in enumerate(factors)}
    gdeg = [deg for deg, _ in gt.position]
    adeg = [deg for deg, _ in at.position]

    # d(v (x) f) = dv (x) f + (-1)^{|v|} v (x) df, column by column; the two
    # parts lie in different A-degrees, so their entries never meet
    gcols, acols = g.dcols, at.columns(a.complex.differential)
    d_columns = {k: [{} for _ in pairs] for k, pairs in basis.items()}
    for t, (v, f) in enumerate(factors):
        k, col = flat.position[t]
        column = d_columns[k][col]
        for u, c in gcols[v].items():
            column[flat.position[place[u, f]][1]] = c
        sign = -1 if gdeg[v] % 2 else 1
        for h, c in acols[f].items():
            column[flat.position[place[v, h]][1]] = sign * c

    integral = gt.integral and at.integral

    def row_of(t: int) -> Row:
        # [v (x) f, w (x) h] = (-1)^{|f||w|} [v, w] (x) fh, over every w (x) h;
        # with a Fraction factor, a product that comes out integral is
        # stored as an int
        v, f = factors[t]
        vrow, frow = gt.row(v), at.row(f)
        row: Row = {}
        if not vrow or not frow:
            return row
        for w, vw in vrow.items():
            if adeg[f] * gdeg[w] % 2:
                vw = {u: -c for u, c in vw.items()}
            for h, fh in frow.items():
                entry = {place[u, e]: c if s == 1 else c * s
                         for u, c in vw.items() for e, s in fh.items()}
                row[place[w, h]] = entry if integral else _exact(entry)
        return row

    table = StructureTable(space, row_of, lambda: gt.is_zero() or at.is_zero(), integral)
    return TensorDgla(g, a, Dgla(Complex(space, GradedMap(space, space, 1, d_columns)), table),
                      factors, weight)


def ad_exp_terms(bracket, scale, is_zero, alpha, s, limit: int) -> list:
    """The terms ad_alpha^n(s) / (n+1)!, n = 0, 1, ..., up to the first zero.

    Every gauge action is e^alpha * x = x + (sum of these terms) with
    s = [alpha, x] - d alpha.  ``bracket``, ``scale`` and ``is_zero`` act on
    the caller's elements.  ad_alpha must be nilpotent: a nonzero term past
    the first ``limit`` raises RuntimeError.
    """
    terms = []
    factorial = 1
    while not is_zero(s):
        if len(terms) == limit:
            raise RuntimeError("exponential series failed to terminate")
        factorial *= len(terms) + 1
        terms.append(scale(Q(1, factorial), s) if factorial > 1 else s)
        s = bracket(alpha, s)
    return terms


class DglaMorphism:
    def __init__(self, source: Dgla, target: Dgla, map: GradedMap):
        self.source = source
        self.target = target
        self.map = map
        if self.map.shift != 0:
            raise StructuralError("dgla morphism must have shift 0")

    def apply(self, x: GVec) -> GVec:
        return self.map.apply(x)


def validate_morphism(f: DglaMorphism) -> ValidationReport:
    report = ValidationReport()
    res = is_chain_map(f.map, f.source.underlying, f.target.underlying)
    for deg in res.columns:
        report.fail("chain_map", [f"degree {deg}"],
                    [[str(x) for x in row] for row in res.block(deg)])
    sp = f.source.space
    basis = sp.basis()
    images = [f.apply(sp.basis_element(m, i)) for (m, i) in basis]
    for (m, i), fa in zip(basis, images):
        for (n, j), fb in zip(basis, images):
            lhs = f.apply(f.source.pair_bracket(m, i, n, j))
            rhs = f.target.bracket(fa, fb)
            r = vec_sub(lhs, rhs)
            if not vec_is_zero(r):
                report.fail("bracket_compat", [sp.label(m, i), sp.label(n, j)],
                            _residual_repr(r))
    return report


def identity_morphism(g: Dgla) -> DglaMorphism:
    from .graded import identity_map
    return DglaMorphism(g, g, identity_map(g.space))


class SubDgla:
    def __init__(self, parent: Dgla, span: SubSpaceData):
        self.parent = parent
        self.span = span
        if self.span.parent.components != self.parent.space.components:
            raise StructuralError("sub-dgla span declared on a different space")

    def contains(self, x: GVec) -> bool:
        return self.span.contains(x)

    def dim(self, deg: int) -> int:
        return self.span.dim(deg)


def sub_dgla_span(parent: Dgla, span: dict[int, list[Vector]]) -> SubDgla:
    return SubDgla(parent, SubSpaceData(parent.space, span))


def _sub_brackets(n: SubDgla, upper: bool):
    """The brackets of the basis rows of ``n``, none if the parent is
    abelian: (m, i, p, j, b) for row i of degree m and row j of degree p
    (m <= p if ``upper``), b their bracket as a sparse row of the parent's
    degree m + p."""
    if n.parent.is_abelian():
        return
    t, degs = n.parent.table, sorted(n.span.echelon)
    flat = {deg: [{t.offset[deg] + k: c for k, c in row.items()}
                  for row in n.span.rows(deg)] for deg in degs}
    for m in degs:
        for i, x in enumerate(flat[m]):
            for p in degs[degs.index(m):] if upper else degs:
                base = t.offset.get(m + p)
                for j, y in enumerate(flat[p]):
                    yield m, i, p, j, {k - base: c for k, c in t.flat_product(x, y).items()}


def validate_sub_dgla(n: SubDgla) -> ValidationReport:
    """Closure under d and bracket."""
    report = ValidationReport()
    h, sub = n.parent, n.span
    for deg, (rows, _) in sorted(sub.echelon.items()):
        for idx, row in enumerate(rows):
            img = h.underlying.differential.apply_row(deg, row)
            if sub.coords(deg + 1, img) is None:
                report.fail("d_closure", [f"degree {deg} span vector {idx}"],
                            _residual_repr({deg + 1: dense(img, h.space.dim(deg + 1))}))
    for m, i, p, j, b in _sub_brackets(n, upper=False):
        if sub.coords(m + p, b) is None:
            report.fail("bracket_closure", [f"degree {m} vector {i}", f"degree {p} vector {j}"],
                        _residual_repr({m + p: dense(b, h.space.dim(m + p))}))
    return report


def sub_quotient(h: Dgla, n: SubDgla) -> tuple[ValidationReport, QuotientComplex]:
    """Validate closure of n inside h and return the quotient complex h/n.

    The bracket does not descend to the quotient in general, so only the
    complex is returned.
    """
    report = validate_sub_dgla(n)
    quotient = quotient_complex(h.underlying, n.span)
    return report, quotient


def inclusion_as_morphism(n: SubDgla) -> DglaMorphism:
    """The sub-dgla on its own basis, included into the parent."""
    sub = restrict_to_sub(n)
    columns = {deg: n.span.rows(deg) for deg in sub.space.degrees}
    return DglaMorphism(sub, n.parent,
                        GradedMap(sub.space, n.parent.space, 0, columns))


def restrict_to_sub(n: SubDgla) -> Dgla:
    """The dgla structure induced on a (closed) sub-dgla, on its own basis:
    the echelon rows of ``n.span``, whose images under d and the bracket
    are taken on the rows and read back in coordinates by ``coords``."""
    h, sub = n.parent, n.span
    degs = sorted(sub.echelon)
    space = GradedVectorSpace({deg: tuple(f"s{deg}_{i}" for i in range(sub.dim(deg)))
                               for deg in degs})

    def coords(deg: int, row: Sparse) -> Sparse:
        c = sub.coords(deg, row)
        if c is None:
            raise StructuralError(f"element leaves the subspace in degree {deg}")
        return c

    d = h.underlying.differential
    d_columns = {deg: [coords(deg + 1, d.apply_row(deg, row)) for row in sub.rows(deg)]
                 for deg in degs if space.dim(deg + 1)}
    cx = Complex(space, GradedMap(space, space, 1, d_columns))

    flat = FlatBasis(space)
    upper = [((flat.offset[m] + i, flat.offset[p] + j),
              {flat.offset[m + p] + k: c for k, c in coords(m + p, b).items()})
             for m, i, p, j, b in _sub_brackets(n, upper=True)]
    return Dgla(cx, flat.table_from_upper(upper))
