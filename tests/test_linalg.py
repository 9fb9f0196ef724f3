"""Exact linear algebra: hand oracles plus algebraic property tests.

The kernels take sparse rows; ``sparse_rows`` turns a dense matrix into them and
``dense_rref`` turns an echelon back into the dense matrix, zero rows last.
"""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from deforma import linalg
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, SubSpaceData,
                            cohomology)


def sparse_rows(m):
    return [linalg.sparse(row) for row in m]


def dense_rref(m):
    """``linalg.rref`` of a dense matrix, as the dense matrix and pivots."""
    cols = len(m[0]) if m else 0
    red, pivots = linalg.rref(sparse_rows(m))
    full = [linalg.dense(row, cols) for row in red]
    return full + [[Q(0)] * cols for _ in range(len(m) - len(full))], pivots


def nullspace(m):
    return [linalg.dense(v, len(m[0])) for v in linalg.nullspace(sparse_rows(m), len(m[0]))]


def solve(m, b):
    x = linalg.solve(sparse_rows(m), linalg.sparse(b))
    return None if x is None else linalg.dense(x, len(m[0]))


def test_rref_hand_oracle():
    # worked by hand: [[1,2],[2,4]] row-reduces to [[1,2],[0,0]]
    m = [[Q(1), Q(2)], [Q(2), Q(4)]]
    r, pivots = linalg.rref(sparse_rows(m))
    assert r == [{0: Q(1), 1: Q(2)}]            # the nonzero rows only
    assert pivots == [0]
    assert dense_rref(m) == ([[Q(1), Q(2)], [Q(0), Q(0)]], [0])


def test_rank_and_nullspace_hand_oracle():
    m = [[Q(1), Q(2), Q(3)], [Q(4), Q(5), Q(6)], [Q(7), Q(8), Q(9)]]
    assert linalg.rank(sparse_rows(m)) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    # the classic kernel vector (1, -2, 1) up to scale
    v = ns[0]
    assert [v[0] - v[0], v[1] + 2 * v[0], v[2] - v[0]] == [Q(0)] * 3
    assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in m)


def test_solve_hand_oracle():
    m = [[Q(2), Q(0)], [Q(0), Q(4)]]
    assert solve(m, [Q(6), Q(2)]) == [Q(3), Q(1, 2)]
    assert solve([[Q(1), Q(1)]], [Q(0)]) == [Q(0), Q(0)]  # free vars -> 0
    assert solve([[Q(0)], [Q(0)]], [Q(1), Q(0)]) is None
    with pytest.raises(ValueError, match="outside the rows"):
        linalg.solve([{0: Q(1)}], {1: Q(1)})


def test_degenerate_shapes():
    assert dense.matvec([], [Q(1), Q(2)]) == []
    assert dense.matmul([], [[Q(1)]]) == []
    assert linalg.nullspace([], 0) == []
    assert linalg.nullspace([], 2) == [{0: Q(1)}, {1: Q(1)}]
    assert linalg.rref([]) == ([], []) and linalg.rref([{}, {}]) == ([], [])
    assert linalg.solve([], {}) == {}


def dense_matvec(a, v):
    """Every coordinate of every row, zero or not."""
    out = []
    for row in a:
        total = Q(0)
        for x, c in zip(row, v):
            total += x * c
        out.append(total)
    return out


def test_matvec_matches_dense_reference():
    rng = random.Random(5)

    def entry(density):
        return Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Q(0)

    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = [[entry(0.3) for _ in range(cols)] for _ in range(rows)]
        a[rng.randrange(rows)] = [Q(0)] * cols          # a zero row
        one_hot = [Q(0)] * cols
        one_hot[rng.randrange(cols)] = Q(rng.randint(1, 5), rng.randint(1, 3))
        f = GradedMap.from_blocks(
            GradedVectorSpace({0: tuple(f"s{j}" for j in range(cols))}),
            GradedVectorSpace({0: tuple(f"t{i}" for i in range(rows))}), 0, {0: a})
        for v in ([entry(0.5) for _ in range(cols)], [Q(0)] * cols, one_hot):
            got = f.apply({0: v}).get(0, [Q(0)] * rows)
            assert got == dense_matvec(a, v) == dense.matvec(a, v)
            assert all(type(c) is Q for c in got)


def test_matvec_shapes():
    assert dense.matvec([], []) == []
    assert dense.matvec([[Q(0), Q(0)]], [Q(0), Q(0)]) == [Q(0)]
    with pytest.raises(ValueError, match="shape mismatch"):
        dense.matvec([[Q(1), Q(2)]], [Q(1)])
    with pytest.raises(ValueError, match="shape mismatch"):
        dense.matvec([[Q(1)]], [Q(1), Q(0)])


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def matrices(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_nullity(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    assert linalg.rank(sparse_rows(m)) + len(nullspace(m)) == cols


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_nullspace_annihilated(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    for v in nullspace(m):
        assert dense.matvec(m, v) == [Q(0)] * rows


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_solves(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    x = data.draw(st.lists(rationals, min_size=cols, max_size=cols))
    rhs = dense.matvec(m, x)
    sol = solve(m, rhs)
    assert sol is not None
    assert dense.matvec(m, sol) == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rref_is_idempotent_and_deterministic(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    r1, p1 = linalg.rref(sparse_rows(m))
    r2, p2 = linalg.rref(r1)
    assert (r1, p1) == (r2, p2)
    assert linalg.rref(sparse_rows(m)) == (r1, p1)
    assert linalg.rref(r1[::-1]) == (r1, p1)     # the order of insertion is irrelevant


def test_extend_to_complement():
    basis = [[Q(1), Q(1), Q(0)]]
    indices = linalg.extend_to_complement(sparse_rows(basis), 3)
    assert len(indices) == 2
    extra = []
    for i in indices:
        e = [Q(0)] * 3
        e[i] = Q(1)
        extra.append(e)
    assert linalg.rank(sparse_rows(basis + extra)) == 3


# ---------------------------------------------------------------------------
# sympy as an independent oracle (a development dependency only)

sparse_rationals = st.one_of(st.just(Q(0)), rationals)


def to_fractions(matrix) -> list[list[Q]]:
    return [[Q(int(x.p), int(x.q)) for x in matrix.row(i)]
            for i in range(matrix.rows)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_rref_rank_nullspace_match_sympy(rows, cols, data):
    sympy = pytest.importorskip("sympy")
    m = data.draw(st.lists(st.lists(sparse_rationals, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                        for row in m])
    red, pivots = ref.rref()
    assert dense_rref(m) == (to_fractions(red), list(pivots))
    assert linalg.rank(sparse_rows(m)) == ref.rank()
    # both put 1 at one free column and 0 at the others, so the bases agree
    assert nullspace(m) == [[row[0] for row in to_fractions(v)]
                            for v in ref.nullspace()]


# ---------------------------------------------------------------------------
# every sparse kernel against its dense oracle, entry by entry

@st.composite
def sparse_matrix(draw):
    """A rows x cols matrix of mostly-zero rationals, 0 <= rows <= 6 and
    0 <= cols <= 7, with some rows and columns forced to zero."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    m = [[draw(sparse_rationals) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
        if i < rows:
            m[i] = [Q(0)] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in m:
            if j < cols:
                row[j] = Q(0)
    return m, cols


def lcm_of(v):
    return math.lcm(*[c.denominator for c in v])


def columns_of(m, cols):
    return [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(cols)]


def project_oracle(ref, deg, dim, v):
    """Cohomology coordinates by one dense solve against [coboundaries | reps]."""
    _, reps, cobs = ref.get(deg, (0, [], []))
    if not cobs + reps:
        return None
    sol = dense.solve(dense.columns_matrix(cobs + reps, dim), v)
    coords = sol[len(cobs):]
    return coords if any(coords) else None


@settings(max_examples=150, deadline=None)
@given(sparse_matrix(), st.data())
def test_sparse_kernels_match_dense_oracles(matrix, data):
    m, cols = matrix
    rows_ = sparse_rows(m)
    # a zero row changes no answer and gives the dense oracles their width
    padded = m or [[Q(0)] * cols]

    red, pivots = linalg.rref(rows_)
    full, ref_pivots = dense.rref(m)
    assert pivots == ref_pivots
    assert [linalg.dense(row, cols) for row in red] == full[:len(pivots)]
    assert all(x and type(x) is Q for row in red for x in row.values())

    basis, free = linalg.kernel(rows_, cols)
    assert [linalg.dense(v, cols) for v in basis] == dense.nullspace(padded, cols)
    assert free == [c for c in range(cols) if c not in pivots]

    x = data.draw(st.lists(sparse_rationals, min_size=cols, max_size=cols))
    for b in (dense.matvec(m, x),
              data.draw(st.lists(sparse_rationals, min_size=len(m), max_size=len(m)))):
        got = linalg.solve(rows_, linalg.sparse(b))
        want = dense.solve(padded, b if m else [Q(0)])
        assert (None if got is None else linalg.dense(got, cols)) == want
        # against one reduction of the columns, on b's integer numerators
        solver, scale = linalg.ColumnSolver(columns_of(m, cols), len(m)), lcm_of(b)
        got = solver.solve_numerators({i: int(c * scale) for i, c in enumerate(b) if c})
        assert (None if got is None else linalg.dense(
            {j: Q(v, solver.den * scale) for j, v in got.items()}, cols)) == want

    columns = columns_of(m, cols)
    assert linalg.column_space_basis(columns) == [columns[p] for p in ref_pivots]
    assert linalg.extend_to_complement(rows_, cols) == dense.extend_to_complement(m, cols)

    # SubSpaceData.coords: vectors in the span, and vectors just outside it
    parent = GradedVectorSpace({0: tuple(f"e{j}" for j in range(cols))})
    sub = SubSpaceData(parent, {0: m})
    echelon = dense.echelon_basis(m)
    coeffs = data.draw(st.lists(sparse_rationals, min_size=len(m), max_size=len(m)))
    v = [sum((c * row[j] for c, row in zip(coeffs, m)), Q(0)) for j in range(cols)]
    for w in (v, [a + (j == 0) for j, a in enumerate(v)]):
        want = (dense.solve(dense.columns_matrix(echelon, cols), w) if echelon
                else ([] if not any(w) else None))
        got = sub.coords(0, linalg.sparse(w))
        assert got == (None if want is None else linalg.sparse(want))

    # CohomologyResult.project on the two-term complex K^cols -> K^rows
    space = GradedVectorSpace({0: parent.labels(0),
                               1: tuple(f"f{i}" for i in range(len(m)))})
    c = Complex(space, GradedMap(space, space, 1, {0: columns}))
    hc, ref = cohomology(c), dense.cohomology(c)
    for deg, (rank, reps, cobs) in ref.items():
        data_ = hc.by_degree[deg]
        assert data_.rank == rank and data_.representatives == reps
        assert [linalg.dense(b, space.dim(deg)) for b in data_.coboundaries] == cobs
    cocycles = {0: [linalg.dense(z, cols) for z in basis],
                1: [[Q(int(i == j)) for i in range(len(m))] for j in range(len(m))]}
    for deg, zs in cocycles.items():
        coeffs = data.draw(st.lists(sparse_rationals, min_size=len(zs), max_size=len(zs)))
        z = [sum((a * y[t] for a, y in zip(coeffs, zs)), Q(0))
             for t in range(space.dim(deg))]
        assert hc.project({deg: z}).get(deg) == project_oracle(ref, deg, space.dim(deg), z)


# ---------------------------------------------------------------------------
# Echelon on mixed rows: int, integral and non-integral Fraction entries,
# negative pivots, zero and dependent rows, coefficients up to 10^6

big = st.integers(-10**6, 10**6)
mixed_entries = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3), big,
    big.map(Q),                                               # integral Fraction
    st.tuples(big, st.integers(1, 10**6)).map(lambda nd: Q(*nd)),
    st.tuples(st.integers(-9, 9), st.integers(2, 9)).map(lambda nd: Q(*nd)))


@st.composite
def mixed_matrix(draw):
    """Rows of mixed entries, some negated so a pivot is negative, with a
    dependent row (an integer combination of two others) and a zero row
    among them."""
    cols = draw(st.integers(1, 6))
    m = draw(st.lists(st.lists(mixed_entries, min_size=cols, max_size=cols),
                      min_size=1, max_size=5))
    if len(m) >= 2:
        a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        m.append([a * x + b * y for x, y in zip(m[0], m[1])])
    m.append([0] * cols)
    m = [[-x for x in row] if draw(st.booleans()) else row for row in m]
    draw(st.randoms()).shuffle(m)
    return m, cols


def as_fractions(m):
    return [[Q(x) for x in row] for row in m]


def all_fractions(rows):
    return all(type(x) is Q and x for row in rows for x in row.values())


def least_image_denominator(columns, nrows):
    """What ``ColumnSolver.den`` must be: the least common denominator of
    the images of the e_i under ``Echelon.reduce`` by the columns, each
    tagged by its index, that are independent of those before them."""
    e = linalg.Echelon()
    for j, col in enumerate(columns):
        r = e.reduce({**col, nrows + j: 1})
        if min(r) < nrows:
            e.insert(r)
    return math.lcm(*[c.denominator for i in range(nrows) for c in e.reduce({i: 1}).values()])


@settings(max_examples=150, deadline=None)
@given(mixed_matrix(), st.data())
def test_echelon_on_mixed_rows_matches_dense_oracle(matrix, data):
    m, cols = matrix
    rows_, ref = sparse_rows(m), as_fractions(m)
    full, ref_pivots = dense.rref(ref)
    e = linalg.Echelon(rows_)
    assert sorted(e.rows) == sorted(e.ints) == ref_pivots
    for p, row in zip(ref_pivots, full):
        assert linalg.dense(e.rows[p], cols) == row
        lead = e.ints[p][p]
        assert lead > 0 and math.gcd(*e.ints[p].values()) == 1
        assert e.ints[p] == {j: x * lead for j, x in e.rows[p].items()}
    red, pivots = linalg.rref(rows_)
    assert pivots == ref_pivots and [linalg.dense(r, cols) for r in red] == full[:len(pivots)]
    assert all_fractions(red) and all_fractions(e.rows.values())
    assert linalg.rank(rows_) == len(ref_pivots)

    basis, free = linalg.kernel(rows_, cols)
    assert [linalg.dense(v, cols) for v in basis] == dense.nullspace(ref, cols)
    assert all_fractions(basis)

    # reduce: v less sum over the pivots p of v_p times rref row p
    v = data.draw(st.lists(mixed_entries, min_size=cols, max_size=cols))
    want = [Q(x) for x in v]
    for p, row in zip(ref_pivots, full):
        want = [w - Q(v[p]) * r for w, r in zip(want, row)]
    got = e.reduce(linalg.sparse(v))
    assert linalg.dense(got, cols) == want and all_fractions([got])
    assert linalg.in_span(rows_, linalg.sparse(v)) == (not any(want))

    solver = linalg.ColumnSolver(columns_of(m, cols), len(m))
    assert solver.den == least_image_denominator(columns_of(m, cols), len(m))
    x = data.draw(st.lists(mixed_entries, min_size=cols, max_size=cols))
    for b in (dense.matvec(ref, as_fractions([x])[0]),
              data.draw(st.lists(mixed_entries, min_size=len(m), max_size=len(m)))):
        b = [Q(c) for c in b]
        got, want = linalg.solve(rows_, linalg.sparse(b)), dense.solve(ref, b)
        assert (None if got is None else linalg.dense(got, cols)) == want
        assert got is None or all_fractions([got])
        scale = lcm_of(b)
        num = solver.solve_numerators({i: int(c * scale) for i, c in enumerate(b) if c})
        assert (None if num is None else linalg.dense(
            {j: Q(c, solver.den * scale) for j, c in num.items()}, cols)) == want
        assert num is None or all(type(c) is int for c in num.values())

    columns = columns_of(m, cols)
    assert linalg.column_space_basis(columns) == [columns[p] for p in ref_pivots]
    assert linalg.extend_to_complement(rows_, cols) == dense.extend_to_complement(ref, cols)


@settings(max_examples=60, deadline=None)
@given(mixed_matrix())
def test_echelon_on_mixed_rows_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    m, cols = matrix
    ref = sympy.Matrix([[sympy.Rational(Q(x).numerator, Q(x).denominator) for x in row]
                        for row in m])
    red, pivots = ref.rref()
    assert dense_rref(m) == (to_fractions(red), list(pivots))
    assert linalg.rank(sparse_rows(m)) == ref.rank()
    assert nullspace(m) == [[row[0] for row in to_fractions(v)] for v in ref.nullspace()]


def test_echelon_hand_oracle_with_negative_pivots():
    # [[-2, 4, 1], [0, -3, 6], [-2, 1, 7]]: the third row is the sum of the
    # first two, so the echelon has two rows, (1, 0, -9/2) and (0, 1, -2)
    e = linalg.Echelon([{0: -2, 1: 4, 2: 1}, {1: -3, 2: 6}, {0: -2, 1: 1, 2: 7}])
    assert e.ints == {0: {0: 2, 2: -9}, 1: {1: 1, 2: -2}}
    assert dict(e.rows) == {0: {0: Q(1), 2: Q(-9, 2)}, 1: {1: Q(1), 2: Q(-2)}}
    assert e.reduce({0: Q(1, 3), 2: -1}) == {2: Q(1, 2)}
    assert e.reduce({0: -2, 1: 4, 2: 1}) == {}
    assert e.insert({2: Q(-7, 5)}) == 2
    assert dict(e.rows) == {0: {0: Q(1)}, 1: {1: Q(1)}, 2: {2: Q(1)}}
    assert all_fractions(e.rows.values())


def test_rows_view_is_built_when_read_and_dropped_on_change():
    e = linalg.Echelon([{0: 1, 1: 2}])
    first = e.rows[0]
    assert e.rows[0] is first                  # built once
    e.insert({1: 3})                            # clears column 1 from row 0
    assert e.rows[0] == {0: Q(1)} and e.rows[0] is not first
    assert first == {0: Q(1), 1: Q(2)}          # a row handed out is not changed


def test_pivot_and_count_readers_make_no_fraction(monkeypatch):
    made = []
    new = Q.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    rng = random.Random(19)
    rows_ = [{j: rng.randint(-10**6, 10**6) for j in range(6) if rng.random() < 0.6}
             for _ in range(5)]
    rows_.append({j: 2 * x for j, x in rows_[0].items()})
    monkeypatch.setattr(Q, "__new__", staticmethod(counting))
    rank = linalg.rank(rows_)
    basis = linalg.column_space_basis(rows_)
    chosen = linalg.extend_to_complement(rows_, 6)
    spans = [linalg.in_span(rows_, {j: 1}) for j in range(6)]
    assert made == []
    monkeypatch.undo()
    ref = as_fractions([linalg.dense(r, 6) for r in rows_])
    pivots = dense.rref(ref)[1]
    assert rank == len(pivots) and rank < 6
    assert basis == [rows_[p] for p in dense.rref(dense.transpose(ref))[1]]
    assert chosen == dense.extend_to_complement(ref, 6)
    assert spans == [dense.in_span(ref, [Q(int(i == j)) for i in range(6)]) for j in range(6)]
