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
        f = GradedMap(GradedVectorSpace({0: tuple(f"s{j}" for j in range(cols))}),
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
    assert [linalg.dense(v, cols) for v in basis] == dense.nullspace(padded)
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
