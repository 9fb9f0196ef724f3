"""Exact linear algebra: hand oracles plus algebraic property tests."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from deforma import linalg
from deforma.graded import GradedMap, GradedVectorSpace


def test_rref_hand_oracle():
    # worked by hand: [[1,2],[2,4]] row-reduces to [[1,2],[0,0]]
    m = [[Q(1), Q(2)], [Q(2), Q(4)]]
    r, pivots = linalg.rref(m)
    assert r == [[Q(1), Q(2)], [Q(0), Q(0)]]
    assert pivots == [0]


def test_rank_and_nullspace_hand_oracle():
    m = [[Q(1), Q(2), Q(3)], [Q(4), Q(5), Q(6)], [Q(7), Q(8), Q(9)]]
    assert linalg.rank(m) == 2
    ns = linalg.nullspace(m)
    assert len(ns) == 1
    # the classic kernel vector (1, -2, 1) up to scale
    v = ns[0]
    assert [v[0] - v[0], v[1] + 2 * v[0], v[2] - v[0]] == [Q(0)] * 3
    assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in m)


def test_solve_hand_oracle():
    m = [[Q(2), Q(0)], [Q(0), Q(4)]]
    assert linalg.solve(m, [Q(6), Q(2)]) == [Q(3), Q(1, 2)]
    assert linalg.solve([[Q(1), Q(1)]], [Q(0)]) == [Q(0), Q(0)]  # free vars -> 0
    assert linalg.solve([[Q(0)], [Q(0)]], [Q(1), Q(0)]) is None


def test_degenerate_shapes():
    assert dense.matvec([], [Q(1), Q(2)]) == []
    assert dense.matmul([], [[Q(1)]]) == []
    assert linalg.nullspace([]) == []


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
    assert linalg.rank(m) + len(linalg.nullspace(m)) == cols


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_nullspace_annihilated(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    for v in linalg.nullspace(m):
        assert dense.matvec(m, v) == [Q(0)] * rows


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_solves(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    x = data.draw(st.lists(rationals, min_size=cols, max_size=cols))
    rhs = dense.matvec(m, x)
    sol = linalg.solve(m, rhs)
    assert sol is not None
    assert dense.matvec(m, sol) == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rref_is_idempotent_and_deterministic(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    r1, p1 = linalg.rref(m)
    r2, p2 = linalg.rref(r1)
    assert (r1, p1) == (r2, p2)
    assert linalg.rref([row[:] for row in m]) == (r1, p1)


def test_extend_to_complement():
    basis = [[Q(1), Q(1), Q(0)]]
    indices = linalg.extend_to_complement(basis, 3)
    assert len(indices) == 2
    extra = []
    for i in indices:
        e = [Q(0)] * 3
        e[i] = Q(1)
        extra.append(e)
    assert linalg.rank(basis + extra) == 3


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
    assert linalg.rref(m) == (to_fractions(red), list(pivots))
    assert linalg.rank(m) == ref.rank()
    # both put 1 at one free column and 0 at the others, so the bases agree
    assert linalg.nullspace(m) == [[row[0] for row in to_fractions(v)]
                                   for v in ref.nullspace()]
