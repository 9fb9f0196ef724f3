"""Truncated polynomial Artin algebras and nilpotent tensor dglas."""

import itertools
from fractions import Fraction as Q

import pytest

import dense_reference
from deforma import fixtures as F
from deforma.artin import (ArtinAlgebra, tensor_nilpotent,
                           truncated_polynomial_algebra, validate_artin)
from deforma.dgla import CdgaModel, validate_cdga, validate_dgla
from deforma.graded import Complex, GradedMap, GradedVectorSpace, zero_map
from deforma.holim import _interval_forms


def test_dual_numbers_table():
    a = truncated_polynomial_algebra(1, 2)
    assert a.labels == ("e",)
    assert tuple(a.weights) == (1,)
    # e * e = 0
    assert a.cdga.multiply({0: [Q(1)]}, {0: [Q(1)]}) == {}


def test_order_three_table():
    a = truncated_polynomial_algebra(1, 3)
    assert a.labels == ("e", "e^2")
    assert a.cdga.multiply({0: [Q(1), Q(0)]}, {0: [Q(1), Q(0)]}) == {0: [Q(0), Q(1)]}
    assert a.cdga.multiply({0: [Q(0), Q(1)]}, {0: [Q(1), Q(0)]}) == {}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_artin_cdga_matches_dense_table(k):
    for order in range(2, 7):
        a = truncated_polynomial_algebra(k, order)
        table = dense_reference.artin_table(k, order)
        assert a.cdga.space.degrees == [0] and a.dim == len(table)
        assert a.cdga.complex.differential.columns == {}
        dense_reference.assert_table_holds_dense(a.cdga.table, {(0, 0): table},
                                                 symmetric=True)


def test_two_generators():
    a = truncated_polynomial_algebra(2, 3)
    # m/m^2 is 2-dim, m^2/m^3 is 3-dim: e1, e2, e1^2, e1e2, e2^2
    assert len(a.labels) == 5
    assert sorted(a.weights) == [1, 1, 2, 2, 2]
    assert validate_artin(a).ok


def test_validate_artin_all_orders():
    for order in (2, 3, 4, 5):
        assert validate_artin(truncated_polynomial_algebra(1, order)).ok


def nilpotency_failure(witness, hot, n):
    return {"kind": "nilpotency", "witness": witness,
            "residual": ["1" if s == hot else "0" for s in range(n)]}


def with_order(a: ArtinAlgebra, order: int) -> ArtinAlgebra:
    """``a`` with its declared nilpotency order replaced by ``order``."""
    return ArtinAlgebra(a.cdga, order, a.generators, a.weights)


def test_validate_artin_reports_nilpotency():
    # m^3 != 0 in K[e]/e^4 and K[e1,e2]/m^4: every nonzero threefold product
    # of basis monomials, by word, with its dense residual
    a = truncated_polynomial_algebra(1, 4)
    assert validate_artin(with_order(a, 3)).failures == [
        nilpotency_failure(["e", "e", "e"], 2, 3)]
    a = truncated_polynomial_algebra(2, 4)     # e1^3, e1^2 e2, e1 e2^2, e2^3 at 5..8
    assert validate_artin(with_order(a, 3)).failures == [
        nilpotency_failure(list(word), 5 + word.count("e2"), 9)
        for word in itertools.product(("e1", "e2"), repeat=3)]


def test_validate_artin_order_fifteen():
    # the powers of m, not the 2^14 words of length 15
    a = truncated_polynomial_algebra(2, 15)
    assert a.dim == 119 and validate_artin(a).ok


def not_nilpotent_at_declared_order() -> list[ArtinAlgebra]:
    """m^order != 0 in each: truncated algebras declared one order short,
    and two hand-made tables."""
    short = [with_order(truncated_polynomial_algebra(k, order), order - 1)
             for k, order in ((1, 4), (2, 4), (2, 5), (3, 4))]
    return short + [with_order(non_commutative_artin(), 2),
                    ArtinAlgebra(non_associative_cdga(), order=3, generators=2,
                                 weights=(1, 2, 1, 3))]


def test_nilpotency_witnesses_match_word_walk():
    for a in not_nilpotent_at_declared_order():
        got = [f for f in validate_artin(a).failures if f["kind"] == "nilpotency"]
        assert got and got == dense_reference.check_nilpotency(a).failures
    for k, order in ((1, 5), (2, 6), (3, 4)):
        a = truncated_polynomial_algebra(k, order)
        assert validate_artin(a).ok and dense_reference.check_nilpotency(a).ok


def non_commutative_artin() -> ArtinAlgebra:
    # x * y = y but y * x = 0
    space = GradedVectorSpace({0: ("x", "y")})
    zero, y = [Q(0), Q(0)], [Q(0), Q(1)]
    cdga = CdgaModel(Complex(space, zero_map(space, space, 1)),
                     {(0, 0): [[zero, y], [zero, zero]]})
    return ArtinAlgebra(cdga=cdga, order=3, generators=2, weights=(1, 1))


def test_validate_artin_reports_commutativity():
    a = non_commutative_artin()
    assert [f for f in validate_artin(a).failures if f["kind"] == "commutativity"] == [
        {"kind": "commutativity", "witness": ["x", "y"], "residual": {"0": ["0", "1"]}},
        {"kind": "commutativity", "witness": ["y", "x"], "residual": {"0": ["0", "-1"]}}]


def non_associative_cdga() -> CdgaModel:
    # commutative, x x = y and y w = z only: (x x) w = z but x (x w) = 0, a
    # triple whose bc vanishes while (ab)c does not
    space = GradedVectorSpace({0: ("x", "y", "w", "z")})
    o = [Q(0)] * 4
    y, z = [Q(0), Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(0), Q(1)]
    return CdgaModel(Complex(space, zero_map(space, space, 1)),
                     {(0, 0): [[y, o, o, o], [o, o, z, o], [o, z, o, o], [o, o, o, o]]})


def odd_square_cdga() -> CdgaModel:
    # an odd generator with a nonzero square, and d(u) = xi not a derivation
    space = GradedVectorSpace({0: ("1", "u"), 1: ("xi",), 2: ("w",)})
    d = GradedMap.from_blocks(space, space, 1, {0: [[Q(0), Q(1)]]})
    one0, one1 = [Q(1), Q(0)], [Q(1)]
    return CdgaModel(Complex(space, d), {
        (0, 0): [[one0, [Q(0), Q(1)]], [[Q(0), Q(1)], [Q(0), Q(0)]]],
        (0, 1): [[one1], [[Q(0)]]],
        (0, 2): [[[Q(1)]], [[Q(0)]]],
        (1, 1): [[[Q(1)]]]})


def test_validate_cdga_matches_dense_sweep():
    """The sparse sweep lists the same failures, entry for entry, as the
    dense sweep over every ordered pair and triple."""
    models = [F.f4_cdga(), F.f5_cdga(), F.f6_cdga(), non_associative_cdga(),
              odd_square_cdga(), non_commutative_artin().cdga]
    models += [truncated_polynomial_algebra(k, order).cdga
               for k in (1, 2, 3) for order in range(2, 7)]
    # the interval forms cut at weight T: a dg ideal, so no failure
    models += [_interval_forms(tmax) for tmax in (1, 2, 3, 5)]
    broken = 0
    for cdga in models:
        expected = dense_reference.validate_cdga(cdga)
        assert validate_cdga(cdga).failures == expected.failures
        broken += not expected.ok
    assert broken == 4    # F5's Leibniz corner and the three hand-made tables


def test_validate_cdga_reports_associativity():
    assert validate_cdga(non_associative_cdga()).failures == [
        {"kind": "associativity", "witness": ["x", "x", "w"],
         "residual": {"0": ["0", "0", "0", "1"]}},
        {"kind": "associativity", "witness": ["w", "x", "x"],
         "residual": {"0": ["0", "0", "0", "-1"]}}]


def test_tensor_nilpotent_is_dgla():
    for base in (F.f2_dgla(), F.f7_dgla()):
        ng = tensor_nilpotent(base, truncated_polynomial_algebra(1, 3))
        assert validate_dgla(ng.dgla).ok


def test_tensor_nilpotent_weights_and_slices():
    ng = tensor_nilpotent(F.f7_dgla(), truncated_polynomial_algebra(1, 4))
    t, x1 = ng.dgla.table, ng.g.table.flat({1: [Q(1)]})
    x = ng.join({0: x1})        # x (x) e
    y = ng.join({1: x1})        # x (x) e^2
    assert t.graded(x) == ng.tensor_element({1: [Q(1)]}, 0)
    assert t.graded(y) == ng.tensor_element({1: [Q(1)]}, 1)
    assert [ng.weights[k] for k in x] == [1]
    assert [ng.weights[k] for k in y] == [2]
    both = {**x, **y}
    assert ng.split(both) == {0: x1, 1: x1}
    assert {k: c for k, c in both.items() if ng.weights[k] == 1} == x
    assert {k: c for k, c in both.items() if ng.weights[k] == 2} == y
    assert ng.by_weight[1, 1] == list(x) and ng.by_weight[1, 2] == list(y)


def test_tensor_bracket_multiplies_monomials():
    # [x (x) e, x (x) e] = [x,x] (x) e^2 = y (x) e^2
    ng = tensor_nilpotent(F.f7_dgla(), truncated_polynomial_algebra(1, 3))
    t, gt = ng.dgla.table, ng.g.table
    x = ng.join({0: gt.flat({1: [Q(1)]})})
    b = ng.bracket(t.graded(x), t.graded(x))
    assert ng.split(t.flat(b)) == {1: gt.flat({2: [Q(1)]})}


def test_tensor_bracket_truncates():
    ng = tensor_nilpotent(F.f7_dgla(), truncated_polynomial_algebra(1, 2))
    x = ng.dgla.table.graded(ng.join({0: ng.g.table.flat({1: [Q(1)]})}))
    assert ng.bracket(x, x) == {}


@pytest.mark.parametrize("name", F.FIXTURE_NAMES)
def test_tensor_nilpotent_matches_dense_reference(name):
    g = F.fixture_dgla(name)
    for k, order in ((1, 3), (1, 4), (1, 5), (2, 3)):
        a = truncated_polynomial_algebra(k, order)
        ng, ref = tensor_nilpotent(g, a).dgla, dense_reference.tensor_nilpotent(g, a)
        assert ng.space.components == ref.space.components
        assert ng.underlying.differential.blocks == ref.underlying.differential.blocks
        assert all(ng.table.row(p) == ref.table.row(p) for p in range(len(ref.table)))
