"""Truncated polynomial Artin algebras and nilpotent tensor dglas."""

from fractions import Fraction as Q

import pytest

import dense_reference
from deforma import fixtures as F
from deforma.artin import (tensor_nilpotent, truncated_polynomial_algebra,
                           validate_artin)
from deforma.dgla import validate_dgla


def test_dual_numbers_table():
    a = truncated_polynomial_algebra(1, 2)
    assert a.labels == ("e",)
    assert tuple(a.weights) == (1,)
    # e * e = 0
    assert a.multiply_vectors([Q(1)], [Q(1)]) == [Q(0)]


def test_order_three_table():
    a = truncated_polynomial_algebra(1, 3)
    assert a.labels == ("e", "e^2")
    assert a.multiply_vectors([Q(1), Q(0)], [Q(1), Q(0)]) == [Q(0), Q(1)]
    assert a.multiply_vectors([Q(0), Q(1)], [Q(1), Q(0)]) == [Q(0), Q(0)]


def test_two_generators():
    a = truncated_polynomial_algebra(2, 3)
    # m/m^2 is 2-dim, m^2/m^3 is 3-dim: e1, e2, e1^2, e1e2, e2^2
    assert len(a.labels) == 5
    assert sorted(a.weights) == [1, 1, 2, 2, 2]
    assert validate_artin(a).ok


def test_validate_artin_all_orders():
    for order in (2, 3, 4, 5):
        assert validate_artin(truncated_polynomial_algebra(1, order)).ok


def test_tensor_nilpotent_is_dgla():
    for base in (F.f2_dgla(), F.f7_dgla()):
        ng = tensor_nilpotent(base, truncated_polynomial_algebra(1, 3))
        assert validate_dgla(ng.dgla).ok


def test_tensor_nilpotent_weights_and_slices():
    ng = tensor_nilpotent(F.f7_dgla(), truncated_polynomial_algebra(1, 4))
    x = ng.tensor_element({1: [Q(1)]}, 0)       # x (x) e
    y = ng.tensor_element({1: [Q(1)]}, 1)       # x (x) e^2
    assert ng.min_weight(x) == 1
    assert ng.min_weight(y) == 2
    both = {1: [a + b for a, b in zip(x[1], y[1])]}
    assert ng.weight_slice(both, 1) == x
    assert ng.weight_slice(both, 2) == y


def test_tensor_bracket_multiplies_monomials():
    # [x (x) e, x (x) e] = [x,x] (x) e^2 = y (x) e^2
    ng = tensor_nilpotent(F.f7_dgla(), truncated_polynomial_algebra(1, 3))
    x = ng.tensor_element({1: [Q(1)]}, 0)
    b = ng.bracket(x, x)
    assert b == ng.tensor_element({2: [Q(1)]}, 1)


def test_tensor_bracket_truncates():
    ng = tensor_nilpotent(F.f7_dgla(), truncated_polynomial_algebra(1, 2))
    x = ng.tensor_element({1: [Q(1)]}, 0)
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
