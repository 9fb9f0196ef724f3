"""Dgla axioms, morphisms, sub-dglas and quotients."""

from fractions import Fraction as Q

import pytest

from deforma import fixtures as F
from deforma.dgla import (Dgla, DglaMorphism, identity_morphism,
                          inclusion_as_morphism, restrict_to_sub, sub_dgla_span,
                          sub_quotient, tensor_dgla, validate_cdga,
                          validate_dgla, validate_morphism, validate_sub_dgla)
from deforma.graded import Complex, GradedMap, GradedVectorSpace, zero_map
from deforma.linalg import _fractions, _num, ad_exp_terms


def test_all_fixture_dglas_valid():
    for name in F.FIXTURE_NAMES:
        assert validate_dgla(F.fixture_dgla(name)).ok, name


def test_jacobi_violation_detected():
    # sl_2-like table with one structure constant corrupted
    g = F.f2_dgla()
    bad = [[list(v) for v in row] for row in g.brackets[(0, 0)]]
    bad[0][1][1] += Q(1)
    broken = Dgla(g.underlying, {(0, 0): bad})
    report = validate_dgla(broken)
    assert not report.ok
    kinds = {f["kind"] for f in report.failures}
    assert kinds & {"jacobi", "antisymmetry", "leibniz"}


def test_antisymmetry_violation_detected():
    # even-degree self-bracket [e,e] must satisfy graded antisymmetry:
    # in degree 0, [e,e] = -[e,e] forces zero
    space = GradedVectorSpace({0: ("e",)})
    cx = Complex(space, zero_map(space, space, 1))
    broken = Dgla(cx, {(0, 0): [[[Q(1)]]]})
    report = validate_dgla(broken)
    assert any(f["kind"] == "antisymmetry" for f in report.failures)


def test_f7_square_is_allowed():
    # odd-degree self-bracket [x,x] = y is legitimate
    assert validate_dgla(F.f7_dgla()).ok


def test_derived_bracket_order():
    g = F.f2_dgla()
    a = {0: [Q(0), Q(1), Q(0), Q(0)]}  # e12
    b = {0: [Q(0), Q(0), Q(1), Q(0)]}  # e21
    ab = g.bracket(a, b)
    ba = g.bracket(b, a)
    # degree (0,0): [a,b] = -[b,a]
    assert ab == {0: [Q(1), Q(0), Q(0), Q(-1)]}  # e11 - e22
    assert ba == {0: [Q(-1), Q(0), Q(0), Q(1)]}


def test_borel_is_closed_and_quotient_abelian():
    g = F.f2_dgla()
    borel = F.f2_borel(g)
    assert validate_sub_dgla(borel).ok
    report, quotient = sub_quotient(g, borel)
    assert report.ok
    assert quotient.complex.space.dim(0) == 1


def test_non_closed_span_rejected():
    g = F.f2_dgla()
    # span of e12, e21 is not bracket-closed
    span = {0: [[Q(0), Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(0)]]}
    sub = sub_dgla_span(g, span)
    assert not validate_sub_dgla(sub).ok


def test_sub_dgla_failures_name_basis_rows_and_residuals():
    # the witnesses count echelon basis rows (1 at their pivots), and the
    # residuals are d or the bracket of those rows
    g = F.f2_dgla()
    sub = sub_dgla_span(g, {0: [[Q(0), Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(2), Q(0)]]})
    assert validate_sub_dgla(sub).failures == [
        {"kind": "bracket_closure", "witness": ["degree 0 vector 0", "degree 0 vector 1"],
         "residual": {"0": ["1", "0", "0", "-1"]}},
        {"kind": "bracket_closure", "witness": ["degree 0 vector 1", "degree 0 vector 0"],
         "residual": {"0": ["-1", "0", "0", "1"]}}]
    h = F.f3_end().dgla
    sub = sub_dgla_span(h, {-1: [[Q(2)]], 0: [[Q(1), Q(0)]]})
    assert validate_sub_dgla(sub).failures == [
        {"kind": "d_closure", "witness": ["degree -1 span vector 0"],
         "residual": {"0": ["1", "1"]}},
        {"kind": "d_closure", "witness": ["degree 0 span vector 0"], "residual": {"1": ["1"]}}]


def test_restrict_to_sub_matches_parent():
    g = F.f2_dgla()
    borel = F.f2_borel(g)
    small = restrict_to_sub(borel)
    assert validate_dgla(small).ok
    assert small.space.dim(0) == 3


def test_morphism_validation():
    g = F.f2_dgla()
    assert validate_morphism(identity_morphism(g)).ok
    borel = F.f2_borel(g)
    assert validate_morphism(inclusion_as_morphism(borel)).ok
    # transpose is an anti-automorphism, not an automorphism: must fail
    t = GradedMap.from_blocks(g.space, g.space, 0, {0: [
        [Q(1), Q(0), Q(0), Q(0)],
        [Q(0), Q(0), Q(1), Q(0)],
        [Q(0), Q(1), Q(0), Q(0)],
        [Q(0), Q(0), Q(0), Q(1)]]})
    assert not validate_morphism(DglaMorphism(g, g, t)).ok


def test_abelian_flag():
    assert F.f1_dgla().is_abelian()
    assert not F.f2_dgla().is_abelian()


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F5", "F6", "F7"])
def test_tensor_with_odd_coefficients_is_dgla(name):
    # Lambda(xi, xibar) has odd generators, so the Koszul sign
    # (-1)^{|a||w|} of the tensor bracket is exercised
    omega = F.f6_cdga()
    assert validate_cdga(omega).ok
    weight = (0,) * len(omega.table)
    assert validate_dgla(tensor_dgla(F.fixture_dgla(name), omega, weight).dgla).ok


def test_exponential_series_terminates_or_raises():
    g = F.f2_dgla()                      # gl_2: e11, e12, e21, e22
    e11, e12, e21 = (g.basis_element(0, i) for i in range(3))

    def terms(alpha, s, limit):
        t = g.table
        return [t.graded(_fractions(c))
                for c in ad_exp_terms(t, _num(t.flat(alpha)), _num(t.flat(s)), limit)]

    # e21 -> [e12, e21] = e11 - e22 -> -2 e12 -> 0: three terms
    assert terms(e12, e21, 3) == [e21, {0: [Q(1, 2), Q(0), Q(0), Q(-1, 2)]},
                                  {0: [Q(0), Q(-1, 3), Q(0), Q(0)]}]
    with pytest.raises(RuntimeError, match="failed to terminate"):
        terms(e12, e21, 2)
    # [e11, e12] = e12: ad_e11 is not nilpotent on e12
    with pytest.raises(RuntimeError, match="failed to terminate"):
        terms(e11, e12, 10)
