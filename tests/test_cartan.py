"""Cartan homotopies and the transport of zero."""

import random
from fractions import Fraction as Q

import pytest

import dense_reference as dense
from deforma import fixtures as F
from deforma.cartan import (cartan_check, gauge_zero_transport, lie_from_cartan,
                            lie_morphism_from_cartan)
from deforma.convolution import convolution, linear_part, strict_embed, taylor
from deforma.dgla import validate_morphism
from deforma.endo import end_dgla
from deforma.graded import GradedMap, StructuralError, vec_eq

rng = random.Random(59)


def contraction_cases():
    for omega_f, t_f, i_f in [(F.f4_cdga, F.f4_derivations, F.f4_contraction),
                              (F.f5_cdga, F.f5_derivations, F.f5_contraction),
                              (F.f6_cdga, F.f6_dgla, F.f6_contraction)]:
        omega = omega_f()
        end = end_dgla(omega.complex)
        yield t_f(), end.dgla, i_f(end)


def test_contractions_are_cartan():
    for t, h, i in contraction_cases():
        rep = cartan_check(t, h, i)
        assert rep.ok
        assert rep.notes["stronger_bracket_identity"]
        assert rep.notes["stronger_square_zero"]


def test_f5_lie_derivative_oracle():
    """l_{f d/dx} acts as the Lie derivative: x -> f, dx -> d(f)."""
    omega = F.f5_cdga()
    end = end_dgla(omega.complex)
    t = F.f5_derivations()
    l = lie_from_cartan(t, end.dgla, F.f5_contraction(end))
    # v1 = x d/dx: x -> x, x^2 -> 2x^2, dx -> dx, x dx -> 2x dx;
    # x^2 dx -> 0 because i(x^2 dx) = x^3 is cut off by the truncation
    op1 = end.element_to_map(l.apply({0: [Q(1), Q(0)]}))
    assert op1.apply({0: [Q(0), Q(1), Q(0)]}) == {0: [Q(0), Q(1), Q(0)]}
    assert op1.apply({0: [Q(0), Q(0), Q(1)]}) == {0: [Q(0), Q(0), Q(2)]}
    assert op1.apply({1: [Q(1), Q(0), Q(0)]}) == {1: [Q(1), Q(0), Q(0)]}
    assert op1.apply({1: [Q(0), Q(1), Q(0)]}) == {1: [Q(0), Q(2), Q(0)]}
    assert op1.apply({1: [Q(0), Q(0), Q(1)]}) == {}
    # v2 = x^2 d/dx: x -> x^2, dx -> 2x dx
    op2 = end.element_to_map(l.apply({0: [Q(0), Q(1)]}))
    assert op2.apply({0: [Q(0), Q(1), Q(0)]}) == {0: [Q(0), Q(0), Q(1)]}
    assert op2.apply({1: [Q(1), Q(0), Q(0)]}) == {1: [Q(0), Q(2), Q(0)]}


def test_f6_lie_is_zero():
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    t = F.f6_dgla()
    l = lie_from_cartan(t, end.dgla, F.f6_contraction(end))
    assert l.is_zero()


def test_lie_is_a_morphism():
    for t, h, i in contraction_cases():
        assert validate_morphism(lie_morphism_from_cartan(t, h, i)).ok


def test_cartan_violation_reported():
    g = F.f7_dgla()
    h = F.f3_end().dgla
    # i_x = e00 alone is not Cartan (condition B fails)
    i = GradedMap(g.space, h.space, -1, {1: [[Q(1)], [Q(0)]]})
    rep = cartan_check(g, h, i)
    assert not rep.ok
    assert {f["kind"] for f in rep.failures} == {"condition_A", "condition_B"}


def test_transport_is_strict_for_cartan():
    for t, h, i in contraction_cases():
        conv = convolution(t, h)
        fam = gauge_zero_transport(t, conv, i)
        emb = strict_embed(conv, lie_morphism_from_cartan(t, h, i))
        assert set(taylor(t, conv, fam)) == set(taylor(t, conv, emb))
        assert taylor(t, conv, fam) == taylor(t, conv, emb)
        assert vec_eq(fam, emb)


def test_transport_linear_part_always_d10():
    """No Cartan hypothesis: the arity-1 part of e^{-i}*0 is d10(i)."""
    g = F.f2_dgla()
    h = F.f3_end().dgla
    conv = convolution(g, h)
    for _ in range(20):
        i = GradedMap(g.space, h.space, -1,
                      {0: [[Q(rng.randint(-3, 3)) for _ in range(4)]]})
        total = gauge_zero_transport(g, conv, i)
        expected = dense.hom_d10(dense.hom_element_from_linear(g, h, i))
        got = taylor(g, conv, total).get(1, {})
        assert got == expected.prune().values
        assert linear_part(g, conv, total, 0).blocks == lie_from_cartan(g, h, i).blocks


def test_arity_two_component_formula():
    """e^{-i}*0 at arity 2 equals d01(i) - [i, d10(i)]/2 for arbitrary i,
    with the formula evaluated by the hand-written Hom calculus."""
    g = F.f2_dgla()
    h = F.f3_end().dgla
    conv = convolution(g, h)
    seen_noncartan = False
    for _ in range(25):
        i = GradedMap(g.space, h.space, -1,
                      {0: [[Q(rng.randint(-3, 3)) for _ in range(4)]]})
        ielem = dense.hom_element_from_linear(g, h, i)
        lelem = dense.hom_d10(ielem)
        formula = dense.hom_add(dense.hom_d01(ielem),
                                dense.hom_scale(Q(-1, 2), dense.hom_bracket(ielem, lelem)))
        total = gauge_zero_transport(g, conv, i)
        got = taylor(g, conv, total).get(2, {})
        assert got == formula.prune().values
        seen_noncartan = seen_noncartan or not cartan_check(g, h, i).ok
    assert seen_noncartan


def test_degree_zero_hosts_force_zero_homotopies():
    """gl_2 -> gl_2 admits no nonzero candidate (no degree -1 targets)."""
    g = F.f2_dgla()
    assert g.space.dim(-1) == 0
    i = GradedMap(g.space, g.space, -1, {})
    assert cartan_check(g, g, i).ok
    assert lie_from_cartan(g, g, i).is_zero()


def test_wrong_shift_rejected():
    g = F.f2_dgla()
    with pytest.raises(StructuralError):
        cartan_check(g, g, GradedMap(g.space, g.space, 0, {}))
