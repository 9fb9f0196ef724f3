"""Cartan homotopies and the transport of zero."""

import random
from fractions import Fraction as Q

import pytest

import dense_reference as dense
from deforma import fixtures as F
from deforma.cartan import cartan_check, gauge_zero_transport, lie_from_cartan
from deforma.convolution import convolution, linear_part, strict_embed, taylor
from deforma.dgla import DglaMorphism, abelian_dgla, validate_morphism
from deforma.endo import end_dgla
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, StructuralError, vec_eq,
                            zero_map)
from deforma.period import contraction_cartan

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
        rep = cartan_check(t, convolution(t, h, 2), i)
        assert rep.ok
        assert rep.notes["stronger_bracket_identity"]
        assert rep.notes["stronger_square_zero"]


def test_f5_lie_derivative_oracle():
    """l_{f d/dx} acts as the Lie derivative: x -> f, dx -> d(f)."""
    omega = F.f5_cdga()
    end = end_dgla(omega.complex)
    t = F.f5_derivations()
    l = lie_from_cartan(t, convolution(t, end.dgla, 2), F.f5_contraction(end))
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
    l = lie_from_cartan(t, convolution(t, end.dgla, 2), F.f6_contraction(end))
    assert l.is_zero()


def test_lie_is_a_morphism():
    for t, h, i in contraction_cases():
        l = lie_from_cartan(t, convolution(t, h, 2), i)
        assert validate_morphism(DglaMorphism(t, h, l)).ok


def test_cartan_violation_reported():
    g = F.f7_dgla()
    h = F.f3_end().dgla
    # i_x = e00 alone is not Cartan (condition B fails)
    i = GradedMap.from_blocks(g.space, h.space, -1, {1: [[Q(1)], [Q(0)]]})
    rep = cartan_check(g, convolution(g, h, 2), i)
    assert not rep.ok
    assert {f["kind"] for f in rep.failures} == {"condition_A", "condition_B"}


def test_transport_is_strict_for_cartan():
    for t, h, i in contraction_cases():
        conv = convolution(t, h)
        fam = gauge_zero_transport(t, conv, i)
        emb = strict_embed(conv, DglaMorphism(t, h, lie_from_cartan(t, conv, i)))
        assert set(taylor(t, conv, fam)) == set(taylor(t, conv, emb))
        assert taylor(t, conv, fam) == taylor(t, conv, emb)
        assert vec_eq(fam, emb)


def test_transport_linear_part_always_d10():
    """No Cartan hypothesis: the arity-1 part of e^{-i}*0 is d10(i)."""
    g = F.f2_dgla()
    h = F.f3_end().dgla
    conv = convolution(g, h)
    for _ in range(20):
        i = GradedMap.from_blocks(g.space, h.space, -1,
                                  {0: [[Q(rng.randint(-3, 3)) for _ in range(4)]]})
        total = gauge_zero_transport(g, conv, i)
        expected = dense.hom_d10(dense.hom_element_from_linear(g, h, i))
        got = taylor(g, conv, total).get(1, {})
        assert got == expected.prune().values
        assert linear_part(g, conv, total, 0).blocks == lie_from_cartan(g, conv, i).blocks


def test_arity_two_component_formula():
    """e^{-i}*0 at arity 2 equals d01(i) - [i, d10(i)]/2 for arbitrary i,
    with the formula evaluated by the hand-written Hom calculus."""
    g = F.f2_dgla()
    h = F.f3_end().dgla
    conv = convolution(g, h)
    seen_noncartan = False
    for _ in range(25):
        i = GradedMap.from_blocks(g.space, h.space, -1,
                                  {0: [[Q(rng.randint(-3, 3)) for _ in range(4)]]})
        ielem = dense.hom_element_from_linear(g, h, i)
        lelem = dense.hom_d10(ielem)
        formula = dense.hom_add(dense.hom_d01(ielem),
                                dense.hom_scale(Q(-1, 2), dense.hom_bracket(ielem, lelem)))
        total = gauge_zero_transport(g, conv, i)
        got = taylor(g, conv, total).get(2, {})
        assert got == formula.prune().values
        seen_noncartan = seen_noncartan or not cartan_check(g, conv, i).ok
    assert seen_noncartan


def test_degree_zero_hosts_force_zero_homotopies():
    """gl_2 -> gl_2 admits no nonzero candidate (no degree -1 targets)."""
    g = F.f2_dgla()
    assert g.space.dim(-1) == 0
    i = GradedMap(g.space, g.space, -1, {})
    conv = convolution(g, g, 2)
    assert cartan_check(g, conv, i).ok
    assert lie_from_cartan(g, conv, i).is_zero()


def test_wrong_shift_rejected():
    g = F.f2_dgla()
    conv = convolution(g, g, 2)
    for check in (cartan_check, lie_from_cartan, gauge_zero_transport):
        with pytest.raises(StructuralError, match="must have degree -1"):
            check(g, conv, GradedMap(g.space, g.space, 0, {}))


def test_check_needs_arity_two():
    """Condition (A) reads words of length two, so the check refuses an
    arity-one convolution dgla; l reads the same in either."""
    g, h = F.f7_dgla(), F.f3_end().dgla
    i = GradedMap.from_blocks(g.space, h.space, -1, {1: [[Q(1)], [Q(1)]]})
    with pytest.raises(StructuralError, match="arity at least 2"):
        cartan_check(g, convolution(g, h, 1), i)
    assert cartan_check(g, convolution(g, h, 2), i).ok
    assert (lie_from_cartan(g, convolution(g, h, 1), i).blocks
            == lie_from_cartan(g, convolution(g, h, 2), i).blocks)


def test_check_without_length_two_words():
    """span{d1} acting on F4: one generator of degree 0, odd in g[1], whose
    length-two word vanishes.  convolution(g, h, 2) then has words of length
    one only, condition (A) reads no words, and the check passes.  A
    zero-dimensional source has no words at all."""
    space = GradedVectorSpace({0: ("d1",)})
    g = abelian_dgla(Complex(space, zero_map(space, space, 1)))
    omega = F.f4_cdga()
    end = end_dgla(omega.complex)
    i = GradedMap.from_blocks(g.space, end.space, -1,
                              {0: [row[:1] for row in F.f4_contraction(end).blocks[0]]})
    conv = convolution(g, end.dgla, 2)
    assert conv.weight == (1,)
    rep = cartan_check(g, conv, i)
    assert rep.ok and rep.notes["stronger_bracket_identity"]
    assert contraction_cartan(omega, g, i, end=end).report.ok

    zero = GradedVectorSpace({})
    g = abelian_dgla(Complex(zero, zero_map(zero, zero, 1)))
    i = GradedMap(zero, end.space, -1, {})
    conv = convolution(g, end.dgla, 2)
    assert conv.weight == () and cartan_check(g, conv, i).ok
    assert lie_from_cartan(g, conv, i).is_zero() and gauge_zero_transport(g, conv, i) == {}
