"""Graded spaces, complexes, cohomology, quotients."""

from fractions import Fraction as Q

import pytest

from deforma import fixtures as F
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, StructuralError,
                            SubSpaceData, cohomology, induced_map_on_cohomology,
                            is_chain_map, quotient_complex, shift_complex)


def two_term(scalar):
    space = GradedVectorSpace({0: ("a",), 1: ("b",)})
    return Complex(space, GradedMap.from_blocks(space, space, 1, {0: [[Q(scalar)]]}))


def test_d_squared_enforced():
    space = GradedVectorSpace({0: ("a",), 1: ("b",), 2: ("c",)})
    with pytest.raises(StructuralError):
        Complex(space, GradedMap.from_blocks(space, space, 1, {0: [[Q(1)]], 1: [[Q(1)]]}))


def test_cohomology_acyclic_two_term():
    hc = cohomology(two_term(1))
    assert hc.ranks == {}
    assert hc.euler_characteristic() == 0


def test_cohomology_zero_differential():
    hc = cohomology(two_term(0))
    assert hc.ranks == {0: 1, 1: 1}


def test_cohomology_f5_oracle():
    # K[x]/(x^3) with d(x^k) = k x^{k-1} dx: H^0 = <1>, H^1 = <x^2 dx>
    hc = cohomology(F.f5_cdga().complex)
    assert hc.ranks == {0: 1, 1: 1}
    rep = hc.representatives(1)
    assert len(rep) == 1 and rep[0][2] != 0  # the x^2 dx direction survives


def test_cohomology_project_kills_coboundaries():
    cx = F.f5_cdga().complex
    hc = cohomology(cx)
    db = cx.d({0: [Q(0), Q(1), Q(0)]})      # d(x) = dx, a coboundary
    proj = hc.project(db)
    assert all(not any(v) for v in proj.values())
    # and a genuine class is nonzero
    proj2 = hc.project({1: [Q(0), Q(0), Q(1)]})
    assert any(any(v) for v in proj2.values())


def test_shift_convention():
    cx = two_term(1)
    s = shift_complex(cx, -1)
    assert s.space.dim(1) == 1 and s.space.dim(2) == 1
    # d_{C[-1]} = -d
    assert s.differential.block(1) == [[Q(-1)]]
    ss = shift_complex(s, 1)
    assert ss.differential.block(0) == cx.differential.block(0)


def test_is_chain_map_sign():
    cx = two_term(1)
    # the identity viewed as a degree-0 map is a chain map
    f = GradedMap.from_blocks(cx.space, cx.space, 0, {0: [[Q(1)]], 1: [[Q(1)]]})
    assert is_chain_map(f, cx, cx).is_zero()


def test_quotient_complex_f3():
    cx = F.f3_complex()
    sub = SubSpaceData(cx.space, {0: [[Q(1)]], 1: [[Q(1)]]})
    qc = quotient_complex(cx, sub)
    assert all(qc.complex.space.dim(d) == 0 for d in qc.complex.space.degrees)


def test_quotient_complex_rejects_a_subspace_not_closed_under_d():
    cx = two_term(2)                # d a = 2 b
    with pytest.raises(StructuralError, match="not closed under d in degree 0"):
        quotient_complex(cx, SubSpaceData(cx.space, {0: [[Q(3)]]}))
    qc = quotient_complex(cx, SubSpaceData(cx.space, {0: [[Q(3)]], 1: [[Q(-1)]]}))
    assert all(qc.complex.space.dim(d) == 0 for d in (0, 1))


def test_quotient_complex_borel():
    g = F.f2_dgla()
    sub = SubSpaceData(g.space, {0: [[Q(1), Q(0), Q(0), Q(0)],
                                     [Q(0), Q(1), Q(0), Q(0)],
                                     [Q(0), Q(0), Q(0), Q(1)]]})
    qc = quotient_complex(g.underlying, sub)
    assert qc.complex.space.dim(0) == 1
    # the class of e21 projects to the generator
    assert qc.projection.apply({0: [Q(0), Q(0), Q(1), Q(0)]}) == {0: [Q(1)]}
    # section indices let us lift back
    assert qc.section_indices[0] == [2]


def test_induced_map_on_cohomology_identity():
    cx = F.f6_cdga().complex
    ident = GradedMap.from_blocks(cx.space, cx.space, 0, {
        d: [[Q(1) if i == j else Q(0) for j in range(cx.space.dim(d))]
            for i in range(cx.space.dim(d))] for d in cx.space.degrees})
    hc = cohomology(cx)
    blocks = induced_map_on_cohomology(ident, cx, cx)
    for d, r in hc.ranks.items():
        assert blocks[d] == [{i: Q(1)} for i in range(r)]     # sparse columns
