"""Filtered cohomology flags, the end of the flag diagram, and the period
differential computed from a contraction family."""

from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from deforma import fixtures as F
from deforma.dgla import (FiltrationData, validate_cdga, validate_filtration,
                          validate_sub_dgla)
from deforma.endo import end_dgla
from deforma.graded import GradedMap, StructuralError
from deforma.period import (contraction_cartan, end_of_flag_diagram,
                            filtered_subdgla, flag_data, obstruction_image,
                            period_differential)


# ---------------------------------------------------------------------------
# cdga and filtration validation

def test_cdga_validation():
    assert validate_cdga(F.f4_cdga()).ok
    assert validate_cdga(F.f6_cdga()).ok
    # the truncated polynomial model fails Leibniz exactly on the cut corner
    report = validate_cdga(F.f5_cdga())
    assert not report.ok
    assert {f["kind"] for f in report.failures} == {"leibniz"}


def test_filtration_validation():
    omega = F.f6_cdga()
    assert validate_filtration(omega.complex, F.f6_filtration()).ok
    omega5 = F.f5_cdga()
    assert validate_filtration(omega5.complex, F.f5_form_filtration()).ok
    # span{x} in degree 0 is not d-stable: d(x) = dx falls outside
    bad = FiltrationData(omega5.space, {1: {0: [[Q(0), Q(1), Q(0)]]}})
    report = validate_filtration(omega5.complex, bad)
    assert any(f["kind"] == "d_stability" for f in report.failures)
    # F^2 = span{x dx} is not inside F^1 = span{dx}
    bad = FiltrationData(omega5.space, {1: {1: [[Q(1), Q(0), Q(0)]]},
                                        2: {1: [[Q(0), Q(2), Q(0)]]}})
    assert validate_filtration(omega5.complex, bad).failures == [
        {"kind": "decreasing", "witness": ["F^2 degree 1 vector 0"]}]


def test_filtered_subdgla_f4():
    omega = F.f4_cdga()
    sub = filtered_subdgla(omega, F.f4_degree_filtration())
    assert validate_sub_dgla(sub).ok
    # operators of non-negative degree preserve the form-degree filtration
    # automatically; lowering operators (one-forms to constants) get cut
    full = end_dgla(omega.complex)
    assert sub.dim(0) == full.space.dim(0)
    assert sub.dim(-1) < full.space.dim(-1)
    assert sub.dim(-2) == 0


# ---------------------------------------------------------------------------
# contractions as Cartan families

def contraction_cases():
    yield F.f4_cdga(), F.f4_derivations(), F.f4_contraction, None
    yield F.f5_cdga(), F.f5_derivations(), F.f5_contraction, None
    yield F.f6_cdga(), F.f6_dgla(), F.f6_contraction, F.f6_filtration()


def test_contraction_families_are_cartan():
    for omega, t, i_f, filt in contraction_cases():
        end = end_dgla(omega.complex)
        result = contraction_cartan(omega, t, i_f(end), f=filt, end=end)
        assert result.report.ok
        assert result.report.notes["lie_bracket_compatible"]
        assert result.report.notes["lie_is_closed"]
        if filt is not None:
            assert result.report.notes["lie_preserves_filtration"]


def test_contraction_reports_a_filtration_its_lie_derivatives_leave():
    omega = F.f5_cdga()
    end = end_dgla(omega.complex)
    # F^1 = span{1, dx}: the Lie derivative along x^2 d/dx takes dx to 2x dx
    filt = FiltrationData(omega.space, {1: {0: [[Q(1), Q(0), Q(0)]],
                                            1: [[Q(2), Q(0), Q(0)]]}})
    assert validate_filtration(omega.complex, filt).ok
    report = contraction_cartan(omega, F.f5_derivations(), F.f5_contraction(end),
                                f=filt, end=end).report
    assert not report.notes["lie_preserves_filtration"]
    assert report.failures == [{"kind": "filtration_preservation",
                                "witness": ["x^2*ddx", "F^1", "degree 1"]}]


def test_contraction_rejects_non_derivation():
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    t = F.f6_dgla()
    # xi -> 1 alone (without the xi*xibar -> xibar leg) is not a derivation
    op = GradedMap(omega.space, omega.space, -1, {1: [[Q(1), Q(0)]]})
    col = end.map_to_element(op).get(-1, [])
    i = GradedMap(t.space, end.space, -1, {0: [[c] for c in col]})
    with pytest.raises(StructuralError):
        contraction_cartan(omega, t, i, end=end)


# ---------------------------------------------------------------------------
# the flag side on the one-parameter Hodge model

def test_flag_and_end_of_diagram():
    flag = flag_data(F.f6_cdga(), F.f6_filtration())
    assert {d: flag.h_space.dim(d) for d in flag.h_space.degrees} == {0: 1, 1: 2, 2: 1}
    assert flag.f_h.levels() == [1]
    endspace = end_of_flag_diagram(flag)
    assert endspace.levels == [1]
    # the single unknown block is phi_1: F^1 H^1 -> H^1 / F^1 H^1, a 1x1 matrix
    assert [(p, deg, r, c) for (p, deg, r, c) in endspace.layout] == [(1, 1, 1, 1)]
    assert endspace.dimension == 1


def test_period_differential_f6():
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    filt = F.f6_filtration()
    contraction = contraction_cartan(omega, F.f6_dgla(), F.f6_contraction(end),
                                     f=filt, end=end)
    period = period_differential(contraction, filt)
    assert period.source_rank == 1
    # the class of del maps the flag H^1 = <[xi]> to <[xibar]> with matrix 1
    assert period.matrix == [[Q(1)]]
    assert period.families[0] == {(1, 1): [[Q(1)]]}


def test_period_rejects_failing_degeneration():
    omega = F.f5_cdga()
    end = end_dgla(omega.complex)
    contraction = contraction_cartan(omega, F.f5_derivations(),
                                     F.f5_contraction(end), end=end)
    # F^1 = all one-forms: H^0(Omega/F^1) has rank 3 but H^0/F^1 H^0 rank 1,
    # so the degeneration comparison cannot be an isomorphism
    filt = FiltrationData(omega.space, {1: {1: [
        [Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)]]}})
    assert validate_filtration(omega.complex, filt).ok
    with pytest.raises(StructuralError):
        period_differential(contraction, filt)


# ---------------------------------------------------------------------------
# obstruction classes through the quotient of endomorphisms

def f6_xi_line_filtration():
    omega = F.f6_cdga()
    return FiltrationData(omega.space, {1: {1: [[Q(1), Q(0)]]}})


def test_obstruction_image_nonzero():
    g = F.f7_dgla()
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    n = filtered_subdgla(omega, f6_xi_line_filtration(), end=end)
    # i_y = (xi -> xi*xibar) does not preserve the line <xi>: nonzero image
    op = GradedMap(omega.space, omega.space, 1, {1: [[Q(1), Q(0)]]})
    col = end.map_to_element(op).get(1, [])
    i = GradedMap(g.space, end.space, -1, {2: [[c] for c in col]})
    ob = SimpleNamespace(classes={"e^2": [Q(1, 2)]})
    image = obstruction_image(g, i, end, n, ob)
    assert not image.vanishes
    assert any(image.classes["e^2"])


def test_obstruction_image_vanishes():
    g = F.f7_dgla()
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    n = filtered_subdgla(omega, f6_xi_line_filtration(), end=end)
    # i_y = (xibar -> xi*xibar) preserves the line, hence lands in the sub
    op = GradedMap(omega.space, omega.space, 1, {1: [[Q(0), Q(1)]]})
    col = end.map_to_element(op).get(1, [])
    i = GradedMap(g.space, end.space, -1, {2: [[c] for c in col]})
    ob = SimpleNamespace(classes={"e^2": [Q(1, 2)]})
    assert obstruction_image(g, i, end, n, ob).vanishes
