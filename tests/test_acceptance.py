"""End-to-end acceptance gate.

Eleven numbered criteria, each exercised by one test that prints a single
pass/fail line (written straight to the real stdout so the lines survive
pytest's capture).  Everything is exact rational arithmetic with zero
tolerance, and the whole gate is budgeted to finish in well under two
minutes.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

import dense_reference as dense
from deforma import fixtures as F
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.cartan import cartan_check, gauge_zero_transport, lie_from_cartan
from deforma.convolution import (convolution, hom_dgla_slice, linf_residual,
                                 strict_embed, taylor, taylor_from_linear)
from deforma.dgla import DglaMorphism, sub_dgla_span, validate_dgla
from deforma.endo import end_dgla
from deforma.graded import GradedMap, StructuralError, vec_eq, vec_is_zero, vec_sub
from deforma.holim import (holim_cohomology_bounded, holim_pair,
                           quasi_abelian_witness)
from deforma.mc import (gauge_act, irrelevant_stabilizer, is_mc, mc_extend,
                        mc_residue, pi1_at_zero)
from deforma.period import (contraction_cartan, end_of_flag_diagram,
                            flag_data, period_differential)


def announce(number: int, description: str):
    """Decorator printing one pass/fail line per criterion, bypassing capture."""
    def wrap(fn):
        def run(capsys):
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"criterion {number:2d} ({description}): FAIL",
                          flush=True)
                raise
            with capsys.disabled():
                print(f"criterion {number:2d} ({description}): PASS",
                      flush=True)
        run.__name__ = fn.__name__
        return run
    return wrap


def sparse(space, degree, rng, nnz=3):
    dim = space.dim(degree)
    v = [Q(0)] * dim
    for _ in range(min(nnz, dim)):
        v[rng.randrange(dim)] = Q(rng.randint(-3, 3), rng.randint(1, 3))
    return {degree: v} if any(v) else {}


@announce(1, "dgla axioms on all fixtures and Hom slices")
def test_criterion_01():
    for name in F.FIXTURE_NAMES:
        assert validate_dgla(F.fixture_dgla(name)).ok, name
    f5_end = end_dgla(F.f5_cdga().complex).dgla
    slices = [(F.f1_dgla(), F.f1_dgla()),
              (F.f2_dgla(), F.f2_dgla()),
              (F.f5_derivations(), f5_end)]
    for g, h in slices:
        assert validate_dgla(hom_dgla_slice(g, h, 4)).ok


@announce(2, "gauge action preserves Maurer-Cartan, 100+ samples per fixture")
def test_criterion_02():
    rng = random.Random(2)
    artins = [truncated_polynomial_algebra(1, order) for order in (2, 3, 4)]
    for name in F.FIXTURE_NAMES:
        g = F.fixture_dgla(name)
        checked = 0
        while checked < 100:
            ng = tensor_nilpotent(g, artins[checked % 3])
            if ng.space.dim(0):
                x = gauge_act(ng, sparse(ng.space, 0, rng), {})
            else:
                x = sparse(ng.space, 1, rng)
                if not is_mc(ng, x):
                    continue
            assert is_mc(ng, x)
            alpha = sparse(ng.space, 0, rng)
            y = gauge_act(ng, alpha, x)
            assert vec_is_zero(mc_residue(ng, y)), name
            checked += 1


def _random_linf(conv, rng):
    v = [Q(rng.randint(-2, 2)) for _ in range(conv.space.dim(1))]
    return {1: v} if any(v) else {}


@announce(3, "morphism families are L-infinity iff Maurer-Cartan")
def test_criterion_03():
    rng = random.Random(3)
    for name in ("F1", "F2"):
        g = F.fixture_dgla(name)
        conv = convolution(g, g, 3)
        seen_nonzero = False
        for _ in range(25):
            fam = _random_linf(conv, rng)
            left = not linf_residual(g, conv, fam)
            right = vec_is_zero(mc_residue(conv.dgla, fam))
            assert left == right
            seen_nonzero = seen_nonzero or not left
        if name == "F2":
            assert seen_nonzero
    # strict embeddings of dgla morphisms have zero residual
    from deforma.dgla import identity_morphism
    g2 = F.f2_dgla()
    conv2 = convolution(g2, g2)
    emb = strict_embed(conv2, identity_morphism(g2))
    assert linf_residual(g2, conv2, emb) == {}
    # for a linear family the whole residual is the arity-2 bracket defect
    for _ in range(10):
        blk = [[Q(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        f = GradedMap.from_blocks(g2.space, g2.space, 0, {0: blk})
        res = linf_residual(g2, conv2, taylor_from_linear(g2, conv2, f))
        assert set(res) <= {2}
        r2 = res.get(2, {})
        for i in range(4):
            for j in range(i + 1, 4):
                a = g2.space.basis_element(0, i)
                b = g2.space.basis_element(0, j)
                want = vec_sub(f.apply(g2.bracket(a, b)),
                               g2.bracket(f.apply(a), f.apply(b)))
                assert vec_is_zero(vec_sub(r2.get(((0, i), (0, j)), {}), want))


@announce(4, "transport of zero: strict for Cartan homotopies, "
             "explicit arity-2 defect otherwise")
def test_criterion_04():
    # Cartan contractions transport to the strict embedding of l
    for omega_f, t_f, i_f in [(F.f5_cdga, F.f5_derivations, F.f5_contraction),
                              (F.f6_cdga, F.f6_dgla, F.f6_contraction)]:
        end = end_dgla(omega_f().complex)
        t, h, i = t_f(), end.dgla, i_f(end)
        conv = convolution(t, h)
        fam = gauge_zero_transport(t, conv, i)
        emb = strict_embed(conv, DglaMorphism(t, h, lie_from_cartan(t, conv, i)))
        assert set(taylor(t, conv, fam)) == set(taylor(t, conv, emb))
        assert taylor(t, conv, fam) == taylor(t, conv, emb)
        assert vec_eq(fam, emb)
    # within gl_2 every degree -1 map is forced zero (vacuous host)
    g2 = F.f2_dgla()
    assert g2.space.dim(-1) == 0
    # against End(K -> K) the arity-2 component is d01(i) - [i, d10(i)]/2,
    # evaluated by the hand-written Hom calculus
    h = F.f3_end().dgla
    conv = convolution(g2, h)
    rng = random.Random(4)
    seen_noncartan = 0
    for _ in range(20):
        i = GradedMap.from_blocks(g2.space, h.space, -1,
                                  {0: [[Q(rng.randint(-3, 3)) for _ in range(4)]]})
        ielem = dense.hom_element_from_linear(g2, h, i)
        formula = dense.hom_add(dense.hom_d01(ielem),
                                dense.hom_scale(Q(-1, 2),
                                                dense.hom_bracket(ielem, dense.hom_d10(ielem))))
        got = taylor(g2, conv, gauge_zero_transport(g2, conv, i)).get(2, {})
        assert got == formula.prune().values
        if not cartan_check(g2, conv, i).ok:
            seen_noncartan += 1
    assert seen_noncartan >= 1


def _holim_cases():
    g2 = F.f2_dgla()
    yield holim_pair(g2, F.f2_borel(g2)), {1: 1}
    g1 = F.f1_dgla()
    yield holim_pair(g1, sub_dgla_span(g1, {})), {2: 1}
    yield holim_pair(g2, sub_dgla_span(
        g2, {0: [[Q(1 if i == j else 0) for j in range(4)]
                 for i in range(4)]})), {}


@announce(5, "holim cohomology equals shifted quotient cohomology, stable in "
             "the t-degree bound")
def test_criterion_05():
    for pair, expected in _holim_cases():
        for tbound in (1, 2, 3):
            result = holim_cohomology_bounded(pair, tbound)
            assert result.ranks == expected
            assert result.quotient_ranks == expected
            assert result.agree


@announce(6, "quasi-abelian witness for the Borel quotient of gl_2")
def test_criterion_06():
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    witness = quasi_abelian_witness(pair, F.f2_lower_left_section())
    assert witness.is_isomorphism
    assert witness.source_ranks == {1: 1} == witness.holim_ranks


@announce(7, "fundamental group at zero: dimensions and stabilizers")
def test_criterion_07():
    g2 = F.f2_dgla()
    for order, dim in ((2, 4), (3, 8)):
        p = pi1_at_zero(g2, truncated_polynomial_algebra(1, order))
        assert p.dimension == dim
        assert p.stabilizer_trivial
    g3 = F.f3_dgla()
    with pytest.raises(StructuralError):
        pi1_at_zero(g3, truncated_polynomial_algebra(1, 2))
    ng3 = tensor_nilpotent(g3, truncated_polynomial_algebra(1, 2))
    assert len(irrelevant_stabilizer(ng3, {})) == 1
    ng2 = tensor_nilpotent(g2, truncated_polynomial_algebra(1, 2))
    assert irrelevant_stabilizer(ng2, {}) == []


@announce(8, "obstruction calculus: y/2 at order two, unobstructed flags "
             "extend to order four")
def test_criterion_08():
    ng7 = tensor_nilpotent(F.f7_dgla(), truncated_polynomial_algebra(1, 3))
    result = mc_extend(ng7, ng7.tensor_element({1: [Q(1)]}, 0))
    assert result.status == "obstructed"
    assert result.obstruction.weight == 2
    assert result.obstruction.classes == {"e^2": [Q(1, 2)]}
    ng6 = tensor_nilpotent(F.f6_dgla(), truncated_polynomial_algebra(1, 5))
    result6 = mc_extend(ng6, ng6.tensor_element({1: [Q(1)]}, 0))
    assert result6.status == "solved"
    assert is_mc(ng6, result6.element)


@announce(9, "period differential on the one-parameter Hodge model")
def test_criterion_09():
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    filt = F.f6_filtration()
    contraction = contraction_cartan(omega, F.f6_dgla(),
                                     F.f6_contraction(end), f=filt, end=end)
    assert contraction.report.ok
    flag = flag_data(omega, filt)
    assert {d: flag.h_space.dim(d)
            for d in flag.h_space.degrees} == {0: 1, 1: 2, 2: 1}
    endspace = end_of_flag_diagram(flag)
    assert endspace.levels == [1] and endspace.dimension == 1
    period = period_differential(contraction, filt)
    assert period.source_rank == 1
    assert period.matrix == [[Q(1)]]                   # xi bar mod F^1, exactly
    assert period.families[0] == {(1, 1): [[Q(1)]]}    # end-compatible family


@announce(10, "all Cartan identities for the polynomial contraction family")
def test_criterion_10():
    omega = F.f5_cdga()
    end = end_dgla(omega.complex)
    result = contraction_cartan(omega, F.f5_derivations(),
                                F.f5_contraction(end),
                                f=F.f5_form_filtration(), end=end)
    # defining derivation property holds (contraction_cartan raises otherwise)
    assert result.report.ok                                  # conditions A, B
    notes = result.report.notes
    assert notes["stronger_bracket_identity"]                # i_[a,b] = [i_a, l_b]
    assert notes["stronger_square_zero"]                     # [i_a, i_b] = 0
    assert notes["lie_bracket_compatible"]                   # l_[a,b] = [l_a, l_b]
    assert notes["lie_is_closed"]                            # [d, l_a] = 0
    assert notes["lie_preserves_filtration"]


@announce(11, "deterministic byte-identical CLI output")
def test_criterion_11():
    invocations = (("validate", "--model", "F5"),
                   ("cohomology", "--model", "F6"),
                   ("mc", "--model", "F7", "--extend"),
                   ("holim", "--model", "F2", "--cohomology"),
                   ("period", "--model", "F6"))
    for args in invocations:
        runs = [subprocess.run([sys.executable, "-m", "deforma.cli", *args],
                               capture_output=True) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        json.loads(runs[0].stdout)
