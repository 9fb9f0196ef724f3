"""The sparse structure-constant table against the dense reference.

``dense_reference`` evaluates brackets and the axiom sweep straight from
dense tables; the reports and brackets of the sparse kernel must equal it
exactly, entry by entry.  A perturbed dgla is built from raw dense tables,
and the oracle reads those raw tables, not the view computed back from the
sparse table, so the dense-to-sparse conversion is checked as well.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
from deforma import endo, fixtures as F
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.cartan import lie_from_cartan
from deforma.convolution import convolution, hom_dgla_slice
from deforma.dgla import (Dgla, DglaMorphism, identity_morphism,
                          inclusion_as_morphism, sub_dgla_span, validate_dgla,
                          validate_morphism, validate_sub_dgla)
from deforma.graded import GradedMap


def end_f5():
    return endo.end_dgla(F.f5_cdga().complex).dgla


def hom_f2():
    return hom_dgla_slice(F.f2_dgla(), F.f2_dgla(), 2)


PERTURBED_HOSTS = {"Hom(F2)": hom_f2(), "End(F5)": end_f5()}


def perturb(g: Dgla, key, i: int, j: int, k: int, delta: Q) -> tuple[Dgla, dict]:
    """g with one dense cell changed, and the raw dense tables it was built from."""
    tables = {kk: [[list(v) for v in row] for row in t]
              for kk, t in g.brackets.items()}
    tables[key][i][j][k] += delta
    return Dgla(g.underlying, tables), tables


def assert_same_report(g: Dgla, tables: dict | None = None):
    """The sparse report equals the oracle's, read from ``tables`` if given."""
    oracle = g if tables is None else dense.DenseDgla(g.underlying, tables)
    expected = dense.validate_dgla(oracle).failures
    assert validate_dgla(g).failures == expected
    return expected


@pytest.mark.parametrize("name", F.FIXTURE_NAMES)
def test_fixture_reports_match_reference(name):
    assert_same_report(F.fixture_dgla(name))


@pytest.mark.parametrize("name,arity", [(n, a) for n in ("F1", "F2")
                                        for a in (1, 2, 3)])
def test_hom_slice_reports_match_reference(name, arity):
    g = F.fixture_dgla(name)
    assert_same_report(hom_dgla_slice(g, g, arity))


def test_perturbed_end_f5_has_every_witness_kind():
    failures = assert_same_report(*perturb(end_f5(), (0, 0), 4, 3, 8, Q(1)))
    assert {f["kind"] for f in failures} == {"antisymmetry", "leibniz", "jacobi"}


@st.composite
def perturbations(draw):
    name = draw(st.sampled_from(sorted(PERTURBED_HOSTS)))
    g = PERTURBED_HOSTS[name]
    key = draw(st.sampled_from(sorted(g.brackets)))
    table = g.brackets[key]
    i = draw(st.integers(0, len(table) - 1))
    j = draw(st.integers(0, len(table[0]) - 1))
    k = draw(st.integers(0, len(table[0][0]) - 1))
    delta = draw(st.sampled_from([Q(1), Q(-1), Q(1, 2), Q(-3, 2)]))
    return g, key, i, j, k, delta


@settings(max_examples=8, deadline=None)
@given(perturbations())
def test_perturbed_reports_match_reference(case):
    g, key, i, j, k, delta = case
    assert_same_report(*perturb(g, key, i, j, k, delta))


def random_element(rng: random.Random, g: Dgla):
    """A random element with about half its coordinates nonzero."""
    x = {}
    for deg in g.space.degrees:
        v = [Q(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5
             else Q(0) for _ in range(g.space.dim(deg))]
        if any(v):
            x[deg] = v
    return x


@pytest.mark.parametrize("name", ["F3", "F5"])
def test_bracket_matches_reference_on_tensor(name):
    host = tensor_nilpotent(F.fixture_dgla(name),
                            truncated_polynomial_algebra(1, 3)).dgla
    sp = host.space
    for m, i in sp.basis():
        for n, j in sp.basis():
            assert host.pair_bracket(m, i, n, j) == dense.pair_bracket(host, m, i, n, j)
    rng = random.Random(7)
    for _ in range(20):
        x, y = random_element(rng, host), random_element(rng, host)
        assert host.bracket(x, y) == dense.bracket(host, x, y)


def morphism_cases():
    cases = [identity_morphism(F.fixture_dgla(name)) for name in F.FIXTURE_NAMES]
    g = F.f2_dgla()
    cases.append(inclusion_as_morphism(F.f2_borel(g)))
    cases.append(DglaMorphism(g, g, scaled_identity(g, 1)))
    transpose = [[Q(int(r == c)) for c in (0, 2, 1, 3)] for r in range(4)]
    cases.append(DglaMorphism(g, g, GradedMap.from_blocks(g.space, g.space, 0, {0: transpose})))
    end = endo.end_dgla(F.f5_cdga().complex)
    t = F.f5_derivations()
    cases.append(DglaMorphism(t, end.dgla,
                              lie_from_cartan(t, convolution(t, end.dgla, 2),
                                              F.f5_contraction(end))))
    return cases


def sub_dgla_cases():
    g = F.f2_dgla()
    not_closed = {0: [[Q(0), Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(0)]]}
    return [F.f2_borel(g), sub_dgla_span(g, not_closed)]


def test_morphism_and_sub_dgla_reports_match_reference(monkeypatch):
    morphisms, subs = morphism_cases(), sub_dgla_cases()
    sparse = ([validate_morphism(f).failures for f in morphisms],
              [validate_sub_dgla(n).failures for n in subs])
    monkeypatch.setattr(Dgla, "bracket", dense.bracket)
    monkeypatch.setattr(Dgla, "pair_bracket", dense.pair_bracket)
    reference = ([dense.validate_morphism(f).failures for f in morphisms],
                 [validate_sub_dgla(n).failures for n in subs])
    assert sparse == reference
    assert sparse[0][-2] and sparse[0][-3] and sparse[1][-1]   # the failing cases do fail


def scaled_identity(g, column: int) -> GradedMap:
    """The identity of g's degree 0 with basis vector ``column`` sent to
    twice itself: a chain map that breaks bracket compatibility."""
    n = g.space.dim(0)
    return GradedMap(g.space, g.space, 0, {0: [{r: Q(2 if r == column else 1)}
                                               for r in range(n)]})


@pytest.mark.parametrize("column", range(4))
def test_morphism_report_matches_the_pairwise_route(column):
    # F2 = gl_2 with e_column scaled by 2: the (D, N) rows and the per-pair
    # GVec route give the same failures, witnesses and residual strings
    g = F.f2_dgla()
    f = DglaMorphism(g, g, scaled_identity(g, column))
    got = validate_morphism(f)
    assert got.failures and got.failures == dense.validate_morphism(f).failures
    assert all(entry["kind"] == "bracket_compat" for entry in got.failures)
