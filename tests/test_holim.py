"""Homotopy limits of sub-dgla inclusions and the morphism into them."""

import random
from fractions import Fraction as Q

import pytest

from deforma import fixtures as F
from deforma.convolution import from_linear
from deforma.dgla import abelian_dgla, sub_dgla_span, validate_sub_dgla
from deforma.endo import end_dgla
from deforma.graded import GradedMap, StructuralError, cohomology, is_chain_map, vec_eq
from deforma.holim import (PathElement, _path_coords, constant_path,
                           holim_bounded, holim_cohomology_bounded, holim_d,
                           holim_element, holim_pair, holim_project,
                           holim_validate, induced_quotient_map,
                           map_into_holim, path_add, path_bracket, path_d,
                           path_dgla, path_scale, quasi_abelian_witness,
                           shifted_quotient)
from deforma.linalg import dense, sparse

rng = random.Random(73)


def random_path(host, degree, tmax=2, rng=rng):
    def rv(d):
        dim = host.space.dim(d)
        v = [Q(rng.randint(-2, 2)) for _ in range(dim)]
        return {d: v} if any(v) else {}
    return PathElement(host, degree,
                       [rv(degree) for _ in range(tmax + 1)],
                       [rv(degree - 1) for _ in range(tmax + 1)])


def to_coords(paths, gamma):
    """gamma in the path dgla ``paths``, written by ``join``."""
    return paths.dgla.table.graded(_path_coords(paths, gamma))


def to_path(paths, x, degree):
    """The inverse of ``to_coords``, by ``split``: t^m is the form at C
    position m, t^m dt the one at tmax + 1 + m."""
    n, ht = paths.c.space.dim(0), paths.g.table
    parts = paths.split(paths.dgla.table.flat(x))
    return PathElement(paths.g, degree, [ht.graded(parts.get(m, {})) for m in range(n)],
                       [ht.graded(parts.get(n + m, {})) for m in range(n)])


def pairs():
    g2 = F.f2_dgla()
    yield holim_pair(g2, F.f2_borel(g2)), {1: 1}
    g1 = F.f1_dgla()
    yield holim_pair(g1, sub_dgla_span(g1, {})), {2: 1}
    yield holim_pair(g2, sub_dgla_span(
        g2, {0: [[Q(1 if i == j else 0) for j in range(4)] for i in range(4)]})), {}


# ---------------------------------------------------------------------------
# the path dgla

def test_path_d_squares_to_zero():
    host = F.f3_end().dgla
    for deg in (-1, 0, 1):
        for _ in range(6):
            gamma = random_path(host, deg)
            assert path_d(path_d(gamma)).is_zero()


def test_path_leibniz():
    host = F.f2_dgla()
    for _ in range(6):
        a = random_path(host, 0)
        b = random_path(host, 0)
        lhs = path_d(path_bracket(a, b))
        rhs = path_add(path_bracket(path_d(a), b),
                       path_bracket(a, path_d(b)))   # |a| = 0: no sign
        assert path_add(lhs, path_scale(Q(-1), rhs)).is_zero()


def test_path_dgla_coordinates_roundtrip():
    host = F.f2_dgla()
    paths = path_dgla(host, 3)
    for deg in (0, 1):
        for _ in range(6):
            gamma = random_path(host, deg, tmax=3)
            back = to_path(paths, to_coords(paths, gamma), deg)
            assert path_add(gamma, path_scale(Q(-1), back)).is_zero()
    with pytest.raises(StructuralError, match="t-degree bound"):
        to_coords(paths, PathElement(host, 0, [{0: [Q(1)] * 4}] * 5))


def test_path_dgla_bracket_matches_pathwise():
    host = F.f2_dgla()
    paths = path_dgla(host, 4)
    for _ in range(6):
        a = random_path(host, 0)
        b = random_path(host, 0)
        via_coords = paths.dgla.bracket(to_coords(paths, a), to_coords(paths, b))
        direct = to_coords(paths, path_bracket(a, b))
        assert vec_eq(via_coords, direct)
    # F3 has a nonzero d, and degree-1 paths carry the Koszul signs
    host, own = F.f3_dgla(), random.Random(74)
    paths = path_dgla(host, 4)
    for da, db in ((0, 1), (1, 0), (1, 1), (-1, 1)):
        for _ in range(3):
            a = random_path(host, da, rng=own)
            b = random_path(host, db, rng=own)
            ca, cb = to_coords(paths, a), to_coords(paths, b)
            assert vec_eq(paths.dgla.bracket(ca, cb),
                          to_coords(paths, path_bracket(a, b)))
            assert vec_eq(paths.dgla.d(ca), to_coords(paths, path_d(a)))


# ---------------------------------------------------------------------------
# elements and validation

def test_holim_validate_catches_endpoint_failures():
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    e12 = {0: [Q(0), Q(1), Q(0), Q(0)]}
    e21 = {0: [Q(0), Q(0), Q(1), Q(0)]}
    # (x, p) with p constant equal to x: p(1) != 0
    bad1 = holim_element(pair, e12, constant_path(g2, e12))
    rep1 = holim_validate(bad1)
    assert {f["kind"] for f in rep1.failures} == {"endpoint_one"}
    # x outside the sub-dgla
    line = PathElement(g2, 0, [dict(e21), {0: [Q(0), Q(0), Q(-1), Q(0)]}], [])
    bad2 = holim_element(pair, e21, line)
    assert {f["kind"] for f in holim_validate(bad2).failures} == {"membership"}
    # good element: x in n, p(t) = (1 - t) x
    good = holim_element(pair, e12,
                         PathElement(g2, 0, [dict(e12),
                                             {0: [Q(0), Q(-1), Q(0), Q(0)]}], []))
    assert holim_validate(good).ok


def test_holim_d_preserves_validity():
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    e12 = {0: [Q(0), Q(1), Q(0), Q(0)]}
    good = holim_element(pair, e12,
                         PathElement(g2, 0, [dict(e12),
                                             {0: [Q(0), Q(-1), Q(0), Q(0)]}], []))
    de = holim_d(good)
    assert holim_validate(de).ok


# ---------------------------------------------------------------------------
# cohomology of the bounded model

@pytest.mark.parametrize("tbound", [1, 2, 3])
def test_holim_ranks_match_shifted_quotient(tbound):
    for pair, expected in pairs():
        result = holim_cohomology_bounded(pair, tbound)
        assert result.ranks == expected
        assert result.quotient_ranks == expected
        assert result.agree


def test_target_cohomology_is_computed_once_per_pair(monkeypatch):
    import deforma.holim as module
    computed = []

    def spy(c):
        computed.append(c)
        return cohomology(c)

    monkeypatch.setattr(module, "cohomology", spy)
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    results = [holim_cohomology_bounded(pair, tbound) for tbound in range(1, 9)]
    target = shifted_quotient(pair)
    assert target is pair.shifted and shifted_quotient(pair) is target
    assert [c for c in computed if c is target] == [target]
    assert len(computed) == 9                    # one per bound, one for the target
    assert cohomology(target).ranks == {1: 1}
    assert all(r.quotient_ranks == {1: 1} and r.agree for r in results)


def test_bounded_projection_is_chain_map():
    for pair, _ in pairs():
        bounded = holim_bounded(pair, 2)
        res = is_chain_map(bounded.projection_map, bounded.complex,
                           shifted_quotient(pair))
        assert res.is_zero()


def test_quasi_abelian_witness_gl2_borel():
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    witness = quasi_abelian_witness(pair, F.f2_lower_left_section())
    assert witness.is_isomorphism
    assert witness.source_ranks == {1: 1}
    assert witness.holim_ranks == {1: 1}


# ---------------------------------------------------------------------------
# the morphism (l, e^i) into holim

def f7_cartan_setup():
    g = F.f7_dgla()
    end = F.f3_end()
    h = end.dgla
    i = GradedMap(g.space, h.space, -1, {1: [[Q(1)], [Q(1)]]})
    # n = span{e00 + e11, f}: closed (d(e00+e11) = 0, [e00+e11, f] = 0)
    n = sub_dgla_span(h, {0: [[Q(1), Q(1)]], 1: [[Q(1)]]})
    return g, h, i, holim_pair(h, n)


def test_map_into_holim_residual_vanishes():
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    assert morphism.residual.is_zero()


def test_map_into_holim_residual_vanishes_with_nonzero_l():
    """The F5 contraction has l != 0, so the flow e^{t i} * l is nontrivial
    and the dt-component's sign matters: -i dt closes the residual, +i dt
    does not."""
    end = end_dgla(F.f5_cdga().complex)
    h = end.dgla
    everything = {d: [[Q(int(r == c)) for c in range(h.space.dim(d))]
                      for r in range(h.space.dim(d))] for d in h.space.degrees}
    pair = holim_pair(h, sub_dgla_span(h, everything))
    i = F.f5_contraction(end)
    morphism = map_into_holim(F.f5_derivations(), i, pair, 3)
    assert sum(1 for c in morphism.flow if c) == 3
    assert morphism.residual.is_zero()
    flipped = PathElement(morphism.conv.dgla, 1, list(morphism.flow),
                          [from_linear(morphism.g, morphism.conv, i)])
    residual = path_add(path_d(flipped),
                        path_scale(Q(1, 2), path_bracket(flipped, flipped)))
    assert not residual.is_zero()


def test_map_into_holim_arity_one_validates():
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    for (deg, idx) in g.space.basis():
        e = morphism.arity_one(g.space.basis_element(deg, idx))
        assert holim_validate(e).ok


def test_map_into_holim_rejects_non_cartan():
    g, h, _, pair = f7_cartan_setup()
    bad = GradedMap(g.space, h.space, -1, {1: [[Q(1)], [Q(0)]]})
    with pytest.raises(StructuralError):
        map_into_holim(g, bad, pair)


def test_induced_quotient_map_is_chain_map():
    g, h, i, pair = f7_cartan_setup()
    induced = induced_quotient_map(pair, g, i)
    res = is_chain_map(induced, g.underlying, shifted_quotient(pair))
    assert res.is_zero()


def test_projection_matches_induced_quotient_map():
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    projected = morphism.projected_linear_part()
    induced = induced_quotient_map(pair, g, i)
    for deg in g.space.degrees:
        assert projected.block(deg) == induced.block(deg)


def test_holim_project_on_linear_images():
    # project(a -> (l_a, gamma_a)) equals (-1)^{|a|} i_a mod n by construction
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    for (deg, idx) in g.space.basis():
        a = g.space.basis_element(deg, idx)
        e = morphism.arity_one(a)
        got = holim_project(e)
        sign = Q(-1) if deg % 2 else Q(1)
        bar = pair.quotient.projection.apply({k - 1: [sign * c for c in v]
                                              for k, v in [(deg, i.apply(a).get(deg - 1, []))]
                                              if v})
        want = {deg: bar[deg - 1]} if bar.get(deg - 1) else {}
        assert vec_eq(got, want)


# ---------------------------------------------------------------------------
# the projection of the bounded complex, against the path route

def path_route_projection(bounded):
    """The projection columns the long way: each kernel row densified, read
    as a PathElement, its dt-part integrated and reduced mod n."""
    pair, ambient = bounded.pair, bounded.ambient
    target = shifted_quotient(pair).space
    columns = {}
    for k, (rows, _) in bounded.span.echelon.items():
        if target.dim(k):
            columns[k] = [sparse(pair.quotient.projection.apply(to_path(
                ambient, {k: dense(v, ambient.space.dim(k))}, k).integral_q()).get(k - 1, []))
                for v in rows]
    return GradedMap(bounded.complex.space, target, 0, columns).columns


PROJECTION_CASES = ["F2/borel", "F1/0", "F2/F2", "F7/End(F3)"]


@pytest.mark.parametrize("case", PROJECTION_CASES)
def test_bounded_projection_matches_path_route(case):
    pair = ([p for p, _ in pairs()] + [f7_cartan_setup()[3]])[PROJECTION_CASES.index(case)]
    nonzero = 0
    for tbound in range(1, 9):
        bounded = holim_bounded(pair, tbound)
        got = bounded.projection_map
        assert got.columns == path_route_projection(bounded)
        assert all(type(c) is Q for cols in got.columns.values()
                   for col in cols for c in col.values())
        nonzero += sum(len(col) for cols in got.columns.values() for col in cols)
    assert nonzero or case == "F2/F2"     # h/n = 0 for F2/F2


def test_holim_pair_rejects_a_sub_dgla_of_another_dgla():
    # span{e12, e21} is closed in the abelian dgla on gl_2's complex, not in
    # gl_2: [e12, e21] = e11 - e22
    g = F.f2_dgla()
    n = sub_dgla_span(abelian_dgla(g.underlying),
                      {0: [[Q(0), Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(0)]]})
    assert validate_sub_dgla(n).ok
    assert not validate_sub_dgla(sub_dgla_span(g, n.span.span)).ok
    with pytest.raises(StructuralError, match="another dgla"):
        holim_pair(g, n)
    assert holim_cohomology_bounded(holim_pair(n.parent, n), 2).agree
