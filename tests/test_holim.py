"""Homotopy limits of sub-dgla inclusions and the morphism into them."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference
from deforma import dgla, fixtures as F, holim, linalg
from deforma.convolution import from_linear
from deforma.dgla import abelian_dgla, sub_dgla_span, validate_sub_dgla
from deforma.endo import end_dgla
from deforma.graded import (GradedMap, StructuralError, cohomology,
                            induced_map_on_cohomology, is_chain_map, vec_eq)
from deforma.holim import (HolimMorphism, PathElement, constant_path,
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
    """gamma in the path dgla ``paths``, written by ``join``: p_m at C
    position m, q_m at tmax + 1 + m."""
    n, flat = paths.c.space.dim(0), paths.g.table.flat
    assert len(gamma.p) <= n and len(gamma.q) <= n
    return paths.dgla.table.graded(paths.join(
        {m: flat(c) for m, c in [*enumerate(gamma.p), *enumerate(gamma.q, n)]}))


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


def abelian_pairs():
    """F3 and F5 (nonzero d) as abelian dglas over their cocycles and over
    0, so that h/n has a nonzero d."""
    for name in ("F3", "F5"):
        h = abelian_dgla(F.fixture_dgla(name).underlying)
        cocycles = {k: [dense(v, h.space.dim(k)) for v in linalg.nullspace(
            linalg.transpose(h.underlying.differential.columns.get(k, []),
                             h.space.dim(k + 1)), h.space.dim(k))]
                    for k in h.space.degrees}
        yield holim_pair(h, sub_dgla_span(h, cocycles))
        yield holim_pair(h, sub_dgla_span(h, {}))


def test_bounded_projection_is_chain_map():
    cases = [p for p, _ in pairs()] + list(abelian_pairs())
    assert any(p.quotient.complex.differential.columns for p in cases)
    for pair in cases:
        for tbound in (1, 2, 3):
            bounded = holim_bounded(pair, tbound)
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


def test_holim_cohomology_builds_no_path_dgla(monkeypatch):
    """The bounded complex is written down: ``holim_bounded`` builds no path
    dgla, eliminates no kernel and restricts no d to a subspace.  The only
    kernels ``holim_cohomology_bounded`` takes are the cocycles of
    ``cohomology``, one per degree of the bounded complex."""
    cases = list(pairs())
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: (calls.append(name),
                                                          original(*args))[1])

    counted(holim, "path_dgla")
    counted(linalg, "kernel")
    counted(dgla, "restrict_to_sub")
    for pair, expected in cases:
        for tbound in range(1, 9):
            degrees = holim_bounded(pair, tbound).complex.space.degrees
            assert calls == []
            assert holim_cohomology_bounded(pair, tbound).ranks == expected
            assert calls == ["kernel"] * len(degrees)
            calls.clear()


E11, E21 = [Q(1), Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(0)]


def test_bounded_coords_reject_paths_outside():
    """The path reader takes a path to its coordinates in A, B, C, and
    gives None where a holim condition or the t-degree bound fails."""
    g2 = F.f2_dgla()
    bounded = holim_bounded(holim_pair(g2, F.f2_borel(g2)), 2)

    def path(degree, p, q=()):
        return PathElement(g2, degree, [{0: v} if v else {} for v in p],
                           [{0: v} if v else {} for v in q])

    minus = [-x for x in E11]
    # A_0 = e11 (x) (1 - t^2), B_{e11,1} = e11 (x) (t - t^2), C_{e11,1} = e11 (x) t dt
    assert bounded.coords(path(0, [E11, None, minus])) == {0: 1}
    assert bounded.coords(path(0, [None, E11, minus])) == {3: 1}
    assert bounded.coords(path(1, [], [None, E11])) == {4: 1}
    assert bounded.coords(path(0, [E11])) is None                      # p(1) != 0
    assert bounded.coords(path(0, [E21, [-x for x in E21]])) is None    # p(0) not in n
    assert bounded.coords(path(1, [], [None, None, E11])) is None       # q_2 != 0
    assert bounded.coords(path(0, [E11, None, None, minus])) is None    # past t^2


def test_quasi_abelian_witness_rejects_a_path_outside(monkeypatch):
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    arity_one = HolimMorphism.arity_one

    def with_q_at_the_bound(self, a):
        e = arity_one(self, a)
        e.path = PathElement(g2, e.degree, e.path.p, [*e.path.q, {}, {0: E11}])
        return e

    monkeypatch.setattr(HolimMorphism, "arity_one", with_q_at_the_bound)
    with pytest.raises(StructuralError, match="leaves the bounded subcomplex"):
        quasi_abelian_witness(pair, F.f2_lower_left_section(), 2)


@st.composite
def holim_cases(draw):
    """F2 with its Borel sub-dgla, or a fixture complex taken as an abelian
    dgla with a random d-closed subspace n: a few random vectors and their
    images under d.  With a t-degree bound 1..6."""
    tbound = draw(st.integers(1, 6))
    name = draw(st.sampled_from(["borel", *F.FIXTURE_NAMES]))
    if name == "borel":
        g2 = F.f2_dgla()
        return holim_pair(g2, F.f2_borel(g2)), tbound
    h = abelian_dgla(F.fixture_dgla(name).underlying)
    span = {}
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.sampled_from(h.space.degrees))
        v = [Q(x) for x in draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                                         min_size=h.space.dim(k), max_size=h.space.dim(k)))]
        span.setdefault(k, []).append(v)
        for deg, w in h.d({k: v}).items():
            span.setdefault(deg, []).append(w)
    return holim_pair(h, sub_dgla_span(h, span)), tbound


@settings(max_examples=150, deadline=None, derandomize=True)
@given(holim_cases())
def test_bounded_ranks_match_kernel_route(case):
    """Ranks, quotient ranks and projection ranks against the kernel of
    the holim conditions in the path dgla, with d restricted to it."""
    pair, tbound = case
    got = holim_cohomology_bounded(pair, tbound)
    cx, projection = dense_reference.holim_by_kernel(pair, tbound)
    hc, qc = cohomology(cx), cohomology(shifted_quotient(pair))
    induced = induced_map_on_cohomology(projection, cx, pair.shifted, hc, qc)
    ranks = {k: linalg.rank(cols) for k, cols in induced.items()}
    assert got.ranks == hc.ranks
    assert got.quotient_ranks == qc.ranks
    assert got.projection_ranks == {k: r for k, r in ranks.items() if r}
    assert got.agree


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


def test_induced_quotient_map_is_chain_map_where_d_is_nonzero():
    """On an abelian dgla g every degree -1 map i: g -> g is a Cartan
    homotopy, with l = d i + i d, and im l is a sub-dgla; F3's d makes
    i d and d i nonzero mod im l."""
    g = abelian_dgla(F.f3_dgla().underlying)
    sp, d, own = g.space, g.underlying.differential, random.Random(75)
    moved = 0
    for _ in range(8):
        i = GradedMap(sp, sp, -1, {k: [{r: Q(c) for r in range(sp.dim(k - 1))
                                        if (c := own.choice([0, 1, -1]))}
                                       for _ in range(sp.dim(k))]
                                   for k in sp.degrees if sp.dim(k - 1)})
        l = d.compose(i).add(i.compose(d))
        pair = holim_pair(g, sub_dgla_span(g, {
            k: [dense(col, sp.dim(k)) for col in cols] for k, cols in l.columns.items()}))
        induced = induced_quotient_map(pair, g, i)
        moved += not pair.quotient.projection.compose(i.compose(d)).is_zero()
        assert is_chain_map(induced, g.underlying, shifted_quotient(pair)).is_zero()
    assert moved


def test_projection_matches_induced_quotient_map():
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    projected = morphism.projected_linear_part()
    induced = induced_quotient_map(pair, g, i)
    for deg in g.space.degrees:
        assert projected.block(deg) == induced.block(deg)


def test_holim_project_on_linear_images():
    # gamma_a has q = (-1)^{|a|} i_a and project multiplies by (-1)^{|a|}, so
    # project(a -> (l_a, gamma_a)) equals i_a mod n
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    for (deg, idx) in g.space.basis():
        a = g.space.basis_element(deg, idx)
        e = morphism.arity_one(a)
        got = holim_project(e)
        bar = pair.quotient.projection.apply(i.apply(a))
        want = {deg: bar[deg - 1]} if bar.get(deg - 1) else {}
        assert vec_eq(got, want)


# ---------------------------------------------------------------------------
# the projection of the bounded complex, against the path route

def path_route_projection(bounded):
    """The projection columns the long way: each basis row of
    ``dense_reference.holim_rows`` densified, read as a PathElement, its
    dt-part integrated and reduced mod n, times (-1)^k in degree k."""
    pair = bounded.pair
    ambient, rows = dense_reference.holim_rows(pair, bounded.tbound)
    target = shifted_quotient(pair).space
    columns = {}
    for k, (vectors, _) in rows.items():
        if target.dim(k):
            columns[k] = [{r: -c if k % 2 else c for r, c in sparse(pair.quotient.projection.apply(
                to_path(ambient, {k: dense(v, ambient.space.dim(k))}, k).integral_q()
            ).get(k - 1, [])).items()} for v in vectors]
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
