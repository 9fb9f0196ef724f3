"""Homotopy limits of sub-dgla inclusions and the morphism into them."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference
from dense_reference import PathElement, path_bracket, path_d, path_residual, to_coords, to_path
from deforma import dgla, fixtures as F, holim, linalg
from deforma.convolution import from_linear
from deforma.dgla import abelian_dgla, sub_dgla_span, validate_dgla, validate_sub_dgla
from deforma.endo import end_dgla
from deforma.graded import (GradedMap, StructuralError, cohomology,
                            induced_map_on_cohomology, is_chain_map, vec_add, vec_eq,
                            vec_is_zero, vec_scale)
from deforma.holim import (HolimMorphism, at_one, at_zero, holim_bounded,
                           holim_cohomology_bounded, holim_pair, induced_quotient_map,
                           integral_dt, map_into_holim, path_dgla, quasi_abelian_witness)
from deforma.linalg import dense, sparse
from deforma.mc import mc_residue

rng = random.Random(73)


def random_path(host, degree, tmax=2, rng=rng):
    """A path of the pointwise oracle with p of t-degree <= tmax and q of
    t-degree <= tmax - 1, so that it lies in path_dgla(host, tmax)."""
    def rv(d):
        dim = host.space.dim(d)
        v = [Q(rng.randint(-2, 2)) for _ in range(dim)]
        return {d: v} if any(v) else {}
    return PathElement(host, degree,
                       [rv(degree) for _ in range(tmax + 1)],
                       [rv(degree - 1) for _ in range(tmax)])


def random_element(paths, degree, rng=rng):
    """A random element of degree ``degree`` of the path dgla ``paths``, on
    every form up to its weight cut."""
    v = [Q(rng.randint(-2, 2)) for _ in range(paths.space.dim(degree))]
    return {degree: v} if any(v) else {}


def pairs():
    g2 = F.f2_dgla()
    yield holim_pair(g2, F.f2_borel(g2)), {1: 1}
    g1 = F.f1_dgla()
    yield holim_pair(g1, sub_dgla_span(g1, {})), {2: 1}
    yield holim_pair(g2, sub_dgla_span(
        g2, {0: [[Q(1 if i == j else 0) for j in range(4)] for i in range(4)]})), {}


# ---------------------------------------------------------------------------
# the path dgla

@pytest.mark.parametrize("tmax", [1, 2, 3])
@pytest.mark.parametrize("name", F.FIXTURE_NAMES)
def test_path_dgla_is_a_dgla(name, tmax):
    """The weight cut is a dg ideal, so h (x) Omega(Delta^1) cut at any
    weight keeps every axiom."""
    assert validate_dgla(path_dgla(F.fixture_dgla(name), tmax).dgla).failures == []


def test_path_d_squares_to_zero():
    host = F.f3_end().dgla
    paths = path_dgla(host, 2)
    for deg in (-1, 0, 1):
        for _ in range(6):
            gamma = random_element(paths, deg)
            assert vec_is_zero(paths.d(paths.d(gamma)))
            assert vec_eq(paths.d(gamma), to_coords(paths, path_d(to_path(paths, gamma, deg))))


def test_path_leibniz():
    """Leibniz on elements of every weight, the cut ones included: the
    products past the weight cut are dropped on both sides."""
    paths = path_dgla(F.f2_dgla(), 2)
    for _ in range(6):
        a = random_element(paths, 0)
        b = random_element(paths, 0)
        lhs = paths.d(paths.bracket(a, b))
        rhs = vec_add(paths.bracket(paths.d(a), b),
                      paths.bracket(a, paths.d(b)))   # |a| = 0: no sign
        assert vec_eq(lhs, rhs)


def test_path_dgla_coordinates_roundtrip():
    host = F.f2_dgla()
    paths = path_dgla(host, 3)
    for deg in (0, 1):
        for _ in range(6):
            gamma = random_path(host, deg, tmax=3)
            back = to_path(paths, to_coords(paths, gamma), deg)
            assert (back.p, back.q) == (gamma.p, gamma.q)


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
# the holim conditions on paths

E11, E12, E21 = ([Q(int(i == j)) for i in range(4)] for j in (0, 1, 2))


def test_holim_validate_catches_endpoint_failures():
    """p(0) in n and p(1) = 0, read by ``at_zero`` and ``at_one`` on paths
    of path_dgla(h, 1), against the pointwise ``eval_p``."""
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    paths = path_dgla(g2, 1)

    def ends(p):
        path = PathElement(g2, 0, [{0: v} for v in p])
        gamma = to_coords(paths, path)
        start, end = at_zero(paths, gamma), at_one(paths, gamma)
        assert vec_eq(start, path.eval_p(0)) and vec_eq(end, path.eval_p(1))
        return pair.n.contains(start), vec_is_zero(end)

    assert ends([E12]) == (True, False)                           # p constant: p(1) != 0
    assert ends([E21, [-x for x in E21]]) == (False, True)        # p(0) outside n
    assert ends([E12, [-x for x in E12]]) == (True, True)         # (1 - t) e12


def test_holim_d_preserves_validity():
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    paths, bounded = path_dgla(g2, 2), holim_bounded(pair, 2)
    good = to_coords(paths, PathElement(g2, 0, [{0: E12}, {0: [-x for x in E12]}]))
    assert bounded.coords(paths, good) is not None
    de = paths.d(good)                                # -e12 dt
    assert not vec_is_zero(de)
    assert vec_is_zero(at_zero(paths, de)) and vec_is_zero(at_one(paths, de))
    assert bounded.coords(paths, de) is not None


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
    target = pair.shifted
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
            res = is_chain_map(bounded.projection_map, bounded.complex, pair.shifted)
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


def test_bounded_coords_reject_paths_outside():
    """The path reader takes a path of path_dgla(h, 3) to its coordinates
    in A, B, C of the complex bounded at t-degree 2, and gives None where a
    holim condition or the t-degree bound fails."""
    g2 = F.f2_dgla()
    bounded = holim_bounded(holim_pair(g2, F.f2_borel(g2)), 2)
    paths = path_dgla(g2, 3)

    def coords(degree, p, q=()):
        return bounded.coords(paths, to_coords(paths, PathElement(
            g2, degree, [{0: v} if v else {} for v in p], [{0: v} if v else {} for v in q])))

    minus = [-x for x in E11]
    # A_0 = e11 (x) (1 - t^2), B_{e11,1} = e11 (x) (t - t^2), C_{e11,1} = e11 (x) t dt
    assert coords(0, [E11, None, minus]) == {0: 1}
    assert coords(0, [None, E11, minus]) == {3: 1}
    assert coords(1, [], [None, E11]) == {4: 1}
    assert coords(0, []) == {}
    assert coords(0, [E11]) is None                         # p(1) != 0
    assert coords(0, [E21, [-x for x in E21]]) is None      # p(0) not in n
    assert coords(1, [], [None, None, E11]) is None         # q_2 != 0
    assert coords(0, [E11, None, None, minus]) is None      # past t^2


def test_bounded_coords_refuse_an_inhomogeneous_path():
    """p = e11 (x) (1 - t) in degree 0 with q = e11, whose q dt lies in
    degree 1: the path has no degree, so the reader raises, as
    ``HolimMorphism.arity_one`` does on an inhomogeneous argument."""
    g2 = F.f2_dgla()
    bounded = holim_bounded(holim_pair(g2, F.f2_borel(g2)), 2)
    paths = path_dgla(g2, 2)
    gamma = to_coords(paths, PathElement(g2, 0, [{0: E11}, {0: [-x for x in E11]}],
                                         [{0: E11}]))
    assert len(gamma) == 2
    with pytest.raises(StructuralError, match="need a homogeneous path"):
        bounded.coords(paths, gamma)


def test_quasi_abelian_witness_rejects_a_path_outside(monkeypatch):
    g2 = F.f2_dgla()
    pair = holim_pair(g2, F.f2_borel(g2))
    arity_one = HolimMorphism.arity_one

    def with_q_at_the_bound(self, a):
        # e11 (x) t dt: a q of t-degree 1, at the bound of the complex of
        # t-degree 1
        return vec_add(arity_one(self, a), self.h_paths.tensor_element({0: E11}, 4))

    assert quasi_abelian_witness(pair, F.f2_lower_left_section(), 1).is_isomorphism
    monkeypatch.setattr(HolimMorphism, "arity_one", with_q_at_the_bound)
    with pytest.raises(StructuralError, match="leaves the bounded subcomplex"):
        quasi_abelian_witness(pair, F.f2_lower_left_section(), 1)


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
    hc, qc = cohomology(cx), cohomology(pair.shifted)
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
    i = GradedMap.from_blocks(g.space, h.space, -1, {1: [[Q(1)], [Q(1)]]})
    # n = span{e00 + e11, f}: closed (d(e00+e11) = 0, [e00+e11, f] = 0)
    n = sub_dgla_span(h, {0: [[Q(1), Q(1)]], 1: [[Q(1)]]})
    return g, h, i, holim_pair(h, n)


def f5_cartan_setup():
    """The F5 contraction into End(F5), over all of End(F5): l != 0."""
    end = end_dgla(F.f5_cdga().complex)
    h = end.dgla
    everything = {d: [[Q(int(r == c)) for c in range(h.space.dim(d))]
                      for r in range(h.space.dim(d))] for d in h.space.degrees}
    return F.f5_derivations(), h, F.f5_contraction(end), holim_pair(h, sub_dgla_span(h, everything))


def test_map_into_holim_residual_vanishes():
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    assert vec_is_zero(morphism.residual)
    assert path_residual(to_path(morphism.paths, morphism.total, 1)).is_zero()


def test_map_into_holim_residual_vanishes_with_nonzero_l():
    """The F5 contraction has l != 0, so the flow e^{t i} * l is nontrivial
    and the dt-component's sign matters: -i dt closes the residual, +i dt
    does not."""
    g, h, i, pair = f5_cartan_setup()
    morphism = map_into_holim(g, i, pair, 3)
    assert sum(1 for c in morphism.flow if c) == 3
    assert vec_is_zero(morphism.residual)
    paths = morphism.paths
    assert path_residual(to_path(paths, morphism.total, 1)).is_zero()
    ielem = from_linear(morphism.g, morphism.conv, i)
    dt = paths.c.space.dim(0)                        # C position of t^0 dt
    flipped = vec_add(morphism.total, paths.tensor_element(vec_scale(Q(2), ielem), dt))
    assert not vec_is_zero(mc_residue(paths, flipped))


def widened(paths, wider, gamma):
    """A path of path_dgla(h, T) as a path of path_dgla(h, T + 1): t^m keeps
    C position m, t^m dt moves from T + 1 + m to T + 2 + m."""
    tmax = paths.c.space.dim(1)
    return wider.dgla.table.graded(wider.join({
        j + (j > tmax): s for j, s in paths.split(paths.dgla.table.flat(gamma)).items()}))


@pytest.mark.parametrize("setup,arity", [(f7_cartan_setup, 4), (f5_cartan_setup, 3),
                                         (f7_cartan_setup, 1), (f5_cartan_setup, 1),
                                         (f7_cartan_setup, 2), (f5_cartan_setup, 2)],
                         ids=["F7", "F5", "F7-1", "F5-1", "F7-2", "F5-2"])
def test_map_into_holim_residual_has_no_part_past_the_cut(setup, arity):
    """Recomputed one weight higher, the residual of the total path, and of
    the path with the dt sign flipped, has no part of weight T + 1: the
    weight cut T = max(2, arity bound), the arity of the one convolution
    dgla, drops no nonzero product.  The residual itself is zero, and the
    arity-one path is gamma_a = (1 - t) l_a + (-1)^{|a|} i_a dt at every
    bound, as it was when a bound of 1 cut the paths at T = 1."""
    g, h, i, pair = setup()
    morphism = map_into_holim(g, i, pair, arity)
    assert vec_is_zero(morphism.residual)
    flat = h.table.flat
    for (deg, idx) in g.space.basis():
        a = g.space.basis_element(deg, idx)
        la, ia = flat(morphism.l.apply(a)), flat(i.apply(a))
        want = holim.join_path(morphism.h_paths, {0: la, 1: {v: -c for v, c in la.items()}},
                               {0: {v: (-1) ** deg * c for v, c in ia.items()}})
        assert vec_eq(morphism.arity_one(a), want)
    paths = morphism.paths
    tmax = paths.c.space.dim(1)
    assert tmax == max(2, arity)
    wider = path_dgla(morphism.conv.dgla, tmax + 1)
    flip = paths.tensor_element(vec_scale(Q(2), from_linear(g, morphism.conv, i)), tmax + 1)
    for total in (morphism.total, vec_add(morphism.total, flip)):
        residual = mc_residue(wider, widened(paths, wider, total))
        assert all(wider.weights[t] <= tmax for t in wider.dgla.table.flat(residual))
        assert vec_eq(residual, widened(paths, wider, mc_residue(paths, total)))


@pytest.mark.parametrize("setup,arity,built", [
    (f7_cartan_setup, 4, 4), (f5_cartan_setup, 3, 3), (f5_cartan_setup, 1, 2)],
    ids=["F7", "F5", "F5-1"])
def test_map_into_holim_builds_one_convolution(monkeypatch, setup, arity, built):
    """The Cartan check, l, i's element and the flow share one convolution
    dgla, of arity max(2, bound): one Chevalley-Eilenberg cdga is built."""
    import deforma.convolution as module
    builds, build = [], module.chevalley_eilenberg

    def spy(g, arity_bound):
        builds.append(arity_bound)
        return build(g, arity_bound)

    monkeypatch.setattr(module, "chevalley_eilenberg", spy)
    g, h, i, pair = setup()
    map_into_holim(g, i, pair, arity)
    assert builds == [built]


def test_map_into_holim_arity_one_validates():
    """gamma_a starts at l_a, in n, and ends at 0."""
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    paths = morphism.h_paths
    for (deg, idx) in g.space.basis():
        a = g.space.basis_element(deg, idx)
        gamma = morphism.arity_one(a)
        assert vec_eq(at_zero(paths, gamma), morphism.l.apply(a))
        assert pair.n.contains(at_zero(paths, gamma))
        assert vec_is_zero(at_one(paths, gamma))


def test_map_into_holim_rejects_non_cartan():
    g, h, _, pair = f7_cartan_setup()
    bad = GradedMap.from_blocks(g.space, h.space, -1, {1: [[Q(1)], [Q(0)]]})
    with pytest.raises(StructuralError):
        map_into_holim(g, bad, pair)


def test_induced_quotient_map_is_chain_map():
    g, h, i, pair = f7_cartan_setup()
    induced = induced_quotient_map(pair, g, i)
    res = is_chain_map(induced, g.underlying, pair.shifted)
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
        assert is_chain_map(induced, g.underlying, pair.shifted).is_zero()
    assert moved


def test_projection_matches_induced_quotient_map():
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    projected = morphism.projected_linear_part()
    induced = induced_quotient_map(pair, g, i)
    for deg in g.space.degrees:
        assert projected.block(deg) == induced.block(deg)


def test_holim_project_on_linear_images():
    # gamma_a has q = (-1)^{|a|} i_a and the holim projection multiplies the
    # integral of q by (-1)^{|a|}, so it takes gamma_a to i_a mod n
    g, h, i, pair = f7_cartan_setup()
    morphism = map_into_holim(g, i, pair)
    paths = morphism.h_paths
    for (deg, idx) in g.space.basis():
        a = g.space.basis_element(deg, idx)
        gamma = morphism.arity_one(a)
        integral = integral_dt(paths, gamma)
        assert vec_eq(integral, to_path(paths, gamma, deg).integral_q())
        got = pair.quotient.projection.apply(vec_scale(Q(-1) ** deg, integral))
        assert vec_eq(got, pair.quotient.projection.apply(i.apply(a)))


# ---------------------------------------------------------------------------
# the projection of the bounded complex, against the path route

def path_route_projection(bounded):
    """The projection columns the long way: each basis row of
    ``dense_reference.holim_rows`` densified, read as a PathElement, its
    dt-part integrated and reduced mod n, times (-1)^k in degree k."""
    pair = bounded.pair
    ambient, rows = dense_reference.holim_rows(pair, bounded.tbound)
    target = pair.shifted.space
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
