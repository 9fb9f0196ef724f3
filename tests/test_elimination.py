"""One elimination per subspace against one elimination per vector.

``dense_reference`` keeps the per-vector versions: an ``rref`` that rewrites
whole rows, greedy ``in_span`` loops for cohomology representatives and
quotient complements, and sub-dgla coordinates by ``solve``.  The kernels in
``deforma`` must give exactly the same representatives, coboundaries,
ranks, section indices, projections, d blocks, brackets and echelon forms.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
from deforma import fixtures as F, holim, linalg
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.dgla import (FiltrationData, SubDgla, abelian_dgla, restrict_to_sub,
                          sub_dgla_span)
from deforma.endo import end_dgla
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, StructuralError,
                            SubSpaceData, cohomology, quotient_complex)

ARTIN = {"K[e]/e^3": (1, 3), "K[e]/e^5": (1, 5), "K[e1,e2]/m^3": (2, 3)}


def end_f5_tensor(name):
    return tensor_nilpotent(end_dgla(F.f5_cdga().complex).dgla,
                            truncated_polynomial_algebra(*ARTIN[name])).dgla


def holim_pairs():
    g2, g1 = F.f2_dgla(), F.f1_dgla()
    diagonal = {0: [[Q(1 if i == j else 0) for j in range(4)] for i in range(4)]}
    return {"F2/borel": holim.holim_pair(g2, F.f2_borel(g2)),
            "F1/0": holim.holim_pair(g1, sub_dgla_span(g1, {})),
            "F2/F2": holim.holim_pair(g2, sub_dgla_span(g2, diagonal))}


def cycle_subs(c):
    """The coboundaries and the cocycles of c: d-closed, and sub-dglas of any
    dgla on c by the Leibniz rule."""
    ref = dense.cohomology(c)
    boundaries = {deg: cobs for deg, (_, _, cobs) in ref.items() if cobs}
    cocycles = {deg: dense.nullspace(c.differential.block(deg), c.space.dim(deg))
                if c.space.dim(deg + 1) else dense.identity(c.space.dim(deg))
                for deg in c.space.degrees}
    return {"B": boundaries, "Z": {d: vs for d, vs in cocycles.items() if vs}}


def assert_cohomology_matches(c):
    """The representatives and coboundaries against the oracle, and per
    degree ``project_row`` against ``project`` on seeded cocycles (sums of
    representatives and coboundaries) and on a non-cocycle, where both
    raise; both refuse an entry past the degree's dimension."""
    got = cohomology(c)
    rng = random.Random(len(c.space.degrees))
    for deg, (rank, reps, cobs) in dense.cohomology(c).items():
        data = got.by_degree[deg]
        coboundaries = [linalg.dense(b, c.space.dim(deg)) for b in data.coboundaries]
        assert (data.rank, data.representatives, coboundaries) == (rank, reps, cobs)
        for _ in range(3):
            z = linalg.combine([linalg.sparse(r) for r in reps] + data.coboundaries,
                               [(j, Q(rng.randint(-2, 2))) for j in range(rank + len(cobs))])
            want = got.project({deg: linalg.dense(z, c.space.dim(deg))}).get(deg, [])
            assert got.project_row(deg, z) == linalg.sparse(want)
        with pytest.raises(ValueError, match="shape mismatch"):
            got.project_row(deg, {c.space.dim(deg): Q(1)})
        with pytest.raises(ValueError, match="shape mismatch"):
            got.project({deg: [Q(1)] * (c.space.dim(deg) + 1)})
        moved = [j for j, col in enumerate(c.differential.columns.get(deg, [])) if col]
        if moved:
            with pytest.raises(ValueError, match="not a cocycle"):
                got.project_row(deg, {moved[0]: Q(1)})
            with pytest.raises(ValueError, match="not a cocycle"):
                got.project(c.space.basis_element(deg, moved[0]))


def assert_quotient_matches(c, sub: SubSpaceData):
    q = quotient_complex(c, sub)
    sections, projections = dense.quotient_sections(c, sub)
    assert q.section_indices == sections
    for deg, block in projections.items():
        assert q.projection.block(deg) == block


def assert_restriction_matches(n: SubDgla):
    got, ref = restrict_to_sub(n), dense.restrict_to_sub(n)
    assert got.space.components == ref.space.components
    # columns, not blocks: the dense view keeps an all-zero block it was given
    assert got.underlying.differential.columns == ref.underlying.differential.columns
    assert got.brackets == ref.brackets


@pytest.mark.parametrize("name", F.FIXTURE_NAMES)
def test_fixtures_match_reference(name):
    g = F.fixture_dgla(name)
    c = g.underlying
    assert_cohomology_matches(c)
    for span in cycle_subs(c).values():
        assert_quotient_matches(c, SubSpaceData(c.space, span))
        assert_restriction_matches(sub_dgla_span(g, span))
    whole = {deg: dense.identity(c.space.dim(deg)) for deg in c.space.degrees}
    assert_restriction_matches(sub_dgla_span(g, whole))


@pytest.mark.parametrize("name", ARTIN)
def test_end_f5_tensor_matches_reference(name):
    g = end_f5_tensor(name)
    c = g.underlying
    assert_cohomology_matches(c)
    subs = cycle_subs(c)
    for span in subs.values():
        assert_quotient_matches(c, SubSpaceData(c.space, span))
    # restricting to the cocycles as well would double the oracle's time
    assert_restriction_matches(sub_dgla_span(g, subs["B"]))


def test_large_tensor_host_cohomology():
    # End(F5) (x) K[e1,e2]/m^15, 4,284 dimensions, far past the dense
    # oracle: H = End(H(F5)) (x) m_A, ranks 1, 2, 1 times dim m_A = 119
    a = truncated_polynomial_algebra(2, 15)
    c = tensor_nilpotent(end_dgla(F.f5_cdga().complex).dgla, a).dgla.underlying
    assert c.space.total_dim() == 4284
    hc = cohomology(c)
    assert hc.ranks == {-1: 119, 0: 238, 1: 119}
    for deg, rank in hc.ranks.items():
        for j in (0, rank - 1):
            unit = [Q(int(i == j)) for i in range(rank)]
            assert hc.project({deg: hc.representatives(deg)[j]}) == {deg: unit}


@pytest.mark.parametrize("label", ["F2/borel", "F1/0", "F2/F2"])
def test_holim_pairs_match_reference(label):
    """The basis A, B, C of the bounded holim complex, written in the
    coordinates of path_dgla(h, D), meets the two holim conditions and
    spans their dense kernel, and the dense restriction of d to it is
    ``holim_bounded``'s d, column for column."""
    pair = holim_pairs()[label]
    assert_quotient_matches(pair.h.underlying, pair.n.span)
    assert_cohomology_matches(pair.quotient.complex)
    for tbound in range(1, 7):
        bounded = holim.holim_bounded(pair, tbound)
        ambient, rows = dense.holim_rows(pair, tbound)
        for k in ambient.space.degrees:
            dim = ambient.space.dim(k)
            vectors = [linalg.dense(r, dim) for r in rows.get(k, ((), ()))[0]]
            assert len(vectors) == bounded.complex.space.dim(k)
            constraints = dense.holim_constraints(pair, ambient, k)
            for rule, part in constraints.items():
                block = [linalg.dense(r, dim) for r in part]
                assert not any(x for v in vectors for x in dense.matvec(block, v)), rule
            block = [linalg.dense(r, dim) for part in constraints.values() for r in part]
            assert dense.echelon_basis(vectors) == dense.echelon_basis(dense.nullspace(block, dim))
        sub = SubDgla(abelian_dgla(ambient.dgla.underlying),
                      SubSpaceData.from_echelon(ambient.space, rows))
        ref = dense.restrict_to_sub(sub)
        assert {k: ref.space.dim(k) for k in ref.space.degrees} == {
            k: bounded.complex.space.dim(k) for k in bounded.complex.space.degrees}
        assert bounded.complex.differential.columns == ref.underlying.differential.columns
        assert_cohomology_matches(bounded.complex)


def test_borel_restriction_keeps_brackets():
    # F2's Borel sub-dgla is not abelian, so its bracket tables must be built
    borel = F.f2_borel()
    assert not borel.parent.is_abelian()
    assert restrict_to_sub(borel).brackets
    assert_restriction_matches(borel)


def sparse_rational_matrix(rng):
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    density = rng.choice((0.15, 0.3, 0.6))
    return [[Q(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < density else Q(0)
             for _ in range(cols)] for _ in range(rows)]


def test_seeded_sparse_matrices_match_reference():
    rng = random.Random(20091)
    for _ in range(200):
        m = sparse_rational_matrix(rng)
        dim = len(m[0])
        red, pivots = linalg.rref([linalg.sparse(row) for row in m])
        full, ref_pivots = dense.rref(m)
        assert pivots == ref_pivots
        assert [linalg.dense(row, dim) for row in red] == full[:len(pivots)]
        assert not any(any(row) for row in full[len(pivots):])
        assert all(type(x) is Q and x for row in red for x in row.values())
        assert (linalg.extend_to_complement([linalg.sparse(row) for row in m], dim)
                == dense.extend_to_complement(m, dim))


def mixed_matrix(rng):
    """Entries 0, int, integral Fraction and Fraction up to 10^6, rows
    negated at random (negative pivots), a dependent and a zero row."""
    def entry():
        u, c = rng.random(), rng.randint(-10**6, 10**6)
        if u < 0.45:
            return 0
        if u < 0.6:
            return c
        if u < 0.75:
            return Q(c)
        if u < 0.9:
            return Q(c, rng.randint(1, 10**6))
        return Q(rng.randint(-9, 9), rng.randint(1, 9))

    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    m += [[a - 3 * b for a, b in zip(m[0], m[-1])], [0] * cols]
    m = [[-x for x in row] if rng.random() < 0.5 else row for row in m]
    rng.shuffle(m)
    return m


def test_seeded_mixed_matrices_match_reference():
    rng = random.Random(20092)
    for _ in range(150):
        m = mixed_matrix(rng)
        dim, ref = len(m[0]), [[Q(x) for x in row] for row in m]
        rows = [linalg.sparse(row) for row in m]
        full, ref_pivots = dense.rref(ref)
        e = linalg.Echelon(rows)
        assert sorted(e.rows) == ref_pivots
        assert [linalg.dense(e.rows[p], dim) for p in ref_pivots] == full[:len(ref_pivots)]
        assert linalg.rref(rows) == ([e.rows[p] for p in ref_pivots], ref_pivots)
        assert all(type(x) is Q for p in ref_pivots for x in e.rows[p].values())
        assert [linalg.dense(v, dim) for v in linalg.nullspace(rows, dim)] == dense.nullspace(ref, dim)
        assert linalg.extend_to_complement(rows, dim) == dense.extend_to_complement(ref, dim)
        sub = SubSpaceData(GradedVectorSpace({0: tuple(f"e{j}" for j in range(dim))}), {0: m})
        assert dense.echelon_vectors(sub, 0) == dense.echelon_basis(ref)
        # the complex K^dim -> K^rows with the matrix as d
        space = GradedVectorSpace({0: sub.parent.labels(0),
                                   1: tuple(f"f{i}" for i in range(len(m)))})
        d = [{i: row[j] for i, row in enumerate(ref) if row[j]} for j in range(dim)]
        assert_cohomology_matches(Complex(space, GradedMap(space, space, 1, {0: d})))


# ---------------------------------------------------------------------------
# SubSpaceData.coords and contains

def test_coords_reads_pivots_and_rejects_vectors_just_outside():
    sub = SubSpaceData(F.f5_cdga().complex.space, {0: [[Q(2), Q(0), Q(2)]]})
    assert sub.coords(0, {0: Q(3), 2: Q(3)}) == {0: Q(3)}
    # agrees with the span vector on the pivot column, not elsewhere
    assert sub.coords(0, {0: Q(3), 2: Q(3) + Q(1, 1000)}) is None
    assert not sub.contains({0: [Q(3), Q(0), Q(3) + Q(1, 1000)]})
    assert not sub.contains({0: [Q(0), Q(1), Q(0)]})


def test_coords_accepts_zero():
    sub = SubSpaceData(F.f5_cdga().complex.space, {0: [[Q(1), Q(1), Q(0)]]})
    zero = [Q(0)] * 3
    assert sub.coords(0, {}) == {}
    assert sub.coords(1, {}) == {}            # a degree with no span
    assert sub.contains({0: zero, 1: zero})


entries = st.sampled_from([Q(0), Q(0), Q(0), Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_coords_match_dense_oracle(data):
    """``coords`` and ``contains`` on spans built from dense vectors (with a
    dependent and a zero vector among them) and from kernel rows in echelon
    form, against ``solve`` on the dense basis: vectors in the span, zero,
    vectors that agree with a span vector on the pivots but are off by
    1/1000 elsewhere, and arbitrary vectors."""
    dim = data.draw(st.integers(1, 6))
    vector = st.lists(entries, min_size=dim, max_size=dim)
    vectors = data.draw(st.lists(vector, max_size=4))
    coeffs = data.draw(st.lists(entries, min_size=len(vectors), max_size=len(vectors)))
    vectors.append([sum((c * v[t] for c, v in zip(coeffs, vectors)), Q(0))
                    for t in range(dim)])
    vectors.append([Q(0)] * dim)
    data.draw(st.randoms()).shuffle(vectors)
    parent = GradedVectorSpace({0: tuple(f"e{t}" for t in range(dim)), 1: ("f",)})
    subs = (SubSpaceData(parent, {0: vectors}),
            SubSpaceData.from_echelon(parent, {0: linalg.kernel(
                [linalg.sparse(v) for v in vectors], dim)}))
    for sub in subs:
        basis = dense.sub_basis(sub, 0)
        pivots = sub.echelon[0][1] if basis else []
        combos = data.draw(st.lists(st.lists(entries, min_size=len(basis),
                                             max_size=len(basis)), min_size=1, max_size=3))
        inside = [[sum((c * b[t] for c, b in zip(cs, basis)), Q(0)) for t in range(dim)]
                  for cs in combos]
        off = [t for t in range(dim) if t not in pivots]
        outside = [[x + Q(1, 1000) * (t == off[0]) for t, x in enumerate(v)]
                   for v in inside] if off else []
        tests = inside + outside + [[Q(0)] * dim] + data.draw(st.lists(vector, max_size=2))
        for w in tests:
            want = (dense.solve(dense.columns_matrix(basis, dim), w) if basis
                    else [] if not any(w) else None)
            got = sub.coords(0, linalg.sparse(w))
            assert got == (None if want is None else linalg.sparse(want))
            assert sub.contains({0: w, 1: [Q(0)]}) == (want is not None)
            assert all(type(c) is Q for c in (got or {}).values())
        for w in inside:
            assert sub.coords(0, linalg.sparse(w)) is not None
        for w in outside:
            assert sub.coords(0, linalg.sparse(w)) is None
        assert sub.coords(1, {}) == {} and sub.coords(1, {0: Q(1)}) is None


def test_filtration_steps_are_built_once():
    f = F.f6_filtration()
    lo, hi = f.levels()[0], f.levels()[-1]
    for p in range(lo - 3, hi + 4):
        assert f.step(p) is f.step(p)
    # one subspace for all of F^p below the levels, one for all above
    assert f.step(lo - 3) is f.step(lo - 1)
    assert f.step(hi + 3) is f.step(hi + 1)
    space = f.space
    assert all(f.step(lo - 1).dim(d) == space.dim(d) for d in space.degrees)
    assert all(f.step(hi + 1).dim(d) == 0 for d in space.degrees)
    empty = FiltrationData(space, {})
    assert all(empty.step(p).dim(d) == 0 for p in (-1, 0, 1) for d in space.degrees)


def test_filtration_keeps_the_steps_it_is_given():
    space = F.f6_cdga().space
    steps = {1: SubSpaceData(space, {1: [[Q(1), Q(0)]], 2: [[Q(1)]]}),
             2: SubSpaceData(space, {2: [[Q(1)]]})}
    f = FiltrationData(space, steps)
    assert f.levels() == [1, 2]
    assert all(f.step(p) is steps[p] for p in steps)


def test_restrict_to_unclosed_span_raises():
    g = F.f2_dgla()
    # span{e12, e21} is not closed: [e12, e21] = e11 - e22
    sub = sub_dgla_span(g, {0: [[Q(0), Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(0)]]})
    with pytest.raises(StructuralError, match="element leaves the subspace"):
        restrict_to_sub(sub)
