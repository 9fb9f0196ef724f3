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

import dense_reference as dense
from deforma import fixtures as F, holim, linalg
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.dgla import SubDgla, restrict_to_sub, sub_dgla_span
from deforma.endo import end_dgla
from deforma.graded import (StructuralError, SubSpaceData, cohomology,
                            quotient_complex)

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
    cocycles = {deg: dense.nullspace(c.differential.block(deg))
                if c.space.dim(deg + 1) else dense.identity(c.space.dim(deg))
                for deg in c.space.degrees}
    return {"B": boundaries, "Z": {d: vs for d, vs in cocycles.items() if vs}}


def assert_cohomology_matches(c):
    got = cohomology(c)
    for deg, (rank, reps, cobs) in dense.cohomology(c).items():
        data = got.by_degree[deg]
        coboundaries = [linalg.dense(b, c.space.dim(deg)) for b in data.coboundaries]
        assert (data.rank, data.representatives, coboundaries) == (rank, reps, cobs)


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
def test_holim_pairs_match_reference(label, monkeypatch):
    pair = holim_pairs()[label]
    assert_quotient_matches(pair.h.underlying, pair.n.span)
    assert_cohomology_matches(pair.quotient.complex)
    subs = []

    def spy(n):
        subs.append(n)
        return restrict_to_sub(n)

    monkeypatch.setattr(holim, "restrict_to_sub", spy)
    for tbound in range(1, 7):
        bounded = holim.holim_bounded(pair, tbound)
        assert_restriction_matches(subs[-1])
        assert_cohomology_matches(bounded.complex)
    assert len(subs) == 6


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


# ---------------------------------------------------------------------------
# SubSpaceData.coords and contains

def test_coords_reads_pivots_and_rejects_vectors_just_outside():
    sub = SubSpaceData(F.f5_cdga().complex.space, {0: [[Q(2), Q(0), Q(2)]]})
    assert sub.coords(0, [Q(3), Q(0), Q(3)]) == [Q(3)]
    # agrees with the span vector on the pivot column, not elsewhere
    assert sub.coords(0, [Q(3), Q(0), Q(3) + Q(1, 1000)]) is None
    assert not sub.contains({0: [Q(3), Q(0), Q(3) + Q(1, 1000)]})
    assert not sub.contains({0: [Q(0), Q(1), Q(0)]})


def test_coords_accepts_zero():
    sub = SubSpaceData(F.f5_cdga().complex.space, {0: [[Q(1), Q(1), Q(0)]]})
    zero = [Q(0)] * 3
    assert sub.coords(0, zero) == [Q(0)]
    assert sub.coords(1, zero) == []          # a degree with no span
    assert sub.contains({0: zero, 1: zero})


def test_restrict_to_unclosed_span_raises():
    g = F.f2_dgla()
    # span{e12, e21} is not closed: [e12, e21] = e11 - e22
    sub = sub_dgla_span(g, {0: [[Q(0), Q(1), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(0)]]})
    with pytest.raises(StructuralError, match="element leaves the subspace"):
        restrict_to_sub(sub)
