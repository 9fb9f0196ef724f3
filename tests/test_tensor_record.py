"""The tensor record ``TensorDgla`` on its three families: g (x) m_A, the path
dgla h (x) Omega(Delta^1) and the convolution dgla h (x) CE_{<=N}(g), and
the product layout that it and End(C) lie on.

``split`` and ``join`` must invert each other, ``by_weight`` must list every
flat position once, ``tensor_element`` must be ``join`` at one C position,
and the layout and the weights must agree with the enumeration
``dense_reference.tensor_basis`` and with each family's own account of its
weight: the monomial degree of m_A (``ArtinAlgebra.weights``), the t-degree
of a form read from its label, and the word length of a CE basis vector
read from its label.  On every family, End(C) included, position -> pair ->
position must be the identity, and the pairs, the labels, d and every
table row must equal those of the construction on enumerated pairs found
in dicts (``dense_reference.tensor_construction`` and
``end_construction``), entry by entry.
"""

import functools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
import test_period
from deforma import fixtures as F
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.convolution import convolution
from deforma.endo import end_dgla
from deforma.holim import path_dgla

FAMILIES = ([("m_A", name, k, order) for name in F.FIXTURE_NAMES
             for k, order in ((1, 3), (2, 3))]
            + [("path", name, tmax) for name in ("F1", "F2", "F5") for tmax in (1, 2, 3)]
            + [("hom", name, arity) for name in ("F1", "F2") for arity in (1, 2, 3)]
            # End(F5) (x) K[e1,e2]/m^15, test_sparse_tables.large_host (4,284
            # dimensions), and convolution(KS, End Omega, 2) on the 2-torus
            # (10,240 dimensions)
            + [("m_A", "End F5", 2, 15), ("hom", "torus2", 2)])
IDS = ["-".join(map(str, family)) for family in FAMILIES]
ENDS = {"F3": F.f3_complex, "F4": lambda: F.f4_cdga().complex,
        "F5": lambda: F.f5_cdga().complex, "F6": lambda: F.f6_cdga().complex,
        "torus2": lambda: test_period.torus2()[0].complex}


@functools.cache
def factors(family):
    """The host g and the cdga C of a family."""
    kind, name, *rest = family
    if name == "End F5":
        g = end_dgla(F.f5_cdga().complex).dgla
    elif name == "torus2":
        _, _, g, end, *_ = test_period.torus2()
        return g, end.dgla
    else:
        g = F.fixture_dgla(name)
    return g, g


@functools.cache
def build(family):
    kind, name, *rest = family
    g, h = factors(family)
    if kind == "m_A":
        return tensor_nilpotent(g, truncated_polynomial_algebra(*rest))
    if kind == "path":
        return path_dgla(g, *rest)
    return convolution(g, h, *rest)


def oracle_weight(family, ng, j: int) -> int:
    """The weight of C's basis vector j, each family by its own account."""
    kind, _, *rest = family
    deg, idx = ng.c.table.position[j]
    label = ng.c.space.label(deg, idx)
    if kind == "m_A":
        return truncated_polynomial_algebra(*rest).weights[idx]
    if kind == "path":          # "t<m>" or "t<m>*dt"
        return int(label.split("*")[0][1:]) + label.endswith("*dt")
    return label.count("^") + 1


@pytest.mark.parametrize("family", FAMILIES, ids=IDS)
def test_layout_and_weights_follow_tensor_basis(family):
    ng = build(family)
    t, gt, ct = ng.dgla.table, ng.g.table, ng.c.table
    pairs = [ng.layout.pair(p) for p in range(len(t))]
    assert pairs == dense.tensor_factors(ng)
    for p, (v, j) in enumerate(pairs):
        assert t.space.label(*t.position[p]) == (
            f"{gt.space.label(*gt.position[v])}@{ct.space.label(*ct.position[j])}")
    assert list(ng.weight) == [oracle_weight(family, ng, j) for j in range(len(ct))]
    assert ng.weights == [ng.weight[j] for _, j in dense.tensor_factors(ng)]
    if family[0] == "m_A":
        a, na = truncated_polynomial_algebra(*family[2:]), len(ct)
        assert ng.weights == [a.weights[idx % na] for _, idx in t.position]


def assert_same_construction(g, ref):
    """g and the oracle construction ``ref`` agree in labels, d and every
    table row, entry by entry."""
    assert g.space.components == ref.space.components
    assert g.underlying.differential.columns == ref.underlying.differential.columns
    assert all(g.table.row(p) == ref.table.row(p) for p in range(len(ref.table)))


@pytest.mark.parametrize("family", FAMILIES + [("End", name) for name in ENDS],
                         ids=IDS + [f"End-{name}" for name in ENDS])
def test_layout_round_trips_and_matches_the_enumeration(family):
    if family[0] == "End":
        c = ENDS[family[1]]()
        end = end_dgla(c)
        layout, g, oracle = end.layout, end.dgla, dense.end_pairs(c.space)
        ref = dense.end_construction(c)
    else:
        ng = build(family)
        layout, g, oracle = ng.layout, ng.dgla, dense.tensor_factors(ng)
        ref = dense.tensor_construction(ng.g, ng.c)
    assert len(g.table) == len(oracle)
    for p, vf in enumerate(oracle):
        assert layout.pair(p) == vf
        assert layout.at(*vf) == p
    assert [vf for k in g.space.degrees for vf in layout.pairs(k)] == oracle
    assert list(layout.pairs()) == oracle
    assert_same_construction(g, ref)


@pytest.mark.parametrize("family", FAMILIES, ids=IDS)
def test_by_weight_lists_every_position_once(family):
    ng = build(family)
    t = ng.dgla.table
    assert sorted(p for ps in ng.by_weight.values() for p in ps) == list(range(len(t)))
    for (deg, w), ps in ng.by_weight.items():
        assert ps == sorted(set(ps))
        assert all(t.position[p][0] == deg and ng.weights[p] == w for p in ps)


values = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.data())
def test_split_join_and_tensor_element(family, data):
    ng = build(family)
    t, gt = ng.dgla.table, ng.g.table
    x = data.draw(st.dictionaries(st.integers(0, len(t) - 1), values, max_size=12))
    parts = ng.split(x)
    assert ng.join(parts) == x
    oracle = dense.tensor_factors(ng)
    assert all(oracle[p] in {(v, j) for j, s in parts.items() for v in s} for p in x)
    # x (x) f_j for an element y of g is join of y at j, at the positions
    # tensor_basis gives the pairs (v, j)
    y = data.draw(st.dictionaries(st.integers(0, len(gt) - 1), values, max_size=6))
    j = data.draw(st.integers(0, len(ng.weight) - 1))
    got = ng.tensor_element(gt.graded(y), j)
    assert got == t.graded(ng.join({j: y}))
    where = {vf: p for p, vf in enumerate(oracle)}
    assert t.flat(got) == {where[v, j]: c for v, c in y.items()}
    assert all(type(c) is Q for vec in got.values() for c in vec)
