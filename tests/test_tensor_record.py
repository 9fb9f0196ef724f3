"""The tensor record ``TensorDgla`` on its three families: g (x) m_A, the path
dgla h (x) Omega(Delta^1) and the convolution dgla h (x) CE_{<=N}(g).

``split`` and ``join`` must invert each other, ``by_weight`` must list every
flat position once, ``tensor_element`` must be ``join`` at one C position,
and the layout and the weights must agree with ``dgla.tensor_basis`` and
with each family's own account of its weight: the monomial degree of m_A
(``ArtinAlgebra.weights``), the t-degree of a form read from its label, and
the word length of a CE basis vector read from its label.
"""

import functools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from deforma import fixtures as F
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.convolution import convolution
from deforma.dgla import tensor_basis
from deforma.holim import path_dgla

FAMILIES = ([("m_A", name, k, order) for name in F.FIXTURE_NAMES
             for k, order in ((1, 3), (2, 3))]
            + [("path", name, tmax) for name in ("F1", "F2", "F5") for tmax in (1, 2, 3)]
            + [("hom", name, arity) for name in ("F1", "F2") for arity in (1, 2, 3)])
IDS = ["-".join(map(str, family)) for family in FAMILIES]


@functools.cache
def build(family):
    kind, name, *rest = family
    g = F.fixture_dgla(name)
    if kind == "m_A":
        return tensor_nilpotent(g, truncated_polynomial_algebra(*rest))
    if kind == "path":
        return path_dgla(g, *rest)
    return convolution(g, g, *rest)


def oracle_factors(ng) -> list:
    """The pair (g flat position, C flat position) of every flat position,
    read from ``tensor_basis``: total degree k lists e_i (x) f_j in order."""
    gt, ct, t = ng.g.table, ng.c.table, ng.dgla.table
    out = [None] * len(t)
    for k, pairs in tensor_basis(ng.g.space, ng.c.space).items():
        for idx, ((p, i), (q, j)) in enumerate(pairs):
            out[t.offset[k] + idx] = (gt.offset[p] + i, ct.offset[q] + j)
    return out


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
    assert ng.factors == oracle_factors(ng)
    for p, (v, j) in enumerate(ng.factors):
        assert t.space.label(*t.position[p]) == (
            f"{gt.space.label(*gt.position[v])}@{ct.space.label(*ct.position[j])}")
    assert list(ng.weight) == [oracle_weight(family, ng, j) for j in range(len(ct))]
    assert ng.weights == [ng.weight[j] for _, j in oracle_factors(ng)]
    if family[0] == "m_A":
        a, na = truncated_polynomial_algebra(*family[2:]), len(ct)
        assert ng.weights == [a.weights[idx % na] for _, idx in t.position]


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
    assert all(ng.factors[p] in {(v, j) for j, s in parts.items() for v in s} for p in x)
    # x (x) f_j for an element y of g is join of y at j, at the positions
    # tensor_basis gives the pairs (v, j)
    y = data.draw(st.dictionaries(st.integers(0, len(gt) - 1), values, max_size=6))
    j = data.draw(st.integers(0, len(ng.weight) - 1))
    got = ng.tensor_element(gt.graded(y), j)
    assert got == t.graded(ng.join({j: y}))
    where = {vf: p for p, vf in enumerate(oracle_factors(ng))}
    assert t.flat(got) == {where[v, j]: c for v, c in y.items()}
    assert all(type(c) is Q for vec in got.values() for c in vec)
