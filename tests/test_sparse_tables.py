"""Sparse-first structure tables against the dense table oracles.

Constructors write only nonzero structure constants, and ``tensor_dgla``
composes its rows on first use.  Their rows, their derived dense views and
their complexes must equal ``dense_reference.tensor_tables`` and
``end_tables`` entry by entry, and the interval forms must equal
``dense_reference.interval_forms``.  A host far too large for dense tables must
still build and carry the Maurer-Cartan calculus.
"""

import json
import os
import random
from fractions import Fraction as Q

import pytest

import dense_reference as dense
from deforma import fixtures as F, linalg
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.convolution import hom_dgla_slice
from deforma.dgla import (CdgaModel, Dgla, StructureTable, TensorDgla, tensor_dgla,
                          validate_dgla)
from deforma.endo import end_dgla
from deforma.graded import (Complex, GradedVectorSpace, StructuralError,
                            zero_map)
from deforma.holim import _interval_forms, path_dgla
from deforma.mc import gauge_act, gauge_equivalent, is_mc
from deforma.models import parse_model

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "src", "deforma", "fixtures")

ARTIN = ((1, 3), (1, 4), (1, 5), (2, 3))


@pytest.mark.parametrize("name", F.FIXTURE_NAMES)
def test_tensor_nilpotent_matches_dense_tables(name):
    g = F.fixture_dgla(name)
    for k, order in ARTIN:
        a = truncated_polynomial_algebra(k, order)
        dense.assert_same_tables(tensor_nilpotent(g, a).dgla,
                                 *dense.tensor_tables(g, a.cdga))


def test_interval_forms_match_dense_reference():
    for tmax in range(1, 7):
        forms, ref = _interval_forms(tmax), dense.interval_forms(tmax)
        assert forms.space.components == ref.space.components
        assert all(forms.table.row(p) == ref.table.row(p) for p in range(len(ref.table)))
        assert forms.products == ref.products
        assert forms.complex.differential.columns == ref.complex.differential.columns
        assert forms.complex.differential.blocks == ref.complex.differential.blocks


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "F5"])
def test_path_dgla_matches_dense_tables(name):
    host = F.fixture_dgla(name)
    for tmax in range(1, 7):
        dense.assert_same_tables(path_dgla(host, tmax).dgla,
                                 *dense.tensor_tables(host, dense.interval_forms(tmax)))


@pytest.mark.parametrize("complex_of", [F.f3_complex, lambda: F.f4_cdga().complex,
                                        lambda: F.f5_cdga().complex,
                                        lambda: F.f6_cdga().complex],
                         ids=["F3", "F4", "F5", "F6"])
def test_end_dgla_matches_dense_tables(complex_of):
    c = complex_of()
    dense.assert_same_tables(end_dgla(c).dgla, *dense.end_tables(c))


ROUND_TRIP_HOSTS = {
    **{name: (lambda name=name: F.fixture_dgla(name)) for name in F.FIXTURE_NAMES},
    "F5 (x) e^4": lambda: tensor_nilpotent(F.fixture_dgla("F5"),
                                           truncated_polynomial_algebra(1, 4)).dgla,
    "F2 (x) m^3": lambda: tensor_nilpotent(F.f2_dgla(),
                                           truncated_polynomial_algebra(2, 3)).dgla,
    "End F5": lambda: end_dgla(F.f5_cdga().complex).dgla,
    "path F5 @ 2": lambda: path_dgla(F.fixture_dgla("F5"), 2).dgla,
    "Hom(F7, F7) @ 3": lambda: hom_dgla_slice(F.f7_dgla(), F.f7_dgla(), 3)}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_HOSTS))
def test_dense_view_reads_back_to_the_same_rows(name):
    g = ROUND_TRIP_HOSTS[name]()
    again = Dgla(g.underlying, g.brackets)
    assert all(again.table.row(p) == g.table.row(p) for p in range(len(g.table)))
    assert again.brackets == g.brackets


def raw_tables(raw: dict) -> dict:
    """The dense tables of a JSON "brackets"/"products" entry, read directly."""
    return {tuple(int(d) for d in key.split(",")): [[[Q(c) for c in v] for v in row]
                                                    for row in table]
            for key, table in raw.items()}


@pytest.mark.parametrize("name", F.FIXTURE_NAMES)
def test_fixture_tables_keep_their_dense_input(name):
    # every dgla and cdga of the fixture file against its raw JSON tables,
    # read here without the parser: each cell in the table and in the view
    path = os.path.join(FIXTURE_DIR, f"{name}.json")
    with open(path) as fh:
        raw = json.load(fh)
    doc = parse_model(path)
    checked = 0
    for section, key, build, symmetric in (("dglas", "brackets", doc.dgla, False),
                                           ("cdgas", "products", doc.cdga, True)):
        for entry_name, entry in raw.get(section, {}).items():
            tables = raw_tables(entry.get(key) or {})
            model = build(entry_name)
            dense.assert_table_holds_dense(model.table, tables, symmetric)
            view = model.products if symmetric else model.brackets
            assert view == {k: t for k, t in sorted(tables.items())
                            if any(c for row in t for v in row for c in v)}
            checked += 1
    assert checked == len(raw.get("dglas", {})) + len(raw.get("cdgas", {}))


def test_validate_dgla_sees_mixed_degree_asymmetry():
    # A non-commutative degree-0 product (u * e = e, e * u = 0) makes
    # g (x) A fail antisymmetry on pairs of different degrees too.
    space = GradedVectorSpace({0: ("u", "e")})
    unit, e = [Q(1), Q(0)], [Q(0), Q(1)]
    zero = [Q(0), Q(0)]
    a = CdgaModel(Complex(space, zero_map(space, space, 1)),
                  {(0, 0): [[unit, e], [zero, zero]]})
    g = end_dgla(F.f3_complex()).dgla
    ng = tensor_dgla(g, a, (0, 0)).dgla
    degree = {lbl: k for k in ng.space.degrees for lbl in ng.space.labels(k)}
    pairs = [f["witness"] for f in validate_dgla(ng).failures
             if f["kind"] == "antisymmetry"]
    assert any(degree[x] != degree[y] for x, y in pairs)
    # and a hand-made table with [a, b] = b = [b, a] across degrees 0 and 1
    space = GradedVectorSpace({0: ("a",), 1: ("b",)})
    rows = [{1: {1: Q(1)}}, {0: {1: Q(1)}}]
    h = Dgla(Complex(space, zero_map(space, space, 1)),
             StructureTable(space, rows.__getitem__))
    assert [f["witness"] for f in validate_dgla(h).failures
            if f["kind"] == "antisymmetry"] == [["a", "b"]]


def test_dense_input_is_checked():
    g, omega = F.f2_dgla(), F.f5_cdga()
    assert CdgaModel(omega.complex, omega.products).products == omega.products
    with pytest.raises(StructuralError):
        Dgla(g.underlying, {(0, 0): g.brackets[(0, 0)][:-1]})
    with pytest.raises(StructuralError):
        CdgaModel(omega.complex, {(1, 0): omega.products[(0, 1)]})


def test_tensor_is_abelian_without_making_rows():
    a = truncated_polynomial_algebra(1, 4)
    for g, abelian in ((F.f6_dgla(), True), (F.f2_dgla(), False)):
        ng = tensor_nilpotent(g, a).dgla
        assert ng.is_abelian() == abelian
        assert ng.table._rows == [None] * len(ng.table)
    trivial = truncated_polynomial_algebra(1, 2)          # e * e = 0
    assert tensor_nilpotent(F.f2_dgla(), trivial).dgla.is_abelian()


def large_host():
    """End(F5) (x) K[e1,e2]/m^15, 36 x 119 = 4,284 dimensions, and a gauge
    parameter with nine nonzeros of weight at most 2."""
    end = end_dgla(F.f5_cdga().complex).dgla
    a = truncated_polynomial_algebra(2, 15)
    ng = tensor_nilpotent(end, a)
    rng = random.Random(2024)
    alpha = [Q(0)] * ng.space.dim(0)
    for v in rng.sample(range(end.space.dim(0)), 9):
        alpha[v * a.dim + rng.randrange(5)] = Q(rng.choice([-2, -1, 1, 2, 3]),
                                                rng.choice([1, 2, 3]))
    return ng, {0: alpha}


def test_large_tensor_host_builds_and_gauges():
    # its dense (0, 0) bracket table alone would hold 2142^3, about 9.8e9,
    # constants
    ng, alpha = large_host()
    assert len(ng.weight) == 119
    assert {k: ng.space.dim(k) for k in ng.space.degrees} == {-1: 1071, 0: 2142, 1: 1071}
    assert isinstance(ng.dgla.table, StructureTable)
    x = gauge_act(ng, alpha, {})
    assert sum(1 for c in x[1] if c) > 100
    assert is_mc(ng, x)


def test_gauge_and_residue_compose_only_left_rows():
    # a bracket [u, v] reads the table rows of the nonzeros of u alone, so
    # e^alpha * 0 and its residue compose at most the rows of alpha and of
    # the result, out of 4,284
    ng, alpha = large_host()
    t = ng.dgla.table
    x = gauge_act(ng, alpha, {})
    assert is_mc(ng, x)
    made = sum(row is not None for row in t._rows)
    assert made <= len(set(t.flat(alpha)) | set(t.flat(x)))
    assert 0 < made < len(t) // 10


def test_gauge_equivalence_reduces_the_base_d_once(monkeypatch):
    # the gauge from e^alpha * 0 back to 0 solves each weight stage per
    # monomial against one reduction of the base d, with no linalg.solve,
    # and runs its series on integer numerators: a third of the 265,639
    # Fraction constructions of the slice-by-slice elimination on Fractions
    ng, alpha = large_host()
    x = gauge_act(ng, alpha, {})
    solves, degrees, reductions, made = [], [], [], [0]
    solve, d_solver, init = linalg.solve, TensorDgla.d_solver, linalg.ColumnSolver.__init__
    monkeypatch.setattr(linalg, "solve", lambda *args: solves.append(args) or solve(*args))
    monkeypatch.setattr(TensorDgla, "d_solver",
                        lambda self, deg: degrees.append(deg) or d_solver(self, deg))
    monkeypatch.setattr(linalg.ColumnSolver, "__init__",
                        lambda self, *args: reductions.append(args) or init(self, *args))
    new = Q.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new.__func__(cls, *args, **kwargs)

    setattr(Q, "__new__", staticmethod(counting))
    try:
        first = gauge_equivalent(ng, x, {})
    finally:
        setattr(Q, "__new__", new)
    assert first.status == "equivalent"
    assert not solves
    assert 0 < len(reductions) <= len(set(degrees))
    assert made[0] <= 265_639 // 3
    reductions.clear()
    again = gauge_equivalent(ng, x, {})
    assert (again.status, again.alpha) == (first.status, first.alpha)
    assert not reductions and not solves
