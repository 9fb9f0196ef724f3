"""The record classes: constructors, defaults and the checks they run.

deforma's records are plain classes with an explicit ``__init__``.  Each
takes its fields by position or by keyword, in one order, gives every
instance its own default containers, and runs its shape checks on
construction.
"""

import inspect
from fractions import Fraction as Q

import pytest

from deforma import artin, cli, dgla, endo, graded, holim, mc, models, period
from deforma.graded import GradedMap, GradedVectorSpace, StructuralError, identity_map

V = GradedVectorSpace({0: ("a", "b"), 1: ("c",)})
W = GradedVectorSpace({0: ("a",), 1: ("b",), 2: ("c",)})


def d_map():
    """d(a) = c: a differential on V with d^2 = 0."""
    return GradedMap(V, V, 1, {0: [{0: Q(1)}, {}]})


def cx():
    return graded.Complex(V, d_map())


def host():
    return dgla.Dgla(cx(), object())


# (class, the arguments in order); None: opaque values for every field,
# for records that only hold what they are given
RECORDS = [
    (GradedVectorSpace, lambda: [{0: ("a", "b"), 1: ("c",)}]),
    (GradedMap, lambda: [V, V, 1, {0: [{0: Q(1)}, {}]}]),
    (graded.Complex, lambda: [V, d_map()]),
    (graded.SubSpaceData, lambda: [V, {0: [[Q(1), Q(0)]]}]),
    (graded.QuotientComplex, None),
    (graded.DegreeCohomology, None),
    (graded.CohomologyResult, None),
    (dgla.ValidationReport, lambda: [[{"kind": "x"}], {"note": 1}]),
    (dgla.Dgla, lambda: [cx(), object()]),
    (dgla.CdgaModel, lambda: [cx(), object()]),
    (dgla.FiltrationData, lambda: [V, {0: graded.SubSpaceData(V, {})}]),
    (dgla.DglaMorphism, lambda: [object(), object(), identity_map(V)]),
    (dgla.SubDgla, lambda: [host(), graded.SubSpaceData(V, {})]),
    (dgla.TensorDgla, None),
    (artin.ArtinAlgebra, None),
    (endo.EndDgla, None),
    (holim.HolimPair, None),
    (holim.HolimBounded, None),
    (holim.HolimCohomologyResult, None),
    (holim.HolimMorphism, None),
    (holim.QuasiAbelianWitness, None),
    (mc.GaugeResult, lambda: ["equivalent", {0: [Q(1)]}, "detail"]),
    (mc.ObstructionClass, lambda: [2, {"e^2": [Q(1)]}, {2: [Q(1)]}]),
    (mc.ExtensionResult, None),
    (mc.Pi1Group, None),
    (period.ContractionCartan, None),
    (period.FlagData, None),
    (period.EndSpace, None),
    (period.PeriodDifferential, None),
    (period.ObstructionImage, None),
    (models.ModelDocument, lambda: [{"schema": 1}, "model.json", {}]),
    (cli.Report, lambda: ["validate", "ok", {"a": 1}]),
]


@pytest.mark.parametrize("cls,make", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_positional_and_keyword_construction_agree(cls, make):
    names = list(inspect.signature(cls).parameters)
    values = make() if make else [object() for _ in names]
    assert len(values) == len(names)
    by_position, by_keyword = cls(*values), cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


# every record with a default container, and the containers' defaults
DEFAULTS = [
    (lambda: dgla.ValidationReport(), {"failures": [], "notes": {}}),
    (lambda: cli.Report("validate", "ok"), {"payload": {}}),
    (lambda: mc.ObstructionClass(2), {"classes": {}, "representative": {}}),
    (lambda: models.ModelDocument({}), {"_cache": {}}),
]


@pytest.mark.parametrize("make,defaults", DEFAULTS, ids=[
    "ValidationReport", "Report", "ObstructionClass", "ModelDocument"])
def test_default_containers_are_not_shared(make, defaults):
    first, second = make(), make()
    for name, empty in defaults.items():
        assert getattr(first, name) == empty
        assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("build,message", [
    (lambda: GradedVectorSpace({0: ("a", "a")}),
     "duplicate basis labels in degree 0"),
    (lambda: GradedMap.from_blocks(V, V, 1, {0: [[Q(1)]]}),
     "block at degree 0 has shape 1x1, expected 1x2"),
    (lambda: GradedMap(V, V, 1, {0: [[Q(1)]]}),      # dense blocks are not columns
     "columns at degree 0: expected 2 columns of nonzero entries in rows 0..0, got 1"),
    (lambda: GradedMap(V, V, 1, {0: [[Q(1)], [Q(0)]]}),
     "columns at degree 0: expected 2 columns of nonzero entries in rows 0..0, got 2"),
    (lambda: GradedMap(V, V, 1, {0: [{1: Q(1)}, {}]}),
     "columns at degree 0: expected 2 columns"),
    (lambda: graded.Complex(V, identity_map(V)),
     r"differential must have shift \+1"),
    (lambda: graded.Complex(V, GradedMap(GradedVectorSpace({0: ("x",)}), V, 1, {})),
     "differential source does not match space"),
    (lambda: graded.Complex(W, GradedMap(W, W, 1, {0: [{0: Q(1)}], 1: [{0: Q(1)}]})),
     r"d\^2 != 0 starting in degrees \[0\]"),
    (lambda: graded.SubSpaceData(V, {0: [[Q(1)]]}),
     "span vector length mismatch in degree 0"),
    (lambda: dgla.Dgla(cx(), {(0, 0): [[]]}),
     r"table \(0,0\) has 1 rows, expected 2"),
    (lambda: dgla.CdgaModel(cx(), {(1, 0): []}),
     r"table for \(1,0\) must be stored as \(0,1\)"),
    (lambda: dgla.DglaMorphism(host(), host(), d_map()),
     "dgla morphism must have shift 0"),
    (lambda: dgla.SubDgla(host(), graded.SubSpaceData(GradedVectorSpace({}), {})),
     "sub-dgla span declared on a different space"),
])
def test_construction_checks_raise(build, message):
    with pytest.raises(StructuralError, match=message):
        build()
