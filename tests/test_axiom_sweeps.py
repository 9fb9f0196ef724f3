"""The axiom sweeps of ``validate_dgla`` and ``validate_cdga`` against the
dense oracles, on tables that mix integral and non-integral constants.

The sweeps visit only the instances with a term that can be nonzero and
multiply integral constants as ints.  Each case scales a valid table (and
its d) by 1/2 or 1/3, which keeps every axiom, so some constants stay
integral and others do not; single-cell changes to the scaled table then
break the axioms here and there.  The sparse failure lists must equal the
dense ones entry by entry, residual strings included.
"""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

import dense_reference as dense
from deforma import fixtures as F
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.convolution import chevalley_eilenberg, hom_dgla_slice
from deforma.dgla import CdgaModel, Dgla, tensor_dgla, validate_cdga, validate_dgla
from deforma.endo import end_dgla
from deforma.graded import Complex, GradedMap, GradedVectorSpace, zero_map
from deforma.holim import _interval_forms, path_dgla

DGLAS = {
    "F3": F.fixture_dgla("F3"),
    "F4": F.fixture_dgla("F4"),
    "F3 (x) m_A": tensor_nilpotent(F.fixture_dgla("F3"),
                                   truncated_polynomial_algebra(1, 3)).dgla,
    "F2 (x) Omega": path_dgla(F.fixture_dgla("F2"), 1).dgla,
    "Hom(F2)": hom_dgla_slice(F.f2_dgla(), F.f2_dgla(), 2),
    "End(F5)": end_dgla(F.f5_cdga().complex).dgla,
}
CDGAS = {
    "F4": F.f4_cdga(),
    "F5": F.f5_cdga(),
    "F6": F.f6_cdga(),
    "m_A": truncated_polynomial_algebra(2, 4).cdga,
    "Omega": _interval_forms(2),
    "CE(F2)": chevalley_eilenberg(F.f2_dgla(), 2),
}
SCALES = [Q(1, 2), Q(1, 3)]
DELTAS = [Q(1), Q(-1), Q(2), Q(1, 2), Q(-3, 2), Q(2, 3)]


@st.composite
def mixed_tables(draw, structures: dict):
    """A structure, its dense tables scaled by 1/2 or 1/3 with one to three
    cells changed, and its d scaled by 1, 1/2 or 1/3."""
    name = draw(st.sampled_from(sorted(structures)))
    s = structures[name]
    dense_tables = s.brackets if isinstance(s, Dgla) else s.products
    scale = draw(st.sampled_from(SCALES))
    tables = {key: [[[scale * c for c in v] for v in row] for row in table]
              for key, table in dense_tables.items()}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(tables)))
        table = tables[key]
        i = draw(st.integers(0, len(table) - 1))
        j = draw(st.integers(0, len(table[0]) - 1))
        k = draw(st.integers(0, len(table[0][0]) - 1))
        table[i][j][k] += draw(st.sampled_from(DELTAS))
    cx = s.underlying if isinstance(s, Dgla) else s.complex
    d_scale = draw(st.sampled_from([Q(1)] + SCALES))
    return Complex(cx.space, cx.differential.scale(d_scale)), tables


@settings(max_examples=40, deadline=None)
@given(mixed_tables(DGLAS))
def test_validate_dgla_matches_dense_on_mixed_constants(case):
    cx, tables = case
    expected = dense.validate_dgla(dense.DenseDgla(cx, tables)).failures
    assert validate_dgla(Dgla(cx, tables)).failures == expected


@settings(max_examples=60, deadline=None)
@given(mixed_tables(CDGAS))
def test_validate_cdga_matches_dense_on_mixed_constants(case):
    cx, tables = case
    cdga = CdgaModel(cx, tables)
    assert validate_cdga(cdga).failures == dense.validate_cdga(cdga).failures


def test_scaled_tables_fail_only_where_the_originals_do():
    # the scaling alone keeps every axiom, so the failures of the
    # hypothesis cases come from the changed cells; the F5 cdga fails on
    # its truncation corner (x, x^2) before and after, and so does F2 (x) F5
    f5 = F.f5_cdga()
    failing = {"F2 (x) F5": tensor_dgla(F.fixture_dgla("F2"), f5, (0,) * len(f5.table)).dgla}
    for name, s in [*DGLAS.items(), *failing.items(), *CDGAS.items()]:
        cx = s.underlying if isinstance(s, Dgla) else s.complex
        cx = Complex(cx.space, cx.differential.scale(Q(1, 2)))
        if isinstance(s, Dgla):
            tables = {key: [[[c / 3 for c in v] for v in row] for row in table]
                      for key, table in s.brackets.items()}
            scaled, original = validate_dgla(Dgla(cx, tables)), validate_dgla(s)
        else:
            tables = {key: [[[c / 3 for c in v] for v in row] for row in table]
                      for key, table in s.products.items()}
            scaled, original = validate_cdga(CdgaModel(cx, tables)), validate_cdga(s)
        assert ([f["witness"] for f in scaled.failures]
                == [f["witness"] for f in original.failures]), name
        assert original.ok == (name not in ("F2 (x) F5", "F5")), name


def test_mixed_residuals_print_as_before():
    # F3 = End(c0 -> c1) with its bracket halved, and [c0>c0, c0>c1] moved
    # from -1/2 to 1/2: integral and non-integral residuals, in basis order
    g = F.fixture_dgla("F3")
    tables = {key: [[[c / 2 for c in v] for v in row] for row in table]
              for key, table in g.brackets.items()}
    tables[0, 1][0][0][0] += 1
    failures = validate_dgla(Dgla(g.underlying, tables)).failures
    assert failures == dense.validate_dgla(dense.DenseDgla(g.underlying, tables)).failures
    assert [(f["kind"], f["witness"], f["residual"]) for f in failures] == [
        ("leibniz", ["c1>c0", "c0>c1"], {"1": ["-1"]}),
        ("leibniz", ["c0>c0", "c1>c1"], {"1": ["1"]}),
        ("leibniz", ["c1>c1", "c0>c0"], {"1": ["-1"]}),
        ("leibniz", ["c0>c1", "c1>c0"], {"1": ["-1"]}),
        ("jacobi", ["c1>c0", "c0>c0", "c0>c1"], {"0": ["1/2", "1/2"]}),
        ("jacobi", ["c1>c0", "c0>c1", "c0>c1"], {"1": ["-1"]})]


def test_jacobi_reads_brackets_present_in_one_order_only():
    # gl2 with [e12, e11] = e11 - e12 but [e11, e12] = e12 as before: the
    # nonzero Jacobi term of (e11, e12, e12) is [[e12, e11], e12], reached
    # only from the row of the later basis vector
    g = F.f2_dgla()
    tables = {key: [[list(v) for v in row] for row in table]
              for key, table in g.brackets.items()}
    tables[0, 0][1][0][0] += 1
    failures = validate_dgla(Dgla(g.underlying, tables)).failures
    assert failures == dense.validate_dgla(dense.DenseDgla(g.underlying, tables)).failures
    assert [(f["kind"], f["witness"], f["residual"]) for f in failures] == [
        ("antisymmetry", ["e11", "e12"], {"0": ["1", "0", "0", "0"]}),
        ("jacobi", ["e11", "e12", "e12"], {"0": ["0", "1", "0", "0"]}),
        ("jacobi", ["e11", "e12", "e22"], {"0": ["1", "0", "0", "0"]})]


def small(components: dict, tables: dict, d: dict | None = None):
    """The complex on ``components`` with d given by sparse columns (zero
    when absent), and ``tables`` in the JSON form with integer constants."""
    space = GradedVectorSpace(components)
    diff = GradedMap(space, space, 1, d) if d else zero_map(space, space, 1)
    return Complex(space, diff), {key: [[[Q(c) for c in v] for v in row] for row in table]
                                  for key, table in tables.items()}


def dgla_failures(cx, tables) -> list:
    failures = validate_dgla(Dgla(cx, tables)).failures
    assert failures == dense.validate_dgla(dense.DenseDgla(cx, tables)).failures
    return [(f["kind"], f["witness"], f["residual"]) for f in failures]


def test_jacobi_on_one_odd_vector_counts_all_three_rotations():
    # a of degree 1, [a, a] = b and [a, b] = c: the triple (a, a, a) is one
    # double bracket standing for its three rotations, 3 (-1)^{|a||a|} [b, a]
    cx, tables = small({1: ("a",), 2: ("b",), 3: ("c",)},
                       {(1, 1): [[[1]]], (1, 2): [[[1]]]})
    assert dgla_failures(cx, tables) == [("jacobi", ["a", "a", "a"], {"3": ["3"]})]


def test_jacobi_ties_sum_every_rotation():
    # gl2 with [e11, e12] = e12 + e21: the tied triples (e11, e11, e12) and
    # (e11, e12, e12) each sum three distinct double brackets
    g = F.f2_dgla()
    tables = {key: [[list(v) for v in row] for row in table]
              for key, table in g.brackets.items()}
    tables[0, 0][0][1][2] += 1
    assert dgla_failures(g.underlying, tables) == [
        ("antisymmetry", ["e11", "e12"], {"0": ["0", "0", "1", "0"]}),
        ("jacobi", ["e11", "e11", "e12"], {"0": ["0", "0", "1", "0"]}),
        ("jacobi", ["e11", "e12", "e12"], {"0": ["-1", "0", "0", "1"]}),
        ("jacobi", ["e11", "e12", "e22"], {"0": ["0", "0", "-1", "0"]})]
    # the grading derivation e of e + a + b, a odd, [a, a] = b, with [e, b]
    # moved from 2b to 3b: the tie (e, a, a) has an odd repeated vector
    cx, tables = small({0: ("e",), 1: ("a",), 2: ("b",)},
                       {(0, 0): [[[0]]], (0, 1): [[[1]]], (0, 2): [[[3]]],
                        (1, 1): [[[1]]]})
    assert dgla_failures(cx, tables) == [("jacobi", ["e", "a", "a"], {"2": ["-1"]})]


def test_leibniz_pair_reached_only_through_a_preimage():
    # d b = k and [a, k] = k, every other bracket zero: on (a, b) neither
    # [a, b] nor da has a term, and d[a, b] - [da, b] - [a, db] = -k comes
    # from b, a d-preimage of the k in a's row
    cx, tables = small({0: ("a", "b"), 1: ("k",)}, {(0, 1): [[[1]], [[0]]]},
                       {0: [{}, {0: Q(1)}]})
    assert dgla_failures(cx, tables) == [("leibniz", ["a", "b"], {"1": ["-1"]}),
                                         ("leibniz", ["b", "a"], {"1": ["1"]})]


def test_associativity_failure_seen_only_from_the_right():
    # bc = e and ae = f, every other product zero: (ab)c = 0, so the
    # failure of (a, b, c) is a(bc) = f alone
    names = ("a", "b", "c", "e", "f")
    unit = {name: [int(n == name) for n in names] for name in names}
    zero = [0] * len(names)
    products = {("b", "c"): "e", ("c", "b"): "e", ("a", "e"): "f", ("e", "a"): "f"}
    cx, tables = small({0: names}, {(0, 0): [[unit[products[x, y]] if (x, y) in products
                                              else zero for y in names] for x in names]})
    cdga = CdgaModel(cx, tables)
    failures = validate_cdga(cdga).failures
    assert failures == dense.validate_cdga(cdga).failures
    minus_f, plus_f = {"0": ["0", "0", "0", "0", "-1"]}, {"0": ["0", "0", "0", "0", "1"]}
    assert [(f["kind"], f["witness"], f["residual"]) for f in failures] == [
        ("associativity", ["a", "b", "c"], minus_f),
        ("associativity", ["a", "c", "b"], minus_f),
        ("associativity", ["b", "c", "a"], plus_f),
        ("associativity", ["c", "b", "a"], plus_f)]
