"""Filtered cohomology flags, the end of the flag diagram, and the period
differential computed from a contraction family."""

import functools
import itertools
import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

import dense_reference as dense
from deforma import fixtures as F
from deforma.dgla import (CdgaModel, FiltrationData, abelian_dgla, validate_cdga,
                          validate_filtration, validate_sub_dgla)
from deforma.endo import end_dgla
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, StructuralError,
                            SubSpaceData, cohomology, vec_add, vec_scale, zero_map)
from deforma.linalg import combine, sparse
from deforma.period import (_first_non_derivation, contraction_cartan, end_of_flag_diagram,
                            filtered_subdgla, flag_data, obstruction_image,
                            period_differential)


def filtration(space, steps) -> FiltrationData:
    """The filtration with dense spanning vectors ``steps[p][degree]``,
    each level eliminated once."""
    return FiltrationData(space, {p: SubSpaceData(space, level) for p, level in steps.items()})


# ---------------------------------------------------------------------------
# cdga and filtration validation

def test_cdga_validation():
    assert validate_cdga(F.f4_cdga()).ok
    assert validate_cdga(F.f6_cdga()).ok
    # the truncated polynomial model fails Leibniz exactly on the cut corner
    report = validate_cdga(F.f5_cdga())
    assert not report.ok
    assert {f["kind"] for f in report.failures} == {"leibniz"}


def test_filtration_validation():
    omega = F.f6_cdga()
    assert validate_filtration(omega.complex, F.f6_filtration()).ok
    omega5 = F.f5_cdga()
    assert validate_filtration(omega5.complex, F.f5_form_filtration()).ok
    # span{x} in degree 0 is not d-stable: d(x) = dx falls outside
    bad = filtration(omega5.space, {1: {0: [[Q(0), Q(1), Q(0)]]}})
    report = validate_filtration(omega5.complex, bad)
    assert any(f["kind"] == "d_stability" for f in report.failures)
    # F^2 = span{x dx} is not inside F^1 = span{dx}
    bad = filtration(omega5.space, {1: {1: [[Q(1), Q(0), Q(0)]]},
                                    2: {1: [[Q(0), Q(2), Q(0)]]}})
    assert validate_filtration(omega5.complex, bad).failures == [
        {"kind": "decreasing", "witness": ["F^2 degree 1 vector 0"]}]


def test_filtered_subdgla_f4():
    omega = F.f4_cdga()
    sub = filtered_subdgla(omega, F.f4_degree_filtration())
    assert validate_sub_dgla(sub).ok
    # operators of non-negative degree preserve the form-degree filtration
    # automatically; lowering operators (one-forms to constants) get cut
    full = end_dgla(omega.complex)
    assert sub.dim(0) == full.space.dim(0)
    assert sub.dim(-1) < full.space.dim(-1)
    assert sub.dim(-2) == 0


# ---------------------------------------------------------------------------
# contractions as Cartan families

def contraction_cases():
    yield F.f4_cdga(), F.f4_derivations(), F.f4_contraction, None
    yield F.f5_cdga(), F.f5_derivations(), F.f5_contraction, None
    yield F.f6_cdga(), F.f6_dgla(), F.f6_contraction, F.f6_filtration()


def test_contraction_families_are_cartan():
    for omega, t, i_f, filt in contraction_cases():
        end = end_dgla(omega.complex)
        result = contraction_cartan(omega, t, i_f(end), f=filt, end=end)
        assert result.report.ok
        assert result.report.notes["lie_bracket_compatible"]
        assert result.report.notes["lie_is_closed"]
        if filt is not None:
            assert result.report.notes["lie_preserves_filtration"]


def test_contraction_reports_a_filtration_its_lie_derivatives_leave():
    omega = F.f5_cdga()
    end = end_dgla(omega.complex)
    # F^1 = span{1, dx}: the Lie derivative along x^2 d/dx takes dx to 2x dx
    filt = filtration(omega.space, {1: {0: [[Q(1), Q(0), Q(0)]],
                                        1: [[Q(2), Q(0), Q(0)]]}})
    assert validate_filtration(omega.complex, filt).ok
    report = contraction_cartan(omega, F.f5_derivations(), F.f5_contraction(end),
                                f=filt, end=end).report
    assert not report.notes["lie_preserves_filtration"]
    assert report.failures == [{"kind": "filtration_preservation",
                                "witness": ["x^2*ddx", "F^1", "degree 1"]}]


def test_contraction_rejects_non_derivation():
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    t = F.f6_dgla()
    # xi -> 1 alone (without the xi*xibar -> xibar leg) is not a derivation
    op = GradedMap.from_blocks(omega.space, omega.space, -1, {1: [[Q(1), Q(0)]]})
    col = end.map_to_element(op).get(-1, [])
    i = GradedMap.from_blocks(t.space, end.space, -1, {0: [[c] for c in col]})
    with pytest.raises(StructuralError,
                       match=r"^i\(del\) is not a derivation at \(xi, xibar\)$"):
        contraction_cartan(omega, t, i, end=end)


def combination(space, shift, terms):
    """sum c op over ``terms`` (c, op), an operator of degree ``shift``."""
    cols = {}
    for c, op in terms:
        for deg, cs in op.columns.items():
            out = cols.setdefault(deg, [{} for _ in cs])
            for j, col in enumerate(cs):
                for r, x in col.items():
                    out[j][r] = out[j].get(r, 0) + c * x
    return GradedMap(space, space, shift, {
        deg: [{r: x for r, x in col.items() if x} for col in cs] for deg, cs in cols.items()})


@pytest.mark.parametrize("cdga,source,contraction", [
    (F.f4_cdga, F.f4_derivations, F.f4_contraction),
    (F.f5_cdga, F.f5_derivations, F.f5_contraction),
    (F.f6_cdga, F.f6_dgla, F.f6_contraction)], ids=["F4", "F5", "F6"])
def test_leibniz_sweep_matches_the_dense_loop(cdga, source, contraction):
    """``_first_non_derivation``, the Leibniz sweep that contraction_cartan
    runs on each i_a, against the dense loop over every pair, on seeded
    operators of degree -1 and 0: combinations of the fixture's i_a and l_a
    of that degree, the same with one entry moved, and a few random entries.
    The verdict and the first failing pair, by label, agree."""
    omega = cdga()
    end = end_dgla(omega.complex)
    t, i = source(), contraction(end)
    l = contraction_cartan(omega, t, i, end=end).l
    sp, rng = omega.space, random.Random(61)
    pool = {-1: [], 0: []}
    for key in t.space.basis():
        for f in (i, l):
            op = end.element_to_map(f.apply(t.space.basis_element(*key)))
            if not op.is_zero() and op.shift in pool:
                pool[op.shift].append(op)
    verdicts = set()
    for _ in range(40):
        s = rng.choice((-1, 0))
        kind = rng.choice(("combination", "moved", "random"))
        terms = [(Q(rng.randint(-2, 2)), op) for op in pool[s]] if kind != "random" else []
        for _ in range(1 if kind == "moved" else 3 if kind == "random" else 0):
            deg = rng.choice([k for k in sp.degrees if sp.dim(k + s)])
            cols = [{} for _ in range(sp.dim(deg))]
            cols[rng.randrange(sp.dim(deg))] = {rng.randrange(sp.dim(deg + s)):
                                                Q(rng.choice((1, -1, 2)))}
            terms.append((Q(1), GradedMap(sp, sp, s, {deg: cols})))
        op = combination(sp, s, terms)
        failures = dense.derivation_failures(omega, op)
        want = [sp.label(*key) for key in failures[0]] if failures else None
        assert _first_non_derivation(omega, op) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_contraction_builds_one_convolution(monkeypatch):
    """contraction_cartan checks i and reads l in one convolution dgla of
    arity 2: one Chevalley-Eilenberg cdga is built."""
    import deforma.convolution as module
    builds, build = [], module.chevalley_eilenberg

    def spy(g, arity_bound):
        builds.append(arity_bound)
        return build(g, arity_bound)

    monkeypatch.setattr(module, "chevalley_eilenberg", spy)
    for omega, t, i_f, filt in contraction_cases():
        end = end_dgla(omega.complex)
        builds.clear()
        assert contraction_cartan(omega, t, i_f(end), f=filt, end=end).report.ok
        assert builds == [2]


# ---------------------------------------------------------------------------
# the flag side on the one-parameter Hodge model

def test_flag_and_end_of_diagram():
    flag = flag_data(F.f6_cdga(), F.f6_filtration())
    assert {d: flag.h_space.dim(d) for d in flag.h_space.degrees} == {0: 1, 1: 2, 2: 1}
    assert flag.f_h.levels() == [1]
    endspace = end_of_flag_diagram(flag)
    assert endspace.levels == [1]
    # the single unknown block is phi_1: F^1 H^1 -> H^1 / F^1 H^1, a 1x1 matrix
    assert [(p, deg, r, c) for (p, deg, r, c) in endspace.layout] == [(1, 1, 1, 1)]
    assert endspace.dimension == 1


def test_period_differential_f6():
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    filt = F.f6_filtration()
    contraction = contraction_cartan(omega, F.f6_dgla(), F.f6_contraction(end),
                                     f=filt, end=end)
    period = period_differential(contraction, filt)
    assert period.source_rank == 1
    # the class of del maps the flag H^1 = <[xi]> to <[xibar]> with matrix 1
    assert period.matrix == [[Q(1)]]
    assert period.families[0] == {(1, 1): [[Q(1)]]}


def test_period_rejects_failing_degeneration():
    omega = F.f5_cdga()
    end = end_dgla(omega.complex)
    contraction = contraction_cartan(omega, F.f5_derivations(),
                                     F.f5_contraction(end), end=end)
    # F^1 = all one-forms: H^0(Omega/F^1) has rank 3 but H^0/F^1 H^0 rank 1,
    # so the degeneration comparison cannot be an isomorphism
    filt = filtration(omega.space, {1: {1: [
        [Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)]]}})
    assert validate_filtration(omega.complex, filt).ok
    # the same error, word for word, as the dense oracle
    for compute in (period_differential, dense.period_differential):
        with pytest.raises(StructuralError, match="^degeneration comparison fails to be "
                                                  "an isomorphism at level 1, degree 0$"):
            compute(contraction, filt)


# ---------------------------------------------------------------------------
# the complex 2-torus: flag blocks that are not square

HOLOMORPHIC = (0, 1)            # xi_1, xi_2; xibar_1, xibar_2 are generators 2, 3


def exterior_monomials(n: int) -> dict[int, list[tuple]]:
    """The monomials of Lambda on n generators by degree, as sorted tuples."""
    return {k: list(itertools.combinations(range(n), k)) for k in range(n + 1)}


def wedge_sign(s: tuple, t: tuple) -> int:
    """e_s ^ e_t = sign e_{s u t} for disjoint s and t: (-1)^(inversions)."""
    return -1 if sum(a > b for a in s for b in t) % 2 else 1


def torus2():
    """The Hodge model of the complex 2-torus, built from its definition:
    Omega = Lambda(xi_1, xi_2, xibar_1, xibar_2) with d = 0, F^p the forms
    of holomorphic degree >= p, KS = Lambda(xibar) (x) span{del_1, del_2}
    abelian with d = 0, and the contraction xibar_J (x) del_i ->
    xibar_J ^ iota_{del_i}."""
    mono = exterior_monomials(4)
    names = "xi1 xi2 xb1 xb2".split()
    space = GradedVectorSpace({k: tuple("*".join(names[g] for g in m) or "1" for m in ms)
                               for k, ms in mono.items()})
    index = {m: i for ms in mono.values() for i, m in enumerate(ms)}
    products = {}
    for a in mono:
        for b in mono:
            if a <= b and a + b <= 4:
                products[a, b] = [[[Q(0)] * len(mono[a + b]) for _ in mono[b]] for _ in mono[a]]
                for i, s in enumerate(mono[a]):
                    for j, t in enumerate(mono[b]):
                        if not set(s) & set(t):
                            products[a, b][i][j][index[tuple(sorted(s + t))]] = Q(wedge_sign(s, t))
    omega = CdgaModel(Complex(space, zero_map(space, space, 1)), products)
    filt = filtration(space, {p: {k: [[Q(int(i == index[m])) for i in range(len(ms))]
                                      for m in ms if len(set(m) & set(HOLOMORPHIC)) >= p]
                                  for k, ms in mono.items()
                                  if any(len(set(m) & set(HOLOMORPHIC)) >= p for m in ms)}
                              for p in (1, 2)})
    # KS basis: xibar_J (x) del_i, J a subset of {xibar_1, xibar_2}, i-major
    anti = exterior_monomials(2)
    ks_basis = {k: [(i, tuple(2 + j for j in js)) for i in HOLOMORPHIC for js in anti[k]]
                for k in anti}
    ks_space = GradedVectorSpace({k: tuple("*".join([names[g] for g in jj] + [f"d{i + 1}"])
                                           for i, jj in b) for k, b in ks_basis.items()})
    ks = abelian_dgla(Complex(ks_space, zero_map(ks_space, ks_space, 1)))
    end = end_dgla(omega.complex)

    def contraction(i: int, jj: tuple) -> GradedMap:
        """e_S -> xibar_J ^ iota_{del_i} e_S, of degree |J| - 1."""
        columns = {}
        for k, ms in mono.items():
            cols = []
            for s in ms:
                col = {}
                if i in s:
                    rest = tuple(x for x in s if x != i)
                    if not set(jj) & set(rest):
                        sign = (-1) ** s.index(i) * wedge_sign(jj, rest)
                        col[index[tuple(sorted(jj + rest))]] = Q(sign)
                cols.append(col)
            if any(cols):
                columns[k] = cols
        return GradedMap(space, space, len(jj) - 1, columns)

    i_map = GradedMap(ks_space, end.space, -1, {
        k: [sparse(end.map_to_element(contraction(i, jj)).get(k - 1, ())) for i, jj in b]
        for k, b in ks_basis.items()})
    return omega, filt, ks, end, i_map, mono, index, ks_basis


def linear_part_of_flow(omega, mono, phi: dict, s: tuple):
    """The part linear in phi of e^{i_phi} e_s = wedge over the generators
    g of s of (g + sum_j phi[g, j] xibar_j) for holomorphic g, g otherwise:
    one holomorphic factor replaced at a time, multiplied out in Omega."""
    unit = lambda g: {1: [Q(int(x == (g,))) for x in mono[1]]}
    out = {}
    for pos, g in enumerate(s):
        if g not in HOLOMORPHIC:
            continue
        moved = {1: [phi.get((g, m[0]), Q(0)) for m in mono[1]]}
        factors = [moved if q == pos else unit(x) for q, x in enumerate(s)]
        out = vec_add(out, functools.reduce(omega.multiply, factors))
    return out


def test_period_differential_of_the_2_torus():
    """The first-order blocks of the period map of the 2-torus, including
    phi_2: F^2 H^2 -> H^2/F^2 of shape 5 x 1, against the closed form
    e^{i_phi} xi_S = wedge_{s in S} (xi_s + sum_j phi_sj xibar_j)."""
    omega, filt, ks, end, i_map, mono, index, ks_basis = torus2()
    assert validate_cdga(omega).ok
    assert validate_filtration(omega.complex, filt).ok
    contraction = contraction_cartan(omega, ks, i_map, f=filt, end=end)
    assert contraction.report.ok and all(contraction.report.notes.values())
    period = period_differential(contraction, filt)
    assert period.source_rank == 4
    flag, hc = period.flag, cohomology(omega.complex)
    layout = {(p, k): (rows, cols) for p, k, rows, cols in period.endspace.layout}
    assert layout[2, 2] == (5, 1)                 # more rows than columns
    reps = cohomology(ks.underlying).representatives(1)
    for rep, family in zip(reps, period.families):
        phi = {(i, jj[0]): c for c, (i, jj) in zip(rep, ks_basis[1])}
        assert set(family) == set(layout)
        for (p, k), (rows, cols) in layout.items():
            want = [[Q(0)] * cols for _ in range(rows)]
            for c, v in enumerate(flag.f_h.step(p).rows(k)):
                cocycle = combine([sparse(r) for r in flag.representatives[k]], v.items())
                image = {}
                for u, x in cocycle.items():
                    image = vec_add(image, vec_scale(x, linear_part_of_flow(
                        omega, mono, phi, mono[k][u])))
                cls = flag.quotients[p].projection.apply(hc.project(image)).get(k, [])
                for r, x in enumerate(cls):
                    want[r][c] = x
            assert family[p, k] == want, (p, k)
            assert sorted(x for row in want for x in row if x) in ([Q(1)], [Q(-1)]), (p, k)


# ---------------------------------------------------------------------------
# the sparse flag side against the dense oracle

def sub_filtrations(filt, count, rng):
    """Seeded decreasing sub-filtrations G^2 inside G^1 of a filtration with
    levels 1 and 2: per degree, G^2 is spanned by a random number of random
    combinations of the rows of F^2, and G^1 by as many of F^1 and G^2."""
    for _ in range(count):
        steps = {}
        for p in (2, 1):
            level = {}
            for k, vecs in filt.step(p).span.items():
                span = [[sum(Q(rng.randint(-2, 2)) * v[i] for v in vecs)
                         for i in range(len(vecs[0]))]
                        for _ in range(rng.randint(0, len(vecs)))]
                span += steps.get(2, {}).get(k, [])     # empty while p is 2
                if span:
                    level[k] = span
            if level:
                steps[p] = level
        yield filtration(filt.space, steps)


def oracle_cases():
    for cdga, source, contraction, filt in (
            (F.f4_cdga, F.f4_derivations, F.f4_contraction, F.f4_degree_filtration),
            (F.f6_cdga, F.f6_dgla, F.f6_contraction, F.f6_filtration)):
        omega = cdga()
        end = end_dgla(omega.complex)
        yield contraction_cartan(omega, source(), contraction(end), end=end), filt()
    omega, filt, ks, end, i_map, *_ = torus2()
    torus = contraction_cartan(omega, ks, i_map, end=end)
    yield torus, filt
    for sub in sub_filtrations(filt, 24, random.Random(23)):
        assert validate_filtration(omega.complex, sub).ok
        yield torus, sub


def assert_flag_matches(omega, filt):
    """flag_data against the oracle: the levels and rows of the induced
    filtration, and per row the cocycle that the oracle combines by
    ``solve``, which has the row as its class and lies in F^p."""
    flag, want = flag_data(omega, filt), dense.flag_data(omega, filt)
    hc = cohomology(omega.complex)
    assert flag.f_h.levels() == want.f_h.levels()
    for p in want.f_h.levels():
        for k in want.h_space.degrees:
            rows = list(flag.f_h.step(p).rows(k))
            cocycles = flag.cocycles[p].get(k, [])
            assert rows == list(want.f_h.step(p).rows(k))
            assert cocycles == dense.flag_cocycles(want, p, k)
            assert [hc.project_row(k, z) for z in cocycles] == rows
            assert all(filt.step(p).coords(k, z) is not None for z in cocycles)


def test_flag_data_matches_the_dense_oracle():
    """Cdgas with exact forms inside the filtration, so that cocycles whose
    classes depend on those before them meet the echelon: F5 with all
    one-forms as F^1 (dx and x dx are exact), F5 with F^1 spanned by
    dx + x^2 dx and x dx + x^2 dx (two cocycles of one nonzero class), and
    F4 with its degree filtration."""
    omega5 = F.f5_cdga()
    one_class = filtration(omega5.space, {1: {1: [[Q(1), Q(0), Q(1)],
                                                  [Q(0), Q(1), Q(1)]]}})
    for omega, filt in ((omega5, F.f5_form_filtration()), (omega5, one_class),
                        (F.f4_cdga(), F.f4_degree_filtration())):
        assert validate_filtration(omega.complex, filt).ok
        assert_flag_matches(omega, filt)


def test_flag_steps_are_the_echelons_of_their_dense_rows():
    """Each step of the induced filtration is held as the echelon flag_data
    built it in; eliminating its rows, densified, gives that echelon again,
    on F4, F5, F6 and the 2-torus."""
    for omega, filt in ((F.f4_cdga(), F.f4_degree_filtration()),
                        (F.f5_cdga(), F.f5_form_filtration()),
                        (F.f6_cdga(), F.f6_filtration()), torus2()[:2]):
        f_h = flag_data(omega, filt).f_h
        assert f_h.levels()
        for p in f_h.levels():
            step = f_h.step(p)
            assert step.echelon == SubSpaceData(step.parent, step.span).echelon, p


def test_period_differential_matches_the_dense_oracle():
    """flag_data, end_of_flag_diagram and period_differential against the
    dense code they replaced, on F4, F6, the 2-torus and 24 seeded
    sub-filtrations of its Hodge filtration: levels, layout, the rows of
    the induced filtration and their cocycles, the end basis, the families
    and the matrix agree."""
    layouts = set()
    for contraction, filt in oracle_cases():
        assert_flag_matches(contraction.omega, filt)
        _, endspace, matrix, families = dense.period_differential(contraction, filt)
        period = period_differential(contraction, filt)
        assert (period.endspace.levels, period.endspace.layout) == (
            endspace.levels, endspace.layout)
        assert period.endspace.basis == endspace.basis
        assert (period.families, period.matrix) == (families, matrix)
        layouts.add(tuple(endspace.layout))
    assert len(layouts) > 20


# ---------------------------------------------------------------------------
# obstruction classes through the quotient of endomorphisms

def f6_xi_line_filtration():
    omega = F.f6_cdga()
    return filtration(omega.space, {1: {1: [[Q(1), Q(0)]]}})


def test_filtered_subdgla_matches_the_dense_span():
    """End^{>=0}, held as the reduced echelon of its kernel, has the
    echelons of the dense route that spans the kernel again, on F4 and on
    the F6 xi-line filtration."""
    for omega, filt in ((F.f4_cdga(), F.f4_degree_filtration()),
                        (F.f6_cdga(), f6_xi_line_filtration())):
        sub, want = filtered_subdgla(omega, filt), dense.filtered_subdgla(omega, filt)
        assert sub.span.echelon == want.span.echelon


def test_obstruction_image_nonzero():
    g = F.f7_dgla()
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    n = filtered_subdgla(omega, f6_xi_line_filtration(), end=end)
    # i_y = (xi -> xi*xibar) does not preserve the line <xi>: nonzero image
    op = GradedMap.from_blocks(omega.space, omega.space, 1, {1: [[Q(1), Q(0)]]})
    col = end.map_to_element(op).get(1, [])
    i = GradedMap.from_blocks(g.space, end.space, -1, {2: [[c] for c in col]})
    ob = SimpleNamespace(classes={"e^2": [Q(1, 2)]})
    image = obstruction_image(g, i, end, n, ob)
    assert not image.vanishes
    assert any(image.classes["e^2"])


def test_obstruction_image_vanishes():
    g = F.f7_dgla()
    omega = F.f6_cdga()
    end = end_dgla(omega.complex)
    n = filtered_subdgla(omega, f6_xi_line_filtration(), end=end)
    # i_y = (xibar -> xi*xibar) preserves the line, hence lands in the sub
    op = GradedMap.from_blocks(omega.space, omega.space, 1, {1: [[Q(0), Q(1)]]})
    col = end.map_to_element(op).get(1, [])
    i = GradedMap.from_blocks(g.space, end.space, -1, {2: [[c] for c in col]})
    ob = SimpleNamespace(classes={"e^2": [Q(1, 2)]})
    assert obstruction_image(g, i, end, n, ob).vanishes
