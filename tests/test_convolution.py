"""Convolution algebra of maps between dglas, h (x) CE_{<=N}(g).

The Koszul-sign regime is pinned by executable constraints (D squared is
zero, graded Jacobi on truncated slices, the CE cdga axioms, and the strict
characterization of morphisms); the regression values frozen here and the
entry-by-entry comparison with the hand-written Hom calculus in
``dense_reference`` keep it from drifting.
"""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import dense_reference as dense
from deforma import fixtures as F
from deforma.cartan import gauge_zero_transport
from deforma.convolution import (canonical_tuples, ce_words, chevalley_eilenberg,
                                 convolution, from_linear, hom_dgla_slice,
                                 linear_part, linf_residual, strict_embed, taylor,
                                 taylor_from_linear, v_basis)
from deforma.dgla import (DglaMorphism, abelian_dgla, identity_morphism, validate_cdga,
                          validate_dgla)
from deforma.endo import end_dgla
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, StructuralError,
                            identity_map, vec_eq, vec_is_zero, vec_scale, vec_sub,
                            zero_map)
from deforma.mc import mc_residue


# ---------------------------------------------------------------------------
# frozen sign regressions

def test_frozen_signs_on_square_zero_host():
    """x in degree 1 with [x,x] = y pins the differential and bracket signs:
    in Hom(F7, F7)@2 the arity-2 part of d(id) is -1 on y (x) xi^[xx] and
    [id, id] is 2 there."""
    g = F.f7_dgla()
    conv = convolution(g, g, 2)
    f = from_linear(g, conv, identity_map(g.space))
    d = conv.dgla.d(f)
    assert taylor(g, conv, d) == {2: {((1, 0), (1, 0)): {2: [Q(-1)]}}}
    assert 1 not in taylor(g, conv, d)       # d = 0 on both sides
    br = conv.dgla.bracket(f, f)
    assert taylor(g, conv, br) == {2: {((1, 0), (1, 0)): {2: [Q(2)]}}}
    # identity is a dgla morphism: MC residual d(f) + 1/2 [f,f] vanishes
    assert vec_is_zero(mc_residue(conv.dgla, f))


def test_frozen_cartan_signs():
    """i_x = e00 + e11 into End(K -> K): l = d10(i) = 0 and d01(i) = 0."""
    g = F.f7_dgla()
    h = F.f3_end().dgla
    conv = convolution(g, h, 2)
    i = GradedMap.from_blocks(g.space, h.space, -1, {1: [[Q(1)], [Q(1)]]})
    ie = from_linear(g, conv, i)
    assert set(ie) == {0}                # bidegree (-1, 1): total degree 0
    # one value, at the word x: e00 + e11 in h's flat coordinates
    at = ce_words(g, 2).index(((1, 0),))
    assert conv.split(conv.dgla.table.flat(ie)) == {at: h.table.flat({0: [Q(1), Q(1)]})}
    assert vec_is_zero(conv.dgla.d(ie))


def test_odd_repeat_tuples_vanish():
    # a degree-0 basis vector has odd shifted degree: (v, v) is not a tuple
    g = F.f2_dgla()
    assert dense.canonicalize(((0, 1), (0, 1)), g) is None
    keys2 = canonical_tuples(g, 2)
    assert all(len(set(k)) == 2 for k in keys2)


def test_even_repeats_allowed():
    g = F.f1_dgla()   # degree 1 -> even shifted degree
    assert list(canonical_tuples(g, 2)) == [((1, 0), (1, 0))]


# ---------------------------------------------------------------------------
# structural invariants

def _random_element(conv, rng):
    out = {}
    for deg in conv.space.degrees:
        v = [Q(rng.randint(-2, 2)) if rng.random() < 0.6 else Q(0)
             for _ in range(conv.space.dim(deg))]
        if any(v):
            out[deg] = v
    return out


@pytest.mark.parametrize("pair", [("F1", "F1"), ("F2", "F2"), ("F7", "F3")])
def test_total_d_squares_to_zero(pair):
    g = F.fixture_dgla(pair[0])
    h = F.fixture_dgla(pair[1])
    conv = convolution(g, h, 3)
    rng = random.Random(hash(pair) & 0xFFFF)
    for _ in range(8):
        a = _random_element(conv, rng)
        assert vec_is_zero(conv.dgla.d(conv.dgla.d(a)))


def test_hom_slice_is_dgla():
    s = hom_dgla_slice(F.f1_dgla(), F.f1_dgla(), 4)
    assert validate_dgla(s).ok


def test_antisymmetry_of_values_under_transposition():
    g = F.f2_dgla()
    conv = convolution(g, g, 3)
    ce = chevalley_eilenberg(g, 2)
    rng = random.Random(5)
    e = _random_element(conv, rng)
    values = taylor(g, conv, e)[2]
    assert values
    for (a, b), forward in values.items():
        # degree-0 inputs have odd shifted degree: swapping them flips sign
        keys, sign = dense.canonicalize((b, a), g)
        assert keys == (a, b) and sign == -1
        backward = vec_scale(Q(sign), forward)
        assert vec_is_zero(vec_sub(forward, vec_scale(Q(-1), backward)))
        # the same sign is the graded commutativity of the odd xi_a, xi_b
        xa, xb = ce.space.basis_element(1, a[1]), ce.space.basis_element(1, b[1])
        ab, ba = ce.multiply(xa, xb), ce.multiply(xb, xa)
        assert not vec_is_zero(ab) and vec_eq(ab, vec_scale(Q(-1), ba))


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "F6", "F7"])
def test_chevalley_eilenberg_is_a_cdga(name):
    g = F.fixture_dgla(name)
    for n in (1, 2, 3):
        assert validate_cdga(chevalley_eilenberg(g, n)).ok, (name, n)


# ---------------------------------------------------------------------------
# the closed-form CE cdga against the generic symbolic builder

def abelian_host(dims: dict[int, int]):
    """The abelian dgla with d = 0 on a graded space of these dimensions."""
    space = GradedVectorSpace({k: tuple(f"v{k}_{i}" for i in range(n))
                               for k, n in dims.items()})
    return abelian_dgla(Complex(space, zero_map(space, space, 1)))


def torus_ks(n: int):
    """The Kodaira-Spencer dgla of the complex n-torus as a graded space,
    Lambda^k(xibar) (x) span{del_i} in degree k; abelian with d = 0 (the
    ``ks`` of test_period.torus2 for n = 2)."""
    return abelian_host({k: n * math.comb(n, k) for k in range(n + 1)})


CE_HOSTS = ([(name, n) for name in ("F1", "F2", "F3", "F6", "F7", "Der F5")
             for n in (1, 2, 3, 4)] + [(name, n) for name in ("F4", "F5") for n in (1, 2)]
            + [("torus 2", n) for n in (1, 2, 3)] + [("torus 3", 2)])


@pytest.mark.parametrize("name,arity", CE_HOSTS)
def test_chevalley_eilenberg_matches_the_symbolic_builder(name, arity):
    """Same basis and labels, the same d columns and table rows as the
    builder that multiplied words by unshuffle sums; every constant an int
    where it is integral."""
    g = (F.f5_derivations() if name == "Der F5" else torus_ks(int(name[-1]))
         if name.startswith("torus") else F.fixture_dgla(name))
    new, old = chevalley_eilenberg(g, arity), dense.chevalley_eilenberg(g, arity)
    assert new.space.components == old.space.components
    assert new.complex.differential.columns == old.complex.differential.columns
    assert [new.table.row(a) for a in range(len(new.table))] == [
        old.table.row(a) for a in range(len(old.table))]
    constants = [c for cols in new.complex.differential.columns.values() for col in cols
                 for c in col.values()]
    constants += [c for a in range(len(new.table)) for s in new.table.row(a).values()
                  for c in s.values()]
    assert all((type(c) is int) == (Q(c).denominator == 1) for c in constants)


MIXED = abelian_host({0: 2, 1: 2, 2: 1})      # g[1]-degrees -1, 0 and 1
MIXED_ARITY = 5
MIXED_CE = chevalley_eilenberg(MIXED, MIXED_ARITY)
MIXED_AT = {w: t for t, w in enumerate(ce_words(MIXED, MIXED_ARITY))}
_keys = st.lists(st.sampled_from(v_basis(MIXED)), min_size=1, max_size=MIXED_ARITY - 1)


@given(_keys, _keys)
@settings(max_examples=200, deadline=None)
def test_word_product_is_the_unshuffle_sum(a, b):
    """xi^[A] xi^[B] in the table is the signed sum over the position sets
    of sorted(A + B) that read A, on words of even and odd keys with
    repeated even keys."""
    a, b = tuple(sorted(a)), tuple(sorted(b[:MIXED_ARITY - len(a)]))
    assume(a in MIXED_AT and b in MIXED_AT)
    want = dense.word_product(a, b, MIXED, MIXED_ARITY)
    got = MIXED_CE.table.row(MIXED_AT[a]).get(MIXED_AT[b])
    assert got == (want and {MIXED_AT[want[0]]: want[1]})


# ---------------------------------------------------------------------------
# the slice against the hand-written Hom calculus

ORACLE_PAIRS = [
    ("F1", "F1", 4), ("F2", "F2", 4), ("F3", "F3", 3), ("F7", "F7", 3),
    ("F7", "F7", 5), ("F3", "F2", 3), ("F2", "F3", 3), ("F7", "F3", 3),
    ("F3", "F7", 3), ("F6", "F6", 3), ("F6", "F3", 4), ("F1", "F3", 4),
    ("Der F5", "End F5", 4)]


def _pair(source, target):
    if source == "Der F5":
        return F.f5_derivations(), end_dgla(F.f5_cdga().complex).dgla
    return F.fixture_dgla(source), F.fixture_dgla(target)


def _oracle_positions(g, conv, oracle):
    """Slice (degree, position) -> oracle position, matched by label:
    e_k (x) xi^[A] is the oracle's "(A)->e_k", with no sign."""
    perm, h, words = {}, conv.g, ce_words(g, max(conv.weight))
    labels = {k: {lbl: pos for pos, lbl in enumerate(oracle.space.labels(k))}
              for k in conv.space.degrees}
    assert all(len(labels[k]) == conv.space.dim(k) for k in labels)
    for t, (v, j) in enumerate(dense.tensor_factors(conv)):
        k, pos = conv.dgla.table.position[t]
        glabels = "^".join(g.label(*key) for key in words[j])
        perm[k, pos] = labels[k][f"({glabels})->{h.label(*h.table.position[v])}"]
    return perm


@pytest.mark.parametrize("source,target,arity", ORACLE_PAIRS)
def test_slice_matches_dense_tables(source, target, arity):
    g, h = _pair(source, target)
    dense.assert_same_tables(hom_dgla_slice(g, h, arity),
                             *dense.tensor_tables(h, chevalley_eilenberg(g, arity)))


@pytest.mark.parametrize("source,target,arity", ORACLE_PAIRS)
def test_slice_matches_oracle(source, target, arity):
    g, h = _pair(source, target)
    conv = convolution(g, h, arity)
    oracle = dense.hom_dgla_slice(g, h, arity)
    new = hom_dgla_slice(g, h, arity)
    assert new.space.components == conv.space.components
    assert new.brackets == conv.dgla.brackets
    perm = _oracle_positions(g, conv, oracle)
    for k in new.space.degrees:
        block, ref = new.underlying.differential.block(k), oracle.underlying.differential.block(k)
        for r in range(new.space.dim(k + 1)):
            for c in range(new.space.dim(k)):
                assert block[r][c] == ref[perm[k + 1, r]][perm[k, c]]
    nt, ot = new.table, oracle.table

    def flat(a):
        k, i = nt.position[a]
        return ot.offset[k] + perm[k, i]

    for a in range(len(nt)):
        row = {flat(b): {flat(x): c for x, c in e.items()}
               for b, e in nt.row(a).items()}
        assert row == ot.row(flat(a))


def _random_map(g, h, shift, rng):
    blocks = {}
    for k in g.space.degrees:
        rows, cols = h.space.dim(k + shift), g.space.dim(k)
        if rows:
            blocks[k] = [[Q(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
    return GradedMap.from_blocks(g.space, h.space, shift, blocks)


@pytest.mark.parametrize("source,target,arity", ORACLE_PAIRS)
def test_transport_and_residual_match_oracle(source, target, arity):
    g, h = _pair(source, target)
    conv = convolution(g, h, arity)
    rng = random.Random(arity * 101 + len(source + target))
    for _ in range(3):
        i = _random_map(g, h, -1, rng)
        got = taylor(g, conv, gauge_zero_transport(g, conv, i))
        want = dense.extract_taylor(dense.gauge_zero_transport(g, h, i, arity))
        assert set(got) == {n for n, c in want.coefficients.items() if not c.is_zero()}
        for n, values in got.items():
            ref = want.coefficients[n].prune().values
            assert set(values) == set(ref)
            assert all(vec_eq(values[w], ref[w]) for w in values)
        f = _random_map(g, h, 0, rng)
        got = linf_residual(g, conv, taylor_from_linear(g, conv, f))
        want = dense.linf_residual(dense.taylor_from_linear(g, h, f, arity))
        assert set(got) == {n for n, c in want.items() if not c.is_zero()}
        for n, values in got.items():
            ref = want[n].prune().values
            assert set(values) == set(ref)
            assert all(vec_eq(values[w], ref[w]) for w in values)


# ---------------------------------------------------------------------------
# MC <-> L-infinity correspondence

def _random_linf(conv, rng):
    v = [Q(rng.randint(-2, 2)) for _ in range(conv.space.dim(1))]
    return {1: v} if any(v) else {}


@pytest.mark.parametrize("name", ["F1", "F2"])
def test_mc_iff_linf(name):
    g = F.fixture_dgla(name)
    conv = convolution(g, g, 3)
    rng = random.Random(17)
    seen_nonzero = False
    for _ in range(25):
        fam = _random_linf(conv, rng)
        left = not linf_residual(g, conv, fam)
        right = vec_is_zero(mc_residue(conv.dgla, fam))
        assert left == right
        seen_nonzero = seen_nonzero or not left
    if name == "F2":
        # abelian F1 makes every family a morphism; F2 must exercise both sides
        assert seen_nonzero


def test_linf_residual_builds_the_wider_convolution_once(monkeypatch):
    # the 25 calls of test_mc_iff_linf on F2: one arity-4 build for the record,
    # and each residual equal to the one on a fresh record
    import deforma.convolution as module
    g = F.f2_dgla()
    conv = convolution(g, g, 3)
    rng = random.Random(17)
    families = [_random_linf(conv, rng) for _ in range(25)]
    builds = []

    def spy(g_, h, arity_bound=4):
        builds.append(arity_bound)
        return convolution(g_, h, arity_bound)

    monkeypatch.setattr(module, "convolution", spy)
    got = [linf_residual(g, conv, fam) for fam in families]
    assert builds == [4]
    monkeypatch.undo()
    for fam, residual in zip(families, got):
        assert residual == linf_residual(g, convolution(g, g, 3), fam)
    assert any(got)


def test_strict_embed_zero_residual():
    g = F.f2_dgla()
    conv = convolution(g, g)
    emb = strict_embed(conv, identity_morphism(g))
    assert linf_residual(g, conv, emb) == {}


def test_strict_embed_rejects_non_morphism():
    g = F.f2_dgla()
    t = GradedMap.from_blocks(g.space, g.space, 0, {0: [
        [Q(1), Q(0), Q(0), Q(0)],
        [Q(0), Q(0), Q(1), Q(0)],
        [Q(0), Q(1), Q(0), Q(0)],
        [Q(0), Q(0), Q(0), Q(1)]]})
    with pytest.raises(StructuralError):
        strict_embed(convolution(g, g), DglaMorphism(g, g, t))


def test_bracket_defect_is_the_arity_two_residual():
    g = F.f2_dgla()
    conv = convolution(g, g)
    rng = random.Random(23)
    for _ in range(10):
        blk = [[Q(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        f = GradedMap.from_blocks(g.space, g.space, 0, {0: blk})
        res = linf_residual(g, conv, taylor_from_linear(g, conv, f))
        assert set(res) <= {2}
        r2 = res.get(2, {})
        for i in range(4):
            for j in range(i + 1, 4):
                a = g.space.basis_element(0, i)
                b = g.space.basis_element(0, j)
                got = r2.get(((0, i), (0, j)), {})
                want = vec_sub(f.apply(g.bracket(a, b)),
                               g.bracket(f.apply(a), f.apply(b)))
                assert vec_is_zero(vec_sub(got, want))


def test_extract_taylor_roundtrip():
    g = F.f2_dgla()
    conv = convolution(g, g, 3)
    rng = random.Random(29)
    words, t = ce_words(g, 3), conv.dgla.table
    for _ in range(10):
        fam = _random_linf(conv, rng)
        coefficients = taylor(g, conv, fam)
        assert all(len(w) == n for n, vals in coefficients.items() for w in vals)
        merged = {w: v for vals in coefficients.values() for w, v in vals.items()}
        parts = conv.split(t.flat(fam))
        assert merged == {words[j]: g.table.graded(s) for j, s in parts.items()}
        at = {w: j for j, w in enumerate(words)}
        assert vec_eq(t.graded(conv.join({at[w]: g.table.flat(v)
                                          for w, v in merged.items()})), fam)


def test_extract_taylor_rejects_wrong_degree():
    g = F.f7_dgla()
    conv = convolution(g, g, 3)
    # y (x) xi_x, the map x -> y of bidegree (1,1), has total degree 2, not
    # the Maurer-Cartan degree 1
    at = ce_words(g, 3).index(((1, 0),))
    stray = conv.dgla.table.graded(conv.join({at: g.table.flat({2: [Q(1)]})}))
    assert set(stray) == {2}
    with pytest.raises(StructuralError):
        linf_residual(g, conv, stray)


def test_element_helpers_reject_another_source():
    # the words of CE(F7) are not those of CE(F2), so reading an element of
    # Hom(F2, F2) as one of Hom(F7, F2) is refused
    g = F.f2_dgla()
    conv = convolution(g, g, 2)
    x = from_linear(g, conv, identity_map(g.space))
    for call in (lambda: taylor(F.f7_dgla(), conv, x),
                 lambda: linear_part(F.f7_dgla(), conv, x, 0),
                 lambda: linf_residual(F.f7_dgla(), conv, x)):
        with pytest.raises(StructuralError, match="of the given source"):
            call()
    # CE(F1) has fewer words than CE(F7); F1's one basis vector is one of F7's
    conv = convolution(F.f7_dgla(), F.f3_end().dgla, 2)
    for call in (lambda: taylor(F.f1_dgla(), conv, {}),
                 lambda: from_linear(F.f1_dgla(), conv, zero_map(F.f1_dgla().space,
                                                                 conv.g.space, -1))):
        with pytest.raises(StructuralError, match="not a convolution dgla of the given source"):
            call()


def test_readers_use_the_words_of_the_build(monkeypatch):
    """The record keeps the CE words and the arity it was built at, so
    taylor, from_linear and linear_part list no words, and linf_residual
    lists only those of its one wider build."""
    import deforma.convolution as module
    g = F.f2_dgla()
    conv = convolution(g, g, 2)
    assert (conv.words, conv.arity) == (ce_words(g, 2), 2)
    listed, real = [], module.ce_words
    monkeypatch.setattr(module, "ce_words", lambda g_, n: listed.append(n) or real(g_, n))
    x = from_linear(g, conv, identity_map(g.space))
    assert taylor(g, conv, x) and not linear_part(g, conv, x, 0).is_zero()
    assert linf_residual(g, conv, x) == linf_residual(g, conv, x) == {}
    assert listed == [3]
    assert conv.wider[g][0].arity == 3


def test_linear_roundtrip():
    g = F.f2_dgla()
    conv = convolution(g, g, 2)
    f = identity_map(g.space)
    back = linear_part(g, conv, from_linear(g, conv, f), 0)
    assert all(back.block(d) == f.block(d) for d in g.space.degrees)
