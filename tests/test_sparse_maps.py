"""Sparse-column graded maps and zero-skipping elements against dense oracles.

``GradedMap`` holds one sparse column per basis vector; ``apply`` and
``compose`` must equal ``dense_reference.matvec``/``matmul`` on the dense
blocks, and the dense view must give back the blocks.  ``tensor_dgla``
writes its d as columns, ``irrelevant_stabilizer`` reads d and the bracket
table instead of bracketing (over the degree -1 basis, or over v (x) m for
a sub-dgla), and ``vec_add``/``vec_scale``/``vec_sub`` skip zero
coordinates; each must equal the dense computation exactly.
"""

import random
from fractions import Fraction as Q

import pytest

import dense_reference as dense
from deforma import fixtures as F
from deforma import linalg
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.dgla import sub_dgla_span, tensor_dgla
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, StructuralError,
                            SubSpaceData, vec_add, vec_scale, vec_sub, zero_map)
from deforma.holim import _interval_forms
from deforma.mc import irrelevant_stabilizer

MC_HOSTS = [(name, k, order) for name in ("F1", "F3", "F4", "F5", "F6")
            for k, order in ((1, 3), (1, 4), (2, 3))]


def entry(rng, density):
    return Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Q(0)


def random_space(rng, degrees, prefix) -> GradedVectorSpace:
    """Dimensions 0-4 per degree; a zero-dimensional degree is left out."""
    return GradedVectorSpace({deg: tuple(f"{prefix}{deg}_{i}" for i in range(dim))
                              for deg in degrees if (dim := rng.randint(0, 4))})


def random_blocks(rng, source, target, shift) -> dict:
    """Dense blocks, some degrees absent; zero rows, zero columns and
    all-zero blocks occur.  A block into a zero-dimensional degree would
    have no rows to carry its column count, so there is none."""
    blocks = {}
    for deg in source.degrees:
        rows, cols = target.dim(deg + shift), source.dim(deg)
        if not rows or rng.random() < 0.2:
            continue
        density = rng.choice((0.0, 0.3, 0.7))
        block = [[entry(rng, density) for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.5:
            block[rng.randrange(rows)] = [Q(0)] * cols
        if cols and rng.random() < 0.5:
            j = rng.randrange(cols)
            for row in block:
                row[j] = Q(0)
        blocks[deg] = block
    return blocks


def columns_of(blocks: dict) -> dict:
    """The nonzero columns of dense blocks, read entry by entry."""
    out = {}
    for deg, block in blocks.items():
        cols = [{r: row[j] for r, row in enumerate(block) if row[j]}
                for j in range(len(block[0]) if block else 0)]
        if any(cols):
            out[deg] = cols
    return out


def random_element(rng, space, density=0.5) -> dict:
    return {deg: [entry(rng, density) for _ in range(space.dim(deg))]
            for deg in space.degrees if rng.random() < 0.8}


def random_map_pair(rng, source, target, shift):
    """The same random map from dense blocks and from their columns."""
    blocks = random_blocks(rng, source, target, shift)
    columns = {deg: [{r: row[j] for r, row in enumerate(block) if row[j]}
                     for j in range(source.dim(deg))]
               for deg, block in blocks.items() if source.dim(deg)}
    return (GradedMap.from_blocks(source, target, shift, blocks), blocks,
            GradedMap(source, target, shift, columns))


def test_apply_and_compose_match_dense_products():
    rng = random.Random(8)
    for _ in range(200):
        degrees = range(-2, 3)
        u, v, w = (random_space(rng, degrees, p) for p in "uvw")
        s1, s2 = rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))
        f, f_blocks, f_cols = random_map_pair(rng, v, w, s1)
        g, g_blocks, g_cols = random_map_pair(rng, u, v, s2)

        # dense input becomes columns, and the view is built back from them
        assert f.columns == f_cols.columns == columns_of(f_blocks)
        assert f.blocks == f_cols.blocks == {deg: b for deg, b in f_blocks.items()
                                             if deg in f.columns}
        assert all(f_cols.block(deg) == f.block(deg) for deg in v.degrees)
        assert f.is_zero() == (not columns_of(f_blocks))

        for x in (random_element(rng, v), random_element(rng, v, 0.1), {}):
            want = dense.apply(f, x)
            assert f.apply(x) == f_cols.apply(x) == want
            assert all(type(c) is Q for vec in f.apply(x).values() for c in vec)

        fg = f.compose(g)
        assert fg.blocks == f_cols.compose(g_cols).blocks == dense.compose(f, g)
        assert (fg.source, fg.target, fg.shift) == (u, w, s1 + s2)
        x = random_element(rng, u)
        assert fg.apply(x) == dense.apply(f, dense.apply(g, x))
        assert f.add(f.scale(Q(-1))).is_zero()
        assert f.scale(Q(2)).blocks == {deg: [[2 * c for c in row] for row in b]
                                        for deg, b in f.blocks.items() if deg in f.columns}


def test_map_shape_errors():
    sp = GradedVectorSpace({0: ("a", "b"), 1: ("c",)})
    one = GradedVectorSpace({0: ("a",), 1: ("c",)})
    f = GradedMap.from_blocks(sp, sp, 1, {0: [[Q(1), Q(2)]]})
    with pytest.raises(ValueError, match="shape mismatch"):
        f.apply({0: [Q(1)]})
    assert f.apply({0: [Q(0)]}) == {}                 # a zero vector is not read
    g = GradedMap.from_blocks(one, one, 0, {0: [[Q(1)]]})
    with pytest.raises(ValueError, match="shape mismatch"):
        f.compose(g)                                  # V_0 has 2 dims, one's has 1
    with pytest.raises(StructuralError, match="block at degree 0 has shape 1x1"):
        GradedMap.from_blocks(sp, sp, 1, {0: [[Q(1)]]})
    with pytest.raises(StructuralError, match="block at degree 0 has shape 2x2"):
        GradedMap.from_blocks(sp, sp, 1, {0: [[Q(1), Q(0)], [Q(0), Q(1)]]})
    with pytest.raises(StructuralError, match="columns at degree 0"):
        GradedMap(sp, sp, 1, {0: [{0: Q(1)}]})                   # one column of two
    with pytest.raises(StructuralError, match="columns at degree 0"):
        GradedMap(sp, sp, 1, {0: [{1: Q(1)}, {}]})               # row out of range
    with pytest.raises(StructuralError, match="columns at degree 0"):
        GradedMap(sp, sp, 1, {0: [{0: Q(0)}, {}]})               # a stored zero
    with pytest.raises(StructuralError, match="columns at degree 0"):
        GradedMap(sp, sp, 1, {0: [[Q(1), Q(2)]]})                # a dense block
    assert GradedMap(sp, sp, 1, {0: [{}, {}]}).is_zero()
    assert zero_map(sp, sp, 1).blocks == {} and zero_map(sp, sp).apply({0: [Q(1), Q(1)]}) == {}


def test_empty_blocks_are_read_by_shape():
    # [] is no columns to GradedMap and a block with no rows to from_blocks;
    # both forms of a 1x0 and of a 0x1 map give the zero map with the right
    # dense shape
    none, one = GradedVectorSpace({}), GradedVectorSpace({0: ("a",)})
    for f in (GradedMap(none, one, 0, {0: []}),                  # 1x0: columns, dense
              GradedMap.from_blocks(none, one, 0, {0: [[]]})):
        assert f.is_zero() and f.block(0) == [[]] and f.apply({}) == {}
    for f in (GradedMap(one, none, 0, {0: [{}]}),                # 0x1: columns, dense
              GradedMap.from_blocks(one, none, 0, {0: []})):
        assert f.is_zero() and f.block(0) == [] and f.apply({0: [Q(1)]}) == {}
    with pytest.raises(StructuralError, match="block at degree 0 has shape 0x0, expected 1x0"):
        GradedMap.from_blocks(none, one, 0, {0: []})
    with pytest.raises(StructuralError, match="block at degree 0 has shape 0x1, expected 1x1"):
        GradedMap.from_blocks(one, one, 0, {0: []})
    with pytest.raises(StructuralError, match="columns at degree 0: expected 1 columns"):
        GradedMap(one, one, 0, {0: []})


def test_d_squared_message_on_perturbed_d():
    sp = GradedVectorSpace({0: ("a",), 1: ("b",), 2: ("c",)})
    with pytest.raises(StructuralError, match=r"^d\^2 != 0 starting in degrees \[0\]$"):
        Complex(sp, GradedMap.from_blocks(sp, sp, 1, {0: [[Q(1)]], 1: [[Q(1)]]}))
    # perturb one nonzero entry of a tensor differential: d^2 fails exactly in
    # the degrees where the dense product of the perturbed blocks is nonzero
    rng = random.Random(3)
    failures = 0
    for name in ("F3", "F5"):
        ng = tensor_nilpotent(F.fixture_dgla(name), truncated_polynomial_algebra(1, 3))
        cx = ng.dgla.underlying
        for _ in range(5):
            blocks = {deg: [row[:] for row in b] for deg, b in cx.differential.blocks.items()}
            deg = rng.choice(sorted(blocks))
            r, c = rng.choice([(r, c) for r, row in enumerate(blocks[deg])
                               for c, x in enumerate(row) if x])
            blocks[deg][r][c] += Q(rng.choice((-1, 1)), rng.randint(1, 3))
            d = GradedMap.from_blocks(cx.space, cx.space, 1, blocks)
            bad = sorted(dense.compose(d, d))
            if not bad:
                assert Complex(cx.space, d).differential is d
                continue
            with pytest.raises(StructuralError) as err:
                Complex(cx.space, d)
            assert str(err.value) == f"d^2 != 0 starting in degrees {bad}"
            failures += 1
    assert failures >= 5


@pytest.mark.parametrize("name", F.FIXTURE_NAMES)
def test_tensor_differential_columns_match_dense_tables(name):
    g = F.fixture_dgla(name)
    cdgas = [truncated_polynomial_algebra(k, order).cdga
             for k, order in ((1, 3), (1, 5), (2, 3))] + [_interval_forms(2)]
    for a in cdgas:
        d = tensor_dgla(g, a, (0,) * len(a.table)).dgla.underlying.differential
        ref = dense.tensor_tables(g, a)[0].differential
        assert d.columns == columns_of(ref.blocks)
        assert d.blocks == ref.blocks


@pytest.mark.parametrize("name,k,order", MC_HOSTS)
def test_irrelevant_stabilizer_matches_dense_loop(name, k, order):
    ng = tensor_nilpotent(F.fixture_dgla(name), truncated_polynomial_algebra(k, order))
    rng = random.Random(f"{name} {k} {order}")
    dim1 = ng.space.dim(1)
    xs = [{}]
    for nonzeros in (1, 3, dim1):
        v = [Q(0)] * dim1
        for t in rng.sample(range(dim1), min(nonzeros, dim1)):
            v[t] = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        if any(v):
            xs.append({1: v})
    # a sub-dgla spanned by one or two random degree -1 vectors of the base
    # (the stabilizer does not need it to be closed), where there are any
    dim = ng.g.space.dim(-1)
    subs = [sub_dgla_span(ng.g, {-1: [[entry(rng, 0.6) for _ in range(dim)]
                                         for _ in range(rng.randint(1, 2))]})] if dim else []
    for x in xs:
        for sub in [None] + subs:
            got = irrelevant_stabilizer(ng, x, sub)
            assert got == dense.irrelevant_stabilizer(ng, x, sub)
            assert all(type(c) is Q for g in got for v in g.values() for c in v)


def dense_add(x, y, sign=1):
    out = {}
    for deg in list(x) + [d for d in y if d not in x]:
        n = len(x.get(deg, y.get(deg)))
        xv, yv = x.get(deg, [Q(0)] * n), y.get(deg, [Q(0)] * n)
        v = [a + sign * b for a, b in zip(xv, yv)]
        if any(v):
            out[deg] = v
    return out


def test_vector_arithmetic_matches_dense_loops():
    rng = random.Random(11)
    for _ in range(300):
        dims = {deg: rng.randint(1, 6) for deg in range(-1, 3)}
        x = {d: [entry(rng, 0.4) for _ in range(n)] for d, n in dims.items() if rng.random() < 0.7}
        y = {d: [entry(rng, 0.4) for _ in range(n)] for d, n in dims.items() if rng.random() < 0.7}
        if x and rng.random() < 0.3:                  # cancellation
            deg = rng.choice(sorted(x))
            y[deg] = [-c for c in x[deg]]
        c = rng.choice((Q(0), Q(1), Q(-1), Q(rng.randint(-5, 5), rng.randint(1, 4))))
        got = [vec_add(x, y), vec_sub(x, y), vec_scale(c, x)]
        want = [dense_add(x, y), dense_add(x, y, -1),
                {d: [c * a for a in v] for d, v in x.items()} if c else {}]
        assert got == want
        for vec in got:
            assert all(type(a) is Q for v in vec.values() for a in v)
        assert x == {d: v for d, v in x.items()}      # inputs are not modified


def test_kernel_is_in_echelon_form():
    rng = random.Random(4)
    for _ in range(50):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        a = [[entry(rng, 0.5) for _ in range(cols)] for _ in range(rows)]
        rows_ = [linalg.sparse(row) for row in a]
        kernel, free = linalg.kernel(rows_, cols)
        basis = [linalg.dense(v, cols) for v in kernel]
        assert kernel == linalg.nullspace(rows_, cols)
        assert basis == dense.nullspace(a, cols)
        assert all(v[c] == (1 if i == j else 0)
                   for i, v in enumerate(basis) for j, c in enumerate(free))
        parent = GradedVectorSpace({0: tuple(f"e{i}" for i in range(cols))})
        seeded = SubSpaceData.from_echelon(parent, {0: (kernel, free)})
        ordinary = SubSpaceData(parent, {0: basis})
        assert seeded.dim(0) == ordinary.dim(0) == len(basis)
        for _ in range(3):
            coeffs = [entry(rng, 0.7) for _ in basis]
            v = [sum((c * b[t] for c, b in zip(coeffs, basis)), Q(0)) for t in range(cols)]
            assert seeded.coords(0, linalg.sparse(v)) == linalg.sparse(coeffs)
            assert ordinary.contains({0: v})
            w = v[:]
            w[rng.randrange(cols)] += 1
            w = linalg.sparse(w)
            assert (seeded.coords(0, w) is None) == (ordinary.coords(0, w) is None)
