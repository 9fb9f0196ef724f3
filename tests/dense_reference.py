"""Dense reference implementations of the bracket, the axiom sweep,
m_A and g (x) m_A, the interval forms and the exact linear algebra of
subspaces.

The bracket oracles read ``g.brackets`` coordinate by coordinate, with no
use of the sparse table.  ``g`` is a ``Dgla`` (whose ``brackets`` is the
dense view computed back from its table) or a ``DenseDgla``, which holds the
raw dense tables that went into a ``Dgla`` and so checks their conversion
too.  They are the oracle for ``Dgla.bracket``, ``Dgla.pair_bracket`` and
``validate_dgla`` in test_sparse_kernel.py and test_axiom_sweeps.py, and
for ``tensor_nilpotent`` in test_artin.py.  ``assert_table_holds_dense``
checks a table against the raw dense tables it was built from, cell by
cell.  ``validate_cdga`` is the
dense sweep of a cdga's axioms over every ordered pair and triple, the
oracle for ``dgla.validate_cdga`` in test_artin.py and test_axiom_sweeps.py.
``derivation_failures`` is the dense Leibniz loop for an operator of any
degree, the oracle for ``period._first_non_derivation``, the sweep that
``period.contraction_cartan`` runs on each i_a, in test_period.py.

``check_nilpotency`` is the word walk that ``validate_artin`` did before
it computed the powers of m, the oracle for its nilpotency witnesses in
test_artin.py.  ``artin_table`` is the dense monomial table that ``ArtinAlgebra`` held
before m_A became a sparse cdga, and ``interval_forms`` the dense builder
of the polynomial forms on [0, 1].  They are the oracle for
``truncated_polynomial_algebra`` in test_artin.py and for
``holim._interval_forms`` in test_sparse_tables.py.  ``tensor_nilpotent``
reads ``artin_table`` in place of the algebra's own table.

``validate_morphism`` checks bracket compatibility one basis pair at a
time on GVecs, as ``dgla.validate_morphism`` did before it read (D, N)
rows; it is the oracle for it in test_sparse_kernel.py.

The product layouts are enumerated here as pair lists, independent of
``dgla.ProductLayout``: ``tensor_basis`` lists the pairs of g (x) A by
total degree, ``end_index`` the (source degree, source index, target
index) triples of End(C), with "v@a" and "src>dst" labels
(``tensor_space``, ``end_space``), and ``tensor_factors`` and
``end_pairs`` give the factor pair of every flat position.
``tensor_construction`` and ``end_construction`` are ``tensor_dgla`` and
``end_dgla`` as they were built on those pairs, each position found in a
dict.  They are the oracle for the layout in test_tensor_record.py.

The table oracles build dense bracket tables the way the constructors did
before they wrote only nonzeros, on the enumerated pairs:
``tensor_tables`` fills one dense vector per pair of tensor basis vectors,
and ``end_tables`` composes two dense elementary maps per pair.  They are
the oracle for ``tensor_dgla``, ``path_dgla``, ``hom_dgla_slice`` and
``end_dgla`` in test_sparse_tables.py and test_convolution.py.

The map oracles are the dense matrix products that ``GradedMap`` used
before it held sparse columns: ``matvec`` and ``matmul`` on its dense
blocks, as ``apply`` and ``compose``, and ``differential_columns``, d read
off those blocks.  ``irrelevant_stabilizer`` is the former loop that made
d e_i from a column of the dense d block and one bracket per e_i.  They are
the oracle for ``GradedMap``, ``tensor_dgla``'s d and
``mc.irrelevant_stabilizer`` in test_sparse_maps.py and test_mc_kernels.py.

The Maurer-Cartan oracles are the kernels of ``mc`` as they computed on
dense ``GVec`` coordinate lists, with ``vec_add``/``vec_sub``/``vec_scale``
and one dense weight slice per stage: ``mc_residue``, ``gauge_act`` (the
terms of ``ad_exp_terms`` summed by ``vec_add``), ``gauge_equivalent``,
``mc_obstruction``/``mc_extend`` and ``pi1_multiply`` through the GVec
Varadarajan recursion ``bch``; ``gauge_terms`` is the series that
``gauge_path``'s p-coefficients follow.  ``solve_d`` is the weight-stage
solve that assembled a slice of d and called ``linalg.solve`` on it, the
oracle for the per-monomial solve against one reduction of the base d.
They are the oracle for the (D, N) kernels in test_mc_kernels.py.

The linear-algebra oracles do one elimination per vector: an ``rref`` that
rewrites whole rows, greedy ``in_span`` loops for cohomology
representatives and complements, and sub-dgla coordinates by ``solve``.
They are the oracle for ``linalg.rref``, ``cohomology``,
``quotient_complex`` and ``restrict_to_sub`` in test_elimination.py.

The path oracle is the pointwise calculus of paths that ``holim`` kept
before paths became elements of ``holim.path_dgla``: ``PathElement`` holds
p(t) + q(t) dt as coefficient lists with no cut, and ``path_d``,
``path_bracket``, ``eval_p`` and ``integral_q`` act on those lists.
``to_coords`` and ``to_path`` carry a path into and out of the path dgla.
They are the oracle for ``path_dgla``'s d and bracket and for the readers
``holim.at_zero``, ``at_one`` and ``integral_dt`` in test_holim.py and
test_mc.py.

The holim oracles work inside ``holim.path_dgla(h, D)``.
``holim_constraints`` are the rows of the two conditions that cut the
bounded holim complex out of it, ``holim_rows`` is the basis A, B, C that
``holim.holim_bounded`` uses, written in the path dgla's coordinates from
its definition, and ``holim_by_kernel`` is the route ``holim_bounded``
took before it wrote that complex down: the kernel of the constraint
rows, d restricted to it, and the projection read off the dt-coordinates.
They are the oracle for ``holim_bounded`` and its path reader in
test_elimination.py and test_holim.py.

The Chevalley-Eilenberg oracle is the builder that
``convolution.chevalley_eilenberg`` replaced, a generic symbolic algebra on
``Fraction``s: ``word_product`` sums the unshuffle signs
(``unshuffle_sign``) over the position sets of sorted(A + B) for every pair
of words, and d of a word is the Leibniz expansion of the product of its
generators, divided by the coefficient of that product.  It is the oracle
for ``chevalley_eilenberg`` in test_convolution.py; ``canonicalize`` sorts
a tuple of keys with its Koszul sign, for it and for the Hom calculus.

The convolution oracle is the hand-written Hom calculus that
``convolution.hom_dgla_slice`` replaced: bigraded elements stored on
canonical input tuples, with their own Koszul signs, bracket, d and gauge
action.  Its slice, transports and L-infinity residuals are the oracle for
h (x) CE_{<=N}(g) in test_convolution.py, test_cartan.py and
test_acceptance.py.

The period oracle is the flag side of ``period`` as it computed on dense
coordinates: ``flag_data`` keeps every cocycle of F^p Omega^k with its
class (``f_reps``), ``flag_cocycles`` combines them by ``solve`` into the
cocycle of each echelon row of F^p H^k, ``end_of_flag_diagram`` finds
each unknown of the compatibility equations by a scan of the layout,
``coordinates_of`` solves against the end basis written as columns, and
``period_differential`` reads each class through dense ``apply`` and
``project``.  They are the oracle for ``period.flag_data``,
``end_of_flag_diagram`` and ``period_differential`` in test_period.py.
``filtered_subdgla`` is End^{>=0} by the dense route ``period`` took
before it held the kernel as an echelon: the kernel densified and spanned
again by ``sub_dgla_span``.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from deforma.convolution import (DEFAULT_ARITY, VKey, canonical_tuples, ce_words,
                                 v_basis, vdeg)
from deforma.dgla import (CdgaModel, Dgla, DglaMorphism, FiltrationData, FlatBasis,
                          StructureTable, SubDgla, ValidationReport, _ZERO as ZERO, _exact,
                          _residual_repr, sub_dgla_span)
from deforma.endo import end_dgla
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, GVec,
                            StructuralError, SubSpaceData, vec_add,
                            vec_is_zero, vec_scale, vec_sub)
from deforma import graded, linalg
from deforma.linalg import Q, Vector

Matrix = list[list[Fraction]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Q(0)] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def transpose(a: Matrix) -> Matrix:
    n, m = shape(a)
    return [[a[i][j] for i in range(n)] for j in range(m)]


def columns_matrix(vectors: list[Vector], dim: int) -> Matrix:
    """Stack vectors as columns of a dim x len(vectors) matrix."""
    m = zeros(dim, len(vectors))
    for j, v in enumerate(vectors):
        if len(v) != dim:
            raise ValueError("vector length mismatch")
        for i in range(dim):
            m[i][j] = v[i]
    return m


@dataclass(frozen=True)
class DenseDgla:
    """A dgla read only through its complex and raw dense tables."""

    underlying: Complex
    brackets: dict

    @property
    def space(self) -> GradedVectorSpace:
        return self.underlying.space

    def d(self, x: GVec) -> GVec:
        return self.underlying.d(x)


def assert_table_holds_dense(table, tables: dict, symmetric: bool = False):
    """``table`` holds exactly the nonzero cells of the raw dense ``tables``
    (m <= n): each cell in its own row, its mirror e_j * e_i in the row of
    e_j for m != n, and no other entry."""
    count = 0
    for (m, n), t in tables.items():
        mirror = (m * n % 2 == 1) != symmetric      # e_j * e_i = e_i * e_j
        out = table.offset.get(m + n)
        for i, row in enumerate(t):
            a = table.offset[m] + i
            for j, v in enumerate(row):
                b = table.offset[n] + j
                cell = {out + k: c for k, c in enumerate(v) if c}
                assert table.row(a).get(b, {}) == cell, ((m, n), i, j)
                count += bool(cell)
                if m != n:
                    assert table.row(b).get(a, {}) == (
                        cell if mirror else {k: -c for k, c in cell.items()}), ((m, n), i, j)
                    count += bool(cell)
    assert sum(len(table.row(a)) for a in range(len(table))) == count


def pair_bracket(g, m: int, i: int, n: int, j: int) -> GVec:
    if m <= n:
        table = g.brackets.get((m, n))
        v = table[i][j] if table else None
    else:
        table = g.brackets.get((n, m))
        w = table[j][i] if table else None
        sign = Q(-1) if (m * n) % 2 == 0 else Q(1)  # -(-1)^{mn}
        v = [sign * c for c in w] if w else None
    if v is None or not any(v):
        return {}
    return {m + n: list(v)}


def bracket(g, x: GVec, y: GVec) -> GVec:
    out: GVec = {}
    for m, xv in x.items():
        for i, xc in enumerate(xv):
            if not xc:
                continue
            for n, yv in y.items():
                for j, yc in enumerate(yv):
                    if not yc:
                        continue
                    b = pair_bracket(g, m, i, n, j)
                    if b:
                        out = vec_add(out, vec_scale(xc * yc, b))
    return out


def validate_dgla(g) -> ValidationReport:
    report = ValidationReport()
    sp = g.space
    basis = sp.basis()

    for (m, n) in g.brackets:
        if m != n:
            continue
        dim = sp.dim(m)
        sign = Q(1) if (m * m) % 2 else Q(-1)
        for i in range(dim):
            for j in range(i, dim):
                lhs = pair_bracket(g, m, i, m, j)
                rhs = vec_scale(sign, pair_bracket(g, m, j, m, i))
                res = vec_sub(lhs, rhs)
                if not vec_is_zero(res):
                    report.fail("antisymmetry", [sp.label(m, i), sp.label(m, j)],
                                _residual_repr(res))

    for (m, i) in basis:
        a = sp.basis_element(m, i)
        da = g.d(a)
        for (n, j) in basis:
            b = sp.basis_element(n, j)
            lhs = g.d(pair_bracket(g, m, i, n, j))
            rhs = vec_add(bracket(g, da, b),
                          vec_scale(Q(-1) ** (m % 2), bracket(g, a, g.d(b))))
            res = vec_sub(lhs, rhs)
            if not vec_is_zero(res):
                report.fail("leibniz", [sp.label(m, i), sp.label(n, j)],
                            _residual_repr(res))

    for ai in range(len(basis)):
        m, i = basis[ai]
        a = sp.basis_element(m, i)
        for bi in range(ai, len(basis)):
            n, j = basis[bi]
            b = sp.basis_element(n, j)
            ab = pair_bracket(g, m, i, n, j)
            for ci in range(bi, len(basis)):
                p, k = basis[ci]
                c = sp.basis_element(p, k)
                term1 = vec_scale(Q(-1) ** ((m * p) % 2), bracket(g, ab, c))
                term2 = vec_scale(Q(-1) ** ((n * m) % 2),
                                  bracket(g, pair_bracket(g, n, j, p, k), a))
                term3 = vec_scale(Q(-1) ** ((p * n) % 2),
                                  bracket(g, pair_bracket(g, p, k, m, i), b))
                res = vec_add(vec_add(term1, term2), term3)
                if not vec_is_zero(res):
                    report.fail("jacobi",
                                [sp.label(m, i), sp.label(n, j), sp.label(p, k)],
                                _residual_repr(res))
    return report


def validate_morphism(f: DglaMorphism) -> ValidationReport:
    """The chain-map check, then bracket compatibility one basis pair at a
    time on GVecs: f of the source's ``pair_bracket`` against the target's
    ``bracket`` of the two images, compared by ``vec_sub``."""
    report = ValidationReport()
    res = graded.is_chain_map(f.map, f.source.underlying, f.target.underlying)
    for deg in res.columns:
        report.fail("chain_map", [f"degree {deg}"],
                    [[str(x) for x in row] for row in res.block(deg)])
    sp = f.source.space
    basis = sp.basis()
    images = [f.apply(sp.basis_element(m, i)) for (m, i) in basis]
    for (m, i), fa in zip(basis, images):
        for (n, j), fb in zip(basis, images):
            lhs = f.apply(f.source.pair_bracket(m, i, n, j))
            rhs = f.target.bracket(fa, fb)
            r = vec_sub(lhs, rhs)
            if not vec_is_zero(r):
                report.fail("bracket_compat", [sp.label(m, i), sp.label(n, j)],
                            _residual_repr(r))
    return report


def validate_cdga(omega: CdgaModel) -> ValidationReport:
    """Graded commutativity, associativity and the Leibniz rule, with dense
    arithmetic on every basis instance, ordered triples included."""
    report = ValidationReport()
    sp = omega.space
    basis = sp.basis()
    for (m, i) in basis:
        for (n, j) in basis:
            sign = Q(-1) if (m * n) % 2 else Q(1)
            res = vec_sub(omega.pair_product(m, i, n, j),
                          vec_scale(sign, omega.pair_product(n, j, m, i)))
            if not vec_is_zero(res):
                report.fail("commutativity", [sp.label(m, i), sp.label(n, j)],
                            _residual_repr(res))
    for (m, i), (n, j), (p, k) in itertools.product(basis, repeat=3):
        lhs = omega.multiply(omega.pair_product(m, i, n, j),
                             sp.basis_element(p, k))
        rhs = omega.multiply(sp.basis_element(m, i),
                             omega.pair_product(n, j, p, k))
        res = vec_sub(lhs, rhs)
        if not vec_is_zero(res):
            report.fail("associativity",
                        [sp.label(m, i), sp.label(n, j), sp.label(p, k)],
                        _residual_repr(res))
    for (m, i) in basis:
        a = sp.basis_element(m, i)
        for (n, j) in basis:
            b = sp.basis_element(n, j)
            lhs = omega.d(omega.pair_product(m, i, n, j))
            sign = Q(-1) if m % 2 else Q(1)
            rhs = vec_add(omega.multiply(omega.d(a), b),
                          vec_scale(sign, omega.multiply(a, omega.d(b))))
            res = vec_sub(lhs, rhs)
            if not vec_is_zero(res):
                report.fail("leibniz", [sp.label(m, i), sp.label(n, j)],
                            _residual_repr(res))
    return report


def derivation_failures(omega: CdgaModel, op: GradedMap) -> list[tuple]:
    """The basis pairs ((du, iu), (dv, iv)), in basis order, at which
    op(uv) = op(u) v + (-1)^{s|u|} u op(v) fails for the operator op of
    degree s = op.shift: the dense loop over every pair that
    ``period.contraction_cartan`` ran on each i_a before it called the
    Leibniz sweep, listing each failure where it raised at the first."""
    sp = omega.space
    out = []
    for (du, iu) in sp.basis():
        u = sp.basis_element(du, iu)
        opu = op.apply(u)
        for (dv, iv) in sp.basis():
            v = sp.basis_element(dv, iv)
            lhs = op.apply(omega.pair_product(du, iu, dv, iv))
            sign = Q(-1) if (op.shift * du) % 2 else Q(1)
            rhs = vec_add(omega.multiply(opu, v),
                          vec_scale(sign, omega.multiply(u, op.apply(v))))
            if not vec_is_zero(vec_sub(lhs, rhs)):
                out.append(((du, iu), (dv, iv)))
    return out

def check_nilpotency(a) -> ValidationReport:
    """The word walk ``validate_artin`` used before it computed the powers
    of m: every left-nested product of ``a.order`` basis monomials, by
    word, nonzero ones reported.  Exponential in the order."""
    report = ValidationReport()
    rows, n = a.cdga.table, a.dim
    current = [({i: Q(1)}, (i,)) for i in range(n)]
    for depth in range(2, a.order + 1):
        nxt = []
        for vec, word in current:
            for t in sorted({b for i in vec for b in rows[i]}):
                acc: dict = {}
                for i, c in vec.items():            # vec e_t = sum_i vec_i e_i e_t
                    for s, e in rows[i].get(t, {}).items():
                        acc[s] = acc.get(s, 0) + c * e
                prod = {s: c for s, c in acc.items() if c}
                if prod:
                    nxt.append((prod, word + (t,)))
        current = nxt
        if depth == a.order:
            for vec, word in current:
                report.fail("nilpotency", [a.labels[t] for t in word],
                            [str(vec.get(s, Q(0))) for s in range(n)])
    return report


def artin_table(k: int, order: int) -> list[list[Vector]]:
    """The dense multiplication table of m_A, A = K[e1..ek]/m^order, on the
    monomial basis ordered degree-then-lexicographic: ``table[i][j]`` is the
    coordinate vector of (monomial i) * (monomial j)."""
    monomials = []
    for total in range(1, order):
        batch = [e for e in itertools.product(range(total + 1), repeat=k) if sum(e) == total]
        monomials.extend(sorted(batch, reverse=True))
    index = {m: i for i, m in enumerate(monomials)}
    n = len(monomials)
    table = []
    for a in monomials:
        row = []
        for b in monomials:
            prod = tuple(x + y for x, y in zip(a, b))
            v = [Q(0)] * n
            if sum(prod) < order:
                v[index[prod]] = Q(1)
            row.append(v)
        table.append(row)
    return table


def tensor_nilpotent(g, a) -> Dgla:
    """g (x) m_A on the basis (g basis) major, (monomials) minor, labels
    "v@m": d(v (x) m) = dv (x) m, [v (x) m, w (x) m'] = [v, w] (x) mm'.
    Every pair of tensor basis vectors gets its own dense vector; the
    monomial products come from ``artin_table``, not from ``a.cdga``."""
    sp = g.space
    na = a.dim
    products = artin_table(a.generators, a.order)
    components = {
        deg: tuple(f"{lbl}@{mon}" for lbl in sp.labels(deg) for mon in a.labels)
        for deg in sp.degrees
    }
    space = GradedVectorSpace(components)

    d_blocks = {}
    for deg in sp.degrees:
        base_block = g.underlying.differential.block(deg)
        rows, cols = len(base_block), sp.dim(deg)
        if not rows:
            continue
        big = [[Q(0)] * (cols * na) for _ in range(rows * na)]
        nonzero = False
        for r in range(rows):
            for c in range(cols):
                val = base_block[r][c]
                if val:
                    nonzero = True
                    for t in range(na):
                        big[r * na + t][c * na + t] = val
        if nonzero:
            d_blocks[deg] = big
    cx = Complex(space, GradedMap.from_blocks(space, space, 1, d_blocks))

    brackets = {}
    for (m, n), table in g.brackets.items():
        out_dim = sp.dim(m + n) * na
        big_table = []
        nonzero = False
        for i in range(sp.dim(m)):
            for mi in range(na):
                row = []
                for j in range(sp.dim(n)):
                    base_val = table[i][j]
                    for mj in range(na):
                        prod = products[mi][mj]
                        v = [Q(0)] * out_dim
                        for bi, bc in enumerate(base_val):
                            if bc:
                                for t, pc in enumerate(prod):
                                    if pc:
                                        v[bi * na + t] = bc * pc
                                        nonzero = True
                        row.append(v)
                big_table.append(row)
        if nonzero:
            brackets[(m, n)] = big_table
    return Dgla(cx, brackets)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n, k = shape(a)
    k2, m = shape(b)
    if not a or not b:
        # empty matrices carry no column count; the product is empty or zero
        return zeros(n, m)
    if k != k2:
        raise ValueError(f"shape mismatch: {n}x{k} @ {k2}x{m}")
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def matvec(a: Matrix, v: Vector) -> Vector:
    n, k = shape(a)
    if n == 0:
        return []
    if k != len(v):
        raise ValueError(f"shape mismatch: {n}x{k} @ vec {len(v)}")
    nonzero = [(t, c) for t, c in enumerate(v) if c]
    return [sum((row[t] * c for t, c in nonzero if row[t]), Q(0)) for row in a]


def apply(f: GradedMap, x: GVec) -> GVec:
    """f(x) by ``matvec`` on the dense blocks of f."""
    out: GVec = {}
    for deg, v in x.items():
        if not any(v):
            continue
        w = matvec(f.block(deg), v)
        if any(w):
            out[deg + f.shift] = w
    return out


def compose(f: GradedMap, g: GradedMap) -> dict[int, Matrix]:
    """The nonzero dense blocks of f after g, by ``matmul``."""
    blocks = {}
    for n in g.source.degrees:
        m = matmul(f.block(n + g.shift), g.block(n))
        if any(any(row) for row in m):
            blocks[n] = m
    return blocks


def irrelevant_stabilizer(ng, x: GVec, sub: SubDgla | None = None) -> list[GVec]:
    """{d e_i + [x, e_i]} over the degree -1 basis of g (x) m_A, zeros
    dropped: d e_i is column i of the dense d block, and each bracket is
    made on its own.  With ``sub``, {d h + [x, h]} for h = v (x) m over the
    degree -1 basis v of ``sub`` and the monomials m, one dense element per h."""
    if sub is not None:
        out = []
        for v in echelon_vectors(sub.span, -1):
            for mon in range(len(ng.weight)):
                h = ng.tensor_element({-1: list(v)}, mon)
                g = vec_add(ng.d(h), ng.bracket(x, h))
                if not vec_is_zero(g):
                    out.append(g)
        return out
    out = []
    block = ng.dgla.underlying.differential.block(-1)
    dim0 = ng.space.dim(0)
    for i in range(ng.space.dim(-1)):
        col = [row[i] for row in block]
        br = ng.bracket(x, ng.space.basis_element(-1, i)).get(0, [Q(0)] * dim0)
        g = [a + b for a, b in zip(col, br)]
        if any(g):
            out.append({0: g})
    return out


def differential_columns(t, d: GradedMap) -> list[dict]:
    """d e_a as a sparse vector over the flat basis of the table ``t``, for
    every flat position a, read off the dense blocks of d."""
    cols: list[dict] = [{} for _ in t.position]
    for deg, block in d.blocks.items():
        if deg not in t.offset:
            continue
        src, dst = t.offset[deg], t.offset.get(deg + 1)
        for r, row in enumerate(block):
            for c, val in enumerate(row):
                if val:
                    cols[src + c][dst + r] = val
    return cols


def interval_forms(tmax: int) -> CdgaModel:
    """Polynomial forms on [0, 1] cut at weight tmax, t and dt each of weight
    1, from dense tables: t^m for m <= tmax and t^m dt for m <= tmax - 1,
    one dense vector per product t^a * t^b and t^a * t^b dt, zero past the
    cut, and d t^m = m t^{m-1} dt as a dense block."""
    n = tmax + 1
    space = GradedVectorSpace({0: tuple(f"t{m}" for m in range(n)),
                               1: tuple(f"t{m}*dt" for m in range(tmax))})

    def times(dim: int) -> list:
        """t^a times the ``dim`` forms t^b (or t^b dt) of one degree."""
        return [[[Q(1) if r == a + b else Q(0) for r in range(dim)] for b in range(dim)]
                for a in range(n)]

    d = [[Q(m) if r == m - 1 else Q(0) for m in range(n)] for r in range(tmax)]
    return CdgaModel(Complex(space, GradedMap.from_blocks(space, space, 1, {0: d})),
                     {(0, 0): times(n), (0, 1): times(tmax)})


def tensor_tables(g, a) -> tuple[Complex, dict]:
    """g (x) A for a dgla g and a finite cdga A, as the complex and the dense
    bracket tables: every pair of tensor basis vectors with a nonzero
    bracket gets its own dense vector in the (k1 <= k2) table of its total
    degrees, filled from the nonzeros of ``g.table``, ``a.table`` and the
    two differentials.  Basis and labels are ``tensor_basis``'s, "v@a".
    Zero cells are deforma's own zero object, so that comparing with a
    derived ``Dgla.brackets`` view short-cuts on identity (values are
    unaffected)."""
    gt, at = g.table, a.table
    basis = tensor_basis(g.space, a.space)
    space = tensor_space(g.space, a.space, basis)
    place = {}      # (g flat position, A flat position) -> (degree, index)
    for k, pairs in basis.items():
        for idx, ((p, i), (q, j)) in enumerate(pairs):
            place[gt.offset[p] + i, at.offset[q] + j] = (k, idx)
    gdeg = [deg for deg, _ in gt.position]
    adeg = [deg for deg, _ in at.position]

    gd = differential_columns(gt, g.underlying.differential)
    ad = differential_columns(at, a.complex.differential)
    d_blocks = {}
    for (v, f), (k, col) in place.items():
        sign = -1 if gdeg[v] % 2 else 1
        for key, c in ([((u, f), c) for u, c in gd[v].items()]
                       + [((v, h), sign * c) for h, c in ad[f].items()]):
            if k not in d_blocks:
                d_blocks[k] = zeros(space.dim(k + 1), space.dim(k))
            d_blocks[k][place[key][1]][col] += c

    brackets = {}
    for v in range(len(gt)):
        for w, vw in gt.row(v).items():
            for f in range(len(at)):
                sign = -1 if adeg[f] * gdeg[w] % 2 else 1
                for h, fh in at.row(f).items():
                    (k1, x), (k2, y) = place[v, f], place[w, h]
                    if k1 > k2:
                        continue
                    if (k1, k2) not in brackets:
                        out = space.dim(k1 + k2)
                        brackets[k1, k2] = [[[ZERO] * out for _ in range(space.dim(k2))]
                                            for _ in range(space.dim(k1))]
                    cell = brackets[k1, k2][x][y]
                    for u, c in vw.items():
                        for e, s in fh.items():
                            cell[place[u, e][1]] = sign * c * s
    return Complex(space, GradedMap.from_blocks(space, space, 1, d_blocks)), brackets


def end_tables(c: Complex) -> tuple[Complex, dict]:
    """End(C) as the complex and the dense bracket tables, on the basis
    ``end_index`` with its "src>dst" labels: d and every bracket computed by
    composing two dense elementary maps with ``matmul``; d blocks and (m, n)
    tables kept only when nonzero."""
    sp = c.space
    index = end_index(sp)
    space = end_space(sp, index)
    d = (1, {n: c.differential.block(n) for n in sp.degrees})

    def elem_map(k: int, pos: int) -> tuple[int, dict]:
        """(shift, dense blocks) of the elementary map E_ts."""
        sd, si, di = index[k][pos]
        block = [[Q(1) if (r == di and cc == si) else Q(0)
                  for cc in range(sp.dim(sd))] for r in range(sp.dim(sd + k))]
        return k, {sd: block}

    def after(f, g) -> dict:
        (fk, fb), (gk, gb) = f, g
        return {n: matmul(fb[n + gk], b) for n, b in gb.items() if n + gk in fb}

    def commutator_coords(f, g, sign) -> list:
        """Coordinates of f o g - sign g o f in the elementary basis."""
        fg, gf = after(f, g), after(g, f)
        k = f[0] + g[0]
        return [(fg[sd][di][si] if sd in fg else Q(0))
                - sign * (gf[sd][di][si] if sd in gf else Q(0))
                for (sd, si, di) in index[k]]

    d_blocks = {}
    for k in index:
        if k + 1 not in index:
            continue
        # [d, f] = d o f - (-1)^k f o d
        sign = Q(-1) if k % 2 else Q(1)
        cols = [commutator_coords(d, elem_map(k, pos), sign) for pos in range(len(index[k]))]
        block = [[cols[j][i] for j in range(len(cols))] for i in range(len(index[k + 1]))]
        if any(any(row) for row in block):
            d_blocks[k] = block

    brackets = {}
    for m in index:
        for n in index:
            if m > n or (m + n) not in index:
                continue
            sign = Q(-1) if (m * n) % 2 else Q(1)
            table = [[commutator_coords(elem_map(m, i), elem_map(n, j), sign)
                      for j in range(len(index[n]))] for i in range(len(index[m]))]
            if any(any(v) for row in table for v in row):
                brackets[(m, n)] = table
    return Complex(space, GradedMap.from_blocks(space, space, 1, d_blocks)), brackets


def assert_same_tables(g: Dgla, cx: Complex, brackets: dict):
    """g equals the oracle (``cx``, dense ``brackets``) entry by entry: the
    labels of every degree, the complex, and the derived ``g.brackets``,
    which holds every row entry e_a * e_b with |a| <= |b|.  Each remaining
    entry must be the mirror of one of those under graded antisymmetry."""
    assert g.space.components == cx.space.components
    assert all(g.space.labels(k) == cx.space.labels(k) for k in cx.space.degrees)
    assert g.underlying.differential.blocks == cx.differential.blocks
    assert g.brackets == brackets
    t = g.table
    for a, (m, _) in enumerate(t.position):
        for b, entry in t.row(a).items():
            n = t.position[b][0]
            sign = 1 if m * n % 2 else -1
            assert t.row(b).get(a) == {k: sign * c for k, c in entry.items()}


# ---------------------------------------------------------------------------
# the product layouts as enumerated pairs

def tensor_basis(g: GradedVectorSpace, a: GradedVectorSpace) -> dict[int, list]:
    """The basis of g (x) A by total degree, as pairs ((p, i), (q, j)) for
    e_i (x) f_j.  Within a total degree the A-degree q ascends; within one
    q the g index is major and the A index minor."""
    out: dict[int, list] = {}
    for q in a.degrees:
        for p in g.degrees:
            out.setdefault(p + q, []).extend(
                ((p, i), (q, j)) for i in range(g.dim(p)) for j in range(a.dim(q)))
    return out


def tensor_space(g: GradedVectorSpace, a: GradedVectorSpace,
                 basis: dict[int, list]) -> GradedVectorSpace:
    """The space of ``basis`` = tensor_basis(g, a), labelled "v@a"."""
    return GradedVectorSpace({
        k: tuple(f"{g.label(*v)}@{a.label(*f)}" for v, f in pairs)
        for k, pairs in basis.items()})


def tensor_factors(ng) -> list[tuple[int, int]]:
    """The pair (g flat position, C flat position) of every flat position of
    the tensor record ``ng``, read from ``tensor_basis``: total degree k
    lists e_i (x) f_j in order."""
    gt, ct, t = ng.g.table, ng.c.table, ng.dgla.table
    out = [None] * len(t)
    for k, pairs in tensor_basis(ng.g.space, ng.c.space).items():
        for idx, ((p, i), (q, j)) in enumerate(pairs):
            out[t.offset[k] + idx] = (gt.offset[p] + i, ct.offset[q] + j)
    return out


def end_index(sp: GradedVectorSpace) -> dict[int, tuple]:
    """The basis of End(C) for C on ``sp``: end degree k -> the triples
    (source degree, source index, target index), source degree ascending,
    source index major."""
    degs = sorted(sp.degrees)
    index: dict[int, tuple] = {}
    for k in range(min(degs) - max(degs), max(degs) - min(degs) + 1):
        entries = []
        for src_deg in degs:
            if sp.dim(src_deg + k) == 0:
                continue
            for src_idx in range(sp.dim(src_deg)):
                for dst_idx in range(sp.dim(src_deg + k)):
                    entries.append((src_deg, src_idx, dst_idx))
        if entries:
            index[k] = tuple(entries)
    return index


def end_space(sp: GradedVectorSpace, index: dict[int, tuple]) -> GradedVectorSpace:
    """The space of ``index`` = end_index(sp), labelled "src>dst"."""
    return GradedVectorSpace({
        k: tuple(f"{sp.label(sd, si)}>{sp.label(sd + k, di)}" for (sd, si, di) in entries)
        for k, entries in index.items()})


def end_pairs(sp: GradedVectorSpace) -> list[tuple[int, int]]:
    """The pair (source, target) of flat positions of C of every flat
    position of End(C), read from ``end_index``."""
    cb = FlatBasis(sp)
    index = end_index(sp)
    return [(cb.offset[sd] + si, cb.offset[sd + k] + di)
            for k in sorted(index) for (sd, si, di) in index[k]]


def tensor_construction(g: Dgla, a: CdgaModel) -> Dgla:
    """g (x) A as ``tensor_dgla`` built it on the pairs of ``tensor_basis``,
    found in a dict: d written by position in its degree, each row composed
    on demand from the rows of the factors."""
    gt, at = g.table, a.table
    basis = tensor_basis(g.space, a.space)
    space = tensor_space(g.space, a.space, basis)
    flat = FlatBasis(space)
    factors: list = [None] * len(flat)
    for k, pairs in basis.items():
        for idx, ((p, i), (q, j)) in enumerate(pairs):
            factors[flat.offset[k] + idx] = gt.offset[p] + i, at.offset[q] + j
    place = {vf: t for t, vf in enumerate(factors)}
    gdeg = [deg for deg, _ in gt.position]
    adeg = [deg for deg, _ in at.position]
    gcols = differential_columns(gt, g.underlying.differential)
    acols = differential_columns(at, a.complex.differential)
    d_columns = {k: [{} for _ in pairs] for k, pairs in basis.items()}
    for t, (v, f) in enumerate(factors):
        k, col = flat.position[t]
        column = d_columns[k][col]
        for u, c in gcols[v].items():
            column[flat.position[place[u, f]][1]] = c
        sign = -1 if gdeg[v] % 2 else 1
        for h, c in acols[f].items():
            column[flat.position[place[v, h]][1]] = sign * c
    integral = gt.integral and at.integral

    def row_of(t: int) -> dict:
        v, f = factors[t]
        vrow, frow = gt.row(v), at.row(f)
        row: dict = {}
        if not vrow or not frow:
            return row
        for w, vw in vrow.items():
            if adeg[f] * gdeg[w] % 2:
                vw = {u: -c for u, c in vw.items()}
            for h, fh in frow.items():
                entry = {place[u, e]: c if s == 1 else c * s
                         for u, c in vw.items() for e, s in fh.items()}
                row[place[w, h]] = entry if integral else _exact(entry)
        return row

    table = StructureTable(space, row_of, integral=integral)
    return Dgla(Complex(space, GradedMap(space, space, 1, d_columns)), table)


def end_construction(c: Complex) -> Dgla:
    """End(C) as ``end_dgla`` built it on ``end_index``: every elementary map
    found in a dict by its (source, target) basis vectors, and the E_b by
    source and by target in lists."""
    sp = c.space
    index = end_index(sp)
    space = end_space(sp, index)
    flat = FlatBasis(space)
    ends = [((sd, si), (sd + k, di)) for k in sorted(index) for (sd, si, di) in index[k]]
    place = {st: a for a, st in enumerate(ends)}
    by_source: dict[tuple, list[int]] = {}
    by_target: dict[tuple, list[int]] = {}
    for a, (s, t) in enumerate(ends):
        by_source.setdefault(s, []).append(a)
        by_target.setdefault(t, []).append(a)
    d = c.differential.columns
    d_rows = {deg: [{} for _ in range(sp.dim(deg + 1))] for deg in d}
    for deg, cols in d.items():
        for u, col in enumerate(cols):
            for r, val in col.items():
                d_rows[deg][r][u] = val
    d_columns = {}
    for k in index:
        if k + 1 not in index:
            continue
        cols = d_columns[k] = [{} for _ in index[k]]
        sign = -1 if k % 2 else 1
        base = flat.offset[k + 1]
        for (sd, si, di), col in zip(index[k], cols):
            s, t = (sd, si), (sd + k, di)
            if sd + k in d:
                for r, val in d[sd + k][di].items():
                    col[place[s, (sd + k + 1, r)] - base] = val
            if sd - 1 in d:
                for u, val in d_rows[sd - 1][si].items():
                    col[place[(sd - 1, u), t] - base] = -sign * val
    degree = [deg for deg, _ in flat.position]
    upper = []
    for a, (s, t) in enumerate(ends):
        m = degree[a]
        entries: dict[int, dict] = {}
        for b in by_target.get(s, ()):          # E_a o E_b
            if degree[b] >= m:
                entries.setdefault(b, {})[place[ends[b][0], t]] = 1
        for b in by_source.get(t, ()):          # -(-1)^{mn} E_b o E_a
            if degree[b] >= m:
                entry, k = entries.setdefault(b, {}), place[s, ends[b][1]]
                entry[k] = entry.get(k, 0) + (1 if m * degree[b] % 2 else -1)
        upper.extend(((a, b), {k: c for k, c in e.items() if c})
                     for b, e in entries.items())
    return Dgla(Complex(space, GradedMap(space, space, 1, d_columns)),
                flat.table_from_upper(upper))


# ---------------------------------------------------------------------------
# elimination, one rref per vector

def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; every row update rewrites the whole row."""
    m = [row[:] for row in a]
    rows, cols = len(m), (len(m[0]) if m else 0)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(a: Matrix, cols: int) -> list[Vector]:
    """The kernel of a matrix with ``cols`` columns: with no rows, the
    whole space."""
    red, pivots = rref(a)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Q(0)] * cols
        v[free] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    cols = len(a[0]) if a else 0
    red, pivots = rref([row[:] + [bi] for row, bi in zip(a, b)])
    if cols in pivots:
        return None
    x = [Q(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def in_span(vectors: list[Vector], v: Vector) -> bool:
    if not vectors:
        return all(not x for x in v)
    return solve(columns_matrix(vectors, len(v)), v) is not None


def echelon_basis(vectors: list[Vector]) -> list[Vector]:
    if not vectors:
        return []
    red, pivots = rref(vectors)
    return red[:len(pivots)]


def echelon_vectors(span: SubSpaceData, deg: int) -> list[Vector]:
    """The echelon basis rows of ``span`` in one degree, densified."""
    return [linalg.dense(r, span.parent.dim(deg)) for r in span.echelon.get(deg, ((), ()))[0]]


def sub_basis(span: SubSpaceData, deg: int) -> list[Vector]:
    """The basis of ``span`` in one degree: the echelon basis of its vectors,
    or, for a span given in echelon form (``SubSpaceData.from_echelon``),
    the vectors themselves.  The echelon form is checked here: vector i is 1
    at column i of ``span.echelon`` and 0 at the others, and the vectors
    are independent."""
    vectors = span.span.get(deg, [])
    basis = echelon_basis(vectors)
    if echelon_vectors(span, deg) == basis:
        return basis
    assert echelon_vectors(span, deg) == vectors
    columns = span.echelon[deg][1]
    assert len(columns) == len(vectors)
    assert all(v[c] == (1 if i == j else 0)
               for i, v in enumerate(vectors) for j, c in enumerate(columns))
    assert len(basis) == len(vectors)
    return vectors


def extend_to_complement(span: list[Vector], dim: int) -> list[int]:
    """Standard basis vectors outside the span of those before, greedily."""
    chosen: list[int] = []
    current = [v[:] for v in span]
    for i in range(dim):
        e = [Q(0)] * dim
        e[i] = Q(1)
        if not in_span(current, e):
            current.append(e)
            chosen.append(i)
    return chosen


def cohomology(c: Complex) -> dict[int, tuple[int, list[Vector], list[Vector]]]:
    """degree -> (rank, representatives, coboundaries), extending the
    coboundaries by each cocycle not in the span of those before it."""
    out = {}
    for deg in c.space.degrees:
        dim = c.space.dim(deg)
        cocycles = (nullspace(c.differential.block(deg), dim) if c.space.dim(deg + 1)
                    else identity(dim))
        cobs = []
        if c.space.dim(deg - 1):
            d_prev = c.differential.block(deg - 1)
            _, pivots = rref(d_prev)
            cobs = [[row[p] for row in d_prev] for p in pivots]
        reps: list[Vector] = []
        current = [v[:] for v in cobs]
        for z in cocycles:
            if not in_span(current, z):
                current.append(z)
                reps.append(z)
        out[deg] = (len(reps), reps, cobs)
    return out


def quotient_sections(c: Complex, sub: SubSpaceData
                      ) -> tuple[dict[int, list[int]], dict[int, Matrix]]:
    """Section indices and projection blocks of the quotient c / sub."""
    sections, projections = {}, {}
    for deg in c.space.degrees:
        dim = c.space.dim(deg)
        sub_basis = echelon_basis(sub.span.get(deg, []))
        comp = extend_to_complement(sub_basis, dim)
        adapted = columns_matrix(sub_basis + [identity(dim)[i] for i in comp], dim)
        red, _ = rref([row + e for row, e in zip(adapted, identity(dim))])
        inverse = [row[dim:] for row in red]
        sections[deg] = comp
        projections[deg] = inverse[len(sub_basis):]
    return sections, projections


def restrict_to_sub(n: SubDgla) -> Dgla:
    """The induced dgla on the basis ``sub_basis`` of n, every coordinate
    found by ``solve`` and every bracket table built."""
    h = n.parent
    bases = {deg: sub_basis(n.span, deg) for deg in sorted(n.span.span)}
    bases = {deg: bs for deg, bs in bases.items() if bs}
    space = GradedVectorSpace({deg: tuple(f"s{deg}_{i}" for i in range(len(bs)))
                               for deg, bs in bases.items()})

    def coords(x: GVec, deg: int) -> Vector:
        v = x.get(deg)
        if v is None or not any(v):
            return [Q(0)] * space.dim(deg)
        sol = solve(columns_matrix(bases[deg], len(v)), list(v)) if deg in bases else None
        if sol is None:
            raise ValueError(f"element leaves the subspace in degree {deg}")
        return sol

    d_blocks = {}
    for deg, bs in bases.items():
        if space.dim(deg + 1):
            d_blocks[deg] = transpose([coords(h.d({deg: v}), deg + 1) for v in bs])
    brackets = {}
    for m in bases:
        for p in bases:
            if m > p:
                continue
            table = [[coords(h.bracket({m: v}, {p: w}), m + p) for w in bases[p]]
                     for v in bases[m]]
            if any(any(cell) for row in table for cell in row):
                brackets[(m, p)] = table
    return Dgla(Complex(space, GradedMap.from_blocks(space, space, 1, d_blocks)), brackets)


# ---------------------------------------------------------------------------
# the bounded holim complex inside the path dgla

def holim_constraints(pair, ambient, k: int) -> dict[str, list[dict]]:
    """The two conditions that cut the bounded holim complex out of degree
    k of ``ambient`` = path_dgla(h, D), as sparse rows on that degree's
    coordinates: p(1) = 0 and p(0) in n.  The third, deg_t q <= D - 1,
    holds in the ambient, whose forms stop at weight D."""
    t, ht = ambient.dgla.table, pair.h.table
    place = {vf: p for p, vf in enumerate(tensor_factors(ambient))}
    tbound = ambient.c.space.dim(0) - 1
    base, hbase = t.offset[k], ht.offset.get(k)
    qdim = pair.quotient.complex.space.dim(k)
    proj = pair.quotient.projection.columns.get(k, [])
    return {
        # the sum of the e_j (x) t^m over m, t^m at C position m
        "p(1) = 0": [{place[hbase + j, m] - base: Q(1) for m in range(tbound + 1)}
                     for j in range(pair.h.space.dim(k))],
        # the quotient projection of the constant coefficient
        "p(0) in n": [{place[hbase + j, 0] - base: c for j, c in row.items()}
                      for row in linalg.transpose(proj, qdim)]}


def holim_rows(pair, tbound: int):
    """``path_dgla(h, D)`` and, per degree k, the basis A, B, C of the
    bounded holim complex as sparse rows on degree k of it, with one column
    per row where it is 1 and the other rows 0 (the echelon form of
    ``SubSpaceData.from_echelon``): A_i = r_i (x) (1 - t^D) at r_i's pivot
    (x) 1, B_{j,m} = e_j (x) (t^m - t^D) at e_j (x) t^m and
    C_{j,m} = e_j (x) t^m dt at itself.  Written from the definitions, not
    from ``holim.holim_bounded``."""
    from deforma.holim import path_dgla
    ambient = path_dgla(pair.h, tbound)
    t, ht, h = ambient.dgla.table, pair.h.table, pair.h
    place = {vf: p for p, vf in enumerate(tensor_factors(ambient))}
    dt = tbound + 1                                 # C position of t^0 dt
    rows = {}
    for k in ambient.space.degrees:
        base = t.offset[k]

        def at(deg: int, j: int, f: int) -> int:
            """The position of e_j (x) f, e_j in h^deg, in degree k."""
            return place[ht.offset[deg] + j, f] - base

        a_rows, a_cols = [], []
        for r, pivot in zip(*pair.n.span.echelon.get(k, ((), ()))):
            a_rows.append({**{at(k, j, 0): c for j, c in r.items()},
                           **{at(k, j, tbound): -c for j, c in r.items()}})
            a_cols.append(at(k, pivot, 0))
        b = [(m, j) for m in range(1, tbound) for j in range(h.space.dim(k))]
        c = [(m, j) for m in range(tbound) for j in range(h.space.dim(k - 1))]
        rows[k] = (a_rows + [{at(k, j, m): Q(1), at(k, j, tbound): Q(-1)} for m, j in b]
                   + [{at(k - 1, j, dt + m): Q(1)} for m, j in c],
                   a_cols + [at(k, j, m) for m, j in b] + [at(k - 1, j, dt + m) for m, j in c])
    return ambient, {k: e for k, e in rows.items() if e[0]}


def holim_by_kernel(pair, tbound: int) -> tuple[Complex, GradedMap]:
    """The bounded holim complex and its projection to (h/n)[-1] the way
    ``holim.holim_bounded`` built them before it wrote them down: the
    kernel of ``holim_constraints`` by ``linalg.kernel``, d restricted to
    it by ``dgla.restrict_to_sub``, and each kernel vector's dt-coordinates
    integrated (t^m dt to 1/(m + 1)), reduced mod n and, in degree k, times
    (-1)^k."""
    from deforma.dgla import abelian_dgla, restrict_to_sub as restrict
    from deforma.holim import path_dgla
    ambient = path_dgla(pair.h, tbound)
    span = {}
    for k in ambient.space.degrees:
        rows = [r for part in holim_constraints(pair, ambient, k).values() for r in part]
        span[k] = linalg.kernel(rows, ambient.space.dim(k))
    sub = SubSpaceData.from_echelon(ambient.space, span)
    restricted = restrict(SubDgla(abelian_dgla(ambient.dgla.underlying), sub))
    t, ht, proj = ambient.dgla.table, pair.h.table, pair.quotient.projection.columns
    columns = {}
    for k, (rows, _) in sub.echelon.items():
        if k - 1 in proj:
            columns[k], sign = [], -1 if k % 2 else 1
            for row in rows:
                integral = {}
                for f, part in ambient.split({t.offset[k] + p: c
                                              for p, c in row.items()}).items():
                    if f > tbound:                  # t^(f - D - 1) dt
                        for v, c in part.items():
                            j = ht.position[v][1]
                            integral[j] = integral.get(j, 0) + sign * c / (f - tbound)
                columns[k].append(linalg.combine(proj[k - 1], integral.items()))
    shifted = pair.shifted.space
    return restricted.underlying, GradedMap(restricted.space, shifted, 0, columns)


# ---------------------------------------------------------------------------
# paths as coefficient lists: the pointwise calculus on h (x) K[t, dt]

class PathElement:
    """p(t) + q(t) dt of total degree ``degree`` in h (x) K[t, dt], with no
    cut: ``p[m]`` (of degree ``degree``) and ``q[m]`` (of degree
    ``degree - 1``) are the coefficients of t^m and t^m dt.  Trailing zero
    coefficients are dropped."""

    def __init__(self, host, degree: int, p: list | None = None, q: list | None = None):
        self.host = host
        self.degree = degree
        self.p = [] if p is None else p
        self.q = [] if q is None else q
        while self.p and vec_is_zero(self.p[-1]):
            self.p.pop()
        while self.q and vec_is_zero(self.q[-1]):
            self.q.pop()

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def eval_p(self, t: Fraction) -> GVec:
        out: GVec = {}
        for m, coeff in enumerate(self.p):
            out = vec_add(out, vec_scale(Q(t) ** m, coeff))
        return out

    def integral_q(self) -> GVec:
        """The integral of the dt-component over [0, 1]."""
        out: GVec = {}
        for m, coeff in enumerate(self.q):
            out = vec_add(out, vec_scale(Q(1, m + 1), coeff))
        return out


def _zip_pad(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[m] if m < len(a) else {}, b[m] if m < len(b) else {}) for m in range(n)]


def path_add(a: PathElement, b: PathElement) -> PathElement:
    return PathElement(a.host, a.degree, [vec_add(x, y) for x, y in _zip_pad(a.p, b.p)],
                       [vec_add(x, y) for x, y in _zip_pad(a.q, b.q)])


def path_scale(c: Fraction, a: PathElement) -> PathElement:
    return PathElement(a.host, a.degree, [vec_scale(c, x) for x in a.p],
                       [vec_scale(c, x) for x in a.q])


def path_d(gamma: PathElement) -> PathElement:
    """d(p + q dt) = d_h p + ((-1)^k p' + d_h q) dt for degree k."""
    h, k = gamma.host, gamma.degree
    sign = Q(-1) if k % 2 else Q(1)
    q = []
    for m in range(max(len(gamma.p) - 1, len(gamma.q))):
        term = vec_scale(sign * (m + 1), gamma.p[m + 1]) if m + 1 < len(gamma.p) else {}
        q.append(vec_add(term, h.d(gamma.q[m])) if m < len(gamma.q) else term)
    return PathElement(h, k + 1, [h.d(c) for c in gamma.p], q)


def path_bracket(g1: PathElement, g2: PathElement) -> PathElement:
    """Pointwise in t, with dt^2 = 0:
    [p1 + q1 dt, p2 + q2 dt] = [p1, p2] + ([p1, q2] + (-1)^{k2} [q1, p2]) dt."""
    h = g1.host
    p: list[GVec] = []
    q: list[GVec] = []

    def put(coeffs: list, m: int, val: GVec):
        while len(coeffs) <= m:
            coeffs.append({})
        coeffs[m] = vec_add(coeffs[m], val)

    sign = Q(-1) if g2.degree % 2 else Q(1)
    for m1, c1 in enumerate(g1.p):
        for m2, c2 in enumerate(g2.p):
            put(p, m1 + m2, h.bracket(c1, c2))
        for m2, c2 in enumerate(g2.q):
            put(q, m1 + m2, h.bracket(c1, c2))
    for m1, c1 in enumerate(g1.q):
        for m2, c2 in enumerate(g2.p):
            put(q, m1 + m2, vec_scale(sign, h.bracket(c1, c2)))
    return PathElement(h, g1.degree + g2.degree, p, q)


def path_residual(gamma: PathElement) -> PathElement:
    """d gamma + [gamma, gamma]/2."""
    return path_add(path_d(gamma), path_scale(Q(1, 2), path_bracket(gamma, gamma)))


def to_coords(paths, gamma: PathElement) -> GVec:
    """gamma as an element of the path dgla ``paths`` = path_dgla(h, T),
    written by ``join``: p_m at C position m, q_m at T + 1 + m."""
    dt, flat = paths.c.space.dim(0), paths.g.table.flat
    assert len(gamma.p) <= dt and len(gamma.q) < dt
    return paths.dgla.table.graded(paths.join(
        {m: flat(c) for m, c in [*enumerate(gamma.p), *enumerate(gamma.q, dt)]}))


def to_path(paths, x: GVec, degree: int) -> PathElement:
    """The inverse of ``to_coords``, by ``split``."""
    dt, ht = paths.c.space.dim(0), paths.g.table
    parts = paths.split(paths.dgla.table.flat(x))
    return PathElement(paths.g, degree, [ht.graded(parts.get(m, {})) for m in range(dt)],
                       [ht.graded(parts.get(dt + m, {})) for m in range(dt - 1)])


# ---------------------------------------------------------------------------
# the Chevalley-Eilenberg cdga as a generic symbolic algebra

def canonicalize(keys: tuple, g: Dgla) -> tuple[tuple, int] | None:
    """Sort a tuple of VKeys with the Koszul sign; None if it vanishes.

    A tuple vanishes when a key of odd g[1]-degree repeats.
    """
    keys = list(keys)
    sign = 1
    for i in range(1, len(keys)):
        j = i
        while j > 0 and keys[j - 1] > keys[j]:
            if (vdeg(keys[j - 1]) % 2) and (vdeg(keys[j]) % 2):
                sign = -sign
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            j -= 1
    for a, b in zip(keys, keys[1:]):
        if a == b and vdeg(a) % 2:
            return None
    return tuple(keys), sign


def unshuffle_sign(positions: tuple, degrees: list[int]) -> int:
    """Koszul sign of the permutation (selected block, complement block)."""
    sign = 1
    selected = set(positions)
    for i in range(len(degrees)):
        if i in selected:
            continue
        for j in positions:
            if j > i and (degrees[i] % 2) and (degrees[j] % 2):
                sign = -sign
    return sign


def word_product(a: tuple, b: tuple, g: Dgla, arity_bound: int):
    """xi^[a] xi^[b] as (word, coefficient), or None; () is the unit.  The
    coefficient sums the unshuffle signs over every position set of
    sorted(a + b) that reads a."""
    c = tuple(sorted(a + b))
    if len(c) > arity_bound or canonicalize(c, g) is None:
        return None
    degs = [vdeg(k) for k in c]
    coeff = sum(unshuffle_sign(p, degs)
                for p in itertools.combinations(range(len(c)), len(a))
                if tuple(c[i] for i in p) == a)
    if sum(vdeg(k) for k in a) * sum(vdeg(k) for k in b) % 2:
        coeff = -coeff
    return c, coeff


def chevalley_eilenberg(g: Dgla, arity_bound: int) -> CdgaModel:
    """CE_{<=N}(g) as ``convolution.chevalley_eilenberg`` built it before the
    closed forms: ``word_product`` on every pair of words, on ``Fraction``s,
    and d xi^[A] as kappa_A^{-1} times the Leibniz expansion of
    d(xi_{a_1} ... xi_{a_q}), where xi_{a_1} ... xi_{a_q} = kappa_A xi^[A]."""
    words: dict[int, list[tuple]] = {}
    for w in ce_words(g, arity_bound):
        words.setdefault(-sum(vdeg(k) for k in w), []).append(w)
    space = GradedVectorSpace({
        k: tuple("^".join(g.label(*key) for key in w) for w in ws)
        for k, ws in words.items()})
    place = {w: (k, i) for k, ws in words.items() for i, w in enumerate(ws)}

    def times(x: dict, y: dict) -> dict:
        out: dict = {}
        for a, ca in x.items():
            for b, cb in y.items():
                prod = word_product(a, b, g, arity_bound)
                if prod:
                    out[prod[0]] = out.get(prod[0], 0) + prod[1] * ca * cb
        return {w: c for w, c in out.items() if c}

    # d xi_c: the coefficient of xi_a is (-1)^{|xi_c|} (d_g a)_c, and that of
    # xi^[ab] is -(-1)^{|xi_c| + |a|} [a, b]_c
    sources = [((a,), g.d(g.space.basis_element(*a)), 1) for a in v_basis(g)]
    if arity_bound >= 2:
        sources += [((a, b), g.pair_bracket(*a, *b), 1 if a[0] % 2 else -1)
                    for a, b in canonical_tuples(g, 2)]
    dgen: dict[VKey, dict] = {key: {} for key in v_basis(g)}
    for word, image, sign in sources:
        for deg, v in image.items():
            for t, c in enumerate(v):
                if c:
                    dgen[deg, t][word] = -sign * c if vdeg((deg, t)) % 2 else sign * c

    d_columns: dict[int, list] = {}
    for w, (k, col) in place.items():
        kappa = {(): 1}
        for key in w:
            kappa = times(kappa, {(key,): 1})
        image: dict = {}
        for i, key in enumerate(w):
            term = {(): Q(-1) if sum(vdeg(k) for k in w[:i]) % 2 else Q(1)}
            for j, other in enumerate(w):
                term = times(term, dgen[key] if i == j else {(other,): 1})
            for u, c in term.items():
                image[u] = image.get(u, 0) + c
        column = {place[u][1]: c / kappa[w] for u, c in image.items() if c}
        if column:
            d_columns.setdefault(k, [{} for _ in range(space.dim(k))])[col] = column

    flat = FlatBasis(space)
    position = {w: flat.offset[k] + i for w, (k, i) in place.items()}
    upper = []      # ((a, b), xi^[a] xi^[b]) for |a| <= |b|, nonzero only
    for a, (m, _) in place.items():
        for b, (n, _) in place.items():
            prod = word_product(a, b, g, arity_bound) if m <= n else None
            if prod and prod[1]:
                upper.append(((position[a], position[b]), {position[prod[0]]: prod[1]}))
    return CdgaModel(Complex(space, GradedMap(space, space, 1, d_columns)),
                     flat.table_from_upper(upper, symmetric=True))


# ---------------------------------------------------------------------------
# the hand-written convolution calculus

@dataclass
class BigradedHomElement:
    """Element of Hom^{p,q}(g, h), stored on canonical input tuples."""

    g: Dgla
    h: Dgla
    p: int
    q: int
    values: dict = field(default_factory=dict)  # canonical tuple -> GVec in h

    def __post_init__(self):
        if self.q < 1:
            raise StructuralError("arity q must be at least 1")
        for keys, val in self.values.items():
            if len(keys) != self.q:
                raise StructuralError("value tuple length does not match arity")
            s = sum(k[0] for k in keys)
            for deg, v in val.items():
                if any(v) and deg != s + self.p:
                    raise StructuralError(
                        f"value on {keys} has degree {deg}, expected {s + self.p}")

    @property
    def total_degree(self) -> int:
        return self.p + self.q

    def evaluate(self, keys: tuple) -> GVec:
        canon = canonicalize(keys, self.g)
        if canon is None:
            return {}
        ckeys, sign = canon
        val = self.values.get(ckeys, {})
        return vec_scale(Q(sign), val) if val else {}

    def evaluate_elements(self, elements: list[GVec]) -> GVec:
        """Multilinear evaluation on (suspended) homogeneous g-elements."""
        out: GVec = {}
        factors: list[list[tuple[VKey, Fraction]]] = []
        for x in elements:
            terms = [((deg, i), c) for deg, v in x.items() for i, c in enumerate(v) if c]
            factors.append(terms)
        for combo in itertools.product(*factors):
            keys = tuple(t[0] for t in combo)
            coeff = Q(1)
            for t in combo:
                coeff *= t[1]
            val = self.evaluate(keys)
            if val:
                out = vec_add(out, vec_scale(coeff, val))
        return out

    def is_zero(self) -> bool:
        return all(vec_is_zero(v) for v in self.values.values())

    def prune(self) -> "BigradedHomElement":
        self.values = {k: v for k, v in self.values.items() if not vec_is_zero(v)}
        return self

    def support(self) -> list[tuple]:
        return sorted(k for k, v in self.values.items() if not vec_is_zero(v))


def hom_zero(g: Dgla, h: Dgla, p: int, q: int) -> BigradedHomElement:
    return BigradedHomElement(g, h, p, q, {})


def hom_add(a: BigradedHomElement, b: BigradedHomElement) -> BigradedHomElement:
    if (a.p, a.q) != (b.p, b.q):
        raise StructuralError("bidegree mismatch in addition")
    values = {k: dict(v) for k, v in a.values.items()}
    for k, v in b.values.items():
        values[k] = vec_add(values[k], v) if k in values else v
    return BigradedHomElement(a.g, a.h, a.p, a.q, values).prune()


def hom_scale(c: Fraction, a: BigradedHomElement) -> BigradedHomElement:
    return BigradedHomElement(a.g, a.h, a.p, a.q,
                              {k: vec_scale(c, v) for k, v in a.values.items()}).prune()


def hom_bracket(f: BigradedHomElement, g_elem: BigradedHomElement) -> BigradedHomElement:
    if f.g is not g_elem.g and f.g.space.components != g_elem.g.space.components:
        raise StructuralError("convolution bracket requires the same source dgla")
    if f.h is not g_elem.h and f.h.space.components != g_elem.h.space.components:
        raise StructuralError("convolution bracket requires the same target dgla")
    q = f.q + g_elem.q
    out = hom_zero(f.g, f.h, f.p + g_elem.p, q)
    gdeg2 = g_elem.total_degree % 2
    for keys in canonical_tuples(f.g, q):
        degs = [vdeg(k) for k in keys]
        acc: GVec = {}
        for positions in itertools.combinations(range(q), f.q):
            first = tuple(keys[i] for i in positions)
            rest = tuple(keys[i] for i in range(q) if i not in positions)
            sign = unshuffle_sign(positions, degs)
            if gdeg2 and sum(degs[i] for i in positions) % 2:
                sign = -sign
            fv = f.evaluate(first)
            gv = g_elem.evaluate(rest)
            if vec_is_zero(fv) or vec_is_zero(gv):
                continue
            acc = vec_add(acc, vec_scale(Q(sign), f.h.bracket(fv, gv)))
        if not vec_is_zero(acc):
            out.values[keys] = acc
    return out


def _delta(g: Dgla, key: VKey) -> list[tuple[VKey, Fraction]]:
    """delta(s a) = -s(d_g a) as a combination of VKeys."""
    deg, idx = key
    img = g.d(g.space.basis_element(deg, idx))
    out = []
    for d2, v in img.items():
        for i, c in enumerate(v):
            if c:
                out.append(((d2, i), -c))
    return out


def _mu(g: Dgla, k1: VKey, k2: VKey) -> list[tuple[VKey, Fraction]]:
    """mu(s a, s b) = (-1)^{|a|} s[a, b]_g as a combination of VKeys."""
    (m, i), (n, j) = k1, k2
    br = g.pair_bracket(m, i, n, j)
    sign = Q(-1) if m % 2 else Q(1)
    out = []
    for d2, v in br.items():
        for t, c in enumerate(v):
            if c:
                out.append(((d2, t), sign * c))
    return out


def hom_d10(f: BigradedHomElement) -> BigradedHomElement:
    out = hom_zero(f.g, f.h, f.p + 1, f.q)
    fsign = Q(-1) if f.total_degree % 2 else Q(1)
    for keys in canonical_tuples(f.g, f.q):
        acc = f.h.d(f.evaluate(keys))
        degs = [vdeg(k) for k in keys]
        for i in range(f.q):
            pre = sum(degs[:i]) % 2
            koszul = Q(-1) if pre else Q(1)
            for nk, coeff in _delta(f.g, keys[i]):
                sub = keys[:i] + (nk,) + keys[i + 1:]
                val = f.evaluate(sub)
                if not vec_is_zero(val):
                    acc = vec_add(acc, vec_scale(-fsign * koszul * coeff, val))
        if not vec_is_zero(acc):
            out.values[keys] = acc
    return out


def hom_d01(f: BigradedHomElement) -> BigradedHomElement:
    out = hom_zero(f.g, f.h, f.p, f.q + 1)
    fsign = Q(-1) if f.total_degree % 2 else Q(1)
    q = f.q + 1
    for keys in canonical_tuples(f.g, q):
        degs = [vdeg(k) for k in keys]
        acc: GVec = {}
        for i, j in itertools.combinations(range(q), 2):
            ksign = 1
            if degs[i] % 2 and sum(degs[:i]) % 2:
                ksign = -ksign
            if degs[j] % 2 and (sum(degs[:j]) - degs[i]) % 2:
                ksign = -ksign
            rest = tuple(keys[t] for t in range(q) if t not in (i, j))
            for nk, coeff in _mu(f.g, keys[i], keys[j]):
                val = f.evaluate((nk,) + rest)
                if not vec_is_zero(val):
                    acc = vec_add(acc, vec_scale(-fsign * Q(ksign) * coeff, val))
        if not vec_is_zero(acc):
            out.values[keys] = acc
    return out


# ---------------------------------------------------------------------------
# the arity-truncated total dgla

@dataclass
class TotalHomElement:
    """Element of the total Hom dgla, truncated at arity <= arity_bound."""

    g: Dgla
    h: Dgla
    arity_bound: int
    components: dict = field(default_factory=dict)  # (p, q) -> BigradedHomElement

    def component(self, p: int, q: int) -> BigradedHomElement:
        return self.components.get((p, q)) or hom_zero(self.g, self.h, p, q)

    def put(self, elem: BigradedHomElement):
        if elem.q <= self.arity_bound and not elem.is_zero():
            key = (elem.p, elem.q)
            if key in self.components:
                self.components[key] = hom_add(self.components[key], elem)
            else:
                self.components[key] = elem
            if self.components[key].is_zero():
                del self.components[key]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components.values())

    def degrees(self) -> set[int]:
        return {p + q for p, q in self.components}

    def copy(self) -> "TotalHomElement":
        out = TotalHomElement(self.g, self.h, self.arity_bound)
        for c in self.components.values():
            out.put(BigradedHomElement(c.g, c.h, c.p, c.q, dict(c.values)))
        return out


def total_zero(g: Dgla, h: Dgla, arity_bound: int) -> TotalHomElement:
    return TotalHomElement(g, h, arity_bound)


def total_add(a: TotalHomElement, b: TotalHomElement) -> TotalHomElement:
    out = a.copy()
    for c in b.components.values():
        out.put(BigradedHomElement(c.g, c.h, c.p, c.q, dict(c.values)))
    return out


def total_scale(c: Fraction, a: TotalHomElement) -> TotalHomElement:
    out = total_zero(a.g, a.h, a.arity_bound)
    for elem in a.components.values():
        out.put(hom_scale(c, elem))
    return out


def total_sub(a: TotalHomElement, b: TotalHomElement) -> TotalHomElement:
    return total_add(a, total_scale(Q(-1), b))


def total_bracket(a: TotalHomElement, b: TotalHomElement) -> TotalHomElement:
    out = total_zero(a.g, a.h, min(a.arity_bound, b.arity_bound))
    for ca in a.components.values():
        for cb in b.components.values():
            if ca.q + cb.q <= out.arity_bound:
                out.put(hom_bracket(ca, cb))
    return out


def total_d(a: TotalHomElement) -> TotalHomElement:
    out = total_zero(a.g, a.h, a.arity_bound)
    for c in a.components.values():
        out.put(hom_d10(c))
        if c.q + 1 <= a.arity_bound:
            out.put(hom_d01(c))
    return out


def total_mc_residual(a: TotalHomElement) -> TotalHomElement:
    return total_add(total_d(a), total_scale(Q(1, 2), total_bracket(a, a)))


def ad_exp_terms(bracket, scale, is_zero, alpha, s, limit: int) -> list:
    """The terms ad_alpha^n(s) / (n+1)!, n = 0, 1, ..., up to the first zero,
    on the caller's elements, as ``dgla.ad_exp_terms`` computed before it
    ran on (D, N) elements; a nonzero term past the first ``limit`` raises
    RuntimeError."""
    terms = []
    factorial = 1
    while not is_zero(s):
        if len(terms) == limit:
            raise RuntimeError("exponential series failed to terminate")
        factorial *= len(terms) + 1
        terms.append(scale(Q(1, factorial), s) if factorial > 1 else s)
        s = bracket(alpha, s)
    return terms


def total_gauge_act(alpha: TotalHomElement, x: TotalHomElement) -> TotalHomElement:
    """e^alpha * x in the arity-truncated total dgla.

    The series terminates because the bracket strictly raises arity.
    """
    out = x.copy()
    for term in ad_exp_terms(total_bracket, total_scale, TotalHomElement.is_zero,
                             alpha, total_sub(total_bracket(alpha, x), total_d(alpha)),
                             x.arity_bound + 2):
        out = total_add(out, term)
    return out


# ---------------------------------------------------------------------------
# L-infinity morphisms via Taylor coefficients

@dataclass
class LinfMorphism:
    """Taylor coefficients F_n of an arity-truncated L-infinity morphism.

    Coefficient n is a BigradedHomElement of bidegree (1 - n, n); all results
    are "up to arity N".
    """

    g: Dgla
    h: Dgla
    arity_bound: int
    coefficients: dict = field(default_factory=dict)  # n -> BigradedHomElement

    def __post_init__(self):
        for n, c in self.coefficients.items():
            if (c.p, c.q) != (1 - n, n):
                raise StructuralError(f"Taylor coefficient {n} has bidegree ({c.p},{c.q})")

    def coefficient(self, n: int) -> BigradedHomElement:
        return self.coefficients.get(n) or hom_zero(self.g, self.h, 1 - n, n)

    def is_strict(self) -> bool:
        return all(c.is_zero() for n, c in self.coefficients.items() if n >= 2)


def assemble(f: LinfMorphism) -> TotalHomElement:
    out = total_zero(f.g, f.h, f.arity_bound)
    for c in f.coefficients.values():
        out.put(BigradedHomElement(c.g, c.h, c.p, c.q, dict(c.values)))
    return out


def extract_taylor(x: TotalHomElement, arity_bound: int | None = None) -> LinfMorphism:
    """Inverse of assemble; rejects stray bidegrees (q = 0 never occurs here,
    but total degree != 1 does)."""
    bound = arity_bound if arity_bound is not None else x.arity_bound
    coeffs = {}
    for (p, q), c in x.components.items():
        if c.is_zero():
            continue
        if p + q != 1:
            raise StructuralError(f"stray bidegree ({p},{q}) in Taylor extraction")
        if q <= bound:
            coeffs[q] = c
    return LinfMorphism(x.g, x.h, bound, coeffs)


def taylor_from_linear(g: Dgla, h: Dgla, f: GradedMap,
                       arity_bound: int = DEFAULT_ARITY) -> LinfMorphism:
    """The Taylor family with F_1 = f and no higher coefficients.

    No validity requirement on f; use strict_embed for validated morphisms.
    """
    if f.shift != 0:
        raise StructuralError("arity-one Taylor coefficient must have shift 0")
    values = {}
    for key in v_basis(g):
        deg, idx = key
        img = f.apply(g.space.basis_element(deg, idx))
        if not vec_is_zero(img):
            values[(key,)] = img
    coeff = BigradedHomElement(g, h, 0, 1, values)
    return LinfMorphism(g, h, arity_bound, {1: coeff} if values else {})


def strict_embed(phi: DglaMorphism, arity_bound: int = DEFAULT_ARITY) -> LinfMorphism:
    report = validate_morphism(phi)
    if not report.ok:
        raise StructuralError(f"not a dgla morphism: {report.failures[:3]}")
    return taylor_from_linear(phi.source, phi.target, phi.map, arity_bound)


def linf_residual(f: LinfMorphism) -> dict[int, BigradedHomElement]:
    """Arity slices of D(F) + [F,F]/2, computable up to arity N + 1.

    All slices vanish iff F is an L-infinity morphism up to arity N.
    """
    wide = total_zero(f.g, f.h, f.arity_bound + 1)
    for c in f.coefficients.values():
        wide.put(BigradedHomElement(c.g, c.h, c.p, c.q, dict(c.values)))
    res = total_mc_residual(wide)
    out: dict[int, BigradedHomElement] = {}
    for (p, q), c in sorted(res.components.items()):
        if not c.is_zero():
            out[q] = hom_add(out[q], c) if q in out else c
    return out


def hom_element_from_linear(g: Dgla, h: Dgla, f: GradedMap) -> BigradedHomElement:
    """An arity-one element of bidegree (shift, 1) from a graded linear map."""
    values = {}
    for key in v_basis(g):
        deg, idx = key
        img = f.apply(g.space.basis_element(deg, idx))
        if not vec_is_zero(img):
            values[(key,)] = img
    return BigradedHomElement(g, h, f.shift, 1, values)


def linear_from_hom_element(f: BigradedHomElement) -> GradedMap:
    if f.q != 1:
        raise StructuralError("only arity-one elements define linear maps")
    blocks: dict[int, list] = {}
    src, tgt = f.g.space, f.h.space
    for deg in src.degrees:
        cols = []
        for idx in range(src.dim(deg)):
            val = f.evaluate(((deg, idx),))
            cols.append(list(val.get(deg + f.p, [Q(0)] * tgt.dim(deg + f.p))))
        if tgt.dim(deg + f.p):
            blocks[deg] = [[cols[j][i] for j in range(len(cols))]
                           for i in range(tgt.dim(deg + f.p))]
    return GradedMap.from_blocks(src, tgt, f.p, blocks)


# ---------------------------------------------------------------------------
# explicit dgla structure on an arity-truncated slice (for axiom validation)

def hom_dgla_slice(g: Dgla, h: Dgla, arity_bound: int = DEFAULT_ARITY) -> Dgla:
    """The truncated total Hom dgla as an explicit Dgla with structure
    constants, graded by total degree p + q.

    Brackets of arity above the bound are projected away; this is consistent
    because the bracket strictly raises arity.
    """
    basis: list[tuple[tuple, tuple[int, int]]] = []  # (input tuple, h basis key)
    for q in range(1, arity_bound + 1):
        for keys in canonical_tuples(g, q):
            s = sum(k[0] for k in keys)
            for hd in h.space.degrees:
                for hi in range(h.space.dim(hd)):
                    basis.append((keys, (hd, hi)))

    def total_degree(entry) -> int:
        keys, (hd, hi) = entry
        return (hd - sum(k[0] for k in keys)) + len(keys)

    by_degree: dict[int, list] = {}
    for entry in basis:
        by_degree.setdefault(total_degree(entry), []).append(entry)
    degs = sorted(by_degree)
    index: dict = {}
    components = {}
    for deg in degs:
        labels = []
        for pos, entry in enumerate(by_degree[deg]):
            keys, (hd, hi) = entry
            lbl = "^".join(g.space.label(kd, ki) for kd, ki in keys)
            labels.append(f"({lbl})->{h.space.label(hd, hi)}")
            index[entry] = (deg, pos)
        components[deg] = tuple(labels)
    space = GradedVectorSpace(components)

    def to_coords(x: TotalHomElement) -> GVec:
        out: GVec = {}
        for c in x.components.values():
            for keys, val in c.values.items():
                for hd, v in val.items():
                    for hi, coeff in enumerate(v):
                        if coeff:
                            deg, pos = index[(keys, (hd, hi))]
                            out.setdefault(deg, [Q(0)] * space.dim(deg))[pos] += coeff
        return {d: v for d, v in out.items() if any(v)}

    def basis_total(entry) -> TotalHomElement:
        keys, (hd, hi) = entry
        elem = BigradedHomElement(g, h, hd - sum(k[0] for k in keys), len(keys),
                                  {keys: h.space.basis_element(hd, hi)})
        out = total_zero(g, h, arity_bound)
        out.put(elem)
        return out

    d_blocks: dict[int, list] = {}
    for deg in degs:
        entries = by_degree[deg]
        tdim = space.dim(deg + 1)
        if not tdim:
            continue
        cols = []
        for entry in entries:
            img = to_coords(total_d(basis_total(entry)))
            cols.append(list(img.get(deg + 1, [Q(0)] * tdim)))
        d_blocks[deg] = [[cols[j][i] for j in range(len(cols))] for i in range(tdim)]
    cx = Complex(space, GradedMap.from_blocks(space, space, 1, d_blocks))

    brackets = {}
    for m in degs:
        for n in degs:
            if m > n:
                continue
            out_dim = space.dim(m + n)
            table = []
            any_nonzero = False
            for ea in by_degree[m]:
                row = []
                ta = basis_total(ea)
                for eb in by_degree[n]:
                    img = to_coords(total_bracket(ta, basis_total(eb)))
                    v = list(img.get(m + n, [Q(0)] * out_dim))
                    if any(v):
                        any_nonzero = True
                    row.append(v)
                table.append(row)
            if any_nonzero:
                brackets[(m, n)] = table
    return Dgla(cx, brackets)


def gauge_zero_transport(g: Dgla, h: Dgla, i: GradedMap,
                         arity_bound: int = DEFAULT_ARITY) -> TotalHomElement:
    """e^{-i} * 0 in the arity-truncated convolution dgla."""
    if i.shift != -1:
        raise StructuralError("a Cartan homotopy must have degree -1")
    ielem = hom_element_from_linear(g, h, i)
    alpha = total_zero(g, h, arity_bound)
    alpha.put(hom_scale(Q(-1), ielem))
    return total_gauge_act(alpha, total_zero(g, h, arity_bound))


# ---------------------------------------------------------------------------
# the Maurer-Cartan kernels on dense GVec coordinate lists

def nilpotency_order(ng) -> int:
    """The nilpotency order of m_A in g (x) m_A: one past its top monomial
    weight."""
    return max(ng.weight) + 1


def mc_residue(ng, x: GVec) -> GVec:
    """dx + [x, x]/2 by ``d`` and ``bracket`` on dense lists."""
    return vec_add(ng.d(x), vec_scale(Q(1, 2), ng.bracket(x, x)))


def gauge_terms(ng, alpha: GVec, x: GVec) -> list[GVec]:
    """The terms of ``ad_exp_terms`` on GVecs: the t-coefficients of
    e^{t alpha} * x past the constant one."""
    return ad_exp_terms(ng.bracket, vec_scale, vec_is_zero, alpha,
                        vec_sub(ng.bracket(alpha, x), ng.d(alpha)),
                        nilpotency_order(ng))


def gauge_act(ng, alpha: GVec, x: GVec) -> GVec:
    """x plus the terms of ``gauge_terms``, summed by ``vec_add``."""
    out = dict(x)
    for term in gauge_terms(ng, alpha, x):
        out = vec_add(out, term)
    return out


def solve_d(ng, deg: int, w: int, r: dict) -> dict | None:
    """The stage solve as ``mc`` did it before it solved per monomial: the
    weight-w slice of d from degree ``deg``, assembled from its columns, and
    one ``linalg.solve`` against the flat rhs r read at the positions of
    that slice; the solution by flat position, or None."""
    rows, cols = ng.by_weight.get((deg + 1, w), []), ng.by_weight.get((deg, w), [])
    at = {p: i for i, p in enumerate(rows)}
    d_w = [{at[p]: c for p, c in ng.dgla.dcols[j].items() if p in at} for j in cols]
    sol = linalg.solve(linalg.transpose(d_w, len(rows)),
                       {i: r[p] for i, p in enumerate(rows) if p in r})
    return None if sol is None else {cols[j]: c for j, c in sol.items()}


def weight_slice(ng, x: GVec, weight: int) -> GVec:
    na = len(ng.weight)
    out: GVec = {}
    for deg, v in x.items():
        w = [c if ng.weight[t % na] == weight else Q(0)
             for t, c in enumerate(v)]
        if any(w):
            out[deg] = w
    return out


def min_weight(ng, x: GVec) -> int | None:
    na = len(ng.weight)
    weights = [ng.weight[t % na]
               for deg, v in x.items() for t, c in enumerate(v) if c]
    return min(weights) if weights else None


def _weight_indices(ng, deg: int, weight: int) -> list[int]:
    na = len(ng.weight)
    return [t for t in range(ng.space.dim(deg))
            if ng.weight[t % na] == weight]


def _d_slice(ng, deg: int, rows: list[int], cols: list[int]) -> list[dict]:
    dcols = ng.dgla.underlying.differential.columns.get(deg)
    at = {r: i for i, r in enumerate(rows)}
    picked = [{at[r]: c for r, c in dcols[j].items() if r in at}
              for j in cols] if dcols else []
    return linalg.transpose(picked, len(rows))


def gauge_equivalent(ng, x: GVec, y: GVec):
    """The staged solver on GVecs: a weight slice of the residual, one
    ``linalg.solve`` per weight, alpha summed by ``vec_add``."""
    from deforma.mc import GaugeResult
    if not (vec_is_zero(mc_residue(ng, x)) and vec_is_zero(mc_residue(ng, y))):
        raise StructuralError("gauge equivalence is only tested between "
                              "Maurer-Cartan elements")
    alpha: GVec = {}
    abelian = ng.g.is_abelian()
    dim0, dim1 = ng.space.dim(0), ng.space.dim(1)
    for w in range(1, nilpotency_order(ng)):
        current = gauge_act(ng, alpha, x) if alpha else dict(x)
        residual = vec_sub(y, current)
        if vec_is_zero(residual):
            break
        r_w = weight_slice(ng, residual, w)
        if vec_is_zero(r_w):
            continue
        rows, cols = _weight_indices(ng, 1, w), _weight_indices(ng, 0, w)
        r_1 = list(r_w.get(1, [Q(0)] * dim1))
        sol = linalg.solve(_d_slice(ng, 0, rows, cols),
                           {i: -r_1[r] for i, r in enumerate(rows) if r_1[r]})
        if sol is None:
            if w == 1 or abelian:
                return GaugeResult("not_equivalent", None,
                                   f"unsolvable linear stage at weight {w}")
            return GaugeResult("inconclusive", None,
                               f"staged solver failed at weight {w}")
        if sol:
            alpha = vec_add(alpha, {0: linalg.dense({cols[j]: v for j, v in sol.items()}, dim0)})
    final = gauge_act(ng, alpha, x) if alpha else dict(x)
    if vec_is_zero(vec_sub(y, final)):
        return GaugeResult("equivalent", alpha)
    return GaugeResult("inconclusive", None, "residual survived all stages")


def mc_obstruction(ng, x: GVec):
    """The lowest weight slice of the dense residue, one class per monomial."""
    from deforma.graded import cohomology
    from deforma.mc import ObstructionClass
    r = mc_residue(ng, x)
    w = min_weight(ng, r)
    if w is None:
        return None
    r_w = weight_slice(ng, r, w)
    na = len(ng.weight)
    h2 = cohomology(ng.g.underlying)
    classes = {}
    v = list(r_w.get(2, [Q(0)] * ng.space.dim(2)))
    for mon in range(na):
        if ng.weight[mon] != w:
            continue
        comp = [v[i * na + mon] for i in range(ng.g.space.dim(2))]
        if not any(comp):
            continue
        if not vec_is_zero(ng.g.d({2: comp})):
            raise StructuralError("obstruction slice is not a cocycle; "
                                  "the input does not solve the equation "
                                  "below its residue weight")
        classes[ng.c.space.labels(0)[mon]] = h2.project({2: comp}).get(
            2, [Q(0)] * max(h2.rank(2), 1))
    return ObstructionClass(weight=w, classes=classes, representative=r_w)


def mc_extend(ng, seed: GVec):
    """Dense obstruction, then a dense same-weight correction, until solved
    or obstructed."""
    from deforma.mc import ExtensionResult
    x = dict(seed)
    for _ in range(nilpotency_order(ng) + 1):
        obs = mc_obstruction(ng, x)
        if obs is None:
            return ExtensionResult("solved", x)
        if not obs.vanishes:
            return ExtensionResult("obstructed", x, obs)
        rows, cols = _weight_indices(ng, 2, obs.weight), _weight_indices(ng, 1, obs.weight)
        r_2 = list(obs.representative.get(2, [Q(0)] * ng.space.dim(2)))
        sol = linalg.solve(_d_slice(ng, 1, rows, cols),
                           {i: -r_2[r] for i, r in enumerate(rows) if r_2[r]})
        if sol is None:
            raise StructuralError("vanishing obstruction class with unsolvable "
                                  "correction; inconsistent cohomology data")
        x = vec_add(x, {1: linalg.dense({cols[j]: v for j, v in sol.items()},
                                        ng.space.dim(1))})
    raise RuntimeError("extension failed to terminate")


def bch(bracket, x: GVec, y: GVec, cutoff: int) -> GVec:
    """Varadarajan's recursion on GVecs, as ``mc.bch`` computed it before the
    recursion was shared with the flat kernel: vec_add, vec_sub and
    vec_scale, with each nested bracket memoised by its suffix."""
    from deforma.mc import _bernoulli, _compositions

    def lie(a: GVec, b: GVec) -> GVec:
        return {} if vec_is_zero(a) or vec_is_zero(b) else bracket(a, b)

    z = [{}, vec_add(x, y)]
    diff = vec_sub(x, y)
    nested = {(): z[1]}

    def nest(ks: tuple) -> GVec:
        if ks not in nested:
            nested[ks] = lie(z[ks[0]], nest(ks[1:]))
        return nested[ks]

    bernoulli = _bernoulli(cutoff)
    for n in range(1, cutoff):
        acc = vec_scale(Q(1, 2), lie(diff, z[n]))
        for p in range(1, n // 2 + 1):
            c = bernoulli[2 * p] / math.factorial(2 * p)
            for ks in _compositions(n, 2 * p):
                acc = vec_add(acc, vec_scale(c, nest(ks)))
        z.append(vec_scale(Q(1, n + 1), acc))
    total: GVec = {}
    for zn in z[1:cutoff + 1]:
        total = vec_add(total, zn)
    return total


def pi1_multiply(ng, a: GVec, b: GVec) -> GVec:
    return bch(ng.bracket, a, b, nilpotency_order(ng) - 1)


# ---------------------------------------------------------------------------
# the flag side and the period differential, on dense coordinates

@dataclass
class DenseFlag:
    h_space: GradedVectorSpace
    representatives: dict       # degree -> list of cocycle vectors in Omega
    f_h: object                 # the induced filtration, a FiltrationData
    f_reps: dict                # p -> {degree -> list of (class coords, cocycle)}
    quotients: dict             # p -> QuotientComplex of (H, d=0) by F^p H


@dataclass
class DenseEnd:
    flag: DenseFlag
    levels: list
    layout: list                # (p, degree, rows, cols) unknown blocks
    basis: list                 # flat coordinate vectors, as sparse rows


def filtered_subdgla(omega: CdgaModel, f) -> SubDgla:
    """End^{>=0}: per End degree k, the kernel of the rows that ask phi to
    take each basis row of F^p into F^p, densified and spanned again."""
    end = end_dgla(omega.complex)
    sp = omega.space
    span: dict = {}
    index = end_index(sp)
    for k in end.space.degrees:
        dim = end.space.dim(k)
        position = {entry: pos for pos, entry in enumerate(index[k])}
        rows = []
        for p in f.levels():
            sub = f.step(p)
            for deg in sorted(sub.echelon):
                tdeg = deg + k
                functionals = linalg.nullspace(sub.rows(tdeg), sp.dim(tdeg))
                for v in sub.rows(deg):
                    rows.extend({position[deg, si, di]: c * e
                                 for si, c in v.items() for di, e in func.items()}
                                for func in functionals)
        kernel = linalg.nullspace(rows, dim)
        if kernel:
            span[k] = [linalg.dense(r, dim) for r in kernel]
    return sub_dgla_span(end.dgla, span)


def flag_data(omega: CdgaModel, f) -> DenseFlag:
    """The induced filtration on H, each F^p H^k spanned by the classes of
    the cocycles of F^p Omega^k, every one kept with its class."""
    hc = graded.cohomology(omega.complex)
    components = {deg: tuple(f"H{deg}_{i}" for i in range(data.rank))
                  for deg, data in hc.by_degree.items() if data.rank}
    h_space = GradedVectorSpace(components)
    reps = {deg: hc.representatives(deg) for deg in components}
    steps: dict = {}
    f_reps: dict = {}
    for p in f.levels():
        sub = f.step(p)
        span: dict = {}
        pairs: dict = {}
        for deg in h_space.degrees:
            dim = omega.space.dim(deg)
            basis = sub.rows(deg)
            if not basis:
                continue
            images = [omega.complex.differential.apply_row(deg, v) for v in basis]
            kernel = linalg.nullspace(
                linalg.transpose(images, omega.space.dim(deg + 1)), len(basis))
            for coeffs in kernel:
                cocycle = linalg.dense(linalg.combine(basis, coeffs.items()), dim)
                if not any(cocycle):
                    continue
                coords = hc.project({deg: cocycle}).get(deg)
                if coords and any(coords):
                    span.setdefault(deg, []).append(coords)
                    pairs.setdefault(deg, []).append((coords, cocycle))
        if span:
            steps[p] = span
            f_reps[p] = pairs
    f_h = FiltrationData(h_space, {p: graded.SubSpaceData(h_space, span)
                                   for p, span in steps.items()})
    h_complex = Complex(h_space, graded.zero_map(h_space, h_space, 1))
    quotients = {p: graded.quotient_complex(h_complex, f_h.step(p)) for p in f.levels()}
    return DenseFlag(h_space, reps, f_h, f_reps, quotients)


def flag_cocycles(flag: DenseFlag, p: int, deg: int) -> list:
    """The cocycle of each echelon row v of F^p H^deg, as a sparse row: the
    cocycles of ``f_reps`` combined by ``solve`` of v against their
    classes."""
    pairs = flag.f_reps.get(p, {}).get(deg, [])
    coord_rows = linalg.transpose([linalg.sparse(c) for c, _ in pairs],
                                  flag.h_space.dim(deg))
    cocycles = [linalg.sparse(z) for _, z in pairs]
    out = []
    for v in flag.f_h.step(p).rows(deg):
        sol = linalg.solve(coord_rows, v)
        if sol is None:
            raise StructuralError("filtered class without a filtered representative")
        out.append(linalg.combine(cocycles, sol.items()))
    return out


def end_of_flag_diagram(flag: DenseFlag) -> DenseEnd:
    """The compatibility equations of the families (phi_p), one unknown per
    block entry found by a linear scan of the layout, and their kernel."""
    f_h, h_space = flag.f_h, flag.h_space
    levels = []
    for p in f_h.levels():
        sub = f_h.step(p)
        if sum(sub.dim(d) for d in h_space.degrees) and any(
                h_space.dim(d) > sub.dim(d) for d in h_space.degrees):
            levels.append(p)
    layout, offsets, size = [], {}, 0
    for p in levels:
        sub = f_h.step(p)
        for deg in h_space.degrees:
            cols = sub.dim(deg)
            rows = flag.quotients[p].complex.space.dim(deg)
            if rows and cols:
                layout.append((p, deg, rows, cols))
                offsets[(p, deg)] = size
                size += rows * cols

    def block_index(p, deg, r, c):
        for (pp, dd, rows, cols) in layout:
            if pp == p and dd == deg:
                return offsets[(p, deg)] + r * cols + c
        return None

    constraints = []
    for p in levels:
        if (p + 1) not in levels:
            continue
        sub_p, sub_p1 = f_h.step(p), f_h.step(p + 1)
        q_p, q_p1 = flag.quotients[p], flag.quotients[p + 1]
        for deg in h_space.degrees:
            basis_p1 = sub_p1.rows(deg)
            rows_p = q_p.complex.space.dim(deg)
            rows_p1 = q_p1.complex.space.dim(deg)
            if not basis_p1 or not rows_p:
                continue
            pi_block = [list(q_p.projection.apply(h_space.basis_element(deg, idx)).get(
                deg, [Q(0)] * rows_p)) for idx in q_p1.section_indices[deg]]
            for j, w in enumerate(basis_p1):
                w_in_p = sub_p.coords(deg, w)
                if w_in_p is None:
                    raise StructuralError("induced filtration is not decreasing")
                for r in range(rows_p):
                    row = {}
                    for c, x in w_in_p.items():
                        idx = block_index(p, deg, r, c)
                        if idx is not None:
                            row[idx] = row.get(idx, ZERO) + x
                    for rr in range(rows_p1):
                        idx = block_index(p + 1, deg, rr, j)
                        if idx is not None:
                            row[idx] = row.get(idx, ZERO) - pi_block[rr][r]
                    row = {i: x for i, x in row.items() if x}
                    if row:
                        constraints.append(row)
    return DenseEnd(flag, levels, layout, linalg.nullspace(constraints, size))


def coordinates_of(endspace: DenseEnd, blocks: dict) -> Vector | None:
    """A family's coordinates in the end basis, by ``solve`` against the
    basis written as columns."""
    flat = []
    for (p, deg, rows, cols) in endspace.layout:
        block = blocks.get((p, deg)) or [[ZERO] * cols] * rows
        for r in range(rows):
            flat.extend(block[r])
    x = linalg.solve(linalg.transpose(endspace.basis, len(flat)), linalg.sparse(flat))
    return None if x is None else linalg.dense(x, len(endspace.basis))


def period_differential(contraction, f):
    """The period differential on dense coordinates: per basis class of
    F^p H^k, its cocycle by ``solve`` against the classes of ``f_reps``,
    then i_a of it, read in H(Omega/F^p) and carried back to H/F^p H.
    Returns the flag, the end space, the matrix and the families."""
    omega = contraction.omega
    flag = flag_data(omega, f)
    endspace = end_of_flag_diagram(flag)
    hg = graded.cohomology(contraction.source.underlying)
    deg_iso, quotient_cohomology, omega_quotients = {}, {}, {}
    for p in endspace.levels:
        oq = omega_quotients[p] = graded.quotient_complex(omega.complex, f.step(p))
        qc = quotient_cohomology[p] = graded.cohomology(oq.complex)
        hq = flag.quotients[p]
        for deg in flag.h_space.degrees:
            rows, cols = qc.rank(deg), hq.complex.space.dim(deg)
            if not cols:
                continue
            iso = linalg.transpose(
                [linalg.sparse(qc.project(oq.projection.apply(
                    {deg: list(flag.representatives[deg][idx])})).get(deg, []))
                 for idx in hq.section_indices[deg]], rows)
            if rows != cols or linalg.rank(iso) != cols:
                raise StructuralError(
                    f"degeneration comparison fails to be an isomorphism at "
                    f"level {p}, degree {deg}")
            deg_iso[(p, deg)] = iso
    matrix, families = [], []
    for rep in hg.representatives(1):
        op = contraction.end.element_to_map(contraction.i.apply({1: list(rep)}))
        blocks = {}
        for (p, deg, rows, cols) in endspace.layout:
            block_cols = []
            for z in flag_cocycles(flag, p, deg):
                image = op.apply({deg: linalg.dense(z, omega.space.dim(deg))})
                qc = quotient_cohomology[p]
                cls = qc.project(omega_quotients[p].projection.apply(image)).get(
                    deg, [Q(0)] * qc.rank(deg))
                back = linalg.solve(deg_iso[(p, deg)], linalg.sparse(cls))
                if back is None:
                    raise StructuralError("degeneration isomorphism failed "
                                          "to invert a period class")
                block_cols.append(linalg.dense(back, rows))
            blocks[(p, deg)] = [[block_cols[c][r] for c in range(cols)]
                                for r in range(rows)]
        coords = coordinates_of(endspace, blocks)
        if coords is None:
            raise StructuralError("period image violates the end "
                                  "compatibility equations")
        matrix.append(coords)
        families.append(blocks)
    return flag, endspace, matrix, families
