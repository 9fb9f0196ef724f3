"""Dense reference implementations of the bracket, the axiom sweep,
g (x) m_A and the exact linear algebra of subspaces.

The bracket oracles read ``Dgla.brackets`` directly, coordinate by
coordinate, with no use of the sparse table.  They are the oracle for
``Dgla.bracket``, ``Dgla.pair_bracket`` and ``validate_dgla`` in
test_sparse_kernel.py, and for ``tensor_nilpotent`` in test_artin.py.

The linear-algebra oracles do one elimination per vector: an ``rref`` that
rewrites whole rows, greedy ``in_span`` loops for cohomology
representatives and complements, and sub-dgla coordinates by ``solve``.
They are the oracle for ``linalg.rref``, ``cohomology``,
``quotient_complex`` and ``restrict_to_sub`` in test_elimination.py.
"""

from deforma.dgla import Dgla, SubDgla, ValidationReport, _residual_repr
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, GVec,
                            SubSpaceData, vec_add, vec_is_zero, vec_scale,
                            vec_sub)
from deforma.linalg import Matrix, Q, Vector, columns_matrix, identity, transpose


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


def tensor_nilpotent(g, a) -> Dgla:
    """g (x) m_A on the basis (g basis) major, (monomials) minor, labels
    "v@m": d(v (x) m) = dv (x) m, [v (x) m, w (x) m'] = [v, w] (x) mm'.
    Every pair of tensor basis vectors gets its own dense vector."""
    sp = g.space
    na = a.dim
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
    cx = Complex(space, GradedMap(space, space, 1, d_blocks))

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
                        prod = a.multiply(mi, mj)
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


def nullspace(a: Matrix) -> list[Vector]:
    cols = len(a[0]) if a else 0
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
        cocycles = (nullspace(c.differential.block(deg)) if c.space.dim(deg + 1)
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
    """The induced dgla on the echelon basis of n, every coordinate found by
    ``solve`` and every bracket table built."""
    h = n.parent
    bases = {deg: echelon_basis(vs) for deg, vs in sorted(n.span.span.items())}
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
    return Dgla(Complex(space, GradedMap(space, space, 1, d_blocks)), brackets)
