"""Dense reference implementations of the bracket, the axiom sweep and
g (x) m_A.

These read ``Dgla.brackets`` directly, coordinate by coordinate, with no
use of the sparse table.  They are the oracle for ``Dgla.bracket``,
``Dgla.pair_bracket`` and ``validate_dgla`` in test_sparse_kernel.py, and
for ``tensor_nilpotent`` in test_artin.py.
"""

from deforma.dgla import Dgla, ValidationReport, _residual_repr
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, GVec,
                            vec_add, vec_is_zero, vec_scale, vec_sub)
from deforma.linalg import Q


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
