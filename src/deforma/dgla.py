"""Differential graded Lie algebras: data type, axiom validation, morphisms,
sub-dglas and quotients; finite cdga models; the tensor dgla g (x) A; and
the exponential series shared by every gauge action.

Bracket structure constants are stored only for degree pairs (m, n) with
m <= n; the other order is derived from graded antisymmetry, which removes a
redundancy-consistency failure mode.  This dense storage is the input and
JSON form.  Every bracket is evaluated from one sparse table per dgla
(``Dgla.table``): indexed by flat basis position, holding only the nonzero
constants, for both orders of each pair.  Typical tables are sparse (under
1% nonzero on the convolution Hom slices), so ``bracket``, ``pair_bracket``
and ``validate_dgla`` cost in proportion to the nonzeros they meet.  A
``CdgaModel`` stores its products the same way, with the graded-commutative
sign in place of the antisymmetric one.

``tensor_dgla(g, A)`` is the one construction of a dgla tensored with a
finite cdga.  The nilpotent coefficient dglas g (x) m_A (``artin``), the
path objects h (x) Omega(Delta^1) (``holim``) and the convolution dglas
h (x) CE_{<=N}(g) (``convolution``) are all built by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .graded import (Complex, GradedMap, GradedVectorSpace, GVec, SubSpaceData,
                     StructuralError, QuotientComplex, is_chain_map,
                     quotient_complex, vec_component, vec_is_zero, vec_sub)
from .linalg import Q, Vector


@dataclass
class ValidationReport:
    """List of failed axiom instances; empty report means valid."""

    failures: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, kind: str, witness, residual=None):
        entry = {"kind": kind, "witness": witness}
        if residual is not None:
            entry["residual"] = residual
        self.failures.append(entry)

    def merge(self, other: "ValidationReport"):
        self.failures.extend(other.failures)
        self.notes.update(other.notes)


def _residual_repr(x: GVec) -> dict:
    return {str(d): [str(c) for c in v] for d, v in x.items() if any(v)}


Sparse = dict  # flat basis position -> nonzero coefficient

_ZERO = Q(0)


class StructureTable:
    """The nonzero structure constants of a bilinear map over a flat basis.

    Basis vector ``idx`` of degree ``deg`` sits at flat position
    ``offset[deg] + idx`` (``space.basis()`` order).  ``row(a)[b]`` is the
    sparse vector of e_a * e_b; pairs whose product is zero are absent.
    Rows cover both orders of every pair: e_b * e_a = -(-1)^{|a||b|} e_a * e_b
    for a Lie bracket, and (-1)^{|a||b|} e_a * e_b for a graded-commutative
    product (``symmetric``), for mixed-degree pairs.  Each row is read out of
    the dense tables the first time it is asked for, so a few brackets on a
    large host touch only the rows of their left arguments.
    """

    def __init__(self, space: GradedVectorSpace,
                 brackets: dict[tuple[int, int], list[list[Vector]]],
                 symmetric: bool = False):
        self.dims = {deg: space.dim(deg) for deg in space.degrees}
        self.offset: dict[int, int] = {}
        self.position: list[tuple[int, int]] = []     # flat -> (deg, idx)
        for deg, dim in self.dims.items():
            self.offset[deg] = len(self.position)
            self.position.extend((deg, i) for i in range(dim))
        # degree m -> [(n, dense table, sign)]: sign None reads table[i][j]
        # from (m, n); a sign reads table[j][i] from the stored (n, m), n < m
        self._sources: dict[int, list] = {deg: [] for deg in self.offset}
        for (m, n), table in brackets.items():
            if m in self._sources:
                self._sources[m].append((n, table, None))
            if m != n and n in self._sources:
                odd = (m * n) % 2 == 1
                self._sources[n].append((m, table, 1 if odd != symmetric else -1))
        self._rows: list[dict[int, Sparse] | None] = [None] * len(self.position)

    def __len__(self) -> int:
        return len(self.position)

    def row(self, a: int) -> dict[int, Sparse]:
        row = self._rows[a]
        if row is None:
            row = self._rows[a] = {}
            m, i = self.position[a]
            for n, table, sign in self._sources[m]:
                base, target = self.offset.get(n), self.offset.get(m + n)
                vectors = table[i] if sign is None else [r[i] for r in table]
                for j, v in enumerate(vectors):
                    entry = {target + k: c if sign is None else sign * c
                             for k, c in enumerate(v) if c}
                    if entry:
                        row[base + j] = entry
        return row

    __getitem__ = row

    def pair(self, m: int, i: int, n: int, j: int) -> GVec:
        """e_i * e_j for basis vectors of degrees m, n."""
        if m not in self.offset or n not in self.offset:
            return {}
        entry = self.row(self.offset[m] + i).get(self.offset[n] + j)
        return self.graded(entry) if entry else {}

    def product(self, x: GVec, y: GVec) -> GVec:
        acc: Sparse = {}
        _bracket_into(acc, 1, self, self.flat(x), self.flat(y))
        return self.graded(acc)

    def flat(self, x: GVec) -> Sparse:
        out: Sparse = {}
        for deg, v in x.items():
            base = self.offset.get(deg)
            if base is None:
                continue
            for i, c in enumerate(v):
                if c:
                    out[base + i] = c
        return out

    def graded(self, s: Sparse) -> GVec:
        """The element with flat coordinates ``s``; zero degrees dropped."""
        out: GVec = {}
        for k, c in s.items():
            if c:
                deg, idx = self.position[k]
                v = out.get(deg)
                if v is None:
                    v = out[deg] = [_ZERO] * self.dims[deg]
                v[idx] = c
        return out


def _add_into(acc: Sparse, scale, s: Sparse):
    for k, c in s.items():
        acc[k] = acc[k] + scale * c if k in acc else scale * c


def _bracket_into(acc: Sparse, scale, rows, x: Sparse, y: Sparse):
    """acc += scale [x, y], with ``rows[a]`` the table row of e_a."""
    for a, xc in x.items():
        row = rows[a]
        if not row:
            continue
        if len(row) <= len(y):
            hits = [(e, y[b]) for b, e in row.items() if b in y]
        else:
            hits = [(row[b], yc) for b, yc in y.items() if b in row]
        for e, yc in hits:
            _add_into(acc, scale * xc * yc, e)


@dataclass(frozen=True)
class Dgla:
    """Complex plus bracket structure constants.

    ``brackets[(m, n)][i][j]`` (only m <= n stored) is the coordinate vector
    of [e_i, e_j] in degree m + n.  This dense form is the JSON format and is
    never mutated; brackets are evaluated from ``table``, the sparse form
    built from it on first use.
    """

    underlying: Complex
    brackets: dict[tuple[int, int], list[list[Vector]]]

    def __post_init__(self):
        sp = self.space
        for (m, n), table in self.brackets.items():
            if m > n:
                raise StructuralError(f"bracket table for ({m},{n}) must be stored as ({n},{m})")
            if len(table) != sp.dim(m):
                raise StructuralError(f"bracket table ({m},{n}) has {len(table)} rows, expected {sp.dim(m)}")
            for row in table:
                if len(row) != sp.dim(n):
                    raise StructuralError(f"bracket table ({m},{n}) row length mismatch")
                for v in row:
                    if len(v) != sp.dim(m + n):
                        raise StructuralError(f"bracket value in ({m},{n}) has wrong length")

    @cached_property
    def table(self) -> StructureTable:
        return StructureTable(self.space, self.brackets)

    @property
    def space(self) -> GradedVectorSpace:
        return self.underlying.space

    def d(self, x: GVec) -> GVec:
        return self.underlying.d(x)

    def pair_bracket(self, m: int, i: int, n: int, j: int) -> GVec:
        """[e_i, e_j] for basis vectors of degrees m, n."""
        return self.table.pair(m, i, n, j)

    def bracket(self, x: GVec, y: GVec) -> GVec:
        return self.table.product(x, y)

    def basis_element(self, deg: int, idx: int) -> GVec:
        return self.space.basis_element(deg, idx)

    def label(self, deg: int, idx: int) -> str:
        return self.space.label(deg, idx)

    def is_abelian(self) -> bool:
        t = self.table
        return not any(t.row(a) for a in range(len(t)))


def abelian_dgla(c: Complex) -> Dgla:
    return Dgla(c, {})


def _differential_columns(t: StructureTable, d: GradedMap) -> list[Sparse]:
    """d e_a as a sparse vector, for every flat position a of ``t``."""
    cols: list[Sparse] = [{} for _ in t.position]
    for deg, block in d.blocks.items():
        if deg not in t.offset:
            continue
        src, dst = t.offset[deg], t.offset.get(deg + 1)
        for r, row in enumerate(block):
            for c, val in enumerate(row):
                if val:
                    cols[src + c][dst + r] = val
    return cols


def validate_dgla(g: Dgla) -> ValidationReport:
    """Check graded antisymmetry, Leibniz and Jacobi on every basis instance.

    Runs over the sparse table: an instance whose brackets are all absent
    from it is zero without arithmetic.
    """
    report = ValidationReport()
    t = g.table
    rows = [t.row(a) for a in range(len(t))]
    dcols = _differential_columns(t, g.underlying.differential)
    n_basis = len(rows)
    labels = [g.label(deg, idx) for deg, idx in t.position]
    degree = [deg for deg, _ in t.position]
    empty: Sparse = {}

    def fail(kind, positions, acc):
        report.fail(kind, [labels[p] for p in positions],
                    _residual_repr(t.graded(acc)))

    # antisymmetry within equal degrees (mixed degrees are antisymmetric by
    # construction of the table); [a,a] = 0 for even |a|
    for (m, n) in g.brackets:
        if m != n or m not in t.offset:
            continue
        base = t.offset[m]
        sign = 1 if (m * m) % 2 else -1  # -(-1)^{m^2}
        for a in range(base, base + t.dims[m]):
            for b in range(a, base + t.dims[m]):
                acc: Sparse = {}
                _add_into(acc, 1, rows[a].get(b, empty))
                _add_into(acc, -sign, rows[b].get(a, empty))
                if any(acc.values()):
                    fail("antisymmetry", (a, b), acc)

    # graded Leibniz: d[a,b] = [da,b] + (-1)^{|a|}[a,db]
    for a in range(n_basis):
        row, da = rows[a], dcols[a]
        if not row and not da:
            continue
        sign = -1 if degree[a] % 2 else 1
        for b in range(n_basis):
            acc = {}
            for k, c in row.get(b, empty).items():
                _add_into(acc, c, dcols[k])
            _bracket_into(acc, -1, rows, da, {b: 1})
            _bracket_into(acc, -sign, rows, {a: 1}, dcols[b])
            if any(acc.values()):
                fail("leibniz", (a, b), acc)

    # graded Jacobi in the symmetric cyclic form; with antisymmetry in hand,
    # unordered triples suffice.  For a <= b, a c >= b can only give a
    # nonzero sum if [a,b], [b,c] or [c,a] is in the table.
    partners = [[] for _ in range(n_basis)]   # c with [c, a] present
    for c, row in enumerate(rows):
        for a in row:
            partners[a].append(c)
    for a in range(n_basis):
        m = degree[a]
        for b in range(a, n_basis):
            n = degree[b]
            ab = rows[a].get(b)
            if ab:
                cs = range(b, n_basis)
            else:
                cs = sorted({c for c in rows[b] if c >= b}
                            | {c for c in partners[a] if c >= b})
            for c in cs:
                p = degree[c]
                acc = {}
                if ab:
                    _bracket_into(acc, -1 if (m * p) % 2 else 1, rows, ab, {c: 1})
                bc = rows[b].get(c)
                if bc:
                    _bracket_into(acc, -1 if (n * m) % 2 else 1, rows, bc, {a: 1})
                ca = rows[c].get(a)
                if ca:
                    _bracket_into(acc, -1 if (p * n) % 2 else 1, rows, ca, {b: 1})
                if any(acc.values()):
                    fail("jacobi", (a, b, c), acc)
    return report


@dataclass(frozen=True)
class CdgaModel:
    """Complex plus graded-commutative product structure constants.

    ``products[(m, n)][i][j]`` (stored for m <= n) is e_i * e_j in degree
    m + n; the other order is derived from graded commutativity.  Products
    are evaluated from ``table``, the sparse form built from it on first use.
    """

    complex: Complex
    products: dict

    @cached_property
    def table(self) -> StructureTable:
        return StructureTable(self.space, self.products, symmetric=True)

    @property
    def space(self) -> GradedVectorSpace:
        return self.complex.space

    def d(self, x: GVec) -> GVec:
        return self.complex.d(x)

    def pair_product(self, m: int, i: int, n: int, j: int) -> GVec:
        return self.table.pair(m, i, n, j)

    def multiply(self, x: GVec, y: GVec) -> GVec:
        return self.table.product(x, y)


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


def tensor_dgla(g: Dgla, a: CdgaModel) -> Dgla:
    """g (x) A for a dgla g and a finite cdga A, on the basis ``tensor_basis``
    with labels "v@a":

        d(v (x) a) = dv (x) a + (-1)^{|v|} v (x) da,
        [v (x) a, w (x) b] = (-1)^{|a||w|} [v, w] (x) ab.

    The dense tables are filled from the nonzeros of ``g.table``,
    ``a.table`` and the two differentials only.
    """
    gt, at = g.table, a.table
    basis = tensor_basis(g.space, a.space)
    space = GradedVectorSpace({
        k: tuple(f"{g.label(*v)}@{a.space.label(*f)}" for v, f in pairs)
        for k, pairs in basis.items()})
    place = {}      # (g flat position, A flat position) -> (degree, index)
    for k, pairs in basis.items():
        for idx, ((p, i), (q, j)) in enumerate(pairs):
            place[gt.offset[p] + i, at.offset[q] + j] = (k, idx)
    gdeg = [deg for deg, _ in gt.position]
    adeg = [deg for deg, _ in at.position]

    gd = _differential_columns(gt, g.underlying.differential)
    ad = _differential_columns(at, a.complex.differential)
    d_blocks = {}
    for (v, f), (k, col) in place.items():
        sign = -1 if gdeg[v] % 2 else 1
        for key, c in ([((u, f), c) for u, c in gd[v].items()]
                       + [((v, h), sign * c) for h, c in ad[f].items()]):
            if k not in d_blocks:
                d_blocks[k] = linalg.zeros(space.dim(k + 1), space.dim(k))
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
                        brackets[k1, k2] = [[[_ZERO] * out for _ in range(space.dim(k2))]
                                            for _ in range(space.dim(k1))]
                    cell = brackets[k1, k2][x][y]
                    for u, c in vw.items():
                        for e, s in fh.items():
                            cell[place[u, e][1]] = sign * c * s
    return Dgla(Complex(space, GradedMap(space, space, 1, d_blocks)), brackets)


def ad_exp_terms(bracket, scale, is_zero, alpha, s, limit: int) -> list:
    """The terms ad_alpha^n(s) / (n+1)!, n = 0, 1, ..., up to the first zero.

    Every gauge action is e^alpha * x = x + (sum of these terms) with
    s = [alpha, x] - d alpha.  ``bracket``, ``scale`` and ``is_zero`` act on
    the caller's elements.  ad_alpha must be nilpotent: a nonzero term past
    the first ``limit`` raises RuntimeError.
    """
    terms = []
    factorial = 1
    while not is_zero(s):
        if len(terms) == limit:
            raise RuntimeError("exponential series failed to terminate")
        factorial *= len(terms) + 1
        terms.append(scale(Q(1, factorial), s))
        s = bracket(alpha, s)
    return terms


@dataclass(frozen=True)
class DglaMorphism:
    source: Dgla
    target: Dgla
    map: GradedMap

    def __post_init__(self):
        if self.map.shift != 0:
            raise StructuralError("dgla morphism must have shift 0")

    def apply(self, x: GVec) -> GVec:
        return self.map.apply(x)


def validate_morphism(f: DglaMorphism) -> ValidationReport:
    report = ValidationReport()
    res = is_chain_map(f.map, f.source.underlying, f.target.underlying)
    for deg in sorted(res.blocks):
        block = res.block(deg)
        if not linalg.is_zero_matrix(block):
            report.fail("chain_map", [f"degree {deg}"],
                        [[str(x) for x in row] for row in block])
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


def identity_morphism(g: Dgla) -> DglaMorphism:
    from .graded import identity_map
    return DglaMorphism(g, g, identity_map(g.space))


@dataclass(frozen=True)
class SubDgla:
    parent: Dgla
    span: SubSpaceData

    def __post_init__(self):
        if self.span.parent.components != self.parent.space.components:
            raise StructuralError("sub-dgla span declared on a different space")

    def contains(self, x: GVec) -> bool:
        return self.span.contains(x)

    def dim(self, deg: int) -> int:
        return self.span.dim(deg)


def sub_dgla_span(parent: Dgla, span: dict[int, list[Vector]]) -> SubDgla:
    return SubDgla(parent, SubSpaceData(parent.space, span))


def validate_sub_dgla(n: SubDgla) -> ValidationReport:
    """Closure under d and bracket."""
    report = ValidationReport()
    h = n.parent
    degs = sorted(n.span.span)
    for deg in degs:
        for idx, v in enumerate(n.span.basis_in_degree(deg)):
            img = h.d({deg: v})
            if not n.contains(img):
                report.fail("d_closure", [f"degree {deg} span vector {idx}"],
                            _residual_repr(img))
    for m in degs:
        for i, v in enumerate(n.span.basis_in_degree(m)):
            for p in degs:
                for j, w in enumerate(n.span.basis_in_degree(p)):
                    b = h.bracket({m: v}, {p: w})
                    if not n.contains(b):
                        report.fail("bracket_closure",
                                    [f"degree {m} vector {i}", f"degree {p} vector {j}"],
                                    _residual_repr(b))
    return report


def sub_quotient(h: Dgla, n: SubDgla) -> tuple[ValidationReport, QuotientComplex]:
    """Validate closure of n inside h and return the quotient complex h/n.

    The bracket does not descend to the quotient in general, so only the
    complex is returned.
    """
    report = validate_sub_dgla(n)
    quotient = quotient_complex(h.underlying, n.span)
    return report, quotient


def inclusion_as_morphism(n: SubDgla) -> DglaMorphism:
    """The sub-dgla on its own basis, included into the parent."""
    sub = restrict_to_sub(n)
    blocks = {}
    for deg in sub.space.degrees:
        cols = [list(v) for v in n.span.basis_in_degree(deg)]
        blocks[deg] = linalg.transpose(cols)
    return DglaMorphism(sub, n.parent,
                        GradedMap(sub.space, n.parent.space, 0, blocks))


def restrict_to_sub(n: SubDgla) -> Dgla:
    """The dgla structure induced on a (closed) sub-dgla, on its own basis."""
    h = n.parent
    bases = {deg: n.span.basis_in_degree(deg) for deg in sorted(n.span.span)}
    bases = {deg: bs for deg, bs in bases.items() if bs}
    components = {deg: tuple(f"s{deg}_{i}" for i in range(len(bs)))
                  for deg, bs in bases.items()}
    space = GradedVectorSpace(components)

    def to_sub_coords(x: GVec) -> GVec:
        out: GVec = {}
        for deg, v in x.items():
            if not any(v):
                continue
            sol = n.span.coords(deg, v)
            if sol is None:
                raise StructuralError(f"element leaves the subspace in degree {deg}")
            out[deg] = sol
        return out

    d_blocks = {}
    for deg, bs in bases.items():
        cols = []
        for v in bs:
            img = h.d({deg: v})
            coords = to_sub_coords(img)
            cols.append(vec_component(coords, deg + 1, space.dim(deg + 1)))
        if space.dim(deg + 1) and cols:
            d_blocks[deg] = linalg.transpose(cols)
    cx = Complex(space, GradedMap(space, space, 1, d_blocks))

    brackets = {}
    # brackets of an abelian parent vanish, so there are no tables to build
    degs = [] if h.is_abelian() else sorted(bases)
    for m in degs:
        for p in degs:
            if m > p:
                continue
            table = []
            for v in bases[m]:
                row = []
                for w in bases[p]:
                    b = h.bracket({m: v}, {p: w})
                    coords = to_sub_coords(b)
                    row.append(vec_component(coords, m + p, space.dim(m + p)))
                table.append(row)
            if any(any(c for c in cell) for row in table for cell in row):
                brackets[(m, p)] = table
    return Dgla(cx, brackets)
