"""Graded vector spaces, graded maps, complexes and their cohomology.

All spaces are finitely supported over the rationals.  Elements of a graded
space are dicts ``degree -> coordinate list``; missing degrees mean zero.
``vec_add``, ``vec_sub`` and ``vec_scale`` do no arithmetic on a zero
coordinate.  Graded maps are stored as sparse columns, one dict of nonzero
coefficients per source basis vector (``GradedMap``), so applying and
composing them costs in proportion to the nonzeros met.  Dense blocks are a
view, made for the elimination kernels (``cohomology``, ``solve``) and for
JSON, or kept as given when a map is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import linalg
from .linalg import Matrix, Q, Vector

_ZERO = Q(0)

GVec = dict  # degree -> list[Fraction]


class StructuralError(ValueError):
    """Dimension or shape mismatch, as opposed to a failed axiom check."""


# ---------------------------------------------------------------------------
# spaces

@dataclass(frozen=True)
class GradedVectorSpace:
    """Finitely supported degree-indexed vector space with labelled bases."""

    components: dict[int, tuple[str, ...]]

    def __post_init__(self):
        for deg, labels in self.components.items():
            if len(set(labels)) != len(labels):
                raise StructuralError(f"duplicate basis labels in degree {deg}")

    def dim(self, deg: int) -> int:
        return len(self.components.get(deg, ()))

    def labels(self, deg: int) -> tuple[str, ...]:
        return self.components.get(deg, ())

    @property
    def degrees(self) -> list[int]:
        return sorted(d for d, ls in self.components.items() if ls)

    def total_dim(self) -> int:
        return sum(len(ls) for ls in self.components.values())

    def zero(self) -> GVec:
        return {}

    def basis_element(self, deg: int, idx: int) -> GVec:
        v = [Q(0)] * self.dim(deg)
        v[idx] = Q(1)
        return {deg: v}

    def basis(self) -> list[tuple[int, int]]:
        return [(d, i) for d in self.degrees for i in range(self.dim(d))]

    def label(self, deg: int, idx: int) -> str:
        return self.components[deg][idx]


def vec_add(x: GVec, y: GVec) -> GVec:
    out = {d: v[:] for d, v in x.items()}
    for d, v in y.items():
        w = out.get(d)
        if w is None:
            out[d] = v[:]
            continue
        for i, b in enumerate(v):
            if b:
                a = w[i]
                w[i] = a + b if a else b
    return {d: v for d, v in out.items() if any(v)}


def vec_scale(c: Fraction, x: GVec) -> GVec:
    if not c:
        return {}
    return {d: [c * a if a else a for a in v] for d, v in x.items()}


def vec_sub(x: GVec, y: GVec) -> GVec:
    out = {d: v[:] for d, v in x.items()}
    for d, v in y.items():
        w = out.get(d)
        if w is None:
            out[d] = [-b if b else b for b in v]
            continue
        for i, b in enumerate(v):
            if b:
                a = w[i]
                w[i] = a - b if a else -b
    return {d: v for d, v in out.items() if any(v)}


def vec_is_zero(x: GVec) -> bool:
    return all(not a for v in x.values() for a in v)


def vec_eq(x: GVec, y: GVec) -> bool:
    return vec_is_zero(vec_sub(x, y))


def vec_degree(x: GVec) -> int | None:
    """Degree of a homogeneous element, None for 0 or inhomogeneous."""
    degs = [d for d, v in x.items() if any(v)]
    return degs[0] if len(degs) == 1 else None


def vec_component(x: GVec, deg: int, dim: int) -> Vector:
    return list(x.get(deg, [Q(0)] * dim))


# ---------------------------------------------------------------------------
# maps

Column = dict  # target basis index -> nonzero coefficient


def _combine(cols: list[Column], coeffs) -> Column:
    """The sum of c * cols[j] over the pairs (j, c) of ``coeffs``, zeros dropped."""
    acc: Column = {}
    for j, c in coeffs:
        for r, e in cols[j].items():
            acc[r] = acc[r] + c * e if r in acc else c * e
    return {r: s for r, s in acc.items() if s}


def _is_dense(blocks: dict) -> bool:
    """Dense blocks are lists of rows; columns are lists of dicts."""
    return not any(block and isinstance(block[0], dict) for block in blocks.values())


@dataclass(frozen=True)
class GradedMap:
    """Degree-homogeneous linear map V -> W of degree ``shift``, held as
    sparse columns: ``columns[n][j]`` is the image of basis vector j of V_n,
    a dict from indices of W_{n+shift} to nonzero coefficients.  Degrees
    where the map is zero are absent.

    Dense blocks, ``blocks[n]`` a list of rows mapping V_n -> W_{n+shift},
    are accepted in the place of ``columns`` and converted, with their shape
    checks.  ``blocks`` and ``block(n)`` are the dense view, for the
    elimination kernels and for JSON: the dense input itself, or built from
    the columns when first asked for.  ``apply`` and ``compose`` read only
    the columns and cost in proportion to the nonzeros they meet.
    """

    source: GradedVectorSpace
    target: GradedVectorSpace
    shift: int
    columns: dict[int, list[Column]]

    def __post_init__(self):
        given = self.columns
        if _is_dense(given):
            for n, block in given.items():
                rows, cols = linalg.shape(block)
                if cols != self.source.dim(n) or rows != self.target.dim(n + self.shift):
                    raise StructuralError(
                        f"block at degree {n} has shape {rows}x{cols}, expected "
                        f"{self.target.dim(n + self.shift)}x{self.source.dim(n)}")
            self.__dict__["blocks"] = given
            columns = {}
            for n, block in given.items():
                cols = columns[n] = [{} for _ in range(self.source.dim(n))]
                for r, row in enumerate(block):
                    for j, c in enumerate(row):
                        if c:
                            cols[j][r] = c
        else:
            for n, cols in given.items():
                rows = self.target.dim(n + self.shift)
                if len(cols) != self.source.dim(n) or not all(
                        c and 0 <= r < rows for col in cols for r, c in col.items()):
                    raise StructuralError(
                        f"columns at degree {n}: expected {self.source.dim(n)} columns "
                        f"of nonzero entries in rows 0..{rows - 1}, got {len(cols)}")
            columns = given
        object.__setattr__(self, "columns",
                           {n: cols for n, cols in sorted(columns.items()) if any(cols)})

    @cached_property
    def blocks(self) -> dict[int, Matrix]:
        """``blocks[n]`` is the dense matrix of V_n -> W_{n+shift}."""
        out = {}
        for n, cols in self.columns.items():
            block = out[n] = linalg.zeros(self.target.dim(n + self.shift), len(cols))
            for j, col in enumerate(cols):
                for r, c in col.items():
                    block[r][j] = c
        return out

    def block(self, n: int) -> Matrix:
        if n in self.blocks:
            return self.blocks[n]
        return linalg.zeros(self.target.dim(n + self.shift), self.source.dim(n))

    def apply(self, x: GVec) -> GVec:
        out: GVec = {}
        for deg, v in x.items():
            nonzero = [(j, c) for j, c in enumerate(v) if c]
            if not nonzero:
                continue
            if len(v) != self.source.dim(deg):
                raise ValueError(f"shape mismatch: vector of length {len(v)} in degree "
                                 f"{deg}, expected {self.source.dim(deg)}")
            cols = self.columns.get(deg)
            image = _combine(cols, nonzero) if cols else None
            if image:
                w = out[deg + self.shift] = [_ZERO] * self.target.dim(deg + self.shift)
                for r, c in image.items():
                    w[r] = c
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        columns = {}
        for n in other.source.degrees:
            m = n + other.shift
            if self.source.dim(m) != other.target.dim(m):
                raise ValueError(f"shape mismatch: composing through degree {m} of "
                                 f"dimensions {self.source.dim(m)} and {other.target.dim(m)}")
            inner, outer = other.columns.get(n), self.columns.get(m)
            if inner and outer:
                columns[n] = [_combine(outer, col.items()) for col in inner]
        return GradedMap(other.source, self.target, self.shift + other.shift, columns)

    def add(self, other: "GradedMap") -> "GradedMap":
        if other.shift != self.shift:
            raise StructuralError("cannot add maps of different shifts")
        columns = dict(self.columns)
        for n, cols in other.columns.items():
            mine = columns.get(n)
            columns[n] = cols if mine is None else [    # a + b, column by column
                _combine((a, b), ((0, 1), (1, 1))) for a, b in zip(mine, cols)]
        return GradedMap(self.source, self.target, self.shift, columns)

    def scale(self, c: Fraction) -> "GradedMap":
        columns = {n: [{r: c * e for r, e in col.items()} for col in cols]
                   for n, cols in self.columns.items()} if c else {}
        return GradedMap(self.source, self.target, self.shift, columns)

    def is_zero(self) -> bool:
        return not self.columns


def zero_map(source: GradedVectorSpace, target: GradedVectorSpace, shift: int = 0) -> GradedMap:
    return GradedMap(source, target, shift, {})


def identity_map(space: GradedVectorSpace) -> GradedMap:
    return GradedMap(space, space, 0,
                     {n: [{i: Q(1)} for i in range(space.dim(n))] for n in space.degrees})


# ---------------------------------------------------------------------------
# complexes

@dataclass(frozen=True)
class Complex:
    space: GradedVectorSpace
    differential: GradedMap

    def __post_init__(self):
        d = self.differential
        if d.shift != 1:
            raise StructuralError("differential must have shift +1")
        if d.source is not self.space and d.source.components != self.space.components:
            raise StructuralError("differential source does not match space")
        dd = d.compose(d)
        if not dd.is_zero():
            raise StructuralError(f"d^2 != 0 starting in degrees {list(dd.columns)}")

    def d(self, x: GVec) -> GVec:
        return self.differential.apply(x)


def shift_complex(c: Complex, k: int) -> Complex:
    """(C[k])^n = C^{n+k} with differential (-1)^k d."""
    space = GradedVectorSpace({n - k: labels for n, labels in c.space.components.items()})
    d = c.differential.scale(Q(-1)) if k % 2 else c.differential
    return Complex(space, GradedMap(space, space, 1,
                                    {n - k: cols for n, cols in d.columns.items()}))


def is_chain_map(f: GradedMap, source: Complex, target: Complex) -> GradedMap:
    """Residual d_target f - (-1)^shift f d_source (zero iff chain map).

    For shift 0 this is the usual commutation; the sign makes a degree-k map
    into a shifted complex compatible with the shift convention above.
    """
    sign = Q(-1) if f.shift % 2 else Q(1)
    return target.differential.compose(f).add(f.compose(source.differential).scale(-sign))


# ---------------------------------------------------------------------------
# subspaces and quotients

@dataclass(frozen=True)
class SubSpaceData:
    """Per-degree spanning vectors of a subspace of ``parent``."""

    parent: GradedVectorSpace
    span: dict[int, list[Vector]]

    def __post_init__(self):
        for deg, vecs in self.span.items():
            for v in vecs:
                if len(v) != self.parent.dim(deg):
                    raise StructuralError(f"span vector length mismatch in degree {deg}")

    @classmethod
    def from_echelon(cls, parent: GradedVectorSpace,
                     echelon: dict[int, tuple[list[Vector], list[int]]]) -> "SubSpaceData":
        """The span of vectors already in echelon form: per degree, vectors
        and columns with vector i 1 at column i and 0 at the other columns
        (as ``linalg.kernel`` gives them).  They are the basis as they are,
        with no elimination."""
        sub = cls(parent, {deg: vecs for deg, (vecs, _) in echelon.items()})
        sub.__dict__["echelon"] = {deg: e for deg, e in echelon.items() if e[0]}
        return sub

    @cached_property
    def echelon(self) -> dict[int, tuple[list[Vector], list[int]]]:
        """Per degree: the reduced echelon basis of the span and its pivot
        columns (basis vector i is 1 at pivot i and 0 at the other pivots)."""
        out = {}
        for deg, vecs in self.span.items():
            if vecs:
                red, pivots = linalg.rref(vecs)
                out[deg] = (red[:len(pivots)], pivots)
        return out

    def basis_in_degree(self, deg: int) -> list[Vector]:
        """Deterministic independent basis of the span in one degree."""
        return self.echelon.get(deg, ([], []))[0]

    def dim(self, deg: int) -> int:
        return len(self.basis_in_degree(deg))

    def coords(self, deg: int, v: Vector) -> Vector | None:
        """Coordinates of v in ``basis_in_degree(deg)``, or None if v is not
        in the span.  They are read off the pivot columns, then checked by
        rebuilding v from them."""
        basis, pivots = self.echelon.get(deg, ([], []))
        c = [v[p] for p in pivots]
        rebuilt = [Q(0)] * len(v)
        for ci, b in zip(c, basis):
            if ci:
                for j, bj in enumerate(b):
                    if bj:
                        rebuilt[j] += ci * bj
        return c if rebuilt == list(v) else None

    def contains(self, x: GVec) -> bool:
        return all(self.coords(deg, v) is not None
                   for deg, v in x.items() if any(v))


@dataclass(frozen=True)
class QuotientComplex:
    """Quotient of a complex by a d-closed subspace, with the projection."""

    complex: Complex
    projection: GradedMap          # parent space -> quotient space
    section_indices: dict[int, list[int]]  # chosen parent basis indices per degree


def quotient_complex(c: Complex, sub: SubSpaceData) -> QuotientComplex:
    """Quotient by a d-closed subspace; rejects if the subspace is not d-closed."""
    for deg in sorted(sub.span):
        for v in sub.basis_in_degree(deg):
            img = c.d({deg: v})
            if not vec_is_zero(img) and not sub.contains(img):
                raise StructuralError(f"subspace not closed under d in degree {deg}")

    components: dict[int, tuple[str, ...]] = {}
    section_indices: dict[int, list[int]] = {}
    proj_blocks: dict[int, Matrix] = {}
    bases: dict[int, list[Vector]] = {}

    for deg in c.space.degrees:
        dim = c.space.dim(deg)
        sub_basis = sub.basis_in_degree(deg)
        comp_idx = linalg.extend_to_complement(sub_basis, dim)
        section_indices[deg] = comp_idx
        labels = tuple(f"[{c.space.label(deg, i)}]" for i in comp_idx)
        if labels:
            components[deg] = labels
        comp_vectors = []
        for i in comp_idx:
            e = [Q(0)] * dim
            e[i] = Q(1)
            comp_vectors.append(e)
        bases[deg] = sub_basis + comp_vectors
        # projection: coordinates along the complement part of the adapted basis
        if dim:
            full = linalg.columns_matrix(bases[deg], dim)
            red, pivots = linalg.rref([full[i][:] + row for i, row in enumerate(linalg.identity(dim))])
            # invert the adapted basis matrix: full is square invertible
            inv = [row[dim:] for row in red]
            proj_blocks[deg] = [inv[len(sub_basis) + j] for j in range(len(comp_idx))]

    qspace = GradedVectorSpace(components)
    proj = GradedMap(c.space, qspace, 0,
                     {deg: blk for deg, blk in proj_blocks.items() if blk and qspace.dim(deg)})
    # d on the quotient: the projection of d on the chosen section
    pd = proj.compose(c.differential).columns
    qdiff = GradedMap(qspace, qspace, 1, {
        deg: [pd[deg][i] for i in section_indices[deg]]
        for deg in qspace.degrees if deg in pd})
    return QuotientComplex(Complex(qspace, qdiff), proj, section_indices)


# ---------------------------------------------------------------------------
# cohomology

@dataclass(frozen=True)
class DegreeCohomology:
    rank: int
    representatives: list[Vector]   # cocycle coordinate vectors in C^n
    coboundaries: list[Vector]      # basis of im(d_{n-1})


@dataclass(frozen=True)
class CohomologyResult:
    complex: Complex
    by_degree: dict[int, DegreeCohomology] = field(repr=False)

    def rank(self, deg: int) -> int:
        data = self.by_degree.get(deg)
        return data.rank if data else 0

    @property
    def ranks(self) -> dict[int, int]:
        return {d: c.rank for d, c in sorted(self.by_degree.items()) if c.rank}

    def representatives(self, deg: int) -> list[Vector]:
        data = self.by_degree.get(deg)
        return data.representatives if data else []

    def project(self, x: GVec) -> dict[int, Vector]:
        """Cohomology coordinates of a cocycle, per degree.

        Raises if x is not a cocycle of the underlying complex.
        """
        if not vec_is_zero(self.complex.d(x)):
            raise ValueError("cannot project a non-cocycle to cohomology")
        out: dict[int, Vector] = {}
        for deg, v in x.items():
            if not any(v):
                continue
            data = self.by_degree.get(deg)
            reps = data.representatives if data else []
            cobs = data.coboundaries if data else []
            cols = cobs + reps
            if not cols:
                if any(v):
                    raise ValueError(f"nonzero cocycle in degree {deg} with trivial cocycle space")
                continue
            sol = linalg.solve(linalg.columns_matrix(cols, len(v)), list(v))
            if sol is None:
                raise ValueError(f"element is not a cocycle in degree {deg}")
            coords = sol[len(cobs):]
            if any(coords):
                out[deg] = coords
        return out

    def euler_characteristic(self) -> Fraction:
        return sum(((-1) ** (deg % 2)) * c.rank for deg, c in self.by_degree.items())


def cohomology(c: Complex) -> CohomologyResult:
    by_degree: dict[int, DegreeCohomology] = {}
    degs = c.space.degrees
    for deg in degs:
        dim = c.space.dim(deg)
        if not dim:
            continue
        d_here = c.differential.block(deg)
        cocycles = linalg.nullspace(d_here) if c.space.dim(deg + 1) else \
            [r for r in linalg.identity(dim)]
        d_prev = c.differential.block(deg - 1) if c.space.dim(deg - 1) else None
        cobs = linalg.column_space_basis(d_prev) if d_prev else []
        # extend coboundaries to cocycles, deterministically: the cocycles
        # among the pivot columns of [cobs | cocycles], leftmost first
        _, pivots = linalg.rref(linalg.columns_matrix(cobs + cocycles, dim))
        reps = [cocycles[p - len(cobs)] for p in pivots if p >= len(cobs)]
        by_degree[deg] = DegreeCohomology(rank=len(reps), representatives=reps,
                                          coboundaries=cobs)
    return CohomologyResult(c, by_degree)


def induced_map_on_cohomology(f: GradedMap, source: Complex, target: Complex,
                              source_cohomology: CohomologyResult | None = None,
                              target_cohomology: CohomologyResult | None = None) -> dict[int, Matrix]:
    """Matrices of H^n(f) in the chosen representative bases.

    Rejects f if it is not a chain map (residual reported in the error).
    """
    residual = is_chain_map(f, source, target)
    if not residual.is_zero():
        raise StructuralError(
            f"not a chain map; residual nonzero in degrees {list(residual.columns)}")
    hs = source_cohomology or cohomology(source)
    ht = target_cohomology or cohomology(target)
    out: dict[int, Matrix] = {}
    for deg, data in hs.by_degree.items():
        if not data.rank:
            continue
        tdeg = deg + f.shift
        cols = []
        for rep in data.representatives:
            img = f.apply({deg: rep})
            coords = ht.project(img).get(tdeg, [Q(0)] * ht.rank(tdeg))
            cols.append(coords)
        out[deg] = linalg.transpose(cols) if ht.rank(tdeg) else linalg.zeros(0, data.rank)
    return out
