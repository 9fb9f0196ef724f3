"""Graded vector spaces, graded maps, complexes and their cohomology.

All spaces are finitely supported over the rationals.  Elements of a graded
space are dicts ``degree -> coordinate list``; missing degrees mean zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from . import linalg
from .linalg import Matrix, Q, Vector

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
        if d in out:
            out[d] = [a + b for a, b in zip(out[d], v)]
        else:
            out[d] = v[:]
    return {d: v for d, v in out.items() if any(v)}


def vec_scale(c: Fraction, x: GVec) -> GVec:
    if not c:
        return {}
    return {d: [c * a for a in v] for d, v in x.items()}


def vec_sub(x: GVec, y: GVec) -> GVec:
    return vec_add(x, vec_scale(Q(-1), y))


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

@dataclass(frozen=True)
class GradedMap:
    """Degree-homogeneous linear map: blocks[n] maps V_n -> W_{n+shift}."""

    source: GradedVectorSpace
    target: GradedVectorSpace
    shift: int
    blocks: dict[int, Matrix]

    def __post_init__(self):
        for n, block in self.blocks.items():
            rows, cols = linalg.shape(block)
            if cols != self.source.dim(n) or rows != self.target.dim(n + self.shift):
                raise StructuralError(
                    f"block at degree {n} has shape {rows}x{cols}, expected "
                    f"{self.target.dim(n + self.shift)}x{self.source.dim(n)}")

    def block(self, n: int) -> Matrix:
        if n in self.blocks:
            return self.blocks[n]
        return linalg.zeros(self.target.dim(n + self.shift), self.source.dim(n))

    def apply(self, x: GVec) -> GVec:
        out: GVec = {}
        for deg, v in x.items():
            if not any(v):
                continue
            w = linalg.matvec(self.block(deg), v)
            if any(w):
                out[vd] = [a + b for a, b in zip(out[vd], w)] if (vd := deg + self.shift) in out else w
        return {d: v for d, v in out.items() if any(v)}

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other."""
        blocks = {}
        for n in other.source.degrees:
            m = linalg.matmul(self.block(n + other.shift), other.block(n))
            if not linalg.is_zero_matrix(m):
                blocks[n] = m
        return GradedMap(other.source, self.target, self.shift + other.shift, blocks)

    def add(self, other: "GradedMap") -> "GradedMap":
        if other.shift != self.shift:
            raise StructuralError("cannot add maps of different shifts")
        degs = set(self.blocks) | set(other.blocks)
        return GradedMap(self.source, self.target, self.shift,
                         {n: linalg.add(self.block(n), other.block(n)) for n in degs})

    def scale(self, c: Fraction) -> "GradedMap":
        return GradedMap(self.source, self.target, self.shift,
                         {n: linalg.scale(c, b) for n, b in self.blocks.items()})

    def is_zero(self) -> bool:
        return all(linalg.is_zero_matrix(b) for b in self.blocks.values())


def zero_map(source: GradedVectorSpace, target: GradedVectorSpace, shift: int = 0) -> GradedMap:
    return GradedMap(source, target, shift, {})


def identity_map(space: GradedVectorSpace) -> GradedMap:
    return GradedMap(space, space, 0,
                     {n: linalg.identity(space.dim(n)) for n in space.degrees})


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
            bad = sorted(n for n, b in dd.blocks.items() if not linalg.is_zero_matrix(b))
            raise StructuralError(f"d^2 != 0 starting in degrees {bad}")

    def d(self, x: GVec) -> GVec:
        return self.differential.apply(x)


def shift_complex(c: Complex, k: int) -> Complex:
    """(C[k])^n = C^{n+k} with differential (-1)^k d."""
    space = GradedVectorSpace({n - k: labels for n, labels in c.space.components.items()})
    sign = Q(-1) if k % 2 else Q(1)
    blocks = {n - k: linalg.scale(sign, b) for n, b in c.differential.blocks.items()}
    return Complex(space, GradedMap(space, space, 1, blocks))


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
    d_blocks: dict[int, Matrix] = {}
    for deg in qspace.degrees:
        cols = []
        for i in section_indices[deg]:
            img = c.d(c.space.basis_element(deg, i))
            w = vec_component(img, deg + 1, c.space.dim(deg + 1))
            pb = proj_blocks.get(deg + 1)
            cols.append(linalg.matvec(pb, w) if pb else [])
        if cols and any(any(col) for col in cols):
            d_blocks[deg] = linalg.transpose(cols)
    qdiff = GradedMap(qspace, qspace, 1, d_blocks)
    proj = GradedMap(c.space, qspace, 0,
                     {deg: blk for deg, blk in proj_blocks.items() if blk and qspace.dim(deg)})
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
        bad = sorted(n for n, b in residual.blocks.items() if not linalg.is_zero_matrix(b))
        raise StructuralError(f"not a chain map; residual nonzero in degrees {bad}")
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
