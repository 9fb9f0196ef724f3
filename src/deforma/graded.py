"""Graded vector spaces, graded maps, complexes and their cohomology.

All spaces are finitely supported over the rationals.  Elements of a graded
space are dicts ``degree -> coordinate list`` (``GVec``), missing degrees
meaning zero: the form elements take across the public API.  The bracket and
Maurer-Cartan kernels compute on flat sparse coordinates (``dgla.FlatBasis``).
Graded maps are stored as sparse columns, one dict of nonzero coefficients
per source basis vector (``GradedMap``), so applying and composing them costs
in proportion to the nonzeros met.  Cohomology, subspaces and quotients read
those columns straight into the sparse echelons of ``linalg``.  Dense blocks
enter through ``GradedMap.from_blocks`` alone and come back as a view for
JSON; a filtration step or a span given densely is eliminated once, into a
``SubSpaceData``.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction

from .linalg import (Echelon, Q, Row, Vector, column_space_basis, combine, dense,
                     extend_to_complement, nullspace, sparse, transpose)

_ZERO, _ONE = Q(0), Q(1)

Matrix = list[list[Fraction]]

GVec = dict  # degree -> list[Fraction]


class StructuralError(ValueError):
    """Dimension or shape mismatch, as opposed to a failed axiom check."""


# ---------------------------------------------------------------------------
# spaces

class GradedVectorSpace:
    """Finitely supported degree-indexed vector space with labelled bases."""

    def __init__(self, components: dict[int, tuple[str, ...]]):
        self.components = components
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


# ---------------------------------------------------------------------------
# maps

Column = Row  # target basis index -> nonzero coefficient


class GradedMap:
    """Degree-homogeneous linear map V -> W of degree ``shift``, held as
    sparse columns: ``columns[n][j]`` is the image of basis vector j of V_n,
    a dict from indices of W_{n+shift} to nonzero coefficients.  Degrees
    where the map is zero are absent.

    Dense blocks, ``blocks[n]`` a list of rows mapping V_n -> W_{n+shift},
    come in through ``from_blocks``, which checks their shapes.  ``blocks``
    and ``block(n)`` are the dense view, for JSON, built from the columns
    when first asked for.  ``apply`` and ``compose`` read only the columns
    and cost in proportion to the nonzeros they meet.
    """

    def __init__(self, source: GradedVectorSpace, target: GradedVectorSpace, shift: int,
                 columns: dict[int, list[Column]]):
        self.source = source
        self.target = target
        self.shift = shift
        for n, cols in columns.items():
            rows = target.dim(n + shift)
            if len(cols) != source.dim(n) or not all(
                    isinstance(col, dict) and all(c and 0 <= r < rows for r, c in col.items())
                    for col in cols):
                raise StructuralError(
                    f"columns at degree {n}: expected {source.dim(n)} columns "
                    f"of nonzero entries in rows 0..{rows - 1}, got {len(cols)}")
        self.columns = {n: cols for n, cols in sorted(columns.items()) if any(cols)}

    @classmethod
    def from_blocks(cls, source: GradedVectorSpace, target: GradedVectorSpace, shift: int,
                    blocks: dict[int, Matrix]) -> "GradedMap":
        """The map with dense blocks ``blocks[n]``, V_n -> W_{n+shift}, each
        checked to have that shape."""
        columns = {}
        for n, block in blocks.items():
            rows, cols = len(block), len(block[0]) if block else source.dim(n)
            if cols != source.dim(n) or rows != target.dim(n + shift):
                raise StructuralError(
                    f"block at degree {n} has shape {rows}x{cols}, expected "
                    f"{target.dim(n + shift)}x{source.dim(n)}")
            columns[n] = [{r: row[j] for r, row in enumerate(block) if row[j]}
                          for j in range(cols)]
        return cls(source, target, shift, columns)

    @cached_property
    def blocks(self) -> dict[int, Matrix]:
        """``blocks[n]`` is the dense matrix of V_n -> W_{n+shift}."""
        out = {}
        for n, cols in self.columns.items():
            block = out[n] = [[_ZERO] * len(cols)
                              for _ in range(self.target.dim(n + self.shift))]
            for j, col in enumerate(cols):
                for r, c in col.items():
                    block[r][j] = c
        return out

    def block(self, n: int) -> Matrix:
        if n in self.blocks:
            return self.blocks[n]
        return [[_ZERO] * self.source.dim(n) for _ in range(self.target.dim(n + self.shift))]

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
            image = combine(cols, nonzero) if cols else None
            if image:
                w = out[deg + self.shift] = [_ZERO] * self.target.dim(deg + self.shift)
                for r, c in image.items():
                    w[r] = c
        return out

    def apply_row(self, deg: int, row: Row) -> Row:
        """The image of a sparse row of degree ``deg``, a sparse row."""
        cols = self.columns.get(deg)
        return combine(cols, row.items()) if cols else {}

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
                columns[n] = [combine(outer, col.items()) for col in inner]
        return GradedMap(other.source, self.target, self.shift + other.shift, columns)

    def add(self, other: "GradedMap") -> "GradedMap":
        if other.shift != self.shift:
            raise StructuralError("cannot add maps of different shifts")
        columns = dict(self.columns)
        for n, cols in other.columns.items():
            mine = columns.get(n)
            columns[n] = cols if mine is None else [    # a + b, column by column
                combine((a, b), ((0, 1), (1, 1))) for a, b in zip(mine, cols)]
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

class Complex:
    def __init__(self, space: GradedVectorSpace, differential: GradedMap):
        self.space = space
        self.differential = differential
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

class SubSpaceData:
    """A subspace of ``parent``: per degree, ``echelon[deg]`` is the reduced
    echelon basis of the span as sparse rows, row i 1 at pivot i and 0 at
    the other pivots, and the pivots.  ``span`` is the dense spanning set
    given (JSON input), or else the rows densified when first asked for."""

    def __init__(self, parent: GradedVectorSpace, span: dict[int, list[Vector]]):
        self.parent = parent
        self.span = span
        for deg, vecs in self.span.items():
            for v in vecs:
                if len(v) != self.parent.dim(deg):
                    raise StructuralError(f"span vector length mismatch in degree {deg}")
        self.echelon: dict[int, tuple[list[Row], list[int]]] = {}
        for deg, vecs in self.span.items():
            e = Echelon(sparse(v) for v in vecs)
            if e.rows:
                pivots = sorted(e.rows)
                self.echelon[deg] = ([e.rows[p] for p in pivots], pivots)

    @classmethod
    def from_echelon(cls, parent: GradedVectorSpace,
                     echelon: dict[int, tuple[list[Row], list[int]]]) -> "SubSpaceData":
        """The span of sparse rows already in echelon form: per degree, rows
        and columns with row i 1 at column i and 0 at the other columns (as
        ``linalg.kernel`` gives them).  They are the basis as they are,
        with no elimination."""
        sub = cls.__new__(cls)
        sub.parent = parent
        sub.echelon = {deg: e for deg, e in echelon.items() if e[0]}
        return sub

    @cached_property
    def span(self) -> dict[int, list[Vector]]:
        return {deg: [dense(r, self.parent.dim(deg)) for r in rows]
                for deg, (rows, _) in self.echelon.items()}

    def rows(self, deg: int) -> list[Row]:
        """The echelon basis of degree ``deg``."""
        return self.echelon.get(deg, ((), ()))[0]

    def dim(self, deg: int) -> int:
        return len(self.rows(deg))

    def coords(self, deg: int, row: Row) -> Row | None:
        """The coordinates of a sparse row of degree ``deg`` in ``rows(deg)``,
        a sparse row, or None if it is not in the span.  They are read off
        the pivot columns, then checked by rebuilding ``row`` from them."""
        basis, pivots = self.echelon.get(deg, ((), ()))
        c = {i: row[p] for i, p in enumerate(pivots) if p in row}
        return c if combine(basis, c.items()) == row else None

    def contains(self, x: GVec) -> bool:
        return all(self.coords(deg, sparse(v)) is not None for deg, v in x.items())


class QuotientComplex:
    """Quotient of a complex by a d-closed subspace, with the projection."""

    def __init__(self, complex: Complex, projection: GradedMap,
                 section_indices: dict[int, list[int]]):
        self.complex = complex
        self.projection = projection            # parent space -> quotient space
        self.section_indices = section_indices  # chosen parent basis indices per degree


def _complement_projection(basis: list[Row], comp: list[int], dim: int) -> list[Column]:
    """Columns of the projection K^dim -> K^comp along the span of ``basis``,
    where e_i, i in ``comp``, complete that span to K^dim.  The span meets
    the other coordinates isomorphically, so its echelon with the columns of
    ``comp`` put last has a row s_i at each other column i, and e_i - s_i
    lies in the span of the e_c."""
    pos = {i: j for j, i in enumerate(comp)}
    order = [i for i in range(dim) if i not in pos] + comp
    relabel = {i: k for k, i in enumerate(order)}
    rows = Echelon({relabel[j]: x for j, x in row.items()} for row in basis).rows
    first = dim - len(comp)
    return [{pos[i]: _ONE} if i in pos else
            {k - first: -x for k, x in rows[relabel[i]].items() if k >= first}
            for i in range(dim)]


def quotient_complex(c: Complex, sub: SubSpaceData) -> QuotientComplex:
    """Quotient by a d-closed subspace; rejects if the subspace is not d-closed."""
    for deg, (rows, _) in sorted(sub.echelon.items()):
        for row in rows:
            if sub.coords(deg + 1, c.differential.apply_row(deg, row)) is None:
                raise StructuralError(f"subspace not closed under d in degree {deg}")

    components: dict[int, tuple[str, ...]] = {}
    section_indices: dict[int, list[int]] = {}
    proj_columns: dict[int, list[Column]] = {}
    for deg in c.space.degrees:
        dim = c.space.dim(deg)
        basis = sub.rows(deg)
        comp = section_indices[deg] = extend_to_complement(basis, dim)
        if comp:
            components[deg] = tuple(f"[{c.space.label(deg, i)}]" for i in comp)
            proj_columns[deg] = _complement_projection(basis, comp, dim)

    qspace = GradedVectorSpace(components)
    proj = GradedMap(c.space, qspace, 0, proj_columns)
    # d on the quotient: the projection of d on the chosen section
    pd = proj.compose(c.differential).columns
    qdiff = GradedMap(qspace, qspace, 1, {
        deg: [pd[deg][i] for i in section_indices[deg]]
        for deg in qspace.degrees if deg in pd})
    return QuotientComplex(Complex(qspace, qdiff), proj, section_indices)


# ---------------------------------------------------------------------------
# cohomology

class DegreeCohomology:
    def __init__(self, rank: int, representatives: list[Vector], coboundaries: list[Row]):
        self.rank = rank
        self.representatives = representatives  # cocycle coordinate vectors in C^n
        self.coboundaries = coboundaries        # basis of im(d_{n-1}), as sparse vectors


class CohomologyResult:
    def __init__(self, complex: Complex, by_degree: dict[int, DegreeCohomology]):
        self.complex = complex
        self.by_degree = by_degree

    def rank(self, deg: int) -> int:
        data = self.by_degree.get(deg)
        return data.rank if data else 0

    @property
    def ranks(self) -> dict[int, int]:
        return {d: c.rank for d, c in sorted(self.by_degree.items()) if c.rank}

    def representatives(self, deg: int) -> list[Vector]:
        data = self.by_degree.get(deg)
        return data.representatives if data else []

    @cached_property
    def _class_echelons(self) -> dict[int, tuple[Echelon, Echelon]]:
        """Per degree, filled when first asked for: the echelon of the
        coboundaries, and that of the representatives reduced by it, each
        representative j tagged by a 1 at column dim + j."""
        return {}

    def project_row(self, deg: int, row: Row) -> Row:
        """The cohomology coordinates of a cocycle of degree ``deg``, given
        and returned as sparse rows: the row is reduced by the coboundaries
        and then by the representatives, whose tags read off the class.

        Raises if the row is not a cocycle of the underlying complex."""
        dim = self.complex.space.dim(deg)
        if any(not 0 <= j < dim for j in row):
            raise ValueError(f"shape mismatch: row entry outside degree {deg} "
                             f"of dimension {dim}")
        found = self._class_echelons.get(deg)
        if found is None:
            data = self.by_degree.get(deg) or DegreeCohomology(0, [], [])
            cobs, reps = Echelon(data.coboundaries), Echelon()
            for j, rep in enumerate(data.representatives):
                reps.insert({**cobs.reduce(sparse(rep)), dim + j: _ONE})
            found = self._class_echelons[deg] = (cobs, reps)
        cobs, reps = found
        # row = b + sum x_j rep_j: the tags of the residual are -x
        residual = reps.reduce(cobs.reduce(row))
        if any(j < dim for j in residual):
            raise ValueError(f"element is not a cocycle in degree {deg}")
        return {j - dim: -x for j, x in residual.items()}

    def project(self, x: GVec) -> dict[int, Vector]:
        """Cohomology coordinates of a cocycle, per degree: ``project_row``
        on each degree of a ``GVec``.

        Raises if x is not a cocycle of the underlying complex.
        """
        if any(len(v) != self.complex.space.dim(deg) for deg, v in x.items() if any(v)):
            raise ValueError("shape mismatch: a vector's length is not its degree's dimension")
        coords = {deg: self.project_row(deg, sparse(v)) for deg, v in x.items()}
        return {deg: dense(c, self.rank(deg)) for deg, c in coords.items() if c}

    def euler_characteristic(self) -> Fraction:
        return sum(((-1) ** (deg % 2)) * c.rank for deg, c in self.by_degree.items())


def cohomology(c: Complex) -> CohomologyResult:
    """Per degree: the cocycles are the kernel of d, read off d's columns
    as rows; the coboundaries are the columns of the previous d independent
    of those before them, and the representatives the cocycles then
    independent of the coboundaries and the cocycles before them, all from
    one echelon."""
    by_degree: dict[int, DegreeCohomology] = {}
    d = c.differential.columns
    for deg in c.space.degrees:
        dim = c.space.dim(deg)
        cocycles = nullspace(transpose(d.get(deg, []), c.space.dim(deg + 1)), dim)
        e = Echelon()
        cobs = column_space_basis(d.get(deg - 1, []), e)
        reps = [dense(z, dim) for z in column_space_basis(cocycles, e)]
        by_degree[deg] = DegreeCohomology(rank=len(reps), representatives=reps,
                                          coboundaries=cobs)
    return CohomologyResult(c, by_degree)


def induced_map_on_cohomology(f: GradedMap, source: Complex, target: Complex,
                              source_cohomology: CohomologyResult | None = None,
                              target_cohomology: CohomologyResult | None = None
                              ) -> dict[int, list[Column]]:
    """H^n(f) in the chosen representative bases, as sparse columns: one
    per source representative, its target coordinates.

    Rejects f if it is not a chain map (residual reported in the error).
    """
    residual = is_chain_map(f, source, target)
    if not residual.is_zero():
        raise StructuralError(
            f"not a chain map; residual nonzero in degrees {list(residual.columns)}")
    hs = source_cohomology or cohomology(source)
    ht = target_cohomology or cohomology(target)
    return {deg: [ht.project_row(deg + f.shift, f.apply_row(deg, sparse(rep)))
                  for rep in data.representatives]
            for deg, data in hs.by_degree.items() if data.rank}
