"""The endomorphism pair (End, End^{>=0}) of a filtered finite cdga model
(the model, the filtration and their checks are ``dgla.CdgaModel``,
``dgla.FiltrationData``, ``dgla.validate_cdga`` and
``dgla.validate_filtration``), contractions as Cartan homotopies, the end
of the flag diagram, and the period differential.

The pipeline: a finite graded-commutative dg algebra Omega with a decreasing
filtration F stands in for a de Rham complex; End(Omega) with [d,-] and the
commutator is the ambient dgla; the filtration-preserving endomorphisms form
the sub-dgla End^{>=0}; a family of contractions i_a gives a Cartan homotopy
into End(Omega); the induced map on cohomology lands in the end of the flag
diagram integral_p Hom^0(F^p H, H/F^p H), and obstruction classes map into
H^1(End/End^{>=0}).

The flag side runs on sparse rows.  Each step F^p H^k is one echelon of
the classes of the cocycles of F^p Omega^k, each class tagged with its
cocycle, so every basis class of F^p H^k comes with the cocycle that i_a
acts on; the induced filtration holds those echelons as they are
(``SubSpaceData.from_echelon``), as End^{>=0} holds the reduced echelon of
the kernel of its equations, so no step is densified or eliminated twice.
Classes are read with ``CohomologyResult.project_row``, and a
family's coordinates in the end of the diagram are read off the free
columns of the kernel that spans it.
"""

from __future__ import annotations

from . import linalg
from .cartan import cartan_check, lie_from_cartan
from .convolution import convolution
from .dgla import (CdgaModel, Dgla, DglaMorphism, FiltrationData, SubDgla,
                   ValidationReport, _check_leibniz, _sweep, validate_filtration,
                   validate_morphism, validate_sub_dgla)
from .endo import EndDgla, end_dgla
from .graded import (Complex, GradedMap, GradedVectorSpace, StructuralError, SubSpaceData,
                     cohomology, quotient_complex, vec_is_zero, zero_map)
from .linalg import Echelon, Q, Row, Vector, combine, dense, sparse

_ZERO, _ONE = Q(0), Q(1)


# ---------------------------------------------------------------------------
# End(Omega) and the filtration-preserving sub-dgla

def filtered_subdgla(omega: CdgaModel, f: FiltrationData,
                     end: EndDgla | None = None) -> SubDgla:
    """End^{>=0}: endomorphisms phi with phi(F^p) inside F^p for every p."""
    end = end or end_dgla(omega.complex)
    report = validate_filtration(omega.complex, f)
    if not report.ok:
        raise StructuralError(f"invalid filtration: {report.failures[:3]}")
    sp, off, at = omega.space, end.basis.offset, end.layout.at
    echelon = {}
    for k in end.space.degrees:
        base = end.dgla.table.offset[k]
        rows: list[Row] = []
        for p in f.levels():
            sub = f.step(p)
            for deg in sorted(sub.echelon):
                tdeg = deg + k
                # the functionals vanishing exactly on F^p in degree deg + k
                functionals = linalg.nullspace(sub.rows(tdeg), sp.dim(tdeg))
                for v in sub.rows(deg):
                    rows.extend({at(off[deg] + si, off[tdeg] + di) - base: c * e
                                 for si, c in v.items() for di, e in func.items()}
                                for func in functionals)
        echelon[k] = linalg.rref(linalg.nullspace(rows, end.space.dim(k)))
    sub = SubDgla(end.dgla, SubSpaceData.from_echelon(end.space, echelon))
    closure = validate_sub_dgla(sub)
    if not closure.ok:
        raise StructuralError(
            f"filtration-preserving endomorphisms not closed: {closure.failures[:3]}")
    return sub


# ---------------------------------------------------------------------------
# contractions as Cartan homotopies

class ContractionCartan:
    def __init__(self, source: Dgla, omega: CdgaModel, end: EndDgla, i: GradedMap,
                 l: GradedMap, report: ValidationReport):
        self.source = source         # the derivation dgla T
        self.omega = omega
        self.end = end
        self.i = i                   # T.space -> End space, shift -1
        self.l = l                   # Lie derivative, shift 0
        self.report = report


def _first_non_derivation(omega: CdgaModel, op: GradedMap) -> list | None:
    """The labels of the first basis pair of the Leibniz sweep at which op,
    of degree s = op.shift, is not a derivation of Omega; None if none."""
    report = ValidationReport()
    _check_leibniz(*_sweep(omega.table, op, report), op.shift)
    return report.failures[0]["witness"] if report.failures else None


def contraction_cartan(omega: CdgaModel, t: Dgla, i: GradedMap,
                       f: FiltrationData | None = None,
                       end: EndDgla | None = None) -> ContractionCartan:
    """Verify that a -> i_a is a family of derivations of degree |a| - 1
    (``_first_non_derivation``, the Leibniz sweep, raising at the first
    failing pair) forming a Cartan homotopy into End(Omega), checked and l
    read in one convolution(T, End, 2); reports the derived identities
    l_{[a,b]} = [l_a, l_b] and [d, l_a] = 0, and filtration preservation of l
    when a filtration is supplied."""
    end = end or end_dgla(omega.complex)
    if i.shift != -1:
        raise StructuralError("contraction assignment must have degree -1")
    for (m, ia) in t.space.basis():
        failed = _first_non_derivation(
            omega, end.element_to_map(i.apply(t.space.basis_element(m, ia))))
        if failed:
            raise StructuralError(
                f"i({t.space.label(m, ia)}) is not a derivation at ({', '.join(failed)})")

    conv = convolution(t, end.dgla, 2)
    report = cartan_check(t, conv, i)
    l = lie_from_cartan(t, conv, i)

    report.notes["lie_bracket_compatible"] = validate_morphism(DglaMorphism(t, end.dgla, l)).ok
    report.notes["lie_is_closed"] = all(
        vec_is_zero(end.dgla.d(l.apply(t.space.basis_element(m, ia))))
        for (m, ia) in t.space.basis())

    if f is not None:
        before = len(report.failures)
        for (m, ia) in t.space.basis():
            op = end.element_to_map(l.apply(t.space.basis_element(m, ia)))
            for p in f.levels():
                sub = f.step(p)
                for deg, (rows, _) in sorted(sub.echelon.items()):
                    for v in rows:
                        if sub.coords(deg + op.shift, op.apply_row(deg, v)) is None:
                            report.fail("filtration_preservation",
                                        [t.space.label(m, ia), f"F^{p}",
                                         f"degree {deg}"])
        report.notes["lie_preserves_filtration"] = len(report.failures) == before
    return ContractionCartan(t, omega, end, i, l, report)


# ---------------------------------------------------------------------------
# the flag side: induced filtration on cohomology and the end of the diagram

class FlagData:
    """Cohomology H of Omega with its induced filtration and, per level p,
    the quotient coordinate systems for H/F^p H.  ``cocycles[p][k]`` holds
    one cocycle of F^p Omega^k per echelon row of F^p H^k, in the order of
    ``f_h.step(p).rows(k)``, each with that row as its class."""

    def __init__(self, h_space: GradedVectorSpace, representatives: dict,
                 f_h: FiltrationData, cocycles: dict, quotients: dict):
        self.h_space = h_space
        self.representatives = representatives  # degree -> list of cocycle vectors in Omega
        self.f_h = f_h              # induced filtration, in H coordinates
        self.cocycles = cocycles    # p -> {degree -> list of sparse cocycles}
        self.quotients = quotients  # p -> QuotientComplex of (H, d=0) by F^p H


def flag_data(omega: CdgaModel, f: FiltrationData) -> FlagData:
    """Per level p and degree k, one echelon of the classes of the cocycles
    z of F^p Omega^k, each tagged with z at the columns from dim H^k on.
    A class goes in only if it is independent of those before it, so the
    tags stay cocycles of the classes they sit beside: the H-parts of the
    rows are the echelon rows of F^p H^k, and the tags their cocycles."""
    hc = cohomology(omega.complex)
    components = {deg: tuple(f"H{deg}_{i}" for i in range(data.rank))
                  for deg, data in hc.by_degree.items() if data.rank}
    h_space = GradedVectorSpace(components)
    reps = {deg: hc.representatives(deg) for deg in components}

    steps: dict[int, dict] = {}     # p -> {degree -> (rows, pivots) of F^p H}
    cocycles: dict[int, dict] = {}
    for p in f.levels():
        sub = f.step(p)
        for deg in h_space.degrees:
            basis, h = sub.rows(deg), h_space.dim(deg)
            if not basis:
                continue
            images = [omega.complex.differential.apply_row(deg, v) for v in basis]
            e = Echelon()
            for coeffs in linalg.nullspace(
                    linalg.transpose(images, omega.space.dim(deg + 1)), len(basis)):
                z = combine(basis, coeffs.items())
                r = e.reduce({**hc.project_row(deg, z), **{h + j: x for j, x in z.items()}})
                if r and min(r) < h:
                    e.insert(r)
            pivots = sorted(e.rows)
            if pivots:
                rows = [e.rows[q] for q in pivots]
                steps.setdefault(p, {})[deg] = (
                    [{j: x for j, x in r.items() if j < h} for r in rows], pivots)
                cocycles.setdefault(p, {})[deg] = [
                    {j - h: x for j, x in r.items() if j >= h} for r in rows]
    f_h = FiltrationData(h_space, {p: SubSpaceData.from_echelon(h_space, level)
                                   for p, level in steps.items()})

    h_complex = Complex(h_space, zero_map(h_space, h_space, 1))
    quotients = {p: quotient_complex(h_complex, f_h.step(p)) for p in f.levels()}
    return FlagData(h_space, reps, f_h, cocycles, quotients)


class EndSpace:
    """integral_p Hom^0(F^p H, H/F^p H): compatible families (phi_p).

    ``levels`` lists the p with 0 != F^p != H; a family assigns to each such
    p and degree k a matrix from the F^p H^k basis to H^k/F^p H^k
    coordinates, laid out flat, block by block in ``layout`` order and row
    by row.  ``basis`` and ``free`` are the kernel of the compatibility
    equations phi_p restricted to F^{p+1} = phi_{p+1} followed by the
    projection H/F^{p+1} -> H/F^p, as ``linalg.kernel`` gives it: basis
    vector i is 1 at the flat entry free[i] and 0 at the other free ones."""

    def __init__(self, flag: FlagData, levels: list, layout: list, basis: list,
                 free: list):
        self.flag = flag
        self.levels = levels
        self.layout = layout        # (p, degree, rows, cols) unknown blocks
        self.basis = basis          # flat coordinate vectors, as sparse rows
        self.free = free            # the flat entry each basis vector is 1 at

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coordinates_of(self, blocks: dict) -> Vector | None:
        """Coordinates of a compatible family in the chosen basis: its
        entries at the free columns, checked by rebuilding the family from
        them; None if it is not compatible."""
        flat: Row = {}
        base = 0
        for (p, deg, rows, cols) in self.layout:
            for r, line in enumerate(blocks.get((p, deg), ())):
                flat.update((base + r * cols + c, x) for c, x in enumerate(line) if x)
            base += rows * cols
        x = [flat.get(j, _ZERO) for j in self.free]
        return x if combine(self.basis, enumerate(x)) == flat else None


def end_of_flag_diagram(flag: FlagData) -> EndSpace:
    f_h = flag.f_h
    h_space = flag.h_space
    # every level of f_h has F^p H != 0: flag_data keeps no empty step
    levels = [p for p in f_h.levels()
              if any(h_space.dim(d) > f_h.step(p).dim(d) for d in h_space.degrees)]

    layout = []
    offsets = {}
    size = 0
    for p in levels:
        sub = f_h.step(p)
        for deg in h_space.degrees:
            cols = sub.dim(deg)
            rows = flag.quotients[p].complex.space.dim(deg)
            if rows and cols:
                layout.append((p, deg, rows, cols))
                offsets[(p, deg)] = size
                size += rows * cols

    constraints: list[Row] = []
    for p in levels:
        if (p + 1) not in levels:
            continue
        sub_p = f_h.step(p)
        sub_p1 = f_h.step(p + 1)
        q_p = flag.quotients[p]
        q_p1 = flag.quotients[p + 1]
        for deg in h_space.degrees:
            basis_p1 = sub_p1.rows(deg)
            rows_p = q_p.complex.space.dim(deg)
            if not basis_p1 or not rows_p:
                continue
            # the projection H/F^{p+1} -> H/F^p: one sparse column per
            # Q_{p+1} coordinate, read off the unit rows of the section
            pi = [q_p.projection.apply_row(deg, {idx: _ONE})
                  for idx in q_p1.section_indices[deg]]
            # where the blocks (p, deg) and (p + 1, deg) start; the second
            # is read only when pi has a column, and then it is laid out
            cols_p, cols_p1 = sub_p.dim(deg), len(basis_p1)
            base_p, base_p1 = offsets.get((p, deg)), offsets.get((p + 1, deg))
            for j, w in enumerate(basis_p1):
                w_in_p = sub_p.coords(deg, w)
                if w_in_p is None:
                    raise StructuralError("induced filtration is not decreasing")
                for r in range(rows_p):
                    row = {base_p + r * cols_p + c: x for c, x in w_in_p.items()}
                    row.update((base_p1 + rr * cols_p1 + j, -col[r])
                               for rr, col in enumerate(pi) if r in col)
                    constraints.append(row)

    return EndSpace(flag, levels, layout, *linalg.kernel(constraints, size))


# ---------------------------------------------------------------------------
# the period differential

class PeriodDifferential:
    def __init__(self, contraction: ContractionCartan, flag: FlagData, endspace: EndSpace,
                 source_rank: int, matrix: list, families: list):
        self.contraction = contraction
        self.flag = flag
        self.endspace = endspace
        self.source_rank = source_rank
        self.matrix = matrix        # EndSpace coordinates per H^1(g) basis class
        self.families = families    # raw (p, degree) -> block dicts, one per class


def period_differential(contraction: ContractionCartan,
                        f: FiltrationData) -> PeriodDifferential:
    """H^1(i) followed by the action on filtered cohomology classes.

    For each class [a] in H^1 of the derivation dgla, each level p and each
    basis class [w] of F^p H, with its cocycle w from ``flag.cocycles``:
    phi_p([w]) = class of i_a(w) in H(Omega/F^p), carried back to H/F^p H
    through the degeneration isomorphism H/F^p H -> H(Omega/F^p) (an error
    if that map fails to be one)."""
    omega = contraction.omega
    flag = flag_data(omega, f)
    endspace = end_of_flag_diagram(flag)
    hg = cohomology(contraction.source.underlying)

    omega_quotients: dict = {}

    def read(p: int, deg: int, z: Row) -> Row:
        """The class in H^deg(Omega/F^p) of a cocycle z of Omega^deg."""
        oq, qc = omega_quotients[p]
        return qc.project_row(deg, oq.projection.apply_row(deg, z))

    # degeneration isomorphisms per level, degree: H^k/F^p H^k -> H^k(Omega/F^p)
    deg_iso: dict = {}
    for p in endspace.levels:
        oq = quotient_complex(omega.complex, f.step(p))
        qc = cohomology(oq.complex)
        omega_quotients[p] = oq, qc
        hq = flag.quotients[p]
        for deg in flag.h_space.degrees:
            rows = qc.rank(deg)
            cols = hq.complex.space.dim(deg)
            if not cols:
                continue
            iso = linalg.transpose(
                [read(p, deg, sparse(flag.representatives[deg][idx]))
                 for idx in hq.section_indices[deg]], rows)
            if rows != cols or linalg.rank(iso) != cols:
                raise StructuralError(
                    f"degeneration comparison fails to be an isomorphism at "
                    f"level {p}, degree {deg}")
            deg_iso[(p, deg)] = iso

    matrix = []
    families = []
    for rep in hg.representatives(1):
        op = contraction.end.element_to_map(contraction.i.apply({1: list(rep)}))
        blocks: dict = {}
        for (p, deg, rows, cols) in endspace.layout:
            # deg_iso is square and invertible, so every class has a preimage
            block_cols = [linalg.solve(deg_iso[(p, deg)], read(p, deg, op.apply_row(deg, z)))
                          for z in flag.cocycles[p][deg]]
            blocks[(p, deg)] = [[col.get(r, _ZERO) for col in block_cols]
                                for r in range(rows)]
        coords = endspace.coordinates_of(blocks)
        if coords is None:
            raise StructuralError("period image violates the end "
                                  "compatibility equations")
        matrix.append(coords)
        families.append(blocks)
    return PeriodDifferential(contraction, flag, endspace,
                              hg.rank(1), matrix, families)


# ---------------------------------------------------------------------------
# obstruction image (ambient cohomology annihilating obstructions)

class ObstructionImage:
    def __init__(self, classes: dict):
        self.classes = classes      # monomial label -> coordinates in H^1(End/End^{>=0})

    @property
    def vanishes(self) -> bool:
        return all(not any(v) for v in self.classes.values())


def obstruction_image(g: Dgla, i: GradedMap, end: EndDgla,
                      end_nonneg: SubDgla, obstruction) -> ObstructionImage:
    """Map an obstruction class through H^2 of the induced map
    g -> (End/End^{>=0})[-1]; under the ambient-annihilation principle the
    image vanishes whenever the flag side is unobstructed."""
    from .holim import holim_pair, induced_quotient_map
    pair = holim_pair(end.dgla, end_nonneg)
    psi = induced_quotient_map(pair, g, i)
    hq = pair.shifted_cohomology
    hg = cohomology(g.underlying)

    reps = [sparse(r) for r in hg.representatives(2)]
    classes = {}
    for label, coords in obstruction.classes.items():
        image = psi.apply_row(2, combine(reps, enumerate(coords)))
        classes[label] = dense(hq.project_row(2, image), max(hq.rank(2), 1))
    return ObstructionImage(classes)
