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
"""

from __future__ import annotations

from . import linalg
from .cartan import cartan_check, lie_from_cartan
from .convolution import convolution
from .dgla import (CdgaModel, Dgla, DglaMorphism, FiltrationData, SubDgla,
                   ValidationReport, _check_leibniz, _sweep, sub_dgla_span,
                   validate_filtration, validate_morphism, validate_sub_dgla)
from .endo import EndDgla, end_dgla
from .graded import (Complex, GradedMap, GradedVectorSpace, StructuralError,
                     cohomology, quotient_complex, vec_is_zero, zero_map)
from .linalg import Q, Row, Vector, combine, dense, sparse

_ZERO = Q(0)


# ---------------------------------------------------------------------------
# End(Omega) and the filtration-preserving sub-dgla

def filtered_subdgla(omega: CdgaModel, f: FiltrationData,
                     end: EndDgla | None = None) -> SubDgla:
    """End^{>=0}: endomorphisms phi with phi(F^p) inside F^p for every p."""
    end = end or end_dgla(omega.complex)
    report = validate_filtration(omega.complex, f)
    if not report.ok:
        raise StructuralError(f"invalid filtration: {report.failures[:3]}")
    sp = omega.space
    span: dict[int, list[Vector]] = {}
    for k in end.space.degrees:
        dim = end.space.dim(k)
        position = {entry: pos for pos, entry in enumerate(end.index[k])}
        rows: list[Row] = []
        for p in f.levels():
            sub = f.step(p)
            for deg in sorted(sub.echelon):
                tdeg = deg + k
                # the functionals vanishing exactly on F^p in degree deg + k
                functionals = linalg.nullspace(sub.rows(tdeg), sp.dim(tdeg))
                for v in sub.rows(deg):
                    rows.extend({position[deg, si, di]: c * e
                                 for si, c in v.items() for di, e in func.items()}
                                for func in functionals)
        kernel = linalg.nullspace(rows, dim)
        if kernel:
            span[k] = [dense(r, dim) for r in kernel]
    sub = sub_dgla_span(end.dgla, span)
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
    the quotient coordinate systems for H/F^p H."""

    def __init__(self, h_space: GradedVectorSpace, representatives: dict,
                 f_h: FiltrationData, f_reps: dict, quotients: dict):
        self.h_space = h_space
        self.representatives = representatives  # degree -> list of cocycle vectors in Omega
        self.f_h = f_h              # induced filtration, in H coordinates
        self.f_reps = f_reps        # p -> {degree -> list of (class coords, cocycle)}
        self.quotients = quotients  # p -> QuotientComplex of (H, d=0) by F^p H


def flag_data(omega: CdgaModel, f: FiltrationData) -> FlagData:
    hc = cohomology(omega.complex)
    components = {deg: tuple(f"H{deg}_{i}" for i in range(data.rank))
                  for deg, data in hc.by_degree.items() if data.rank}
    h_space = GradedVectorSpace(components)
    reps = {deg: hc.representatives(deg) for deg in components}

    steps: dict[int, dict] = {}
    f_reps: dict[int, dict] = {}
    for p in f.levels():
        sub = f.step(p)
        span: dict[int, list[Vector]] = {}
        pairs: dict[int, list] = {}
        for deg in h_space.degrees:
            dim = omega.space.dim(deg)
            basis = sub.rows(deg)
            if not basis:
                continue
            # cocycles inside F^p in this degree
            images = [omega.complex.differential.apply_row(deg, v) for v in basis]
            kernel = linalg.nullspace(
                linalg.transpose(images, omega.space.dim(deg + 1)), len(basis))
            for coeffs in kernel:
                cocycle = dense(combine(basis, coeffs.items()), dim)
                if not any(cocycle):
                    continue
                coords = hc.project({deg: cocycle}).get(deg)
                if coords and any(coords):
                    span.setdefault(deg, []).append(coords)
                    pairs.setdefault(deg, []).append((coords, cocycle))
        if span:
            steps[p] = span
            f_reps[p] = pairs
    f_h = FiltrationData(h_space, steps)

    h_complex = Complex(h_space, zero_map(h_space, h_space, 1))
    quotients = {}
    for p in f.levels():
        quotients[p] = quotient_complex(h_complex, f_h.step(p))
    return FlagData(h_space, reps, f_h, f_reps, quotients)


class EndSpace:
    """integral_p Hom^0(F^p H, H/F^p H): compatible families (phi_p).

    ``levels`` lists the p with 0 != F^p != H; a family assigns to each such
    p and degree k a matrix from the F^p H^k basis to H^k/F^p H^k
    coordinates.  ``basis`` spans the solution space of the compatibility
    equations phi_p restricted to F^{p+1} = phi_{p+1} followed by the
    projection H/F^{p+1} -> H/F^p."""

    def __init__(self, flag: FlagData, levels: list, layout: list, basis: list):
        self.flag = flag
        self.levels = levels
        self.layout = layout        # (p, degree, rows, cols) unknown blocks
        self.basis = basis          # flat coordinate vectors, as sparse rows

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coordinates_of(self, blocks: dict) -> Vector | None:
        """Coordinates of a compatible family in the chosen basis."""
        flat = []
        for (p, deg, rows, cols) in self.layout:
            block = blocks.get((p, deg)) or [[_ZERO] * cols] * rows
            for r in range(rows):
                flat.extend(block[r])
        x = linalg.solve(linalg.transpose(self.basis, len(flat)), sparse(flat))
        return None if x is None else dense(x, len(self.basis))


def end_of_flag_diagram(flag: FlagData) -> EndSpace:
    f_h = flag.f_h
    h_space = flag.h_space
    levels = []
    for p in f_h.levels():
        sub = f_h.step(p)
        sub_total = sum(sub.dim(d) for d in h_space.degrees)
        if sub_total and any(h_space.dim(d) > sub.dim(d)
                             for d in h_space.degrees):
            levels.append(p)

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

    def block_index(p, deg, r, c):
        for (pp, dd, rows, cols) in layout:
            if pp == p and dd == deg:
                return offsets[(p, deg)] + r * cols + c
        return None

    constraints: list[Vector] = []
    for p in levels:
        if (p + 1) not in levels:
            continue
        sub_p = f_h.step(p)
        sub_p1 = f_h.step(p + 1)
        q_p = flag.quotients[p]
        q_p1 = flag.quotients[p + 1]
        # matrix of the projection H/F^{p+1} -> H/F^p per degree
        for deg in h_space.degrees:
            basis_p1 = sub_p1.rows(deg)
            rows_p = q_p.complex.space.dim(deg)
            rows_p1 = q_p1.complex.space.dim(deg)
            if not basis_p1 or not rows_p:
                continue
            pi_block = []
            for idx in q_p1.section_indices[deg]:
                e = h_space.basis_element(deg, idx)
                pi_block.append(list(q_p.projection.apply(e).get(
                    deg, [Q(0)] * rows_p)))
            # columns indexed by Q_{p+1} coordinates
            for j, w in enumerate(basis_p1):
                w_in_p = sub_p.coords(deg, w)
                if w_in_p is None:
                    raise StructuralError("induced filtration is not decreasing")
                for r in range(rows_p):
                    row: Row = {}
                    for c, x in w_in_p.items():
                        idx = block_index(p, deg, r, c)
                        if idx is not None:
                            row[idx] = row.get(idx, _ZERO) + x
                    for rr in range(rows_p1):
                        idx = block_index(p + 1, deg, rr, j)
                        if idx is not None:
                            row[idx] = row.get(idx, _ZERO) - pi_block[rr][r]
                    row = {i: x for i, x in row.items() if x}
                    if row:
                        constraints.append(row)

    return EndSpace(flag, levels, layout, linalg.nullspace(constraints, size))


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
    class [w] in F^p H: phi_p([w]) = class of i_a(w) in H(Omega/F^p),
    carried back to H/F^p H through the degeneration isomorphism
    H/F^p H -> H(Omega/F^p) (an error if that map fails to be one)."""
    omega = contraction.omega
    flag = flag_data(omega, f)
    endspace = end_of_flag_diagram(flag)
    t = contraction.source
    hg = cohomology(t.underlying)

    # degeneration isomorphisms per level, degree: H^k/F^p H^k -> H^k(Omega/F^p)
    deg_iso: dict = {}
    quotient_cohomology: dict = {}
    omega_quotients: dict = {}
    for p in endspace.levels:
        oq = quotient_complex(omega.complex, f.step(p))
        omega_quotients[p] = oq
        qc = cohomology(oq.complex)
        quotient_cohomology[p] = qc
        hq = flag.quotients[p]
        for deg in flag.h_space.degrees:
            rows = qc.rank(deg)
            cols = hq.complex.space.dim(deg)
            if not cols:
                continue
            iso = linalg.transpose(
                [sparse(qc.project(oq.projection.apply(
                    {deg: list(flag.representatives[deg][idx])})).get(deg, []))
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
            pairs = flag.f_reps.get(p, {}).get(deg, [])
            basis = flag.f_h.step(p).rows(deg)
            # representative cocycle for each F^p H basis class
            coord_cols = [pair[0] for pair in pairs]
            block_cols = []
            coord_rows = linalg.transpose([sparse(c) for c in coord_cols],
                                          flag.h_space.dim(deg))
            cocycles = [sparse(pair[1]) for pair in pairs]
            for v in basis:
                sol = linalg.solve(coord_rows, v)
                if sol is None:
                    raise StructuralError("filtered class without a filtered "
                                          "representative")
                cocycle = dense(combine(cocycles, sol.items()), omega.space.dim(deg))
                image = op.apply({deg: cocycle})
                oq = omega_quotients[p]
                qc = quotient_cohomology[p]
                cls = qc.project(oq.projection.apply(image)).get(
                    deg, [Q(0)] * qc.rank(deg))
                back = linalg.solve(deg_iso[(p, deg)], sparse(cls))
                if back is None:
                    raise StructuralError("degeneration isomorphism failed "
                                          "to invert a period class")
                block_cols.append(dense(back, rows))
            blocks[(p, deg)] = [[block_cols[c][r] for c in range(cols)]
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

    classes = {}
    for label, coords in obstruction.classes.items():
        rep = [Q(0)] * g.space.dim(2)
        for coeff, r in zip(coords, hg.representatives(2)):
            for tpos, c in enumerate(r):
                rep[tpos] += coeff * c
        img = psi.apply({2: rep})
        cls = hq.project(img).get(2, [Q(0)] * max(hq.rank(2), 1))
        classes[label] = cls
    return ObstructionImage(classes)
