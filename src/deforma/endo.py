"""The endomorphism dgla of a complex.

End(C) in degree k is the space of linear maps C^* -> C^{*+k}; the
differential is the graded commutator with d_C and the bracket is the graded
commutator of compositions.
"""

from __future__ import annotations

from .dgla import Dgla, FlatBasis
from .graded import (_ZERO, Complex, GradedMap, GradedVectorSpace, GVec,
                     StructuralError)


class EndDgla:
    """End(C) as an explicit Dgla, with converters to and from graded maps.

    Basis of degree k: one elementary operator per (source basis vector,
    target basis vector in degree + k) pair, labelled "src>dst".
    """

    def __init__(self, complex: Complex, dgla: Dgla, index: dict):
        self.complex = complex
        self.dgla = dgla
        self.index = index  # end degree -> tuple of (src_deg, src_idx, dst_idx)

    @property
    def space(self) -> GradedVectorSpace:
        return self.dgla.space

    def element_to_map(self, x: GVec) -> GradedMap:
        """A homogeneous End element as a GradedMap (zero element -> shift 0)."""
        degs = [k for k, v in x.items() if any(v)]
        if not degs:
            return GradedMap(self.complex.space, self.complex.space, 0, {})
        if len(degs) > 1:
            raise StructuralError("element is not homogeneous")
        k = degs[0]
        sp = self.complex.space
        columns: dict[int, list] = {}
        for coeff, (src_deg, src_idx, dst_idx) in zip(x[k], self.index[k]):
            if coeff:
                cols = columns.setdefault(src_deg, [{} for _ in range(sp.dim(src_deg))])
                cols[src_idx][dst_idx] = coeff
        return GradedMap(sp, sp, k, columns)

    def map_to_element(self, f: GradedMap) -> GVec:
        k = f.shift
        if k not in self.index:
            if f.is_zero():
                return {}
            raise StructuralError(f"no endomorphisms of degree {k}")
        cols = f.columns
        coords = [cols[src_deg][src_idx].get(dst_idx, _ZERO) if src_deg in cols else _ZERO
                  for (src_deg, src_idx, dst_idx) in self.index[k]]
        return {k: coords} if any(coords) else {}


def end_dgla(c: Complex) -> EndDgla:
    """End(C) on the elementary maps E_ts sending basis vector s to t and
    every other basis vector to 0.  Its structure constants are written
    directly, with only the nonzeros kept:

        [d, E_ts] = sum_r (d)_rt E_rs - (-1)^k sum_u (d)_su E_tu,
        [E_ab, E_cd] = delta_bc E_ad - (-1)^{|E_ab||E_cd|} delta_da E_cb.
    """
    sp = c.space
    degs = sorted(sp.degrees)
    index: dict[int, list] = {}
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

    components = {
        k: tuple(f"{sp.label(sd, si)}>{sp.label(sd + k, di)}"
                 for (sd, si, di) in entries)
        for k, entries in index.items()
    }
    space = GradedVectorSpace(components)
    flat = FlatBasis(space)
    # E_ts as (source, target) basis vectors (degree, index), by flat position
    ends = [((sd, si), (sd + k, di)) for k in sorted(index) for (sd, si, di) in index[k]]
    place = {st: a for a, st in enumerate(ends)}
    by_source: dict[tuple, list[int]] = {}
    by_target: dict[tuple, list[int]] = {}
    for a, (s, t) in enumerate(ends):
        by_source.setdefault(s, []).append(a)
        by_target.setdefault(t, []).append(a)

    # d E_ts = d o E_ts - (-1)^k E_ts o d: column t of d and row s of d; the
    # two parts have targets of different degrees, so they never meet
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
    cx = Complex(space, GradedMap(space, space, 1, d_columns))

    def composite(a: int, b: int) -> int:
        """The flat position of E_a o E_b, whose source is E_b's source."""
        return place[ends[b][0], ends[a][1]]

    # entries with |E_a| <= |E_b|; the table mirrors the mixed-degree pairs
    degree = [deg for deg, _ in flat.position]
    upper = []
    for a, (s, t) in enumerate(ends):
        m = degree[a]
        entries: dict[int, dict] = {}
        for b in by_target.get(s, ()):          # E_a o E_b
            if degree[b] >= m:
                entries.setdefault(b, {})[composite(a, b)] = 1
        for b in by_source.get(t, ()):          # -(-1)^{mn} E_b o E_a
            if degree[b] >= m:
                entry, k = entries.setdefault(b, {}), composite(b, a)
                entry[k] = entry.get(k, 0) + (1 if m * degree[b] % 2 else -1)
        upper.extend(((a, b), {k: c for k, c in e.items() if c})
                     for b, e in entries.items())
    return EndDgla(complex=c, dgla=Dgla(cx, flat.table_from_upper(upper)), index=index)
