"""The endomorphism dgla of a complex.

End(C) in degree k is the space of linear maps C^* -> C^{*+k}; the
differential is the graded commutator with d_C and the bracket is the graded
commutator of compositions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dgla import Dgla, FlatBasis
from .graded import (Complex, GradedMap, GradedVectorSpace, GVec,
                     StructuralError)
from .linalg import Q


@dataclass(frozen=True)
class EndDgla:
    """End(C) as an explicit Dgla, with converters to and from graded maps.

    Basis of degree k: one elementary operator per (source basis vector,
    target basis vector in degree + k) pair, labelled "src>dst".
    """

    complex: Complex
    dgla: Dgla
    index: dict  # end degree -> tuple of (src_deg, src_idx, dst_idx)

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
        blocks: dict[int, list] = {}
        for coeff, (src_deg, src_idx, dst_idx) in zip(x[k], self.index[k]):
            if not coeff:
                continue
            if src_deg not in blocks:
                blocks[src_deg] = [[Q(0)] * sp.dim(src_deg)
                                   for _ in range(sp.dim(src_deg + k))]
            blocks[src_deg][dst_idx][src_idx] += coeff
        return GradedMap(sp, sp, k, blocks)

    def map_to_element(self, f: GradedMap) -> GVec:
        k = f.shift
        if k not in self.index:
            if all(not any(c for row in f.block(d) for c in row)
                   for d in self.complex.space.degrees):
                return {}
            raise StructuralError(f"no endomorphisms of degree {k}")
        coords = []
        for (src_deg, src_idx, dst_idx) in self.index[k]:
            coords.append(f.block(src_deg)[dst_idx][src_idx]
                          if self.complex.space.dim(src_deg + k) else Q(0))
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

    d_blocks = {}
    for k in index:
        if k + 1 not in index:
            continue
        block = d_blocks[k] = [[Q(0)] * len(index[k]) for _ in index[k + 1]]
        sign = -1 if k % 2 else 1
        base = flat.offset[k + 1]
        for pos, (sd, si, di) in enumerate(index[k]):
            s, t = (sd, si), (sd + k, di)
            for r, row in enumerate(c.differential.block(sd + k)):
                if row[di]:
                    block[place[s, (sd + k + 1, r)] - base][pos] += row[di]
            for u, val in enumerate(c.differential.block(sd - 1)[si]):
                if val:
                    block[place[(sd - 1, u), t] - base][pos] -= sign * val
    cx = Complex(space, GradedMap(space, space, 1, d_blocks))

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
        upper.extend(((a, b), {k: Q(c) for k, c in e.items() if c})
                     for b, e in entries.items())
    return EndDgla(complex=c, dgla=Dgla(cx, flat.table_from_upper(upper)), index=index)
