"""The endomorphism dgla of a complex.

End(C) in degree k is the space of linear maps C^* -> C^{*+k}; the
differential is the graded commutator with d_C and the bracket is the graded
commutator of compositions.  Its basis is the ``ProductLayout`` of C with its
degrees negated and C, the one layout of g (x) C as well: the elementary map
sending basis vector s to t sits at ``layout.at(s, t)``, both flat positions
of C.
"""

from __future__ import annotations

from functools import cached_property

from .dgla import Dgla, FlatBasis, ProductLayout
from .graded import _ZERO, Complex, GradedMap, GradedVectorSpace, GVec, StructuralError


class EndDgla:
    """End(C) as an explicit Dgla, with converters to and from graded maps.

    Basis of degree k: one elementary operator E_ts per pair of a source
    basis vector s and a target basis vector t in degree |s| + k, labelled
    "s>t", at flat position ``layout.at(s, t)`` of ``dgla.table`` for the
    flat positions s and t of C's ``basis``.
    """

    def __init__(self, complex: Complex, dgla: Dgla, layout: ProductLayout):
        self.complex = complex
        self.dgla = dgla
        self.layout = layout

    @cached_property
    def basis(self) -> FlatBasis:
        """The flat basis of C, whose positions ``layout`` pairs."""
        return FlatBasis(self.complex.space)

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
        cols: list[dict] = [{} for _ in self.basis.position]
        base = self.dgla.table.offset[k]
        for pos, coeff in enumerate(x[k]):
            if coeff:
                s, t = self.layout.pair(base + pos)
                cols[s][t] = coeff
        return self.basis.graded_map(cols, k)

    def map_to_element(self, f: GradedMap) -> GVec:
        k = f.shift
        if not self.space.dim(k):
            if f.is_zero():
                return {}
            raise StructuralError(f"no endomorphisms of degree {k}")
        cols = self.basis.columns(f)
        coords = [cols[s].get(t, _ZERO) for s, t in self.layout.pairs(k)]
        return {k: coords} if any(coords) else {}


def end_dgla(c: Complex) -> EndDgla:
    """End(C) on the elementary maps E_ts sending basis vector s to t and
    every other basis vector to 0.  Its structure constants are written
    directly, with only the nonzeros kept:

        [d, E_ts] = sum_r (d)_rt E_rs - (-1)^k sum_u (d)_su E_tu,
        [E_ab, E_cd] = delta_bc E_ad - (-1)^{|E_ab||E_cd|} delta_da E_cb.

    The E_b with source t, or with target s, of one degree are a run, or a
    stride, of one block of the layout.
    """
    cb = FlatBasis(c.space)
    layout = ProductLayout({-deg: dim for deg, dim in cb.dims.items()}, cb.dims)
    labels = [c.space.label(*s) for s in cb.position]
    space = GradedVectorSpace({k: tuple(f"{labels[s]}>{labels[t]}" for s, t in layout.pairs(k))
                               for k in layout.blocks})
    flat = FlatBasis(space)
    at, cdeg = layout.at, layout.degree[1]

    # d E_ts = d o E_ts - (-1)^k E_ts o d: column t of d and row s of d; the
    # two parts have targets of different degrees, so they never meet
    d = cb.columns(c.differential)
    d_rows: list[list] = [[] for _ in d]
    for u, col in enumerate(d):
        for r, val in col.items():
            d_rows[r].append((u, val))
    cols = []
    for s, t in layout.pairs():
        col = {at(s, r): val for r, val in d[t].items()}
        col.update((at(u, t), val if (cdeg[t] - cdeg[s]) % 2 else -val) for u, val in d_rows[s])
        cols.append(col)
    cx = Complex(space, flat.graded_map(cols, 1))

    # entries with |E_a| <= |E_b|, the E_b in position order; the table
    # mirrors the mixed-degree pairs
    degree = [deg for deg, _ in flat.position]
    upper = []
    for a, (s, t) in enumerate(layout.pairs()):
        m, entries = degree[a], {}
        ns, nt = cb.dims[cdeg[s]], cb.dims[cdeg[t]]
        for deg, dim in reversed(cb.dims.items()):      # E_a o E_b, E_b = E_sx: strides
            if cdeg[s] - deg >= m:
                b, k = at(cb.offset[deg], s), at(cb.offset[deg], t)
                entries.update((b + i * ns, {k + i * nt: 1}) for i in range(dim))
        for deg, dim in cb.dims.items():                # -(-1)^{mn} E_b o E_a, E_b = E_yt: runs
            if (n := deg - cdeg[t]) >= m:
                b, k, sign = at(t, cb.offset[deg]), at(s, cb.offset[deg]), 1 if m * n % 2 else -1
                for i in range(dim):
                    entry = entries.setdefault(b + i, {})
                    entry[k + i] = entry.get(k + i, 0) + sign
        upper.extend(((a, b), {k: c for k, c in e.items() if c})
                     for b, e in entries.items())
    return EndDgla(complex=c, dgla=Dgla(cx, flat.table_from_upper(upper)), layout=layout)
