"""The convolution dgla Hom(S^{<=N}(g[1]), h) = h (x) CE_{<=N}(g).

For a finite-dimensional dgla g, the graded-symmetric multilinear maps on
the suspension g[1] with values in a dgla h, truncated at arity N, form the
dgla h (x) CE_{<=N}(g), where CE_{<=N}(g) is the Chevalley-Eilenberg cdga
of g cut off at word length N.  ``convolution`` builds it by
``tensor_dgla``, weighted by word length, so its differential and bracket
are the ones of every other tensor dgla; the sign conventions of the
convolution dgla live only in the CE cdga below.

CE_{<=N}(g), in g[1]-degrees |s a| = |a| - 1 (``vdeg``):
  * generators:   one xi_a of degree 1 - |a| per basis vector a of g;
  * basis:        xi^[A] for A in ``canonical_tuples(g, q)``, q = 1..N, of
    degree sum(1 - |a_i|): the basis dual to the canonical monomials
    s a_1 ... s a_q, so an even xi has divided powers;
  * product:      xi^[A] xi^[B] = (-1)^{|xi^[A]||xi^[B]|} eps(A, B)
    prod_k C(m_C(k), m_A(k)) xi^[C] with C = sorted(A + B), m_W(k) the
    multiplicity of k in W, and eps(A, B) the Koszul sign of the odd keys
    of B passing the odd keys of A; it is zero if C repeats an odd key or
    is longer than N, and only the pairs with len A + len B <= N are met;
  * differential: d xi_c = (-1)^{|xi_c|} (sum_a (d_g a)_c xi_a
    - sum_{(a, b)} (-1)^{|a|} [a, b]_c xi^[ab]), (a, b) over
    ``canonical_tuples(g, 2)``, extended as a derivation: for a longer word
    w = (k,) + r, xi_k xi^[r] = c_w xi^[w] with c_w = +-m_w(k), so
    d xi^[w] = (d xi_k xi^[r] + (-1)^{|xi_k|} xi_k d xi^[r]) / c_w, shortest
    words first, each product read off the table.  Longer words span a dg
    ideal, so dropping words longer than N is exact.

Every constant is an int where it is integral and a ``Fraction`` otherwise.

The basis vector e_k (x) xi^[A] of the slice is the map sending the
canonical monomial A to e_k and every other canonical monomial to 0, with no
sign and no factorial.  So the arity of a coordinate is the length of its
word, and for an element i of degree s + 1 concentrated in arity one (a map
i: g -> h of shift s), the arity-one part of D i is a -> d_h i_a
- (-1)^s i_{d_g a}.  Maurer-Cartan elements are exactly the
arity-truncated L-infinity morphisms g ~> h.  ``taylor``, ``linear_part``
and ``from_linear`` read an element through the record's ``split`` and
``join``, with the record's ``words`` naming the word at each CE position;
they take the source g with the convolution dgla.
"""

from __future__ import annotations

import itertools
import math

from .dgla import (CdgaModel, Dgla, DglaMorphism, FlatBasis, TensorDgla, _residue,
                   tensor_dgla, validate_morphism)
from .graded import Complex, GradedMap, GradedVectorSpace, GVec, StructuralError
from .linalg import Q, _fractions, _num, sparse

VKey = tuple  # (g-degree, basis index) of a suspended basis vector

DEFAULT_ARITY = 4


def v_basis(g: Dgla) -> list[VKey]:
    return [(d, i) for d in g.space.degrees for i in range(g.space.dim(d))]


def vdeg(key: VKey) -> int:
    return key[0] - 1


def canonical_tuples(g: Dgla, q: int) -> list[tuple]:
    out = []
    for combo in itertools.combinations_with_replacement(v_basis(g), q):
        if any(a == b and vdeg(a) % 2 for a, b in zip(combo, combo[1:])):
            continue
        out.append(combo)
    return out


# ---------------------------------------------------------------------------
# the Chevalley-Eilenberg cdga

def ce_words(g: Dgla, arity_bound: int) -> list[tuple]:
    """The words of CE_{<=N}(g) in its flat order: by degree, shortest first."""
    words = [w for q in range(1, arity_bound + 1) for w in canonical_tuples(g, q)]
    return sorted(words, key=lambda w: -sum(vdeg(k) for k in w))


def chevalley_eilenberg(g: Dgla, arity_bound: int) -> CdgaModel:
    """CE_{<=N}(g) on the words of length 1..N (module docstring), its
    constants ints where integral."""
    words: dict[int, list[tuple]] = {}
    for w in ce_words(g, arity_bound):
        words.setdefault(-sum(vdeg(k) for k in w), []).append(w)
    space = GradedVectorSpace({
        k: tuple("^".join(g.label(*key) for key in w) for w in ws)
        for k, ws in words.items()})
    flat = FlatBasis(space)
    order = [w for ws in words.values() for w in ws]        # by flat position
    at = {w: t for t, w in enumerate(order)}
    odd = [{k for k in w if vdeg(k) % 2} for w in order]
    parity = [sum(vdeg(k) for k in w) % 2 for w in order]

    upper = []      # ((a, b), xi^[a] xi^[b]) for |a| <= |b| and len a + len b <= N
    fits = [[u for u, w in enumerate(order) if len(w) <= n] for n in range(arity_bound)]
    for t, a in enumerate(order):
        first = flat.offset[flat.position[t][0]]
        for u in fits[arity_bound - len(a)]:
            if u >= first and not odd[t] & odd[u]:
                c = tuple(sorted(a + order[u]))
                coeff = math.prod(math.comb(c.count(k), a.count(k)) for k in set(a))
                flips = parity[t] * parity[u] + sum(y < x for x in odd[t] for y in odd[u])
                upper.append(((t, u), {at[c]: -coeff if flips % 2 else coeff}))
    table = flat.table_from_upper(upper, symmetric=True)

    # d xi_c = (-1)^{|xi_c|} (sum_a (d_g a)_c xi_a - sum_{a <= b} (-1)^{|a|} [a, b]_c
    # xi^[ab]), (a, b) over the words of length two
    gt = g.table
    gen = [at[(key,)] for key in gt.position]
    dcol: list[dict] = [{} for _ in order]
    for p, a in enumerate(gt.position):
        images = [(gen[p], 1, g.dcols[p])]
        images += [(at[a, gt.position[q]], 1 if a[0] % 2 else -1, s)
                   for q, s in gt.row(p).items() if q >= p and (a, gt.position[q]) in at]
        for word, sign, image in images:
            for r, c in image.items():
                c = c.numerator if c.denominator == 1 else c
                dcol[gen[r]][word] = -sign * c if parity[gen[r]] else sign * c
    # w = (k,) + r, shortest first: xi_k xi^[r] = c_w xi^[w], so d xi^[w] =
    # (d xi_k xi^[r] + (-1)^{|xi_k|} xi_k d xi^[r]) / c_w, read off the table
    for t in sorted(range(len(order)), key=lambda t: len(order[t]))[len(gen):]:
        k, r = at[order[t][:1]], at[order[t][1:]]
        sign, acc = -1 if parity[k] else 1, {}
        for x, y, c in ([(u, r, c) for u, c in dcol[k].items()]
                        + [(k, u, sign * c) for u, c in dcol[r].items()]):
            for v, e in table.row(x).get(y, {}).items():
                acc[v] = acc.get(v, 0) + c * e
        cw = table.row(k)[r][t]
        for v, c in acc.items():
            if c:
                c = c // cw if type(c) is int and not c % cw else Q(c, cw)
                dcol[t][v] = c.numerator if c.denominator == 1 else c

    ce = CdgaModel(Complex(space, flat.graded_map(dcol, 1)), table)
    ce._words = order       # kept on its record by ``convolution``
    return ce


def convolution(g: Dgla, h: Dgla, arity_bound: int = DEFAULT_ARITY) -> TensorDgla:
    """The convolution dgla h (x) CE_{<=N}(g), each word weighted by its
    length, the arity."""
    ce = chevalley_eilenberg(g, arity_bound)
    conv = tensor_dgla(h, ce, tuple(len(w) for w in ce._words))
    conv.words, conv.arity = ce._words, arity_bound
    return conv


def hom_dgla_slice(g: Dgla, h: Dgla, arity_bound: int = DEFAULT_ARITY) -> Dgla:
    """The convolution dgla truncated at arity N, h (x) CE_{<=N}(g)."""
    return convolution(g, h, arity_bound).dgla


# ---------------------------------------------------------------------------
# elements of ``convolution(g, h, N)`` as maps on canonical monomials

def _words(g: Dgla, conv: TensorDgla) -> list[tuple]:
    """The CE words of ``conv``, whose one-letter words must be g's basis."""
    if sorted(w for w in conv.words if len(w) == 1) != [(key,) for key in v_basis(g)]:
        raise StructuralError("not a convolution dgla of the given source")
    return conv.words


def taylor(g: Dgla, conv: TensorDgla, x: GVec) -> dict[int, dict[tuple, GVec]]:
    """The nonzero arity components of x, each its values in h by word."""
    words, ht = _words(g, conv), conv.g.table
    out: dict[int, dict] = {}
    for j, s in conv.split(conv.dgla.table.flat(x)).items():
        out.setdefault(conv.weight[j], {})[words[j]] = ht.graded(s)
    return dict(sorted(out.items()))


def from_linear(g: Dgla, conv: TensorDgla, f: GradedMap) -> GVec:
    """The arity-one element a -> f(a)."""
    at = {w: j for j, w in enumerate(_words(g, conv))}
    ht = conv.g.table
    return conv.dgla.table.graded(conv.join({
        at[(key,)]: ht.flat(f.apply(g.space.basis_element(*key))) for key in v_basis(g)}))


def linear_part(g: Dgla, conv: TensorDgla, x: GVec, shift: int) -> GradedMap:
    """The arity-one part of x as a map g -> h of the given shift."""
    values, src, tgt = taylor(g, conv, x).get(1, {}), g.space, conv.g.space
    return GradedMap(src, tgt, shift, {
        deg: [sparse(values.get(((deg, idx),), {}).get(deg + shift, []))
              for idx in range(src.dim(deg))]
        for deg in src.degrees if tgt.dim(deg + shift)})


# ---------------------------------------------------------------------------
# L-infinity morphisms as Maurer-Cartan elements

def taylor_from_linear(g: Dgla, conv: TensorDgla, f: GradedMap) -> GVec:
    """The Taylor family with F_1 = f and no higher coefficients.

    No validity requirement on f; use strict_embed for validated morphisms.
    """
    if f.shift != 0:
        raise StructuralError("arity-one Taylor coefficient must have shift 0")
    return from_linear(g, conv, f)


def strict_embed(conv: TensorDgla, phi: DglaMorphism) -> GVec:
    report = validate_morphism(phi)
    if not report.ok:
        raise StructuralError(f"not a dgla morphism: {report.failures[:3]}")
    return taylor_from_linear(phi.source, conv, phi.map)


def linf_residual(g: Dgla, conv: TensorDgla, x: GVec) -> dict[int, dict[tuple, GVec]]:
    """The nonzero arity slices of D(F) + [F,F]/2 (``taylor``) for a Taylor
    family F in ``conv``, computed up to arity N + 1 in the convolution dgla
    of arity N + 1, built once per ``conv`` and g and kept in ``conv.wider``.

    There are none iff F is an L-infinity morphism up to arity N.
    """
    if any(deg != 1 for deg, v in x.items() if any(v)):
        raise StructuralError("a Taylor family lies in degree 1")
    words = _words(g, conv)
    found = conv.wider.get(g)
    if found is None:
        wide = convolution(g, conv.g, conv.arity + 1)
        found = conv.wider[g] = (wide, {w: j for j, w in enumerate(wide.words)})
    wide, at = found
    y = wide.join({at[words[j]]: s for j, s in conv.split(conv.dgla.table.flat(x)).items()})
    t = wide.dgla.table
    return taylor(g, wide, t.graded(_fractions(_residue(wide.dgla, _num(y)))))
