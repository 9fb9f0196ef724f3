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
  * product:      xi^[A] xi^[B] = (-1)^{|xi^[A]||xi^[B]|} sum_P eps(P) xi^[C]
    with C = sorted(A + B), P running over the position sets with
    C|_P = A and C|_{P^c} = B, and eps(P) the Koszul sign of the unshuffle
    (P, P^c) in g[1]-degrees; it is zero if C repeats an odd key or is
    longer than N;
  * differential: d xi_c = (-1)^{|xi_c|} (sum_a (d_g a)_c xi_a
    - sum_{(a, b)} (-1)^{|a|} [a, b]_c xi^[ab]), (a, b) over
    ``canonical_tuples(g, 2)``, extended as a derivation.  Writing
    xi_{a_1} ... xi_{a_q} = kappa_A xi^[A] (a Koszul sign times the
    factorials of the multiplicities), d xi^[A] is kappa_A^{-1} times the
    Leibniz expansion of d(xi_{a_1} ... xi_{a_q}).  Longer words span a dg
    ideal, so dropping words longer than N is exact.

The basis vector e_k (x) xi^[A] of the slice is the map sending the
canonical monomial A to e_k and every other canonical monomial to 0, with no
sign and no factorial.  So the arity of a coordinate is the length of its
word, and for an element i of degree s + 1 concentrated in arity one (a map
i: g -> h of shift s), the arity-one part of D i is a -> d_h i_a
- (-1)^s i_{d_g a}.  Maurer-Cartan elements are exactly the
arity-truncated L-infinity morphisms g ~> h.  ``taylor``, ``linear_part``
and ``from_linear`` read an element through the record's ``split`` and
``join``, with ``ce_words`` naming the word at each CE position; they take
the source g with the convolution dgla.
"""

from __future__ import annotations

import itertools

from .dgla import (CdgaModel, Dgla, DglaMorphism, FlatBasis, TensorDgla, tensor_dgla,
                   validate_morphism)
from .graded import Complex, GradedMap, GradedVectorSpace, GVec, StructuralError
from .linalg import Q, sparse

VKey = tuple  # (g-degree, basis index) of a suspended basis vector

DEFAULT_ARITY = 4


def v_basis(g: Dgla) -> list[VKey]:
    return [(d, i) for d in g.space.degrees for i in range(g.space.dim(d))]


def vdeg(key: VKey) -> int:
    return key[0] - 1


def canonicalize(keys: tuple, g: Dgla) -> tuple[tuple, int] | None:
    """Sort a tuple of VKeys with the Koszul sign; None if it vanishes.

    A tuple vanishes when a key of odd g[1]-degree repeats.
    """
    keys = list(keys)
    sign = 1
    for i in range(1, len(keys)):
        j = i
        while j > 0 and keys[j - 1] > keys[j]:
            if (vdeg(keys[j - 1]) % 2) and (vdeg(keys[j]) % 2):
                sign = -sign
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            j -= 1
    for a, b in zip(keys, keys[1:]):
        if a == b and vdeg(a) % 2:
            return None
    return tuple(keys), sign


def canonical_tuples(g: Dgla, q: int) -> list[tuple]:
    out = []
    for combo in itertools.combinations_with_replacement(v_basis(g), q):
        if any(a == b and vdeg(a) % 2 for a, b in zip(combo, combo[1:])):
            continue
        out.append(combo)
    return out


def _unshuffle_sign(positions: tuple, degrees: list[int]) -> int:
    """Koszul sign of the permutation (selected block, complement block)."""
    sign = 1
    selected = set(positions)
    for i in range(len(degrees)):
        if i in selected:
            continue
        for j in positions:
            if j > i and (degrees[i] % 2) and (degrees[j] % 2):
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# the Chevalley-Eilenberg cdga

def ce_words(g: Dgla, arity_bound: int) -> list[tuple]:
    """The words of CE_{<=N}(g) in its flat order: by degree, shortest first."""
    words = [w for q in range(1, arity_bound + 1) for w in canonical_tuples(g, q)]
    return sorted(words, key=lambda w: -sum(vdeg(k) for k in w))


def _word_product(a: tuple, b: tuple, g: Dgla, arity_bound: int):
    """xi^[a] xi^[b] as (word, coefficient), or None; () is the unit."""
    c = tuple(sorted(a + b))
    if len(c) > arity_bound or canonicalize(c, g) is None:
        return None
    degs = [vdeg(k) for k in c]
    coeff = sum(_unshuffle_sign(p, degs)
                for p in itertools.combinations(range(len(c)), len(a))
                if tuple(c[i] for i in p) == a)
    if sum(vdeg(k) for k in a) * sum(vdeg(k) for k in b) % 2:
        coeff = -coeff
    return c, coeff


def chevalley_eilenberg(g: Dgla, arity_bound: int) -> CdgaModel:
    """CE_{<=N}(g) on the words of length 1..N (module docstring)."""
    words: dict[int, list[tuple]] = {}
    for w in ce_words(g, arity_bound):
        words.setdefault(-sum(vdeg(k) for k in w), []).append(w)
    space = GradedVectorSpace({
        k: tuple("^".join(g.label(*key) for key in w) for w in ws)
        for k, ws in words.items()})
    place = {w: (k, i) for k, ws in words.items() for i, w in enumerate(ws)}

    def times(x: dict, y: dict) -> dict:
        out: dict = {}
        for a, ca in x.items():
            for b, cb in y.items():
                prod = _word_product(a, b, g, arity_bound)
                if prod:
                    out[prod[0]] = out.get(prod[0], 0) + prod[1] * ca * cb
        return {w: c for w, c in out.items() if c}

    # d xi_c: the coefficient of xi_a is (-1)^{|xi_c|} (d_g a)_c, and that of
    # xi^[ab] is -(-1)^{|xi_c| + |a|} [a, b]_c
    sources = [((a,), g.d(g.space.basis_element(*a)), 1) for a in v_basis(g)]
    if arity_bound >= 2:
        sources += [((a, b), g.pair_bracket(*a, *b), 1 if a[0] % 2 else -1)
                    for a, b in canonical_tuples(g, 2)]
    dgen: dict[VKey, dict] = {key: {} for key in v_basis(g)}
    for word, image, sign in sources:
        for deg, v in image.items():
            for t, c in enumerate(v):
                if c:
                    dgen[deg, t][word] = -sign * c if vdeg((deg, t)) % 2 else sign * c

    d_columns: dict[int, list] = {}
    for w, (k, col) in place.items():
        kappa = {(): 1}
        for key in w:
            kappa = times(kappa, {(key,): 1})
        image: dict = {}
        for i, key in enumerate(w):
            term = {(): Q(-1) if sum(vdeg(k) for k in w[:i]) % 2 else Q(1)}
            for j, other in enumerate(w):
                term = times(term, dgen[key] if i == j else {(other,): 1})
            for u, c in term.items():
                image[u] = image.get(u, 0) + c
        column = {place[u][1]: c / kappa[w] for u, c in image.items() if c}
        if column:
            d_columns.setdefault(k, [{} for _ in range(space.dim(k))])[col] = column

    flat = FlatBasis(space)
    position = {w: flat.offset[k] + i for w, (k, i) in place.items()}
    upper = []      # ((a, b), xi^[a] xi^[b]) for |a| <= |b|, nonzero only
    for a, (m, _) in place.items():
        for b, (n, _) in place.items():
            prod = _word_product(a, b, g, arity_bound) if m <= n else None
            if prod and prod[1]:
                upper.append(((position[a], position[b]), {position[prod[0]]: prod[1]}))
    return CdgaModel(Complex(space, GradedMap(space, space, 1, d_columns)),
                     flat.table_from_upper(upper, symmetric=True))


def convolution(g: Dgla, h: Dgla, arity_bound: int = DEFAULT_ARITY) -> TensorDgla:
    """The convolution dgla h (x) CE_{<=N}(g), each word weighted by its
    length, the arity."""
    return tensor_dgla(h, chevalley_eilenberg(g, arity_bound),
                       tuple(len(w) for w in ce_words(g, arity_bound)))


def hom_dgla_slice(g: Dgla, h: Dgla, arity_bound: int = DEFAULT_ARITY) -> Dgla:
    """The convolution dgla truncated at arity N, h (x) CE_{<=N}(g)."""
    return convolution(g, h, arity_bound).dgla


# ---------------------------------------------------------------------------
# elements of ``convolution(g, h, N)`` as maps on canonical monomials

def _words(g: Dgla, conv: TensorDgla) -> list[tuple]:
    """``ce_words`` of the CE factor of ``conv``, which must be built on g."""
    words = ce_words(g, max(conv.weight, default=0))
    if len(words) != len(conv.weight):
        raise StructuralError("not a convolution dgla of the given source")
    return words


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
    from .mc import mc_residue
    if any(deg != 1 for deg, v in x.items() if any(v)):
        raise StructuralError("a Taylor family lies in degree 1")
    words = _words(g, conv)
    found = conv.wider.get(g)
    if found is None:
        n = max(conv.weight, default=0) + 1
        found = conv.wider[g] = (convolution(g, conv.g, n),
                                 {w: j for j, w in enumerate(ce_words(g, n))})
    wide, at = found
    y = wide.join({at[words[j]]: s for j, s in conv.split(conv.dgla.table.flat(x)).items()})
    return taylor(g, wide, mc_residue(wide.dgla, wide.dgla.table.graded(y)))
