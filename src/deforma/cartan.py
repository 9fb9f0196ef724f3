"""Cartan homotopies and the transport they induce.

A Cartan homotopy is a degree -1 linear map i: g -> h between dglas.  Read
i as an arity-one element of the convolution dgla h (x) CE_{<=N}(g)
(``convolution``), where the arity of a coordinate is the length of its
CE word, and let l be the arity-one part of D i: l_a = d_h i_a + i_{d_g a}.
The conditions are

  (A)  the length-two words of  D i - [i, D i]/2  vanish, i.e. the arity-two
       part of D i equals [i, l]/2 (equivalently: i_{[a,b]} matches the
       symmetrization of [i_a, l_b]); and
  (B)  [i_a, [i_b, l_c]] = 0 for all a, b, c.

Then l is a dgla morphism, and gauging the zero Maurer-Cartan element of the
convolution dgla by -i produces a morphism-up-to-arity-N whose linear part
is l, whose length-two words are those of condition (A), and whose higher
parts are built from i alone.
"""

from __future__ import annotations


from .convolution import convolution, from_linear, linear_part, taylor
from .dgla import Dgla, DglaMorphism, TensorDgla, ValidationReport, _residual_repr, ad_exp_terms
from .graded import GradedMap, GVec, StructuralError, vec_add, vec_is_zero, vec_scale, vec_sub
from .linalg import Q


def _cartan_element(g: Dgla, conv: TensorDgla, i: GradedMap) -> GVec:
    if i.shift != -1:
        raise StructuralError("a Cartan homotopy must have degree -1")
    return from_linear(g, conv, i)


def lie_from_cartan(g: Dgla, h: Dgla, i: GradedMap) -> GradedMap:
    """l_a = d_h i_a + i_{d_g a}; a chain map always, a dgla morphism when i
    satisfies the Cartan conditions."""
    conv = convolution(g, h, 1)
    return linear_part(g, conv, conv.d(_cartan_element(g, conv, i)), 0)


def cartan_check(g: Dgla, h: Dgla, i: GradedMap) -> ValidationReport:
    """Check conditions (A) and (B); the report's notes record whether the
    stronger pointwise identities i_{[a,b]} = [i_a, l_b] and [i_a, i_b] = 0
    hold as well."""
    report = ValidationReport()
    conv = convolution(g, h, 2)
    ielem = _cartan_element(g, conv, i)
    di = conv.d(ielem)
    lmap = linear_part(g, conv, di, 0)

    condition_a = vec_sub(di, vec_scale(Q(1, 2), conv.bracket(ielem, di)))
    for word, val in sorted(taylor(g, conv, condition_a).get(2, {}).items()):
        report.fail("condition_A", [g.space.label(*key) for key in word],
                    _residual_repr(val))

    sp = g.space
    basis = sp.basis()
    for (m, ia) in basis:
        i_a = i.apply(sp.basis_element(m, ia))
        for (n, ib) in basis:
            i_b = i.apply(sp.basis_element(n, ib))
            for (p, ic) in basis:
                l_c = lmap.apply(sp.basis_element(p, ic))
                res = h.bracket(i_a, h.bracket(i_b, l_c))
                if not vec_is_zero(res):
                    report.fail("condition_B",
                                [sp.label(m, ia), sp.label(n, ib), sp.label(p, ic)],
                                _residual_repr(res))

    stronger_bracket = True
    stronger_square = True
    for (m, ia) in basis:
        a = sp.basis_element(m, ia)
        i_a = i.apply(a)
        for (n, ib) in basis:
            b = sp.basis_element(n, ib)
            lhs = i.apply(g.pair_bracket(m, ia, n, ib))
            rhs = h.bracket(i_a, lmap.apply(b))
            if not vec_is_zero(vec_sub(lhs, rhs)):
                stronger_bracket = False
            if not vec_is_zero(h.bracket(i_a, i.apply(b))):
                stronger_square = False
    report.notes["stronger_bracket_identity"] = stronger_bracket
    report.notes["stronger_square_zero"] = stronger_square
    return report


def lie_morphism_from_cartan(g: Dgla, h: Dgla, i: GradedMap) -> DglaMorphism:
    return DglaMorphism(g, h, lie_from_cartan(g, h, i))


def gauge_zero_transport(g: Dgla, conv: TensorDgla, i: GradedMap) -> GVec:
    """e^{-i} * 0 in the convolution dgla ``conv`` of g.

    Always a Maurer-Cartan element (it is a gauge transform of zero); its
    arity-one part is l, and for a Cartan homotopy its arity-two part
    vanishes.  The series terminates because the bracket raises arity.
    """
    alpha = vec_scale(Q(-1), _cartan_element(g, conv, i))
    out: GVec = {}
    for term in ad_exp_terms(conv.bracket, vec_scale, vec_is_zero, alpha,
                             vec_scale(Q(-1), conv.d(alpha)), max(conv.weight) + 2):
        out = vec_add(out, term)
    return out
