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

All three functions read the caller's ``conv`` = convolution(g, h, N), so
one build serves them; the check reads words of length two and needs N >= 2.
The transport and the check's flat brackets run on the (D, N) elements of ``linalg``.
"""

from __future__ import annotations

import itertools

from .convolution import from_linear, linear_part, taylor
from .dgla import Dgla, TensorDgla, ValidationReport, _residual_repr
from .graded import GradedMap, GVec, StructuralError, vec_scale, vec_sub
from .linalg import Q, _bracket, _combine, _d_bracket, _fractions, _num, ad_exp_terms


def _require_degree_minus_one(i: GradedMap) -> None:
    if i.shift != -1:
        raise StructuralError("a Cartan homotopy must have degree -1")


def lie_from_cartan(g: Dgla, conv: TensorDgla, i: GradedMap) -> GradedMap:
    """The arity-one part of D i, l_a = d_h i_a + i_{d_g a}: a chain map
    always, a dgla morphism when i satisfies the Cartan conditions."""
    _require_degree_minus_one(i)
    return linear_part(g, conv, conv.d(from_linear(g, conv, i)), 0)


def cartan_check(g: Dgla, conv: TensorDgla, i: GradedMap) -> ValidationReport:
    """Check conditions (A) and (B) in ``conv`` = convolution(g, h, N),
    N >= 2; the report's notes record whether the stronger pointwise
    identities i_{[a,b]} = [i_a, l_b] and [i_a, i_b] = 0 hold as well."""
    _require_degree_minus_one(i)
    if conv.arity < 2:
        raise StructuralError("condition (A) reads words of length two: "
                              "the convolution needs arity at least 2")
    report = ValidationReport()
    ielem = from_linear(g, conv, i)
    di = conv.d(ielem)
    condition_a = vec_sub(di, vec_scale(Q(1, 2), conv.bracket(ielem, di)))
    for word, val in sorted(taylor(g, conv, condition_a).get(2, {}).items()):
        report.fail("condition_A", [g.space.label(*key) for key in word],
                    _residual_repr(val))

    sp, ht, basis = g.space, conv.g.table, g.space.basis()
    irows, lrows = ([_num(ht.flat(f.apply(sp.basis_element(*key)))) for key in basis]
                    for f in (i, linear_part(g, conv, di, 0)))
    pairs = list(itertools.product(range(len(basis)), repeat=2))
    inner = {(b, c): _bracket(ht, irows[b], lrows[c]) for b, c in pairs}     # [i_b, l_c]
    for a, ia in enumerate(irows):
        for b, c in pairs:
            res = _bracket(ht, ia, inner[b, c])
            if res[1]:
                report.fail("condition_B", [sp.label(*basis[x]) for x in (a, b, c)],
                            _residual_repr(ht.graded(_fractions(res))))
    report.notes["stronger_bracket_identity"] = all(     # (D, N) forms are unique
        _combine([(c, irows[k]) for k, c in g.table.row(a).get(b, {}).items()])
        == _bracket(ht, irows[a], lrows[b]) for a, b in pairs)
    report.notes["stronger_square_zero"] = not any(
        _bracket(ht, irows[a], irows[b])[1] for a, b in pairs)
    return report


def gauge_zero_transport(g: Dgla, conv: TensorDgla, i: GradedMap) -> GVec:
    """e^{-i} * 0 in the convolution dgla ``conv`` of g.

    Always a Maurer-Cartan element (it is a gauge transform of zero); its
    arity-one part is l, and for a Cartan homotopy its arity-two part
    vanishes.  The series terminates because the bracket raises arity.
    """
    _require_degree_minus_one(i)
    d, t = conv.dgla, conv.dgla.table
    alpha = _num({k: -c for k, c in t.flat(from_linear(g, conv, i)).items()})
    terms = ad_exp_terms(t, alpha, _d_bracket(t, d.dcols, alpha, -1, alpha, (1, {})),
                         max(conv.weight, default=0) + 2)      # s = [alpha, 0] - d alpha
    return t.graded(_fractions(_combine([(1, s) for s in terms])))
