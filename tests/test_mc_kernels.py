"""The Maurer-Cartan kernels against their dense GVec oracles.

``gauge_act``, ``mc_residue``, ``gauge_equivalent``, ``gauge_path``,
``mc_extend`` and ``pi1_multiply`` compute on integer numerators over one
common denominator and convert only at the public boundary;
``irrelevant_stabilizer`` computes on the flat ``Fraction`` rows;
``dense_reference`` keeps the versions that computed on dense coordinate
lists.  On seeded elements of F1, F3-F7 (x) m_A, and for ``pi1_multiply`` of
F2 (x) m_A too, the two must agree entry for entry, every returned
coefficient must be a ``Fraction`` (no ``int`` leaks out of a kernel), and
no degree may be left holding an all-zero list.  The weight-stage solve,
one monomial at a time against one reduction of the base d, must give
``linalg.solve``'s solution on the assembled slice of d, or None with it.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import dense_reference as dense
from deforma import dgla, fixtures as F, mc
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.dgla import Dgla, abelian_dgla
from deforma.graded import (Complex, GradedMap, GradedVectorSpace, vec_is_zero,
                            vec_scale)
from deforma.holim import path_dgla
from deforma.mc import (gauge_act, gauge_equivalent, gauge_path, irrelevant_stabilizer,
                        mc_extend, mc_residue, pi1_multiply)

Q = Fraction
ARTIN = ((1, 3), (1, 4), (2, 3))
HOSTS = [(name, k, order) for name in ("F1", "F3", "F4", "F5", "F6", "F7", "F3/6", "F5/6", "C")
         for k, order in ARTIN]


def scaled(g: Dgla) -> Dgla:
    """g with its bracket halved and its d divided by 3: still a dgla, and
    none of its nonzero constants is an integer."""
    cx = g.underlying
    return Dgla(Complex(cx.space, cx.differential.scale(Q(1, 3))),
                {key: [[[c / 2 for c in v] for v in row] for row in table]
                 for key, table in g.brackets.items()})


def long_complex() -> Dgla:
    """The abelian dgla on K^2 -> K^3 -> K^2 (degrees 0, 1, 2), with a
    dependent column in each d and a constant that is not an integer: the
    fixtures have no d out of degree 1."""
    space = GradedVectorSpace({0: ("a", "b"), 1: ("f", "g", "h"), 2: ("u", "v")})
    d = GradedMap(space, space, 1, {
        0: [{0: Q(1), 1: Q(1)}, {0: Q(2), 1: Q(2)}],
        1: [{0: Q(1)}, {0: Q(-1)}, {0: Q(1, 2), 1: Q(1)}]})
    return abelian_dgla(Complex(space, d))


def host(name: str, k: int, order: int):
    """The fixture dgla ``name`` (x) K[e1..ek]/m^order; "F3/6" is ``scaled``
    of F3, and "C" is ``long_complex``."""
    g = (long_complex() if name == "C" else
         scaled(F.fixture_dgla(name[:-2])) if name.endswith("/6") else F.fixture_dgla(name))
    return tensor_nilpotent(g, truncated_polynomial_algebra(k, order))


def element(ng, rng, deg, nonzeros, keep=lambda t: True):
    """``nonzeros`` small rationals at random positions of degree ``deg``
    that ``keep`` allows; {} when there are none."""
    dim = ng.space.dim(deg)
    v = [Q(0)] * dim
    allowed = [t for t in range(dim) if keep(t)]
    for t in rng.sample(allowed, min(nonzeros, len(allowed))):
        v[t] = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return {deg: v} if any(v) else {}


def assert_clean(got):
    """Every coefficient a ``Fraction``, and no all-zero degree."""
    assert all(type(c) is Fraction for v in got.values() for c in v)
    assert all(any(v) for v in got.values())


def assert_same(got, want):
    assert got == want
    if got is not None:
        assert_clean(got)


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args), None
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(HOSTS), st.integers(0, 2**32), st.integers(1, 4))
def test_flat_kernels_match_dense_oracles(case, seed, nonzeros):
    ng, a = host(*case), truncated_polynomial_algebra(*case[1:])
    rng = random.Random(seed)
    closed = ng.g.underlying.differential.is_zero()
    high = lambda t: 2 * a.weights[t % a.dim] >= a.order

    def mc_point():
        # e^beta * x1, with x1 closed and of weight at least half the order
        x1 = element(ng, rng, 1, nonzeros, high) if closed else {}
        return dense.gauge_act(ng, element(ng, rng, 0, nonzeros), x1)

    alpha, x = element(ng, rng, 0, nonzeros), mc_point()
    # an equivalent pair, and a pair drawn independently (any verdict)
    for y in (dense.gauge_act(ng, alpha, x), mc_point()):
        got, want = gauge_equivalent(ng, x, y), dense.gauge_equivalent(ng, x, y)
        assert (got.status, got.detail) == (want.status, want.detail)
        assert_same(got.alpha, want.alpha)

    # the action, its path, the residue, the stabilizer and the extension,
    # on a Maurer-Cartan element and on an arbitrary degree-1 element
    for u in (x, element(ng, rng, 1, nonzeros)):
        assert_same(gauge_act(ng, alpha, u), dense.gauge_act(ng, alpha, u))
        gamma, want = gauge_path(ng, alpha, u), [u] + dense.gauge_terms(ng, alpha, u)
        assert_clean(gamma)
        path = dense.to_path(path_dgla(ng.dgla, dense.nilpotency_order(ng)), gamma, 1)
        while want and vec_is_zero(want[-1]):
            want.pop()
        assert path.p == want
        for got in path.p[1:]:
            assert_clean(got)
        assert path.q == ([vec_scale(Q(-1), alpha)] if alpha else [])
        stab = irrelevant_stabilizer(ng, u)
        assert stab == dense.irrelevant_stabilizer(ng, u)
        for got in stab:
            assert_clean(got)
        assert_same(mc_residue(ng, u), dense.mc_residue(ng, u))
        (got, err), (want, want_err) = outcome(mc_extend, ng, u), outcome(dense.mc_extend, ng, u)
        assert err == want_err
        if want is not None:
            assert got.status == want.status
            assert_same(got.element, want.element)
            if want.obstruction is not None:
                ob, ref = got.obstruction, want.obstruction
                assert (ob.weight, ob.classes) == (ref.weight, ref.classes)
                assert_same(ob.representative, ref.representative)

    # BCH on the host and on gl_2 (x) m_A, whose degree-0 bracket is not zero
    gl2 = tensor_nilpotent(F.f2_dgla(), a)
    for h in (ng, gl2):
        b, c = element(h, rng, 0, nonzeros), element(h, rng, 0, nonzeros)
        assert_same(pi1_multiply(h, b, c), dense.pi1_multiply(h, b, c))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(HOSTS + [case for case in HOSTS if case[0] == "C"] * 3),
       st.integers(0, 1), st.integers(0, 2**32),
       st.sampled_from(("consistent", "perturbed", "random")))
def test_stage_solve_matches_dense_solve(case, deg, seed, rhs):
    # d xi = r at weight w, for the gauge stages (deg 0) and the mc_extend
    # corrections (deg 1); F6 and F7 have no degree past the one solved, and
    # only "C" has a nonzero d out of degree 1
    ng = host(*case)
    rng = random.Random(seed)
    t, dcols = ng.dgla.table, ng.dgla.dcols
    if rhs == "random":
        r = t.flat(element(ng, rng, deg + 1, rng.randint(1, 6)))
    else:
        r = {}
        for p, c in t.flat(element(ng, rng, deg, rng.randint(1, 6))).items():
            for q, e in dcols[p].items():
                r[q] = r.get(q, 0) + c * e
        if rhs == "perturbed" and ng.space.dim(deg + 1):
            q = t.offset[deg + 1] + rng.randrange(ng.space.dim(deg + 1))
            r[q] = r.get(q, 0) + Q(1, 7)
        r = {q: c for q, c in r.items() if c}
    for w in range(1, dense.nilpotency_order(ng)):
        want = dense.solve_d(ng, deg, w, r)
        got = mc._solve_d(ng, deg, w, mc._num(r))
        if got is not None:
            got = {p: Q(v, got[0]) for p, v in got[1].items()}
        assert got == want


def test_extension_reads_the_base_cohomology_once(monkeypatch):
    # d f = u on "C", with H^2 = 0: the seed f (x) (e + e^2 + e^3) is
    # corrected at weights 1, 2 and 3, every class read in one H(g), also
    # by a second extension on the same host
    calls = []
    cohomology = dgla.cohomology
    monkeypatch.setattr(dgla, "cohomology", lambda c: calls.append(c) or cohomology(c))
    ng = host("C", 1, 4)
    seed = {1: [Q(1), Q(1), Q(1)] + [Q(0)] * 6}
    for _ in range(2):
        result, want = mc_extend(ng, seed), dense.mc_extend(ng, seed)
        assert result.status == want.status == "solved"
        assert_same(result.element, want.element)
        assert result.element != seed
    assert len(calls) == 1
