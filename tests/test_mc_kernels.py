"""The flat Maurer-Cartan kernels against their dense GVec oracles.

``gauge_act``, ``mc_residue``, ``gauge_equivalent``, ``mc_extend`` and
``pi1_multiply`` compute on flat sparse coordinates and convert only at the
public boundary; ``dense_reference`` keeps the versions that computed on dense
coordinate lists.  On seeded elements of F1, F3-F7 (x) m_A the two must agree
entry for entry, every returned coefficient must be a ``Fraction`` (no ``int``
leaks out of a kernel), and no degree may be left holding an all-zero list.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import dense_reference as dense
from deforma import fixtures as F
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.mc import gauge_act, gauge_equivalent, mc_extend, mc_residue, pi1_multiply

Q = Fraction
HOSTS = [(name, k, order) for name in ("F1", "F3", "F4", "F5", "F6", "F7")
         for k, order in ((1, 3), (1, 4), (2, 3))]


def element(ng, rng, deg, nonzeros, keep=lambda t: True):
    """``nonzeros`` small rationals at random positions of degree ``deg``
    that ``keep`` allows; {} when there are none."""
    dim = ng.space.dim(deg)
    v = [Q(0)] * dim
    allowed = [t for t in range(dim) if keep(t)]
    for t in rng.sample(allowed, min(nonzeros, len(allowed))):
        v[t] = Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return {deg: v} if any(v) else {}


def assert_same(got, want):
    assert got == want
    if got is not None:
        assert all(type(c) is Fraction for v in got.values() for c in v)
        assert all(any(v) for v in got.values())


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args), None
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(HOSTS), st.integers(0, 2**32), st.integers(1, 4))
def test_flat_kernels_match_dense_oracles(case, seed, nonzeros):
    name, k, order = case
    a = truncated_polynomial_algebra(k, order)
    ng = tensor_nilpotent(F.fixture_dgla(name), a)
    rng = random.Random(seed)
    closed = ng.base.underlying.differential.is_zero()
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

    # the action, the residue and the extension, on a Maurer-Cartan element
    # and on an arbitrary degree-1 element
    for u in (x, element(ng, rng, 1, nonzeros)):
        assert_same(gauge_act(ng, alpha, u), dense.gauge_act(ng, alpha, u))
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

    b, c = element(ng, rng, 0, nonzeros), element(ng, rng, 0, nonzeros)
    assert_same(pi1_multiply(ng, b, c), dense.pi1_multiply(ng, b, c))
