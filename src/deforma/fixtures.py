"""The shared example corpus.

Seven small rational models exercising every feature:

  F1  one-dimensional abelian dgla in degree 1
  F2  gl_2 in degree 0 with the commutator bracket, and its Borel sub-dgla
  F3  endomorphisms of the two-term complex K -> K (identity differential)
  F4  the exterior algebra on two degree-1 generators (d = 0) with its
      contraction calculus
  F5  the truncated polynomial forms K[x]/(x^3) (x) (1, dx) with the
      derivations x d/dx and x^2 d/dx and their contractions
  F6  the exterior algebra on (xi, xibar) with the xi-degree filtration, an
      abelian two-element symmetry dgla and its contraction family
  F7  the minimal obstructed dgla: x in degree 1, y = [x,x]/2 up to scale in
      degree 2, d = 0
"""

from __future__ import annotations

from .artin import ArtinAlgebra, truncated_polynomial_algebra
from .dgla import CdgaModel, Dgla, FiltrationData, SubDgla, abelian_dgla, sub_dgla_span
from .endo import EndDgla, end_dgla
from .graded import Complex, GradedMap, GradedVectorSpace, SubSpaceData, zero_map
from .linalg import Q, Vector


def _unit(dim: int, i: int) -> Vector:
    v = [Q(0)] * dim
    v[i] = Q(1)
    return v


# ---------------------------------------------------------------------------
# F1

def f1_dgla() -> Dgla:
    space = GradedVectorSpace({1: ("e",)})
    return abelian_dgla(Complex(space, zero_map(space, space, 1)))


# ---------------------------------------------------------------------------
# F2: gl_2 and its Borel

def f2_dgla() -> Dgla:
    """gl_2 in degree 0: basis e11, e12, e21, e22, commutator bracket."""
    labels = ("e11", "e12", "e21", "e22")
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    space = GradedVectorSpace({0: labels})
    table = []
    for (a, b) in sorted(idx):
        row = []
        for (c, d) in sorted(idx):
            v = [Q(0)] * 4
            if b == c:
                v[idx[(a, d)]] += Q(1)
            if d == a:
                v[idx[(c, b)]] -= Q(1)
            row.append(v)
        table.append(row)
    cx = Complex(space, zero_map(space, space, 1))
    return Dgla(cx, {(0, 0): table})


def f2_borel(g: Dgla | None = None) -> SubDgla:
    """Upper-triangular sub-dgla of gl_2."""
    g = g or f2_dgla()
    return sub_dgla_span(g, {0: [_unit(4, 0), _unit(4, 1), _unit(4, 3)]})


def f2_lower_left_section() -> GradedMap:
    """Section of gl_2 -> gl_2/borel sending the class of e21 to e21."""
    g = f2_dgla()
    quotient_space = GradedVectorSpace({0: ("[e21]",)})
    return GradedMap.from_blocks(quotient_space, g.space, 0, {0: [[Q(0)], [Q(0)], [Q(1)], [Q(0)]]})


# ---------------------------------------------------------------------------
# F3: End(K -> K)

def f3_complex() -> Complex:
    space = GradedVectorSpace({0: ("c0",), 1: ("c1",)})
    return Complex(space, GradedMap.from_blocks(space, space, 1, {0: [[Q(1)]]}))


def f3_end() -> EndDgla:
    return end_dgla(f3_complex())


def f3_dgla() -> Dgla:
    return f3_end().dgla


# ---------------------------------------------------------------------------
# F4: exterior algebra on two degree-1 generators

def f4_cdga() -> CdgaModel:
    space = GradedVectorSpace({0: ("1",), 1: ("x1", "x2"), 2: ("x1x2",)})
    cx = Complex(space, zero_map(space, space, 1))
    products = {
        (0, 0): [[[Q(1)]]],
        (0, 1): [[_unit(2, 0), _unit(2, 1)]],
        (0, 2): [[[Q(1)]]],
        (1, 1): [[[Q(0)], [Q(1)]], [[Q(-1)], [Q(0)]]],
    }
    return CdgaModel(cx, products)


def f4_derivations() -> Dgla:
    """Abelian symmetry algebra spanned by the two coordinate derivations."""
    space = GradedVectorSpace({0: ("d1", "d2")})
    return abelian_dgla(Complex(space, zero_map(space, space, 1)))


def f4_contraction(end: EndDgla | None = None) -> GradedMap:
    """d_k -> contraction with the k-th generator (an odd derivation)."""
    omega = f4_cdga()
    end = end or end_dgla(omega.complex)
    t = f4_derivations()
    cols = []
    for k in range(2):
        blocks = {}
        # contraction: x_k -> 1, x_{3-k} -> 0, x1x2 -> (+/-) other generator
        b1 = [[Q(1) if k == 0 else Q(0), Q(1) if k == 1 else Q(0)]]
        blocks[1] = b1
        # iota_{d1}(x1x2) = x2, iota_{d2}(x1x2) = -x1
        b2 = [[Q(0)], [Q(0)]]
        if k == 0:
            b2[1][0] = Q(1)
        else:
            b2[0][0] = Q(-1)
        blocks[2] = b2
        op = GradedMap.from_blocks(omega.space, omega.space, -1, blocks)
        cols.append(end.map_to_element(op).get(-1, [Q(0)] * end.space.dim(-1)))
    block = [[cols[j][r] for j in range(2)] for r in range(end.space.dim(-1))]
    return GradedMap.from_blocks(t.space, end.space, -1, {0: block})


def f4_degree_filtration() -> FiltrationData:
    """Filtration of the F4 forms by total degree."""
    omega = f4_cdga()
    sp = omega.space
    return FiltrationData(sp, {1: SubSpaceData(sp, {1: [_unit(2, 0), _unit(2, 1)], 2: [[Q(1)]]}),
                               2: SubSpaceData(sp, {2: [[Q(1)]]})})


# ---------------------------------------------------------------------------
# F5: truncated polynomial forms

def f5_cdga() -> CdgaModel:
    """K[x]/(x^3) (x) (1, dx) with d(x^k) = k x^{k-1} dx.

    Not a full Leibniz cdga (d(x * x^2) = 0 but the Leibniz expansion is
    3 x^2 dx); validate_cdga reports exactly that corner and nothing else.
    """
    space = GradedVectorSpace({0: ("1", "x", "x^2"), 1: ("dx", "x*dx", "x^2*dx")})
    d_block = [[Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(2)], [Q(0), Q(0), Q(0)]]
    cx = Complex(space, GradedMap.from_blocks(space, space, 1, {0: d_block}))

    def poly_mult(a: int, b: int, dim: int) -> Vector:
        v = [Q(0)] * dim
        if a + b < 3 and a + b < dim:
            v[a + b] = Q(1)
        return v

    products = {
        (0, 0): [[poly_mult(a, b, 3) for b in range(3)] for a in range(3)],
        (0, 1): [[poly_mult(a, b, 3) for b in range(3)] for a in range(3)],
    }
    return CdgaModel(cx, products)


def f5_derivations() -> Dgla:
    """Derivations x d/dx and x^2 d/dx: [v1, v2] = v2."""
    space = GradedVectorSpace({0: ("x*ddx", "x^2*ddx")})
    cx = Complex(space, zero_map(space, space, 1))
    table = [[[Q(0), Q(0)], [Q(0), Q(1)]],
             [[Q(0), Q(-1)], [Q(0), Q(0)]]]
    return Dgla(cx, {(0, 0): table})


def f5_contraction(end: EndDgla | None = None) -> GradedMap:
    """Contraction i_{f d/dx}: x^k -> 0, x^k dx -> x^k f."""
    omega = f5_cdga()
    end = end or end_dgla(omega.complex)
    t = f5_derivations()
    cols = []
    for power in (1, 2):  # f = x, f = x^2
        block = [[Q(0)] * 3 for _ in range(3)]
        for k in range(3):
            if k + power < 3:
                block[k + power][k] = Q(1)
        op = GradedMap.from_blocks(omega.space, omega.space, -1, {1: block})
        cols.append(end.map_to_element(op).get(-1, [Q(0)] * end.space.dim(-1)))
    block = [[cols[j][r] for j in range(2)] for r in range(end.space.dim(-1))]
    return GradedMap.from_blocks(t.space, end.space, -1, {0: block})


def f5_form_filtration() -> FiltrationData:
    omega = f5_cdga()
    sp = omega.space
    return FiltrationData(sp, {1: SubSpaceData(sp, {1: [_unit(3, 0), _unit(3, 1), _unit(3, 2)]})})


# ---------------------------------------------------------------------------
# F6: the elliptic-curve period toy

def f6_cdga() -> CdgaModel:
    space = GradedVectorSpace({0: ("1",), 1: ("xi", "xibar"), 2: ("xi*xibar",)})
    cx = Complex(space, zero_map(space, space, 1))
    products = {
        (0, 0): [[[Q(1)]]],
        (0, 1): [[_unit(2, 0), _unit(2, 1)]],
        (0, 2): [[[Q(1)]]],
        (1, 1): [[[Q(0)], [Q(1)]], [[Q(-1)], [Q(0)]]],
    }
    return CdgaModel(cx, products)


def f6_filtration() -> FiltrationData:
    """F^p = forms of xi-degree at least p."""
    omega = f6_cdga()
    sp = omega.space
    return FiltrationData(sp, {1: SubSpaceData(sp, {1: [_unit(2, 0)], 2: [[Q(1)]]})})


def f6_dgla() -> Dgla:
    """Abelian symmetry dgla: del in degree 0, del (x) xibar in degree 1."""
    space = GradedVectorSpace({0: ("del",), 1: ("del*xibar",)})
    return abelian_dgla(Complex(space, zero_map(space, space, 1)))


def f6_contraction(end: EndDgla | None = None) -> GradedMap:
    """del -> iota_del; del (x) xibar -> xibar wedge iota_del."""
    omega = f6_cdga()
    end = end or end_dgla(omega.complex)
    g = f6_dgla()
    # iota_del: xi -> 1, xibar -> 0, xi*xibar -> xibar (End degree -1)
    iota = GradedMap.from_blocks(omega.space, omega.space, -1,
                                 {1: [[Q(1), Q(0)]], 2: [[Q(0)], [Q(1)]]})
    # xibar wedge iota_del: xi -> xibar, everything else -> 0 (End degree 0)
    wedge = GradedMap.from_blocks(omega.space, omega.space, 0,
                                  {1: [[Q(0), Q(0)], [Q(1), Q(0)]]})
    col0 = end.map_to_element(iota).get(-1, [Q(0)] * end.space.dim(-1))
    col1 = end.map_to_element(wedge).get(0, [Q(0)] * end.space.dim(0))
    return GradedMap.from_blocks(g.space, end.space, -1,
                                 {0: [[c] for c in col0], 1: [[c] for c in col1]})


# ---------------------------------------------------------------------------
# F7: the minimal obstructed dgla

def f7_dgla() -> Dgla:
    space = GradedVectorSpace({1: ("x",), 2: ("y",)})
    cx = Complex(space, zero_map(space, space, 1))
    return Dgla(cx, {(1, 1): [[[Q(1)]]]})


# ---------------------------------------------------------------------------
# Artin coefficient algebras

def a2() -> ArtinAlgebra:
    return truncated_polynomial_algebra(1, 3)


# ---------------------------------------------------------------------------
# registry (primary dgla per fixture name, for the axiom suite and the CLI)

def fixture_dgla(name: str) -> Dgla:
    builders = {
        "F1": f1_dgla,
        "F2": f2_dgla,
        "F3": f3_dgla,
        "F4": lambda: end_dgla(f4_cdga().complex).dgla,
        "F5": lambda: end_dgla(f5_cdga().complex).dgla,
        "F6": f6_dgla,
        "F7": f7_dgla,
    }
    if name not in builders:
        raise KeyError(f"unknown fixture {name!r}")
    return builders[name]()


FIXTURE_NAMES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")
