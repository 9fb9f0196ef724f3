"""How structure constants are stored, and what leaves the tables.

A table stores each integral constant as an ``int`` and every other one as
a ``Fraction``: never a float, never a ``Fraction`` equal to an integer.
The dense views (``brackets``, ``products``) and every bracket or product
handed out (``pair_bracket``, ``bracket``, ``pair_product``, ``multiply``)
hold ``Fraction``s only.  Because the constants of the criterion-1 Hom
slices are all integral, ``validate_dgla`` on them, their tensor rows
composed on the way, makes no ``Fraction`` at all.
"""

from fractions import Fraction as Q

import pytest

from deforma import fixtures as F
from deforma.artin import tensor_nilpotent, truncated_polynomial_algebra
from deforma.convolution import chevalley_eilenberg, hom_dgla_slice
from deforma.dgla import (CdgaModel, Dgla, restrict_to_sub, tensor_dgla,
                          validate_dgla)
from deforma.endo import end_dgla
from deforma.holim import _interval_forms, path_dgla


def scaled_dgla(g: Dgla, scale) -> Dgla:
    """g with its dense tables times ``scale``, through ``from_dense``."""
    return Dgla(g.underlying, {key: [[[scale * c for c in v] for v in row] for row in table]
                               for key, table in g.brackets.items()})


def scaled_cdga(a: CdgaModel, scale) -> CdgaModel:
    return CdgaModel(a.complex, {key: [[[scale * c for c in v] for v in row] for row in table]
                                 for key, table in a.products.items()})


def hom_slices():
    f5_end = end_dgla(F.f5_cdga().complex).dgla
    return {"Hom(F1)": lambda: hom_dgla_slice(F.f1_dgla(), F.f1_dgla(), 4),
            "Hom(F2)": lambda: hom_dgla_slice(F.f2_dgla(), F.f2_dgla(), 4),
            "Hom(F5)": lambda: hom_dgla_slice(F.f5_derivations(), f5_end, 4)}


def structures():
    out = {name: (lambda name=name: F.fixture_dgla(name)) for name in F.FIXTURE_NAMES}
    out.update({
        "F4 cdga": F.f4_cdga, "F5 cdga": F.f5_cdga, "F6 cdga": F.f6_cdga,
        "m_A": lambda: truncated_polynomial_algebra(2, 4).cdga,
        "CE(F2)": lambda: chevalley_eilenberg(F.f2_dgla(), 2),
        "Omega": lambda: _interval_forms(3),
        "F2 (x) m_A": lambda: tensor_nilpotent(F.f2_dgla(),
                                               truncated_polynomial_algebra(2, 3)).dgla,
        "path F5": lambda: path_dgla(F.fixture_dgla("F5"), 2).dgla,
        "Borel of F2": lambda: restrict_to_sub(F.f2_borel()),
        "F3 / 3": lambda: scaled_dgla(F.fixture_dgla("F3"), Q(1, 3)),
        "m_A / 3": lambda: scaled_cdga(truncated_polynomial_algebra(1, 4).cdga, Q(1, 3)),
        # constants 1/3 times constants 3: every product of two constants
        # is integral, though neither factor table is
        "(F2 / 3) (x) (3 m_A)": lambda: tensor_dgla(
            scaled_dgla(F.f2_dgla(), Q(1, 3)),
            scaled_cdga(truncated_polynomial_algebra(1, 3).cdga, Q(3)), (1, 2)).dgla,
    })
    out.update(hom_slices())
    return out


STRUCTURES = structures()
ABELIAN = {"F1", "F6", "Hom(F1)"}


def stored(t):
    return [c for a in range(len(t)) for entry in t.row(a).values() for c in entry.values()]


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_integral_constants_are_stored_as_ints(name):
    s = STRUCTURES[name]()
    constants = stored(s.table)
    assert bool(constants) == (name not in ABELIAN)
    for c in constants:
        assert type(c) is int or (type(c) is Q and c.denominator != 1), (name, c)
    if s.table.integral:        # a promise the tensor table may leave unmade
        assert all(type(c) is int for c in constants)
    if name.endswith("/ 3"):
        assert any(type(c) is Q for c in constants)


@pytest.mark.parametrize("name", sorted(set(STRUCTURES) - ABELIAN))
def test_tables_hand_out_fractions_only(name):
    s = STRUCTURES[name]()
    t, is_dgla = s.table, isinstance(s, Dgla)
    views = s.brackets if is_dgla else s.products
    assert views
    assert all(type(c) is Q for table in views.values() for row in table
               for v in row for c in v)
    pair = s.pair_bracket if is_dgla else s.pair_product
    times = s.bracket if is_dgla else s.multiply
    basis = t.space.basis()
    # every pair with a nonzero constant, or the first 400 of them; the
    # basis vectors have coefficient 1, the path that passes constants on
    # unmultiplied
    pairs = [(a, b) for a in range(len(t)) for b in t.row(a)][:400]
    assert pairs
    for a, b in pairs:
        (m, i), (n, j) = basis[a], basis[b]
        for out in (pair(m, i, n, j),
                    times(t.space.basis_element(m, i), t.space.basis_element(n, j))):
            assert out and all(type(c) is Q for v in out.values() for c in v), (name, a, b)
    x = {deg: [Q(k % 3 - 1) for k in range(t.space.dim(deg))] for deg in t.space.degrees}
    assert all(type(c) is Q for v in times(x, x).values() for c in v)


@pytest.mark.parametrize("name", ["Hom(F2)", "Hom(F5)"])
def test_validate_dgla_on_hom_slices_makes_no_fraction(name):
    g = hom_slices()[name]()
    assert all(row is None for row in g.table._rows)     # rows composed below
    made = [0]
    new = Q.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new.__func__(cls, *args, **kwargs)

    setattr(Q, "__new__", staticmethod(counting))
    try:
        report = validate_dgla(g)
    finally:
        setattr(Q, "__new__", new)
    assert report.ok
    assert made[0] == 0
