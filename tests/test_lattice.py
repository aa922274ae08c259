from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreider.lattice import (
    DivisorClass,
    IntersectionLattice,
    LatticeMismatchError,
    as_fraction,
    hirzebruch_lattice,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def brute_pairing(a: DivisorClass, b: DivisorClass) -> F:
    total = F(0)
    for i in range(a.lattice.rank):
        for j in range(b.lattice.rank):
            total += a.coeffs[i] * a.lattice.gram[i][j] * b.coeffs[j]
    return total


def test_hirzebruch_section_square():
    lat = hirzebruch_lattice(3)
    g = lat.basis_class("G")
    assert g.intersect(g) == -3


def test_zero_class_pairs_to_zero():
    lat = hirzebruch_lattice(2)
    a = lat.zero()
    b = lat.divisor_class((F(7, 3), -4))
    assert a.intersect(b) == 0


def test_bilinear_expansion_matches_brute_force():
    lat = hirzebruch_lattice(1)
    a = lat.divisor_class((2, 3))
    b = lat.divisor_class((1, 1))
    assert a.intersect(b) == 3
    assert a.intersect(b) == brute_pairing(a, b)


def test_self_intersection_worked_value():
    eps = F(1, 10)
    n = 1
    lat = hirzebruch_lattice(n)
    m = lat.divisor_class((2 + eps, 2 * n + 2))
    assert m.self_intersection() == (2 + eps) * (2 * n + 4 - eps * n)
    assert m.self_intersection() == F(1239, 100)


def test_self_intersection_zero_class():
    assert hirzebruch_lattice(5).zero().self_intersection() == 0


def test_self_intersection_adjoint_difference():
    lat = hirzebruch_lattice(3)
    h = lat.divisor_class((1, 3))
    k = lat.divisor_class((-2, -5))
    d = h - k
    assert d.coeffs == (F(3), F(8))
    assert d.self_intersection() == 21
    assert d.self_intersection() == brute_pairing(d, d)


def test_is_integral():
    lat = hirzebruch_lattice(1)
    assert lat.divisor_class((2, -5)).is_integral()
    assert not lat.divisor_class((F(1, 2), 3)).is_integral()
    assert lat.divisor_class((F(4, 2), F(6, 3))).is_integral()


def test_mismatched_lattices_never_coerce():
    a = hirzebruch_lattice(1)
    b = hirzebruch_lattice(1)  # same data, distinct lattice
    x = a.basis_class("G")
    y = b.basis_class("G")
    with pytest.raises(LatticeMismatchError):
        x.intersect(y)
    with pytest.raises(LatticeMismatchError):
        x + y


def test_text_and_mappings_are_not_coefficients():
    # numbers are read from text only by the .surf literal grammar
    with pytest.raises(TypeError):
        as_fraction("1/2")
    with pytest.raises(TypeError):
        hirzebruch_lattice(3).divisor_class({"G": 1})


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        IntersectionLattice(("a", "b"), ((0, 1), (2, 0)))


def test_labels_must_be_distinct():
    with pytest.raises(ValueError):
        IntersectionLattice(("a", "a"), ((0, 0), (0, 0)))


def test_class_length_must_match_rank():
    lat = hirzebruch_lattice(1)
    with pytest.raises(ValueError):
        lat.divisor_class((1, 2, 3))


@given(
    x=st.lists(rationals, min_size=2, max_size=2),
    y=st.lists(rationals, min_size=2, max_size=2),
    n=st.integers(min_value=1, max_value=6),
)
def test_pairing_symmetry(x, y, n):
    lat = hirzebruch_lattice(n)
    a, b = lat.divisor_class(x), lat.divisor_class(y)
    assert a.intersect(b) == b.intersect(a)


@given(
    x=st.lists(rationals, min_size=2, max_size=2),
    y=st.lists(rationals, min_size=2, max_size=2),
    z=st.lists(rationals, min_size=2, max_size=2),
    s=rationals,
    t=rationals,
    n=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=200)
def test_pairing_bilinearity(x, y, z, s, t, n):
    lat = hirzebruch_lattice(n)
    a, b, c = lat.divisor_class(x), lat.divisor_class(y), lat.divisor_class(z)
    assert (s * a + t * b).intersect(c) == s * a.intersect(c) + t * b.intersect(c)


@given(n=st.integers(min_value=1, max_value=200))
def test_hirzebruch_gram_determinant_is_minus_one(n):
    g = hirzebruch_lattice(n).gram
    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == -1
