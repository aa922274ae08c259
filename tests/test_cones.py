from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_is_nef, grid_min_degree, random_class, random_lattice, random_nef_coeffs
from qreider.cones import (
    ConeGenerator,
    DegreeFilter,
    Degrees,
    FiniteGenerators,
    HirzebruchFamily,
    NotNefError,
    cone_degrees,
    is_nef,
    min_degree,
)
from qreider.hirzebruch import hirzebruch_model
from qreider.lattice import IntersectionLattice, hirzebruch_lattice


def family(n):
    lat = hirzebruch_lattice(n)
    return lat, HirzebruchFamily(n, lat)


def nef_lines(m, cone):
    """(text, M.C) for each row of the cone's nef test, read off its integer
    pairing rows over their denominator."""
    return [
        (text, sum(r * x for r, x in zip(row, m.coeffs)) / cone.nef.den)
        for text, row in zip(cone.nef_texts, cone.nef.rows)
    ]


def is_big(m, cone):
    """Bigness as the search certifies it: nef together with positive square."""
    return is_nef(m, cone) and m.self_intersection() > 0


def test_adjoint_difference_not_nef_for_steep_models():
    n = 4
    lat, cone = family(n)
    l = lat.divisor_class((3, 2 * n + 2))
    assert l.intersect(lat.basis_class("G")) == 2 - n
    assert not is_nef(l, cone)


def test_zero_class_is_nef_and_not_big():
    lat, cone = family(2)
    assert is_nef(lat.zero(), cone)
    assert not is_big(lat.zero(), cone)


def test_nef_characterization_against_grid(rng):
    for _ in range(120):
        n = rng.randint(1, 5)
        lat, cone = family(n)
        x = F(rng.randint(-6, 10), rng.randint(1, 4))
        y = F(rng.randint(-6, 20), rng.randint(1, 4))
        m = lat.divisor_class((x, y))
        assert is_nef(m, cone) == (x >= 0 and y >= n * x)
        assert is_nef(m, cone) == grid_is_nef(x, y, n)


def test_worked_decomposition_is_big():
    eps = F(1, 10)
    n = 1
    lat, cone = family(n)
    m = lat.divisor_class((2 + eps, 2 * n + 2))
    assert is_big(m, cone)
    assert m.self_intersection() == F(1239, 100)


def test_fiber_class_not_certified_big():
    lat, cone = family(3)
    f = lat.basis_class("F")
    assert is_nef(f, cone)
    assert not is_big(f, cone)


def test_min_degree_worked_example():
    eps = F(1, 10)
    n = 1
    lat, cone = family(n)
    m = lat.divisor_class((2 + eps, 2 * n + 2))
    g, fib = lat.basis_class("G"), lat.basis_class("F")
    assert m.intersect(g) == F(19, 10)
    assert m.intersect(fib) == F(21, 10)
    assert m.intersect(g + fib) == 4
    assert min_degree(m, cone, DegreeFilter.ALL) == F(19, 10)


def test_min_degree_zero_class():
    lat, cone = family(4)
    assert min_degree(lat.zero(), cone, DegreeFilter.ALL) == 0


def test_min_degree_three_class_reduction_example():
    n = 2
    lat, cone = family(n)
    m = lat.divisor_class((2, 5))
    assert min_degree(m, cone, DegreeFilter.ALL) == 1
    assert min_degree(m, cone, DegreeFilter.ALL) == grid_min_degree(F(2), F(5), n, include_fiber=True)


def test_min_degree_requires_nef():
    lat, cone = family(3)
    with pytest.raises(NotNefError):
        min_degree(lat.divisor_class((3, 8)), cone, DegreeFilter.ALL)


def test_min_degree_reduction_matches_grid_oracle(rng):
    for _ in range(80):
        n = rng.randint(1, 5)
        lat, cone = family(n)
        x, y = random_nef_coeffs(rng, n)
        m = lat.divisor_class((x, y))
        assert min_degree(m, cone, DegreeFilter.ALL) == grid_min_degree(x, y, n, include_fiber=True)
        assert min_degree(m, cone, DegreeFilter.CONTAINING_Z) == grid_min_degree(
            x, y, n, include_fiber=False
        )


def test_filters_shrink_candidates(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        lat, cone = family(n)
        x, y = random_nef_coeffs(rng, n)
        m = lat.divisor_class((x, y))
        d_all = min_degree(m, cone, DegreeFilter.ALL)
        d_p = min_degree(m, cone, DegreeFilter.THROUGH_POINT)
        d_z = min_degree(m, cone, DegreeFilter.CONTAINING_Z)
        assert d_z >= d_p >= d_all


@st.composite
def finite_generators(draw, lat, n):
    """G + nF, through the point and containing Z, and a class aG + bF with
    a, b >= 0 and denominators up to 3, so that its pairing row carries
    denominators and every class nef on the builtin family stays nef."""
    a, b = (draw(st.fractions(min_value=0, max_value=hi, max_denominator=3)) for hi in (3, 9))
    through_p = draw(st.booleans())
    gens = [
        ConeGenerator(lat.divisor_class((1, n)), through_p=True, contains_z=True),
        ConeGenerator(lat.divisor_class((a, b)), through_p, through_p and draw(st.booleans())),
    ]
    return FiniteGenerators(tuple(draw(st.permutations(gens))))


@given(
    q=st.fractions(min_value="1/8", max_value=9, max_denominator=8),
    n=st.integers(min_value=1, max_value=5),
    finite=st.booleans(),
    data=st.data(),
)
@settings(max_examples=120)
def test_min_degree_positively_homogeneous(q, n, finite, data):
    """Also: the minimum over pairing rows is the minimum of the lattice's
    intersections with the filter's classes, on either kind of cone."""
    lat, cone = family(n)
    if finite:
        cone = data.draw(finite_generators(lat, n))
    x = data.draw(st.fractions(min_value=0, max_value=4, max_denominator=6))
    extra = data.draw(st.fractions(min_value=0, max_value=6, max_denominator=6))
    m = lat.divisor_class((x, n * x + extra))
    for filt in DegreeFilter:
        assert min_degree(q * m, cone, filt) == q * min_degree(m, cone, filt)
        assert min_degree(m, cone, filt) == min(m.intersect(c) for c in cone_degrees(cone, filt).classes)


def test_finite_generators_filters():
    lat = hirzebruch_lattice(2)
    gens = FiniteGenerators(
        (
            ConeGenerator(lat.basis_class("G"), through_p=True, contains_z=True),
            ConeGenerator(lat.basis_class("F"), through_p=True),
            ConeGenerator(lat.divisor_class((1, 2))),
        )
    )
    m = lat.divisor_class((1, 4))
    assert is_nef(m, gens)
    assert min_degree(m, gens, DegreeFilter.ALL) == min(2, 1, 6)
    assert min_degree(m, gens, DegreeFilter.THROUGH_POINT) == min(2, 1)
    assert min_degree(m, gens, DegreeFilter.CONTAINING_Z) == 2


def test_finite_generators_empty_filter_is_an_error():
    lat = hirzebruch_lattice(1)
    gens = FiniteGenerators((ConeGenerator(lat.basis_class("F")),))
    with pytest.raises(ValueError):
        min_degree(lat.basis_class("F"), gens, DegreeFilter.THROUGH_POINT)


def test_generator_scheme_flag_requires_point_flag():
    lat = hirzebruch_lattice(1)
    with pytest.raises(ValueError):
        ConeGenerator(lat.basis_class("G"), through_p=False, contains_z=True)


def test_generators_must_share_a_lattice():
    a, b = hirzebruch_lattice(1), hirzebruch_lattice(1)
    with pytest.raises(ValueError):
        FiniteGenerators((ConeGenerator(a.basis_class("G")), ConeGenerator(b.basis_class("G"))))


def test_builtin_family_validates_gram():
    lat = IntersectionLattice(("G", "F"), ((-2, 1), (1, 0)))
    with pytest.raises(ValueError):
        HirzebruchFamily(3, lat)
    HirzebruchFamily(2, lat)  # matching n is accepted


def test_nef_rows_pair_as_the_lattice_intersects(rng):
    """The cones' precomputed rows give the intersection numbers, on random
    lattices (finite generators) and on the builtin family."""
    for _ in range(60):
        lat = random_lattice(rng)
        gens = [random_class(rng, lat) for _ in range(rng.randint(1, 4))]
        cone = FiniteGenerators(tuple(ConeGenerator(g) for g in gens))
        m = random_class(rng, lat)
        assert nef_lines(m, cone) == [(f"M.C_{i} >= 0 (nef)", m.intersect(g)) for i, g in enumerate(gens)]
    for n in range(1, 7):
        lat, cone = family(n)
        m = random_class(rng, lat)
        assert nef_lines(m, cone) == [
            ("M.G >= 0 (nef)", m.intersect(lat.basis_class("G"))),
            ("M.F >= 0 (nef)", m.intersect(lat.basis_class("F"))),
        ]
        assert cone.g_class is cone.g_class  # built once, with the cone


_rationals = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))


@st.composite
def lattices_and_classes(draw):
    rank = draw(st.integers(1, 4))
    gram = [[F(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = draw(st.one_of(st.just(F(0)), _rationals))
    lattice = IntersectionLattice([f"e{i}" for i in range(rank)], gram)
    return lattice.divisor_class([draw(st.one_of(st.just(F(0)), _rationals)) for _ in range(rank)])


@given(lattices_and_classes())
@settings(max_examples=300, deadline=None)
def test_degrees_rows_over_den_are_the_gram_product(c):
    """Rational grams and classes with denominators other than 1, and zeros
    in both, so that some entries cancel or vanish."""
    expected = [sum((g * x for g, x in zip(gram_row, c.coeffs)), F(0)) for gram_row in c.lattice.gram]
    degrees = Degrees("c", (c,))
    (row,) = degrees.rows
    assert [F(v, degrees.den) for v in row] == expected
    assert degrees.den > 0 and all(type(v) is int for v in row)


@st.composite
def cones_and_classes(draw):
    """A class M and a cone on M's lattice: finite generators drawn like M on
    a random rational lattice, or the builtin family with M's coefficients
    drawn near its nef boundary y = n * x."""
    if draw(st.booleans()):
        m = draw(lattices_and_classes())
        coeff = st.one_of(st.just(F(0)), _rationals)
        gens = [[draw(coeff) for _ in range(m.lattice.rank)] for _ in range(draw(st.integers(1, 4)))]
        return m, FiniteGenerators(tuple(ConeGenerator(m.lattice.divisor_class(g)) for g in gens))
    n = draw(st.integers(1, 6))
    lat, cone = family(n)
    x = draw(st.one_of(st.just(F(0)), _rationals))
    y = n * x + draw(st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))))
    return lat.divisor_class((x, y)), cone


@given(cones_and_classes())
@settings(max_examples=300, deadline=None)
def test_is_nef_is_the_conjunction_of_the_nef_lines(case):
    """Both read the cone's one set of nef rows: the test and its trace agree,
    and each line's value is the lattice's intersection number."""
    m, cone = case
    values = [value for _, value in nef_lines(m, cone)]
    assert is_nef(m, cone) == all(value >= 0 for value in values)
    assert values == [m.intersect(c) for c in cone.nef.classes]


@pytest.mark.parametrize("n", [True, 2.0, F(2)])
def test_the_ruled_surface_builders_take_an_int_n(n):
    """A bool, float or Fraction n is a TypeError, neither truncated nor read
    deep inside the model."""
    with pytest.raises(TypeError, match="not an integer"):
        hirzebruch_lattice(n)
    with pytest.raises(TypeError, match="not an integer"):
        hirzebruch_model(n)
    with pytest.raises(TypeError, match="not an integer"):
        HirzebruchFamily(n, hirzebruch_lattice(1))
