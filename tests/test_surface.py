from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import round_down
from qreider.hirzebruch import hirzebruch_model
from qreider.lattice import IntersectionLattice
from qreider.search import mu_weights
from qreider.surface import (
    Curve,
    PointSpec,
    SurfaceModel,
    TangentSpec,
    UnknownCurveError,
    UnknownPointError,
    UnknownTangentError,
    blow_up,
    verify_adjoint_blowup_identity,
)

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=10)


def two_curve_model(gram=((0, 1), (1, 0)), mults_a=1, mults_b=1):
    lat = IntersectionLattice(("a", "b"), gram)
    curves = {
        "C1": Curve("C1", lat.basis_class("a")),
        "C2": Curve("C2", lat.basis_class("b")),
    }
    points = {"p": PointSpec("p", {"C1": mults_a, "C2": mults_b})}
    return SurfaceModel(lat, lat.divisor_class((-2, -2)), F(1), curves, points, {})


# ---------------------------------------------------------------------------
# rounding


def test_round_up_worked_example():
    model = hirzebruch_model(1)
    d = model.divisor({"G": F(21, 10), "F": 4})
    assert d.round_up() == model.divisor({"G": 3, "F": 4})


def test_rounding_fixes_integral_divisors():
    model = hirzebruch_model(2)
    d = model.divisor({"G": -2, "F": 7})
    assert d.round_up() == d
    assert round_down(d) == d
    assert d - round_down(d) == model.divisor()


def test_rounding_negative_coefficient():
    model = hirzebruch_model(1)
    d = model.divisor({"G": F(-3, 2)})
    q = F(-3, 2)
    assert d.round_up().coeff("G") == -(-q.numerator // q.denominator) == -1
    assert round_down(d).coeff("G") == q.numerator // q.denominator == -2
    assert (d - round_down(d)).coeff("G") == F(1, 2)


@given(coeffs=st.lists(rationals, min_size=2, max_size=2))
def test_rounding_identities(coeffs):
    model = hirzebruch_model(1)
    d = model.divisor({"G": coeffs[0], "F": coeffs[1]})
    assert d.round_up() == -round_down(-d)
    for name in ("G", "F"):
        assert 0 <= (d - round_down(d)).coeff(name) < 1
        assert round_down(d).coeff(name) <= d.coeff(name) <= d.round_up().coeff(name)


# ---------------------------------------------------------------------------
# classes and multiplicities


def test_class_of_boundary():
    model = hirzebruch_model(4)
    b = model.divisor({"G": 1 - F(1, 10)})
    assert b.divisor_class() == F(9, 10) * model.curves["G"].cls


def test_class_of_empty_divisor():
    model = hirzebruch_model(2)
    assert model.divisor().divisor_class() == model.lattice.zero()


def test_coefficients_add():
    model = hirzebruch_model(1)
    d = model.divisor({"G": F(1, 2)}) + model.divisor({"G": F(1, 2)})
    assert d == model.divisor({"G": 1})
    assert d.divisor_class() == model.curves["G"].cls


def test_ord_at_boundary_on_section():
    model = hirzebruch_model(3)
    b = model.divisor({"G": 1 - F(1, 10)})
    assert b.ord_at("pG") == F(9, 10)


def test_ord_at_off_support():
    model = hirzebruch_model(3)
    b = model.divisor({"G": F(1, 2)})
    assert b.ord_at("qF") == 0


def test_ord_at_weighted_sum():
    model = two_curve_model(mults_a=2, mults_b=1)
    d = model.divisor({"C1": F(1, 2), "C2": F(1, 3)})
    assert d.ord_at("p") == F(4, 3)


def tangent_orders(divisor, tangent):
    """The divisor's orders at the tangent's point and at its infinitely-near
    point, read through the tangent goal's weights, and their sum."""
    weights = mu_weights(divisor.surface, "tangent", (tangent,))
    mu_p, mu_V = (sum((v * w(c) for c, v in divisor.coeffs.items()), F(0)) for w in weights)
    return mu_p, mu_V, mu_p + mu_V


def test_tangent_weights_section_direction():
    eps = F(1, 10)
    model = hirzebruch_model(1)
    b = model.divisor({"G": 1 - eps})
    assert tangent_orders(b, "vG") == (1 - eps, 1 - eps, 2 * (1 - eps))


def test_tangent_weights_zero_divisor():
    model = hirzebruch_model(1)
    assert tangent_orders(model.divisor(), "vG") == (0, 0, 0)


def test_tangent_weights_node_missing_direction():
    lat = IntersectionLattice(("a",), ((1,),))
    curves = {"N": Curve("N", lat.basis_class("a"))}
    points = {"p": PointSpec("p", {"N": 2})}
    tangents = {"v": TangentSpec("v", "p", {"N": 0}, {"N": False})}
    model = SurfaceModel(lat, lat.zero(), 1, curves, points, tangents)
    d = model.divisor({"N": 1})
    assert tangent_orders(d, "v") == (2, 0, 2)


def test_point_mu_weights_are_the_points_multiplicities_in_order():
    model = two_curve_model(mults_a=2, mults_b=1)
    (weight,) = mu_weights(model, "free", ("p",))
    assert [weight(c) for c in ("C1", "C2")] == [2, 1]
    assert [[w(c) for c in ("C2", "C1")] for w in mu_weights(model, "separate", ("p", "p"))] == [[1, 2], [1, 2]]
    assert mu_weights(model, "very-ample", ()) == ()
    with pytest.raises(UnknownPointError, match="no point named 'q'"):
        mu_weights(model, "free", ("q",))
    with pytest.raises(UnknownTangentError, match="no tangent named 'v'"):
        mu_weights(model, "tangent", ("v",))


@pytest.mark.parametrize("m", [1.9, "1_0", True, F(1), None])
def test_point_and_tangent_multiplicities_are_ints(m):
    """PointSpec('p', {'G': 1.9}).mults was {'G': 1}, and '1_0' read as 10."""
    with pytest.raises(TypeError, match="not an integer"):
        PointSpec("p", {"G": m})
    with pytest.raises(TypeError, match="not an integer"):
        TangentSpec("v", "p", {"G": m})


@given(x=rationals, y=rationals, c1=rationals, c2=rationals)
@settings(max_examples=150)
def test_ord_linear(x, y, c1, c2):
    model = two_curve_model(mults_a=2, mults_b=1)
    d1 = model.divisor({"C1": c1})
    d2 = model.divisor({"C2": c2})
    combo = x * d1 + y * d2
    assert combo.ord_at("p") == x * d1.ord_at("p") + y * d2.ord_at("p")


@given(
    b1=st.fractions(min_value=0, max_value=3, max_denominator=8),
    b2=st.fractions(min_value=0, max_value=3, max_denominator=8),
    m1=st.integers(min_value=1, max_value=3),
    m2=st.integers(min_value=0, max_value=3),
    v1=st.integers(min_value=0, max_value=3),
)
def test_tangential_order_sandwich(b1, b2, m1, m2, v1):
    lat = IntersectionLattice(("a", "b"), ((0, 1), (1, 0)))
    curves = {"C1": Curve("C1", lat.basis_class("a")), "C2": Curve("C2", lat.basis_class("b"))}
    points = {"p": PointSpec("p", {"C1": m1, "C2": m2})}
    tangents = {"v": TangentSpec("v", "p", {"C1": min(v1, m1), "C2": 0}, {})}
    model = SurfaceModel(lat, lat.zero(), 1, curves, points, tangents)
    d = model.divisor({"C1": b1, "C2": b2})
    mu_p, _, mu_v = tangent_orders(d, "v")
    assert mu_p <= mu_v <= 2 * mu_p


# ---------------------------------------------------------------------------
# blow-up


def test_pullback_off_center_has_no_exceptional_part():
    model = hirzebruch_model(2)
    m = model.divisor({"G": 3, "F": 5})
    _, pb = blow_up(model, "qF")  # qF lies only on F
    pulled = pb.pull(model.divisor({"G": 3}))
    assert pulled.coeff(pb.exceptional) == 0


def test_pullback_exceptional_coefficient_is_multiplicity():
    model = hirzebruch_model(3)
    b = model.divisor({"G": F(9, 10)})
    _, pb = blow_up(model, "pG")
    assert pb.pull(b).coeff(pb.exceptional) == F(9, 10)


def test_blow_up_preserves_pairings(rng):
    for _ in range(60):
        n = rng.randint(1, 4)
        model = hirzebruch_model(n)
        target, pb = blow_up(model, "pFG")
        a = model.lattice.divisor_class(
            (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))
        )
        b = model.lattice.divisor_class((rng.randint(-5, 5), rng.randint(-5, 5)))
        assert pb.pull_class(a).intersect(pb.pull_class(b)) == a.intersect(b)
        assert pb.pull_class(a).intersect(pb.exceptional_class()) == 0
        assert pb.exceptional_class().self_intersection() == -1


def test_strict_transform_self_intersection_drops_by_mult_square():
    model = two_curve_model(mults_a=2, mults_b=1, gram=((3, 1), (1, 0)))
    target, pb = blow_up(model, "p")
    c1 = target.curves["C1"].cls
    assert c1.self_intersection() == 3 - 2 * 2
    c2 = target.curves["C2"].cls
    assert c2.self_intersection() == 0 - 1 * 1


def test_blow_up_canonical_rule():
    model = hirzebruch_model(2)
    target, pb = blow_up(model, "pFG")
    assert target.canonical == pb.pull_class(model.canonical) + pb.exceptional_class()


# ---------------------------------------------------------------------------
# adjoint identity


def test_adjoint_identity_trivial_boundary():
    model = hirzebruch_model(1)
    b = model.divisor()
    m = model.divisor({"G": 2, "F": 3})
    assert verify_adjoint_blowup_identity(model, b, m, "pFG")


def test_adjoint_identity_worked_decomposition():
    eps = F(1, 10)
    for n in (1, 2, 3):
        model = hirzebruch_model(n)
        b = model.divisor({"G": 1 - eps})
        m = model.divisor({"G": 2 + eps, "F": 2 * n + 2})
        assert verify_adjoint_blowup_identity(model, b, m, "pG")
        assert verify_adjoint_blowup_identity(model, b, m, "pFG")
        assert verify_adjoint_blowup_identity(model, b, m, "q")


def test_adjoint_identity_rejects_non_integral_total():
    model = hirzebruch_model(1)
    b = model.divisor({"G": F(1, 2)})
    m = model.divisor({"G": F(1, 3)})
    with pytest.raises(ValueError):
        verify_adjoint_blowup_identity(model, b, m, "pG")


def test_adjoint_identity_rejects_bad_boundary():
    model = hirzebruch_model(1)
    b = model.divisor({"G": F(3, 2)})
    m = model.divisor({"G": F(1, 2)})
    with pytest.raises(ValueError):
        verify_adjoint_blowup_identity(model, b, m, "pG")


@given(
    num1=st.integers(min_value=0, max_value=5),
    num2=st.integers(min_value=0, max_value=5),
    l1=st.integers(min_value=-3, max_value=4),
    l2=st.integers(min_value=-3, max_value=4),
    m1=st.integers(min_value=0, max_value=3),
    m2=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300)
def test_adjoint_identity_holds_on_random_configurations(num1, num2, l1, l2, m1, m2):
    model = two_curve_model(mults_a=max(m1, 1), mults_b=m2)
    b = model.divisor({"C1": F(num1, 6), "C2": F(num2, 6)})
    total = model.divisor({"C1": l1, "C2": l2})
    m = total - b
    assert verify_adjoint_blowup_identity(model, b, m, "p")


# ---------------------------------------------------------------------------
# model validation


def test_tangent_order_cannot_exceed_point_multiplicity():
    lat = IntersectionLattice(("a",), ((0,),))
    curves = {"C": Curve("C", lat.basis_class("a"))}
    points = {"p": PointSpec("p", {"C": 1})}
    tangents = {"v": TangentSpec("v", "p", {"C": 2}, {})}
    with pytest.raises(ValueError):
        SurfaceModel(lat, lat.zero(), 1, curves, points, tangents)


def test_tangent_cone_membership_needs_incidence():
    lat = IntersectionLattice(("a",), ((0,),))
    curves = {"C": Curve("C", lat.basis_class("a"))}
    points = {"p": PointSpec("p", {})}
    tangents = {"v": TangentSpec("v", "p", {}, {"C": True})}
    with pytest.raises(ValueError):
        SurfaceModel(lat, lat.zero(), 1, curves, points, tangents)


def test_unknown_references_raise():
    model = hirzebruch_model(1)
    with pytest.raises(UnknownCurveError):
        model.divisor({"X": 1})
    with pytest.raises(UnknownPointError):
        model.divisor().ord_at("nowhere")
