from fractions import Fraction as F

import pytest

from qreider import hirzebruch as hz
from qreider.cones import DegreeFilter, HirzebruchFamily, degree_classes
from qreider.criteria import BetaWitness
from qreider.search import (
    AffineExpr,
    Degrees,
    FamilyViolation,
    Goal,
    Param,
    ParamFamily,
    dyadic_schedule,
    hirzebruch_claim,
    search_params,
)


def section_family(n, m=None, model=None):
    """Boundary (1-eps)G with positive part (2+eps)G + (m+n+2)F."""
    m = n if m is None else m
    model = model or hz.hirzebruch_model(n)
    return model, ParamFamily(
        surface=model,
        params=(Param("eps"),),
        boundary={"G": AffineExpr(1, {"eps": -1})},
        positive={"G": AffineExpr(2, {"eps": 1}), "F": AffineExpr.constant(m + n + 2)},
    )


def all_curves(cone):
    return Degrees("cone filter all", degree_classes(cone, DegreeFilter.ALL))


def test_affine_expr_arithmetic():
    e = AffineExpr.parameter("t")
    expr = 2 * (AffineExpr.constant(1) - e) + AffineExpr.constant(F(1, 2))
    assert expr.evaluate({"t": F(1, 4)}) == 2 * F(3, 4) + F(1, 2)
    with pytest.raises(ValueError):
        _ = e * e


def test_family_target_is_the_constant_sum():
    model, family = section_family(2)
    assert family.target == model.divisor({"G": 3, "F": 6})


def test_family_rejects_parameter_dependent_target():
    model = hz.hirzebruch_model(1)
    with pytest.raises(ValueError):
        ParamFamily(
            surface=model,
            params=(Param("eps"),),
            boundary={"G": AffineExpr(1, {"eps": -1})},
            positive={"G": AffineExpr.constant(2)},
        )


def test_family_rejects_non_integral_target():
    model = hz.hirzebruch_model(1)
    with pytest.raises(ValueError):
        ParamFamily(
            surface=model,
            params=(),
            boundary={"G": AffineExpr.constant(F(1, 4))},
            positive={"G": AffineExpr.constant(F(1, 4))},
        )


def test_family_instantiation_checks_domain_and_boundary_range():
    model, family = section_family(1)
    with pytest.raises(FamilyViolation):
        family.instantiate({"eps": F(3, 2)})
    b, m = family.instantiate({"eps": F(1, 8)})
    assert b.coeff("G") == F(7, 8)
    assert m.round_up() == family.target


def test_dyadic_schedule_is_nested_and_in_domain():
    params = (Param("a"), Param("b"))
    seen = list(dyadic_schedule(params, depth=4))
    assert seen  # non-empty
    prev_a = None
    for values in seen:
        assert 0 < values["a"] < 1 and values["a"] <= F(1, 4)
        assert 0 < values["b"] < 1
        assert values["b"] <= values["a"] / 2
    # first candidate follows the coupling order
    assert seen[0] == {"a": F(1, 4), "b": F(1, 8)}


def test_freeness_search_succeeds_early_with_the_stated_witness():
    n = 1
    model, family = section_family(n)
    cone = HirzebruchFamily(n, model.lattice)
    goal = Goal(
        "free",
        cone,
        (hz.POINT_GENERIC,),
        (all_curves(cone),),
        BetaWitness.single(3, F(3, 2), role="at-p"),
    )
    report = search_params(family, goal, depth=24)
    assert report.found
    eps = report.params["eps"]
    assert eps.denominator & (eps.denominator - 1) == 0  # dyadic
    assert eps <= F(1, 4) and eps >= F(1, 64)  # succeeds by k = 6
    m2 = (2 + eps) * (2 * n + 4 - eps * n)
    assert m2 > 9
    assert report.verdict.witness == BetaWitness.single(3, F(3, 2), role="at-p")


def test_degenerate_family_reports_zero_attempts():
    model = hz.hirzebruch_model(1)
    family = ParamFamily(
        surface=model,
        params=(Param("eps", F(1, 2), F(1, 2)),),  # empty open interval
        boundary={"G": AffineExpr(1, {"eps": -1})},
        positive={"G": AffineExpr(2, {"eps": 1}), "F": AffineExpr.constant(4)},
    )
    cone = HirzebruchFamily(1, model.lattice)
    goal = Goal("free", cone, (hz.POINT_GENERIC,), (all_curves(cone),))
    report = search_params(family, goal)
    assert not report.found
    assert report.attempts == 0


def test_two_parameter_separation_search():
    n = 1
    model = hz.hirzebruch_model(n)
    cone = HirzebruchFamily(n, model.lattice)
    family = ParamFamily(
        surface=model,
        params=(Param("eps"), Param("alpha")),
        boundary={"G": AffineExpr(1, {"eps": -1}), "F": AffineExpr(1, {"alpha": -1})},
        positive={"G": AffineExpr(2, {"eps": 1}), "F": AffineExpr(2 * n + 1, {"alpha": 1})},
    )
    fam_off = Degrees("off the section", (model.curves["F"].cls, model.lattice.divisor_class((1, n))))
    goal = Goal(
        "separate",
        cone,
        (hz.POINT_ON_F, hz.POINT_ON_F2),
        (fam_off, fam_off, fam_off),
        witness=lambda v: BetaWitness.pair(
            F(3, 2), F(3, 2), 1 + v["eps"] / 2, 1 + v["eps"] / 2
        ),
    )
    report = search_params(family, goal)
    assert report.found
    eps, alpha = report.params["eps"], report.params["alpha"]
    assert alpha <= eps / 2  # the coupling order
    # the coupling constraint: 1 + eps/2 bounds the degree-bound minimum at mu = 1 - alpha
    assert 1 + eps / 2 >= F(3, 2) / (F(3, 2) - alpha)


def test_search_reports_replay():
    n = 2
    model, family = section_family(n)
    cone = HirzebruchFamily(n, model.lattice)
    goal = Goal("free", cone, (hz.POINT_ON_G,), (all_curves(cone),))
    report = search_params(family, goal)
    assert report.found
    b, m = family.instantiate(report.params)
    replay = goal.evaluate(b, m, report.params)
    assert replay.established
    assert replay.trace == report.verdict.trace


def test_monotone_depth_nesting():
    n = 6
    model, family = section_family(n)
    cone = HirzebruchFamily(n, model.lattice)
    goal = Goal(
        "free",
        cone,
        (hz.POINT_ON_G,),
        (all_curves(cone),),
        BetaWitness.single(3, F(3, 2), role="at-p"),
    )
    first = None
    for depth in (6, 8, 12, 24):
        report = search_params(family, goal, depth=depth)
        assert report.found
        if first is None:
            first = report.params
        assert report.params == first  # deeper schedules keep the first success


@pytest.mark.parametrize("n", [1, 2, 3])
def test_claim_part_one(n):
    report = hirzebruch_claim(n, 1)
    assert report.ok
    assert report.chi == n + 2
    assert report.h_dot_g == 0
    assert report.h_dot_f == 1
    assert report.l_dot_g == 2 - n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_claim_part_two(n):
    report = hirzebruch_claim(n, 2)
    assert report.ok
    assert report.m == n + 1
    assert report.l_dot_g == 3 - n
    assert report.l_nef == (n <= 3)
    names = [c.name for c in report.checks]
    assert "tangent separation at the fiber-section point" in names


def test_claim_part_two_with_larger_degree():
    report = hirzebruch_claim(2, 2, m=5)
    assert report.ok
    assert report.chi == 2 * 5 - 2 + 2


def test_claim_argument_validation():
    with pytest.raises(ValueError):
        hirzebruch_claim(0, 1)
    with pytest.raises(ValueError):
        hirzebruch_claim(1, 3)
    with pytest.raises(ValueError):
        hirzebruch_claim(2, 2, m=2)
    with pytest.raises(ValueError):
        hirzebruch_claim(2, 1, m=3)
