import contextlib
import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreider import criteria
from qreider import hirzebruch as hz
from qreider.cones import ConeGenerator, DegreeFilter, FiniteGenerators, HirzebruchFamily, degree_classes, is_big
from qreider.criteria import BetaWitness, CriterionVerdict
from qreider.search import (
    AffineExpr,
    Degrees,
    FamilyViolation,
    Goal,
    MultiGoal,
    Param,
    ParamFamily,
    SearchReport,
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


VIOLATION_DOC = """surface
basis = G F
gram = [[-3, 1], [1, 0]]
K = -2G - 5F
chi_O = 1

curves
G = G
F = F

cone
hirzebruch = 3

points
p = G:1 F:1

params
e = (0, 1/2)
f = (0, 1)

divisors
L = 3G + 10F
B = (6e - 1/2)G + (1 - 4f)F
M = L - B

queries
search goal=free point=p B=B M=M depth=4
"""

VIOLATION_NOTES = [
    "e = 3/4 outside (0, 1/2)",
    "f = 2 outside (0, 1)",
    "boundary coefficients leave [0, 1) at {'e': Fraction(1, 4), 'f': Fraction(1, 8)}",
    "boundary coefficients leave [0, 1) at {'e': Fraction(1, 4), 'f': Fraction(1, 16)}",
    "boundary coefficients leave [0, 1) at {'e': Fraction(1, 4), 'f': Fraction(1, 32)}",
    "boundary coefficients leave [0, 1) at {'e': Fraction(1, 4), 'f': Fraction(1, 64)}",
]

VIOLATION_TEXT = """report for <stdin>
== search goal=free point=p B=B M=M depth=4
   status: established   rule: freeness/degree-bound
   search: found=True attempts=7 at e = 1/8 (approx 0.125), f = 1/16 (approx 0.0625)
   witness: beta2 = 5 [at-p]; beta1 = 1 [at-p]
   M.G >= 0 (nef): 1 >= 0  [ok]
   M.F >= 0 (nef): 11/4 (approx 2.75) >= 0  [ok]
   M^2 > 0 (big): 451/16 (approx 28.1875) > 0  [ok]
   M^2 > beta2^2: 451/16 (approx 28.1875) > 25  [ok]
   min degree >= beta1: 1 >= 1  [ok]
   beta2 >= 2 - mu: 5 >= 1  [ok]
   beta1 >= min(2 - mu, beta2/(beta2 - (1 - mu))): 1 >= 1  [ok]
""" + "".join(f"   note: {note}\n" for note in VIOLATION_NOTES + ["witness found by search"])


def _json_q(num, den=1):
    out = {"num": num, "den": den}
    if den != 1:
        out["approx"] = num / den
    return out


def _json_line(text, lhs, rel, rhs):
    return {"text": text, "lhs": _json_q(*lhs), "rel": rel, "rhs": _json_q(*rhs), "holds": True}


VIOLATION_JSON = {
    "query": "search goal=free point=p B=B M=M depth=4",
    "status": "established",
    "rule": "freeness/degree-bound",
    "trace": [
        _json_line("M.G >= 0 (nef)", (1,), ">=", (0,)),
        _json_line("M.F >= 0 (nef)", (11, 4), ">=", (0,)),
        _json_line("M^2 > 0 (big)", (451, 16), ">", (0,)),
        _json_line("M^2 > beta2^2", (451, 16), ">", (25,)),
        _json_line("min degree >= beta1", (1,), ">=", (1,)),
        _json_line("beta2 >= 2 - mu", (5,), ">=", (1,)),
        _json_line("beta1 >= min(2 - mu, beta2/(beta2 - (1 - mu)))", (1,), ">=", (1,)),
    ],
    "witness": {"beta2": [_json_q(5)], "beta1": [_json_q(1)], "beta2_roles": ["at-p"], "beta1_roles": ["at-p"]},
    "found": True,
    "params": {"e": _json_q(1, 8), "f": _json_q(1, 16)},
    "attempts": 7,
    "notes": VIOLATION_NOTES + ["witness found by search"],
}


def test_search_notes_pin_the_family_violation_texts(monkeypatch, capsys):
    """Two schedule values outside the domain (both parameters out, then only
    the second), then the e = 1/4 candidates, whose boundary coefficient on G
    is 1, then a success.  The domain is checked in parameter order, before
    the boundary.  A round-up that misses the target cannot occur here: with
    B in [0, 1) and B + M integral, the round-up of M is B + M."""
    import io
    import json

    from qreider import search
    from qreider.cli import main

    real = search.dyadic_schedule

    def schedule(params, depth):
        yield {"e": F(3, 4), "f": F(2)}
        yield {"e": F(1, 8), "f": F(2)}
        yield from real(params, depth)

    monkeypatch.setattr(search, "dyadic_schedule", schedule)
    monkeypatch.setattr("sys.stdin", io.StringIO(VIOLATION_DOC))
    assert main(["check", "-"]) == 0
    assert capsys.readouterr().out == VIOLATION_TEXT

    monkeypatch.setattr("sys.stdin", io.StringIO(VIOLATION_DOC))
    assert main(["check", "-", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (result,) = payload["queries"]
    del result["elapsed_ms"]
    assert result == VIOLATION_JSON


def test_instantiate_reports_each_violation_in_order():
    model = hz.hirzebruch_model(3)
    family = ParamFamily(
        surface=model,
        params=(Param("e", 0, F(1, 2)), Param("f")),
        boundary={"G": AffineExpr(F(-1, 2), {"e": 6}), "F": AffineExpr(1, {"f": -4})},
        positive={"G": AffineExpr(F(7, 2), {"e": -6}), "F": AffineExpr(9, {"f": 4})},
    )
    with pytest.raises(KeyError, match="no value for parameter 'f'"):
        family.instantiate({"e": F(1, 8)})
    with pytest.raises(FamilyViolation) as exc:
        family.instantiate({"e": F(3, 4)})  # e is checked, and fails, before f is looked up
    assert str(exc.value) == "e = 3/4 outside (0, 1/2)"
    with pytest.raises(FamilyViolation) as exc:
        family.instantiate({"e": F(1, 2), "f": F(1, 2)})
    assert str(exc.value) == "e = 1/2 outside (0, 1/2)"
    with pytest.raises(FamilyViolation) as exc:
        family.instantiate({"e": F(1, 16), "f": F(1, 2)})
    assert str(exc.value) == "boundary coefficients leave [0, 1) at {'e': Fraction(1, 16), 'f': Fraction(1, 2)}"
    b, m = family.instantiate({"e": F(1, 8), "f": F(1, 16)})
    assert b == model.divisor({"G": F(1, 4), "F": F(3, 4)})
    assert m == model.divisor({"G": F(11, 4), "F": F(37, 4)})


# ---------------------------------------------------------------------------
# the candidate loop against a reference that builds and evaluates every candidate


def reference_instantiate(family, values):
    """ParamFamily.instantiate as it was before the family compiled its forms."""
    for p in family.params:
        if p.name not in values:
            raise KeyError(f"no value for parameter {p.name!r}")
        if not p.contains(values[p.name]):
            raise FamilyViolation(f"{p.name} = {values[p.name]} outside ({p.lo}, {p.hi})")
    b = family.surface.divisor({c: e.evaluate(values) for c, e in family.boundary.items()})
    m = family.surface.divisor({c: e.evaluate(values) for c, e in family.positive.items()})
    if not b.is_boundary():
        raise FamilyViolation(f"boundary coefficients leave [0, 1) at {dict(values)}")
    if m.round_up() != family.target:
        raise FamilyViolation(f"round-up of the positive part misses the target at {dict(values)}")
    return b, m


def reference_search(family, goal, depth):
    """search_params as it was before candidates were decided on the forms:
    every admitted candidate is built and handed to the goal."""
    attempts = 0
    notes = []
    for values in dyadic_schedule(family.params, depth):
        attempts += 1
        try:
            boundary, positive = reference_instantiate(family, values)
        except FamilyViolation as exc:
            notes.append(str(exc))
            continue
        verdict = goal.evaluate(boundary, positive, values)
        if verdict.established:
            return SearchReport(True, values, verdict, attempts, tuple(notes))
    return SearchReport(False, {}, None, attempts, tuple(notes))


_small = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 8]))
_PARAM_NAMES = ("e", "f")
# goal kind -> (marked data, degree filter of each minimal degree)
_GOAL_SHAPES = {
    "free": ((hz.POINT_ON_G,), (DegreeFilter.THROUGH_POINT,)),
    "separate": ((hz.POINT_ON_F, hz.POINT_GENERIC), (DegreeFilter.ALL,) * 3),
    "tangent": ((hz.TANGENT_G,), (DegreeFilter.THROUGH_POINT, DegreeFilter.CONTAINING_Z)),
    "very-ample": ((), (DegreeFilter.ALL,)),
}


@st.composite
def cones_on(draw, n, lattice):
    if draw(st.booleans()):
        return HirzebruchFamily(n, lattice)
    g, f, corner = (lattice.divisor_class(v) for v in ((1, 0), (0, 1), (1, n)))
    gens = [ConeGenerator(corner, through_p=True, contains_z=True)]
    for cls in (g, f, lattice.divisor_class((draw(st.integers(0, 3)), draw(st.integers(-2, 3 * n))))):
        if draw(st.booleans()):
            through_p = draw(st.booleans())
            gens.append(ConeGenerator(cls, through_p, through_p and draw(st.booleans())))
    return FiniteGenerators(tuple(draw(st.permutations(gens))))


@st.composite
def goals_on(draw, n, lattice):
    kind = draw(st.sampled_from(sorted(_GOAL_SHAPES)))
    at, filters = _GOAL_SHAPES[kind]
    cone = draw(cones_on(n, lattice))
    degrees = tuple(Degrees(f"filter {f.value}", degree_classes(cone, f)) for f in filters)
    witness = None
    if kind in ("free", "very-ample") and draw(st.booleans()):
        witness = BetaWitness.single(3, F(3, 2), role="at-p")
    elif kind == "separate" and draw(st.booleans()):
        witness = lambda v: BetaWitness.pair(F(3, 2), F(3, 2), 1 + v["e"] / 2, 1 + v["e"] / 2)  # noqa: E731
    return Goal(kind, cone, at, degrees, witness, label=draw(st.sampled_from(["", "part"])))


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 6))
    model = hz.hirzebruch_model(n)
    params = []
    for name in _PARAM_NAMES[: draw(st.integers(1, 2))]:
        lo = draw(st.sampled_from([F(0), F(1, 64)]))
        params.append(Param(name, lo, draw(st.sampled_from([F(1), F(1, 2), F(1, 8)]))))
    a = draw(st.integers(0, 3))
    target = {"G": a, "F": max(0, n * a + draw(st.integers(-2, 4)))}  # M.G near 0, so nefness turns on e and f
    boundary = {}
    for curve in ("G", "F"):
        if draw(st.booleans()):
            terms = {p.name: draw(_small) for p in params if draw(st.booleans())}
            boundary[curve] = AffineExpr(draw(st.sampled_from([F(0), F(1, 2), F(9, 10), F(1)])), terms)
    positive = {c: AffineExpr.constant(t) - boundary.get(c, AffineExpr()) for c, t in target.items()}
    family = ParamFamily(model, tuple(params), boundary, positive)
    if draw(st.booleans()):
        goal = draw(goals_on(n, model.lattice))
    else:
        goal = MultiGoal((draw(goals_on(n, model.lattice)), draw(goals_on(n, model.lattice))), rule="both")
    return family, goal, draw(st.integers(2, 7))


@contextlib.contextmanager
def stubbed_checkers(stub, k):
    """With ``stub`` set, every goal checker is replaced by a pure one that
    records its arguments and establishes when their hash is a multiple of k
    (never if k is None), so the calls show which candidates reach a checker."""
    calls = []
    if not stub:
        yield calls
        return

    def checker(*args):
        calls.append(args)
        return CriterionVerdict(k is not None and hash(args) % k == 0, "stub", ())

    stubs = dict.fromkeys(("freeness_at", "separation", "tangent_separation", "very_ampleness"), checker)
    with mock.patch.multiple(criteria, **stubs):
        yield calls


@given(search_cases(), st.booleans(), st.one_of(st.none(), st.integers(1, 6)))
@settings(max_examples=200, deadline=None)
def test_search_matches_the_build_every_candidate_reference(case, stub, k):
    family, goal, depth = case
    with stubbed_checkers(stub, k) as expected_calls:
        expected = reference_search(family, goal, depth)
    with stubbed_checkers(stub, k) as calls:
        report = search_params(family, goal, depth)
    if len(goal.cones) == 1:
        # with two cones, the reference also runs the checker of a part whose
        # cone passes M when the other cone turns it down
        assert calls == expected_calls
    assert report.found == expected.found
    assert report.params == expected.params
    assert report.attempts == expected.attempts
    assert report.notes == expected.notes
    assert report.verdict == expected.verdict  # rule, trace, witness and note


# ---------------------------------------------------------------------------
# the public adapters against the search's compiled path


def compiled_path(family, goal, values):
    """The search at one candidate: its report when the schedule offers only
    ``values``, and every verdict the goal's compiled decider returned."""
    from qreider import search

    verdicts = []
    real = type(goal)._decider

    def recording(self, surface, curves):
        decide = real(self, surface, curves)
        if self is not goal:
            return decide

        def recorded(*candidate):
            verdicts.append(decide(*candidate))
            return verdicts[-1]

        return recorded

    with mock.patch.object(search, "dyadic_schedule", lambda params, depth: iter([dict(values)])):
        with mock.patch.object(type(goal), "_decider", recording):
            report = search_params(family, goal)
    return report, verdicts


@given(search_cases())
@settings(max_examples=100, deadline=None)
def test_evaluate_at_built_divisors_matches_the_search_path(case):
    """At every schedule candidate that passes the family invariants, the
    search hands the goal's decider exactly the candidates whose M is nef and
    big on every cone, and there its verdict is the one ``evaluate`` gives on
    the instantiated divisors (for a Goal and for a MultiGoal alike)."""
    family, goal, depth = case
    reached = 0
    for values in dyadic_schedule(family.params, depth):
        try:
            boundary, positive = family.instantiate(values)
        except FamilyViolation:
            continue
        report, verdicts = compiled_path(family, goal, values)
        if not all(is_big(positive.divisor_class(), cone) for cone in goal.cones):
            assert verdicts == [] and not report.found
            continue
        assert verdicts == [goal.evaluate(boundary, positive, values)]
        assert report.found == verdicts[0].established
        reached += 1
        if reached == 4:
            break


def test_the_claim_search_builds_no_divisor():
    """The n = 12, part 2 claim walks candidates turned down on the nef test
    and candidates that reach a checker; none goes through the public adapters."""

    def spy(owner, name):
        return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))

    with spy(ParamFamily, "instantiate") as instantiate, spy(Goal, "evaluate") as evaluate:
        with spy(MultiGoal, "evaluate") as multi_evaluate:
            report = hirzebruch_claim(12, 2)
    assert report.ok
    assert [chk.report.attempts for chk in report.checks] == [2, 25, 3, 25, 2, 3]
    instantiate.assert_not_called()
    evaluate.assert_not_called()
    multi_evaluate.assert_not_called()
