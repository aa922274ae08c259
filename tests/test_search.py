import contextlib
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreider import criteria
from qreider import hirzebruch as hz
from qreider import search
from qreider.cones import ConeGenerator, DegreeFilter, Degrees, FiniteGenerators, HirzebruchFamily, cone_degrees
from qreider.criteria import BetaWitness, CriterionVerdict, TraceLine
from qreider.lattice import hirzebruch_lattice
from qreider.search import (
    DEFAULT_DEPTH,
    MAX_DEPTH,
    AffineExpr,
    Goal,
    Param,
    ParamFamily,
    SearchReport,
    hirzebruch_claim,
    search_params,
)
from qreider.surface import QDivisor


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


def as_points(params, schedule):
    """Each dict of parameter values in ``schedule`` as the integer point
    (q, P_1, ..., P_k) that ``schedule_points`` yields, parameter i at P_i / q,
    with q the lcm of the values' denominators."""
    points = []
    for values in schedule:
        vals = [F(values[p.name]) for p in params]
        q = math.lcm(*(v.denominator for v in vals))
        points.append((q, *(v.numerator * (q // v.denominator) for v in vals)))
    return points


def schedule_points(params, depth):
    """The schedule's candidate points in order: the flattening of the levels
    that ``search.dyadic_levels`` yields, read at call time so that
    ``scheduled`` can replace them."""
    for outer, inner, shifts in search.dyadic_levels(params, depth):
        for d in shifts:
            yield (*(x << d for x in outer), inner)


def values_at(params, point):
    """The parameter values at an integer point of the schedule."""
    return {p.name: F(x, point[0]) for p, x in zip(params, point[1:])}


@contextlib.contextmanager
def scheduled(params, schedule):
    """The schedule's levels, which the search walks and ``schedule_points``
    reads, are one per value dict in ``schedule``: its point, with the
    innermost coordinate carried by the level and a shift of 0.  The block
    must walk them."""
    levels = [search.Level(point[:-1], point[-1], range(1)) for point in as_points(params, schedule)]
    walks = []

    def fake(params, depth):
        walks.append(depth)
        return iter(levels)

    with mock.patch.object(search, "dyadic_levels", fake):
        yield
    assert walks, "the injected levels were never walked"


def decided_at(family, cone, goals, schedule):
    """The search when the schedule offers only ``schedule``, with every
    rule replaced by one that establishes and records its arguments."""
    with scheduled(family.params, schedule), stubbed_checkers(True, 1) as calls:
        report = search_params(family, cone, goals)
    return report, calls


def test_family_invariants_are_checked_before_the_checker_runs():
    model, family = section_family(1)
    assert family.target == model.divisor({"G": 3, "F": 4})
    cone = HirzebruchFamily(1, model.lattice)
    goal = Goal("free", (hz.POINT_ON_G,), (Degrees("G", (cone.g_class,)),))
    report, calls = decided_at(family, cone, (goal,), [{"eps": F(1, 8)}])
    assert report.notes == ()
    assert report.found and report.attempts == 1 and report.params == {"eps": F(1, 8)}
    # mu is B's coefficient 7/8 on G; M = L - B = (17/8)G + 4F has M^2 = 799/64 and M.G = 15/8
    assert calls == [(F(7, 8), F(799, 64), F(15, 8), None)]


def test_dyadic_schedule_is_nested_and_in_domain():
    params = (Param("a"), Param("b"))
    points = list(schedule_points(params, depth=4))
    assert points  # non-empty
    for point in points:
        values = values_at(params, point)
        assert 0 < values["a"] < 1 and values["a"] <= F(1, 4)
        assert 0 < values["b"] < 1
        assert values["b"] <= values["a"] / 2
        assert point[-1] == 1 and point[0] == values["b"].denominator  # q is the innermost level
    # first candidate follows the coupling order: a = 2/8, b = 1/8
    assert points[0] == (8, 2, 1)


_ENDPOINTS = [F(-1, 3), F(0), F(1, 64), F(1, 7), F(2, 7), F(1, 2), F(1), F(5, 3)]
_DOMAINS = st.sampled_from([(lo, hi) for lo in _ENDPOINTS for hi in _ENDPOINTS if lo < hi])


@given(st.lists(_DOMAINS, max_size=2), st.integers(0, 9))
def test_dyadic_schedule_keeps_exactly_the_values_in_each_domain(domains, depth):
    params = [Param(name, lo, hi) for name, (lo, hi) in zip("ab", domains)]

    def expected(i, prev):
        if i == len(params):
            yield {}
            return
        for e in range(2 if i == 0 else 1, depth + 1):
            value = prev / 2**e
            if params[i].lo < value < params[i].hi:
                yield from ({params[i].name: value, **rest} for rest in expected(i + 1, value))

    assert list(schedule_points(params, depth)) == as_points(params, expected(0, F(1)))


def test_freeness_search_succeeds_early_with_the_stated_witness():
    n = 1
    model, family = section_family(n)
    cone = HirzebruchFamily(n, model.lattice)
    goal = Goal("free", (hz.POINT_GENERIC,), (cone_degrees(cone),), BetaWitness.single(3, F(3, 2), role="at-p"))
    report = search_params(family, cone, (goal,), depth=24)
    assert report.found
    eps = report.params["eps"]
    assert eps.denominator & (eps.denominator - 1) == 0  # dyadic
    assert eps <= F(1, 4) and eps >= F(1, 64)  # succeeds by k = 6
    m2 = (2 + eps) * (2 * n + 4 - eps * n)
    assert m2 > 9
    assert report.verdict.witness == BetaWitness.single(3, F(3, 2), role="at-p")


@pytest.mark.parametrize("lo,hi", [(1, 0), (0, 0), (F(1, 2), F(1, 2))])
def test_a_parameter_domain_must_not_be_empty(lo, hi):
    with pytest.raises(ValueError, match=rf"^parameter domain \({F(lo)}, {F(hi)}\) is empty$"):
        Param("e", lo, hi)


def test_degenerate_family_reports_zero_attempts():
    model = hz.hirzebruch_model(1)
    family = ParamFamily(
        surface=model,
        params=(Param("eps", F(1, 2), F(1)),),  # the schedule's values 2**-k, k >= 2, all miss it
        boundary={"G": AffineExpr(1, {"eps": -1})},
        positive={"G": AffineExpr(2, {"eps": 1}), "F": AffineExpr.constant(4)},
    )
    cone = HirzebruchFamily(1, model.lattice)
    goal = Goal("free", (hz.POINT_GENERIC,), (cone_degrees(cone),))
    report = search_params(family, cone, (goal,))
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
        (hz.POINT_ON_F, hz.POINT_ON_F2),
        (fam_off, fam_off, fam_off),
        witness=lambda v: BetaWitness.pair(
            F(3, 2), F(3, 2), 1 + v["eps"] / 2, 1 + v["eps"] / 2
        ),
    )
    report = search_params(family, cone, (goal,))
    assert report.found
    eps, alpha = report.params["eps"], report.params["alpha"]
    assert alpha <= eps / 2  # the coupling order
    # the coupling constraint: 1 + eps/2 bounds the degree-bound minimum at mu = 1 - alpha
    assert 1 + eps / 2 >= F(3, 2) / (F(3, 2) - alpha)


def test_search_reports_replay():
    n = 2
    model, family = section_family(n)
    cone = HirzebruchFamily(n, model.lattice)
    goal = Goal("free", (hz.POINT_ON_G,), (cone_degrees(cone),))
    report = search_params(family, cone, (goal,))
    assert report.found
    b, m = reference_instantiate(family, report.params)
    replay = reference_evaluate(cone, (goal,), b, m, report.params)
    assert replay.established
    assert replay.trace == report.verdict.trace


def test_monotone_depth_nesting():
    n = 6
    model, family = section_family(n)
    cone = HirzebruchFamily(n, model.lattice)
    goal = Goal("free", (hz.POINT_ON_G,), (cone_degrees(cone),), BetaWitness.single(3, F(3, 2), role="at-p"))
    first = None
    for depth in (6, 8, 12, 24):
        report = search_params(family, cone, (goal,), depth=depth)
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


@pytest.mark.parametrize(
    "args", [(True, 1), (2.0, 1), (F(2), 1), (2, 1.0), (2, True), (2, 2, 3.0), (2, 2, True)]
)
def test_claim_numbers_are_ints(args):
    with pytest.raises(TypeError, match="not an integer"):
        hirzebruch_claim(*args)


@pytest.mark.parametrize(
    "kind, at, sources",
    [
        ("separate", ("pG",), 0),
        ("separate", ("pG", "q"), 2),
        ("free", ("pG", "q"), 2),
        ("free", (), 1),
        ("tangent", ("vG",), 3),
        ("very-ample", ("pG",), 1),
        ("very-ample", (), 2),
    ],
)
def test_a_goal_takes_its_kinds_numbers_of_marked_names_and_degree_sources(kind, at, sources):
    """free 1/1, separate 2/3, tangent 1/2 and very-ample 0/1; any other
    count is a ValueError when the goal is made, not a TypeError from inside
    the checker, nor a search that never calls it."""
    cone = HirzebruchFamily(1, hirzebruch_lattice(1))
    with pytest.raises(ValueError, match=f"search goal {kind!r} takes"):
        Goal(kind, at, (cone_degrees(cone),) * sources)


def test_a_separate_goal_needs_two_different_points():
    """A point is not separated from itself; the same name twice is a
    ValueError when the goal is made, and two names are accepted."""
    degrees = (cone_degrees(HirzebruchFamily(1, hirzebruch_lattice(1))),) * 3
    with pytest.raises(ValueError, match="search goal 'separate' needs two different points, not 'pG' twice"):
        Goal("separate", ("pG", "pG"), degrees)
    assert Goal("separate", ("pG", "q"), degrees).at == ("pG", "q")


def test_the_claims_make_the_big_line_once_per_goal_of_the_winning_candidate():
    """At n = 12 losing candidates reach the rules (part 2 applies them 14
    times, part 1 six), but only the winner's goals get the nef and big lines
    in their traces: the part 2 searches have seven goals between them, part
    1 two."""

    def counted(part):
        names = ("freeness_rule", "separation_rule", "tangent_rule")
        wrapped = {name: mock.Mock(wraps=getattr(criteria, name)) for name in names}
        with mock.patch.object(TraceLine, "__init__", autospec=True, side_effect=TraceLine.__init__) as made:
            with mock.patch.multiple(criteria, **wrapped):
                report = hirzebruch_claim(12, part)
        assert report.ok
        big = sum(call.args[1].endswith(": M^2 > 0 (big)") for call in made.call_args_list)
        return sum(rule.call_count for rule in wrapped.values()), big

    assert counted(2) == (14, 7)
    assert counted(1) == (6, 2)


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
    "boundary coefficients leave [0, 1) at {'e': Fraction(1, 4), 'f': Fraction(1, 8)}",
    "boundary coefficients leave [0, 1) at {'e': Fraction(1, 4), 'f': Fraction(1, 16)}",
    "boundary coefficients leave [0, 1) at {'e': Fraction(1, 4), 'f': Fraction(1, 32)}",
    "boundary coefficients leave [0, 1) at {'e': Fraction(1, 4), 'f': Fraction(1, 64)}",
]

VIOLATION_TEXT = """report for <stdin>
== search goal=free point=p B=B M=M depth=4
   status: established   rule: freeness/degree-bound
   search: found=True attempts=5 at e = 1/8 (approx 0.125), f = 1/16 (approx 0.0625)
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
    "attempts": 5,
    "notes": VIOLATION_NOTES + ["witness found by search"],
}


def test_search_notes_pin_the_family_violation_texts(monkeypatch, capsys):
    """The e = 1/4 candidates, whose boundary coefficient on G is 1, then a
    success.  A round-up that misses the target cannot occur here: with B in
    [0, 1) and B + M integral, the round-up of M is B + M."""
    import io
    import json

    from qreider.cli import main

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(VIOLATION_DOC.encode()), encoding="utf-8"))
    assert main(["check", "-"]) == 0
    assert capsys.readouterr().out == VIOLATION_TEXT

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(VIOLATION_DOC.encode()), encoding="utf-8"))
    assert main(["check", "-", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (result,) = payload["queries"]
    del result["elapsed_ms"]
    assert result == VIOLATION_JSON


def test_search_notes_each_violation_in_order():
    model = hz.hirzebruch_model(3)
    family = ParamFamily(
        surface=model,
        params=(Param("e", 0, F(1, 2)), Param("f")),
        boundary={"G": AffineExpr(F(-1, 2), {"e": 6}), "F": AffineExpr(1, {"f": -4})},
        positive={"G": AffineExpr(F(7, 2), {"e": -6}), "F": AffineExpr(9, {"f": 4})},
    )
    cone = HirzebruchFamily(3, model.lattice)
    classes = {"G": cone.g_class, "F": cone.f_class, "G+3F": cone.family_corner()}
    degrees = tuple(Degrees(text, (cls,)) for text, cls in classes.items())
    goal = Goal("separate", (hz.POINT_ON_G, hz.POINT_ON_F), degrees)
    schedule = [
        {"e": F(1, 16), "f": F(1, 2)},
        {"e": F(1, 8), "f": F(1, 16)},
    ]
    report, calls = decided_at(family, cone, (goal,), schedule)
    assert report.notes == ("boundary coefficients leave [0, 1) at {'e': Fraction(1, 16), 'f': Fraction(1, 2)}",)
    assert report.found and report.attempts == 2 and report.params == schedule[-1]
    # B = (1/4)G + (3/4)F, and M = (11/4)G + (37/4)F has M^2 = 451/16, M.G = 1, M.F = 11/4, M.(G+3F) = 37/4
    assert calls == [(F(1, 4), F(3, 4), F(451, 16), F(1), F(11, 4), F(37, 4), None)]


def test_a_search_needs_a_goal_and_a_cone_on_the_family_lattice():
    model, family = section_family(3)
    cone = HirzebruchFamily(3, model.lattice)
    goal = Goal("very-ample", (), (Degrees("G", (cone.g_class,)),))
    with pytest.raises(ValueError, match="at least one goal"):
        search_params(family, cone, ())
    elsewhere = HirzebruchFamily(3, hz.hirzebruch_model(3).lattice)
    with pytest.raises(ValueError, match="family's lattice"):
        search_params(family, elsewhere, (goal,))


def test_a_goals_degree_classes_live_on_the_family_lattice():
    """A degree class of another lattice would pair M with that lattice's gram."""
    model, family = section_family(1)
    cone = HirzebruchFamily(1, model.lattice)
    foreign = Degrees("G", (cone.g_class, hirzebruch_lattice(5).basis_class("G")))
    goals = (Goal("free", (hz.POINT_GENERIC,), (cone_degrees(cone),)), Goal("free", (hz.POINT_ON_G,), (foreign,)))
    with pytest.raises(ValueError, match="degree classes do not live on the family's lattice"):
        search_params(family, cone, goals)


def test_a_conjunction_lists_each_rule_once_and_keeps_what_all_goals_share():
    """Stubbed rules name their rule and note after themselves, and give no trace."""
    model, family = section_family(1)
    cone = HirzebruchFamily(1, model.lattice)
    degrees = (Degrees("G", (cone.g_class,)),)
    free, ample = Goal("free", (hz.POINT_ON_G,), degrees, label="free"), Goal("very-ample", (), degrees)
    alone, _ = decided_at(family, cone, (free,), [{"eps": F(1, 8)}])
    assert (alone.verdict.rule, alone.verdict.note) == ("freeness_rule", "freeness_rule")
    both, calls = decided_at(family, cone, (free, ample, free), [{"eps": F(1, 8)}])
    assert both.found and len(calls) == 3
    assert alone.params == both.params == {"eps": F(1, 8)}
    assert (both.verdict.rule, both.verdict.note, both.verdict.witness) == ("freeness_rule & very_ample_rule", "", None)
    nef_and_big = ["M.G >= 0 (nef)", "M.F >= 0 (nef)", "M^2 > 0 (big)"]
    free_lines = [f"free: {text}" for text in nef_and_big]
    assert [line.text for line in both.verdict.trace] == free_lines + nef_and_big + free_lines


# ---------------------------------------------------------------------------
# the candidate loop against a reference that builds and evaluates every candidate


class FamilyViolation(ValueError):
    """A candidate parameter value broke a family invariant."""


def reference_value(expr, values):
    """The value of an affine coefficient at the parameter values."""
    return expr.const + sum((c * values[name] for name, c in expr.terms.items()), F(0))


def reference_instantiate(family, values):
    """The candidate's boundary and positive part, built as divisors."""
    b = family.surface.divisor({c: reference_value(e, values) for c, e in family.boundary.items()})
    m = family.surface.divisor({c: reference_value(e, values) for c, e in family.positive.items()})
    if not b.is_boundary():
        raise FamilyViolation(f"boundary coefficients leave [0, 1) at {dict(values)}")
    if m.round_up() != family.target:
        raise FamilyViolation(f"round-up of the positive part misses the target at {dict(values)}")
    return b, m


_CHECKERS = {
    "free": "freeness_at",
    "separate": "separation",
    "tangent": "tangent_separation",
    "very-ample": "very_ampleness",
}


def reference_evaluate(cone, goals, boundary, positive, values):
    """The verdict of a tuple of goals read off built divisors.  It is
    established when every goal's is, its trace is theirs in turn, its rule
    lists the goals' distinct rules in order, and its witness and note are
    the goals' when they all agree (else none)."""
    verdicts = [reference_goal(cone, goal, boundary, positive, values) for goal in goals]
    rules = []
    for v in verdicts:
        if v.rule not in rules:
            rules.append(v.rule)
    witnesses, notes = {v.witness for v in verdicts}, {v.note for v in verdicts}
    return CriterionVerdict(
        all(v.established for v in verdicts),
        " & ".join(rules),
        tuple(line for v in verdicts for line in v.trace),
        witnesses.pop() if len(witnesses) == 1 else None,
        notes.pop() if len(notes) == 1 else "",
    )


def reference_goal(cone, goal, boundary, positive, values):
    """One goal's verdict read off built divisors: the nef and big lines of
    the cone, then the checker on the multiplicities of the boundary and the
    minimal degrees of M over each degree source's classes."""
    m_cls = positive.divisor_class()
    m2 = m_cls.self_intersection()
    nef = [(text, m_cls.intersect(c)) for text, c in zip(cone.nef_texts, cone.nef.classes)]
    ambient = [TraceLine(text, d, ">=", F(0), d >= 0) for text, d in nef]
    ambient.append(TraceLine("M^2 > 0 (big)", m2, ">", F(0), m2 > 0))
    if not all(line.holds for line in ambient):
        return CriterionVerdict(False, "not nef and big", ())
    if goal.kind == "tangent":
        spec = boundary.surface.tangent(goal.at[0])
        mus = [boundary.ord_at(spec.at), sum((v * spec.mult_V(c) for c, v in boundary.coeffs.items()), F(0))]
    else:
        mus = [boundary.ord_at(name) for name in goal.at]
    degrees = [min(m_cls.intersect(c) for c in d.classes) for d in goal.degrees]
    witness = goal.witness(values) if callable(goal.witness) else goal.witness
    verdict = getattr(criteria, _CHECKERS[goal.kind])(*mus, m2, *degrees, witness)
    prefix = f"{goal.label}: " if goal.label else ""
    lines = tuple(TraceLine(prefix + l.text, l.lhs, l.rel, l.rhs, l.holds) for l in ambient + list(verdict.trace))
    return CriterionVerdict(verdict.established, verdict.rule, lines, verdict.witness, verdict.note)


def reference_search(family, cone, goals, depth):
    """search_params without compiled forms: every candidate point is read as
    parameter values, built and evaluated from its divisors."""
    attempts = 0
    notes = []
    for point in schedule_points(family.params, depth):
        attempts += 1
        values = values_at(family.params, point)
        try:
            boundary, positive = reference_instantiate(family, values)
        except FamilyViolation as exc:
            notes.append(str(exc))
            continue
        verdict = reference_evaluate(cone, goals, boundary, positive, values)
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
    # a class with fractional coefficients, so that nef rows carry denominators:
    # for n = 3, (1/2)G + (7/3)F pairs as (5/6, 1/2)
    a = draw(st.builds(F, st.integers(0, 6), st.sampled_from([1, 2])))
    third = lattice.divisor_class((a, draw(st.builds(F, st.integers(-6, 9 * n), st.sampled_from([1, 3])))))
    gens = [ConeGenerator(corner, through_p=True, contains_z=True)]
    for cls in (g, f, third):
        if cls is third or draw(st.booleans()):
            through_p = draw(st.booleans())
            gens.append(ConeGenerator(cls, through_p, through_p and draw(st.booleans())))
    return FiniteGenerators(tuple(draw(st.permutations(gens))))


@st.composite
def goals_on(draw, cone):
    kind = draw(st.sampled_from(sorted(_GOAL_SHAPES)))
    at, filters = _GOAL_SHAPES[kind]
    degrees = tuple(cone_degrees(cone, f) for f in filters)
    witness = None
    if kind in ("free", "very-ample") and draw(st.booleans()):
        witness = BetaWitness.single(3, F(3, 2), role="at-p")
    elif kind == "separate" and draw(st.booleans()):
        beta1 = lambda v: 1 + v.get("e", F(0)) / 2  # noqa: E731
        witness = lambda v: BetaWitness.pair(F(3, 2), F(3, 2), beta1(v), beta1(v))  # noqa: E731
    return Goal(kind, at, degrees, witness, label=draw(st.sampled_from(["", "part"])))


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 6))
    model = hz.hirzebruch_model(n)
    params = []
    for name in _PARAM_NAMES[: draw(st.integers(0, 2))]:  # no parameter: one attempt
        lo = draw(st.sampled_from([F(0), F(1, 64), F(-1, 3), F(1, 7)]))
        hi = draw(st.sampled_from([hi for hi in (F(1), F(1, 2), F(1, 8), F(2, 7), F(5, 3)) if hi > lo]))
        params.append(Param(name, lo, hi))
    a = draw(st.integers(0, 3))
    target = {"G": a, "F": max(0, n * a + draw(st.integers(-2, 4)))}  # M.G near 0, so nefness turns on e and f
    # with every parameter on both curves, M's class has each parameter on both
    # lattice coordinates, and M^2 a cross term in every pair of parameters
    full = draw(st.booleans())
    boundary = {}
    for curve in ("G", "F"):
        if full or draw(st.booleans()):
            terms = {p.name: draw(_small.filter(bool)) for p in params if full or draw(st.booleans())}
            boundary[curve] = AffineExpr(draw(st.sampled_from([F(0), F(1, 2), F(9, 10), F(1)])), terms)
    positive = {}
    for c, t in target.items():
        b = boundary.get(c, AffineExpr())
        positive[c] = AffineExpr(t - b.const, {name: -x for name, x in b.terms.items()})
    family = ParamFamily(model, tuple(params), boundary, positive)
    cone = draw(cones_on(n, model.lattice))
    goals = tuple(draw(st.lists(goals_on(cone), min_size=1, max_size=2)))
    return family, cone, goals, draw(st.integers(2, 10))


@contextlib.contextmanager
def stubbed_checkers(stub, k):
    """With ``stub`` set, every goal's rule is replaced by a pure one that
    records its arguments and establishes when their hash is a multiple of k
    (never if k is None), so the calls show which candidates reach a rule.
    The public checkers explain the same stubs.  A stub's rule and note name
    the rule, so that goals of two kinds disagree on both."""
    calls = []
    if not stub:
        yield calls
        return

    def rule(name):
        def stubbed(*args):
            calls.append(args)
            return criteria.Evaluation(name, iter(()), note=name, sufficient=k is not None and hash(args) % k == 0)

        return stubbed

    names = ("freeness_rule", "separation_rule", "tangent_rule", "very_ample_rule")
    with mock.patch.multiple(criteria, **{name: rule(name) for name in names}):
        yield calls


@given(search_cases(), st.booleans(), st.one_of(st.none(), st.integers(1, 6)))
@settings(max_examples=200, deadline=None)
def test_search_matches_the_build_every_candidate_reference(case, stub, k):
    family, cone, goals, depth = case
    with stubbed_checkers(stub, k) as expected_calls:
        expected = reference_search(family, cone, goals, depth)
    with stubbed_checkers(stub, k) as calls:
        report = search_params(family, cone, goals, depth)
    assert calls == expected_calls  # the rules run on exactly the nef and big candidates
    assert report.found == expected.found
    assert report.params == expected.params
    assert report.attempts == expected.attempts
    assert report.notes == expected.notes
    assert report.verdict == expected.verdict  # rule, trace, witness and note


def fiber_family(n, alpha):
    """Boundary (1-eps)G + (1-alpha)F with positive part (2+eps)G + (2n+1+alpha)F."""
    model = hz.hirzebruch_model(n)
    return model, ParamFamily(
        surface=model,
        params=(Param("eps"), alpha),
        boundary={"G": AffineExpr(1, {"eps": -1}), "F": AffineExpr(1, {alpha.name: -1})},
        positive={"G": AffineExpr(2, {"eps": 1}), "F": AffineExpr(2 * n + 1, {alpha.name: 1})},
    )


def separation_goal(model, cone):
    off = Degrees("off the section", (model.curves["F"].cls, model.lattice.divisor_class((1, cone.n))))
    beta1 = lambda v: 1 + v["eps"] / 2  # noqa: E731
    witness = lambda v: BetaWitness.pair(2, 2, beta1(v), beta1(v))  # noqa: E731
    return Goal("separate", (hz.POINT_ON_F, hz.POINT_ON_F2), (off, off, off), witness)


def matches_the_reference(family, cone, goals, depth):
    """With rules that never establish, the search and ``reference_search``
    agree on every rule call and on the report."""
    with stubbed_checkers(True, None) as expected_calls:
        expected = reference_search(family, cone, goals, depth)
    with stubbed_checkers(True, None) as calls:
        report = search_params(family, cone, goals, depth)
    assert calls == expected_calls
    assert report == expected
    return report, calls


def test_non_dyadic_values_reach_the_decider_as_the_reference_reads_them():
    """Points whose q is 5, 15, 35 and 63, the lcm of the denominators of
    their values; the domain (-1/3, 2/7) of alpha has a negative
    end, and alpha = -1/5 puts the boundary coefficient on F at 6/5."""
    model, family = fiber_family(2, Param("alpha", F(-1, 3), F(2, 7)))
    cone = HirzebruchFamily(2, model.lattice)
    schedule = [
        {"eps": F(2, 5), "alpha": F(-1, 5)},  # the boundary on F leaves [0, 1)
        {"eps": F(1, 3), "alpha": F(1, 5)},
        {"eps": F(2, 5), "alpha": F(1, 7)},
        {"eps": F(1, 7), "alpha": F(2, 9)},
    ]
    with scheduled(family.params, schedule):
        report, calls = matches_the_reference(family, cone, (separation_goal(model, cone),), DEFAULT_DEPTH)
    assert report.notes == (
        "boundary coefficients leave [0, 1) at {'eps': Fraction(2, 5), 'alpha': Fraction(-1, 5)}",
    )
    assert not report.found and report.attempts == 4 and len(calls) == 3
    # eps = 1/3, alpha = 1/5: both points lie on F only, where B = (2/3)G + (4/5)F has
    # coefficient 4/5, and M = (7/3)G + (26/5)F
    assert calls[0][:3] == (F(4, 5), F(4, 5), -2 * F(7, 3) ** 2 + 2 * F(7, 3) * F(26, 5))


def test_one_level_holds_notes_nef_rejections_and_checker_calls():
    """The domain of e admits only e = 1/4, so the schedule is one level, f =
    2**-(2 + d) for d = 1..8.  B's coefficient on G, 5/12 + (56/3)f, leaves
    [0, 1) for f >= 1/32 (it is 1 at f = 1/32); M.G = -1/12 + (32/3)f is
    negative for f < 1/128 (it is 0 at f = 1/128); the candidates f = 1/64
    and 1/128 between them reach the rule, whose first argument is B's
    coefficient 1/2 + 8f on F."""
    model = hz.hirzebruch_model(1)
    family = ParamFamily(
        surface=model,
        params=(Param("e", F(1, 5), F(1, 3)), Param("f")),
        boundary={"G": AffineExpr(F(5, 12), {"f": F(56, 3)}), "F": AffineExpr(F(1, 2), {"f": 8})},
        positive={"G": AffineExpr(F(19, 12), {"f": F(-56, 3)}), "F": AffineExpr(F(3, 2), {"f": -8})},
    )
    cone = HirzebruchFamily(1, model.lattice)
    (level,) = search.dyadic_levels(family.params, 8)
    assert level == ((4, 1), 1, range(1, 9))
    goal = Goal("free", (hz.POINT_ON_F,), (cone_degrees(cone),))
    report, calls = matches_the_reference(family, cone, (goal,), 8)
    assert report.attempts == 8
    at = "boundary coefficients leave [0, 1) at {{'e': Fraction(1, 4), 'f': Fraction(1, {})}}"
    assert report.notes == tuple(at.format(q) for q in (8, 16, 32))
    assert [call[0] for call in calls] == [F(5, 8), F(9, 16)]  # three candidates are turned down on M.G


def test_a_two_parameter_search_at_the_depth_ceiling_matches_the_reference():
    """At depth 64 alpha reaches 2**-128, just above the lower end 3**-81 of
    its domain.  M is nef and big at every candidate, so all 63 * 64 reach
    the rule, whose first argument is the boundary coefficient 1 - alpha."""
    model, family = fiber_family(1, Param("alpha", F(1, 3**81), F(2, 7)))
    cone = HirzebruchFamily(1, model.lattice)
    report, calls = matches_the_reference(family, cone, (separation_goal(model, cone),), MAX_DEPTH)
    assert report.attempts == len(calls) == 63 * 64
    assert max(call[0].denominator for call in calls) == 1 << 128


@pytest.mark.parametrize("depth", [0, -3, MAX_DEPTH + 1, True, False])
def test_search_depth_is_bounded(depth):
    model, family = section_family(1)
    cone = HirzebruchFamily(1, model.lattice)
    goal = Goal("very-ample", (), (cone_degrees(cone),))
    with pytest.raises(ValueError, match=r"1\.\.64"):
        search_params(family, cone, (goal,), depth)
    with pytest.raises(ValueError, match=r"1\.\.64"):
        hirzebruch_claim(1, 2, depth=depth)


def test_the_claim_search_builds_no_divisor():
    """The n = 12, part 2 claim walks candidates turned down on the nef test
    and candidates that reach a rule; the only divisors it builds are the
    targets of its two decompositions, when each family is made."""
    with mock.patch.object(QDivisor, "__post_init__", autospec=True, side_effect=QDivisor.__post_init__) as built:
        report = hirzebruch_claim(12, 2)
    assert report.ok
    assert [chk.report.attempts for chk in report.checks] == [2, 25, 3, 25, 2, 3]
    assert [call.args[0].coeffs for call in built.call_args_list] == [{"G": 3, "F": 27}] * 2
