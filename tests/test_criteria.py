import inspect
import operator
import warnings
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qreider import criteria
from qreider.criteria import (
    BetaWitness,
    DomainError,
    freeness_at,
    freeness_witness,
    min_formula,
    riemann_roch_chi,
    separation,
    separation_witness,
    tangent_beta1_bound,
    tangent_separation,
    tangent_witness,
    threshold_very_ampleness,
    very_ampleness,
    very_ampleness_witness,
)
from qreider.lattice import hirzebruch_lattice
from qreider.plc import LocalConfig, LocalCurveData, ThresholdMode, ThresholdResult, context_note, plc_threshold

mus = st.fractions(min_value=0, max_value="19/10", max_denominator=12)
small_pos = st.fractions(min_value="1/8", max_value=8, max_denominator=12)


# ---------------------------------------------------------------------------
# the degree-bound minimum


def test_min_formula_at_zero_multiplicity():
    assert min_formula(0, 3) == F(3, 2)


def test_min_formula_boundary_agreement():
    for b2 in (1, F(3, 2), 2, 7):
        assert min_formula(1, b2) == 1


def test_min_formula_relaxed_branch():
    assert min_formula(F(1, 2), 2) == F(4, 3)


def test_min_formula_domain_errors():
    with pytest.raises(DomainError):
        min_formula(2, 3)
    with pytest.raises(DomainError):
        min_formula(F(1, 2), 1)  # beta2 < 2 - mu


@given(mu=mus, extra=st.fractions(min_value=0, max_value=6, max_denominator=12))
@settings(max_examples=300)
def test_min_formula_branch_structure(mu, extra):
    b2 = 2 - mu + extra
    value = min_formula(mu, b2)
    if mu >= 1:
        assert value == 2 - mu
    else:
        assert value == b2 / (b2 - (1 - mu))
        assert value <= 2 - mu
        assert (value == 2 - mu) == (b2 == 2 - mu)


# ---------------------------------------------------------------------------
# freeness


def test_freeness_worked_decomposition():
    witness = BetaWitness.single(3, F(3, 2), role="at-p")
    verdict = freeness_at(0, F(1239, 100), F(19, 10), witness)
    assert verdict.established
    assert verdict.rule == "freeness/degree-bound"
    assert all(l.holds for l in verdict.trace)


def test_freeness_high_multiplicity_wins_outright():
    verdict = freeness_at(2, -100, -100)
    assert verdict.established
    assert verdict.rule == "freeness/high-multiplicity"
    assert verdict.witness is None


def test_freeness_small_square_cannot_be_established():
    verdict = freeness_at(0, 4, 100)
    assert not verdict.established
    assert any(not l.holds for l in verdict.trace)


def test_freeness_witness_found_and_reverifies():
    w = freeness_witness(0, 12, 4)
    assert w is not None
    assert freeness_at(0, 12, 4, w).established


def test_freeness_witness_infeasible():
    assert freeness_witness(0, 4, 100) is None


def test_freeness_witness_boundary_multiplicity_one():
    w = freeness_witness(1, 9, 1)
    assert w is not None
    assert w.beta2[0] < 3
    assert w.beta1[0] == 1
    assert freeness_at(1, 9, 1, w).established


# ---------------------------------------------------------------------------
# separation of points


def test_separation_both_high():
    verdict = separation(2, F(5, 2), 0, 0, 0, 0)
    assert verdict.established
    assert verdict.rule == "separation/both-high-multiplicity"


def test_separation_one_high_runs_degree_bound_at_low_point():
    verdict = separation(0, 2, 12, 4, 0, 0)
    assert verdict.established
    assert verdict.rule == "separation/one-high-multiplicity"
    # symmetric orientation
    verdict = separation(2, 0, 12, 0, 4, 0)
    assert verdict.established


def test_separation_worked_fiber_pair():
    eps, alpha = F(1, 10), F(1, 100)
    n = 1
    mu = 1 - alpha
    m2 = (2 + eps) * (2 * n + 2 + 2 * alpha - eps * n)
    deg = 2 + eps
    witness = BetaWitness.pair(F(3, 2), F(3, 2), 1 + eps / 2, 1 + eps / 2)
    assert m2 > 2 * F(3, 2) ** 2
    verdict = separation(mu, mu, m2, deg, deg, deg, witness)
    assert verdict.established
    assert verdict.rule == "separation/degree-bounds"


def test_separation_square_eight_is_never_enough_in_the_two_point_rule():
    verdict = separation(0, 0, 8, 100, 100, 100)
    assert not verdict.established


def test_separation_witness_search_round_trip():
    w = separation_witness(0, 0, 12, 4, 4, 4)
    assert w is not None
    assert separation(0, 0, 12, 4, 4, 4, w).established


def test_separation_without_a_witness_is_not_established():
    # infeasible: beta2 >= 2 at both points leaves beta2^2 < 5 at one of them, so the
    # two degree-bound minima sum to at least 3.7 > 201/100; every necessary line still holds
    verdict = separation(0, 0, 9, 100, 100, F(201, 100))
    assert not verdict.established
    assert verdict.witness is None
    assert verdict.rule == "separation/degree-bounds"
    assert verdict.note == "no admissible witness pair found"
    assert verdict.trace and all(line.holds for line in verdict.trace)


positive = st.fractions(min_value="1/4", max_value=6, max_denominator=4)


@given(
    low_is_q=st.booleans(),
    high=st.fractions(min_value=2, max_value=4, max_denominator=4),
    low=st.fractions(min_value=0, max_value="15/8", max_denominator=8),
    m2=st.fractions(min_value=0, max_value=40, max_denominator=4),
    degrees=st.tuples(*[st.fractions(min_value=0, max_value=6, max_denominator=4)] * 3),
    witness=st.one_of(
        st.none(),
        st.builds(BetaWitness.single, positive, positive, st.just("at-p")),
        st.builds(BetaWitness.pair, positive, positive, positive, positive),
    ),
)
@settings(max_examples=300, deadline=None)
def test_one_high_separation_is_freeness_at_the_low_point(low_is_q, high, low, m2, degrees, witness):
    mu_p, mu_q = (high, low) if low_is_q else (low, high)
    dp, dq, dpq = degrees
    side = 1 if low_is_q else 0
    # the low point's slot of the witness: its own values and roles when it has them, else the only ones
    slot = None
    if witness is not None:
        i, j = min(side, len(witness.beta2) - 1), min(side, len(witness.beta1) - 1)
        slot = BetaWitness((witness.beta2[i],), (witness.beta1[j],), (witness.beta2_roles[i],), (witness.beta1_roles[j],))
    verdict = separation(mu_p, mu_q, m2, dp, dq, dpq, witness)
    free = freeness_at(low, m2, dq if low_is_q else dp, slot)
    high_text = "mu_p >= 2" if low_is_q else "mu_q >= 2"
    assert verdict.rule == "separation/one-high-multiplicity"
    assert verdict.trace[0] == criteria.TraceLine(high_text, high, ">=", F(2), True)
    assert verdict.trace[1:] == free.trace
    assert verdict.status == free.status
    assert verdict.note == ("no admissible witness at the low point" if free.witness is None else free.note)
    if free.witness is None or witness is not None:
        assert verdict.witness == free.witness
    else:  # a searched witness is labelled with the low point
        role = "at-q" if low_is_q else "at-p"
        assert verdict.witness == BetaWitness.single(free.witness.beta2[0], free.witness.beta1[0], role=role)


@pytest.mark.parametrize("low_is_q", [False, True])
def test_one_high_separation_labels_its_witness_with_the_low_point(low_is_q):
    """The searched witness is at the low point; a given witness keeps its own roles."""
    args = (2, 0, 12, 0, 4, 0) if low_is_q else (0, 2, 12, 4, 0, 0)
    low = "at-q" if low_is_q else "at-p"
    searched = separation(*args).witness
    assert (searched.beta2, searched.beta1) == ((3,), (F(3, 2),))
    assert (searched.beta2_roles, searched.beta1_roles) == ((low,), (low,))
    given = separation(*args, BetaWitness.pair(F(5, 2), 3, 1, F(3, 2))).witness
    assert given == BetaWitness.single(3 if low_is_q else F(5, 2), F(3, 2) if low_is_q else 1, role=low)
    one_sided = separation(*args, BetaWitness.single(3, F(3, 2))).witness
    assert one_sided == BetaWitness.single(3, F(3, 2), role="global")


# ---------------------------------------------------------------------------
# separation of tangent directions


def test_tangent_worked_decomposition():
    eps = F(1, 10)
    n = 1
    mu = 1 - eps
    m2 = (2 + eps) * (2 * n + 6 - eps * n)
    mindeg_p = 2 + eps
    mindeg_z = 3 - eps * n
    witness = BetaWitness((2, 2), (F(2) / (2 - eps),), ("at-p", "at-V"), ("global",))
    verdict = tangent_separation(mu, mu, m2, mindeg_p, mindeg_z, witness)
    assert verdict.established
    assert verdict.rule == "tangent/degree-bounds"
    assert m2 == F(1659, 100)
    assert witness.beta1[0] == F(20, 19)


def test_tangent_high_point_multiplicity():
    verdict = tangent_separation(3, 0, 0, 0, 0)
    assert verdict.established
    assert verdict.rule == "tangent/high-multiplicity"


def test_tangent_total_multiplicity_boundary():
    verdict = tangent_separation(2, 2, 0, 0, 0)
    assert verdict.established
    assert verdict.rule == "tangent/high-multiplicity"


def test_tangent_intermediate_multiplicity_rule():
    # mu_p = 2, mu_V = 1/2: total 5/2, threshold 4 - mu_v = 3/2
    verdict = tangent_separation(2, F(1, 2), F(94, 10), F(3, 4), F(3, 2))
    assert verdict.established
    assert verdict.rule == "tangent/intermediate-multiplicity"
    verdict = tangent_separation(2, F(1, 2), F(94, 10), F(3, 4), F(5, 4))
    assert not verdict.established


def test_tangent_rejects_inverted_orders():
    with pytest.raises(DomainError):
        tangent_separation(1, F(3, 2), 10, 2, 2)


def test_tangent_witness_search_round_trip():
    w = tangent_witness(0, 0, 12, 3, 6)
    assert w is not None
    assert tangent_separation(0, 0, 12, 3, 6, w).established


def test_tangent_without_a_witness_is_not_established():
    # infeasible: the rule needs beta2_p + beta2_V >= 9.84, but its supremum is sqrt(82) < 9.06
    verdict = tangent_separation(0, 0, 41, 100, F(251, 100))
    assert not verdict.established
    assert verdict.witness is None
    assert verdict.rule == "tangent/degree-bounds"
    assert verdict.note == "no admissible witness found"
    assert verdict.trace and all(line.holds for line in verdict.trace)


def test_tangent_beta1_bound_branches():
    # total multiplicity >= 2: plain branch only
    assert tangent_beta1_bound(F(3, 2), F(1, 2), 10, 10) == 1
    # below 2: relaxed branch, never above the plain one
    b = tangent_beta1_bound(F(1, 2), F(1, 2), F(3, 2), F(3, 2))
    assert b == min(F(3, 2), F(3) / (F(3) - 1))
    assert b <= F(3, 2)


# ---------------------------------------------------------------------------
# global very-ampleness


def test_very_ampleness_explicit_witness():
    verdict = very_ampleness(9, 4, BetaWitness.single(2, 2))
    assert verdict.established


@pytest.mark.parametrize("beta2", [1, F(1, 2), F(3, 2)])
def test_very_ampleness_witness_with_beta2_below_two_fails_without_the_beta1_bound(beta2):
    # beta2/(beta2 - 1) is undefined at beta2 = 1, so its line is built only for beta2 >= 2
    verdict = very_ampleness(20, 5, BetaWitness.single(beta2, 1))
    assert not verdict.established
    assert [(l.text, l.holds) for l in verdict.trace] == [
        ("beta2 >= 2", False),
        ("M^2 > 2*beta2^2", True),
        ("min degree >= 2*beta1", True),
    ]


def test_very_ampleness_boundary_square_infeasible():
    verdict = very_ampleness(8, 1000)
    assert not verdict.established
    assert very_ampleness_witness(8, 1000) is None


def test_very_ampleness_witness_search():
    w = very_ampleness_witness(12, 4)
    assert w is not None
    b2, b1 = w.beta2[0], w.beta1[0]
    assert b2 >= 2 and 12 > 2 * b2 * b2 and b1 >= b2 / (b2 - 1) and 4 >= 2 * b1
    assert very_ampleness(12, 4, w).established


def test_threshold_very_ampleness_boundary():
    reject = threshold_very_ampleness(100, F(341, 100))
    assert not reject.established
    accept = threshold_very_ampleness(100, F(342, 100))
    assert accept.established
    assert accept.witness is not None
    assert very_ampleness(100, F(342, 100), accept.witness).established


def test_threshold_very_ampleness_square_comparison():
    assert threshold_very_ampleness(12, F(7, 2)).established
    assert not threshold_very_ampleness(F(1165, 100), F(7, 2)).established  # 11.65 < 6 + 4*sqrt(2)
    assert threshold_very_ampleness(F(1166, 100), F(7, 2)).established  # 11.66 > 6 + 4*sqrt(2)


S = 10**400
NEAR_DEGREE = 2 + F(isqrt(2 * S * S) + 1, S)  # about 1e-400 above 2 + sqrt(2)
NEAR_SQUARE = 6 + F(isqrt(32 * S * S) + 1, S)  # about 1e-400 above 6 + 4*sqrt(2)


@pytest.mark.parametrize("m2, deg", [(100, NEAR_DEGREE), (NEAR_SQUARE, 4), (NEAR_SQUARE, NEAR_DEGREE)])
def test_threshold_very_ampleness_finds_a_convergent_next_to_the_threshold(m2, deg):
    verdict = threshold_very_ampleness(m2, deg)
    assert verdict.established and verdict.witness is not None
    assert very_ampleness(m2, deg, verdict.witness).established


# ---------------------------------------------------------------------------
# thresholds at a point


def test_plc_threshold_single_term():
    config = LocalConfig((LocalCurveData("C", 0, 2, 1),))
    out = plc_threshold(config)
    assert out == ThresholdResult(False, F(1, 2), ("C",))
    assert out.critical == "C"


def test_plc_threshold_worked_value():
    config = LocalConfig(
        (
            LocalCurveData("C0", F(1, 2), F(3, 4), 1),
            LocalCurveData("C1", F(1, 4), F(1, 4), 1),
        )
    )
    out = plc_threshold(config)
    assert out.c == F(2, 3)
    assert out.critical == "C0"
    assert context_note(config) == "threshold taken with ord_p(D) = 1, not the usual 2 - mu = 5/4"


def test_plc_threshold_already_plc():
    config = LocalConfig(
        (
            LocalCurveData("C0", F(1, 2), F(1, 2), 1),
            LocalCurveData("C1", F(1, 4), F(1, 2), 1),
        )
    )
    out = plc_threshold(config)
    assert out.is_plc
    assert out.c is None
    assert context_note(config) == "threshold taken with ord_p(D) = 1, not the usual 2 - mu = 5/4"


def test_an_off_context_basic_threshold_draws_no_warning():
    """ord_p(D) = 3/2 where 2 - mu = 5/4: the note is a value, and nothing is warned."""
    config = LocalConfig((LocalCurveData("C0", F(1, 2), F(3, 4), 1), LocalCurveData("C1", F(1, 4), F(3, 4), 1)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = plc_threshold(config)
        note = context_note(config)
        for mode in ("cap3", "prime"):
            plc_threshold(config, mode, c0="C1")
    assert caught == []
    assert out == ThresholdResult(False, F(2, 3), ("C0",))
    assert note == "threshold taken with ord_p(D) = 3/2, not the usual 2 - mu = 5/4"
    assert context_note(config, "basic") == context_note(config, ThresholdMode.BASIC) == note


def test_context_note_is_empty_in_context_and_outside_the_basic_mode():
    in_context = LocalConfig((LocalCurveData("C", F(1, 2), F(3, 2), 1),))  # ord_p(D) = 3/2 = 2 - mu
    assert context_note(in_context) == context_note(in_context, "basic") == ""
    off_context = LocalConfig((LocalCurveData("C", F(1, 2), F(3, 4), 1),))
    assert context_note(off_context) != ""
    for mode in ("cap3", "prime", ThresholdMode.CAP3, ThresholdMode.PRIME):
        assert context_note(off_context, mode) == ""
        assert context_note(in_context, mode) == ""


def test_plc_threshold_cap_mode():
    # mu = 1/2, ord D = 2: cap term (3 - 1/2)/2 = 5/4 vs curve term (1/2)/(3/4)
    config = LocalConfig((LocalCurveData("C", F(1, 2), F(3, 4), 1), LocalCurveData("E", 0, F(5, 4), 1)))
    out = plc_threshold(config, "cap3")
    assert out.c == min(F(5, 2) / 2, F(1, 2) / F(3, 4))
    assert out.achievers == ("C",)


def test_plc_threshold_prime_mode():
    config = LocalConfig(
        (
            LocalCurveData("C0", F(1, 2), F(1, 2), 1),
            LocalCurveData("C1", F(3, 4), F(1, 2), 1),
        )
    )
    out = plc_threshold(config, "prime", c0="C0")
    # candidates: 1, (3 - mu)/m_p, (2 - 1/2)/(1/2) = 3, (1 - 3/4)/(1/2) = 1/2
    assert out.c == F(1, 2)
    assert out.critical == "C1"
    strict = plc_threshold(
        LocalConfig((LocalCurveData("C0", F(1, 2), F(1, 2), 1), LocalCurveData("C1", F(1, 2), F(1, 2), 1))),
        "prime",
        c0="C0",
    )
    weak = plc_threshold(
        LocalConfig((LocalCurveData("C0", F(1, 2), F(1, 2), 1), LocalCurveData("C1", F(1, 2), F(1, 2), 1))),
        "prime",
        c0="C0",
        weak_boundary=True,
    )
    # C1 has b + d = 1: ignored by the strict form, counted by the weak one
    assert strict.c == 1
    assert weak.c == 1


def test_plc_threshold_prime_needs_declared_curve():
    config = LocalConfig((LocalCurveData("C", 0, 1, 1),))
    with pytest.raises(ValueError):
        plc_threshold(config, "prime")
    with pytest.raises(ValueError):
        plc_threshold(config, "prime", c0="missing")


@pytest.mark.parametrize("label", ThresholdResult.SPECIAL)
def test_a_local_curve_may_not_carry_a_threshold_label(label):
    with pytest.raises(ValueError, match=f"curve name '{label}' is a threshold term's label"):
        LocalConfig((LocalCurveData("C", 0, 1, 1), LocalCurveData(label, 0, 1, 1)))


def test_local_curve_data_validation():
    with pytest.raises(ValueError):
        LocalCurveData("C", 1, 1, 1)  # boundary coefficient must stay below 1
    with pytest.raises(ValueError):
        LocalCurveData("C", 0, -1, 1)
    with pytest.raises(ValueError):
        LocalCurveData("C", 0, 1, 0)


@pytest.mark.parametrize("mult_p", [1.9, "1", True, F(1)])
def test_local_curve_multiplicities_are_ints(mult_p):
    with pytest.raises(TypeError, match="not an integer"):
        LocalCurveData("C", 0, 1, mult_p)


# ---------------------------------------------------------------------------
# Euler characteristic


def test_chi_on_the_third_model():
    lat = hirzebruch_lattice(3)
    h = lat.divisor_class((1, 3))
    k = lat.divisor_class((-2, -5))
    assert riemann_roch_chi(h, k, 1) == 5


def test_chi_of_trivial_bundle():
    lat = hirzebruch_lattice(2)
    assert riemann_roch_chi(lat.zero(), lat.divisor_class((-2, -4)), F(7, 3)) == F(7, 3)


def test_chi_on_the_first_model():
    lat = hirzebruch_lattice(1)
    h = lat.divisor_class((1, 1))
    k = lat.divisor_class((-2, -3))
    assert (h - k).coeffs == (F(3), F(4))
    assert riemann_roch_chi(h, k, 1) == 3


# ---------------------------------------------------------------------------
# coherence properties


@given(
    mu=mus,
    m2=small_pos,
    deg=small_pos,
    bump_sq=st.fractions(min_value=0, max_value=5, max_denominator=8),
    bump_deg=st.fractions(min_value=0, max_value=5, max_denominator=8),
)
@settings(max_examples=300)
def test_freeness_monotone_in_square_and_degree(mu, m2, deg, bump_sq, bump_deg):
    base = freeness_at(mu, m2, deg)
    assume(base.established)
    bumped = freeness_at(mu, m2 + bump_sq, deg + bump_deg, base.witness)
    assert bumped.established
    assert freeness_at(mu, m2 + bump_sq, deg + bump_deg).established


@given(
    m2=st.fractions(min_value=8, max_value=40, max_denominator=8),
    deg=st.fractions(min_value=2, max_value=12, max_denominator=8),
    q=st.fractions(min_value=1, max_value=4, max_denominator=6),
)
@settings(max_examples=300)
def test_very_ampleness_scaling_coherence(m2, deg, q):
    base = very_ampleness(m2, deg)
    assume(base.established)
    assert very_ampleness(q * q * m2, q * deg).established


@given(
    m2=st.fractions(min_value="17/2", max_value=60, max_denominator=8),
    deg=st.fractions(min_value="9/4", max_value=16, max_denominator=8),
)
@settings(max_examples=300)
def test_global_witness_implies_pointwise_rules_at_zero_multiplicity(m2, deg):
    w = very_ampleness_witness(m2, deg)
    assume(w is not None)
    b2, b1 = w.beta2[0], w.beta1[0]
    pair = BetaWitness.pair(b2, b2, b1, b1)
    assert separation(0, 0, m2, deg, deg, deg, pair).established
    tangent = BetaWitness((b2, b2), (b1,), ("at-p", "at-V"), ("global",))
    assert tangent_separation(0, 0, m2, deg, deg, tangent).established


local_curve = st.tuples(
    st.fractions(min_value=0, max_value="9/10", max_denominator=10),
    st.fractions(min_value=0, max_value=3, max_denominator=10),
    st.integers(min_value=1, max_value=3),
)


@given(curves=st.lists(local_curve, min_size=1, max_size=4))
@settings(max_examples=400)
def test_plc_threshold_is_the_exact_crossing_point(curves):
    config = LocalConfig(
        tuple(LocalCurveData(f"C{i}", b, d, m) for i, (b, d, m) in enumerate(curves))
    )
    out = plc_threshold(config)
    if out.is_plc:
        assert all(c.b + c.d <= 1 for c in config.curves)
        return
    c = out.c
    assert 0 < c < 1
    combined = [cur.b + c * cur.d for cur in config.curves]
    assert max(combined) == 1
    below = c * F(15, 16)
    assert all(cur.b + below * cur.d < 1 for cur in config.curves if cur.b + cur.d > 1)
    above = c * F(17, 16)
    assert any(cur.b + above * cur.d > 1 for cur in config.curves)


@given(
    mu_tenths=st.integers(min_value=0, max_value=9),
    head=st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=5)),
    tail=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=3,
    ),
)
@settings(max_examples=400)
def test_plc_threshold_lower_bound_for_shallow_boundaries(mu_tenths, head, tail):
    """With ord(D) normalized to 2 - mu and a smooth critical curve, the
    threshold is at least (1 - mu)/(2 - mu)."""
    items = [(head[0], head[1], 1)] + list(tail)  # first curve smooth, d weight > 0
    b_total = sum(bw for bw, _, _ in items)
    mu = F(mu_tenths, 10) if b_total else F(0)
    d_total = sum(dw * m for _, dw, m in items)
    config = LocalConfig(
        tuple(
            LocalCurveData(
                f"C{i}",
                mu * F(bw, b_total) / m if b_total else F(0),
                (2 - mu) * F(dw, d_total),
                m,
            )
            for i, (bw, dw, m) in enumerate(items)
        )
    )
    assert config.mu == mu
    assert config.m_p == 2 - mu
    out = plc_threshold(config)
    if out.is_plc:
        return
    critical = next(c for c in config.curves if c.name == out.critical)
    if critical.mult_p != 1:
        return
    assert out.c >= (1 - mu) / (2 - mu)


@given(
    m2=small_pos,
    deg=small_pos,
    mu=mus,
)
@settings(max_examples=300)
def test_searched_witnesses_always_reverify(m2, deg, mu):
    w = freeness_witness(mu, m2, deg)
    if w is not None:
        assert freeness_at(mu, m2, deg, w).established
    w2 = very_ampleness_witness(m2, deg)
    if w2 is not None:
        assert very_ampleness(m2, deg, w2).established


def _grid_feasible_freeness(mu, m2, deg, steps=256):
    """Independent scan: some beta2 on a fine grid satisfies the system."""
    lo = 2 - mu
    b2 = lo
    step = F(1, 32)
    for _ in range(steps):
        if b2 * b2 < m2 and min_formula(mu, b2) <= deg:
            return True
        b2 += step
    return False


@given(mu=mus, m2=small_pos, deg=small_pos)
@settings(max_examples=300)
def test_freeness_search_is_complete_against_grid_scan(mu, m2, deg):
    found = freeness_witness(mu, m2, deg) is not None
    if _grid_feasible_freeness(mu, m2, deg):
        assert found
    if not found:
        assert not _grid_feasible_freeness(mu, m2, deg)


def _grid_feasible_global(m2, deg, steps=256):
    b2 = F(2)
    step = F(1, 32)
    for _ in range(steps):
        if 2 * b2 * b2 < m2 and 2 * b2 / (b2 - 1) <= deg:
            return True
        b2 += step
    return False


@given(
    m2=st.fractions(min_value=0, max_value=60, max_denominator=12),
    deg=st.fractions(min_value=0, max_value=16, max_denominator=12),
)
@settings(max_examples=300)
def test_global_witness_search_is_complete_against_grid_scan(m2, deg):
    found = very_ampleness_witness(m2, deg) is not None
    if _grid_feasible_global(m2, deg):
        assert found
    if not found:
        assert not _grid_feasible_global(m2, deg)


def _levels_below_sqrt(value, levels=24):
    """For k = 0..levels, the largest positive multiple of 2**-k whose square is < value."""
    out = []
    for k in range(levels + 1):
        lo, hi = 0, 2**k * (int(value) + 1)  # (lo / 2**k)^2 < value <= (hi / 2**k)^2, by bisection
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if F(mid, 2**k) ** 2 < value else (lo, mid)
        if lo > 0:
            out.append(F(lo, 2**k))
    return out


def _first_candidate(candidates, feasible):
    return next((b2 for b2 in candidates if feasible(b2)), None)


def _reference_corner(mu, deg):
    """The least beta2 whose degree bound fits under deg, or None."""
    if deg >= 2 - mu:
        return 2 - mu
    if mu < 1 and deg > 1:
        return max((1 - mu) * deg / (deg - 1), 2 - mu)
    return None


def _freeness_rule(mu, m2, deg):
    """The dyadic levels, then 2 - mu, then the degree corner; the first feasible beta2."""
    corner = _reference_corner(mu, deg)
    candidates = [c for c in _levels_below_sqrt(m2) if c >= 2 - mu] + [2 - mu]
    if corner is not None:
        candidates.append(corner)
    return _first_candidate(candidates, lambda b2: b2 * b2 < m2 and _bound_at(mu, b2) <= deg)


def _global_rule(m2, deg):
    candidates = [c for c in _levels_below_sqrt(m2 / 2) if c >= 2] + [F(2)]
    if deg > 2:
        candidates.append(max(F(2), deg / (deg - 2)))
    return _first_candidate(candidates, lambda b2: 2 * b2 * b2 < m2 and 2 * b2 / (b2 - 1) <= deg)


@given(
    mu=mus,
    m2=st.fractions(min_value=-1, max_value=60, max_denominator=1000),
    deg=st.fractions(min_value=0, max_value=16, max_denominator=1000),
)
@settings(max_examples=400, deadline=None)
def test_witness_searches_pick_the_first_feasible_candidate_of_the_dyadic_rule(mu, m2, deg):
    free = freeness_witness(mu, m2, deg)
    assert (free and free.beta2[0]) == _freeness_rule(mu, m2, deg)
    if free is not None:
        assert free.beta1 == (_bound_at(mu, free.beta2[0]),)
    global_ = very_ampleness_witness(m2, deg)
    assert (global_ and global_.beta2[0]) == _global_rule(m2, deg)
    if global_ is not None:
        assert global_.beta1 == (global_.beta2[0] / (global_.beta2[0] - 1),)


TINY = F(1, 10**12)
FINEST, CORNER = 2 + F(1, 2**24), 2 + F(1, 2**25)  # the finest level lies above this corner, level 23 below


@pytest.mark.parametrize(
    "search,rule,args,beta2",
    [
        # the corner 7/3 lies above every dyadic level below sqrt(M^2) ...
        (freeness_witness, _freeness_rule, (0, F(49, 9) + TINY, F(7, 4)), F(7, 3)),
        (very_ampleness_witness, _global_rule, (2 * F(49, 9) + TINY, F(7, 2)), F(7, 3)),
        # ... and fails M^2 > beta2^2 on the boundary itself
        (freeness_witness, _freeness_rule, (0, F(49, 9), F(7, 4)), None),
        (very_ampleness_witness, _global_rule, (2 * F(49, 9), F(7, 2)), None),
        # only the finest level, k = 24, lies at or above the corner
        (freeness_witness, _freeness_rule, (0, FINEST**2 + F(1, 2**60), CORNER / (CORNER - 1)), FINEST),
        (very_ampleness_witness, _global_rule, (2 * FINEST**2 + F(1, 2**60), 2 * CORNER / (CORNER - 1)), FINEST),
        # the corner is 2 - mu, or 2
        (freeness_witness, _freeness_rule, (F(1, 2), F(9, 4) + TINY, F(3, 2)), F(3, 2)),
        (very_ampleness_witness, _global_rule, (8 + TINY, 4), F(2)),
    ],
)
def test_witness_searches_at_the_edges_of_the_dyadic_rule(search, rule, args, beta2):
    witness = search(*args)
    assert (witness and witness.beta2[0]) == rule(*args) == beta2


def _bound_at(mu, beta2):
    """min(2 - mu, beta2 / (beta2 - (1 - mu))), written out afresh."""
    return min(2 - mu, beta2 / (beta2 - 1 + mu))


def _separation_holds(mu_p, mu_q, m2, dp, dq, dpq, w):
    (b2p, b2q), (b1p, b1q) = w.beta2, w.beta1
    return (
        b2p >= 2 - mu_p
        and b2q >= 2 - mu_q
        and m2 > b2p**2 + b2q**2
        and b1p >= _bound_at(mu_p, b2p)
        and b1q >= _bound_at(mu_q, b2q)
        and dp >= b1p
        and dq >= b1q
        and dpq >= b1p + b1q
    )


def _tangent_bound(mu_v, s):
    """(4 - mu_v)/2, relaxed to s/(s - (2 - mu_v)) below total multiplicity 2."""
    bound = (4 - mu_v) / 2
    if mu_v < 2 and s > 2 - mu_v:
        bound = min(bound, s / (s - (2 - mu_v)))
    return bound


def _tangent_holds(mu_p, mu_V, m2, dp, dz, w):
    (b2p, b2v), (b1,) = w.beta2, w.beta1
    bound = _tangent_bound(mu_p + mu_V, b2p + b2v)
    return (
        b2p >= 2 - mu_p
        and b2v >= 2 - mu_V
        and m2 > b2p**2 + b2v**2
        and b1 >= bound
        and dp >= b1
        and dz >= 2 * b1
    )


@given(mu_p=mus, mu_q=mus, m2=small_pos, dp=small_pos, dq=small_pos, dpq=small_pos)
@settings(max_examples=100, deadline=None)
def test_established_separation_degree_bounds_carry_a_reverifying_witness(mu_p, mu_q, m2, dp, dq, dpq):
    verdict = separation(mu_p, mu_q, 4 * m2, dp, dq, 2 * dpq)
    if verdict.established and verdict.rule == "separation/degree-bounds":
        assert verdict.witness is not None
        assert _separation_holds(mu_p, mu_q, 4 * m2, dp, dq, 2 * dpq, verdict.witness)


@given(mu_p=mus, mu_V=mus, m2=small_pos, dp=small_pos, dz=small_pos)
@settings(max_examples=100, deadline=None)
def test_established_tangent_degree_bounds_carry_a_reverifying_witness(mu_p, mu_V, m2, dp, dz):
    mu_p, mu_V = max(mu_p, mu_V), min(mu_p, mu_V)
    verdict = tangent_separation(mu_p, mu_V, 4 * m2, dp, 2 * dz)
    if verdict.established and verdict.rule == "tangent/degree-bounds":
        assert verdict.witness is not None
        assert _tangent_holds(mu_p, mu_V, 4 * m2, dp, 2 * dz, verdict.witness)


# ---------------------------------------------------------------------------
# the two-point and tangent searches against the thirteen-level walk they replace


def _reference_grid(lo, hi):
    """lo, then lo + (hi - lo) * j/2**k for odd j and k = 1..6, then hi; repeats dropped."""
    if hi < lo:
        return []
    inner = [lo + (hi - lo) * F(j, 2**k) for k in range(1, 7) for j in range(1, 2**k, 2)]
    return list(dict.fromkeys([lo, *inner, hi]))


def _reference_separation(mu_p, mu_q, m2, dp, dq, dpq):
    """The grid walk over all thirteen levels k = 0..12 below each square root, reading the finest."""
    corner_p, corner_q = _reference_corner(mu_p, dp), _reference_corner(mu_q, dq)
    if corner_p is None or corner_q is None:
        return None
    tops = _levels_below_sqrt(m2 - corner_q**2, levels=12)
    if not tops:
        return None
    for b2p in _reference_grid(corner_p, tops[-1]):
        bound_p = _bound_at(mu_p, b2p)
        if bound_p > dp:
            continue
        for b2q in dict.fromkeys(_levels_below_sqrt(m2 - b2p**2, levels=12)[-1:] + [corner_q]):
            if b2q < corner_q or b2p**2 + b2q**2 >= m2:
                continue
            bound_q = _bound_at(mu_q, b2q)
            if bound_q <= dq and bound_p + bound_q <= dpq:
                return (b2p, b2q), (bound_p, bound_q)
    return None


def _reference_tangent(mu_p, mu_V, m2, dp, dz):
    cap, lower_p, lower_v = min(dp, dz / 2), 2 - mu_p, 2 - mu_V
    if cap <= 0:
        return None
    tops = _levels_below_sqrt(m2 - lower_v**2, levels=12)
    if not tops:
        return None
    for b2p in _reference_grid(lower_p, tops[-1]):
        for b2v in dict.fromkeys(_levels_below_sqrt(m2 - b2p**2, levels=12)[-1:] + [lower_v]):
            if b2v < lower_v or b2p**2 + b2v**2 >= m2:
                continue
            bound = _tangent_bound(mu_p + mu_V, b2p + b2v)
            if 0 < bound <= cap:
                return (b2p, b2v), (bound,)
    return None


def _pair(witness):
    return None if witness is None else (witness.beta2, witness.beta1)


# How M^2 is drawn from the two lowest admissible beta2 values lo_1 and lo_2:
# freely; next to lo_1^2 + lo_2^2, where the searches start to find witnesses;
# or as lo_2^2 + (a/2**12)^2 or lo_1^2 + (a/2**12)^2, so that the top square
# root, or the first inner one, is exactly a multiple of 2**-12 and the strict
# "square below" must step one down from it.
shapes = st.sampled_from(["free", "near-critical", "square-top", "square-inner"])
slacks = st.sampled_from([F(0), F(1, 10**12), -F(1, 10**12), F(1, 2**24), F(1, 4**12)]) | st.fractions(
    min_value=-1, max_value=4, max_denominator=1000
)
level_12 = st.integers(min_value=1, max_value=3 * 2**12).map(lambda a: F(a, 2**12) ** 2)


def _square(shape, free, lo_1, lo_2, slack, level_square):
    if shape == "free":
        return free
    if shape == "near-critical":
        return lo_1**2 + lo_2**2 + slack
    return (lo_2 if shape == "square-top" else lo_1) ** 2 + level_square


@given(
    mu_p=mus,
    mu_q=mus,
    dp=small_pos,
    dq=small_pos,
    dpq=st.fractions(min_value=0, max_value=16, max_denominator=12),
    shape=shapes,
    free=st.fractions(min_value=-1, max_value=40, max_denominator=1000),
    slack=slacks,
    level_square=level_12,
)
@settings(max_examples=150, deadline=None)
def test_separation_witness_equals_the_thirteen_level_walk(mu_p, mu_q, dp, dq, dpq, shape, free, slack, level_square):
    corner_p, corner_q = _reference_corner(mu_p, dp), _reference_corner(mu_q, dq)
    assume(shape == "free" or (corner_p is not None and corner_q is not None))
    m2 = _square(shape, free, corner_p, corner_q, slack, level_square)
    assert _pair(separation_witness(mu_p, mu_q, m2, dp, dq, dpq)) == _reference_separation(mu_p, mu_q, m2, dp, dq, dpq)


@given(
    mu_p=mus,
    mu_V=mus,
    dp=small_pos,
    dz=st.fractions(min_value=-1, max_value=16, max_denominator=12),
    shape=shapes,
    free=st.fractions(min_value=-1, max_value=40, max_denominator=1000),
    slack=slacks,
    level_square=level_12,
)
@settings(max_examples=150, deadline=None)
def test_tangent_witness_equals_the_thirteen_level_walk(mu_p, mu_V, dp, dz, shape, free, slack, level_square):
    mu_p, mu_V = max(mu_p, mu_V), min(mu_p, mu_V)
    m2 = _square(shape, free, 2 - mu_p, 2 - mu_V, slack, level_square)
    assert _pair(tangent_witness(mu_p, mu_V, m2, dp, dz)) == _reference_tangent(mu_p, mu_V, m2, dp, dz)


# ---------------------------------------------------------------------------
# one evaluation, read to the end or up to the first failure

_RELATIONS = {">": operator.gt, ">=": operator.ge}
_positive = st.fractions(min_value="1/8", max_value=6, max_denominator=8)
# the branch points of the rules (mu at 0, 1, 2 and 3) and values between them
_mus = st.one_of(
    st.sampled_from([F(0), F(1), F(2), F(3)]), st.fractions(min_value=0, max_value="7/2", max_denominator=4)
)
_degrees = st.one_of(st.sampled_from([F(1), F(2)]), st.fractions(min_value=-1, max_value=8, max_denominator=4))


@st.composite
def rule_inputs(draw):
    """(rule, arguments) for one of the four rules, with no witness, or with
    one whose beta2 may sit exactly on its floor 2 - mu (beta2 = 1 for the
    very-ample rule, where beta2/(beta2 - 1) is undefined)."""
    kind = draw(st.sampled_from(["free", "separate", "tangent", "very-ample"]))
    m2 = draw(st.fractions(min_value=-1, max_value=40, max_denominator=4))
    given = draw(st.booleans())

    def beta2(mu):
        return draw(st.one_of(st.just(2 - mu), _positive)) if mu < 2 else draw(_positive)

    if kind == "free":
        mu = draw(_mus)
        witness = BetaWitness.single(beta2(mu), draw(_positive), role="at-p") if given else None
        return criteria.freeness_rule, (mu, m2, draw(_degrees), witness)
    if kind == "separate":
        mp, mq = draw(_mus), draw(_mus)
        witness = BetaWitness.pair(beta2(mp), beta2(mq), draw(_positive), draw(_positive)) if given else None
        return criteria.separation_rule, (mp, mq, m2, draw(_degrees), draw(_degrees), draw(_degrees), witness)
    if kind == "tangent":
        mp, mv = sorted((draw(_mus), draw(_mus)), reverse=True)
        witness = BetaWitness((beta2(mp), beta2(mv)), (draw(_positive),)) if given else None
        return criteria.tangent_rule, (mp, mv, m2, draw(_degrees), draw(_degrees), witness)
    b2 = draw(st.one_of(st.sampled_from([F(1), F(2)]), _positive))
    witness = BetaWitness.single(b2, draw(_positive)) if given else None
    return criteria.very_ample_rule, (m2, draw(_degrees), witness)


@given(rule_inputs())
@settings(max_examples=400, deadline=None)
def test_reading_up_to_the_first_failure_decides_as_the_whole_trace(case):
    """``holding`` stops at the first failing condition; it establishes
    exactly when ``explain`` does, and then read every condition that
    ``explain`` traces.  Each condition's ``holds`` is its relation."""
    rule, args = case
    verdict = criteria.explain(rule(*args))
    held = criteria.holding(rule(*args))
    assert (held is not None) == verdict.established
    assert all(line.holds == _RELATIONS[line.rel](line.lhs, line.rhs) for line in verdict.trace)
    if held is not None:
        assert criteria.trace_lines(held) == verdict.trace


# ---------------------------------------------------------------------------
# goal kinds


@pytest.mark.parametrize("name", sorted(criteria.GOAL_KINDS))
def test_each_goal_kind_states_the_argument_order_of_its_rule_and_checker(name):
    """Rule and checker take (*mus, m2, *degrees, witness), as the table says."""
    kind = criteria.GOAL_KINDS[name]
    rule = inspect.signature(getattr(criteria, kind.rule)).parameters
    checker = inspect.signature(getattr(criteria, kind.checker)).parameters
    assert list(rule.values()) == list(checker.values())
    names = list(rule)
    assert len(names) == len(kind.mus) + 1 + len(kind.degrees) + 1
    assert names[: len(kind.mus)] == list(kind.mus)
    assert (names[len(kind.mus)], names[-1]) == ("m2", "witness")
