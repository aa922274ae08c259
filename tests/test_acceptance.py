"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

from conftest import grid_is_nef, grid_min_degree, random_nef_coeffs, round_down
from qreider.cones import DegreeFilter, HirzebruchFamily, is_nef, min_degree
from qreider.criteria import (
    BetaWitness,
    freeness_at,
    freeness_witness,
    min_formula,
    separation,
    tangent_separation,
    threshold_very_ampleness,
    very_ampleness,
    very_ampleness_witness,
)
from qreider.lattice import IntersectionLattice, hirzebruch_lattice
from qreider.plc import LocalConfig, LocalCurveData, plc_threshold
from qreider.search import hirzebruch_claim, mu_weights
from qreider.surface import (
    Curve,
    PointSpec,
    SurfaceModel,
    TangentSpec,
    verify_adjoint_blowup_identity,
)


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


def _is_dyadic(q: F) -> bool:
    d = q.denominator
    return d & (d - 1) == 0


# ---------------------------------------------------------------------------
# 1. base-point-freeness of the hyperplane family, n = 1..10


def test_criterion_1_claim_part_one():
    start = time.monotonic()
    ok = True
    stated = BetaWitness.single(3, F(3, 2), role="at-p")
    for n in range(1, 11):
        r = hirzebruch_claim(n, 1)
        free = r.checks[0]
        eps = free.report.params.get("eps")
        ok = ok and r.ok and free.report.found
        ok = ok and free.report.verdict.rule == "freeness/degree-bound"
        ok = ok and free.report.verdict.witness == stated
        ok = ok and eps is not None and _is_dyadic(eps) and eps <= F(1, 4)
        ok = ok and r.chi == n + 2 and r.h_dot_g == 0 and r.h_dot_f == 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(1, "freeness of |G + nF| for n = 1..10", ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. tangent separation of the next hyperplane class, n = 1..10


def test_criterion_2_claim_part_two():
    start = time.monotonic()
    ok = True
    for n in range(1, 11):
        r = hirzebruch_claim(n, 2)
        ok = ok and r.ok and r.m == n + 1
        tangent = next(c for c in r.checks if c.name.startswith("tangent separation"))
        report = tangent.report
        ok = ok and report.found and report.verdict.rule == "tangent/degree-bounds"
        eps = report.params["eps"]
        ok = ok and _is_dyadic(eps)
        w = report.verdict.witness
        ok = ok and w.beta2 == (F(2), F(2)) and w.beta1 == (F(2) / (2 - eps),)
        values = {line.lhs for line in report.verdict.trace} | {
            line.rhs for line in report.verdict.trace
        }
        ok = ok and (2 + eps) in values  # M.F
        ok = ok and (3 - eps * n) in values  # M.G
        ok = ok and ((2 + eps) * (2 * n + 6 - eps * n)) in values  # M^2
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(2, "tangent separation of |G + (n+1)F| for n = 1..10", ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. non-nefness witnesses


def test_criterion_3_non_nef_adjoint_differences():
    ok = True
    for n in range(3, 11):
        lat = hirzebruch_lattice(n)
        cone = HirzebruchFamily(n, lat)
        l1 = lat.divisor_class((3, 2 * n + 2))
        ok = ok and l1.intersect(lat.basis_class("G")) == 2 - n < 0
        ok = ok and not is_nef(l1, cone)
        ok = ok and hirzebruch_claim(n, 1).l_dot_g == 2 - n
    for n in range(4, 11):
        lat = hirzebruch_lattice(n)
        cone = HirzebruchFamily(n, lat)
        l2 = lat.divisor_class((3, 2 * n + 3))
        ok = ok and l2.intersect(lat.basis_class("G")) == 3 - n < 0
        ok = ok and not is_nef(l2, cone)
        r = hirzebruch_claim(n, 2)
        ok = ok and r.l_dot_g == 3 - n and not r.l_nef and r.ok
    _report(3, "non-nef adjoint differences reported exactly", ok)


# ---------------------------------------------------------------------------
# 4. the irrational-threshold boundary


def test_criterion_4_threshold_boundary():
    ok = True
    reject = threshold_very_ampleness(100, F(341, 100))
    accept = threshold_very_ampleness(100, F(342, 100))
    ok = ok and not reject.established and accept.established
    ok = ok and accept.witness is not None
    ok = ok and very_ampleness(100, F(342, 100), accept.witness).established

    rng = random.Random(41)
    accepted = rejected = 0
    for _ in range(600):
        m2 = F(rng.randint(900, 4000), 100)
        deg = F(rng.randint(300, 1200), 100)
        verdict = threshold_very_ampleness(m2, deg)
        expected = m2 > 6 and (m2 - 6) ** 2 > 32 and deg > 2 and (deg - 2) ** 2 > 2
        ok = ok and verdict.established == expected
        if verdict.established:
            accepted += 1
            ok = ok and verdict.witness is not None
            ok = ok and very_ampleness(m2, deg, verdict.witness).established
            ok = ok and very_ampleness_witness(m2, deg) is not None
        else:
            rejected += 1
    ok = ok and accepted >= 300 and rejected >= 30
    _report(
        4,
        "threshold boundary 341/100 vs 342/100 and witness emission",
        ok,
        f"{accepted} accepted, {rejected} rejected",
    )


# ---------------------------------------------------------------------------
# 5. identity suite, >= 1000 randomized runs each


def _random_blowup_instance(rng: random.Random):
    g12 = F(rng.randint(-2, 2))
    lat = IntersectionLattice(
        ("a", "b"), ((F(rng.randint(-3, 3)), g12), (g12, F(rng.randint(-3, 3))))
    )
    curves = {
        "C1": Curve("C1", lat.divisor_class((rng.randint(-2, 2), rng.randint(-2, 2)))),
        "C2": Curve("C2", lat.divisor_class((rng.randint(-2, 2), rng.randint(-2, 2)))),
    }
    points = {"p": PointSpec("p", {"C1": rng.randint(0, 3), "C2": rng.randint(0, 3)})}
    model = SurfaceModel(
        lat, lat.divisor_class((rng.randint(-3, 1), rng.randint(-3, 1))), F(1), curves, points, {}
    )
    den = rng.randint(1, 8)
    b = model.divisor({"C1": F(rng.randint(0, den - 1), den), "C2": F(rng.randint(0, den - 1), den)})
    total = model.divisor({"C1": rng.randint(-3, 4), "C2": rng.randint(-3, 4)})
    return model, b, total - b


def test_criterion_5_identity_suite():
    start = time.monotonic()
    rng = random.Random(5)
    ok = True

    for _ in range(1000):
        model, b, m = _random_blowup_instance(rng)
        ok = ok and verify_adjoint_blowup_identity(model, b, m, "p")

    model = None
    lat = hirzebruch_lattice(2)
    rounding_lat = IntersectionLattice(("u", "v", "w"), ((0, 1, 0), (1, 0, 0), (0, 0, -1)))
    curves = {c: Curve(c, rounding_lat.basis_class(l)) for c, l in (("A", "u"), ("B", "v"), ("C", "w"))}
    rmodel = SurfaceModel(rounding_lat, rounding_lat.zero(), 1, curves, {}, {})
    for _ in range(1000):
        coeffs = {c: F(rng.randint(-40, 40), rng.randint(1, 9)) for c in ("A", "B", "C")}
        d = rmodel.divisor(coeffs)
        ok = ok and d.round_up() == -round_down(-d)
        frac = d - round_down(d)
        ok = ok and all(0 <= frac.coeff(c) < 1 for c in coeffs)
        ok = ok and all(
            round_down(d).coeff(c) <= d.coeff(c) <= d.round_up().coeff(c) for c in coeffs
        )

    for _ in range(1000):
        x = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2)]
        y = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2)]
        z = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2)]
        s, t = F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4))
        a, b2, c = lat.divisor_class(x), lat.divisor_class(y), lat.divisor_class(z)
        ok = ok and a.intersect(b2) == b2.intersect(a)
        ok = ok and (s * a + t * b2).intersect(c) == s * a.intersect(c) + t * b2.intersect(c)

    tlat = IntersectionLattice(("u", "v"), ((0, 1), (1, 0)))
    tcurves = {"C1": Curve("C1", tlat.basis_class("u")), "C2": Curve("C2", tlat.basis_class("v"))}
    for _ in range(1000):
        m1, m2 = rng.randint(1, 4), rng.randint(0, 4)
        v1, v2 = rng.randint(0, m1), rng.randint(0, m2)
        tpoints = {"p": PointSpec("p", {"C1": m1, "C2": m2})}
        ttans = {"t": TangentSpec("t", "p", {"C1": v1, "C2": v2}, {})}
        tmodel = SurfaceModel(tlat, tlat.zero(), 1, tcurves, tpoints, ttans)
        d = tmodel.divisor(
            {"C1": F(rng.randint(0, 24), 8), "C2": F(rng.randint(0, 24), 8)}
        )
        weights = mu_weights(tmodel, "tangent", ("t",))
        mu_p, mu_V = (sum((v * w(c) for c, v in d.coeffs.items()), F(0)) for w in weights)
        ok = ok and mu_p <= mu_p + mu_V <= 2 * mu_p

    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(5, "blow-up, rounding, pairing, and order identities (4 x 1000)", ok, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. cone oracle equivalence


def test_criterion_6_cone_oracle_equivalence():
    rng = random.Random(6)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 5)
        lat = hirzebruch_lattice(n)
        cone = HirzebruchFamily(n, lat)
        x = F(rng.randint(-8, 12), rng.randint(1, 4))
        y = F(rng.randint(-8, 30), rng.randint(1, 4))
        ok = ok and is_nef(lat.divisor_class((x, y)), cone) == grid_is_nef(x, y, n)

    for _ in range(1000):
        n = rng.randint(1, 5)
        lat = hirzebruch_lattice(n)
        cone = HirzebruchFamily(n, lat)
        x, y = random_nef_coeffs(rng, n)
        m = lat.divisor_class((x, y))
        ok = ok and min_degree(m, cone, DegreeFilter.ALL) == grid_min_degree(
            x, y, n, include_fiber=True
        )
        ok = ok and min_degree(m, cone, DegreeFilter.THROUGH_POINT) == grid_min_degree(
            x, y, n, include_fiber=True
        )
        ok = ok and min_degree(m, cone, DegreeFilter.CONTAINING_Z) == grid_min_degree(
            x, y, n, include_fiber=False
        )
    _report(6, "nef test and min-degree reduction match the grid oracle", ok)


# ---------------------------------------------------------------------------
# 7. checker coherence


def _random_mu(rng: random.Random) -> F:
    return F(rng.randint(0, 15), 8)


def test_criterion_7_checker_coherence():
    rng = random.Random(7)
    ok = True

    # monotonicity in the square and every degree input
    established = 0
    for _ in range(1000):
        mu = _random_mu(rng)
        m2 = F(rng.randint(1, 400), rng.randint(1, 4))
        deg = F(rng.randint(1, 64), rng.randint(1, 8))
        bump_sq = F(rng.randint(0, 40), rng.randint(1, 4))
        bump_deg = F(rng.randint(0, 40), rng.randint(1, 4))
        v = freeness_at(mu, m2, deg)
        if v.established:
            established += 1
            ok = ok and freeness_at(mu, m2 + bump_sq, deg + bump_deg, v.witness).established
            ok = ok and freeness_at(mu, m2 + bump_sq, deg + bump_deg).established
    ok = ok and established >= 200

    established = 0
    for _ in range(1000):
        mu_p, mu_q = _random_mu(rng), _random_mu(rng)
        m2 = F(rng.randint(1, 600), rng.randint(1, 4))
        dp, dq, dpq = (F(rng.randint(1, 80), rng.randint(1, 8)) for _ in range(3))
        v = separation(mu_p, mu_q, m2, dp, dq, dpq)
        if v.established:
            established += 1
            bump = F(rng.randint(0, 30), rng.randint(1, 4))
            ok = ok and separation(
                mu_p, mu_q, m2 + bump, dp + bump, dq + bump, dpq + bump, v.witness
            ).established
    ok = ok and established >= 200

    established = 0
    for _ in range(1000):
        mu_p = _random_mu(rng)
        mu_V = F(rng.randint(0, int(mu_p * 8)), 8) if mu_p else F(0)
        m2 = F(rng.randint(1, 600), rng.randint(1, 4))
        dp, dz = (F(rng.randint(1, 80), rng.randint(1, 8)) for _ in range(2))
        v = tangent_separation(mu_p, mu_V, m2, dp, dz)
        if v.established:
            established += 1
            bump = F(rng.randint(0, 30), rng.randint(1, 4))
            ok = ok and tangent_separation(
                mu_p, mu_V, m2 + bump, dp + bump, dz + bump, v.witness
            ).established
    ok = ok and established >= 200

    # scaling coherence of the global rule
    established = 0
    for _ in range(1000):
        m2 = F(rng.randint(30, 500), rng.randint(1, 4))
        deg = F(rng.randint(8, 80), rng.randint(1, 4))
        q = 1 + F(rng.randint(0, 12), 4)
        v = very_ampleness(m2, deg)
        if v.established:
            established += 1
            ok = ok and very_ampleness(q * q * m2, q * deg).established
            ok = ok and very_ampleness(q * q * m2, q * deg, v.witness).established
    ok = ok and established >= 300

    # the global witness certifies both pointwise rules at multiplicity zero
    produced = 0
    for _ in range(1000):
        m2 = F(rng.randint(33, 400), 4)
        deg = F(rng.randint(9, 60), 4)
        w = very_ampleness_witness(m2, deg)
        if w is None:
            continue
        produced += 1
        b2, b1 = w.beta2[0], w.beta1[0]
        pair = BetaWitness.pair(b2, b2, b1, b1)
        ok = ok and separation(0, 0, m2, deg, deg, deg, pair).established
        tan = BetaWitness((b2, b2), (b1,), ("at-p", "at-V"), ("global",))
        ok = ok and tangent_separation(0, 0, m2, deg, deg, tan).established
    ok = ok and produced >= 300

    # the two branches of the degree-bound minimum
    for _ in range(1000):
        mu = F(rng.randint(0, 15), 8)
        b2 = 2 - mu + F(rng.randint(0, 40), 8)
        value = min_formula(mu, b2)
        if mu >= 1:
            ok = ok and value == 2 - mu
        else:
            ok = ok and value == b2 / (b2 - (1 - mu))
            ok = ok and value <= 2 - mu and ((value == 2 - mu) == (b2 == 2 - mu))

    # threshold exactness and the shallow-boundary lower bound
    for _ in range(1000):
        k = rng.randint(1, 4)
        curves = tuple(
            LocalCurveData(
                f"C{i}",
                F(rng.randint(0, 9), 10),
                F(rng.randint(0, 24), 8),
                rng.randint(1, 3),
            )
            for i in range(k)
        )
        config = LocalConfig(curves)
        out = plc_threshold(config)
        if out.is_plc:
            ok = ok and all(c.b + c.d <= 1 for c in curves)
            continue
        c = out.c
        ok = ok and 0 < c < 1
        ok = ok and max(cur.b + c * cur.d for cur in curves) == 1
        lam = c * F(rng.randint(1, 15), 16)
        ok = ok and all(cur.b + lam * cur.d <= 1 for cur in curves)
        lam = c * (1 + F(rng.randint(1, 16), 16))
        ok = ok and any(cur.b + lam * cur.d > 1 for cur in curves)

    checked = 0
    for _ in range(1000):
        mu = F(rng.randint(0, 9), 10)
        k = rng.randint(1, 4)
        weights = [(rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 3)) for _ in range(k)]
        weights[0] = (weights[0][0], max(weights[0][1], 1), 1)
        b_total = sum(bw for bw, _, _ in weights)
        if b_total == 0:
            mu = F(0)
        d_total = sum(dw * m for _, dw, m in weights)
        config = LocalConfig(
            tuple(
                LocalCurveData(
                    f"C{i}",
                    mu * F(bw, b_total) / m if b_total else F(0),
                    (2 - mu) * F(dw, d_total),
                    m,
                )
                for i, (bw, dw, m) in enumerate(weights)
            )
        )
        out = plc_threshold(config)
        if out.is_plc:
            continue
        critical = next(c for c in config.curves if c.name == out.critical)
        if critical.mult_p != 1 or mu >= 1:
            continue
        checked += 1
        ok = ok and out.c >= (1 - mu) / (2 - mu)
    ok = ok and checked >= 200

    _report(7, "monotonicity, scaling, witness transfer, minimum branches, thresholds", ok)


# ---------------------------------------------------------------------------
# 8. search / verify round-trip


def test_criterion_8_search_verify_round_trip():
    rng = random.Random(8)
    ok = True
    found = 0
    for _ in range(1000):
        mu = F(rng.randint(0, 15), 8)
        m2 = F(rng.randint(1, 300), rng.randint(1, 4))
        deg = F(rng.randint(1, 48), rng.randint(1, 8))
        w = freeness_witness(mu, m2, deg)
        if w is not None:
            found += 1
            ok = ok and freeness_at(mu, m2, deg, w).established
    ok = ok and found >= 300

    found = 0
    for _ in range(1000):
        m2 = F(rng.randint(1, 500), rng.randint(1, 4))
        deg = F(rng.randint(1, 60), rng.randint(1, 8))
        w = very_ampleness_witness(m2, deg)
        if w is not None:
            found += 1
            ok = ok and very_ampleness(m2, deg, w).established
    ok = ok and found >= 200

    # parameter searches: every reported set replays to an established verdict
    for n in (1, 2, 5, 10):
        for part in (1, 2):
            claim = hirzebruch_claim(n, part)
            ok = ok and claim.ok
            for chk in claim.checks:
                ok = ok and chk.report.found and chk.report.verdict.established
                for name, value in chk.report.params.items():
                    ok = ok and 0 < value < 1
    _report(8, "witness and parameter-set round-trips", ok, f"{found} global witnesses")
