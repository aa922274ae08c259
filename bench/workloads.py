"""The four benchmark workloads: seeded inputs, one operation, its check.

Each workload builds one *round* of operations from ``--seed``; a run repeats
whole rounds, so every run attempts the same mix.  The library sees only the
generated inputs.  ``run`` is the timed call into the library; ``check``
compares its output with the oracles in ``oracles.py`` (never with a stored
copy of earlier output) and returns the broken rules, each of which counts
the operation as failed.  An operation marked ``known_fault`` may hit the
fault named in the README: when every rule it breaks is one of
``FAULT_RULES``, its failure is counted but does not make the run incorrect.

Every call resolves the library function through its module at call time
(``lib.criteria.freeness_at``), so the traced run sees the same names the
library's own callers see.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import jsonschema
import oracles as orc

Q = Fraction


@dataclass
class Op:
    kind: str
    args: tuple
    expect: str = ""  # feasible | infeasible | "" (no expectation)
    known_fault: bool = False
    meta: dict = field(default_factory=dict)


def _rq(rng: random.Random, lo, hi, den: int = 16) -> Fraction:
    """A seeded rational in [lo, hi] with denominator dividing ``den``."""
    lo_n, hi_n = int(Q(lo) * den), int(Q(hi) * den)
    return Q(rng.randint(lo_n, hi_n), den)


def _slack(rng: random.Random) -> Fraction:
    """A clear relative slack, 10% to 50%."""
    return _rq(rng, Q(1, 10), Q(1, 2), 20)


NEAR = Q(1, 10**6)  # near-critical relative slack

# The rules the named separation/tangent fault breaks: ``established`` from a
# trace of necessary conditions, with no witness.
NO_WITNESS = "established without a witness that re-verifies"
ON_INFEASIBLE = "established on an oracle-infeasible input"
FAULT_RULES = frozenset({NO_WITNESS, ON_INFEASIBLE})


def _witness(verdict):
    w = verdict.witness
    return (tuple(w.beta2), tuple(w.beta1)) if w is not None else None


# ---------------------------------------------------------------------------
# claim-sweep


CLAIM_N = range(1, 51)

# Boundary decompositions L = B + M of L = 3G + (m+n+2)F used by the claim,
# as (B.G, B.F, M.G-coefficient, M.F-coefficient) from (eps, alpha, m, n).
_FAMILIES = {
    "section": lambda e, a, m, n: (1 - e, Q(0), 2 + e, Q(m + n + 2)),
    "fiber": lambda e, a, m, n: (1 - e, 1 - a, 2 + e, m + n + 1 + a),
}

# Per check: family, rule, marked points (with which curves pass through
# them) and the curve classes each degree is minimised over.
_ON, _OFF = ("G", "F", "C"), ("F", "C")
_CLAIM_CHECKS = {
    "freeness": ("section", "free", [("q", _OFF), ("pG", _ON)]),
    "separation on a fiber off the section": ("fiber", "separate", ("qF", "qF2", _OFF, _OFF, ("F", "C"))),
    "separation along the section": ("section", "separate", ("pG", "pG2", _ON, _ON, ("G", "C"))),
    "separation of the fiber-section point from a fiber point": (
        "fiber",
        "separate",
        ("pFG", "qF", _ON, _OFF, ("F", "C")),
    ),
    "separation of a section point from a general point": ("section", "separate", ("pG", "q", _ON, _OFF, ("C",))),
    "tangent separation at the fiber-section point": ("section", "tangent", ("pFG", _ON, ("G", "C"))),
}
_PART1_CHECKS = {"freeness"}

# multiplicity of B = bG*G + bF*F at each marked point (curves through it)
_POINT_CURVES = {"pFG": ("G", "F"), "pG": ("G",), "pG2": ("G",), "qF": ("F",), "qF2": ("F",), "q": ()}


def _mult(point, bg, bf):
    curves = _POINT_CURVES[point]
    return (bg if "G" in curves else 0) + (bf if "F" in curves else 0)


class ClaimSweep:
    name = "claim-sweep"

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        ops = [Op("claim", (n, part)) for part in (1, 2) for n in CLAIM_N]
        random.Random(seed).shuffle(ops)
        self.ops = ops

    @staticmethod
    def warmup(lib, workdir: Path) -> None:
        lib.search.hirzebruch_claim(1, 2)

    def run(self, op: Op):
        return self.lib.search.hirzebruch_claim(*op.args)

    def check(self, op: Op, claim) -> list[str]:
        n, part = op.args
        m = n if part == 1 else n + 1
        bad = []
        if not claim.ok:
            bad.append("claim not ok")
        if claim.chi != 2 * m - n + 2:
            bad.append(f"chi {claim.chi} differs from the closed form")
        if claim.h_dot_g != orc.dot_g(n, 1, m) or claim.h_dot_f != 1:
            bad.append("H.G or H.F differs from the closed form")
        if claim.l_dot_g != orc.dot_g(n, 3, m + n + 2):
            bad.append("L.G differs from the closed form")
        expected = _PART1_CHECKS if part == 1 else set(_CLAIM_CHECKS)
        names = {c.name for c in claim.checks}
        if names != expected:
            bad.append(f"checks {sorted(names)} differ from {sorted(expected)}")
        for chk in claim.checks:
            if chk.name in _CLAIM_CHECKS and chk.report.found:
                bad += [f"{chk.name}: {why}" for why in self._recheck(chk, n, m)]
        return bad

    def _recheck(self, chk, n, m) -> list[str]:
        family, rule, spec = _CLAIM_CHECKS[chk.name]
        params = dict(chk.report.params)
        eps, alpha = params.get("eps"), params.get("alpha")
        wanted = {"eps"} | ({"alpha"} if family == "fiber" else set())
        if set(params) != wanted:
            return [f"parameters {sorted(params)} differ from {sorted(wanted)}"]
        if not all(0 < v < 1 for v in params.values()):
            return ["a found parameter lies outside (0, 1)"]
        bg, bf, ma, mb = _FAMILIES[family](eps, alpha, m, n)
        m2 = orc.square(n, ma, mb)
        if not (orc.is_nef(n, ma, mb) and m2 > 0):
            return ["M is not nef and big"]
        w = _witness(chk.report.verdict)
        if w is None:
            return ["established without a witness"]
        beta2, beta1 = w

        def deg(curves):
            return orc.min_degree(n, ma, mb, curves)

        if rule == "free":
            ok = all(
                orc.freeness_holds(_mult(p, bg, bf), m2, deg(curves), beta2[0], beta1[0]) for p, curves in spec
            )
        elif rule == "separate":
            p, q, cp, cq, cpq = spec
            ok = orc.separation_holds(
                _mult(p, bg, bf), _mult(q, bg, bf), m2, deg(cp), deg(cq), deg(cpq), beta2, beta1
            )
        else:
            p, cp, cz = spec
            ok = orc.tangent_holds(_mult(p, bg, bf), bg, m2, deg(cp), deg(cz), beta2, beta1)
        return [] if ok else ["the witness does not re-verify against the recomputed M^2 and degrees"]


# ---------------------------------------------------------------------------
# documents shared by search-exhaust and doc-scale


def _class_text(a, b) -> str:
    parts = []
    for coeff, label in ((a, "G"), (b, "F")):
        if coeff:
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            parts.append((sign, label if mag == 1 else f"{mag} {label}"))
    if not parts:
        return "0 G"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {body}" for s, body in parts[1:])


def _surface_lines(n: int) -> list[str]:
    return [
        "surface",
        "basis = G F",
        f"gram = [[-{n}, 1], [1, 0]]",
        f"K = -2G - {n + 2}F",
        "chi_O = 1",
    ]


# ---------------------------------------------------------------------------
# search-exhaust

SEARCH_GOALS = (
    "goal=free point=p",
    "goal=separate p=p q=q",
    "goal=tangent tangent=v",
    "goal=very-ample",
)
# Each goal's documents as (n, upper end of e's domain).  A narrower domain
# drops the schedule's first values of e, so the documents walk 552, 384 or
# 288 candidates (8, 4 and 8 per round): op_p50_ms falls in the middle group
# and op_p90_ms inside the largest, not at an edge between two groups.  The
# first family has M.F < 0 on the box, the rest M.G < 0.
SEARCH_FAMILIES = ((1, Q(1)), (2, Q(1, 4096)), (3, Q(1, 4096)), (4, Q(1, 256)), (6, Q(1)))


def _affine(c0, c1, name) -> str:
    """(c0 - c1 name) as document text."""
    if not c1:
        return f"({c0})"
    return f"({c0} - {c1} {name})"


def _search_document(rng: random.Random, goal: str, n: int, e_hi: Fraction, fiber_negative: bool) -> tuple[str, dict]:
    """A two-parameter family whose M is not nef on the closed box [0,1]^2.

    The domain of e is (0, e_hi) with e_hi <= 1, and f's is (0, 1).
    B = (g0 - g1 e)G + (h0 - h1 f)F stays in [0, 1) on the open box, and
    M = L - B has M.G (or, when L has no G part, M.F) negative at all four
    corners, so no candidate can be nef and the search must report
    found=False whatever its schedule.
    """
    g0, h0 = Q(1), Q(1)
    g1, h1 = _rq(rng, Q(1, 8), 1, 8), _rq(rng, Q(1, 8), 1, 8)
    if fiber_negative:
        a, b = 0, rng.randint(1, 9)  # M.F = -g0 + g1 e, negative on the box when g1 < 1
    else:
        a = rng.randint(2, 5)
        b = rng.randint(0, n * (a - 1))  # M.G at (e, f) = (0, 1) is b - h0 + h1 - n(a - g0)
    corners = []
    for e in (0, 1):
        for f in (0, 1):
            ma, mb = a - (g0 - g1 * e), b - (h0 - h1 * f)
            corners.append((orc.dot_g(n, ma, mb), orc.dot_f(n, ma, mb)))
    proof = "M.F" if all(mf < 0 for _, mf in corners) else "M.G" if all(mg < 0 for mg, _ in corners) else ""
    lines = _surface_lines(n) + [
        "",
        "curves",
        "G = G",
        "F = F",
        "",
        "cone",
        f"hirzebruch = {n}",
        "",
        "points",
        "p = G:1 F:1",
        "q = F:1",
        "",
        "tangents",
        "v = p G:1:z F:0",
        "",
        "params",
        f"e = (0, {e_hi})",
        "f = (0, 1)",
        "",
        "divisors",
        f"L = {_class_text(a, b)}",
        f"B = {_affine(g0, g1, 'e')}G + {_affine(h0, h1, 'f')}F",
        "M = L - B",
        "",
        "queries",
        f"search {goal} B=B M=M",
    ]
    return "\n".join(lines) + "\n", {"n": n, "L": (a, b), "proof": proof}


class SearchExhaust:
    name = "search-exhaust"

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        rng = random.Random(seed)
        ops = []
        for goal in SEARCH_GOALS:
            for i, (n, e_hi) in enumerate(SEARCH_FAMILIES):
                while True:
                    text, meta = _search_document(rng, goal, n, e_hi, fiber_negative=i == 0)
                    if meta["proof"]:  # keep only families with a corner proof of found=False
                        break
                ops.append(Op("search", (text,), "infeasible", meta=meta))
        rng.shuffle(ops)
        self.ops = ops

    @staticmethod
    def warmup(lib, workdir: Path) -> None:
        text = "\n".join(
            _surface_lines(3)
            + ["curves", "G = G", "F = F", "cone", "hirzebruch = 3", "points", "p = G:1 F:1"]
            + ["params", "e = (0, 1)", "divisors", "L = 3G + 8F", "B = (1 - e)G", "M = L - B"]
            + ["queries", "chi L", "search goal=free point=p B=B M=M"]
        )
        lib.report.run_document(lib.document.parse(text + "\n"))

    def run(self, op: Op):
        return self.lib.report.run_document(self.lib.document.parse(op.args[0]))

    def check(self, op: Op, report) -> list[str]:
        if len(report.results) != 1:
            return [f"{len(report.results)} results for one query"]
        r = report.results[0]
        bad = []
        if r.status == "error":
            bad.append(f"query error: {r.error}")
        if r.found is not False:
            bad.append(f"found={r.found}, but M is not nef anywhere on the box ({op.meta['proof']} < 0)")
        if not r.attempts or r.attempts < 1:
            bad.append("no attempts reported")
        return bad


# ---------------------------------------------------------------------------
# witness-mix

FAULT_FAMILY_SEED = 9709020  # fixed: the fault family does not depend on --seed
ODD_DENOMINATORS = (3, 5, 7, 9, 11, 13)  # so a dyadic grid never lands on a witness exactly


def _rq_odd(rng, lo, hi):
    return _rq(rng, lo, hi, rng.choice(ODD_DENOMINATORS))


def _mu_low(rng):
    """A boundary multiplicity in [0, 1.9]."""
    return _rq(rng, 0, Q(19, 10), 10)


def _mu_below_one(rng):
    return _rq(rng, 0, Q(9, 10), 10)


def _free_slack(rng):
    mu = _mu_low(rng)
    b2 = (2 - mu) + _rq_odd(rng, 0, 3)
    b1 = orc.beta1_floor(mu, b2)
    return (mu, b2 * b2 * (1 + _slack(rng)), b1 * (1 + _slack(rng)))


def _free_near_corner(rng):
    """mu < 1 with the degree putting the least admissible beta2 exactly at b2."""
    mu = _mu_below_one(rng)
    b2 = (2 - mu) + _rq_odd(rng, Q(1, 8), 3)
    return (mu, b2 * b2 * (1 + NEAR), orc.beta1_floor(mu, b2))


def _free_near_flat(rng):
    """1 <= mu < 2, where the degree bound is the constant 2 - mu."""
    mu = _rq(rng, 1, Q(19, 10), 10)
    return (mu, (2 - mu) ** 2 * (1 + NEAR), 2 - mu)


def _free_low_degree(rng):
    """mu < 1 and degree <= 1, below every admissible beta1."""
    return (_mu_below_one(rng), _rq(rng, 4, 20), _rq(rng, Q(1, 2), 1))


def _free_small_square(rng):
    """M^2 below the square of the least admissible beta2."""
    mu = _mu_low(rng)
    deg = (2 - mu) * (1 + _slack(rng)) if mu >= 1 else 1 + _slack(rng)
    corner = orc.freeness_corner(mu, deg)
    return (mu, corner * corner * (1 - _slack(rng)), deg)


def _va_slack(rng):
    b2 = 2 + _rq_odd(rng, 0, 4)
    b1 = b2 / (b2 - 1)
    return (2 * b2 * b2 * (1 + _slack(rng)), 2 * b1 * (1 + _slack(rng)))


def _va_near(rng):
    b2 = 2 + _rq_odd(rng, 0, 4)
    return (2 * b2 * b2 * (1 + NEAR), 2 * b2 / (b2 - 1))


def _va_low_degree(rng):
    return (_rq(rng, 9, 40), _rq(rng, 1, 2))  # degree <= 2


def _va_small_square(rng):
    deg = 2 + _rq(rng, Q(1, 4), 3)
    corner = max(Q(2), deg / (deg - 2))
    return (2 * corner * corner * (1 - _slack(rng)), deg)


def _threshold(rng, scale: int, deg_side: int, m2_side: int):
    """(M^2, degree) placed by side (+1 above, -1 below) around 6 + 4 sqrt(2) and 2 + sqrt(2)."""
    pad = _rq(rng, Q(1, 10), 2) if scale < 10**6 else Q(rng.randint(0, 5), scale)
    deg = 2 + (orc.sqrt_above(2, scale) + pad if deg_side > 0 else orc.sqrt_below(2, scale) - pad)
    m2 = 6 + (orc.sqrt_above(32, scale) + pad if m2_side > 0 else orc.sqrt_below(32, scale) - pad)
    return (m2, deg)


def _pair_slack(rng):
    mu_p, mu_q = _mu_low(rng), _mu_low(rng)
    x, y = (2 - mu_p) + _rq_odd(rng, 0, 2), (2 - mu_q) + _rq_odd(rng, 0, 2)
    b1p, b1q = orc.beta1_floor(mu_p, x), orc.beta1_floor(mu_q, y)
    return (
        mu_p,
        mu_q,
        (x * x + y * y) * (1 + _slack(rng)),
        b1p * (1 + _slack(rng)),
        b1q * (1 + _slack(rng)),
        (b1p + b1q) * (1 + _slack(rng)),
    )


def _pair_near(rng):
    """Feasible only on a sliver of the circle x^2 + y^2 = M^2.

    With mu_p = mu_q = mu < 1 and beta1 = f(beta2) = beta2/(beta2 - (1 - mu)),
    f(x) + f(y) on the circle of radius sqrt(2) r is least at x = y = r; the
    joint degree is 2 f(r) (1 + 1e-6).  The explicit witness x = y = r (1 - e)
    proves feasibility without the library.
    """
    mu = _mu_below_one(rng)
    r = (2 - mu) + _rq_odd(rng, Q(1, 4), 2)
    c = 1 - mu
    f_r, slope = r / (r - c), c / (r - c) ** 2  # f(r) and -f'(r)
    dpq = 2 * f_r * (1 + NEAR)
    x = r * (1 - f_r * NEAR / (2 * slope * r))
    args = (mu, mu, 2 * r * r, f_r * (1 + _slack(rng)), f_r * (1 + _slack(rng)), dpq)
    b1 = orc.beta1_floor(mu, x)
    if not orc.separation_holds(*args, (x, x), (b1, b1)):
        raise RuntimeError("generator bug: the near-critical witness does not hold")
    return args


def _sep_no_pair(rng):
    """M^2 <= (2 - mu_p)^2 + (2 - mu_q)^2: no beta2 pair at all."""
    mu_p, mu_q = _mu_below_one(rng), _mu_low(rng)
    m2 = ((2 - mu_p) ** 2 + (2 - mu_q) ** 2) * (1 - _slack(rng))
    return (mu_p, mu_q, m2, _rq(rng, 2, 9), _rq(rng, 2, 9), _rq(rng, 4, 12))


def _sep_low_degree(rng):
    """Degree at p at most 1 while mu_p < 1: every beta1_p exceeds 1."""
    mu_p, mu_q = _mu_below_one(rng), _mu_low(rng)
    return (mu_p, mu_q, _rq(rng, 12, 40), _rq(rng, Q(1, 2), 1), _rq(rng, 2, 9), _rq(rng, 4, 12))


def _sep_joint_infeasible(rng):
    """mu_p = mu_q = 0 with the joint degree below 2s/(s - 1), s = sqrt(M^2 - 4)."""
    while True:
        m2 = _rq(rng, 9, 30, 4)
        dpq = 2 + _rq(rng, Q(1, 100), Q(1, 2), 100)
        if orc.separation_joint_infeasible(m2, dpq):
            return (Q(0), Q(0), m2, _rq(rng, 2, 100), _rq(rng, 2, 100), dpq)


def _tangent_mults(rng, mu_p):
    return mu_p, (_rq(rng, 0, mu_p, 10) if mu_p else Q(0))


def _tangent_slack(rng):
    mu_p, mu_V = _tangent_mults(rng, _mu_low(rng))
    x, y = (2 - mu_p) + _rq_odd(rng, 0, 2), (2 - mu_V) + _rq_odd(rng, 0, 2)
    b1 = orc.tangent_floor(mu_p, mu_V, x + y)
    return (mu_p, mu_V, (x * x + y * y) * (1 + _slack(rng)), b1 * (1 + _slack(rng)), 2 * b1 * (1 + _slack(rng)))


def _tangent_near(rng):
    """The supremum of beta2_p + beta2_V exceeds the sum the degrees need by a
    relative 1e-6, so only a sliver of the circle is feasible."""
    mu_p, mu_V = _tangent_mults(rng, _mu_below_one(rng))
    c = 2 - mu_p - mu_V
    cap = 1 + c / 2 * _rq_odd(rng, Q(1, 4), Q(3, 4))  # keeps the needed sum above the corner's
    need = c * cap / (cap - 1) * (1 + NEAR)
    low = max(2 - mu_p, 2 - mu_V)
    m2 = need * need / 2 if need >= 2 * low else low * low + (need - low) ** 2
    return (mu_p, mu_V, m2, cap * (1 + _slack(rng)), 2 * cap)


def _tangent_no_pair(rng):
    mu_p, mu_V = _tangent_mults(rng, _mu_below_one(rng))
    m2 = ((2 - mu_p) ** 2 + (2 - mu_V) ** 2) * (1 - _slack(rng))
    return (mu_p, mu_V, m2, _rq(rng, 2, 9), _rq(rng, 4, 18))


def _tangent_low_degree(rng):
    """mu_v < 2 and degree at p at most 1: every beta1 exceeds 1."""
    mu_p, mu_V = _tangent_mults(rng, _mu_below_one(rng))
    return (mu_p, mu_V, _rq(rng, 12, 40), _rq(rng, Q(1, 2), 1), _rq(rng, 4, 18))


def _tangent_sup_infeasible(rng):
    """mu = 0 with the needed beta2_p + beta2_V above its supremum sqrt(2 M^2)."""
    while True:
        m2 = _rq(rng, 20, 60, 4)
        cap = 1 + _rq(rng, Q(1, 100), Q(1, 3), 100)
        args = (Q(0), Q(0), m2, _rq(rng, 2, 100), 2 * cap)
        if not orc.tangent_feasible(*args):
            return args


CHECKERS = {
    "free": "freeness_at",
    "separate": "separation",
    "tangent": "tangent_separation",
    "very-ample": "very_ampleness",
    "threshold": "threshold_very_ampleness",
}

# Seeded operations per round: (kind, class, generator, count).  The counts
# are fixed, so every round has the same make-up whatever the seed.
WITNESS_MIX = (
    ("free", "feasible", _free_slack, 20),
    ("free", "feasible", _free_near_corner, 6),
    ("free", "feasible", _free_near_flat, 4),
    ("free", "infeasible", _free_low_degree, 5),
    ("free", "infeasible", _free_small_square, 5),
    ("very-ample", "feasible", _va_slack, 20),
    ("very-ample", "feasible", _va_near, 10),
    ("very-ample", "infeasible", _va_low_degree, 5),
    ("very-ample", "infeasible", _va_small_square, 5),
    ("threshold", "feasible", lambda r: _threshold(r, 1000, +1, +1), 10),
    ("threshold", "infeasible", lambda r: _threshold(r, 1000, -1, +1), 5),
    ("threshold", "infeasible", lambda r: _threshold(r, 1000, +1, -1), 5),
    ("threshold", "feasible", lambda r: _threshold(r, 10**6, +1, +1), 4),
    ("threshold", "infeasible", lambda r: _threshold(r, 10**6, -1, +1), 3),
    ("threshold", "infeasible", lambda r: _threshold(r, 10**6, +1, -1), 3),
    ("separate", "feasible", _pair_slack, 20),
    ("separate", "infeasible", _sep_no_pair, 5),
    ("separate", "infeasible", _sep_low_degree, 5),
    ("tangent", "feasible", _tangent_slack, 20),
    ("tangent", "infeasible", _tangent_no_pair, 5),
    ("tangent", "infeasible", _tangent_low_degree, 20),
)

# The fault family: the two inputs named in the README plus a fixed family
# around them, built from FAULT_FAMILY_SEED so it is the same in every run.
NAMED_FAULTS = (
    ("separate", "infeasible", (Q(0), Q(0), Q(9), Q(100), Q(100), Q(201, 100))),
    ("tangent", "infeasible", (Q(0), Q(0), Q(41), Q(100), Q(251, 100))),
)
FAULT_FAMILY = (
    ("separate", "infeasible", _sep_joint_infeasible, 4),
    ("tangent", "infeasible", _tangent_sup_infeasible, 4),
    ("separate", "feasible", _pair_near, 4),
    ("tangent", "feasible", _tangent_near, 4),
)


def witness_mix_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [Op(kind, gen(rng), cls) for kind, cls, gen, count in WITNESS_MIX for _ in range(count)]
    fixed = random.Random(FAULT_FAMILY_SEED)
    ops += [Op(kind, args, cls, known_fault=True) for kind, cls, args in NAMED_FAULTS]
    ops += [
        Op(kind, gen(fixed), cls, known_fault=True) for kind, cls, gen, count in FAULT_FAMILY for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


class WitnessMix:
    name = "witness-mix"

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.ops = witness_mix_ops(seed)
        wrong = [op for op in self.ops if oracle_class(op) != op.expect]
        if wrong:
            raise RuntimeError(f"generator bug: {wrong[0]} is not {wrong[0].expect}")
        self.feasible = 0  # oracle-feasible operations checked
        self.found = 0  # ... of which established with a re-verifying witness

    @staticmethod
    def warmup(lib, workdir: Path) -> None:
        c = lib.criteria
        c.freeness_at(0, 10, 3)
        c.separation(0, 0, 20, 3, 3, 6)
        c.tangent_separation(0, 0, 20, 3, 6)
        c.very_ampleness(20, 5)
        c.threshold_very_ampleness(20, 5)

    def run(self, op: Op):
        return getattr(self.lib.criteria, CHECKERS[op.kind])(*op.args)

    def check(self, op: Op, verdict) -> list[str]:
        bad = []
        w = _witness(verdict)
        reverified = verdict.established and w is not None and self._holds(op, w)
        if verdict.established and not reverified:
            bad.append(NO_WITNESS)
        if op.expect == "infeasible" and verdict.established:
            bad.append(ON_INFEASIBLE)
        if op.expect == "feasible":
            self.feasible += 1
            self.found += reverified
            if op.kind in ("free", "very-ample") and not verdict.established:
                bad.append("complete search missed an oracle-feasible input")
        if op.kind == "threshold" and verdict.established != orc.threshold_holds(*op.args):
            bad.append("disagrees with the exact 2 + sqrt(2) threshold")
        return bad

    @staticmethod
    def _holds(op: Op, w) -> bool:
        (beta2, beta1), a = w, op.args
        if op.kind == "free":
            return orc.freeness_holds(*a, beta2[0], beta1[0])
        if op.kind == "separate":
            return orc.separation_holds(*a, beta2, beta1)
        if op.kind == "tangent":
            return orc.tangent_holds(*a, beta2, beta1)
        return orc.very_ample_holds(*a, beta2[0], beta1[0])


def oracle_class(op: Op) -> str:
    """Recompute an input's class from the oracles alone, to check the generator."""
    a = op.args
    if op.kind == "free":
        return "feasible" if orc.freeness_feasible(*a) else "infeasible"
    if op.kind == "very-ample":
        return "feasible" if orc.very_ample_feasible(*a) else "infeasible"
    if op.kind == "threshold":
        return "feasible" if orc.threshold_holds(*a) else "infeasible"
    if op.kind == "tangent":
        return "feasible" if orc.tangent_feasible(*a) else "infeasible"
    # separation: infeasible by certificate, feasible by the generator's witness
    return "infeasible" if orc.separation_infeasible(*a) else op.expect


# ---------------------------------------------------------------------------
# doc-scale

DOC_SIZES = (100, 200, 400)
DOC_CHI_DIVISORS = 3
# The queried surface and divisors are the same for every seed, so the checker
# work per document is fixed and the seed varies only the bulk the parser reads.
DOC_MODEL = (3, 6)  # n, and m for H = G + mF; m >= 2n - 1 keeps M = L - B nef
DOC_BOUNDARY = (Q(9, 10), Q(11, 20))  # B = 9/10 G and D's G coefficient


def _coeff(rng) -> Fraction:
    return Q(rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4)))


def scale_document(rng: random.Random, size: int) -> tuple[str, dict]:
    """A document with ``size`` curves, ``size`` points and ``size`` divisors.

    Returns the text and the expected chi value of every ``chi`` query,
    computed from the generator's own record of each divisor's class.
    """
    n, m = DOC_MODEL
    classes = {"G": (Q(1), Q(0)), "F": (Q(0), Q(1))}
    lines = ["# generated by bench/workloads.py"] + _surface_lines(n) + ["", "curves", "G = G", "F = F"]
    for i in range(1, size - 1):
        a = rng.randint(0, 2)
        b = rng.randint(0 if a else 1, n * a + 3)
        classes[f"C{i}"] = (Q(a), Q(b))
        lines.append(f"C{i} = {_class_text(a, b)}")
    curve_names = list(classes)
    lines += ["", "cone", f"hirzebruch = {n}", "", "points", "p = G:1 F:1"]
    for i in range(1, size):
        picked = rng.sample(curve_names, rng.randint(1, 3))
        lines.append(f"P{i} = " + " ".join(f"{c}:{rng.randint(1, 2)}" for c in picked))
    lines += ["", "tangents", "v = p G:1:z F:0", "", "divisors"]

    bg, dg = DOC_BOUNDARY
    fixed = {
        "H": (Q(1), Q(m)),
        "L": (Q(3), Q(m + n + 2)),
        "B": (bg, Q(0)),
        "M": (3 - bg, Q(m + n + 2)),
        "D": (dg, 2 - bg - dg),  # ord_p(D) = 2 - mu, the threshold's usual context
    }
    lines += [
        f"H = G + {m}F",
        f"L = 3G + {m + n + 2}F",
        f"B = {bg} G",
        "M = L - B",
        f"D = {dg} G + {2 - bg - dg} F",
    ]
    divisors = dict(fixed)
    base: list[str] = []
    for i in range(1, size - len(fixed) + 1):
        c1, c2 = rng.sample(curve_names, 2)
        k1, k2 = _coeff(rng), _coeff(rng)
        a = k1 * classes[c1][0] + k2 * classes[c2][0]
        b = k1 * classes[c1][1] + k2 * classes[c2][1]
        text = f"D{i} = {k1} {c1} + {k2} {c2}"
        if base and i % 4 == 0:
            ref = rng.choice(base)
            a, b = a + divisors[ref][0], b + divisors[ref][1]
            text += f" + {ref}"
        else:
            base.append(f"D{i}")
        divisors[f"D{i}"] = (a, b)
        lines.append(text)

    chi_targets = ["H"] + rng.sample([d for d in divisors if d.startswith("D") and d != "D"], DOC_CHI_DIVISORS)
    lines += ["", "queries"]
    lines += [f"chi {name}" for name in chi_targets]
    lines += [
        "check-free point=p B=B M=M",
        "check-tangent tangent=v B=B M=M",
        "check-very-ample M=M",
        "check-corollary2 M=M",
        "plc-threshold point=p B=B D=D",
    ]
    chis = {name: orc.chi(n, *divisors[name]) for name in chi_targets}
    if not orc.is_nef(n, *fixed["M"]):
        raise RuntimeError("generator bug: M = L - B must be nef")
    return "\n".join(lines) + "\n", chis


def _text_chis(out: str) -> tuple[dict, list[str]]:
    """chi values and error lines from the text report."""
    chis, errors, current = {}, [], None
    for line in out.splitlines():
        if line.startswith("== "):
            current = line[3:]
        elif line.startswith("   error:"):
            errors.append(f"{current}: {line.strip()}")
        elif line.startswith("   chi = ") and current and current.startswith("chi "):
            chis[current.split()[1]] = Q(line.split()[2])
    return chis, errors


class DocScale:
    name = "doc-scale"

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        schema = json.loads((lib.root / "docs" / "report.schema.json").read_text())
        self.schema = jsonschema.Draft7Validator(schema)
        rng = random.Random(seed)
        self.docs = {}
        ops = []
        for size in DOC_SIZES:
            text, chis = scale_document(rng, size)
            path = workdir / f"doc_{size}.surf"
            path.write_text(text)
            self.docs[str(path)] = (text, chis, self._round_trip(text))
            for as_json in (True, False):
                ops.append(Op("check", (str(path), as_json), meta={"size": size}))
        self.ops = ops

    @staticmethod
    def warmup(lib, workdir: Path) -> None:
        path = workdir / "warmup.surf"
        path.write_text(scale_document(random.Random(0), 8)[0])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            lib.cli.main(["check", str(path), "--json"])

    def run(self, op: Op):
        path, as_json = op.args
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(["check", path] + (["--json"] if as_json else []))
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, result) -> list[str]:
        code, out, err = result
        path, as_json = op.args
        _, expected, round_trip = self.docs[path]
        bad = [] if code == 0 else [f"exit code {code}: {err.strip()[:200]}"]
        bad += round_trip
        if as_json:
            try:
                payload = json.loads(out)
            except ValueError as exc:
                return bad + [f"output is not JSON: {exc}"]
            bad += [f"schema: {e.message}" for e in self.schema.iter_errors(payload)][:3]
            chis = {}
            for q in payload.get("queries", []):
                if q.get("status") == "error":
                    bad.append(f"{q.get('query')}: error {q.get('error')}")
                if q.get("query", "").startswith("chi ") and "chi" in q.get("values", {}):
                    v = q["values"]["chi"]
                    chis[q["query"].split()[1]] = Q(v["num"], v["den"])
        else:
            chis, errors = _text_chis(out)
            bad += errors
        if chis != expected:
            bad.append(f"chi values {chis} differ from the closed form {expected}")
        return bad

    def _round_trip(self, text: str) -> list[str]:
        """parse(render(parse(text))) == parse(text); checked once per document."""
        doc = self.lib.document
        parsed = doc.parse(text)
        return [] if doc.parse(doc.render(parsed)) == parsed else ["parse(render(parse(text))) != parse(text)"]


WORKLOADS = {w.name: w for w in (ClaimSweep, SearchExhaust, WitnessMix, DocScale)}
