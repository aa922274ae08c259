"""Numerical criteria for adjoint linear systems, as exact decision procedures.

Every checker returns a :class:`CriterionVerdict` whose trace lists the exact
inequalities that were evaluated.  Verdicts are one-sided: ``established``
certifies the property through one of the implemented sufficient rules, while
``not-established`` only means no implemented rule fired on the given data.
The module holds the four degree-bound rules, their irrational-threshold
corollary and the Euler characteristic; the local PLC thresholds are in
:mod:`qreider.plc`.

Each of the four degree-bound checkers is written once, as a rule that
checks its inputs, picks its branch (high multiplicity, a given, searched or
missing witness) and returns an :class:`Evaluation`: its conditions
``(text, lhs, rel, rhs, holds)`` in trace order, each computed only when it
is read.  A checker reads them all (:func:`explain`); the parameter search
reads them only up to the first that fails (:func:`holding`), and turns them
into trace lines only at the candidate that wins.
``threshold_very_ampleness`` explains an evaluation too, so every trace line
is made by :func:`trace_lines`.  ``GOAL_KINDS`` names each goal kind's rule
and checker, and what they read.

Every witness is verified exactly.  The freeness and very-ample searches are
complete: they prefer a dyadic rational (denominator ``2**k``) and fall back to
the exact corner of the feasible region, so they find a witness whenever the
system has a real solution.  Whether a level ``k`` has a multiple of ``2**-k``
in ``[corner, sqrt(value))`` is one integer test, monotone in ``k``, so the
first such level is found by bisection and only its witness is a
``Fraction``; the irrational threshold tests each ``sqrt(2)`` convergent on
integers too.  Both return the witnesses that a level-by-level and a
convergent-by-convergent walk in ``Fraction`` arithmetic return.  The
two-point and tangent searches share one
walk over a dyadic grid of pairs and are not yet complete.  Every function
here is a pure, deterministic decision procedure over immutable data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Optional

from .cones import DegreeFilter
from .lattice import DivisorClass, RationalLike, as_fraction

_WITNESS_DEPTH = 24  # finest dyadic level of the one-parameter witness searches
_PAIR_DEPTH = 12  # the pair and tangent searches take each point below a square root at level 2**-12


class DomainError(ValueError):
    """Inputs violate a checker's stated precondition."""


# ---------------------------------------------------------------------------
# verdicts, traces, witnesses


@dataclass(frozen=True)
class TraceLine:
    text: str
    lhs: Fraction
    rel: str
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class BetaWitness:
    """Positive rational bounds certifying one of the degree-bound rules."""

    beta2: tuple[Fraction, ...]
    beta1: tuple[Fraction, ...]
    beta2_roles: tuple[str, ...] = ()
    beta1_roles: tuple[str, ...] = ()

    def __post_init__(self):
        b2 = tuple(map(as_fraction, self.beta2))
        b1 = tuple(map(as_fraction, self.beta1))
        r2 = tuple(self.beta2_roles) or ("global",) * len(b2)
        r1 = tuple(self.beta1_roles) or ("global",) * len(b1)
        if len(r2) != len(b2) or len(r1) != len(b1):
            raise ValueError("witness role labels must match the value counts")
        if any(x.numerator <= 0 for x in b2 + b1):  # a Fraction's sign is its numerator's
            raise ValueError("witness values must be positive")
        object.__setattr__(self, "beta2", b2)
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2_roles", r2)
        object.__setattr__(self, "beta1_roles", r1)

    @classmethod
    def single(cls, beta2: RationalLike, beta1: RationalLike, role: str = "global") -> "BetaWitness":
        return cls((beta2,), (beta1,), (role,), (role,))

    @classmethod
    def pair(
        cls,
        beta2_first: RationalLike,
        beta2_second: RationalLike,
        beta1_first: RationalLike,
        beta1_second: RationalLike,
        roles: tuple[str, str] = ("at-p", "at-q"),
    ) -> "BetaWitness":
        return cls((beta2_first, beta2_second), (beta1_first, beta1_second), roles, roles)


@dataclass(frozen=True)
class CriterionVerdict:
    established: bool
    rule: str
    trace: tuple[TraceLine, ...]
    witness: Optional[BetaWitness] = None
    note: str = ""

    def __post_init__(self):
        if self.established and not all(line.holds for line in self.trace):
            raise AssertionError("established verdict with a failing trace line")

    @property
    def status(self) -> str:
        return "established" if self.established else "not-established"


# One condition of a rule: (text, lhs, rel, rhs, holds), holds being ``lhs rel rhs``.
Condition = tuple[str, RationalLike, str, RationalLike, bool]


class Evaluation(NamedTuple):
    """One rule applied to one input, its conditions not yet read.

    ``conditions`` yields them in trace order and computes each only when it
    is read; it is an iterator, read once.  ``sufficient`` is False for the
    lines shown when no witness exists, which are necessary conditions only:
    then nothing is established, whatever they read.
    """

    rule: str
    conditions: Iterator[Condition]
    witness: Optional[BetaWitness] = None
    note: str = ""
    sufficient: bool = True


def trace_lines(conditions: Iterable[Condition], prefix: str = "") -> tuple[TraceLine, ...]:
    """The conditions as trace lines, each text after ``prefix``."""
    return tuple(
        TraceLine(prefix + text, as_fraction(lhs), rel, as_fraction(rhs), holds)
        for text, lhs, rel, rhs, holds in conditions
    )


def explain(evaluation: Evaluation) -> CriterionVerdict:
    """The verdict of an evaluation, every condition read into its trace."""
    trace = trace_lines(evaluation.conditions)
    established = evaluation.sufficient and all(line.holds for line in trace)
    return CriterionVerdict(established, evaluation.rule, trace, evaluation.witness, evaluation.note)


def holding(evaluation: Evaluation) -> Optional[list[Condition]]:
    """The conditions of an evaluation that establishes, in order; None when
    it does not, reading none past the first that fails."""
    if not evaluation.sufficient:
        return None
    held = []
    for condition in evaluation.conditions:
        if not condition[4]:
            return None
        held.append(condition)
    return held


def _ge(text: str, lhs: RationalLike, rhs: RationalLike) -> Condition:
    return text, lhs, ">=", rhs, lhs >= rhs


def _gt(text: str, lhs: RationalLike, rhs: RationalLike) -> Condition:
    return text, lhs, ">", rhs, lhs > rhs


# ---------------------------------------------------------------------------
# the degree-bound minimum and dyadic candidate machinery


def min_formula(mu: RationalLike, beta2: RationalLike) -> Fraction:
    """The smaller of ``2 - mu`` and ``beta2 / (beta2 - (1 - mu))``.

    For ``1 <= mu < 2`` this is ``2 - mu``; for ``0 <= mu < 1`` it is the
    second branch, which never exceeds ``2 - mu`` (equality exactly at
    ``beta2 = 2 - mu``).
    """
    m, b2 = as_fraction(mu), as_fraction(beta2)
    if not 0 <= m < 2:
        raise DomainError(f"multiplicity must satisfy 0 <= mu < 2, got {m}")
    if b2 < 2 - m:
        raise DomainError(f"beta2 must be at least 2 - mu = {2 - m}, got {b2}")
    return _least_beta1(m, b2)


def _least_beta1(mu: Fraction, b2: Fraction) -> Fraction:
    """:func:`min_formula` on inputs that meet its preconditions."""
    return min(2 - mu, b2 / (b2 - (1 - mu)))


def _numerator_below_sqrt(value: Fraction, k: int) -> int:
    """The largest integer a with a^2 < value * 4**k, for value > 0."""
    return isqrt(((value.numerator << 2 * k) - 1) // value.denominator)


def _dyadic_below_sqrt(value: Fraction, depth: int) -> Optional[Fraction]:
    """The largest positive multiple of 2**-depth whose square is below value,
    or None if there is none (then no coarser dyadic level has one either)."""
    a = _numerator_below_sqrt(value, depth) if value > 0 else 0
    return Fraction(a, 1 << depth) if a else None


def _degree_corner(mu: Fraction, mindeg: Fraction) -> Optional[Fraction]:
    """Smallest beta2 whose beta1 bound fits under mindeg, or None if none does.

    The bound from :func:`min_formula` is non-increasing in beta2, so the
    feasible beta2 range is an interval closed at this corner.
    """
    if mindeg >= 2 - mu:
        return 2 - mu
    if mu < 1 and mindeg > 1:
        corner = (1 - mu) * mindeg / (mindeg - 1)
        return max(corner, 2 - mu)
    return None


def _dyadic_witness(value: Fraction, floor: Fraction) -> Fraction:
    """For the first level k = 0.._WITNESS_DEPTH where it is >= floor, the largest
    multiple of 2**-k whose square is below ``value``; else floor itself.

    For floor > 0, level k has one exactly when the least multiple of 2**-k at
    or above floor, c / 2**k with c = ceil(floor * 2**k), has c^2 < value * 4**k.
    That integer test is monotone in k, since a multiple of 2**-k is one of
    2**-(k+1) too: so level 0 is tested, then the last level, and the first
    level between them is bisected.  Only that level's multiple is a Fraction.
    """
    num, den = value.numerator, value.denominator
    fn, fd = floor.numerator, floor.denominator

    def reaches(k: int) -> bool:
        c = -((-fn << k) // fd)
        return c * c * den < num << 2 * k

    if num <= 0:
        return floor
    if reaches(0):
        return Fraction(_numerator_below_sqrt(value, 0))
    if not reaches(_WITNESS_DEPTH):
        return floor
    lo, hi = 0, _WITNESS_DEPTH  # level lo has no multiple in [floor, sqrt(value)), level hi has one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return Fraction(_numerator_below_sqrt(value, hi), 1 << hi)


def _dyadic_grid(lo: Fraction, hi: Fraction, levels: int) -> list[Fraction]:
    """Dyadic subdivision points of [lo, hi]: lo, then j/2**k of the way for odd j, k = 1..levels, then hi."""
    if hi <= lo:
        return [lo] if hi == lo else []
    span = hi - lo
    points = [lo]
    for k in range(1, levels + 1):
        scale = 1 << k
        for j in range(1, scale, 2):
            points.append(lo + span * Fraction(j, scale))
    points.append(hi)
    return points


def _pair_walk(lo: Fraction, lo_other: Fraction, sq: Fraction) -> Iterator[tuple[Fraction, Fraction]]:
    """The (beta2, other) candidates of the two-point and tangent searches, in order: beta2 on the dyadic grid
    from lo to the last multiple m of 2**-_PAIR_DEPTH with m^2 < sq - lo_other^2; the other at the last such m
    with m^2 < sq - beta2^2, then at lo_other.  Only pairs with other >= lo_other and beta2^2 + other^2 < sq."""
    top = _dyadic_below_sqrt(sq - lo_other * lo_other, _PAIR_DEPTH)
    if top is None:
        return
    for b2 in _dyadic_grid(lo, top, levels=6):
        for other in (_dyadic_below_sqrt(sq - b2 * b2, _PAIR_DEPTH), lo_other):
            if other is not None and other >= lo_other and b2 * b2 + other * other < sq:
                yield b2, other


# ---------------------------------------------------------------------------
# freeness at a point


def freeness_witness(mu: RationalLike, m2: RationalLike, mindeg_p: RationalLike) -> Optional[BetaWitness]:
    """Search for (beta2, beta1) certifying freeness at a low-multiplicity point.

    Complete: returns a witness iff the inequality system has a real solution.
    """
    m, sq, deg = as_fraction(mu), as_fraction(m2), as_fraction(mindeg_p)
    if not 0 <= m < 2:
        raise DomainError("freeness witness search requires 0 <= mu < 2")
    corner = _degree_corner(m, deg)
    if corner is None:
        return None
    b2 = _dyadic_witness(sq, corner)
    if sq <= b2 * b2:
        return None
    return BetaWitness.single(b2, min_formula(m, b2), role="at-p")


def _degree_bound(mu: Fraction, m2: Fraction, mindeg: Fraction, b2: Fraction, b1: Fraction) -> Iterator[Condition]:
    """The one-point degree-bound rule with the witness (b2, b1)."""
    yield _gt("M^2 > beta2^2", m2, b2 * b2)
    yield _ge("min degree >= beta1", mindeg, b1)
    yield _ge("beta2 >= 2 - mu", b2, 2 - mu)
    if b2 >= 2 - mu:
        yield _ge("beta1 >= min(2 - mu, beta2/(beta2 - (1 - mu)))", b1, _least_beta1(mu, b2))


def _infeasible(mu: Fraction, m2: Fraction, mindeg: Fraction, where: str) -> Iterator[Condition]:
    """Necessary conditions of the one-point rule at ``where`` ("", "_p" or "_q")."""
    corner = _degree_corner(mu, mindeg)
    if corner is not None:
        yield _gt(f"M^2 > (minimal admissible beta2{where})^2", m2, corner * corner)
    else:
        yield _gt(f"M^2 > (2 - mu{where})^2", m2, (2 - mu) ** 2)
    if mu < 1:
        yield _gt(f"min degree{where} > 1 (forced when mu{where} < 1)", mindeg, 1)
    else:
        yield _ge(f"min degree{where} >= 2 - mu{where}", mindeg, 2 - mu)


_SEARCHED = "witness found by search"  # the note of a degree-bound rule whose witness was searched for


def freeness_rule(
    mu: RationalLike,
    m2: RationalLike,
    mindeg_p: RationalLike,
    witness: Optional[BetaWitness] = None,
) -> Evaluation:
    """The evaluation that :func:`freeness_at` explains; same inputs and errors."""
    m, sq, deg = as_fraction(mu), as_fraction(m2), as_fraction(mindeg_p)
    if m < 0:
        raise DomainError("multiplicity must be non-negative")
    if m >= 2:
        return Evaluation("freeness/high-multiplicity", iter((_ge("mu >= 2", m, 2),)))
    found = freeness_witness(m, sq, deg) if witness is None else witness
    if found is None:
        return Evaluation(
            "freeness/degree-bound",
            _infeasible(m, sq, deg, ""),
            note="no admissible (beta2, beta1) exists",
            sufficient=False,
        )
    conditions = _degree_bound(m, sq, deg, found.beta2[0], found.beta1[0])
    return Evaluation("freeness/degree-bound", conditions, found, _SEARCHED if witness is None else "")


def freeness_at(
    mu: RationalLike,
    m2: RationalLike,
    mindeg_p: RationalLike,
    witness: Optional[BetaWitness] = None,
) -> CriterionVerdict:
    """Freeness of the adjoint system at a point.

    High multiplicity (mu >= 2) establishes freeness outright; otherwise the
    degree-bound rule runs with the supplied witness, or with a searched one.
    """
    return explain(freeness_rule(mu, m2, mindeg_p, witness))


# ---------------------------------------------------------------------------
# separation of two points


def separation_witness(
    mu_p: RationalLike,
    mu_q: RationalLike,
    m2: RationalLike,
    mindeg_p: RationalLike,
    mindeg_q: RationalLike,
    mindeg_pq: RationalLike,
) -> Optional[BetaWitness]:
    """Search for (beta2, beta1) pairs certifying separation of two
    low-multiplicity points."""
    mp, mq = as_fraction(mu_p), as_fraction(mu_q)
    sq = as_fraction(m2)
    dp, dq, dpq = as_fraction(mindeg_p), as_fraction(mindeg_q), as_fraction(mindeg_pq)
    if not (0 <= mp < 2 and 0 <= mq < 2):
        raise DomainError("pair witness search requires both multiplicities in [0, 2)")
    corner_p = _degree_corner(mp, dp)
    corner_q = _degree_corner(mq, dq)
    if corner_p is None or corner_q is None:
        return None
    # from each corner on, min_formula (non-increasing in beta2) stays within that point's degree
    for b2p, b2q in _pair_walk(corner_p, corner_q, sq):
        bound_p, bound_q = min_formula(mp, b2p), min_formula(mq, b2q)
        if bound_p + bound_q <= dpq:
            return BetaWitness.pair(b2p, b2q, bound_p, bound_q)
    return None


def _witness_for_side(witness: Optional[BetaWitness], side: int) -> Optional[BetaWitness]:
    """Extract one (beta2, beta1) slot, with its own roles, from a possibly two-sided witness."""
    if witness is None:
        return None
    i = side if len(witness.beta2) > side else 0
    j = side if len(witness.beta1) > side else 0
    return BetaWitness((witness.beta2[i],), (witness.beta1[j],), (witness.beta2_roles[i],), (witness.beta1_roles[j],))


def _pair_degree_bounds(
    mp: Fraction, mq: Fraction, m2: Fraction, dp: Fraction, dq: Fraction, dpq: Fraction, witness: BetaWitness
) -> Iterator[Condition]:
    """The two-point degree-bound rule with a two-sided witness."""
    b2p, b2q = witness.beta2[0], witness.beta2[1]
    b1p, b1q = witness.beta1[0], witness.beta1[1]
    yield _gt("M^2 > beta2_p^2 + beta2_q^2", m2, b2p * b2p + b2q * b2q)
    yield _ge("min degree at p >= beta1_p", dp, b1p)
    yield _ge("min degree at q >= beta1_q", dq, b1q)
    yield _ge("min degree through both >= beta1_p + beta1_q", dpq, b1p + b1q)
    yield _ge("beta2_p >= 2 - mu_p", b2p, 2 - mp)
    yield _ge("beta2_q >= 2 - mu_q", b2q, 2 - mq)
    if b2p >= 2 - mp:
        yield _ge("beta1_p >= degree-bound minimum at p", b1p, _least_beta1(mp, b2p))
    if b2q >= 2 - mq:
        yield _ge("beta1_q >= degree-bound minimum at q", b1q, _least_beta1(mq, b2q))


def _pair_infeasible(mp: Fraction, mq: Fraction, m2: Fraction, dp: Fraction, dq: Fraction) -> Iterator[Condition]:
    yield from _infeasible(mp, m2, dp, "_p")
    yield from _infeasible(mq, m2, dq, "_q")
    yield _gt("M^2 > (2 - mu_p)^2 + (2 - mu_q)^2", m2, (2 - mp) ** 2 + (2 - mq) ** 2)


def separation_rule(
    mu_p: RationalLike,
    mu_q: RationalLike,
    m2: RationalLike,
    mindeg_p: RationalLike,
    mindeg_q: RationalLike,
    mindeg_pq: RationalLike,
    witness: Optional[BetaWitness] = None,
) -> Evaluation:
    """The evaluation that :func:`separation` explains; same inputs and errors."""
    mp, mq = as_fraction(mu_p), as_fraction(mu_q)
    sq = as_fraction(m2)
    dp, dq, dpq = as_fraction(mindeg_p), as_fraction(mindeg_q), as_fraction(mindeg_pq)
    if mp < 0 or mq < 0:
        raise DomainError("multiplicities must be non-negative")

    if mp >= 2 and mq >= 2:
        return Evaluation("separation/both-high-multiplicity", iter((_ge("mu_p >= 2", mp, 2), _ge("mu_q >= 2", mq, 2))))

    if mp >= 2 or mq >= 2:
        # the freeness rule at the low-multiplicity point, after the high point's line
        if mp >= 2:
            high_line, low, low_deg, side = _ge("mu_p >= 2", mp, 2), mq, dq, 1
        else:
            high_line, low, low_deg, side = _ge("mu_q >= 2", mq, 2), mp, dp, 0
        free = freeness_rule(low, sq, low_deg, _witness_for_side(witness, side))
        found = free.witness
        if witness is None and side and found is not None:  # a searched witness, which is at q
            found = BetaWitness.single(found.beta2[0], found.beta1[0], role="at-q")
        return free._replace(
            rule="separation/one-high-multiplicity",
            witness=found,
            conditions=chain((high_line,), free.conditions),
            note=free.note if free.sufficient else "no admissible witness at the low point",
        )

    found = separation_witness(mp, mq, sq, dp, dq, dpq) if witness is None else witness
    if found is None:
        return Evaluation(
            "separation/degree-bounds",
            _pair_infeasible(mp, mq, sq, dp, dq),
            note="no admissible witness pair found",
            sufficient=False,
        )
    if len(found.beta2) < 2 or len(found.beta1) < 2:
        raise DomainError("two-point separation needs beta values for both points")
    conditions = _pair_degree_bounds(mp, mq, sq, dp, dq, dpq, found)
    return Evaluation("separation/degree-bounds", conditions, found, _SEARCHED if witness is None else "")


def separation(
    mu_p: RationalLike,
    mu_q: RationalLike,
    m2: RationalLike,
    mindeg_p: RationalLike,
    mindeg_q: RationalLike,
    mindeg_pq: RationalLike,
    witness: Optional[BetaWitness] = None,
) -> CriterionVerdict:
    """Separation of two distinct points by the adjoint system.

    Both multiplicities >= 2 establish separation outright.  With exactly one
    high multiplicity, the freeness-style degree bound runs at the other
    point.  With both below 2, the two-sided degree bounds run, including the
    joint bound for curves through both points; when no witness pair is
    given or found, the trace shows necessary conditions only.
    """
    return explain(separation_rule(mu_p, mu_q, m2, mindeg_p, mindeg_q, mindeg_pq, witness))


# ---------------------------------------------------------------------------
# separation of a tangent direction


def tangent_beta1_bound(
    mu_p: RationalLike, mu_V: RationalLike, beta2_p: RationalLike, beta2_V: RationalLike
) -> Fraction:
    """Lower bound required of beta1 in the tangent degree-bound rule.

    For total multiplicity >= 2 the bound is ``(4 - mu_v)/2``; below 2 the
    relaxed branch ``s/(s - (2 - mu_v))`` applies with ``s`` the sum of the
    two beta2 values (its denominator is positive whenever the beta2 bounds
    hold, and the relaxed branch never exceeds the plain one).
    """
    mp, mv_ = as_fraction(mu_p), as_fraction(mu_V)
    b2p, b2v = as_fraction(beta2_p), as_fraction(beta2_V)
    mu_v = mp + mv_
    plain = (4 - mu_v) / 2
    if mu_v >= 2:
        return plain
    s = b2p + b2v
    denom = s - (2 - mu_v)
    if denom <= 0:
        return plain
    return min(plain, s / denom)


def tangent_witness(
    mu_p: RationalLike,
    mu_V: RationalLike,
    m2: RationalLike,
    mindeg_p: RationalLike,
    mindeg_Z: RationalLike,
) -> Optional[BetaWitness]:
    """Search for (beta2_p, beta2_V, beta1) certifying tangent separation at a
    low-multiplicity point."""
    mp, mv_ = as_fraction(mu_p), as_fraction(mu_V)
    sq = as_fraction(m2)
    dp, dz = as_fraction(mindeg_p), as_fraction(mindeg_Z)
    if not (0 <= mv_ <= mp < 2):
        raise DomainError("tangent witness search requires 0 <= mu_V <= mu_p < 2")
    cap = min(dp, dz / 2)
    if cap <= 0:
        return None
    # the bound is positive: (4 - mu_v)/2 > 0, and each beta2 at its floor or above makes the denominator >= 2
    for b2p, b2v in _pair_walk(2 - mp, 2 - mv_, sq):
        bound = tangent_beta1_bound(mp, mv_, b2p, b2v)
        if bound <= cap:
            return BetaWitness((b2p, b2v), (bound,), ("at-p", "at-V"), ("global",))
    return None


def _tangent_degree_bounds(
    mp: Fraction, mv_: Fraction, m2: Fraction, dp: Fraction, dz: Fraction, witness: BetaWitness
) -> Iterator[Condition]:
    """The tangent degree-bound rule with the witness (beta2_p, beta2_V; beta1)."""
    b2p, b2v = witness.beta2[0], witness.beta2[1]
    b1 = witness.beta1[0]
    yield _gt("M^2 > beta2_p^2 + beta2_V^2", m2, b2p * b2p + b2v * b2v)
    yield _ge("min degree at p >= beta1", dp, b1)
    yield _ge("min degree on Z >= 2*beta1", dz, 2 * b1)
    yield _ge("beta2_p >= 2 - mu_p", b2p, 2 - mp)
    yield _ge("beta2_V >= 2 - mu_V", b2v, 2 - mv_)
    yield _ge("beta1 >= tangent degree-bound minimum", b1, tangent_beta1_bound(mp, mv_, b2p, b2v))


def _tangent_intermediate(
    m2: Fraction, mp: Fraction, mu_v: Fraction, dp: Fraction, dz: Fraction
) -> Iterator[Condition]:
    yield _ge("2 <= mu_p", mp, 2)
    yield _gt("M^2 > (4 - mu_v)^2", m2, (4 - mu_v) ** 2)
    yield _ge("min degree at p >= (4 - mu_v)/2", dp, (4 - mu_v) / 2)
    yield _ge("min degree on Z >= 4 - mu_v", dz, 4 - mu_v)


def _tangent_infeasible(mp: Fraction, mv_: Fraction, m2: Fraction, dp: Fraction, dz: Fraction) -> Iterator[Condition]:
    yield _gt("M^2 > (2 - mu_p)^2 + (2 - mu_V)^2", m2, (2 - mp) ** 2 + (2 - mv_) ** 2)
    mu_v = mp + mv_
    if mu_v >= 2:
        yield _ge("min degree at p >= (4 - mu_v)/2", dp, (4 - mu_v) / 2)
        yield _ge("min degree on Z >= 4 - mu_v", dz, 4 - mu_v)
    else:
        yield _gt("min degree at p > 1 (forced when mu_v < 2)", dp, 1)
        yield _gt("min degree on Z > 2 (forced when mu_v < 2)", dz, 2)


def tangent_rule(
    mu_p: RationalLike,
    mu_V: RationalLike,
    m2: RationalLike,
    mindeg_p: RationalLike,
    mindeg_Z: RationalLike,
    witness: Optional[BetaWitness] = None,
) -> Evaluation:
    """The evaluation that :func:`tangent_separation` explains; same inputs and errors."""
    mp, mv_ = as_fraction(mu_p), as_fraction(mu_V)
    sq = as_fraction(m2)
    dp, dz = as_fraction(mindeg_p), as_fraction(mindeg_Z)
    if mp < 0 or mv_ < 0:
        raise DomainError("multiplicities must be non-negative")
    if mv_ > mp:
        raise DomainError("the infinitely-near order cannot exceed the order at the point")
    mu_v = mp + mv_

    if mp >= 3:
        return Evaluation("tangent/high-multiplicity", iter((_ge("mu_p >= 3", mp, 3),)))
    if mu_v >= 4:
        return Evaluation("tangent/high-multiplicity", iter((_ge("mu_v >= 4", mu_v, 4),)))
    if mp >= 2:
        return Evaluation("tangent/intermediate-multiplicity", _tangent_intermediate(sq, mp, mu_v, dp, dz))

    found = tangent_witness(mp, mv_, sq, dp, dz) if witness is None else witness
    if found is None:
        return Evaluation(
            "tangent/degree-bounds",
            _tangent_infeasible(mp, mv_, sq, dp, dz),
            note="no admissible witness found",
            sufficient=False,
        )
    if len(found.beta2) < 2:
        raise DomainError("tangent separation needs beta2 values at the point and at V")
    conditions = _tangent_degree_bounds(mp, mv_, sq, dp, dz, found)
    return Evaluation("tangent/degree-bounds", conditions, found, _SEARCHED if witness is None else "")


def tangent_separation(
    mu_p: RationalLike,
    mu_V: RationalLike,
    m2: RationalLike,
    mindeg_p: RationalLike,
    mindeg_Z: RationalLike,
    witness: Optional[BetaWitness] = None,
) -> CriterionVerdict:
    """Separation of a tangent direction at a point.

    ``mu_V`` is the boundary's order at the infinitely-near point of the
    direction; the total multiplicity is ``mu_v = mu_p + mu_V``.  Degrees:
    ``mindeg_p`` over curves through the point, ``mindeg_Z`` over curves
    containing the length-2 scheme (through the point, tangent to the
    direction).
    """
    return explain(tangent_rule(mu_p, mu_V, m2, mindeg_p, mindeg_Z, witness))


# ---------------------------------------------------------------------------
# global very-ampleness


def very_ampleness_witness(m2: RationalLike, mindeg_all: RationalLike) -> Optional[BetaWitness]:
    """Search for (beta2, beta1) certifying very ampleness from global data.

    Complete: a witness is returned iff beta2 >= 2 with M^2 > 2*beta2^2 and
    2*beta2/(beta2 - 1) <= mindeg has a real solution.  The degree condition
    holds exactly from beta2 = max(2, d/(d - 2)) on, where d = mindeg > 2.
    """
    sq, deg = as_fraction(m2), as_fraction(mindeg_all)
    if deg <= 2:
        return None
    b2 = _dyadic_witness(sq / 2, max(Fraction(2), deg / (deg - 2)))
    if sq <= 2 * b2 * b2:
        return None
    return BetaWitness.single(b2, b2 / (b2 - 1))


def _global_degree_bound(m2: Fraction, deg: Fraction, b2: Fraction, b1: Fraction) -> Iterator[Condition]:
    """The very-ample rule with the witness (b2, b1)."""
    yield _ge("beta2 >= 2", b2, 2)
    if b2 >= 2:  # below 2 the witness fails, and beta2/(beta2 - 1) is undefined at 1
        yield _ge("beta1 >= beta2/(beta2 - 1)", b1, b2 / (b2 - 1))
    yield _gt("M^2 > 2*beta2^2", m2, 2 * b2 * b2)
    yield _ge("min degree >= 2*beta1", deg, 2 * b1)


def _global_infeasible(m2: Fraction, deg: Fraction) -> Iterator[Condition]:
    yield _gt("M^2 > 2*beta2^2 with beta2 >= 2 (forces M^2 > 8)", m2, 8)
    if deg > 2:
        corner = max(Fraction(2), deg / (deg - 2))
        yield _gt("M^2 > 2*(minimal admissible beta2)^2", m2, 2 * corner * corner)
    yield _gt("min degree > 2 (forced by 2*beta1 > 2)", deg, 2)


def very_ample_rule(
    m2: RationalLike,
    mindeg_all: RationalLike,
    witness: Optional[BetaWitness] = None,
) -> Evaluation:
    """The evaluation that :func:`very_ampleness` explains; same inputs and errors."""
    sq, deg = as_fraction(m2), as_fraction(mindeg_all)
    found = very_ampleness_witness(sq, deg) if witness is None else witness
    if found is None:
        return Evaluation(
            "very-ample/witness",
            _global_infeasible(sq, deg),
            note="no admissible (beta2, beta1) exists",
            sufficient=False,
        )
    conditions = _global_degree_bound(sq, deg, found.beta2[0], found.beta1[0])
    return Evaluation("very-ample/witness", conditions, found, _SEARCHED if witness is None else "")


def very_ampleness(
    m2: RationalLike,
    mindeg_all: RationalLike,
    witness: Optional[BetaWitness] = None,
) -> CriterionVerdict:
    """Very ampleness of the adjoint system from global degree data."""
    return explain(very_ample_rule(m2, mindeg_all, witness))


# ---------------------------------------------------------------------------
# goal kinds


class GoalKind(NamedTuple):
    """What one goal kind reads, for its check-* query and for search goal=.

    Its rule and its checker both take ``(*mus, m2, *degrees, witness)``:
    the multiplicities that ``mus`` names, M^2, the minimal degrees that
    ``degrees`` names, and a witness or None.
    """

    rule: str  # the rule that the search reads, found by name when it runs, so that a wrapped one is the one called
    checker: str  # the public checker that the check-* query explains, found by name in the same way
    marked: tuple[str, ...]  # the keys naming the marked data
    mus: tuple[str, ...]  # the value name of each multiplicity
    degrees: tuple[tuple[str, DegreeFilter], ...]  # each minimal degree's value name (its check-* key) and filter
    witness: tuple[str, ...]  # the witness keys: the beta2 values, then the beta1 values
    roles: tuple[tuple[str, ...], tuple[str, ...]]  # the roles of the BetaWitness the keys build: beta2's, beta1's
    search_witness: bool  # whether search goal= takes the witness keys too

    def query_keys(self, *others: str) -> tuple[str, ...]:
        """The keys of this goal's check-* query, which reads ``others`` after its marked data."""
        return self.marked + others + tuple(key for key, _ in self.degrees) + self.witness


GOAL_KINDS = {
    "free": GoalKind(
        "freeness_rule",
        "freeness_at",
        ("point",),
        ("mu",),
        (("mindeg", DegreeFilter.THROUGH_POINT),),
        ("beta2", "beta1"),
        (("at-p",), ("at-p",)),
        True,
    ),
    "separate": GoalKind(
        "separation_rule",
        "separation",
        ("p", "q"),
        ("mu_p", "mu_q"),
        (("mindeg_p", DegreeFilter.ALL), ("mindeg_q", DegreeFilter.ALL), ("mindeg_pq", DegreeFilter.ALL)),
        ("beta2_p", "beta2_q", "beta1_p", "beta1_q"),
        (("at-p", "at-q"), ("at-p", "at-q")),
        False,
    ),
    "tangent": GoalKind(
        "tangent_rule",
        "tangent_separation",
        ("tangent",),
        ("mu_p", "mu_V"),
        (("mindeg_p", DegreeFilter.THROUGH_POINT), ("mindeg_Z", DegreeFilter.CONTAINING_Z)),
        ("beta2_p", "beta2_V", "beta1"),
        (("at-p", "at-V"), ("global",)),
        False,
    ),
    "very-ample": GoalKind(
        "very_ample_rule",
        "very_ampleness",
        (),
        (),
        (("mindeg", DegreeFilter.ALL),),
        ("beta2", "beta1"),
        (("global",), ("global",)),
        True,
    ),
}


def _sqrt2_lower_convergents() -> Iterator[tuple[int, int]]:
    """(p, q) for each convergent p/q of sqrt(2) below it, in order."""
    p, q = 1, 1
    while True:
        if p * p < 2 * q * q:
            yield p, q
        p, q = p + 2 * q, p + q


def threshold_very_ampleness(m2: RationalLike, mindeg_all: RationalLike) -> CriterionVerdict:
    """Very ampleness from the single irrational threshold, decided exactly.

    Requires M^2 > 6 + 4*sqrt(2) and min degree > 2 + sqrt(2); both are
    decided over the rationals by exact square comparisons.  On success the
    verdict carries an explicit witness for the two-parameter rule: beta2 = 1 + c
    for the first lower convergent c = p/q of sqrt(2) that fits.  With
    beta2 = (p + q)/q and beta1 = beta2/(beta2 - 1) = (p + q)/p, each convergent
    is tested on integers, by cross-multiplying M^2 > 2*beta2^2 and
    min degree >= 2*beta1; only the witness is made of Fractions.
    """
    sq, deg = as_fraction(m2), as_fraction(mindeg_all)
    conditions = (
        _gt("min degree > 2", deg, 2),
        _gt("(min degree - 2)^2 > 2", (deg - 2) ** 2, 2),
        _gt("M^2 > 6", sq, 6),
        _gt("(M^2 - 6)^2 > 32", (sq - 6) ** 2, 32),
    )
    if not all(condition[4] for condition in conditions):
        return explain(Evaluation("very-ample/threshold", iter(conditions)))
    # The comparisons above put 1 + sqrt(2) inside [deg/(deg - 2), sqrt(M^2/2)),
    # the beta2 range of the rule, so a convergent lands in it after a number of
    # steps linear in the bit size of the input.
    sn, sd, dn, dd = sq.numerator, sq.denominator, deg.numerator, deg.denominator
    for p, q in _sqrt2_lower_convergents():  # each p/q >= 1, so beta2 >= 2
        s = p + q
        if sn * q * q > 2 * s * s * sd and dn * p >= 2 * s * dd:
            witness = BetaWitness.single(Fraction(s, q), Fraction(s, p))
            break
    return explain(Evaluation("very-ample/threshold", iter(conditions), witness, "witness from sqrt(2) convergents"))


# ---------------------------------------------------------------------------
# Euler characteristic


def riemann_roch_chi(h: DivisorClass, k: DivisorClass, chi_o: RationalLike) -> Fraction:
    """chi of a line bundle on a surface: H.(H - K)/2 + chi(O)."""
    return h.intersect(h - k) / 2 + as_fraction(chi_o)
