"""Partially log-canonical thresholds at a point, as exact values.

A :class:`LocalConfig` lists the curves through one point, each with its
boundary coefficient ``b``, its auxiliary coefficient ``d`` and its
multiplicity at the point.  :func:`plc_threshold` returns the exact scale of
the auxiliary divisor at which a combined coefficient first leaves the
log-canonical range, with the terms that attain it.  The computation is local:
it uses none of the degree-bound rules of :mod:`qreider.criteria`.

Every function here is pure.  The basic threshold is normally taken with
``ord_p(D) = 2 - mu``; :func:`context_note` says so, as a value, when a
configuration differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .lattice import as_fraction, as_int


@dataclass(frozen=True)
class LocalCurveData:
    """Boundary and auxiliary coefficients of one curve through the point."""

    name: str
    b: Fraction
    d: Fraction
    mult_p: int

    def __post_init__(self):
        object.__setattr__(self, "b", as_fraction(self.b))
        object.__setattr__(self, "d", as_fraction(self.d))
        object.__setattr__(self, "mult_p", as_int(self.mult_p))
        if not 0 <= self.b < 1:
            raise ValueError(f"boundary coefficient of {self.name!r} must be in [0, 1)")
        if self.d < 0:
            raise ValueError(f"auxiliary coefficient of {self.name!r} must be non-negative")
        if self.mult_p < 1:
            raise ValueError(f"{self.name!r} is listed through the point, so mult_p >= 1")


@dataclass(frozen=True)
class LocalConfig:
    """All curves through one point, with boundary/auxiliary data."""

    curves: tuple[LocalCurveData, ...]

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        names = [c.name for c in self.curves]
        if len(set(names)) != len(names):
            raise ValueError("duplicate curve names in local configuration")
        special = [name for name in names if name in ThresholdResult.SPECIAL]
        if special:
            raise ValueError(f"curve name {special[0]!r} is a threshold term's label")

    @property
    def mu(self) -> Fraction:
        return sum((c.b * c.mult_p for c in self.curves), Fraction(0))

    @property
    def m_p(self) -> Fraction:
        return sum((c.d * c.mult_p for c in self.curves), Fraction(0))


@dataclass(frozen=True)
class ThresholdResult:
    """Either "already PLC" or the exact threshold with its achieving terms.

    ``achievers`` lists every term attaining the minimum, in declaration
    order; curve names for coefficient terms, ``"ord-cap"`` for the
    multiplicity cap, ``"one-cap"`` for the constant cap of the primed
    variant.  Neither label can name a curve.
    """

    is_plc: bool
    c: Optional[Fraction] = None
    achievers: tuple[str, ...] = ()

    SPECIAL = ("ord-cap", "one-cap")

    @property
    def critical(self) -> Optional[str]:
        for label in self.achievers:
            if label not in self.SPECIAL:
                return label
        return None


class ThresholdMode(str, Enum):
    BASIC = "basic"
    CAP3 = "cap3"
    PRIME = "prime"


def plc_threshold(
    config: LocalConfig,
    mode: Union[str, ThresholdMode] = ThresholdMode.BASIC,
    *,
    c0: Optional[str] = None,
    weak_boundary: bool = False,
) -> ThresholdResult:
    """Exact threshold up to which the scaled auxiliary divisor keeps all
    combined coefficients at the point within the log-canonical range.

    basic:  minimum of (1 - b_i)/d_i over curves with b_i + d_i > 1; if there
            are none the configuration is already PLC at the point.
    cap3:   adds the term (3 - mu)/m_p when m_p > 0.
    prime:  primed variant relative to a chosen curve ``c0``: minimum of 1,
            (3 - mu)/m_p, (2 - b_0)/d_0, and (1 - b_i)/d_i over the *other*
            curves with b_i + d_i > 1.  ``weak_boundary=True`` switches that
            side condition to b_i + d_i >= 1.

    Curves with d_i = 0 never enter a minimum; m_p = 0 drops the cap term.
    :func:`context_note` tells a basic-mode threshold taken off its usual
    context.
    """
    mode = ThresholdMode(mode)
    mu, m_p = config.mu, config.m_p
    terms: list[tuple[str, Fraction]] = []
    chosen = None  # the primed variant's c0
    if mode is ThresholdMode.PRIME:
        if c0 is None:
            raise ValueError("primed threshold needs the distinguished curve c0")
        chosen = next((c for c in config.curves if c.name == c0), None)
        if chosen is None:
            raise ValueError(f"no curve named {c0!r} in the local configuration")
        terms.append(("one-cap", Fraction(1)))
    if mode is not ThresholdMode.BASIC and m_p > 0:
        terms.append(("ord-cap", (3 - mu) / m_p))
    if chosen is not None and chosen.d > 0:
        terms.append((chosen.name, (2 - chosen.b) / chosen.d))
    weak = weak_boundary and chosen is not None
    for cur in config.curves:
        if cur is not chosen and cur.d != 0 and (cur.b + cur.d > 1 or weak and cur.b + cur.d >= 1):
            terms.append((cur.name, (1 - cur.b) / cur.d))
    if not terms:
        return ThresholdResult(is_plc=True)
    c = min(v for _, v in terms)
    achievers = tuple(label for label, v in terms if v == c)
    return ThresholdResult(is_plc=False, c=c, achievers=achievers)


def context_note(config: LocalConfig, mode: Union[str, ThresholdMode] = ThresholdMode.BASIC) -> str:
    """The note of a basic-mode threshold taken where ``m_p != 2 - mu``, the
    value the threshold is normally used with; ``""`` otherwise."""
    mu, m_p = config.mu, config.m_p
    if ThresholdMode(mode) is not ThresholdMode.BASIC or m_p == 2 - mu:
        return ""
    return f"threshold taken with ord_p(D) = {m_p}, not the usual 2 - mu = {2 - mu}"
