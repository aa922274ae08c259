"""Exact oracles for the benchmark, written apart from the library.

Everything here uses ``fractions.Fraction`` and integers only and imports
nothing from ``qreider``: the benchmark checks the library's outputs against
these closed forms, rule re-evaluations and infeasibility certificates.

Notation follows the paper.  On the n-th ruled surface a class is a pair
``(a, b)`` meaning ``a*G + b*F`` with ``G*G = -n``, ``G*F = 1``, ``F*F = 0``,
canonical class ``-2G - (n+2)F`` and ``chi(O) = 1``.  The irreducible curve
classes that realise every minimal degree are ``G``, ``F`` and the moving
family's corner ``C = G + nF``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

Q = Fraction

# ---------------------------------------------------------------------------
# ruled-surface closed forms


def dot(n, x, y):
    """Intersection of two classes (a1, b1) and (a2, b2) on the n-th model."""
    (a1, b1), (a2, b2) = x, y
    return -n * a1 * a2 + a1 * b2 + a2 * b1


def square(n, a, b):
    """M^2 = 2ab - n a^2 for M = aG + bF."""
    return 2 * a * b - n * a * a


def dot_g(n, a, b):
    """M.G = b - n a."""
    return b - n * a


def dot_f(n, a, b):
    """M.F = a."""
    return a


def chi(n, a, b):
    """chi(L) = L.(L - K)/2 + 1 for L = aG + bF; equals 2m - n + 2 on G + mF."""
    l_dot_k = -2 * dot_g(n, a, b) - (n + 2) * dot_f(n, a, b)
    return Q(square(n, a, b) - l_dot_k, 2) + 1


CURVES = {"G": lambda n: (1, 0), "F": lambda n: (0, 1), "C": lambda n: (1, n)}


def min_degree(n, a, b, curves):
    """Minimal degree of aG + bF over the named curve classes (G, F, C)."""
    return min(Q(dot(n, (a, b), CURVES[c](n))) for c in curves)


def is_nef(n, a, b):
    return dot_g(n, a, b) >= 0 and dot_f(n, a, b) >= 0


# ---------------------------------------------------------------------------
# re-evaluation of each rule's inequalities from the inputs and a witness


def beta1_floor(mu, b2):
    """min(2 - mu, b2 / (b2 - (1 - mu))): the least beta1 the rule admits."""
    return min(2 - mu, b2 / (b2 - (1 - mu)))


def freeness_holds(mu, m2, deg, b2, b1):
    if mu >= 2:
        return True
    return b2 > 0 and b1 > 0 and b2 >= 2 - mu and m2 > b2 * b2 and deg >= b1 and b1 >= beta1_floor(mu, b2)


def separation_holds(mu_p, mu_q, m2, dp, dq, dpq, beta2, beta1):
    """Two-point rule; ``beta2``/``beta1`` hold one value per low point."""
    if mu_p >= 2 and mu_q >= 2:
        return True
    if mu_p >= 2 or mu_q >= 2:
        mu, deg = (mu_q, dq) if mu_p >= 2 else (mu_p, dp)
        return freeness_holds(mu, m2, deg, beta2[0], beta1[0])
    if len(beta2) < 2 or len(beta1) < 2:
        return False
    (x, y), (b1p, b1q) = beta2[:2], beta1[:2]
    return (
        min(x, y, b1p, b1q) > 0
        and x >= 2 - mu_p
        and y >= 2 - mu_q
        and m2 > x * x + y * y
        and dp >= b1p >= beta1_floor(mu_p, x)
        and dq >= b1q >= beta1_floor(mu_q, y)
        and dpq >= b1p + b1q
    )


def tangent_floor(mu_p, mu_V, s):
    """Least beta1 of the tangent rule at beta2_p + beta2_V = s (s >= 4 - mu_v)."""
    mu_v = mu_p + mu_V
    plain = (4 - mu_v) / 2
    if mu_v >= 2:
        return plain
    return min(plain, s / (s - (2 - mu_v)))


def tangent_holds(mu_p, mu_V, m2, dp, dz, beta2, beta1):
    mu_v = mu_p + mu_V
    if mu_p >= 3 or mu_v >= 4:
        return True
    if mu_p >= 2:
        return m2 > (4 - mu_v) ** 2 and dp >= (4 - mu_v) / 2 and dz >= 4 - mu_v
    if len(beta2) < 2 or not beta1:
        return False
    (x, y), b1 = beta2[:2], beta1[0]
    return (
        min(x, y, b1) > 0
        and x >= 2 - mu_p
        and y >= 2 - mu_V
        and m2 > x * x + y * y
        and dp >= b1
        and dz >= 2 * b1
        and b1 >= tangent_floor(mu_p, mu_V, x + y)
    )


def very_ample_holds(m2, deg, b2, b1):
    return b2 >= 2 and b1 >= b2 / (b2 - 1) and m2 > 2 * b2 * b2 and deg >= 2 * b1


def threshold_holds(m2, deg):
    """min degree > 2 + sqrt(2) and M^2 > 6 + 4 sqrt(2), by square comparison."""
    return deg > 2 and (deg - 2) ** 2 > 2 and m2 > 6 and (m2 - 6) ** 2 > 32


# ---------------------------------------------------------------------------
# exact feasibility and infeasibility certificates


def freeness_corner(mu, deg):
    """Least admissible beta2 once the degree bound is met, or None."""
    if mu >= 1:
        return 2 - mu if deg >= 2 - mu else None
    c = 1 - mu
    if deg <= 1:
        return None
    return max(2 - mu, c * deg / (deg - 1))


def freeness_feasible(mu, m2, deg):
    if mu >= 2:
        return True
    corner = freeness_corner(mu, deg)
    return corner is not None and m2 > corner * corner


def very_ample_feasible(m2, deg):
    if deg <= 2:
        return False
    corner = max(Q(2), deg / (deg - 2))
    return m2 > 2 * corner * corner


def separation_infeasible(mu_p, mu_q, m2, dp, dq, dpq):
    """True when one of three certificates proves the two-point rule infeasible:
    no beta2 pair at all, a degree below every admissible beta1, or (for
    mu_p = mu_q = 0) the joint bound of ``separation_joint_infeasible``."""
    if m2 <= (2 - mu_p) ** 2 + (2 - mu_q) ** 2:
        return True
    if freeness_corner(mu_p, dp) is None or freeness_corner(mu_q, dq) is None:
        return True
    return mu_p == 0 and mu_q == 0 and separation_joint_infeasible(m2, dpq)


def separation_joint_infeasible(m2, dpq):
    """Certificate for mu_p = mu_q = 0.

    Every admissible beta2 is below s = sqrt(M^2 - 4), so each beta1 exceeds
    s/(s - 1) and the joint bound needs dpq > 2s/(s - 1).  Infeasible iff
    dpq <= 2, or M^2 - 4 <= (dpq/(dpq - 2))^2.
    """
    if m2 <= 8 or dpq <= 2:
        return True
    return m2 - 4 <= (dpq / (dpq - 2)) ** 2


def _lt_sqrt(x, r):
    """x < sqrt(r) for rational x and r >= 0."""
    return x < 0 or x * x < r


def tangent_feasible(mu_p, mu_V, m2, dp, dz):
    """Exact decision of the low-multiplicity tangent rule (mu_p < 2).

    The rule needs only s = beta2_p + beta2_V, and its beta1 floor falls in
    s, so feasibility compares the needed s with the supremum of s over
    {x >= 2 - mu_p, y >= 2 - mu_V, x^2 + y^2 < M^2}: sqrt(2 M^2) when
    M^2 >= 2 l^2, else l + sqrt(M^2 - l^2), with l = max of the two lower bounds.
    """
    lp, lv = 2 - mu_p, 2 - mu_V
    if m2 <= lp * lp + lv * lv:
        return False
    cap = min(dp, dz / 2)
    mu_v = mu_p + mu_V
    if mu_v >= 2:
        return cap >= (4 - mu_v) / 2
    if cap <= 1:
        return False
    c = 2 - mu_v
    need = c * cap / (cap - 1)
    if need <= lp + lv:
        return True
    low = max(lp, lv)
    if m2 >= 2 * low * low:
        return _lt_sqrt(need, 2 * m2)
    return _lt_sqrt(need - low, m2 - low * low)


def sqrt_above(r, scale):
    """A rational just above sqrt(r) (r a non-square integer), within 1/scale."""
    return Q(isqrt(r * scale * scale) + 1, scale)


def sqrt_below(r, scale):
    """A rational just below sqrt(r) (r a non-square integer), within 1/scale."""
    return Q(isqrt(r * scale * scale), scale)
