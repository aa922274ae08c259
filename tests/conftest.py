"""Shared helpers: brute-force oracles and random generators for exact data."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from qreider.lattice import DivisorClass, IntersectionLattice


def _grid_degrees(x: Fraction, y: Fraction, n: int, amax: int, bextra: int, include_fiber: bool):
    """Degrees of x*G + y*F against every declared irreducible class.

    Candidates are the section G, optionally the fiber class F, and every
    a*G + b*F with 1 <= a <= amax and n*a <= b <= n*a + bextra; the pairing
    is expanded by hand, (xG + yF).(aG + bF) = a*(y - n*x) + b*x, and
    evaluated over a common denominator so the double loop is integral.
    """
    den = x.denominator * y.denominator // __import__("math").gcd(x.denominator, y.denominator)
    sx = int(x * den)
    sg = int((y - n * x) * den)  # scaled degree against G
    scaled = [sg]
    if include_fiber:
        scaled.append(sx)
    for a in range(1, amax + 1):
        base = a * sg + n * a * sx
        for k in range(bextra + 1):
            scaled.append(base + k * sx)
    return scaled, den


def grid_is_nef(x: Fraction, y: Fraction, n: int, amax: int = 20, bextra: int = 40) -> bool:
    scaled, _ = _grid_degrees(x, y, n, amax, bextra, include_fiber=True)
    return all(v >= 0 for v in scaled)


def grid_min_degree(
    x: Fraction, y: Fraction, n: int, include_fiber: bool, amax: int = 30, bextra: int = 60
) -> Fraction:
    scaled, den = _grid_degrees(x, y, n, amax, bextra, include_fiber)
    return Fraction(min(scaled), den)


def round_down(d):
    """The floor of a QDivisor, coefficient by coefficient: the reference for ``round_up``'s identities."""
    return type(d)(d.surface, {name: Fraction(math.floor(v)) for name, v in d.coeffs.items()})


def random_fraction(rng: random.Random, lo: int, hi: int, max_den: int = 4) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_nef_coeffs(rng: random.Random, n: int) -> tuple[Fraction, Fraction]:
    """x >= 0 and y >= n*x, the exact nef region of the builtin family."""
    x = random_fraction(rng, 0, 5)
    y = n * x + random_fraction(rng, 0, 8)
    return x, y


def random_symmetric_gram(rng: random.Random, rank: int):
    entries = [[Fraction(0)] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            v = random_fraction(rng, -3, 3, max_den=2)
            entries[i][j] = entries[j][i] = v
    return entries


def random_lattice(rng: random.Random, max_rank: int = 4) -> IntersectionLattice:
    rank = rng.randint(1, max_rank)
    labels = tuple(f"e{i}" for i in range(rank))
    return IntersectionLattice(labels, random_symmetric_gram(rng, rank))


def random_class(rng: random.Random, lat: IntersectionLattice, lo: int = -4, hi: int = 4) -> DivisorClass:
    return lat.divisor_class([random_fraction(rng, lo, hi) for _ in range(lat.rank)])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
