"""Nefness, bigness, and minimal curve degrees over declared curve families.

A cone description is either a finite list of generator classes (trusted to
exhaust the degrees of irreducible curves; correctness of that declaration is
the caller's responsibility) or the builtin family of curve classes on the
rank-2 (G, F) lattice with G*G = -n, F*F = 0, G*F = 1, whose irreducible
classes are G, the F-class, and a*G + b*F with a >= 1, b >= n*a.  Each cone
builds its nef test once, as pairing rows, so that testing a class is one dot
product per row.  Pairings are computed on integers: ``_integer_pairing_rows``
puts the gram matrix and a set of classes over common denominators and takes
integer dot products, and ``pairing_row`` makes a ``Fraction`` only for each
non-zero entry.  A ``Degrees`` source keeps its classes as one set of integer
pairing rows over one positive denominator; ``Degrees.minimum`` and the
parameter search both read them, so a minimal degree is the least integer dot
product over that denominator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .criteria import TraceLine, check
from .lattice import DivisorClass, IntersectionLattice, as_int


# A pairing row is gram . C, with its zero entries dropped as (index, value)
# pairs, so that m.C is a dot product with m's coefficients.  A nef test is
# (trace text, pairing row).
PairingRow = tuple[tuple[int, Fraction], ...]
NefRow = tuple[str, PairingRow]


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The least positive common denominator d of the rationals in ``rows``,
    and the rows times d, as integers."""
    d = math.lcm(*[x.denominator for row in rows for x in row])
    if d == 1:
        return 1, tuple([tuple([x.numerator for x in row]) for row in rows])
    return d, tuple([tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows])


def _dot(xs: Sequence[int], ys: Sequence[int]) -> int:
    return sum(map(operator.mul, xs, ys))


def _integer_pairing_rows(classes: Sequence[DivisorClass]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A positive common denominator d and, for each class C, the dense row
    d * (gram . C) as integers, with the gram matrix of C's lattice: integer
    dot products of the gram rows and C's coefficients, each put over its
    least common denominator."""
    grams = {lattice: _integer_rows(lattice.gram) for lattice in {c.lattice for c in classes}}
    gram_den = math.lcm(*[den for den, _ in grams.values()])
    class_den, coeffs = _integer_rows([c.coeffs for c in classes])
    rows = []
    for c, x in zip(classes, coeffs):
        den, gram = grams[c.lattice]
        rows.append(tuple([_dot(g, x) * (gram_den // den) for g in gram]))
    return gram_den * class_den, tuple(rows)


def pairing_row(c: DivisorClass) -> PairingRow:
    """gram . C with its zero entries dropped, each entry one ``Fraction`` of
    an integer dot product over a common denominator."""
    den, (row,) = _integer_pairing_rows((c,))
    return tuple((i, Fraction(v, den)) for i, v in enumerate(row) if v)


def pair(coeffs: Sequence[Fraction], row) -> Fraction:
    """m.C for m's coefficient vector and C's ``pairing_row``."""
    total = Fraction(0)
    for i, v in row:
        product = coeffs[i] * v
        total = total + product if total else product  # a sum with zero is skipped
    return total


class NotNefError(ValueError):
    """A minimal degree was requested for a class that is not certified nef."""


class DegreeFilter(str, Enum):
    """Which irreducible curves enter a minimal-degree computation."""

    ALL = "all"
    THROUGH_POINT = "through-p"
    CONTAINING_Z = "containing-z"


@dataclass(frozen=True)
class ConeGenerator:
    """One generator class, flagged by which degree filters it belongs to.

    A curve containing the length-2 scheme necessarily passes through its
    point, so ``contains_z`` forces ``through_p``.
    """

    cls: DivisorClass
    through_p: bool = False
    contains_z: bool = False

    def __post_init__(self):
        if self.contains_z and not self.through_p:
            raise ValueError("a generator containing Z must pass through the point")

    def matches(self, filt: DegreeFilter) -> bool:
        if filt is DegreeFilter.ALL:
            return True
        if filt is DegreeFilter.THROUGH_POINT:
            return self.through_p
        return self.contains_z


@dataclass(frozen=True)
class FiniteGenerators:
    generators: tuple[ConeGenerator, ...]
    nef_rows: tuple[NefRow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("generator list must be non-empty")
        lat = gens[0].cls.lattice
        if any(g.cls.lattice is not lat for g in gens):
            raise ValueError("all generators must live on one lattice")
        object.__setattr__(self, "generators", gens)
        rows = tuple((f"M.C_{i} >= 0 (nef)", pairing_row(g.cls)) for i, g in enumerate(gens))
        object.__setattr__(self, "nef_rows", rows)

    @property
    def lattice(self) -> IntersectionLattice:
        return self.generators[0].cls.lattice


@dataclass(frozen=True)
class HirzebruchFamily:
    """The curve classification on the builtin rank-2 (G, F) lattice.

    The point filters are specialized to the marked configuration: the point
    is the intersection of the F-fiber with G, and the direction is tangent
    to G there (so curves containing the length-2 scheme are G or a*G + b*F
    with a >= 1; never the F-class).
    """

    n: int
    lattice: IntersectionLattice
    g_class: DivisorClass = field(init=False, repr=False, compare=False)
    f_class: DivisorClass = field(init=False, repr=False, compare=False)
    nef_rows: tuple[NefRow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        as_int(self.n)  # a bool, float or Fraction is a TypeError, not a truncated n
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.lattice.rank != 2:
            raise ValueError("builtin family needs a rank-2 lattice")
        g = self.lattice.gram
        expected = ((Fraction(-self.n), Fraction(1)), (Fraction(1), Fraction(0)))
        if g != expected:
            raise ValueError(f"lattice gram matrix must be ((-n, 1), (1, 0)) with n={self.n}")
        g_class, f_class = self.lattice.divisor_class((1, 0)), self.lattice.divisor_class((0, 1))
        object.__setattr__(self, "g_class", g_class)
        object.__setattr__(self, "f_class", f_class)
        # m.(aG+bF) = a*(m.G) + b*(m.F) >= a*(m.G + n*m.F) >= 0 once both signs check out
        rows = (("M.G >= 0 (nef)", pairing_row(g_class)), ("M.F >= 0 (nef)", pairing_row(f_class)))
        object.__setattr__(self, "nef_rows", rows)

    def family_corner(self) -> DivisorClass:
        """G + n*F, the minimizing member of the a >= 1, b >= n*a family."""
        return self.lattice.divisor_class((1, self.n))


ConeDescription = FiniteGenerators | HirzebruchFamily


def _require_lattice(m: DivisorClass, cone: ConeDescription) -> None:
    if m.lattice is not cone.lattice:
        raise ValueError("class does not live on the cone's lattice")


def nef_lines(m: DivisorClass, cone: ConeDescription) -> list[TraceLine]:
    """One ``M.C >= 0 (nef)`` line per row of the cone's nef test."""
    _require_lattice(m, cone)
    return [check(text, pair(m.coeffs, row), ">=", 0) for text, row in cone.nef_rows]


def is_nef(m: DivisorClass, cone: ConeDescription) -> bool:
    """True iff the class meets every declared curve class non-negatively."""
    return all(line.holds for line in nef_lines(m, cone))


def is_big(m: DivisorClass, cone: ConeDescription) -> bool:
    """Certify bigness for nef classes only: nef together with positive square."""
    return is_nef(m, cone) and m.self_intersection() > 0


@dataclass(frozen=True)
class Degrees:
    """A declared family of candidate curve classes for a degree minimum.

    The classes are kept as one set of integer pairing rows over one positive
    denominator ``den`` (``_integer_pairing_rows``), so that M.C is a dot
    product with M's coefficient vector over ``den``, and M's minimal degree
    is the least such integer.  The parameter search composes the same rows
    with its compiled class of M.
    """

    description: str
    classes: tuple[DivisorClass, ...]
    den: int = field(init=False, repr=False, compare=False)
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ValueError("degree family needs at least one class")
        den, rows = _integer_pairing_rows(self.classes)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)

    def minimum(self, coeffs: Sequence[Fraction]) -> Fraction:
        """min M.C over the classes, for M's coefficient vector: the least
        integer dot product with M's coefficients over their common
        denominator, over that denominator times ``den``."""
        d, (m,) = _integer_rows((coeffs,))
        return Fraction(min(_dot(m, row) for row in self.rows), d * self.den)


def cone_degrees(cone: ConeDescription, filt: DegreeFilter = DegreeFilter.ALL) -> Degrees:
    """The declared classes a nef class's minimal degree over the filter is taken on."""
    if isinstance(cone, FiniteGenerators):
        classes = tuple(g.cls for g in cone.generators if g.matches(filt))
        if not classes:
            raise ValueError(f"no cone generator matches filter {filt.value!r}")
    elif filt is DegreeFilter.CONTAINING_Z:
        classes = (cone.g_class, cone.family_corner())
    else:
        classes = (cone.g_class, cone.family_corner(), cone.f_class)
    return Degrees(f"cone filter {filt.value}", classes)


def min_degree(m: DivisorClass, cone: ConeDescription, filt: DegreeFilter = DegreeFilter.ALL) -> Fraction:
    """Minimal pairing of a nef class against the declared curves in the filter."""
    if not is_nef(m, cone):
        raise NotNefError("minimal degree is only defined for nef classes")
    return cone_degrees(cone, filt).minimum(m.coeffs)
