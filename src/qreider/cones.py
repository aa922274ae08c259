"""Nefness and minimal curve degrees over declared curve families.

A cone description is either a finite list of generator classes (trusted to
exhaust the degrees of irreducible curves; correctness of that declaration is
the caller's responsibility) or the builtin family of curve classes on the
rank-2 (G, F) lattice with G*G = -n, F*F = 0, G*F = 1, whose irreducible
classes are G, the F-class, and a*G + b*F with a >= 1, b >= n*a.  Every
pairing is read from one representation: a ``Degrees`` keeps a set of
classes as integer pairing rows over one positive denominator
(``_integer_pairings`` puts the gram matrix and the classes over common
denominators and takes integer dot products), so that M.C is an integer dot
product with M's coefficients over that denominator.  Each cone builds its
nef test once, as a ``Degrees`` over its nef classes with the trace text of
each row alongside; the nef test, ``Degrees.minimum`` and the parameter
search all read such rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .lattice import DivisorClass, IntersectionLattice, as_int


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The least positive common denominator d of the rationals in ``rows``,
    and the rows times d, as integers."""
    d = math.lcm(*[x.denominator for row in rows for x in row])
    if d == 1:
        return 1, tuple([tuple([x.numerator for x in row]) for row in rows])
    return d, tuple([tuple([x.numerator * (d // x.denominator) for x in row]) for row in rows])


def _dot(xs: Sequence[int], ys: Sequence[int]) -> int:
    return sum(map(operator.mul, xs, ys))


def _integer_pairings(classes: Sequence[DivisorClass]) -> tuple[int, tuple[tuple[int, ...], ...]]:
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
    # the nef test: M.C >= 0 on every generator, with one trace text per row
    nef: Degrees = field(init=False, repr=False, compare=False)
    nef_texts: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("generator list must be non-empty")
        lat = gens[0].cls.lattice
        if any(g.cls.lattice is not lat for g in gens):
            raise ValueError("all generators must live on one lattice")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "nef", Degrees("nef test", tuple(g.cls for g in gens)))
        object.__setattr__(self, "nef_texts", tuple(f"M.C_{i} >= 0 (nef)" for i in range(len(gens))))

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
    nef: Degrees = field(init=False, repr=False, compare=False)
    nef_texts: tuple[str, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "nef", Degrees("nef test", (g_class, f_class)))
        object.__setattr__(self, "nef_texts", ("M.G >= 0 (nef)", "M.F >= 0 (nef)"))

    def family_corner(self) -> DivisorClass:
        """G + n*F, the minimizing member of the a >= 1, b >= n*a family."""
        return self.lattice.divisor_class((1, self.n))


ConeDescription = FiniteGenerators | HirzebruchFamily


def _require_lattice(m: DivisorClass, cone: ConeDescription) -> None:
    if m.lattice is not cone.lattice:
        raise ValueError("class does not live on the cone's lattice")


def is_nef(m: DivisorClass, cone: ConeDescription) -> bool:
    """True iff the class meets every declared curve class non-negatively."""
    _require_lattice(m, cone)
    return cone.nef.minimum(m.coeffs) >= 0


@dataclass(frozen=True)
class Degrees:
    """A declared family of curve classes, for a degree minimum or a nef test.

    The classes are kept as one set of integer pairing rows over one positive
    denominator ``den`` (``_integer_pairings``), so that M.C is a dot
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
        den, rows = _integer_pairings(self.classes)
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
