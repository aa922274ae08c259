"""Exact-rational intersection lattices and divisor classes.

Every number in this module is a ``fractions.Fraction``; no floating point
enters any computation.  No text is read here either: ``as_fraction`` takes
exact numbers only, ``as_int`` takes ``int``s only, and typed numbers go
through the ``.surf`` literal grammar in ``qreider.document``.  Lattices
compare by identity: classes built on two separately constructed lattices
never interoperate, even if the Gram data happens to coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence, Union

RationalLike = Union[int, Fraction, Rational]


class LatticeMismatchError(ValueError):
    """Two divisor classes live on different lattices."""


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions and other exact rationals exactly; a str is a
    TypeError (text is read by the ``.surf`` literal grammar)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def as_int(x: int) -> int:
    """An ``int`` as it is; a bool, float, str, Fraction or anything else is a
    TypeError, so that no value is truncated or read as text."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"not an integer: {x!r}")


@dataclass(frozen=True, eq=False)
class IntersectionLattice:
    """A named basis together with a symmetric bilinear form over Q.

    ``gram[i][j]`` is the pairing of the i-th and j-th basis elements.
    Instances compare (and hash) by identity; see the module docstring.
    """

    basis_labels: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def __init__(self, basis_labels: Sequence[str], gram: Sequence[Sequence[RationalLike]]):
        labels = tuple(str(s) for s in basis_labels)
        rows = tuple(tuple(as_fraction(x) for x in row) for row in gram)
        if not labels:
            raise ValueError("lattice needs at least one basis element")
        if len(set(labels)) != len(labels):
            raise ValueError(f"basis labels must be pairwise distinct: {labels}")
        if len(rows) != len(labels) or any(len(r) != len(labels) for r in rows):
            raise ValueError("gram matrix must be square of size rank")
        for i in range(len(rows)):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"gram matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "gram", rows)

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def index(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise KeyError(f"no basis element named {label!r}") from None

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (Fraction(0),) * self.rank)

    def basis_class(self, label: str) -> "DivisorClass":
        i = self.index(label)
        coeffs = tuple(Fraction(int(j == i)) for j in range(self.rank))
        return DivisorClass(self, coeffs)

    def divisor_class(self, coeffs: Sequence[RationalLike]) -> "DivisorClass":
        """Build a class from its coefficient vector in basis order."""
        return DivisorClass(self, tuple(coeffs))  # the class coerces each coefficient

    def __repr__(self) -> str:
        return f"IntersectionLattice(basis={list(self.basis_labels)})"


@dataclass(frozen=True)
class DivisorClass:
    """An element of an intersection lattice, as an exact coefficient vector."""

    lattice: IntersectionLattice
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_fraction(x) for x in self.coeffs))
        if len(self.coeffs) != self.lattice.rank:
            raise ValueError("coefficient vector length differs from lattice rank")

    def _require_same_lattice(self, other: "DivisorClass") -> None:
        if self.lattice is not other.lattice:
            raise LatticeMismatchError("divisor classes live on different lattices")

    def intersect(self, other: "DivisorClass") -> Fraction:
        """Evaluate the bilinear pairing of the two classes, exactly."""
        self._require_same_lattice(other)
        gram = self.lattice.gram
        total = Fraction(0)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            row = gram[i]
            for j, b in enumerate(other.coeffs):
                if b:
                    total += a * row[j] * b
        return total

    def self_intersection(self) -> Fraction:
        return self.intersect(self)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_lattice(other)
        return DivisorClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._require_same_lattice(other)
        return DivisorClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: RationalLike) -> "DivisorClass":
        q = as_fraction(scalar)
        return DivisorClass(self.lattice, tuple(q * a for a in self.coeffs))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        parts = []
        for label, c in zip(self.lattice.basis_labels, self.coeffs):
            if c:
                parts.append(f"{c}*{label}")
        return " + ".join(parts) if parts else "0"


def hirzebruch_lattice(n: int) -> IntersectionLattice:
    """Rank-2 lattice with basis (G, F), G*G = -n, F*F = 0, G*F = 1; ``n``
    must be a positive ``int`` (see ``as_int``)."""
    n = as_int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return IntersectionLattice(("G", "F"), ((Fraction(-n), Fraction(1)), (Fraction(1), Fraction(0))))
