"""Surface models and exact Q-divisor calculus.

A :class:`SurfaceModel` bundles an intersection lattice, the canonical class,
chi(O), and *declared* local data: named irreducible curves with their
classes, marked points with per-curve multiplicities, and infinitely-near
tangent directions.  Multiplicities are user-declared numerical data, never
computed from equations.

Q-divisors are sparse coefficient maps over the declared curves.  They may
carry negative coefficients (differences of divisors occur in the blow-up
identity); effectivity is checked where an operation requires it.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .lattice import DivisorClass, IntersectionLattice, RationalLike, as_fraction, as_int


class UnknownCurveError(ValueError):
    pass


class UnknownPointError(ValueError):
    pass


class UnknownTangentError(ValueError):
    pass


@dataclass(frozen=True)
class Curve:
    """A named irreducible curve with its lattice class."""

    name: str
    cls: DivisorClass


@dataclass(frozen=True)
class PointSpec:
    """Local multiplicities of the declared curves at a marked point.

    ``mults[c]`` is the multiplicity of curve ``c`` at the point (given as a
    map or as pairs); curves absent from it do not pass through the point.
    """

    name: str
    mults: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for curve, m in dict(self.mults).items():
            m = as_int(m)
            if m < 0:
                raise ValueError(f"negative multiplicity for {curve!r} at {self.name!r}")
            if m:
                cleaned[curve] = m
        object.__setattr__(self, "mults", cleaned)

    def mult(self, curve: str) -> int:
        return self.mults.get(curve, 0)


@dataclass(frozen=True)
class TangentSpec:
    """A tangent direction at a marked point, with one infinitely-near level.

    ``mults_V[c]`` is the order of the strict transform of curve ``c`` at the
    infinitely-near point picked out by the direction.  ``contains_Z[c]``
    records whether the direction lies in the tangent cone of ``c`` at the
    underlying point; for singular curves this is independent data, not a
    function of the two multiplicities.
    """

    name: str
    at: str
    mults_V: Mapping[str, int] = field(default_factory=dict)
    contains_Z: Mapping[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for curve, m in dict(self.mults_V).items():
            m = as_int(m)
            if m < 0:
                raise ValueError(f"negative infinitely-near order for {curve!r} at {self.name!r}")
            if m:
                cleaned[curve] = m
        object.__setattr__(self, "mults_V", cleaned)
        object.__setattr__(self, "contains_Z", {c: bool(v) for c, v in dict(self.contains_Z).items() if v})

    def mult_V(self, curve: str) -> int:
        return self.mults_V.get(curve, 0)


def check_tangent(tangent: TangentSpec, points: Mapping[str, PointSpec], curves: Mapping[str, Curve]) -> None:
    """Raise unless the tangent sits at a declared point, names declared curves
    only, and orders and marks no curve beyond its multiplicity at the point."""
    tname = tangent.name
    if tangent.at not in points:
        raise UnknownPointError(f"tangent {tname!r} sits at undeclared point {tangent.at!r}")
    base = points[tangent.at]
    for curve, m in tangent.mults_V.items():
        if curve not in curves:
            raise UnknownCurveError(f"tangent {tname!r} references undeclared curve {curve!r}")
        if m > base.mult(curve):
            raise ValueError(f"order of {curve!r} at {tname!r} exceeds its multiplicity at {tangent.at!r}")
    for curve, flag in tangent.contains_Z.items():
        if curve not in curves:
            raise UnknownCurveError(f"tangent {tname!r} references undeclared curve {curve!r}")
        if flag and base.mult(curve) < 1:
            raise ValueError(f"direction {tname!r} lies on {curve!r}, but {curve!r} misses {tangent.at!r}")


@dataclass(frozen=True)
class SurfaceModel:
    lattice: IntersectionLattice
    canonical: DivisorClass
    chi_structure_sheaf: Fraction
    curves: Mapping[str, Curve] = field(default_factory=dict)
    points: Mapping[str, PointSpec] = field(default_factory=dict)
    tangents: Mapping[str, TangentSpec] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "chi_structure_sheaf", as_fraction(self.chi_structure_sheaf))
        object.__setattr__(self, "curves", dict(self.curves))
        object.__setattr__(self, "points", dict(self.points))
        object.__setattr__(self, "tangents", dict(self.tangents))
        if self.canonical.lattice is not self.lattice:
            raise ValueError("canonical class must live on the surface lattice")
        for name, curve in self.curves.items():
            if curve.name != name:
                raise ValueError(f"curve key {name!r} does not match curve name {curve.name!r}")
            if curve.cls.lattice is not self.lattice:
                raise ValueError(f"curve {name!r} has a class on a foreign lattice")
        for pname, point in self.points.items():
            if point.name != pname:
                raise ValueError(f"point key {pname!r} does not match point name {point.name!r}")
            for curve in point.mults:
                if curve not in self.curves:
                    raise UnknownCurveError(f"point {pname!r} references undeclared curve {curve!r}")
        for tname, tangent in self.tangents.items():
            if tangent.name != tname:
                raise ValueError(f"tangent key {tname!r} does not match tangent name {tangent.name!r}")
            check_tangent(tangent, self.points, self.curves)

    def point(self, name: str) -> PointSpec:
        try:
            return self.points[name]
        except KeyError:
            raise UnknownPointError(f"no point named {name!r}") from None

    def tangent(self, name: str) -> TangentSpec:
        try:
            return self.tangents[name]
        except KeyError:
            raise UnknownTangentError(f"no tangent named {name!r}") from None

    def divisor(self, coeffs: Mapping[str, RationalLike] | None = None) -> "QDivisor":
        return QDivisor(self, dict(coeffs or {}))


@dataclass(frozen=True)
class QDivisor:
    """A formal exact-rational combination of the surface's declared curves.

    Zero coefficients are dropped on construction, so equality of coefficient
    maps is equality of divisors.
    """

    surface: SurfaceModel
    coeffs: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        cleaned: dict[str, Fraction] = {}
        for name, value in dict(self.coeffs).items():
            if name not in self.surface.curves:
                raise UnknownCurveError(f"divisor references undeclared curve {name!r}")
            q = as_fraction(value)
            if q:
                cleaned[name] = q
        object.__setattr__(self, "coeffs", cleaned)

    def coeff(self, curve: str) -> Fraction:
        if curve not in self.surface.curves:
            raise UnknownCurveError(f"no curve named {curve!r}")
        return self.coeffs.get(curve, Fraction(0))

    def _require_same_surface(self, other: "QDivisor") -> None:
        if self.surface is not other.surface:
            raise ValueError("divisors live on different surface models")

    def __add__(self, other: "QDivisor") -> "QDivisor":
        self._require_same_surface(other)
        merged = dict(self.coeffs)
        for name, value in other.coeffs.items():
            merged[name] = merged.get(name, Fraction(0)) + value
        return QDivisor(self.surface, merged)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        return self + (-other)

    def __neg__(self) -> "QDivisor":
        return QDivisor(self.surface, {n: -v for n, v in self.coeffs.items()})

    def __mul__(self, scalar: RationalLike) -> "QDivisor":
        q = as_fraction(scalar)
        return QDivisor(self.surface, {n: q * v for n, v in self.coeffs.items()})

    __rmul__ = __mul__

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.coeffs.values())

    def is_boundary(self) -> bool:
        """All coefficients in [0, 1)."""
        return all(0 <= v < 1 for v in self.coeffs.values())

    def round_up(self) -> "QDivisor":
        return QDivisor(self.surface, {n: Fraction(math.ceil(v)) for n, v in self.coeffs.items()})

    def round_down(self) -> "QDivisor":
        return QDivisor(self.surface, {n: Fraction(math.floor(v)) for n, v in self.coeffs.items()})

    def divisor_class(self) -> DivisorClass:
        total = self.surface.lattice.zero()
        for name, value in self.coeffs.items():
            total = total + value * self.surface.curves[name].cls
        return total

    def ord_at(self, point: str) -> Fraction:
        """Multiplicity of the divisor at the marked point named ``point``: sum of coeff * mult."""
        spec = self.surface.point(point)
        return sum((v * spec.mult(n) for n, v in self.coeffs.items()), Fraction(0))

    def __repr__(self) -> str:
        parts = [f"{v}*{n}" for n, v in sorted(self.coeffs.items())]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class PullbackMap:
    """Total-transform map attached to a single blow-up.

    Sends a divisor ``sum b_i C_i`` on the source to
    ``sum b_i (strict transform of C_i) + ord_p * E`` on the target.
    """

    source: SurfaceModel
    target: SurfaceModel
    point: str
    exceptional: str

    def exceptional_class(self) -> DivisorClass:
        return self.target.lattice.basis_class(self.exceptional)

    def exceptional_divisor(self) -> QDivisor:
        return self.target.divisor({self.exceptional: 1})

    def pull_class(self, cls: DivisorClass) -> DivisorClass:
        if cls.lattice is not self.source.lattice:
            raise ValueError("class does not live on the source lattice")
        return DivisorClass(self.target.lattice, cls.coeffs + (Fraction(0),))

    def pull(self, d: QDivisor) -> QDivisor:
        if d.surface is not self.source:
            raise ValueError("divisor does not live on the source surface")
        coeffs = dict(d.coeffs)
        mu = d.ord_at(self.point)
        if mu:
            coeffs[self.exceptional] = mu
        return QDivisor(self.target, coeffs)


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    k = 1
    while name in taken:
        k += 1
        name = f"{base}{k}"
    return name


def blow_up(surface: SurfaceModel, point: str) -> tuple[SurfaceModel, PullbackMap]:
    """Blow up the marked point named ``point``.

    The target lattice extends the source by one basis element E with
    E*E = -1, orthogonal to all pulled-back classes.  Declared curves become
    their strict transforms (same names, class decreased by mult * E); the
    exceptional curve is added under a fresh name.  Marked points and
    tangents are not transported.
    """
    spec = surface.point(point)
    lat = surface.lattice
    taken = set(lat.basis_labels) | set(surface.curves)
    e_name = _fresh_name(f"E_{spec.name}", taken)

    rank = lat.rank
    gram = [list(row) + [Fraction(0)] for row in lat.gram]
    gram.append([Fraction(0)] * rank + [Fraction(-1)])
    new_lat = IntersectionLattice(lat.basis_labels + (e_name,), gram)

    def lift(cls: DivisorClass) -> DivisorClass:
        return DivisorClass(new_lat, cls.coeffs + (Fraction(0),))

    e_cls = new_lat.basis_class(e_name)
    curves = {}
    for name, curve in surface.curves.items():
        strict = lift(curve.cls) - spec.mult(name) * e_cls
        curves[name] = Curve(name, strict)
    curves[e_name] = Curve(e_name, e_cls)

    target = SurfaceModel(
        lattice=new_lat,
        canonical=lift(surface.canonical) + e_cls,
        chi_structure_sheaf=surface.chi_structure_sheaf,
        curves=curves,
    )
    return target, PullbackMap(surface, target, spec.name, e_name)


def verify_adjoint_blowup_identity(
    surface: SurfaceModel,
    boundary: QDivisor,
    positive: QDivisor,
    point: str,
) -> bool:
    """Check the round-up identity for the adjoint divisor under one blow-up.

    With B the boundary, M the positive part and mu the multiplicity of B at
    the marked point named ``point``, the identity states

        K_target + ceil(f*M)  =  f*(K + B + M) - (floor(mu) - 1) E.

    Both sides are evaluated exactly: the canonical parts at the class level
    (K_target against f*K + E) and the rest coefficient-wise as Q-divisors,
    with f*M computed as f*(B+M) - f*B.
    """
    if boundary.surface is not surface or positive.surface is not surface:
        raise ValueError("divisors must live on the given surface")
    if not boundary.is_boundary():
        raise ValueError("boundary divisor must have coefficients in [0, 1)")
    total = boundary + positive
    if not total.is_integral():
        raise ValueError("boundary plus positive part must be integral")

    mu = boundary.ord_at(point)
    target, pb = blow_up(surface, point)

    canonical_ok = target.canonical == pb.pull_class(surface.canonical) + pb.exceptional_class()

    pulled_total = pb.pull(total)
    pulled_boundary = pb.pull(boundary)
    pulled_positive = pulled_total - pulled_boundary
    e = pb.exceptional_divisor()
    lhs = e + pulled_positive.round_up()
    rhs = pulled_total - (math.floor(mu) - 1) * e
    return canonical_ok and lhs == rhs
