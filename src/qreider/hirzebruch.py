"""Builders for the standard rank-2 ruled-surface model.

The model carries the two named curves G (the section of negative square) and
F (one fiber), the canonical class -2G - (n+2)F, chi(O) = 1, and the marked
local data used by the worked example: the intersection point of F and G with
the direction tangent to G there, a generic point of G, one generic point and
a pair of points on F away from G, and a point on no declared curve.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, as_int, hirzebruch_lattice
from .surface import Curve, PointSpec, SurfaceModel, TangentSpec

# marked-point names used by the claim drivers
POINT_FG = "pFG"  # F meets G
POINT_ON_G = "pG"  # generic point of G
POINT_ON_G2 = "pG2"  # second generic point of G
POINT_ON_F = "qF"  # generic point of F, off G
POINT_ON_F2 = "qF2"  # second point of F, off G
POINT_GENERIC = "q"  # on no declared curve
TANGENT_G = "vG"  # direction of G at POINT_FG


def hirzebruch_model(n: int) -> SurfaceModel:
    """The n-th model; ``n`` must be a positive ``int`` (see ``lattice.as_int``)."""
    n = as_int(n)
    lat = hirzebruch_lattice(n)
    g = lat.basis_class("G")
    f = lat.basis_class("F")
    curves = {"G": Curve("G", g), "F": Curve("F", f)}
    points = {
        POINT_FG: PointSpec(POINT_FG, {"G": 1, "F": 1}),
        POINT_ON_G: PointSpec(POINT_ON_G, {"G": 1}),
        POINT_ON_G2: PointSpec(POINT_ON_G2, {"G": 1}),
        POINT_ON_F: PointSpec(POINT_ON_F, {"F": 1}),
        POINT_ON_F2: PointSpec(POINT_ON_F2, {"F": 1}),
        POINT_GENERIC: PointSpec(POINT_GENERIC, {}),
    }
    tangents = {
        TANGENT_G: TangentSpec(TANGENT_G, POINT_FG, {"G": 1}, {"G": True}),
    }
    return SurfaceModel(
        lattice=lat,
        canonical=lat.divisor_class((-2, -(n + 2))),
        chi_structure_sheaf=Fraction(1),
        curves=curves,
        points=points,
        tangents=tangents,
    )


def hyperplane_class(model: SurfaceModel, m: int) -> DivisorClass:
    """G + m*F."""
    return model.lattice.divisor_class((1, m))
