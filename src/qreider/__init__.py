"""Exact-arithmetic Reider-type criteria for adjoint linear systems on
surfaces with rational boundary divisors.

All computations are over arbitrary-precision rationals; no floating point
enters any decision.
"""

__version__ = "0.1.0"

from .cones import (
    ConeGenerator,
    DegreeFilter,
    FiniteGenerators,
    HirzebruchFamily,
    NotNefError,
    is_nef,
    min_degree,
)
from .criteria import (
    BetaWitness,
    CriterionVerdict,
    DomainError,
    freeness_at,
    freeness_witness,
    min_formula,
    riemann_roch_chi,
    separation,
    separation_witness,
    tangent_separation,
    tangent_witness,
    threshold_very_ampleness,
    very_ampleness,
    very_ampleness_witness,
)
from .lattice import DivisorClass, IntersectionLattice, LatticeMismatchError, hirzebruch_lattice
from .plc import LocalConfig, LocalCurveData, ThresholdResult, plc_threshold
from .search import (
    AffineExpr,
    Param,
    ParamFamily,
    SearchReport,
    hirzebruch_claim,
    search_params,
)
from .surface import (
    Curve,
    PointSpec,
    QDivisor,
    SurfaceModel,
    TangentSpec,
    blow_up,
    verify_adjoint_blowup_identity,
)
