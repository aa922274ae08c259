"""Rational parameter search for boundary decompositions.

Given an integral target divisor L, a family writes L = B(params) + M(params)
with coefficients affine in named rational parameters.  The search walks a
nested dyadic schedule (the first parameter takes values 2**-k, each later
parameter a dyadic fraction of its predecessor, honoring the intended
"much smaller than" coupling).  Every rule input has degree at most 2 in
the parameters, so each is compiled once into an integer form in the
candidate point: the boundary coefficients and M's class as integer rows
over one common denominator per family (M's class as integer products of
the positive part's rows with the curve classes), M^2 as an integer
quadratic form, and the search cone's nef rows composed with M's rows.  A
candidate is an integer point (q, P_1, ..., P_k), parameter i at P_i / q,
and only the schedule enforces the parameter domains.  The schedule comes in
levels: on a level every parameter but the innermost is fixed, and its
candidates are (P << d, 1) for one outer point P.  The search splits each
form into its part on P, computed once per level, and the innermost
coefficient, so a candidate's sign tests (the boundary in [0, 1), then M's
nef pairings) cost one shift and one add per form.  Only a candidate that
leaves [0, 1) (for its note) or passes the nef test is built as a point.
At the first one whose M is also big, each goal's multiplicities (rows over
the boundary coefficients) and degree sources (their integer pairing rows
composed with M's rows) are compiled into integer forms too; at every such
candidate, each goal's rule (``criteria.freeness_rule`` and its kin) gets
``Fraction``s made only for its arguments: the multiplicities, M^2, the
degree minima (each the least integer of a source's forms over one
denominator) and, for a witness, the parameter values.  Its conditions are
read only up to the first that fails, and no trace text is made for them.
The first candidate that every goal establishes wins; only for it are the
nef values made, and the conditions already read turned into trace lines,
once, after the nef and big lines and under the goal labels.  No divisor is
built.

The drivers at the bottom reproduce the two positivity claims for the
standard ruled-surface model end to end.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from . import criteria
from . import hirzebruch as hz
from .cones import ConeDescription, Degrees, HirzebruchFamily, _dot, _integer_rows, is_nef
from .criteria import BetaWitness, CriterionVerdict, riemann_roch_chi
from .lattice import RationalLike, as_fraction, as_int
from .surface import QDivisor, SurfaceModel

DEFAULT_DEPTH = 24  # finest dyadic level of the parameter schedule
MAX_DEPTH = 64  # keeps a k-parameter search within about 64**k candidates


# ---------------------------------------------------------------------------
# affine parameter expressions


@dataclass(frozen=True)
class AffineExpr:
    """const + sum(coeff * param), with exact rational coefficients."""

    const: Fraction = Fraction(0)
    terms: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "const", as_fraction(self.const))
        if not self.terms:  # a constant
            return
        cleaned = {}
        for name, coeff in dict(self.terms).items():
            q = as_fraction(coeff)
            if q:
                cleaned[name] = q
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def constant(cls, value: RationalLike) -> "AffineExpr":
        return cls(as_fraction(value), {})

    def is_constant(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        parts = [str(self.const)] if self.const or not self.terms else []
        parts += [f"{c}*{n}" for n, c in sorted(self.terms.items())]
        return " + ".join(parts)


@dataclass(frozen=True)
class Param:
    """A named rational unknown with a non-empty open interval domain."""

    name: str
    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo >= self.hi:
            raise ValueError(f"parameter domain ({self.lo}, {self.hi}) is empty")


def _compose(row: Sequence[int], rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The combination sum(row[i] * rows[i]) of equal-length integer rows."""
    return tuple(_dot(row, col) for col in zip(*rows))


@dataclass(frozen=True)
class ParamFamily:
    """A parametric decomposition target = boundary + positive part.

    Coefficients of both parts are affine in the parameters; the sum must be
    parameter-free and integral, so M rounds up to the target wherever the
    boundary lies in [0, 1).  That range is checked at each candidate, not
    symbolically.

    Construction compiles both parts into integer rows: the sum is checked
    on them, the boundary coefficients and the class of M (one form per
    lattice coordinate, the integer products of the positive part's rows
    with the curves' classes) are put over one positive common denominator,
    and M^2 becomes an integer quadratic form over that denominator squared
    times the gram matrix's own, so that a candidate is decided on integers
    and builds no divisor.
    """

    surface: SurfaceModel
    params: tuple[Param, ...]
    boundary: Mapping[str, AffineExpr]
    positive: Mapping[str, AffineExpr]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "boundary", dict(self.boundary))
        object.__setattr__(self, "positive", dict(self.positive))
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        for coeffs in (self.boundary, self.positive):
            for curve in coeffs:
                if curve not in self.surface.curves:
                    raise ValueError(f"family references undeclared curve {curve!r}")
        declared = set(names)
        used = {n for coeffs in (self.boundary, self.positive) for expr in coeffs.values() for n in expr.terms}
        if not used <= declared:
            raise ValueError(f"undeclared parameters in family: {sorted(used - declared)}")
        # A form const + sum(c_i p_i) becomes the integer row den * (const, c_1, ..., c_k), so
        # that at p_i = P_i / q its value is row . (q, P_1, ..., P_k) / (den * q).
        b_den, b_rows = _integer_rows([self._row(e) for e in self.boundary.values()])
        p_den, p_rows = _integer_rows([self._row(e) for e in self.positive.values()])
        # L = B + M on each curve, as an integer row over b_den * p_den
        width = len(self.params) + 1
        zero = (0,) * width
        b_of, p_of = dict(zip(self.boundary, b_rows)), dict(zip(self.positive, p_rows))
        target = {}
        for curve in set(self.boundary) | set(self.positive):
            total = [b * p_den + p * b_den for b, p in zip(b_of.get(curve, zero), p_of.get(curve, zero))]
            if any(total[1:]):
                raise ValueError(f"boundary + positive part is not parameter-free on {curve!r}")
            if total[0] % (b_den * p_den):
                raise ValueError(f"target coefficient on {curve!r} is not an integer")
            target[curve] = Fraction(total[0] // (b_den * p_den))
        object.__setattr__(self, "_target", self.surface.divisor(target))
        c_den, classes = _integer_rows([self.surface.curves[curve].cls.coeffs for curve in self.positive])
        # M's class on lattice coordinate i is sum(class_i * positive row) over the curves, over p_den * c_den
        m_rows = [
            tuple(sum(cls[i] * row[j] for cls, row in zip(classes, p_rows)) for j in range(width))
            for i in range(self.surface.lattice.rank)
        ]
        den = math.lcm(b_den, p_den * c_den)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_boundary_rows", tuple(tuple(x * (den // b_den) for x in row) for row in b_rows))
        object.__setattr__(self, "_m_rows", tuple(tuple(x * (den // (p_den * c_den)) for x in row) for row in m_rows))
        # M^2 = m . gram . m for m = (M's rows) . point, so its rows are (M's rows)^T gram (M's rows)
        gram_den, gram_rows = _integer_rows(self.surface.lattice.gram)
        gram_m = [_compose(row, self._m_rows) for row in gram_rows]
        object.__setattr__(self, "_gram_den", gram_den)
        object.__setattr__(self, "_square", tuple(_compose(col, gram_m) for col in zip(*self._m_rows)))

    def _row(self, expr: AffineExpr) -> tuple[Fraction, ...]:
        """(const, c_1, ..., c_k) for the form const + sum(c_i p_i)."""
        return (expr.const, *(expr.terms.get(p.name, 0) for p in self.params))

    @property
    def target(self) -> QDivisor:
        return self._target


# ---------------------------------------------------------------------------
# goals


WitnessProvider = BetaWitness | Callable[[Mapping[str, Fraction]], BetaWitness] | None


def mu_weights(surface: SurfaceModel, kind: str, at: Sequence[str]) -> tuple[Callable[[str], int], ...]:
    """Each multiplicity that goal kind ``kind``'s rule reads at the marked
    names ``at``, in the rule's order, as the weight it gives each curve: a
    point's multiplicity, or for a tangent its point's and then its order at
    the infinitely-near point.  Looking them up checks the marked names."""
    if kind == "tangent":
        spec = surface.tangent(at[0])
        return surface.point(spec.at).mult, spec.mult_V
    return tuple(surface.point(name).mult for name in at)


@dataclass(frozen=True)
class Goal:
    """One Reider-type check of the positive part M at each candidate.

    ``kind`` is a ``search goal=`` name, a key of ``criteria.GOAL_KINDS``.
    ``at`` names the marked data the rule reads, one name per ``marked``
    key of the kind, and ``degrees`` gives one source per minimal degree
    in the kind's ``degrees``, in the rule's argument order.
    Other counts, or one point named twice for separate, are a
    ``ValueError``.  The search compiles each multiplicity and each degree
    source into integer forms in the candidate point, and hands the rule
    only candidates whose M passes the search cone's nef test and has
    M^2 > 0.
    """

    kind: str
    at: tuple[str, ...]
    degrees: tuple[Degrees, ...]
    witness: WitnessProvider = None
    label: str = ""

    def __post_init__(self):
        kind = criteria.GOAL_KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown search goal {self.kind!r}")
        names, sources = len(kind.marked), len(kind.degrees)
        if len(self.at) != names:
            raise ValueError(f"search goal {self.kind!r} takes {names} marked names, not {len(self.at)}")
        if len(self.degrees) != sources:
            raise ValueError(f"search goal {self.kind!r} takes {sources} degree sources, not {len(self.degrees)}")
        if self.kind == "separate" and self.at[0] == self.at[1]:
            raise ValueError(f"search goal 'separate' needs two different points, not {self.at[0]!r} twice")

    def _decider(self, family: ParamFamily, weights: Sequence[Sequence[int]]):
        """The goal's rule applied at a candidate point whose M is nef and
        big, given the scale of the family's forms there and M^2.  Each
        multiplicity becomes an integer form (its weights composed with the
        boundary rows), and each degree source one form per class (its integer
        pairing row composed with M's rows), so that only the rule's
        arguments are made as ``Fraction``s: a degree minimum is the least of
        its forms' integers, over the scale times the source's denominator."""
        rule = criteria.GOAL_KINDS[self.kind].rule
        names = [p.name for p in family.params]
        mult_forms = [_compose(w, family._boundary_rows) for w in weights]
        degree_forms = [(d.den, [_compose(row, family._m_rows) for row in d.rows]) for d in self.degrees]

        def decide(point: tuple[int, ...], scale: int, m2: Fraction) -> criteria.Evaluation:
            mus = [Fraction(_dot(form, point), scale) for form in mult_forms]
            degrees = [Fraction(min(_dot(form, point) for form in forms), scale * den) for den, forms in degree_forms]
            witness = self.witness(_values(names, point)) if callable(self.witness) else self.witness
            # looked up at call time, so a wrapped rule is the one that runs
            return getattr(criteria, rule)(*mus, m2, *degrees, witness)

        return decide


def _conjunction(verdicts: Sequence[CriterionVerdict]) -> CriterionVerdict:
    """The verdict of a tuple of goals on one candidate: established when every
    part is, with every part's trace in turn, the parts' rules each once, and
    the witness and note that all parts share (else none)."""
    first = verdicts[0]
    return CriterionVerdict(
        all(v.established for v in verdicts),
        " & ".join(dict.fromkeys(v.rule for v in verdicts)),
        tuple(line for v in verdicts for line in v.trace),
        first.witness if all(v.witness == first.witness for v in verdicts) else None,
        first.note if all(v.note == first.note for v in verdicts) else "",
    )


# ---------------------------------------------------------------------------
# the schedule and the search


@dataclass(frozen=True)
class SearchReport:
    found: bool
    params: Mapping[str, Fraction]
    verdict: Optional[CriterionVerdict]
    attempts: int
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "notes", tuple(self.notes))
        if self.found and (self.verdict is None or not self.verdict.established):
            raise AssertionError("search reported success without an established verdict")


class Level(NamedTuple):
    """The candidates (*(x << d for x in outer), inner) for d in ``shifts``,
    in that order: every parameter but the innermost is fixed on a level."""

    outer: tuple[int, ...]
    inner: int
    shifts: range


def _exponents(param: Param, stop: int) -> range:
    """The e in 0..stop-1 with lo < 2**-e < hi; a range, as 2**-e falls with e.
    The bit lengths of the ends' numerators and denominators place each bound
    to within one, and one shift test settles it."""
    lo, hi = param.lo, param.hi
    if hi <= 0:
        return range(0)
    first = max(0, hi.denominator.bit_length() - hi.numerator.bit_length())
    if hi.numerator << first <= hi.denominator:
        first += 1
    if lo > 0:
        last = lo.denominator.bit_length() - lo.numerator.bit_length()
        if last >= 0 and lo.numerator << last >= lo.denominator:
            last -= 1
        stop = min(stop, last + 1)
    return range(first, stop)


def dyadic_levels(params: Sequence[Param], depth: int):
    """Nested dyadic parameter candidates, outermost parameter first, one
    ``Level`` at a time, in order.  A candidate is the integer point
    (q, P_1, ..., P_k) at which parameter i is P_i / q.

    The first parameter runs through 2**-k for k = 2..depth; each later
    parameter through (previous parameter's value) * 2**-j for j = 1..depth,
    and q is 2**e for the innermost value 2**-e.  Candidates outside a
    parameter's open domain are dropped, by integer shift tests on the ends
    of each domain; nothing downstream tests a domain again.

    A level's outer point is (q', P_1, ..., P_{k-1}) with q' = 2**e' for the
    value 2**-e' of the parameter before the innermost, or (1,) for one
    parameter; its inner coordinate is 1, and its shifts are the d for which
    2**-(e' + d) lies in the innermost parameter's domain, a range.  With no
    parameter the one level is the point (1,).
    """
    params = tuple(params)
    if not params:
        yield Level((), 1, range(1))
        return
    windows = [_exponents(p, len(params) * depth + 1) for p in params]

    def rec(i: int, point: tuple[int, ...], prev: int):
        window = windows[i]
        es = range(max(prev + (2 if i == 0 else 1), window.start), min(prev + depth + 1, window.stop))
        if i == len(params) - 1:
            if es:
                yield Level(point, 1, range(es.start - prev, es.stop - prev))
            return
        for e in es:
            yield from rec(i + 1, (*[x << (e - prev) for x in point], 1), e)

    yield from rec(0, (1,), 0)


def search_params(
    family: ParamFamily, cone: ConeDescription, goals: Sequence[Goal], depth: int = DEFAULT_DEPTH
) -> SearchReport:
    """First parameter values along the dyadic schedule whose decomposition
    makes every goal's rule establish; exact verification at every candidate.

    ``depth`` must be an integer in 1..MAX_DEPTH.  The search walks the
    schedule level by level (``dyadic_levels``); every candidate is visited
    and counted, in the schedule's order, and is already in every parameter's
    domain.  The integer forms are compiled once per search: the boundary
    rows (each coefficient in [0, 1), else a note), the cone's nef rows
    composed with M's rows, tested up to the first negative pairing, and M^2
    as a quadratic form.  On each level a form R's part on the outer point P,
    A = R[:-1].P, and its innermost term C are computed once, so that at the
    candidate (P << d, inner) its value is (A << d) + C and a boundary
    coefficient is in [0, 1) when that value is in [0, (den * P[0]) << d).
    The point is built only for a candidate that gets a note or passes the
    nef test.  One whose M fails the nef test, or has M^2 <= 0, is turned
    down there: no goal can establish it.  The goals' marked names are
    checked before the first candidate; their multiplicity and degree forms
    are compiled at the first candidate whose M is nef and big.  At every
    such candidate each goal's rule is applied, in goal order, on
    ``Fraction``s made for its arguments alone, and its conditions are read
    up to the first that fails (``criteria.holding``).  The first candidate
    that every goal establishes wins: only for it are the nef values made,
    the conditions already read turned into trace lines after the nef and
    big lines and under each goal's label, once, and the goals' verdicts
    joined (see ``_conjunction``).  No rule is applied again there."""
    if not (isinstance(depth, int) and not isinstance(depth, bool) and 1 <= depth <= MAX_DEPTH):
        raise ValueError(f"depth must be an integer in 1..{MAX_DEPTH}, not {depth!r}")
    if not goals:
        raise ValueError("a search needs at least one goal")
    lattice = family.surface.lattice
    if cone.lattice is not lattice:
        raise ValueError("the cone does not live on the family's lattice")
    if any(c.lattice is not lattice for goal in goals for d in goal.degrees for c in d.classes):
        raise ValueError("a goal's degree classes do not live on the family's lattice")
    # the cone's nef rows composed with M's rows: each pairing with M is a form in the point
    nef_forms = [_compose(row, family._m_rows) for row in cone.nef.rows]
    curves = tuple(family.boundary)
    weights = [[tuple(map(w, curves)) for w in mu_weights(family.surface, g.kind, g.at)] for g in goals]
    deciders = None  # compiled at the first candidate whose M is nef and big
    names = [p.name for p in family.params]

    def established_at(point: tuple[int, ...], scale: int) -> Optional[CriterionVerdict]:
        """The goals' conjunction at a candidate whose M passes the nef test,
        when M^2 > 0 and every goal's rule establishes; else None.  Every
        goal's rule is applied at every such candidate with M^2 > 0, and its
        conditions are read up to the first that fails."""
        nonlocal deciders
        m2 = sum(x * _dot(row, point) for x, row in zip(point, family._square))
        if m2 <= 0:
            return None
        if deciders is None:
            deciders = [goal._decider(family, w) for goal, w in zip(goals, weights)]
        m2 = Fraction(m2, scale * scale * family._gram_den)
        evaluations = [decide(point, scale, m2) for decide in deciders]
        held = []
        for evaluation in evaluations:
            conditions = criteria.holding(evaluation)
            if conditions is None:
                return None
            held.append(conditions)
        # the nef and big lines, which hold here, lead each goal's trace under its label
        den = scale * cone.nef.den
        ambient = [(text, Fraction(_dot(row, point), den), ">=", 0, True) for text, row in zip(cone.nef_texts, nef_forms)]
        ambient.append(("M^2 > 0 (big)", m2, ">", 0, True))
        return _conjunction(
            [
                CriterionVerdict(
                    True,
                    e.rule,
                    criteria.trace_lines(ambient + conditions, f"{goal.label}: " if goal.label else ""),
                    e.witness,
                    e.note,
                )
                for goal, e, conditions in zip(goals, evaluations, held)
            ]
        )

    attempts = 0
    notes: list[str] = []
    for outer, inner, shifts in dyadic_levels(family.params, depth):
        # (A, C) per form: its value at the candidate (outer << d, inner) is (A << d) + C
        b_parts = [(_dot(row[:-1], outer), row[-1] * inner) for row in family._boundary_rows]
        nef_parts = [(_dot(row[:-1], outer), row[-1] * inner) for row in nef_forms]
        unit = family._den * (outer[0] if outer else inner)  # den * q at d = 0; no parameter: q = inner
        for d in shifts:
            attempts += 1
            scale = unit << d
            for a, c in b_parts:
                if not 0 <= (a << d) + c < scale:
                    point = (*(x << d for x in outer), inner)
                    notes.append(f"boundary coefficients leave [0, 1) at {_values(names, point)}")
                    break
            else:
                for a, c in nef_parts:
                    if (a << d) + c < 0:
                        break
                else:
                    point = (*(x << d for x in outer), inner)
                    verdict = established_at(point, scale)
                    if verdict is not None:
                        return SearchReport(True, _values(names, point), verdict, attempts, tuple(notes))
    return SearchReport(False, {}, None, attempts, tuple(notes))


def _values(names: Sequence[str], point: Sequence[int]) -> dict[str, Fraction]:
    """The parameter values at the point (q, P_1, ..., P_k): name i at P_i / q."""
    return {name: Fraction(x, point[0]) for name, x in zip(names, point[1:])}


# ---------------------------------------------------------------------------
# drivers for the ruled-surface claims


# The claim's curve families: what each covers, and which of the section G,
# the fiber class F and the moving family's degree-minimizing member G + nF
# enter its degree minimum.  A point on the section meets all three.
CLAIM_FAMILIES = {
    "on": ("all irreducible curves: the section, the fiber class, the moving family", ("G", "F", "G+nF")),
    "off": ("curves through a point off the section: its fiber and the moving family", ("F", "G+nF")),
    "scheme": ("curves containing the tangent scheme: the section and the moving family", ("G", "G+nF")),
    "joint-fiber": ("curves through two points of one fiber: the fiber and the moving family", ("F", "G+nF")),
    "joint-section": ("curves through two points of the section: the section and the moving family", ("G", "G+nF")),
    "joint-generic": ("curves through two unrelated points: the moving family", ("G+nF",)),
}


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    families: str
    report: SearchReport

    @property
    def ok(self) -> bool:
        return self.report.found


@dataclass(frozen=True)
class ClaimReport:
    """Structured outcome of one positivity claim on the ruled surface."""

    n: int
    part: int
    m: int
    chi: Fraction
    chi_expected: Fraction
    h_dot_g: Fraction
    h_dot_f: Fraction
    l_dot_g: Fraction
    l_nef: bool
    checks: tuple[ClaimCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and self.chi == self.chi_expected


def hirzebruch_claim(n: int, part: int, m: Optional[int] = None, depth: int = DEFAULT_DEPTH) -> ClaimReport:
    """Verify one part of the positivity claim for G + mF on the n-th model.

    Part 1 (m = n): base-point-freeness, the Euler characteristic, and the
    contraction degrees.  Part 2 (m >= n+1, default n+1): freeness, point
    separation in the four marked configurations, and tangent separation at
    the fiber-section point.  Every sub-check is a parameter search over a
    boundary decomposition; failures are reported, never raised.  ``n``,
    ``part`` and ``m`` must be ``int``s (see ``lattice.as_int``).
    """
    n, part, m = as_int(n), as_int(part), None if m is None else as_int(m)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    if part == 1:
        if m is not None and m != n:
            raise ValueError("part 1 concerns m = n")
        m = n
    else:
        m = n + 1 if m is None else m
        if m < n + 1:
            raise ValueError("part 2 needs m >= n + 1")

    model = hz.hirzebruch_model(n)
    cone = HirzebruchFamily(n, model.lattice)
    h_cls = hz.hyperplane_class(model, m)
    l_cls = h_cls - model.canonical
    named = {"G": cone.g_class, "F": cone.f_class, "G+nF": cone.family_corner()}
    fam = {
        key: Degrees(text, tuple(named[c] for c in curves))
        for key, (text, curves) in CLAIM_FAMILIES.items()
        if part == 2 or key in ("off", "on")  # part 1 searches freeness alone
    }

    eps = Param("eps")
    section_boundary = ParamFamily(
        surface=model,
        params=(eps,),
        boundary={"G": AffineExpr(1, {"eps": -1})},
        positive={"G": AffineExpr(2, {"eps": 1}), "F": AffineExpr.constant(m + n + 2)},
    )
    def searched(name, shown, family, kind, at, keys, witness, label):
        """A check as in ``searches``, its degree sources named by CLAIM_FAMILIES keys."""
        return name, shown, family, (Goal(kind, at, tuple(fam[key] for key in keys), witness, label),)

    free_witness = BetaWitness.single(Fraction(3), Fraction(3, 2), role="at-p")
    freeness_goals = (
        Goal("free", (hz.POINT_GENERIC,), (fam["off"],), free_witness, label="off the section"),
        Goal("free", (hz.POINT_ON_G,), (fam["on"],), free_witness, label="on the section"),
    )
    # (check name, families shown, decomposition, goals) for every searched check
    searches = [("freeness", f"{fam['off'].description}; {fam['on'].description}", section_boundary, freeness_goals)]
    if part == 2:
        one, half, two = Fraction(1), Fraction(3, 2), Fraction(2)

        def twin(beta2, beta1):
            """The same bounds at both points."""
            return BetaWitness.pair(beta2, beta2, beta1, beta1)

        fiber_boundary = ParamFamily(
            surface=model,
            params=(eps, Param("alpha")),
            boundary={"G": AffineExpr(1, {"eps": -1}), "F": AffineExpr(1, {"alpha": -1})},
            positive={"G": AffineExpr(2, {"eps": 1}), "F": AffineExpr(m + n + 1, {"alpha": 1})},
        )
        searches += [
            searched(
                "separation on a fiber off the section",
                f"per point: {fam['off'].description}; joint: {fam['joint-fiber'].description}",
                fiber_boundary,
                "separate",
                (hz.POINT_ON_F, hz.POINT_ON_F2),
                ("off", "off", "joint-fiber"),
                lambda v: twin(half, 1 + v["eps"] / 2),
                "two points on one fiber, off the section",
            ),
            searched(
                "separation along the section",
                f"per point: {fam['on'].description}; joint: {fam['joint-section'].description}",
                section_boundary,
                "separate",
                (hz.POINT_ON_G, hz.POINT_ON_G2),
                ("on", "on", "joint-section"),
                lambda v: twin(two, two / (2 - v["eps"])),
                "two points on the section",
            ),
            searched(
                "separation of the fiber-section point from a fiber point",
                f"joint: {fam['joint-fiber'].description}",
                fiber_boundary,
                "separate",
                (hz.POINT_FG, hz.POINT_ON_F),
                ("on", "off", "joint-fiber"),
                lambda v: BetaWitness.pair(one, two, v["eps"] + v["alpha"], two / (2 - v["alpha"])),
                "fiber-section point with a fiber point",
            ),
            searched(
                "separation of a section point from a general point",
                f"joint: {fam['joint-generic'].description}",
                section_boundary,
                "separate",
                (hz.POINT_ON_G, hz.POINT_GENERIC),
                ("on", "off", "joint-generic"),
                lambda v: BetaWitness.pair(two, two, two / (2 - v["eps"]), two),
                "section point with a general point",
            ),
            searched(
                "tangent separation at the fiber-section point",
                f"point: {fam['on'].description}; scheme: {fam['scheme'].description}",
                section_boundary,
                "tangent",
                (hz.TANGENT_G,),
                ("on", "scheme"),
                lambda v: BetaWitness((two, two), (two / (2 - v["eps"]),), ("at-p", "at-V"), ("global",)),
                "tangent to the section at the fiber-section point",
            ),
        ]
    checks = [ClaimCheck(name, text, search_params(family, cone, goals, depth)) for name, text, family, goals in searches]

    return ClaimReport(
        n=n,
        part=part,
        m=m,
        chi=riemann_roch_chi(h_cls, model.canonical, model.chi_structure_sheaf),
        chi_expected=Fraction(2 * m - n + 2),
        h_dot_g=h_cls.intersect(cone.g_class),
        h_dot_f=h_cls.intersect(cone.f_class),
        l_dot_g=l_cls.intersect(cone.g_class),
        l_nef=is_nef(l_cls, cone),
        checks=tuple(checks),
    )
