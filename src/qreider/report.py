"""Query execution over a parsed document, with text and JSON rendering.

Every rational in a report is rendered exactly; decimal approximations appear
only alongside, explicitly marked ``approx``.  JSON encodes rationals as
``{"num": ..., "den": ...}``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, TypeVar, Union

from . import __version__, criteria, search
from .cones import DegreeFilter, cone_degrees, min_degree
from .criteria import BetaWitness, CriterionVerdict, TraceLine, riemann_roch_chi, threshold_very_ampleness
from .document import Document, QueryDecl
from .literals import _INTEGER_RE, ParseError, _number
from .plc import LocalConfig, LocalCurveData, ThresholdMode, context_note, plc_threshold
from .search import DEFAULT_DEPTH, MAX_DEPTH, Goal, ParamFamily, SearchReport, hirzebruch_claim, search_params

T = TypeVar("T")


class QueryError(ValueError):
    """A query could not be executed on the given document."""


@dataclass
class QueryResult:
    query: str
    status: str  # established | not-established | value | report | error
    rule: str = ""
    trace: tuple[TraceLine, ...] = ()
    witness: Optional[BetaWitness] = None
    values: dict[str, Fraction] = field(default_factory=dict)
    labels: dict[str, str] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)
    found: Optional[bool] = None
    params: dict[str, Fraction] = field(default_factory=dict)
    attempts: Optional[int] = None
    checks: tuple["QueryResult", ...] = ()
    notes: tuple[str, ...] = ()
    error: str = ""
    elapsed_ms: float = 0.0


@dataclass
class Report:
    source: str
    results: tuple[QueryResult, ...]

    @property
    def any_error(self) -> bool:
        return any(r.status == "error" for r in self.results)


# ---------------------------------------------------------------------------
# helpers


def _require(q: QueryDecl, key: str) -> str:
    value = q.arg(key)
    if value is None:
        raise QueryError(f"query {q.kind!r} needs argument {key}=...")
    return value


def _divisor(doc: Document, q: QueryDecl, key: Union[int, str], concrete: bool = True):
    """The divisor that argument ``key``, or positional word number ``key``, names or writes out."""
    text = q.positional[key] if isinstance(key, int) else _require(q, key)
    read = doc.concrete_divisor if concrete else doc.divisor_expr
    return read(text, q.line, q.col(key))


def _rational_arg(q: QueryDecl, key: str) -> Optional[Fraction]:
    """Argument ``key`` as a .surf rational literal, or None when it is absent;
    a bad value is a ParseError at the value's column."""
    raw = q.arg(key)
    return None if raw is None else Fraction(_number(raw, q.line, q.col(key) + 1))


def _int_arg(q: QueryDecl, key: str, lo: int, hi: Optional[int] = None, required: bool = False) -> Optional[int]:
    """Argument ``key`` as a .surf integer literal in lo..hi (with no upper
    end when hi is None), or None when it is absent."""
    raw = _require(q, key) if required else q.arg(key)
    if raw is None:
        return None
    try:
        value = int(raw) if _INTEGER_RE.fullmatch(raw) else None
    except ValueError:  # more digits than int() converts
        value = None
    if value is None or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise QueryError(f"{key}={raw!r} must be an integer {span}")
    return value


def _choice_arg(q: QueryDecl, key: str, choices: Mapping[str, T], default: str) -> T:
    """Argument ``key``, read case-insensitively, as the value that ``choices``
    gives its spelling, or as ``default``'s when it is absent."""
    raw = q.arg(key, default)
    if raw.lower() not in choices:
        raise QueryError(f"{key}={raw!r} must be one of {', '.join(choices)}")
    return choices[raw.lower()]


def _witness_arg(q: QueryDecl, goal: criteria.GoalKind) -> Optional[BetaWitness]:
    """The witness that the goal's witness keys give all together, or None
    when none of them is given."""
    values = [_rational_arg(q, key) for key in goal.witness]
    if all(v is None for v in values):
        return None
    if None in values:
        raise QueryError(f"give all of {', '.join(key + '=' for key in goal.witness)}, or none")
    split = len(goal.roles[0])
    return BetaWitness(values[:split], values[split:], *goal.roles)


_WEAK = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_THRESHOLD_MODES = {mode.value: mode for mode in ThresholdMode}


def _depth(q: QueryDecl) -> int:
    """The dyadic search depth from depth=, an integer in 1..MAX_DEPTH."""
    depth = _int_arg(q, "depth", 1, MAX_DEPTH)
    return DEFAULT_DEPTH if depth is None else depth


def _need_model(doc: Document):
    if doc.model is None:
        raise QueryError("this query needs a declared surface")
    return doc.model


def _need_cone(doc: Document):
    if doc.curve_cone is None:
        raise QueryError("this query needs a declared cone")
    return doc.curve_cone


def _mindeg(doc: Document, m_cls, filt: DegreeFilter, override: Optional[Fraction]) -> Fraction:
    if override is not None:
        return override
    return min_degree(m_cls, _need_cone(doc), filt)


def _from_verdict(result: QueryResult, verdict: CriterionVerdict) -> QueryResult:
    result.status = verdict.status
    result.rule = verdict.rule
    result.trace = verdict.trace
    result.witness = verdict.witness
    if verdict.note:
        result.notes = result.notes + (verdict.note,)
    return result


def _from_search(result: QueryResult, report: SearchReport) -> QueryResult:
    result.found = report.found
    result.attempts = report.attempts
    result.params = dict(report.params)
    result.notes = result.notes + tuple(report.notes)
    if report.verdict is not None:
        _from_verdict(result, report.verdict)
    else:
        result.status = "not-established"
    return result


# ---------------------------------------------------------------------------
# individual queries


def _run_chi(doc: Document, q: QueryDecl, result: QueryResult) -> None:
    model = _need_model(doc)
    if len(q.positional) + (q.arg("H") is not None) != 1:
        raise QueryError("chi needs one divisor: 'chi H' or 'chi H=H'")
    h = _divisor(doc, q, 0 if q.positional else "H").divisor_class()
    value = riemann_roch_chi(h, model.canonical, model.chi_structure_sheaf)
    result.status = "value"
    result.values["chi"] = value


def _decomposition(doc: Document, q: QueryDecl):
    """The boundary B=, the class of the positive part M=, and M^2, for a boundary B with B + M integral."""
    boundary = _divisor(doc, q, "B")
    positive = _divisor(doc, q, "M")
    if not boundary.is_boundary():
        raise QueryError("B= is not a boundary: its coefficients must lie in [0, 1)")
    if not (boundary + positive).is_integral():
        raise QueryError("B + M is not integral")
    m_cls = positive.divisor_class()
    return boundary, m_cls, m_cls.self_intersection()


def _run_check_local(doc: Document, q: QueryDecl, result: QueryResult) -> None:
    """check-free, check-separate and check-tangent: the goal's checker on the
    boundary's multiplicities at the marked data, M^2 and M's minimal degrees,
    each given by its value name's key or computed."""
    model = _need_model(doc)
    kind = q.kind.removeprefix("check-")
    goal = criteria.GOAL_KINDS[kind]
    at = [_require(q, key) for key in goal.marked]
    if len(set(at)) < len(at):  # check-separate's p= and q=
        raise QueryError(f"p= and q= name the same point {at[0]!r}; separation needs two points")
    boundary, m_cls, m2 = _decomposition(doc, q)
    weights = search.mu_weights(model, kind, at)
    mus = [sum((v * w(c) for c, v in boundary.coeffs.items()), Fraction(0)) for w in weights]
    total = {"mu_v": mus[0] + mus[1]} if kind == "tangent" else {}  # the total is shown, not read by the checker
    degrees = [_mindeg(doc, m_cls, filt, _rational_arg(q, key)) for key, filt in goal.degrees]
    witness = _witness_arg(q, goal)
    result.values.update({**dict(zip(goal.mus, mus)), **total, "M2": m2})
    result.values.update(zip((key for key, _ in goal.degrees), degrees))
    _from_verdict(result, getattr(criteria, goal.checker)(*mus, m2, *degrees, witness))


def _run_check_global(doc: Document, q: QueryDecl, result: QueryResult) -> None:
    """check-very-ample and check-corollary2: M^2 and the minimal degree, given or computed from M."""
    m2 = _rational_arg(q, "m2")
    deg = _rational_arg(q, "mindeg")
    if m2 is None or deg is None:
        m_cls = _divisor(doc, q, "M").divisor_class()
        if m2 is None:
            m2 = m_cls.self_intersection()
        if deg is None:
            deg = _mindeg(doc, m_cls, DegreeFilter.ALL, None)
    goal = criteria.GOAL_KINDS["very-ample"]
    witness = _witness_arg(q, goal) if q.kind == "check-very-ample" else None
    result.values.update({"M2": m2, "mindeg": deg})
    if q.kind == "check-very-ample":
        verdict = getattr(criteria, goal.checker)(m2, deg, witness)
    else:
        verdict = threshold_very_ampleness(m2, deg)
    _from_verdict(result, verdict)


def _run_plc_threshold(doc: Document, q: QueryDecl, result: QueryResult) -> None:
    model = _need_model(doc)
    point = model.point(_require(q, "point"))
    boundary = _divisor(doc, q, "B")
    auxiliary = _divisor(doc, q, "D")
    mode = _choice_arg(q, "mode", _THRESHOLD_MODES, "basic")
    if mode is not ThresholdMode.PRIME and (q.arg("c0") is not None or q.arg("weak") is not None):
        raise QueryError("c0= and weak= apply only to mode=prime")
    weak = _choice_arg(q, "weak", _WEAK, "false")
    # declaration order of the point's curves decides threshold tie-breaking
    curves = tuple(
        LocalCurveData(name, boundary.coeff(name), auxiliary.coeff(name), mult)
        for name, mult in point.mults.items()
        if mult >= 1
    )
    config = LocalConfig(curves)
    outcome = plc_threshold(config, mode, c0=q.arg("c0"), weak_boundary=weak)
    note = context_note(config, mode)
    if note:
        result.notes += (note,)
    result.status = "value"
    result.values.update({"mu": config.mu, "ord_D": config.m_p})
    result.flags["plc"] = outcome.is_plc
    if not outcome.is_plc:
        result.values["c"] = outcome.c
        if outcome.critical is not None:
            result.labels["critical"] = outcome.critical
        result.labels["achievers"] = ", ".join(outcome.achievers)


def _run_search(doc: Document, q: QueryDecl, result: QueryResult) -> None:
    model = _need_model(doc)
    cone = _need_cone(doc)
    goal_kind = _require(q, "goal")
    depth = _depth(q)
    boundary = _divisor(doc, q, "B", concrete=False)
    positive = _divisor(doc, q, "M", concrete=False)
    family = ParamFamily(model, doc.params, boundary, positive)
    if goal_kind not in criteria.GOAL_KINDS:
        raise QueryError(f"unknown search goal {goal_kind!r}")
    kind = criteria.GOAL_KINDS[goal_kind]
    goal = Goal(
        goal_kind,
        tuple(_require(q, key) for key in kind.marked),
        tuple(cone_degrees(cone, filt) for _, filt in kind.degrees),
        _witness_arg(q, kind) if kind.search_witness else None,
    )
    _from_search(result, search_params(family, cone, (goal,), depth))


def _claim_to_result(claim) -> list[QueryResult]:
    out = []
    for chk in claim.checks:
        sub = QueryResult(query=chk.name, status="not-established")
        _from_search(sub, chk.report)
        sub.labels["families"] = chk.families
        out.append(sub)
    return out


def _run_hirzebruch_claim(doc: Document, q: QueryDecl, result: QueryResult) -> None:
    n = _int_arg(q, "n", 1, required=True)
    part = _int_arg(q, "part", 1, 2, required=True)
    claim = hirzebruch_claim(n, part, _int_arg(q, "m", 1), _depth(q))
    result.status = "report"
    result.flags.update({"ok": claim.ok, "L_nef": claim.l_nef})
    if not claim.l_nef:
        result.labels["adjoint_difference"] = (
            "not nef, so the integral-class degree criterion is inapplicable without a boundary decomposition"
        )
    result.values.update(
        {
            "n": Fraction(claim.n),
            "part": Fraction(claim.part),
            "m": Fraction(claim.m),
            "chi": claim.chi,
            "chi_expected": claim.chi_expected,
            "H_dot_G": claim.h_dot_g,
            "H_dot_F": claim.h_dot_f,
            "L_dot_G": claim.l_dot_g,
        }
    )
    result.checks = tuple(_claim_to_result(claim))


# query kind -> (runner, the argument keys it reads; a search also reads its goal's keys)
_RUNNERS = {
    "chi": (_run_chi, ("H",)),
    "check-free": (_run_check_local, criteria.GOAL_KINDS["free"].query_keys("B", "M")),
    "check-separate": (_run_check_local, criteria.GOAL_KINDS["separate"].query_keys("B", "M")),
    "check-tangent": (_run_check_local, criteria.GOAL_KINDS["tangent"].query_keys("B", "M")),
    "check-very-ample": (_run_check_global, criteria.GOAL_KINDS["very-ample"].query_keys("M", "m2")),
    "check-corollary2": (_run_check_global, ("M", "m2", "mindeg")),
    "plc-threshold": (_run_plc_threshold, ("point", "B", "D", "mode", "weak", "c0")),
    "search": (_run_search, ("goal", "B", "M", "depth")),
    "hirzebruch-claim": (_run_hirzebruch_claim, ("n", "part", "m", "depth")),
}


def _check_keys(q: QueryDecl) -> None:
    """Raise QueryError for an argument key the query does not read or that
    is given twice, or for a positional word where none is read (chi reads
    one, the divisor)."""
    kept = 1 if q.kind == "chi" else 0
    if len(q.positional) > kept:
        takes = "one divisor" if kept else "only key=value arguments"
        raise QueryError(f"unexpected word {q.positional[kept]!r} for {q.kind!r} (it takes {takes})")
    keys = _RUNNERS[q.kind][1]
    if q.kind == "search":
        if q.arg("goal") not in criteria.GOAL_KINDS:
            return  # the runner reports the missing or unknown goal
        goal = criteria.GOAL_KINDS[q.arg("goal")]
        keys += goal.marked + (goal.witness if goal.search_witness else ())
    for i, (key, _) in enumerate(q.args):
        if key not in keys:
            raise QueryError(f"unknown argument {key}= for {q.kind!r} (expected {', '.join(keys)})")
        if any(k == key for k, _ in q.args[:i]):
            raise QueryError(f"argument {key}= is given twice to {q.kind!r}")


def run_document(doc: Document, source: str = "<memory>") -> Report:
    """Execute the document's queries in order; per-query errors are embedded."""
    results = []
    for q in doc.queries:
        result = QueryResult(query=q.text(), status="error")
        start = time.perf_counter()
        try:
            _check_keys(q)
            _RUNNERS[q.kind][0](doc, q, result)
        except (QueryError, ParseError, ValueError, KeyError) as exc:
            result.status = "error"
            result.error = str(exc)
        result.elapsed_ms = (time.perf_counter() - start) * 1000.0
        results.append(result)
    return Report(source, tuple(results))


# ---------------------------------------------------------------------------
# rendering


def _json_rational(q: Fraction) -> dict:
    out = {"num": q.numerator, "den": q.denominator}
    if q.denominator != 1:
        out["approx"] = float(q)
    return out


def _json_witness(w: Optional[BetaWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "beta2": [_json_rational(x) for x in w.beta2],
        "beta1": [_json_rational(x) for x in w.beta1],
        "beta2_roles": list(w.beta2_roles),
        "beta1_roles": list(w.beta1_roles),
    }


def _json_result(r: QueryResult) -> dict:
    out = {
        "query": r.query,
        "status": r.status,
        "elapsed_ms": round(r.elapsed_ms, 3),
    }
    if r.rule:
        out["rule"] = r.rule
    if r.trace:
        out["trace"] = [
            {
                "text": l.text,
                "lhs": _json_rational(l.lhs),
                "rel": l.rel,
                "rhs": _json_rational(l.rhs),
                "holds": l.holds,
            }
            for l in r.trace
        ]
    if r.witness is not None:
        out["witness"] = _json_witness(r.witness)
    if r.values:
        out["values"] = {k: _json_rational(v) for k, v in r.values.items()}
    if r.labels:
        out["labels"] = dict(r.labels)
    if r.flags:
        out["flags"] = dict(r.flags)
    if r.found is not None:
        out["found"] = r.found
    if r.params:
        out["params"] = {k: _json_rational(v) for k, v in r.params.items()}
    if r.attempts is not None:
        out["attempts"] = r.attempts
    if r.checks:
        out["checks"] = [_json_result(c) for c in r.checks]
    if r.notes:
        out["notes"] = list(r.notes)
    if r.error:
        out["error"] = r.error
    return out


def report_to_json(report: Report) -> dict:
    return {
        "version": __version__,
        "source": report.source,
        "queries": [_json_result(r) for r in report.results],
    }


def _fmt(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q} (approx {float(q):.6g})"


def _text_result(r: QueryResult, indent: str = "") -> list[str]:
    lines = [f"{indent}== {r.query}"]
    if r.error:
        lines.append(f"{indent}   error: {r.error}")
        return lines
    head = f"{indent}   status: {r.status}"
    if r.rule:
        head += f"   rule: {r.rule}"
    lines.append(head)
    if r.found is not None:
        shown = ", ".join(f"{k} = {_fmt(v)}" for k, v in r.params.items())
        lines.append(f"{indent}   search: found={r.found} attempts={r.attempts}" + (f" at {shown}" if shown else ""))
    for k, v in r.values.items():
        lines.append(f"{indent}   {k} = {_fmt(v)}")
    for k, v in r.labels.items():
        lines.append(f"{indent}   {k}: {v}")
    for k, v in r.flags.items():
        lines.append(f"{indent}   {k}: {'yes' if v else 'no'}")
    if r.witness is not None:
        w = r.witness
        b2 = ", ".join(f"{_fmt(x)} [{role}]" for x, role in zip(w.beta2, w.beta2_roles))
        b1 = ", ".join(f"{_fmt(x)} [{role}]" for x, role in zip(w.beta1, w.beta1_roles))
        lines.append(f"{indent}   witness: beta2 = {b2}; beta1 = {b1}")
    for l in r.trace:
        mark = "ok" if l.holds else "FAILS"
        lines.append(f"{indent}   {l.text}: {_fmt(l.lhs)} {l.rel} {_fmt(l.rhs)}  [{mark}]")
    for note in r.notes:
        lines.append(f"{indent}   note: {note}")
    for sub in r.checks:
        lines.extend(_text_result(sub, indent + "  "))
    return lines


def render_text(report: Report) -> str:
    lines = [f"report for {report.source}"]
    for r in report.results:
        lines.extend(_text_result(r))
    return "\n".join(lines) + "\n"
