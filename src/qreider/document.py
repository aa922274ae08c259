"""Declarative text format for surfaces, divisors, and verdict queries.

The format is line-oriented.  Bare section headers (``surface``, ``curves``,
``cone``, ``points``, ``tangents``, ``params``, ``divisors``, ``queries``)
switch context; ``#`` starts a comment; ``;`` separates statements on one
line.  Rational literals are integers or ``p/q``.  Before the first header,
surface-level keys are accepted directly, so a fragment like

    gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = 1

is a complete surface declaration (basis labels default to the names used in
the canonical-class expression when no ``basis`` key is given).

Expressions are rational-linear: ``3G + 8F``, ``9/10 G``, ``L - B``, and with
declared parameters, ``(1 - e)G + (2 + e)F``.  Juxtaposition multiplies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .cones import ConeDescription, ConeGenerator, FiniteGenerators, HirzebruchFamily
from .lattice import IntersectionLattice
from .search import AffineExpr, Param
from .surface import Curve, PointSpec, QDivisor, SurfaceModel, TangentSpec

SECTIONS = ("surface", "curves", "cone", "points", "tangents", "params", "divisors", "queries")
QUERY_KINDS = (
    "check-free",
    "check-separate",
    "check-tangent",
    "check-very-ample",
    "check-corollary2",
    "chi",
    "plc-threshold",
    "search",
    "hirzebruch-claim",
)


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where += ": "
        super().__init__(where + message)


# ---------------------------------------------------------------------------
# document model


@dataclass(frozen=True)
class SurfaceDecl:
    basis: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    canonical: tuple[Fraction, ...]
    chi_o: Fraction


@dataclass(frozen=True)
class CurveDecl:
    name: str
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class GeneratorDecl:
    coeffs: tuple[Fraction, ...]
    through_p: bool = False
    contains_z: bool = False


@dataclass(frozen=True)
class ConeDecl:
    hirzebruch_n: Optional[int] = None
    generators: tuple[GeneratorDecl, ...] = ()


@dataclass(frozen=True)
class PointDecl:
    name: str
    mults: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class TangentDecl:
    name: str
    at: str
    entries: tuple[tuple[str, int, bool], ...]


@dataclass(frozen=True)
class ParamDecl:
    name: str
    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(1)


@dataclass(frozen=True)
class DivisorDecl:
    name: str
    coeffs: tuple[tuple[str, AffineExpr], ...]


@dataclass(frozen=True)
class QueryDecl:
    kind: str
    args: tuple[tuple[str, str], ...] = ()
    positional: tuple[str, ...] = ()

    def arg(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.args:
            if k == key:
                return v
        return default

    def text(self) -> str:
        parts = [self.kind]
        parts += list(self.positional)
        parts += [f"{k}={v}" for k, v in self.args]
        return " ".join(parts)


@dataclass(frozen=True)
class Document:
    surface: Optional[SurfaceDecl] = None
    curves: tuple[CurveDecl, ...] = ()
    cone: Optional[ConeDecl] = None
    points: tuple[PointDecl, ...] = ()
    tangents: tuple[TangentDecl, ...] = ()
    params: tuple[ParamDecl, ...] = ()
    divisors: tuple[DivisorDecl, ...] = ()
    queries: tuple[QueryDecl, ...] = ()


# ---------------------------------------------------------------------------
# expression scanner and parser


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | sym
    text: str
    col: int


_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SYMS = set("+-*()[],:")


def _scan(text: str, line: int, col_offset: int = 0) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        col = col_offset + pos + 1
        m = _NUM_RE.match(text, pos)
        if m:
            tokens.append(_Token("num", m.group(), col))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(_Token("name", m.group(), col))
            pos = m.end()
            continue
        if ch in _SYMS:
            tokens.append(_Token("sym", ch, col))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


def _number(tok: _Token, line: int) -> Fraction:
    """The value of a number token; a zero denominator is a positioned ParseError."""
    try:
        return Fraction(tok.text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {tok.text!r}", line, tok.col) from None


# expression values: ("scalar", AffineExpr) or ("vec", {name: AffineExpr})
_Value = tuple[str, object]

Resolver = Callable[[str], _Value]


class _ExprParser:
    def __init__(self, tokens: Sequence[_Token], line: int, resolve: Resolver):
        self.tokens = list(tokens)
        self.line = line
        self.pos = 0
        self.resolve = resolve

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, self.line, tok.col if tok else None)

    def parse(self) -> _Value:
        value = self.additive()
        if self.peek() is not None:
            raise self.error(f"unexpected token {self.peek().text!r} (expected '+', '-' or end)")
        return value

    def additive(self) -> _Value:
        value = self.signed_term()
        while True:
            tok = self.peek()
            if tok is None or tok.text not in "+-":
                return value
            self.take()
            rhs = self.term()
            if tok.text == "-":
                rhs = _negate(rhs)
            value = self._add(value, rhs)
        return value

    def signed_term(self) -> _Value:
        sign = 1
        while (tok := self.peek()) is not None and tok.kind == "sym" and tok.text in "+-":
            self.take()
            if tok.text == "-":
                sign = -sign
        value = self.term()
        return _negate(value) if sign < 0 else value

    def term(self) -> _Value:
        value = self.factor()
        while (tok := self.peek()) is not None and (
            tok.kind in ("num", "name") or tok.text in ("(", "*")
        ):
            if tok.text == "*":
                self.take()
            value = self._mul(value, self.factor())
        return value

    def factor(self) -> _Value:
        tok = self.take()
        if tok.kind == "num":
            return ("scalar", AffineExpr.constant(_number(tok, self.line)))
        if tok.kind == "name":
            try:
                return self.resolve(tok.text)
            except KeyError as exc:
                raise ParseError(str(exc.args[0]), self.line, tok.col) from None
        if tok.text == "(":
            value = self.additive()
            closing = self.take()
            if closing.text != ")":
                raise ParseError("expected ')'", self.line, closing.col)
            return value
        raise ParseError(f"unexpected token {tok.text!r} (expected a number, name or '(')", self.line, tok.col)

    def _add(self, a: _Value, b: _Value) -> _Value:
        if a[0] == "scalar" and b[0] == "scalar":
            return ("scalar", a[1] + b[1])
        if a[0] == "vec" and b[0] == "vec":
            merged = dict(a[1])
            for name, expr in b[1].items():
                merged[name] = merged.get(name, AffineExpr()) + expr
            return ("vec", merged)
        a, b = (a, b) if a[0] == "scalar" else (b, a)
        if _is_zero_scalar(a):
            return b
        raise self.error("cannot add a number to a divisor expression")

    def _mul(self, a: _Value, b: _Value) -> _Value:
        if a[0] == "vec" and b[0] == "vec":
            raise self.error("cannot multiply two divisor expressions")
        if a[0] == "vec":
            a, b = b, a
        scalar = a[1]
        try:
            if b[0] == "scalar":
                return ("scalar", scalar * b[1])
            return ("vec", {name: scalar * expr for name, expr in b[1].items()})
        except ValueError as exc:
            raise self.error(str(exc)) from None


def _negate(value: _Value) -> _Value:
    if value[0] == "scalar":
        return ("scalar", -value[1])
    return ("vec", {name: -expr for name, expr in value[1].items()})


def _is_zero_scalar(value: _Value) -> bool:
    return value[0] == "scalar" and value[1].is_constant() and value[1].const == 0


def _as_vec(value: _Value, line: int) -> dict[str, AffineExpr]:
    if value[0] == "vec":
        return dict(value[1])
    if _is_zero_scalar(value):
        return {}
    raise ParseError("expected a divisor expression, got a plain number", line)


def _expect_constant(expr: AffineExpr, line: int, what: str) -> Fraction:
    if not expr.is_constant():
        raise ParseError(f"{what} must not involve parameters", line)
    return expr.const


# ---------------------------------------------------------------------------
# statement-level parsing


def _split_statements(text: str):
    """Yield (line_no, statement_text, col_offset) with comments stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        offset = 0
        for chunk in line.split(";"):
            stripped = chunk.strip()
            if stripped:
                yield line_no, stripped, offset + chunk.index(stripped[0])
            offset += len(chunk) + 1


def _parse_rational(text: str, line: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational number, got {text.strip()!r}", line) from None


def _parse_matrix(tokens: list[_Token], line: int) -> tuple[tuple[Fraction, ...], ...]:
    pos = 0

    def take(expected: Optional[str] = None) -> _Token:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of matrix (expected {expected or 'a token'})", line)
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok.text != expected:
            raise ParseError(f"expected {expected!r}, got {tok.text!r}", line, tok.col)
        return tok

    def entry() -> Fraction:
        nonlocal pos
        sign = 1
        while pos < len(tokens) and tokens[pos].text in "+-":
            if tokens[pos].text == "-":
                sign = -sign
            pos += 1
        tok = take()
        if tok.kind != "num":
            raise ParseError(f"expected a number, got {tok.text!r}", line, tok.col)
        return sign * _number(tok, line)

    take("[")
    rows = []
    while True:
        take("[")
        row = [entry()]
        while pos < len(tokens) and tokens[pos].text == ",":
            pos += 1
            row.append(entry())
        take("]")
        rows.append(tuple(row))
        if pos < len(tokens) and tokens[pos].text == ",":
            pos += 1
            continue
        break
    take("]")
    if pos != len(tokens):
        raise ParseError("trailing input after matrix", line, tokens[pos].col)
    return tuple(rows)


class _DocBuilder:
    def __init__(self):
        self.section = "surface"
        self.surface_keys: dict[str, tuple[str, int, int]] = {}
        self.surface_line: Optional[int] = None
        self.curves: list[CurveDecl] = []
        self.cone_kind: Optional[str] = None
        self.hirzebruch_n: Optional[int] = None
        self.generators: list[GeneratorDecl] = []
        self.points: list[PointDecl] = []
        self.tangents: list[TangentDecl] = []
        self.params: list[ParamDecl] = []
        self.divisors: list[DivisorDecl] = []
        self.queries: list[QueryDecl] = []

    # -- resolvers -----------------------------------------------------
    def basis_labels(self, line: int) -> tuple[str, ...]:
        surface = self.surface(line)
        return surface.basis

    def surface(self, line: int) -> SurfaceDecl:
        if not self.surface_keys:
            raise ParseError("no surface declared (need gram, K, chi_O)", line)
        for key in ("gram", "K", "chi_O"):
            if key not in self.surface_keys:
                raise ParseError(f"surface declaration is missing {key!r}", line)
        gram_text, gram_line, gram_off = self.surface_keys["gram"]
        gram = _parse_matrix(_scan(gram_text, gram_line, gram_off), gram_line)
        rank = len(gram)
        k_text, k_line, k_off = self.surface_keys["K"]
        if "basis" in self.surface_keys:
            basis_text, basis_line, _ = self.surface_keys["basis"]
            basis = tuple(basis_text.split())
            for label in basis:
                if not _NAME_RE.fullmatch(label):
                    raise ParseError(f"invalid basis label {label!r}", basis_line)
        else:
            # default: labels in order of first appearance in the K expression
            basis = tuple(dict.fromkeys(t.text for t in _scan(k_text, k_line, k_off) if t.kind == "name"))
        if len(basis) != rank:
            raise ParseError(
                f"basis has {len(basis)} labels but the gram matrix has rank {rank}", k_line
            )

        def resolve(name: str) -> _Value:
            if name in basis:
                return ("vec", {name: AffineExpr.constant(1)})
            raise KeyError(f"undefined basis label {name!r}")

        vec = _as_vec(_ExprParser(_scan(k_text, k_line, k_off), k_line, resolve).parse(), k_line)
        canonical = tuple(
            _expect_constant(vec.get(label, AffineExpr()), k_line, "canonical class") for label in basis
        )
        chi_text, chi_line, _ = self.surface_keys["chi_O"]
        return SurfaceDecl(basis, gram, canonical, _parse_rational(chi_text, chi_line))

    def class_coeffs(self, text: str, line: int, offset: int) -> tuple[Fraction, ...]:
        basis = self.basis_labels(line)

        def resolve(name: str) -> _Value:
            if name in basis:
                return ("vec", {name: AffineExpr.constant(1)})
            raise KeyError(f"undefined basis label {name!r}")

        vec = _as_vec(_ExprParser(_scan(text, line, offset), line, resolve).parse(), line)
        return tuple(_expect_constant(vec.get(label, AffineExpr()), line, "class expression") for label in basis)

    def divisor_coeffs(self, text: str, line: int, offset: int) -> dict[str, AffineExpr]:
        curve_names = {c.name for c in self.curves}
        divisor_map = {d.name: dict(d.coeffs) for d in self.divisors}
        param_names = {p.name for p in self.params}

        def resolve(name: str) -> _Value:
            if name in curve_names:
                return ("vec", {name: AffineExpr.constant(1)})
            if name in divisor_map:
                return ("vec", dict(divisor_map[name]))
            if name in param_names:
                return ("scalar", AffineExpr.parameter(name))
            raise KeyError(f"undefined name {name!r} (not a curve, divisor, or parameter)")

        return _as_vec(_ExprParser(_scan(text, line, offset), line, resolve).parse(), line)

    # -- statements ----------------------------------------------------
    def feed(self, line: int, stmt: str, offset: int) -> None:
        if stmt in SECTIONS and "=" not in stmt:
            self.section = stmt
            return
        if self.section == "queries":
            self.feed_query(line, stmt)
            return
        key, eq, rhs_raw = stmt.partition("=")
        key = key.strip()
        rhs = rhs_raw.strip()
        if eq:
            rhs_offset = offset + len(stmt) - len(rhs_raw) + (len(rhs_raw) - len(rhs_raw.lstrip()))
        else:
            rhs_offset = offset
        handler = {
            "surface": self.feed_surface,
            "curves": self.feed_curve,
            "cone": self.feed_cone,
            "points": self.feed_point,
            "tangents": self.feed_tangent,
            "params": self.feed_param,
            "divisors": self.feed_divisor,
        }[self.section]
        handler(line, key, rhs if eq else None, rhs_offset)

    def feed_surface(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if key not in ("basis", "gram", "K", "chi_O"):
            raise ParseError(f"unknown surface key {key!r} (expected basis, gram, K, chi_O)", line)
        if rhs is None:
            raise ParseError(f"surface key {key!r} needs a value", line)
        if key in self.surface_keys:
            raise ParseError(f"duplicate surface key {key!r}", line)
        self.surface_keys[key] = (rhs, line, offset)
        self.surface_line = self.surface_line or line

    def feed_curve(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if rhs is None:
            raise ParseError("curve declaration needs 'name = class expression'", line)
        self._check_fresh_name(key, line)
        self.curves.append(CurveDecl(key, self.class_coeffs(rhs, line, offset)))

    def feed_cone(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if key == "hirzebruch":
            if self.cone_kind == "generators":
                raise ParseError("cone already declared with generators", line)
            if rhs is None:
                raise ParseError("expected 'hirzebruch = n'", line)
            try:
                n = int(rhs)
            except ValueError:
                raise ParseError(f"expected an integer, got {rhs!r}", line) from None
            self.cone_kind = "hirzebruch"
            self.hirzebruch_n = n
        elif key == "generator":
            if self.cone_kind == "hirzebruch":
                raise ParseError("cone already declared as hirzebruch", line)
            if rhs is None:
                raise ParseError("expected 'generator = class expression [, through-p][, contains-z]'", line)
            chunks = [c.strip() for c in rhs.split(",")]
            coeffs = self.class_coeffs(chunks[0], line, offset)
            through_p = contains_z = False
            for flag in chunks[1:]:
                if flag == "through-p":
                    through_p = True
                elif flag == "contains-z":
                    contains_z = True
                else:
                    raise ParseError(f"unknown generator flag {flag!r}", line)
            self.cone_kind = "generators"
            self.generators.append(GeneratorDecl(coeffs, through_p, contains_z))
        else:
            raise ParseError(f"unknown cone key {key!r} (expected hirzebruch or generator)", line)

    def feed_point(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        self._check_fresh_name(key, line)
        entries: list[tuple[str, int]] = []
        for token in (rhs or "").split():
            name, _, mult = token.partition(":")
            if not mult:
                raise ParseError(f"point entry {token!r} must look like curve:mult", line)
            self._known_curve(name, line)
            try:
                entries.append((name, int(mult)))
            except ValueError:
                raise ParseError(f"multiplicity {mult!r} is not an integer", line) from None
        self.points.append(PointDecl(key, tuple(entries)))

    def feed_tangent(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        self._check_fresh_name(key, line)
        tokens = (rhs or "").split()
        if not tokens:
            raise ParseError("tangent declaration needs 'name = point curve:order[:z] ...'", line)
        at = tokens[0]
        if at not in {p.name for p in self.points}:
            raise ParseError(f"undefined point {at!r}", line)
        entries: list[tuple[str, int, bool]] = []
        for token in tokens[1:]:
            parts = token.split(":")
            if len(parts) not in (2, 3):
                raise ParseError(f"tangent entry {token!r} must look like curve:order[:z]", line)
            self._known_curve(parts[0], line)
            try:
                order = int(parts[1])
            except ValueError:
                raise ParseError(f"order {parts[1]!r} is not an integer", line) from None
            in_cone = len(parts) == 3
            if in_cone and parts[2] != "z":
                raise ParseError(f"unknown tangent marker {parts[2]!r} (only ':z')", line)
            entries.append((parts[0], order, in_cone))
        self.tangents.append(TangentDecl(key, at, tuple(entries)))

    def feed_param(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        self._check_fresh_name(key, line)
        if rhs is None or not rhs:
            self.params.append(ParamDecl(key))
            return
        m = re.fullmatch(r"\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)", rhs)
        if not m:
            raise ParseError("parameter domain must look like (lo, hi)", line)
        lo, hi = _parse_rational(m.group(1), line), _parse_rational(m.group(2), line)
        if lo >= hi:
            raise ParseError(f"parameter domain ({lo}, {hi}) is empty", line)
        self.params.append(ParamDecl(key, lo, hi))

    def feed_divisor(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if rhs is None:
            raise ParseError("divisor declaration needs 'name = expression'", line)
        self._check_fresh_name(key, line)
        coeffs = self.divisor_coeffs(rhs, line, offset)
        kept = {c: e for c, e in coeffs.items() if not (e.is_constant() and e.const == 0)}
        self.divisors.append(DivisorDecl(key, tuple(sorted(kept.items()))))

    def feed_query(self, line: int, stmt: str) -> None:
        words = stmt.split()
        kind = words[0]
        if kind not in QUERY_KINDS:
            raise ParseError(f"unknown query {kind!r} (expected one of {', '.join(QUERY_KINDS)})", line)
        args: list[tuple[str, str]] = []
        positional: list[str] = []
        for word in words[1:]:
            if "=" in word:
                k, _, v = word.partition("=")
                args.append((k, v))
            else:
                positional.append(word)
        self.queries.append(QueryDecl(kind, tuple(args), tuple(positional)))

    # -- helpers ---------------------------------------------------------
    def _check_fresh_name(self, name: str, line: int) -> None:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"invalid name {name!r}", line)
        taken = (
            {c.name for c in self.curves}
            | {p.name for p in self.points}
            | {t.name for t in self.tangents}
            | {p.name for p in self.params}
            | {d.name for d in self.divisors}
        )
        if name in taken:
            raise ParseError(f"name {name!r} is already declared", line)

    def _known_curve(self, name: str, line: int) -> None:
        if name not in {c.name for c in self.curves}:
            raise ParseError(f"undefined curve {name!r}", line)

    def build(self) -> Document:
        surface = self.surface(self.surface_line or 1) if self.surface_keys else None
        cone = None
        if self.cone_kind == "hirzebruch":
            cone = ConeDecl(hirzebruch_n=self.hirzebruch_n)
        elif self.cone_kind == "generators":
            cone = ConeDecl(generators=tuple(self.generators))
        return Document(
            surface=surface,
            curves=tuple(self.curves),
            cone=cone,
            points=tuple(self.points),
            tangents=tuple(self.tangents),
            params=tuple(self.params),
            divisors=tuple(self.divisors),
            queries=tuple(self.queries),
        )


def parse(text: str) -> Document:
    """Parse the declarative format; raises ParseError with position info."""
    builder = _DocBuilder()
    for line, stmt, offset in _split_statements(text):
        builder.feed(line, stmt, offset)
    doc = builder.build()
    if doc.surface is not None:
        try:
            bind(doc)  # surface invariants (symmetry, references) checked here
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), builder.surface_line) from exc
    return doc


# ---------------------------------------------------------------------------
# rendering


def _render_rational(q: Fraction) -> str:
    return str(q)


def _render_class(coeffs: Sequence[Fraction], labels: Sequence[str]) -> str:
    parts: list[str] = []
    for coeff, label in zip(coeffs, labels):
        if not coeff:
            continue
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        body = label if mag == 1 else f"{mag} {label}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _render_affine(expr: AffineExpr) -> str:
    if expr.is_constant():
        return _render_rational(expr.const)
    parts = []
    if expr.const:
        parts.append(_render_rational(expr.const))
    for name, coeff in sorted(expr.terms.items()):
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = f"-{name}"
        else:
            term = f"{_render_rational(coeff)} {name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    return "(" + " ".join(parts) + ")"


def render(doc: Document) -> str:
    """Render a document back to canonical text; parse(render(d)) == d."""
    lines: list[str] = []
    if doc.surface is not None:
        s = doc.surface
        lines.append("surface")
        lines.append("basis = " + " ".join(s.basis))
        rows = ", ".join("[" + ", ".join(_render_rational(x) for x in row) + "]" for row in s.gram)
        lines.append(f"gram = [{rows}]")
        lines.append("K = " + _render_class(s.canonical, s.basis))
        lines.append(f"chi_O = {_render_rational(s.chi_o)}")
    if doc.curves:
        lines.append("")
        lines.append("curves")
        basis = doc.surface.basis if doc.surface else ()
        for c in doc.curves:
            lines.append(f"{c.name} = " + _render_class(c.coeffs, basis))
    if doc.cone is not None:
        lines.append("")
        lines.append("cone")
        if doc.cone.hirzebruch_n is not None:
            lines.append(f"hirzebruch = {doc.cone.hirzebruch_n}")
        else:
            basis = doc.surface.basis if doc.surface else ()
            for g in doc.cone.generators:
                flags = (", through-p" if g.through_p else "") + (", contains-z" if g.contains_z else "")
                lines.append(f"generator = {_render_class(g.coeffs, basis)}{flags}")
    if doc.points:
        lines.append("")
        lines.append("points")
        for p in doc.points:
            entries = " ".join(f"{c}:{m}" for c, m in p.mults)
            lines.append(f"{p.name} ={' ' + entries if entries else ''}")
    if doc.tangents:
        lines.append("")
        lines.append("tangents")
        for t in doc.tangents:
            entries = " ".join(f"{c}:{m}:z" if z else f"{c}:{m}" for c, m, z in t.entries)
            lines.append(f"{t.name} = {t.at}{' ' + entries if entries else ''}")
    if doc.params:
        lines.append("")
        lines.append("params")
        for p in doc.params:
            lines.append(f"{p.name} = ({_render_rational(p.lo)}, {_render_rational(p.hi)})")
    if doc.divisors:
        lines.append("")
        lines.append("divisors")
        for d in doc.divisors:
            parts = []
            for curve, expr in d.coeffs:
                rendered = _render_affine(expr)
                parts.append(curve if rendered == "1" else f"{rendered} {curve}")
            lines.append(f"{d.name} = " + (" + ".join(parts) if parts else "0"))
    if doc.queries:
        lines.append("")
        lines.append("queries")
        for q in doc.queries:
            lines.append(q.text())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# binding to runtime objects


@dataclass(frozen=True)
class BoundDocument:
    doc: Document
    model: Optional[SurfaceModel]
    cone: Optional[ConeDescription]
    params: tuple[Param, ...]
    divisors: Mapping[str, Mapping[str, AffineExpr]]

    def divisor_expr(self, text: str, line: int = 0) -> Mapping[str, AffineExpr]:
        """Resolve a divisor name or inline expression against the document."""
        if self.model is None:
            raise ParseError("no surface declared", line)
        if text in self.divisors:
            return self.divisors[text]
        curve_names = set(self.model.curves)
        param_names = {p.name for p in self.params}

        def resolve(name: str) -> _Value:
            if name in curve_names:
                return ("vec", {name: AffineExpr.constant(1)})
            if name in self.divisors:
                return ("vec", dict(self.divisors[name]))
            if name in param_names:
                return ("scalar", AffineExpr.parameter(name))
            raise KeyError(f"undefined name {name!r}")

        return _as_vec(_ExprParser(_scan(text, line), line, resolve).parse(), line)

    def concrete_divisor(self, text: str, line: int = 0) -> QDivisor:
        coeffs = self.divisor_expr(text, line)
        out = {}
        for curve, expr in coeffs.items():
            if not expr.is_constant():
                raise ParseError(f"divisor {text!r} depends on parameters; a concrete one is needed", line)
            out[curve] = expr.const
        return self.model.divisor(out)


def bind(doc: Document) -> BoundDocument:
    """Build the runtime surface model, cone, and divisor tables."""
    model = None
    cone: Optional[ConeDescription] = None
    if doc.surface is not None:
        s = doc.surface
        lattice = IntersectionLattice(s.basis, s.gram)
        curves = {c.name: Curve(c.name, lattice.divisor_class(c.coeffs)) for c in doc.curves}
        points = {p.name: PointSpec(p.name, dict(p.mults)) for p in doc.points}
        tangents = {
            t.name: TangentSpec(
                t.name,
                t.at,
                {c: m for c, m, _ in t.entries},
                {c: z for c, m, z in t.entries},
            )
            for t in doc.tangents
        }
        model = SurfaceModel(
            lattice=lattice,
            canonical=lattice.divisor_class(s.canonical),
            chi_structure_sheaf=s.chi_o,
            curves=curves,
            points=points,
            tangents=tangents,
        )
        if doc.cone is not None:
            if doc.cone.hirzebruch_n is not None:
                cone = HirzebruchFamily(doc.cone.hirzebruch_n, lattice)
            else:
                cone = FiniteGenerators(
                    tuple(
                        ConeGenerator(lattice.divisor_class(g.coeffs), g.through_p, g.contains_z)
                        for g in doc.cone.generators
                    )
                )
    elif doc.cone is not None or doc.curves or doc.points or doc.divisors:
        raise ParseError("declarations need a surface section first")

    params = tuple(Param(p.name, p.lo, p.hi) for p in doc.params)
    divisors: dict[str, dict[str, AffineExpr]] = {}
    for d in doc.divisors:
        divisors[d.name] = dict(d.coeffs)
    return BoundDocument(doc, model, cone, params, divisors)
