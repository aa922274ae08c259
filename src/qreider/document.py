"""Declarative text format for surfaces, divisors, and verdict queries.

The format is line-oriented.  Bare section headers (``surface``, ``curves``,
``cone``, ``points``, ``tangents``, ``params``, ``divisors``, ``queries``)
switch context; ``#`` starts a comment; ``;`` separates statements on one
line.  Numbers are ASCII: a rational literal is ``p/q`` or an integer over
the digits 0-9, with an optional sign where it stands alone (``chi_O``, a
parameter domain's ends); ``hirzebruch``, multiplicities and tangent orders
are integers with an optional ``-``.  ``_number`` and ``_integer`` are the
only way from typed text to a number: query arguments (``m2=``, ``beta2=``,
``n=``, ...) and the ``qreider hirzebruch`` flags are read by them too.
Before the first header, surface-level keys are accepted directly, so a
fragment like

    gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = 1

is a complete surface declaration (basis labels default to the names used in
the canonical-class expression when no ``basis`` key is given).  The surface
is built once, at the first curve, cone, point, tangent or divisor statement;
a surface key after that point is an error.

Expressions are rational-linear: ``3G + 8F``, ``9/10 G``, ``L - B``, and with
declared parameters, ``(1 - e)G + (2 + e)F``.  Juxtaposition multiplies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .cones import ConeDescription, ConeGenerator, FiniteGenerators, HirzebruchFamily
from .lattice import IntersectionLattice, as_fraction
from .search import AffineExpr, Param
from .surface import Curve, PointSpec, QDivisor, SurfaceModel, TangentSpec, check_tangent

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
#
# A declaration's ``line`` is where an invariant it breaks is reported; it
# takes no part in equality, so parse(render(d)) == d holds.


@dataclass(frozen=True)
class SurfaceDecl:
    basis: tuple[str, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    canonical: tuple[Fraction, ...]
    chi_o: Fraction
    line: Optional[int] = field(default=None, compare=False)  # the gram's line


@dataclass(frozen=True)
class CurveDecl:
    name: str
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class GeneratorDecl:
    coeffs: tuple[Fraction, ...]
    through_p: bool = False
    contains_z: bool = False
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class ConeDecl:
    hirzebruch_n: Optional[int] = None
    generators: tuple[GeneratorDecl, ...] = ()
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class PointDecl:
    name: str
    mults: tuple[tuple[str, int], ...]
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class TangentDecl:
    name: str
    at: str
    entries: tuple[tuple[str, int, bool], ...]
    line: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class DivisorDecl:
    name: str
    coeffs: tuple[tuple[str, AffineExpr], ...]


@dataclass(frozen=True)
class QueryDecl:
    kind: str
    args: tuple[tuple[str, str], ...] = ()
    positional: tuple[str, ...] = ()
    line: Optional[int] = field(default=None, compare=False)
    # 0-based start column in the line of each positional word, then of each argument value
    cols: tuple[int, ...] = field(default=(), compare=False)

    def arg(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.args:
            if k == key:
                return v
        return default

    def col(self, key: Union[int, str]) -> int:
        """Start column of positional word number ``key``, or of argument ``key``'s value (0 if unknown)."""
        if isinstance(key, str):
            key = len(self.positional) + next(i for i, (k, _) in enumerate(self.args) if k == key)
        return self.cols[key] if key < len(self.cols) else 0

    def text(self) -> str:
        parts = [self.kind]
        parts += list(self.positional)
        parts += [f"{k}={v}" for k, v in self.args]
        return " ".join(parts)


def _at(line: Optional[int], build: Callable, *args):
    """Call a runtime constructor; its ValueError becomes a ParseError at ``line``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc), line) from exc


@dataclass(frozen=True)
class Document:
    """The declarations of a document and the runtime objects bound from them.

    ``model``, ``curve_cone`` and ``symbols`` (every declared name to its
    declaration) are derived once, on construction, and take no part in
    equality.
    """

    surface: Optional[SurfaceDecl] = None
    curves: tuple[CurveDecl, ...] = ()
    cone: Optional[ConeDecl] = None
    points: tuple[PointDecl, ...] = ()
    tangents: tuple[TangentDecl, ...] = ()
    params: tuple[Param, ...] = ()
    divisors: tuple[DivisorDecl, ...] = ()
    queries: tuple[QueryDecl, ...] = ()
    model: Optional[SurfaceModel] = field(default=None, init=False, compare=False, repr=False)
    curve_cone: Optional[ConeDescription] = field(default=None, init=False, compare=False, repr=False)
    symbols: Mapping[str, object] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        decls = (*self.curves, *self.points, *self.tangents, *self.params, *self.divisors)
        object.__setattr__(self, "symbols", {d.name: d for d in decls})
        s = self.surface
        if s is None:
            if any((self.curves, self.cone, self.points, self.tangents, self.divisors)):
                raise ParseError("declarations need a surface section first")
            return
        lattice = _at(s.line, IntersectionLattice, s.basis, s.gram)
        curves = {c.name: Curve(c.name, lattice.divisor_class(c.coeffs)) for c in self.curves}
        points = {p.name: _at(p.line, PointSpec, p.name, dict(p.mults)) for p in self.points}
        tangents = {}
        for t in self.tangents:
            mults, flags = {c: m for c, m, _ in t.entries}, {c: z for c, _, z in t.entries}
            tangents[t.name] = spec = _at(t.line, TangentSpec, t.name, t.at, mults, flags)
            _at(t.line, check_tangent, spec, points, curves)
        canonical = lattice.divisor_class(s.canonical)
        model = _at(s.line, SurfaceModel, lattice, canonical, s.chi_o, curves, points, tangents)
        object.__setattr__(self, "model", model)
        c = self.cone
        if c is not None and c.hirzebruch_n is not None:
            object.__setattr__(self, "curve_cone", _at(c.line, HirzebruchFamily, c.hirzebruch_n, lattice))
        elif c is not None:
            generators = tuple(
                _at(g.line, ConeGenerator, lattice.divisor_class(g.coeffs), g.through_p, g.contains_z)
                for g in c.generators
            )
            object.__setattr__(self, "curve_cone", _at(c.line, FiniteGenerators, generators))

    def divisor_expr(self, text: str, line: Optional[int] = None, col: int = 0) -> Mapping[str, AffineExpr]:
        """Resolve a divisor name or inline expression; ``text`` starts at ``line``, 0-based column ``col``."""
        if self.model is None:
            raise ParseError("no surface declared", line)
        return _divisor_coeffs(self.symbols, _scan(text, line, col), line)

    def concrete_divisor(self, text: str, line: Optional[int] = None, col: int = 0) -> QDivisor:
        coeffs = self.divisor_expr(text, line, col)
        out = {}
        for curve, expr in coeffs.items():
            if not expr.is_constant():
                raise ParseError(f"divisor {text!r} depends on parameters; a concrete one is needed", line)
            out[curve] = expr.const
        return self.model.divisor(out)


# ---------------------------------------------------------------------------
# expression scanner and parser


class _Token(NamedTuple):
    kind: str  # num | name | sym | end
    text: str
    col: Optional[int]  # 1-based column in the line; None for the end of input


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
# one group per token kind; "bad" is any other character that is not whitespace
_TOKEN_RE = re.compile(rf"(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>{_NAME})|(?P<sym>[-+*()\[\],:])|(?P<bad>\S)")
_WORD_RE = re.compile(r"\S+")
_RATIONAL_RE = re.compile(r"[-+]?[0-9]+(?:/[0-9]+)?")
_INTEGER_RE = re.compile(r"-?[0-9]+")
_END = _Token("end", "", None)


def _scan(text: str, line: int, col_offset: int = 0) -> list[_Token]:
    """The tokens of ``text``, which starts at 0-based column ``col_offset``."""
    tokens = [_Token(m.lastgroup, m.group(), col_offset + m.start() + 1) for m in _TOKEN_RE.finditer(text)]
    for tok in tokens:
        if tok.kind == "bad":
            raise ParseError(f"unexpected character {tok.text!r}", line, tok.col)
    return tokens


def _number(text: str, line: int, col: Optional[int] = None) -> Union[int, Fraction]:
    """The exact value of an ASCII literal, ``[sign]p/q`` or ``[sign]integer``
    (an int for an integer); anything else is a positioned ParseError."""
    if _RATIONAL_RE.fullmatch(text):
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den)) if den else int(num)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {text!r}", line, col) from None
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"expected a rational number, got {text!r}", line, col)


def _integer(text: str, message: str, line: Optional[int], col: Optional[int]) -> int:
    """ASCII digits with an optional '-' as an int; anything else raises ``message`` at ``line``, ``col``."""
    if _INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(message.format(text), line, col)


# Expression values hold plain exact numbers, an int or a Fraction, and are
# never changed once built: ("scalar", {param or None: number}) is
# const + sum(coeff * param) with the constant under None, and
# ("vec", {name: scalar dict}) is a divisor.  An AffineExpr is built only for
# a finished expression.
_Scalar = dict[Optional[str], Union[int, Fraction]]
_Value = tuple[str, dict]

_ONE: _Scalar = {None: Fraction(1)}
_ZERO = Fraction(0)

# The value a name stands for, or None for a name that is not defined.
Resolver = Callable[[str], Optional[_Value]]


class _ExprParser:
    """Parses one divisor expression; ``undefined`` formats the error for an unresolved name."""

    def __init__(self, tokens: Sequence[_Token], line: int, resolve: Resolver, undefined: str):
        self.tokens = [*tokens, _END]
        self.line = line
        self.pos = 0
        self.resolve = resolve
        self.undefined = undefined

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok is _END:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.tokens[self.pos].col)

    def parse(self) -> dict[str, _Scalar]:
        value = self.additive()
        tok = self.tokens[self.pos]
        if tok is not _END:
            raise self.error(f"unexpected token {tok.text!r} (expected '+', '-' or end)")
        if value[0] == "vec":
            return value[1]
        if not any(value[1].values()):
            return {}
        raise ParseError("expected a divisor expression, got a plain number", self.line)

    def additive(self) -> _Value:
        value = self.signed_term()
        while (op := self.tokens[self.pos].text) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            value = self._add(value, _negate(rhs) if op == "-" else rhs)
        return value

    def signed_term(self) -> _Value:
        negative = False
        while (op := self.tokens[self.pos].text) in ("+", "-"):
            self.pos += 1
            negative ^= op == "-"
        value = self.term()
        return _negate(value) if negative else value

    def term(self) -> _Value:
        value = self.factor()
        while (tok := self.tokens[self.pos]).kind in ("num", "name") or tok.text in ("(", "*"):
            if tok.text == "*":
                self.pos += 1
            value = self._mul(value, self.factor())
        return value

    def factor(self) -> _Value:
        tok = self.take()
        if tok.kind == "num":
            return ("scalar", {None: _number(tok.text, self.line, tok.col)})
        if tok.kind == "name":
            value = self.resolve(tok.text)
            if value is None:
                raise ParseError(self.undefined.format(tok.text), self.line, tok.col)
            return value
        if tok.text == "(":
            value = self.additive()
            closing = self.take()
            if closing.text != ")":
                raise ParseError("expected ')'", self.line, closing.col)
            return value
        raise ParseError(f"unexpected token {tok.text!r} (expected a number, name or '(')", self.line, tok.col)

    def _add(self, a: _Value, b: _Value) -> _Value:
        if a[0] == "scalar" and b[0] == "scalar":
            return ("scalar", _sum(a[1], b[1]))
        if a[0] == "vec" and b[0] == "vec":
            merged = dict(a[1])
            for name, scalar in b[1].items():
                merged[name] = _sum(merged[name], scalar) if name in merged else scalar
            return ("vec", merged)
        a, b = (a, b) if a[0] == "scalar" else (b, a)
        if not any(a[1].values()):
            return b
        raise self.error("cannot add a number to a divisor expression")

    def _mul(self, a: _Value, b: _Value) -> _Value:
        if a[0] == "vec" and b[0] == "vec":
            raise self.error("cannot multiply two divisor expressions")
        if a[0] == "vec":
            a, b = b, a
        scalar = a[1]
        if b[0] == "scalar":
            return ("scalar", self._product(scalar, b[1]))
        return ("vec", {name: self._product(scalar, s) for name, s in b[1].items()})

    def _product(self, a: _Scalar, b: _Scalar) -> _Scalar:
        """a * b, which is affine only when one of them is constant."""
        if _is_constant(b):
            a, b = b, a
        elif not _is_constant(a):
            raise self.error("product of two non-constant parameter expressions is not affine")
        q = a.get(None, 0)
        return b if q == 1 else {key: q * coeff for key, coeff in b.items()}


def _sum(a: _Scalar, b: _Scalar) -> _Scalar:
    merged = dict(a)
    for key, coeff in b.items():
        merged[key] = merged.get(key, 0) + coeff
    return merged


def _is_constant(scalar: _Scalar) -> bool:
    return not any(coeff for key, coeff in scalar.items() if key is not None)


def _negate(value: _Value) -> _Value:
    if value[0] == "scalar":
        return ("scalar", {key: -coeff for key, coeff in value[1].items()})
    return ("vec", {name: {key: -coeff for key, coeff in s.items()} for name, s in value[1].items()})


def _affine(scalar: _Scalar) -> AffineExpr:
    terms = dict(scalar)
    return AffineExpr(terms.pop(None, 0), terms)


def _divisor_coeffs(symbols: Mapping[str, object], tokens: Sequence[_Token], line: int) -> dict[str, AffineExpr]:
    """Expand a divisor expression over the declared curves, divisors and parameters."""

    def resolve(name: str) -> Optional[_Value]:
        decl = symbols.get(name)
        if isinstance(decl, CurveDecl):
            return ("vec", {name: _ONE})
        if isinstance(decl, DivisorDecl):
            return ("vec", {curve: {None: expr.const, **expr.terms} for curve, expr in decl.coeffs})
        if isinstance(decl, Param):
            return ("scalar", {name: 1})
        return None

    vec = _ExprParser(tokens, line, resolve, "undefined name {!r} (not a curve, divisor, or parameter)").parse()
    return {curve: _affine(scalar) for curve, scalar in vec.items()}


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
        return Fraction(sign * _number(tok.text, line, tok.col))

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
        self.surface_keys: dict[str, tuple[object, int]] = {}  # key -> (parsed value, line)
        self.surface: Optional[SurfaceDecl] = None  # built once, by freeze()
        self.basis: dict[str, _Value] = {}
        self.symbols: dict[str, object] = {}  # every declared name -> its declaration, in order
        self.hirzebruch_n: Optional[int] = None
        self.generators: list[GeneratorDecl] = []
        self.cone_line: Optional[int] = None
        self.queries: list[QueryDecl] = []

    def freeze(self, line: int) -> None:
        """Build the surface from its keys, once; ``line`` is the statement that needs it."""
        if self.surface is not None:
            return
        keys = self.surface_keys
        if not keys:
            raise ParseError("no surface declared (need gram, K, chi_O)", line)
        for key in ("gram", "K", "chi_O"):
            if key not in keys:
                raise ParseError(f"surface declaration is missing {key!r}", line)
        (gram, gram_line), (k_tokens, k_line) = keys["gram"], keys["K"]
        # default: labels in order of first appearance in the K expression
        default = tuple(dict.fromkeys(t.text for t in k_tokens if t.kind == "name"))
        basis, basis_line = keys.get("basis", (default, k_line))
        if len(basis) != len(gram):
            raise ParseError(f"basis has {len(basis)} labels but the gram matrix has rank {len(gram)}", basis_line)
        self.basis = {label: ("vec", {label: _ONE}) for label in basis}
        self.surface = SurfaceDecl(basis, gram, self.class_coeffs(k_tokens, k_line), keys["chi_O"][0], gram_line)

    def class_coeffs(self, tokens: list[_Token], line: int) -> tuple[Fraction, ...]:
        vec = _ExprParser(tokens, line, self.basis.get, "undefined basis label {!r}").parse()
        return tuple(as_fraction(vec.get(label, {}).get(None, _ZERO)) for label in self.basis)

    def declare(self, decl, line: int) -> None:
        if not _NAME_RE.fullmatch(decl.name):
            raise ParseError(f"invalid name {decl.name!r}", line)
        if decl.name in self.symbols:
            raise ParseError(f"name {decl.name!r} is already declared", line)
        self.symbols[decl.name] = decl

    def known(self, name: str, kind: type, what: str, line: int) -> None:
        if not isinstance(self.symbols.get(name), kind):
            raise ParseError(f"undefined {what} {name!r}", line)

    # -- statements ----------------------------------------------------
    def feed(self, line: int, stmt: str, offset: int) -> None:
        if stmt in SECTIONS and "=" not in stmt:
            self.section = stmt
            return
        if self.section == "queries":
            self.feed_query(line, stmt, offset)
            return
        if self.section not in ("surface", "params"):
            self.freeze(line)
        key, eq, rhs = stmt.partition("=")
        rhs = rhs.strip()  # stmt is stripped, so rhs ends where stmt does
        handler = getattr(self, f"feed_{self.section}")
        handler(line, key.strip(), rhs if eq else None, offset + len(stmt) - len(rhs))

    def feed_surface(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if key not in ("basis", "gram", "K", "chi_O"):
            raise ParseError(f"unknown surface key {key!r} (expected basis, gram, K, chi_O)", line)
        if rhs is None:
            raise ParseError(f"surface key {key!r} needs a value", line)
        if key in self.surface_keys:
            raise ParseError(f"duplicate surface key {key!r}", line)
        if self.surface is not None:
            raise ParseError(f"surface key {key!r} comes after the surface is in use", line)
        if key == "basis":
            value = tuple(rhs.split())
            for label in value:
                if not _NAME_RE.fullmatch(label):
                    raise ParseError(f"invalid basis label {label!r}", line)
            if len(set(value)) != len(value):
                raise ParseError(f"basis labels must be pairwise distinct: {rhs!r}", line)
        elif key == "gram":
            value = _parse_matrix(_scan(rhs, line, offset), line)
        elif key == "K":
            value = _scan(rhs, line, offset)
        else:
            value = Fraction(_number(rhs, line, offset + 1))
        self.surface_keys[key] = (value, line)

    def feed_curves(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if rhs is None:
            raise ParseError("curve declaration needs 'name = class expression'", line)
        self.declare(CurveDecl(key, self.class_coeffs(_scan(rhs, line, offset), line)), line)

    def feed_cone(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if key == "hirzebruch":
            if self.generators:
                raise ParseError("cone already declared with generators", line)
            if rhs is None:
                raise ParseError("expected 'hirzebruch = n'", line)
            self.hirzebruch_n = _integer(rhs, "expected an integer, got {!r}", line, offset + 1)
        elif key == "generator":
            if self.hirzebruch_n is not None:
                raise ParseError("cone already declared as hirzebruch", line)
            if rhs is None:
                raise ParseError("expected 'generator = class expression [, through-p][, contains-z]'", line)
            chunks = [c.strip() for c in rhs.split(",")]
            coeffs = self.class_coeffs(_scan(chunks[0], line, offset), line)
            through_p = contains_z = False
            for flag in chunks[1:]:
                if flag == "through-p":
                    through_p = True
                elif flag == "contains-z":
                    contains_z = True
                else:
                    raise ParseError(f"unknown generator flag {flag!r}", line)
            self.generators.append(GeneratorDecl(coeffs, through_p, contains_z, line))
        else:
            raise ParseError(f"unknown cone key {key!r} (expected hirzebruch or generator)", line)
        self.cone_line = self.cone_line or line

    def feed_points(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        entries: list[tuple[str, int]] = []
        for word in _WORD_RE.finditer(rhs or ""):
            name, _, mult = word.group().partition(":")
            if not mult:
                raise ParseError(f"point entry {word.group()!r} must look like curve:mult", line)
            self.known(name, CurveDecl, "curve", line)
            col = offset + word.start() + len(name) + 2
            entries.append((name, _integer(mult, "multiplicity {!r} is not an integer", line, col)))
        self.declare(PointDecl(key, tuple(entries), line), line)

    def feed_tangents(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        words = list(_WORD_RE.finditer(rhs or ""))
        if not words:
            raise ParseError("tangent declaration needs 'name = point curve:order[:z] ...'", line)
        at = words[0].group()
        self.known(at, PointDecl, "point", line)
        entries: list[tuple[str, int, bool]] = []
        for word in words[1:]:
            parts = word.group().split(":")
            if len(parts) not in (2, 3):
                raise ParseError(f"tangent entry {word.group()!r} must look like curve:order[:z]", line)
            self.known(parts[0], CurveDecl, "curve", line)
            col = offset + word.start() + len(parts[0]) + 2
            order = _integer(parts[1], "order {!r} is not an integer", line, col)
            in_cone = len(parts) == 3
            if in_cone and parts[2] != "z":
                raise ParseError(f"unknown tangent marker {parts[2]!r} (only ':z')", line)
            entries.append((parts[0], order, in_cone))
        self.declare(TangentDecl(key, at, tuple(entries), line), line)

    def feed_params(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if not rhs:
            self.declare(Param(key), line)
            return
        m = re.fullmatch(r"\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)", rhs)
        if not m:
            raise ParseError("parameter domain must look like (lo, hi)", line)
        lo, hi = (_number(m.group(i), line, offset + m.start(i) + 1) for i in (1, 2))
        self.declare(_at(line, Param, key, lo, hi), line)

    def feed_divisors(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if rhs is None:
            raise ParseError("divisor declaration needs 'name = expression'", line)
        coeffs = _divisor_coeffs(self.symbols, _scan(rhs, line, offset), line)
        kept = {c: e for c, e in coeffs.items() if not (e.is_constant() and e.const == 0)}
        self.declare(DivisorDecl(key, tuple(sorted(kept.items()))), line)

    def feed_query(self, line: int, stmt: str, offset: int) -> None:
        first, *words = _WORD_RE.finditer(stmt)
        kind = first.group()
        if kind not in QUERY_KINDS:
            raise ParseError(f"unknown query {kind!r} (expected one of {', '.join(QUERY_KINDS)})", line)
        args: list[tuple[str, str]] = []
        positional: list[str] = []
        cols: list[int] = []  # positional words come before the first key=value
        for word in words:
            key, eq, value = word.group().partition("=")
            if eq:
                args.append((key, value))
                cols.append(word.start() + len(key) + 1)
            elif args:  # a word without '=' continues the value before it: M=3G + 9F
                key, value = args[-1]
                if not value:
                    cols[-1] = word.start()
                args[-1] = (key, stmt[cols[-1] : word.end()])
            else:
                positional.append(word.group())
                cols.append(word.start())
        self.queries.append(QueryDecl(kind, tuple(args), tuple(positional), line, tuple(offset + c for c in cols)))

    def build(self) -> Document:
        if self.surface_keys:
            self.freeze(next(iter(self.surface_keys.values()))[1])
        decls = list(self.symbols.values())
        return Document(
            surface=self.surface,
            curves=tuple(d for d in decls if isinstance(d, CurveDecl)),
            cone=None if self.cone_line is None else ConeDecl(self.hirzebruch_n, tuple(self.generators), self.cone_line),
            points=tuple(d for d in decls if isinstance(d, PointDecl)),
            tangents=tuple(d for d in decls if isinstance(d, TangentDecl)),
            params=tuple(d for d in decls if isinstance(d, Param)),
            divisors=tuple(d for d in decls if isinstance(d, DivisorDecl)),
            queries=tuple(self.queries),
        )


def parse(text: str) -> Document:
    """Parse the declarative format; raises ParseError with position info."""
    builder = _DocBuilder()
    for line, stmt, offset in _split_statements(text):
        builder.feed(line, stmt, offset)
    return builder.build()


# ---------------------------------------------------------------------------
# rendering


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
        return str(expr.const)
    parts = []
    if expr.const:
        parts.append(str(expr.const))
    for name, coeff in sorted(expr.terms.items()):
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = f"-{name}"
        else:
            term = f"{coeff!s} {name}"
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
        rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in s.gram)
        lines.append(f"gram = [{rows}]")
        lines.append("K = " + _render_class(s.canonical, s.basis))
        lines.append(f"chi_O = {s.chi_o!s}")
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
            lines.append(f"{p.name} = ({p.lo!s}, {p.hi!s})")
    if doc.divisors:
        lines.append("")
        lines.append("divisors")
        for d in doc.divisors:
            parts = []
            for curve, expr in d.coeffs:
                rendered = _render_affine(expr)
                parts.append(curve if rendered == "1" else f"{rendered} {curve}")
            # a negative term after the first is written as a difference: "A - 1/3 B", not "A + -1/3 B"
            lines.append(f"{d.name} = " + (" + ".join(parts).replace("+ -", "- ") if parts else "0"))
    if doc.queries:
        lines.append("")
        lines.append("queries")
        for q in doc.queries:
            lines.append(q.text())
    return "\n".join(lines) + "\n"
