"""Declarative text format for surfaces, divisors, and verdict queries.

The format is line-oriented.  Bare section headers (``surface``, ``curves``,
``cone``, ``points``, ``tangents``, ``params``, ``divisors``, ``queries``)
switch context; ``#`` starts a comment; ``;`` separates statements on one
line.  Numbers are ASCII: a rational literal is ``p/q`` or an integer over
the digits 0-9, with an optional sign where it stands alone (``chi_O``, a
parameter domain's ends); ``hirzebruch``, multiplicities and tangent orders
are integers with an optional ``-``.  ``_number`` (whose core ``_literal``
also reads number tokens) and ``_integer`` are the only way from typed text
to a number: query arguments (``m2=``, ``beta2=``, ``n=``, ...) and the
``qreider hirzebruch`` flags are read by them too.
Before the first header, surface-level keys are accepted directly, so a
fragment like

    gram = [[-3, 1], [1, 0]]; K = -2G - 5F; chi_O = 1

is a complete surface declaration (basis labels default to the names used in
the canonical-class expression when no ``basis`` key is given).  The surface
is built once, at the first curve, cone, point, tangent or divisor statement;
a surface key after that point is an error.  A point or tangent names each
curve once; a cone has one ``hirzebruch``.

Expressions are rational-linear: ``3G + 8F``, ``9/10 G``, ``L - B``, and with
declared parameters, ``(1 - e)G + (2 + e)F``.  Juxtaposition multiplies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from .cones import ConeDescription, ConeGenerator, FiniteGenerators, HirzebruchFamily
from .lattice import DivisorClass, IntersectionLattice
from .search import AffineExpr, Param
from .surface import Curve, PointSpec, QDivisor, SurfaceModel, TangentSpec, check_tangent
from .writer import render  # re-exported: the inverse of parse

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
        classes: dict[tuple, DivisorClass] = {}  # one class per distinct coefficient vector
        curves = {}
        for c in self.curves:
            coeffs = tuple(c.coeffs)
            cls = classes.get(coeffs)
            if cls is None:
                cls = classes[coeffs] = DivisorClass(lattice, coeffs)
            curves[c.name] = Curve(c.name, cls)
        points = {p.name: _at(p.line, PointSpec, p.name, p.mults) for p in self.points}
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
        return {curve: _affine(s) for curve, s in _divisor_scalars(self.symbols, _scan(text, line, col), line).items()}

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

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
# one group per token kind; "bad" is any other character that is not whitespace
_TOKEN_RE = re.compile(rf"(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>{_NAME})|(?P<sym>[-+*()\[\],:])|(?P<bad>\S)")
_WORD_RE = re.compile(r"\S+")
_RATIONAL_RE = re.compile(r"[-+]?[0-9]+(?:/[0-9]+)?")
_INTEGER_RE = re.compile(r"-?[0-9]+")
_END = ("end", "", None)
_Token = tuple[str, str, Optional[int]]  # kind (num, name, sym or end), text, 1-based column (None at the end)


def _scan(text: str, line: int, col_offset: int = 0) -> list[_Token]:
    """The tokens of ``text``, which starts at 0-based column ``col_offset``."""
    tokens = [(m.lastgroup, m[0], col_offset + m.start() + 1) for m in _TOKEN_RE.finditer(text)]
    for kind, tok, col in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, col)
    return tokens


def _literal(text: str, line: Optional[int], col: Optional[int]) -> Union[int, Fraction]:
    """The value of text of the form ``[sign]digits[/digits]``."""
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", line, col) from None
    except ValueError:  # more digits than int() converts
        raise ParseError(f"expected a rational number, got {text!r}", line, col) from None


def _number(text: str, line: int, col: Optional[int] = None) -> Union[int, Fraction]:
    """The exact value of an ASCII literal, ``[sign]p/q`` or ``[sign]integer``
    (an int for an integer); anything else is a positioned ParseError."""
    if _RATIONAL_RE.fullmatch(text):
        return _literal(text, line, col)
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
# ("vec", {name: scalar dict}) is a divisor.  A curve or basis label is
# ("vec", {name: _UNIT}).  An AffineExpr is built only for a finished
# expression.
_Scalar = dict[Optional[str], Union[int, Fraction]]
_Value = tuple[str, dict]

_UNIT: _Scalar = {None: 1}


class _ExprParser:
    """Parses one divisor expression.  ``resolve`` gives the value a name stands
    for, or None for an undefined name; ``undefined`` formats that error."""

    def __init__(self, tokens: Sequence[_Token], line: int, resolve: Callable[[str], Optional[_Value]], undefined: str):
        self.tokens = [*tokens, _END]
        self.line = line
        self.pos = 0
        self.resolve = resolve
        self.undefined = undefined

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.tokens[self.pos][2])

    def parse(self) -> dict[str, _Scalar]:
        value = self.additive()
        tok = self.tokens[self.pos]
        if tok is not _END:
            raise self.error(f"unexpected token {tok[1]!r} (expected '+', '-' or end)")
        if value[0] == "vec":
            return value[1]
        if not any(value[1].values()):
            return {}
        raise ParseError("expected a divisor expression, got a plain number", self.line)

    def additive(self) -> _Value:
        """A sum of terms; only the first may carry a run of signs."""
        negative = False
        while (op := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            negative ^= op == "-"
        value = self.term()
        if negative:
            value = _negate(value)
        while (op := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            value = self._add(value, _negate(rhs) if op == "-" else rhs)
        return value

    def term(self) -> _Value:
        """Factors (a number, a name or a parenthesised sum), juxtaposed or joined by '*'."""
        tokens, line = self.tokens, self.line
        value = None
        while True:
            kind, text, col = tokens[self.pos]
            self.pos += 1
            if kind == "num":
                factor = ("scalar", {None: _literal(text, line, col)})
            elif kind == "name":
                factor = self.resolve(text)
                if factor is None:
                    raise ParseError(self.undefined.format(text), line, col)
            elif text == "(":
                factor = self.additive()
                kind, text, col = tokens[self.pos]
                self.pos += 1
                if text != ")":
                    raise ParseError("unexpected end of expression" if kind == "end" else "expected ')'", line, col)
            else:
                expected = f"unexpected token {text!r} (expected a number, name or '(')"
                raise ParseError("unexpected end of expression" if kind == "end" else expected, line, col)
            value = factor if value is None else self._mul(value, factor)
            kind, text, _ = tokens[self.pos]
            if text == "*":
                self.pos += 1
            elif kind not in ("num", "name") and text != "(":
                return value

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
        return ("vec", {name: scalar if s is _UNIT else self._product(scalar, s) for name, s in b[1].items()})

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


def _affine(scalar: _Scalar, constant: Callable[..., AffineExpr] = AffineExpr.constant) -> AffineExpr:
    """The expression of ``scalar``; a constant one (no nonzero parameter term) is ``constant(value)``."""
    terms = len(scalar) > (None in scalar) and {k: c for k, c in scalar.items() if c and k is not None}
    return AffineExpr(scalar.get(None, 0), terms) if terms else constant(scalar.get(None, 0))


def _divisor_scalars(symbols: Mapping[str, object], tokens: Sequence[_Token], line: int) -> dict[str, _Scalar]:
    """Expand a divisor expression over the declared curves, divisors and parameters."""

    def resolve(name: str) -> Optional[_Value]:
        decl = symbols.get(name)
        if type(decl) is CurveDecl:
            return ("vec", {name: _UNIT})
        if type(decl) is DivisorDecl:
            return ("vec", {curve: {None: expr.const, **expr.terms} for curve, expr in decl.coeffs})
        if type(decl) is Param:
            return ("scalar", {name: 1})
        return None

    return _ExprParser(tokens, line, resolve, "undefined name {!r} (not a curve, divisor, or parameter)").parse()


# ---------------------------------------------------------------------------
# statement-level parsing


def _parse_matrix(tokens: list[_Token], line: int) -> tuple[tuple[Fraction, ...], ...]:
    pos = 0

    def take(expected: Optional[str] = None) -> _Token:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of matrix (expected {expected or 'a token'})", line)
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok[1] != expected:
            raise ParseError(f"expected {expected!r}, got {tok[1]!r}", line, tok[2])
        return tok

    def entry() -> Fraction:
        nonlocal pos
        sign = 1
        while pos < len(tokens) and tokens[pos][1] in "+-":
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        kind, text, col = take()
        if kind != "num":
            raise ParseError(f"expected a number, got {text!r}", line, col)
        return Fraction(sign * _literal(text, line, col))

    take("[")
    rows = []
    while True:
        take("[")
        row = [entry()]
        while pos < len(tokens) and tokens[pos][1] == ",":
            pos += 1
            row.append(entry())
        take("]")
        rows.append(tuple(row))
        if pos < len(tokens) and tokens[pos][1] == ",":
            pos += 1
            continue
        break
    take("]")
    if pos != len(tokens):
        raise ParseError("trailing input after matrix", line, tokens[pos][2])
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
        # one constant per distinct value: equal coefficients share it, and its const Fraction
        self.constants: dict[tuple[int, int], AffineExpr] = {}

    def constant(self, value: Union[int, Fraction]) -> AffineExpr:
        key = value.numerator, value.denominator  # two ints hash faster than a Fraction
        found = self.constants.get(key)
        if found is None:
            found = self.constants[key] = AffineExpr.constant(value)
        return found

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
        default = tuple(dict.fromkeys(text for kind, text, _ in k_tokens if kind == "name"))
        basis, basis_line = keys.get("basis", (default, k_line))
        if len(basis) != len(gram):
            raise ParseError(f"basis has {len(basis)} labels but the gram matrix has rank {len(gram)}", basis_line)
        self.basis = {label: ("vec", {label: _UNIT}) for label in basis}
        self.surface = SurfaceDecl(basis, gram, self.class_coeffs(k_tokens, k_line), keys["chi_O"][0], gram_line)

    def class_coeffs(self, tokens: list[_Token], line: int) -> tuple[Fraction, ...]:
        vec = _ExprParser(tokens, line, self.basis.get, "undefined basis label {!r}").parse()
        return tuple([self.constant(vec[label].get(None, 0) if label in vec else 0).const for label in self.basis])

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
        if stmt in _FEEDS:
            self.section = stmt
            return
        if self.section == "queries":
            self.feed_queries(line, stmt, offset)
            return
        if self.surface is None and self.section not in ("surface", "params"):
            self.freeze(line)
        key, eq, rhs = stmt.partition("=")
        rhs = rhs.strip()  # stmt is stripped, so rhs ends where stmt does
        _FEEDS[self.section](self, line, key.strip(), rhs if eq else None, offset + len(stmt) - len(rhs))

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
            if self.hirzebruch_n is not None:
                raise ParseError("cone already declared as hirzebruch", line)
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
        mults: dict[str, int] = {}
        for word in _WORD_RE.finditer(rhs or ""):
            name, _, mult = word[0].partition(":")
            if not mult:
                raise ParseError(f"point entry {word[0]!r} must look like curve:mult", line)
            self.known(name, CurveDecl, "curve", line)
            col = offset + word.start() + 1
            if name in mults:
                raise ParseError(f"point {key!r} names curve {name!r} twice", line, col)
            mults[name] = _integer(mult, "multiplicity {!r} is not an integer", line, col + len(name) + 1)
        self.declare(PointDecl(key, tuple(mults.items()), line), line)

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
            col = offset + word.start() + 1
            if any(curve == parts[0] for curve, _, _ in entries):
                raise ParseError(f"tangent {key!r} names curve {parts[0]!r} twice", line, col)
            order = _integer(parts[1], "order {!r} is not an integer", line, col + len(parts[0]) + 1)
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
        scalars = _divisor_scalars(self.symbols, _scan(rhs, line, offset), line)
        coeffs = [(curve, _affine(s, self.constant)) for curve, s in scalars.items() if any(s.values())]
        coeffs.sort()
        self.declare(DivisorDecl(key, tuple(coeffs)), line)

    def feed_queries(self, line: int, stmt: str, offset: int) -> None:
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
        by_kind = {CurveDecl: [], PointDecl: [], TangentDecl: [], Param: [], DivisorDecl: []}
        for decl in self.symbols.values():
            by_kind[type(decl)].append(decl)
        curves, points, tangents, params, divisors = map(tuple, by_kind.values())
        cone = None if self.cone_line is None else ConeDecl(self.hirzebruch_n, tuple(self.generators), self.cone_line)
        return Document(self.surface, curves, cone, points, tangents, params, divisors, tuple(self.queries))


# section header -> the handler of its statements
_FEEDS = {section: getattr(_DocBuilder, f"feed_{section}") for section in SECTIONS}


def parse(text: str) -> Document:
    """Parse the declarative format; raises ParseError with position info."""
    builder = _DocBuilder()
    for line, raw in enumerate(text.splitlines(), start=1):
        offset = 0  # of the chunk in the line
        for chunk in raw.split("#", 1)[0].split(";"):
            stmt = chunk.strip()
            if stmt:
                builder.feed(line, stmt, offset + chunk.index(stmt[0]))
            offset += len(chunk) + 1
    return builder.build()
