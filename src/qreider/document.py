"""Declarative text format for surfaces, divisors, and verdict queries.

The format is line-oriented.  Bare section headers (``surface``, ``curves``,
``cone``, ``points``, ``tangents``, ``params``, ``divisors``, ``queries``)
switch context; ``#`` starts a comment; ``;`` separates statements on one
line.  Numbers are ASCII: a rational literal is ``p/q`` or an integer over
the digits 0-9, with an optional sign where it stands alone (``chi_O``, a
parameter domain's ends); ``hirzebruch``, multiplicities and tangent orders
are integers with an optional ``-``; ``qreider.literals`` reads them.
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
from typing import Callable, Mapping, Optional, Union

from .cones import ConeDescription, ConeGenerator, FiniteGenerators, HirzebruchFamily
from .lattice import DivisorClass, IntersectionLattice, as_fraction
from .expr import _NAME_RE, _UNIT, _affine, _col, _ExprParser, _flat_terms, _parse_matrix, _read_literal, _Scalar, _scan, _Value
from .literals import ParseError, _integer, _number
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
        # one class per distinct coefficient vector, keyed by ints, which hash in C, unlike a Fraction; as_fraction
        # first, so that a coefficient that is not a rational is its TypeError.  The key is built once per tuple
        # object (a parse gives equal class texts one tuple), found by id while self.curves holds every tuple.
        classes: dict[tuple, DivisorClass] = {}
        by_tuple: dict[int, DivisorClass] = {}
        curves = {}
        for c in self.curves:
            cls = by_tuple.get(id(c.coeffs))
            if cls is None:
                key = tuple([(q.numerator, q.denominator) for q in map(as_fraction, c.coeffs)])
                cls = classes.get(key)
                if cls is None:
                    cls = classes[key] = DivisorClass(lattice, c.coeffs)
                by_tuple[id(c.coeffs)] = cls
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
        return {curve: _affine(s) for curve, s in _divisor_scalars(self.symbols, text, line, col, {}).items()}

    def concrete_divisor(self, text: str, line: Optional[int] = None, col: int = 0) -> QDivisor:
        coeffs = self.divisor_expr(text, line, col)
        out = {}
        for curve, expr in coeffs.items():
            if not expr.is_constant():
                raise ParseError(f"divisor {text!r} depends on parameters; a concrete one is needed", line)
            out[curve] = expr.const
        return self.model.divisor(out)


def _divisor_scalars(
    symbols: Mapping[str, object], text: str, line: int, col_offset: int, literals: dict[str, _Value]
) -> dict[str, _Scalar]:
    """Expand a divisor expression over the declared curves, divisors and parameters;
    ``literals`` is the number table of ``_ExprParser``."""

    def resolve(name: str) -> Optional[_Value]:
        decl = symbols.get(name)
        if type(decl) is CurveDecl:
            return ("vec", {name: _UNIT})
        if type(decl) is DivisorDecl:
            return ("vec", {curve: {None: expr.const, **expr.terms} for curve, expr in decl.coeffs})
        if type(decl) is Param:
            return ("scalar", {name: 1})
        return None

    undefined = "undefined name {!r} (not a curve, divisor, or parameter)"
    return _ExprParser(text, line, col_offset, resolve, undefined, literals).parse()


# ---------------------------------------------------------------------------
# statement-level parsing

_WORD_RE = re.compile(r"\S+")


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
        # one coefficient tuple per distinct class-expression text, parsed once: the basis is fixed by then
        self.classes: dict[str, tuple[Fraction, ...]] = {}
        # the value of each number text the expressions have read; see _ExprParser
        self.literals: dict[str, _Value] = {}
        # the (curve, factor) pairs of each curve and constant divisor a flat sum has named; a curve's factor is None
        self.flat: dict[str, tuple[tuple[str, Optional[Fraction]], ...]] = {}

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
        (gram, gram_line), ((k_text, k_offset, k_tokens), k_line) = keys["gram"], keys["K"]
        # default: labels in order of first appearance in the K expression
        default = tuple(dict.fromkeys(name for _, name, _ in k_tokens if name))
        basis, basis_line = keys.get("basis", (default, k_line))
        if len(basis) != len(gram):
            raise ParseError(f"basis has {len(basis)} labels but the gram matrix has rank {len(gram)}", basis_line)
        self.basis = {label: ("vec", {label: _UNIT}) for label in basis}
        self.surface = SurfaceDecl(basis, gram, self.class_coeffs(k_text, k_line, k_offset), keys["chi_O"][0], gram_line)

    def class_coeffs(self, text: str, line: int, col_offset: int) -> tuple[Fraction, ...]:
        found = self.classes.get(text)
        if found is None:
            vec = _ExprParser(text, line, col_offset, self.basis.get, "undefined basis label {!r}", self.literals).parse()
            coeffs = [self.constant(vec[label].get(None, 0) if label in vec else 0).const for label in self.basis]
            found = self.classes[text] = tuple(coeffs)
        return found

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
            value = _parse_matrix(rhs, line, offset)
        elif key == "K":
            value = rhs, offset, _scan(rhs, line, offset)  # scanned now: a bad character is an error here
        else:
            value = Fraction(_number(rhs, line, offset + 1))
        self.surface_keys[key] = (value, line)

    def feed_curves(self, line: int, key: str, rhs: Optional[str], offset: int) -> None:
        if rhs is None:
            raise ParseError("curve declaration needs 'name = class expression'", line)
        self.declare(CurveDecl(key, self.class_coeffs(rhs, line, offset)), line)

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
            coeffs = self.class_coeffs(chunks[0], line, offset)
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
        for entry in (rhs or "").split():
            name, _, mult = entry.partition(":")
            if not mult:
                raise ParseError(f"point entry {entry!r} must look like curve:mult", line)
            self.known(name, CurveDecl, "curve", line)
            # only an error needs the entry's column; it is entry number len(mults), as each before it added a curve
            if name in mults:
                raise ParseError(f"point {key!r} names curve {name!r} twice", line, _col(_WORD_RE, rhs, offset, len(mults)))
            try:
                mults[name] = _integer(mult, "multiplicity {!r} is not an integer", line, None)
            except ParseError as exc:
                raise ParseError(exc.message, line, _col(_WORD_RE, rhs, offset, len(mults)) + len(name) + 1) from None
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
        total = self.flat_sum(rhs)
        if total is None:
            scalars = _divisor_scalars(self.symbols, rhs, line, offset, self.literals)
            coeffs = [(curve, _affine(s, self.constant)) for curve, s in scalars.items() if any(s.values())]
        else:
            coeffs = [(curve, self.constant(q)) for curve, q in total.items() if q]
        coeffs.sort()
        self.declare(DivisorDecl(key, tuple(coeffs)), line)

    def flat_sum(self, rhs: str) -> Optional[dict[str, Union[int, Fraction]]]:
        """Each curve's coefficient in ``rhs`` when it is a flat sum (see qreider.expr) of curves and
        divisors with constant coefficients, whose numbers all read; None leaves ``rhs`` to _ExprParser,
        which makes every error."""
        terms = _flat_terms(rhs)
        if terms is None:
            return None
        flat = self.flat
        for _, _, name in terms:  # every name before any arithmetic, which a text left to _ExprParser would waste
            if name not in flat:
                decl = self.symbols.get(name)
                if type(decl) is CurveDecl:
                    flat[name] = ((name, None),)
                elif type(decl) is DivisorDecl and all(expr.is_constant() for _, expr in decl.coeffs):
                    flat[name] = tuple((curve, expr.const) for curve, expr in decl.coeffs)
                else:
                    return None
        literals, total = self.literals, {}
        for sign, num, name in terms:
            if not num:
                q = -1 if sign == "-" else 1
            else:
                try:
                    q = _read_literal(literals, num, sign == "-", ParseError)[1][None]
                except ParseError:
                    return None
            for curve, factor in flat[name]:
                value = q if factor is None else factor if q == 1 else q * factor
                total[curve] = total[curve] + value if curve in total else value
        return total

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
        if "#" not in raw and ";" not in raw:  # one statement or none, the common line
            stmt = raw.strip()
            if stmt:
                builder.feed(line, stmt, raw.index(stmt[0]))
            continue
        offset = 0  # of the chunk in the line
        for chunk in raw.split("#", 1)[0].split(";"):
            stmt = chunk.strip()
            if stmt:
                builder.feed(line, stmt, offset + chunk.index(stmt[0]))
            offset += len(chunk) + 1
    return builder.build()
