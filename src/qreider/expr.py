"""The ``.surf`` expression layer: the token scanner, the rational-linear
expression evaluator, the flat-sum pattern and the gram-matrix reader.

It knows names only through the ``resolve`` function a caller passes, so the
statement-level parser in ``qreider.document`` decides what a name stands
for.  It lives apart from that parser to keep ``document.py``'s compile peak,
which the benchmark's set-up memory follows, low.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Optional, Union

from .literals import _NUM, ParseError, _literal
from .search import AffineExpr


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_SYMS = r"+*()\[\],:\-"
_TOKEN_RE = re.compile(rf"({_NUM})|({_NAME})|([{_SYMS}])")  # one group per kind: num, name, sym
_TOKENS_RE = re.compile(rf"(?:[\s{_SYMS}]+|{_NUM}|{_NAME})*")  # the longest run of tokens and whitespace
_END = ("", "", "")
_Token = tuple[str, str, str]  # the text of a number, a name or a symbol, the other two empty; all empty at the end


def _scan(text: str, line: int, col_offset: int = 0) -> list[_Token]:
    """The tokens of ``text``, which starts at 0-based column ``col_offset``."""
    bad = _TOKENS_RE.match(text).end()
    if bad < len(text):
        raise ParseError(f"unexpected character {text[bad]!r}", line, col_offset + bad + 1)
    return _TOKEN_RE.findall(text)


# A flat sum, [sign] [number [*]] name (sign [number [*]] name)*: nearly every
# divisor statement has this shape, and a caller that knows what each name
# stands for may add it up without _ExprParser.
_FLAT_TERM = rf"(?:{_NUM}\s*\*?\s*)?{_NAME}"
_FLAT_RE = re.compile(rf"[+-]?\s*{_FLAT_TERM}(?:\s*[+-]\s*{_FLAT_TERM})*")
_FLAT_TERM_RE = re.compile(rf"([+-]?)\s*(?:({_NUM})\s*\*?\s*)?({_NAME})")


def _flat_terms(text: str) -> Optional[list[_Token]]:
    """The (sign, number, name) of each term when ``text`` is a flat sum, an absent
    sign or number empty; None for any other text."""
    return _FLAT_TERM_RE.findall(text) if _FLAT_RE.fullmatch(text) else None


def _col(pattern: re.Pattern, text: str, col_offset: int, index: int) -> Optional[int]:
    """The 1-based column of match ``index`` of ``pattern`` in ``text``, None past the last.
    Only an error needs a position, so it is found by scanning ``text`` again."""
    starts = [m.start() for m in pattern.finditer(text)]
    return col_offset + starts[index] + 1 if index < len(starts) else None


# Expression values hold plain exact numbers, an int or a Fraction, and are
# never changed once built (a sum adds its terms into a dict of its own before
# it returns it): ("scalar", {param or None: number}) is
# const + sum(coeff * param) with the constant under None, and
# ("vec", {name: scalar dict}) is a divisor.  A curve or basis label is
# ("vec", {name: _UNIT}).  An AffineExpr is built only for a finished
# expression.
_Scalar = dict[Optional[str], Union[int, Fraction]]
_Value = tuple[str, dict]

_UNIT: _Scalar = {None: 1}


class _ExprParser:
    """Parses one divisor expression, ``text`` at 0-based column ``col_offset``.
    ``resolve`` gives the value a name stands for, or None for an undefined
    name; ``undefined`` formats that error.  ``literals`` maps a number's text,
    with a leading ``-`` when negated, to its value: a parse shares one table
    across the expressions of its document, and a literal that does not read
    is not added."""

    def __init__(
        self,
        text: str,
        line: int,
        col_offset: int,
        resolve: Callable[[str], Optional[_Value]],
        undefined: str,
        literals: dict[str, _Value],
    ):
        self.tokens = [*_scan(text, line, col_offset), _END]
        self.text, self.line, self.col_offset, self.pos = text, line, col_offset, 0
        self.resolve, self.undefined = resolve, undefined
        self.literals = literals

    def error(self, message: str) -> ParseError:
        """``message`` at the current token."""
        return ParseError(message, self.line, _col(_TOKEN_RE, self.text, self.col_offset, self.pos))

    def parse(self) -> dict[str, _Scalar]:
        kind, value = self.additive()
        sym = self.tokens[self.pos][2]  # past a sum, only a symbol or the end is left
        if sym:
            raise self.error(f"unexpected token {sym!r} (expected '+', '-' or end)")
        if kind == "vec":
            return value
        if not any(value.values()):
            return {}
        raise ParseError("expected a divisor expression, got a plain number", self.line)

    def additive(self) -> _Value:
        """A sum of terms; only the first may carry a run of signs.  The terms
        are added, left to right, into one dict that this sum owns."""
        tokens = self.tokens
        negative = False
        while (op := tokens[self.pos][2]) in ("+", "-"):
            self.pos += 1
            negative ^= op == "-"
        kind, first = self.term(negative)
        total = dict(first)
        while (op := tokens[self.pos][2]) in ("+", "-"):
            self.pos += 1
            rhs_kind, rhs = self.term(op == "-")
            if rhs_kind == kind == "vec":
                for name, scalar in rhs.items():
                    total[name] = _sum(total[name], scalar) if name in total else scalar
            elif rhs_kind == kind:
                for key, coeff in rhs.items():
                    total[key] = total.get(key, 0) + coeff
            elif any((total if kind == "scalar" else rhs).values()):  # a number and a divisor: only 0 adds
                raise self.error("cannot add a number to a divisor expression")
            elif kind == "scalar":
                kind, total = "vec", dict(rhs)
        return (kind, total)

    def term(self, negative: bool = False) -> _Value:
        """Factors (a number, a name or a parenthesised sum), juxtaposed or
        joined by '*'; ``negative`` negates the first factor."""
        tokens = self.tokens
        value = None
        while True:
            num, name, sym = tokens[self.pos]
            if num:
                factor = _read_literal(self.literals, num, negative, self.error)
                negative = False
            elif name:
                factor = self.resolve(name)
                if factor is None:
                    raise self.error(self.undefined.format(name))
            elif sym == "(":
                self.pos += 1
                factor = self.additive()
                sym = tokens[self.pos][2]
                if sym != ")":
                    raise self.error("expected ')'" if sym else "unexpected end of expression")
            else:
                raise self.error(f"unexpected token {sym!r} (expected a number, name or '(')" if sym else "unexpected end of expression")
            if negative:
                factor, negative = _negate(factor), False
            self.pos += 1
            value = factor if value is None else self._mul(value, factor)
            num, name, sym = tokens[self.pos]
            if sym == "*":
                self.pos += 1
            elif not (num or name or sym == "("):
                return value

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


def _read_literal(literals: dict[str, _Value], num: str, negative: bool, error: Callable[[str], ParseError]) -> _Value:
    """The value of number token ``num``, negated when ``negative``, through the
    table ``literals``; ``error`` makes the error of a literal that does not read."""
    key = "-" + num if negative else num
    factor = literals.get(key)
    if factor is None:
        q = _literal(num, error)
        factor = literals[key] = ("scalar", {None: -q if negative else q})
    return factor


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


def _parse_matrix(text: str, line: int, col_offset: int) -> tuple[tuple[Fraction, ...], ...]:
    tokens = _scan(text, line, col_offset)
    pos = 0

    def error(message: str, back: int = 1) -> ParseError:
        """``message`` at the token ``back`` places before ``pos``."""
        return ParseError(message, line, _col(_TOKEN_RE, text, col_offset, pos - back))

    def take(expected: Optional[str] = None) -> _Token:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(f"unexpected end of matrix (expected {expected or 'a token'})", line)
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok[2] != expected:
            raise error(f"expected {expected!r}, got {''.join(tok)!r}")
        return tok

    def entry() -> Fraction:
        nonlocal pos
        sign = 1
        while pos < len(tokens) and tokens[pos][2] in ("+", "-"):
            if tokens[pos][2] == "-":
                sign = -sign
            pos += 1
        num, name, sym = take()
        if not num:
            raise error(f"expected a number, got {name or sym!r}")
        return Fraction(sign * _literal(num, error))

    take("[")
    rows = []
    while True:
        take("[")
        row = [entry()]
        while pos < len(tokens) and tokens[pos][2] == ",":
            pos += 1
            row.append(entry())
        take("]")
        rows.append(tuple(row))
        if pos < len(tokens) and tokens[pos][2] == ",":
            pos += 1
            continue
        break
    take("]")
    if pos != len(tokens):
        raise error("trailing input after matrix", 0)
    return tuple(rows)
