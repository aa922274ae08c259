"""ASCII number literals, and the ``ParseError`` that every ``.surf`` reader raises.

A rational literal is ``p/q`` or an integer over the digits 0-9, with an
optional sign where it stands alone; an integer is digits with an optional
``-``.  ``_number`` (whose core ``_literal`` also reads the parser's number
tokens) and ``_integer`` are the only way from typed text to a number: the
``.surf`` parser, query arguments (``m2=``, ``beta2=``, ``n=``, ...) and the
``qreider hirzebruch`` flags are read by them.  They live apart from the
parser to keep ``document.py``'s compile peak, which the benchmark's set-up
memory follows, low.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Optional, Union


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


_NUM = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(rf"[-+]?{_NUM}")
_INTEGER_RE = re.compile(r"-?[0-9]+")


def _literal(text: str, error: Callable[[str], ParseError]) -> Union[int, Fraction]:
    """The value of text of the form ``[sign]digits[/digits]``; ``error`` positions a failure."""
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ZeroDivisionError:
        raise error(f"zero denominator in {text!r}") from None
    except ValueError:  # more digits than int() converts
        raise error(f"expected a rational number, got {text!r}") from None


def _number(text: str, line: int, col: Optional[int] = None) -> Union[int, Fraction]:
    """The exact value of an ASCII literal, ``[sign]p/q`` or ``[sign]integer``
    (an int for an integer); anything else is a positioned ParseError."""
    if _RATIONAL_RE.fullmatch(text):
        return _literal(text, lambda message: ParseError(message, line, col))
    raise ParseError(f"expected a rational number, got {text!r}", line, col)


def _integer(text: str, message: str, line: Optional[int], col: Optional[int]) -> int:
    """ASCII digits with an optional '-' as an int; anything else raises ``message`` at ``line``, ``col``."""
    if _INTEGER_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(message.format(text), line, col)
