"""Pinned sha256 hashes of the claim reports, of the checkers and of the parser.

``tests/golden/claim_hashes.txt`` holds one hash per ``(n, part)`` of
``repr(hirzebruch_claim(n, part))``; ``tests/golden/checker_hashes.txt`` one
per input of a fixed grid, of ``repr`` of the verdict or of the raised
exception's type and text; ``tests/golden/parse_hashes.txt`` one per text of a
seeded ``.surf`` corpus, of ``repr(parse(text))`` (which, unlike equality,
shows every ``line`` and query ``cols``) or of the raised exception's type,
message, line and column.  The grid reaches every branch of
``freeness_at``, ``separation``, ``tangent_separation`` and
``very_ampleness``: high multiplicities, given, searched and missing
witnesses, witnesses with a side missing, ``beta2 = 2 - mu`` exactly and
``very_ampleness`` with ``beta2 = 1``.  It also crosses the bounds of
``jet_separation`` and ``threshold_very_ampleness``, on each side and
exactly, with negative and non-integer inputs.  ``plc_threshold`` is pinned
on configurations of one to three curves in each mode, with and without
``weak_boundary`` and with ``c0`` absent, present and unknown: the hash is
of the result or the error, with the text of any ``PLCContextWarning``.  A
failure lists the inputs whose hash moved.

The corpus has every kind of statement: surface keys with and without a
section header, curves, a Hirzebruch or a generated cone, points, tangents,
parameters with and without a domain, divisors with references and parametric
coefficients, and queries, several to a line and with comments.  Each of its
documents is pinned whole, and once more for each line with one character
inserted and once with one character dropped.

Further documents spell one value several ways (``2``, ``2/1``, ``4/2`` and
``6/3 G`` against ``2 G``; sums that cancel; many curves of one class; chains
of divisor references), so that building each distinct value once cannot
change what a parse shows.

To rewrite pin files after a deliberate change of output, name them:
``PYTHONPATH=src python tests/test_pinned.py parses`` rewrites only
``parse_hashes.txt`` (``claims`` and ``checkers`` name the other two).
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

from qreider import criteria
from qreider.criteria import BetaWitness, LocalConfig, LocalCurveData, PLCContextWarning
from qreider.document import parse
from qreider.search import hirzebruch_claim

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CLAIMS = GOLDEN_DIR / "claim_hashes.txt"
CHECKERS = GOLDEN_DIR / "checker_hashes.txt"
PARSES = GOLDEN_DIR / "parse_hashes.txt"

CLAIM_NS = (*range(1, 51), 10**7)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def claim_hashes() -> dict[str, str]:
    return {f"n={n} part={part}": _sha(repr(hirzebruch_claim(n, part))) for n in CLAIM_NS for part in (1, 2)}


def _tangent(b2p, b2v, b1):
    return BetaWitness((b2p, b2v), (b1,), ("at-p", "at-V"), ("global",))


# Each value list crosses the branch points of its checker: mu at 0, 1 and 2
# (and 3 for the tangent point order), witnesses whose beta2 sits below, on
# and above 2 - mu, and data with and without an admissible witness.
_FREE_WITNESSES = (
    None,
    BetaWitness.single(3, F(3, 2), role="at-p"),
    BetaWitness.single(F(3, 2), F(3, 2), role="at-p"),  # beta2 = 2 - mu at mu = 1/2
    BetaWitness.single(1, 1, role="at-p"),  # beta2 = 2 - mu at mu = 1
    BetaWitness.single(F(1, 2), 2, role="at-p"),
)
_PAIR_WITNESSES = (
    None,
    BetaWitness.pair(F(3, 2), F(3, 2), F(3, 2), F(3, 2)),  # beta2 = 2 - mu at mu = 1/2
    BetaWitness.pair(2, 2, 2, 2),
    BetaWitness.pair(F(1, 2), 3, 1, 1),
    BetaWitness.pair(3, F(1, 2), F(3, 2), F(1, 2)),
    BetaWitness.single(3, F(3, 2), role="at-p"),  # one side only
)
_TANGENT_WITNESSES = (
    None,
    _tangent(2, 2, 2),
    _tangent(F(3, 2), F(3, 2), F(3, 2)),
    _tangent(F(1, 2), F(1, 2), 1),
    _tangent(F(3, 2), 2, F(5, 4)),
    BetaWitness.single(3, F(3, 2), role="at-p"),  # no beta2 at V
)
_VA_WITNESSES = (
    None,
    BetaWitness.single(2, 2),
    BetaWitness.single(1, 2),  # beta2 = 1, where beta2/(beta2 - 1) is undefined
    BetaWitness.single(F(3, 2), 3),
    BetaWitness.single(3, F(3, 2)),
    BetaWitness.single(F(5, 2), F(5, 3)),
)


def checker_inputs():
    """(checker name, arguments) for every input of the grid, in order."""
    for args in itertools.product(
        (F(-1, 2), 0, F(1, 2), 1, F(3, 2), 2, F(5, 2)),
        (0, 4, 9, F(25, 2), 100),
        (0, 1, F(3, 2), 2, 3),
        _FREE_WITNESSES,
    ):
        yield "freeness_at", args
    for (mp, mq), m2, degrees, witness in itertools.product(
        itertools.product((F(-1, 2), 0, F(1, 2), F(3, 2), 2), repeat=2),
        (4, F(25, 2), 50),
        ((1, 1, 1), (2, 2, 4), (3, 3, 5), (F(3, 2), F(3, 2), 2), (3, 1, 3)),
        _PAIR_WITNESSES,
    ):
        yield "separation", (mp, mq, m2, *degrees, witness)
    for (mp, mv), m2, degrees, witness in itertools.product(
        (
            (F(-1, 2), 0),
            (0, F(-1, 2)),
            (F(1, 2), 1),
            (0, 0),
            (F(1, 2), 0),
            (F(1, 2), F(1, 2)),
            (1, F(1, 2)),
            (1, 1),
            (F(3, 2), F(3, 2)),
            (2, 1),
            (F(5, 2), F(3, 2)),
            (3, 0),
            (2, 2),
        ),
        (4, F(25, 2), 50),
        ((1, 2), (F(3, 2), 3), (2, 4), (3, 7), (3, 1)),
        _TANGENT_WITNESSES,
    ):
        yield "tangent_separation", (mp, mv, m2, *degrees, witness)
    for args in itertools.product((0, 8, 9, 12, 50, 100), (2, F(5, 2), 3, F(7, 2), 4, 6), _VA_WITNESSES):
        yield "very_ampleness", args
    for args in itertools.product((F(-1, 2), 0, 1, F(3, 2), 2, 3, F(7, 2), 4), (-1, 0, 1, 2, F(3, 2))):
        yield "jet_separation", args
    # around M^2 = 6 + 4*sqrt(2) (about 11.657) and min degree = 2 + sqrt(2) (about 3.414)
    for args in itertools.product(
        (0, 6, 11, F(233, 20), F(35, 3), 12, 50, 10**6),
        (2, 3, F(17, 5), F(41, 12), F(7, 2), 4, 10**6),
    ):
        yield "threshold_very_ampleness", args


def _outcome(name: str, args: tuple) -> str:
    try:
        return repr(getattr(criteria, name)(*args))
    except Exception as exc:  # noqa: BLE001 - the error's type and text are pinned too
        return f"{type(exc).__name__}: {exc}"


# one curve through the point: each boundary coefficient, auxiliary coefficient and multiplicity
_PLC_CURVES = tuple(itertools.product((0, F(1, 2), F(3, 4)), (0, F(1, 2), 1, F(3, 2)), (1, 2)))


def plc_configs():
    """Every one-curve configuration, then 24 seeded draws of two curves and 24 of three (a draw may repeat)."""
    rng = random.Random(20261020)
    picks = [(curve,) for curve in _PLC_CURVES]
    picks += [tuple(rng.choices(_PLC_CURVES, k=k)) for k in (2, 3) for _ in range(24)]
    for curves in picks:
        yield LocalConfig(tuple(LocalCurveData(f"C{i}", b, d, mult) for i, (b, d, mult) in enumerate(curves)))


def _plc_outcome(config: LocalConfig, mode: str, c0, weak_boundary: bool) -> str:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(criteria.plc_threshold(config, mode, c0=c0, weak_boundary=weak_boundary))
        except Exception as exc:  # noqa: BLE001 - the error's type and text are pinned too
            out = f"{type(exc).__name__}: {exc}"
    return out + "".join(f"\nwarning: {w.message}" for w in caught if w.category is PLCContextWarning)


def plc_hashes() -> dict[str, str]:
    """``plc_threshold`` in each mode, with and without ``weak_boundary``, and with ``c0`` absent, the
    configuration's last curve and a name it does not have."""
    hashes = {}
    for config in plc_configs():
        shown = "; ".join(f"{c.name} b={c.b} d={c.d} mult={c.mult_p}" for c in config.curves)
        c0s = (None, config.curves[-1].name, "Z")
        for mode, weak, c0 in itertools.product(("basic", "cap3", "prime"), (False, True), c0s):
            key = f"plc_threshold({shown}, mode={mode!r}, c0={c0!r}, weak_boundary={weak})"
            hashes[key] = _sha(_plc_outcome(config, mode, c0, weak))
    return hashes


def checker_hashes() -> dict[str, str]:
    hashes = {f"{name}{args!r}": _sha(_outcome(name, args)) for name, args in checker_inputs()}
    return {**hashes, **plc_hashes()}


# -- the parser's corpus --------------------------------------------------

CORPUS_SIZE = 24
GARBLE_CHARS = "()+-*/,:=;#[]0 7Gez._"


def _coeff_text(rng: random.Random) -> str:
    return rng.choice(("", "2", "3/2", "1/3", "2 ", "(1/2)", "3*", "10/4 "))


def _surface_lines(rng: random.Random, n: int) -> list[str]:
    gram = rng.choice((f"[[-{n}, 1], [1, 0]]", f"[[-{n},1],[1,0]]", f"[[ -{2 * n}/2 , +1 ], [1, -0]]"))
    k = rng.choice((f"-2G - {n + 2}F", f"-(2G + {n + 2}F)", f"-2*G - {n + 2} * F", f"- 2 G - {2 * n + 4}/2 F"))
    chi = rng.choice(("1", "+1", "2/2", "-1", "1/2"))
    style = rng.randrange(3)
    if style == 0:
        return ["surface", "basis = G F", f"gram = {gram}", f"K = {k}", f"chi_O = {chi}"]
    if style == 1:
        return [f"gram = {gram}; K = {k}; chi_O = {chi}  # a fragment: the basis is read from K"]
    return [f"K = {k}", f"gram = {gram}", "basis = G   F", f"chi_O = {chi}"]


def corpus_document(rng: random.Random) -> str:
    """A valid ``.surf`` document on a Hirzebruch surface, every statement kind in it."""
    n = rng.randint(1, 4)
    lines = ["# generated for the pinned parse hashes"] + _surface_lines(rng, n)
    curves = ["G", "F"]
    lines += ["", "curves", "G = G; F = F"]
    for i in range(rng.randint(1, 4)):
        a, b = rng.randint(0, 2), rng.randint(0, 3)
        lines.append(f"C{i} = {a}G + {b}F" if rng.random() < 0.5 else f"C{i} = ({a} G + {b + 1}F) - F")
        curves.append(f"C{i}")
    if rng.random() < 0.5:
        lines += ["", "cone", f"hirzebruch = {n}"]
    elif rng.random() < 0.8:
        lines += ["", "cone", "generator = G, through-p", "generator = F + 0G , through-p, contains-z"]
    mults = {c: rng.randint(0, 2) for c in rng.sample(curves, rng.randint(1, len(curves)))}
    lines += ["", "points", "p = " + " ".join(f"{c}:{m}" for c, m in mults.items()), "q ="]
    lines += [f"P{i} = " + " ".join(f"{c}:{rng.randint(1, 3)}" for c in rng.sample(curves, 2)) for i in range(2)]
    entries = [f"{c}:{rng.randint(0, m)}{':z' if m and rng.random() < 0.5 else ''}" for c, m in mults.items()]
    lines += ["", "tangents", "v = p " + " ".join(entries), "w = q"]
    lines += ["", "params", "e = (0, 1)", "f = ( -1/2 , 2 ); g"]
    divisors = []
    lines += ["", "divisors"]
    for i in range(rng.randint(3, 7)):
        c1, c2 = rng.sample(curves, 2)
        form = rng.randrange(6)
        if form == 0:
            rhs = f"{_coeff_text(rng)}{c1} + {_coeff_text(rng)}{c2}"
        elif form == 1:
            rhs = f"(1 - e){c1} + (2 + e - 1/2 f) {c2}"
        elif form == 2 and divisors:
            rhs = f"{rng.choice(divisors)} - {_coeff_text(rng)}{c1}"
        elif form == 3:
            rhs = f"e {c1} - 1/2 {c2} + 2(f + 1)*{c1}"
        elif form == 4 and divisors:
            rhs = f"-({rng.choice(divisors)} - 3 {c2}) + g {c1}"
        else:
            rhs = rng.choice(("0", f"{c1} - {c1}", f"--{c1}", f"3 * {c1} * 2/3"))
        divisors.append(f"D{i}")
        lines.append(f"D{i} = {rhs}")
    lines += ["", "queries", f"chi {rng.choice(divisors)}", "check-free point=p B=D0 M=D1"]
    lines += rng.sample(
        [
            "check-very-ample M=3G + 9F   # a value may hold spaces",
            "check-tangent tangent=v B=D0 M=D1; chi 3G + F",
            "check-separate p q B=D0 M= 2G + 7F",
            "check-corollary2 m2=12 mindeg=342/100",
            "plc-threshold point=p B=D0 D=D1 mode=basic",
            f"search goal=free point=p B=(1 - e)G M=D1 depth={rng.randint(1, 6)}",
            f"hirzebruch-claim n={n} part={rng.randint(1, 2)}",
        ],
        3,
    )
    # now and then a line joins the one before it, after a ";"
    out: list[str] = []
    for line in lines:
        if out and line and out[-1] and "#" not in out[-1] and rng.random() < 0.2:
            out[-1] += "; " + line
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def _parse_outcome(text: str) -> str:
    try:
        return repr(parse(text))
    except Exception as exc:  # noqa: BLE001 - the error's type, message and position are pinned too
        message, line, col = getattr(exc, "message", str(exc)), getattr(exc, "line", None), getattr(exc, "col", None)
        return f"{type(exc).__name__}: {message!r} {line} {col}"


_EQUAL_SURFACE = "surface\nbasis = G F\ngram = [[-2, 1], [1, 0]]\nK = -4/2 G - 4F + G - G\nchi_O = 2/2\n"
_EQUAL_TAIL = "\npoints\np = G:1 F:1\ntangents\nv = p G:1\nqueries\nchi D0\n"


def equal_value_documents() -> list[str]:
    """Documents that spell one value several ways: equal literals, sums that
    cancel, many curves of one class and chains of divisor references."""
    literals = (
        "curves\nG = G; F = F\nA = 2 G + F\nB = 2/1 G + 1 F\nC = 4/2 G + 1/1 F\nE = 6/3 G + 3/3 F\n"
        "cone\ngenerator = 2G + F, through-p\ngenerator = 4/2 G + 2/2 F; generator = F + 0 G\n"
        "params\ne = (0, 2/1)\n"
        "divisors\nD0 = 2 G\nD1 = 2/1 G\nD2 = 4/2 G; D3 = 6/3 G\nD4 = 2 A + 2/1 B + 4/2 C + 6/3 E\n"
        "D5 = (2 - e) G + (4/2 - e) F + 2/2 e A\nD6 = 2(G + F) - 2/1 F"
    )
    cancel = (
        "curves\nG = G; F = F\nZ = G - G + F\nY = 1/2 F + 1/2 F + G\n"
        "params\ne\n"
        "divisors\nD0 = G - G\nD1 = 1/2 F + 1/2 F\nD2 = G - G + 1/2 F + 1/2 F\nD3 = (e - e) G + F\n"
        "D4 = 1/3 G + 1/3 G + 1/3 G - G + F\nD5 = 0; D6 = Z - F + Y - G\nD7 = (1 + e) F - e F"
    )
    spellings = ("G + 2F", "2F + G", "(G + 4F) - 2F", "1/2(2G + 4F)", "G + 4/2 F")
    many = "curves\nG = G; F = F\n" + "".join(f"C{i} = {spellings[i % 5]}\n" for i in range(40))
    many += "divisors\nD0 = " + " + ".join(f"C{i}" for i in range(0, 40, 3)) + "\nD1 = 2 C0 - 2 C39 + F"
    chain = "curves\nG = G; F = F\nparams\ne = (0, 1)\ndivisors\nD0 = G + F\n"
    chain += "".join(f"D{i} = D{i - 1} + {'F' if i % 2 else 'e G'}\n" for i in range(1, 20))
    chain += "D20 = D19 - D18 + D17 - D16 + 2 D0\nD21 = (1 - e) D20 + e D0"
    return [_EQUAL_SURFACE + body + _EQUAL_TAIL for body in (literals, cancel, many, chain)]


def _garbled(key: str, text: str, rng: random.Random):
    """(key, text) for ``text``, then for each of its lines with one character inserted and with one dropped."""
    yield key, text
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line:
            continue
        at, ch = rng.randrange(len(line) + 1), rng.choice(GARBLE_CHARS)
        inserted = line[:at] + ch + line[at:]
        yield f"{key} line {i + 1} insert {ch!r} at {at}", "\n".join(lines[:i] + [inserted] + lines[i + 1 :])
        at = rng.randrange(len(line))
        dropped = line[:at] + line[at + 1 :]
        yield f"{key} line {i + 1} drop {line[at]!r} at {at}", "\n".join(lines[:i] + [dropped] + lines[i + 1 :])


def parse_inputs():
    """(key, text) for every document of the corpus and every one-character change of each of its lines."""
    rng = random.Random(20240611)
    for d in range(CORPUS_SIZE):
        yield from _garbled(f"doc {d}", corpus_document(rng), rng)
    rng = random.Random(20261019)
    for d, text in enumerate(equal_value_documents()):
        yield from _garbled(f"equal values {d}", text, rng)


def parse_hashes() -> dict[str, str]:
    return {key: _sha(_parse_outcome(text)) for key, text in parse_inputs()}


def _read(path: Path) -> dict[str, str]:
    pinned = {}
    for line in path.read_text().splitlines():
        digest, key = line.split("  ", 1)
        pinned[key] = digest
    return pinned


def _write(path: Path, hashes: dict[str, str]) -> None:
    path.write_text("".join(f"{digest}  {key}\n" for key, digest in hashes.items()))


def _assert_pinned(path: Path, hashes: dict[str, str]) -> None:
    pinned = _read(path)
    assert list(hashes) == list(pinned), "the inputs differ from the pinned ones"
    moved = [key for key, digest in hashes.items() if pinned[key] != digest]
    assert not moved, f"{len(moved)} hashes moved, first: " + "; ".join(moved[:5])


def test_claim_reports_match_their_pinned_hashes():
    _assert_pinned(CLAIMS, claim_hashes())


def test_checker_verdicts_match_their_pinned_hashes():
    _assert_pinned(CHECKERS, checker_hashes())


def test_corpus_documents_parse_whole():
    for key, text in parse_inputs():
        if " line " not in key:
            doc = parse(text)
            assert doc.model is not None and doc.points and doc.tangents and doc.divisors and doc.queries, key


def test_parses_match_their_pinned_hashes():
    _assert_pinned(PARSES, parse_hashes())


PINS = {"claims": (CLAIMS, claim_hashes), "checkers": (CHECKERS, checker_hashes), "parses": (PARSES, parse_hashes)}


if __name__ == "__main__":
    names = sys.argv[1:]
    if not names or any(name not in PINS for name in names):
        sys.exit(f"usage: python tests/test_pinned.py {{{','.join(PINS)}}}...  (the pin files to rewrite)")
    for name in names:
        path, hashes = PINS[name]
        _write(path, hashes())
