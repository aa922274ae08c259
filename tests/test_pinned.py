"""Pinned sha256 hashes of the claim reports and of the checkers.

``tests/golden/claim_hashes.txt`` holds one hash per ``(n, part)`` of
``repr(hirzebruch_claim(n, part))``; ``tests/golden/checker_hashes.txt`` one
per input of a fixed grid, of ``repr`` of the verdict or of the raised
exception's type and text.  The grid reaches every branch of
``freeness_at``, ``separation``, ``tangent_separation`` and
``very_ampleness``: high multiplicities, given, searched and missing
witnesses, witnesses with a side missing, ``beta2 = 2 - mu`` exactly and
``very_ampleness`` with ``beta2 = 1``.  It also crosses the bounds of
``jet_separation`` and ``threshold_very_ampleness``, on each side and
exactly, with negative and non-integer inputs.  A failure lists the inputs
whose hash moved.

To rewrite both files after a deliberate change of output, run
``PYTHONPATH=src python tests/test_pinned.py``.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction as F
from pathlib import Path

from qreider import criteria
from qreider.criteria import BetaWitness
from qreider.search import hirzebruch_claim

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CLAIMS = GOLDEN_DIR / "claim_hashes.txt"
CHECKERS = GOLDEN_DIR / "checker_hashes.txt"

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


def checker_hashes() -> dict[str, str]:
    return {f"{name}{args!r}": _sha(_outcome(name, args)) for name, args in checker_inputs()}


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


if __name__ == "__main__":
    _write(CLAIMS, claim_hashes())
    _write(CHECKERS, checker_hashes())
