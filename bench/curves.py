#!/usr/bin/env python3
"""Reference scaling curves: parse time against document size, and search
time against search depth.

    python3 bench/curves.py

Documents come from the doc-scale generator and the search family from the
search-exhaust generator, both with seed ``SEED``.  Each point is the median
of ``REPEATS`` timings.  The depth curve passes ``depth=K`` to a search
query; if a later version of the library drops that argument, the curve is
reported as absent.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import BenchError, import_library  # noqa: E402
from workloads import SEARCH_GOALS, _search_document, scale_document  # noqa: E402

SIZES = (60, 120, 240, 480, 960)
DEPTHS = (6, 9, 12, 15, 18, 21, 24)
SEED = 1
REPEATS = 5


def timed(fn) -> tuple[float, object]:
    times, out = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def parse_curve(lib) -> None:
    print(f"parse time against document size (N curves, N points, N divisors; seed {SEED})")
    print(f"{'N':>6} {'KB':>8} {'parse ms':>10} {'slope':>7}")
    prev = None
    for size in SIZES:
        text = scale_document(random.Random(SEED), size)[0]
        secs, _ = timed(lambda: lib.document.parse(text))
        slope = "" if prev is None else f"{math.log(secs / prev[1]) / math.log(size / prev[0]):.2f}"
        print(f"{size:>6} {len(text.encode()) / 1024:>8.1f} {secs * 1e3:>10.1f} {slope:>7}")
        prev = (size, secs)


def depth_curve(lib) -> None:
    print(f"\nsearch time against depth (two-parameter family, M not nef on the box; seed {SEED})")
    text = _search_document(random.Random(SEED), SEARCH_GOALS[1], 3, Fraction(1), fiber_negative=False)[0]
    print(f"{'depth':>6} {'attempts':>9} {'ms':>9} {'us/cand':>8}")
    for depth in DEPTHS:
        doc_text = text.rstrip("\n") + f" depth={depth}\n"
        secs, report = timed(lambda: lib.report.run_document(lib.document.parse(doc_text)))
        result = report.results[0]
        if result.status == "error" or result.attempts is None:
            print(f"{depth:>6} absent: {result.error or 'no attempts reported'}")
            return
        print(f"{depth:>6} {result.attempts:>9} {secs * 1e3:>9.1f} {secs / result.attempts * 1e6:>8.1f}")


def main() -> int:
    try:
        lib = import_library()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parse_curve(lib)
    depth_curve(lib)
    return 0


if __name__ == "__main__":
    sys.exit(main())
