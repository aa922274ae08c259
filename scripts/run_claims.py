#!/usr/bin/env python3
"""Sweep the ruled-surface positivity claims over a range of models.

For each n, part 1 certifies base-point-freeness of |G + nF| together with
the Euler characteristic and contraction degrees; part 2 certifies the
separation checks for |G + (n+1)F|.  Every line of the table is the outcome
of exact rational searches; rerunning is deterministic.  The exit status is
1 when any claim in the range is not established, 2 for a usage error, and 0
otherwise.
"""

import argparse
import sys
from fractions import Fraction

from qreider.cli import integer
from qreider.search import DEFAULT_DEPTH, MAX_DEPTH, hirzebruch_claim


def fmt(q: Fraction) -> str:
    return str(q)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=integer, default=10)
    parser.add_argument("--depth", type=integer, default=DEFAULT_DEPTH)
    args = parser.parse_args()
    if args.max_n < 1:
        parser.error(f"--max-n must be at least 1, not {args.max_n}")
    if not 1 <= args.depth <= MAX_DEPTH:
        parser.error(f"--depth must be in 1..{MAX_DEPTH}, not {args.depth}")

    all_ok = True
    print(f"{'n':>3} {'part':>4} {'ok':>3} {'chi':>5} {'L.G':>5} {'L nef':>5}  first parameters")
    for n in range(1, args.max_n + 1):
        for part in (1, 2):
            r = hirzebruch_claim(n, part, depth=args.depth)
            eps = {name: fmt(v) for name, v in r.checks[0].report.params.items()}
            print(
                f"{n:>3} {part:>4} {'yes' if r.ok else 'NO':>3} {fmt(r.chi):>5} "
                f"{fmt(r.l_dot_g):>5} {'yes' if r.l_nef else 'no':>5}  {eps}"
            )
            all_ok = all_ok and r.ok
            if not r.ok:
                for chk in r.checks:
                    if not chk.ok:
                        print(f"      failed: {chk.name}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
