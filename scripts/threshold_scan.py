#!/usr/bin/env python3
"""Scan minimal degrees across the irrational very-ampleness threshold.

Walks rational degree values in small exact steps across 2 + sqrt(2) and
prints the verdict together with the emitted rational witness.  The flip
between consecutive rationals shows the decision is exact, not a float
comparison.  Each flag takes an exact rational, ``p/q`` or an integer, as
in a ``.surf`` document; anything else is a usage error (exit status 2).
"""

import argparse
from fractions import Fraction

from qreider.cli import rational
from qreider.criteria import threshold_very_ampleness


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m2", type=rational, default=Fraction(12))
    parser.add_argument("--start", type=rational, default=Fraction(338, 100))
    parser.add_argument("--stop", type=rational, default=Fraction(346, 100))
    parser.add_argument("--step", type=rational, default=Fraction(1, 100))
    args = parser.parse_args()
    if args.step <= 0:
        parser.error(f"--step must be positive, not {args.step}")

    deg = args.start
    print(f"M^2 = {args.m2}; threshold sits strictly between 341/100 and 342/100")
    while deg <= args.stop:
        verdict = threshold_very_ampleness(args.m2, deg)
        witness = ""
        if verdict.witness is not None:
            witness = f"  witness beta2={verdict.witness.beta2[0]} beta1={verdict.witness.beta1[0]}"
        print(f"  min degree {str(deg):>8}: {verdict.status}{witness}")
        deg += args.step


if __name__ == "__main__":
    main()
