#!/usr/bin/env python3
"""Tabulate simulated pattern-count statistics against their limits.

Usage: python scripts/pattern_count_table.py [--n N] [--reps R] [--seed S]

Prints, for every chain, the simulated mean of each observable next to
the known asymptotic rate (lambda for the sporadic patterns, slope * n
for the frequent ones).
"""

import argparse
from fractions import Fraction

from rtcnlab import chains, moments, montecarlo


def _slope(kappa, toll):
    """The linear growth rate of a mean whose recurrence has decay kappa
    and a toll ~ toll * n^0 (the transfer map at alpha = 0)."""
    return ("slope", moments.asymptotic_transfer(kappa, toll, 0)[0])


LIMITS = {
    "cherry": ("rate", Fraction(1, 4)),
    "trident": _slope(3, 1),
    "a-i": ("vanishing", None),
    "a-ii": ("vanishing", None),
    "b-i": ("rate", Fraction(1, 8)),
    "b-ii": ("rate", Fraction(1, 28)),
    "b-iii": ("rate", Fraction(1, 56)),
    "b-iv": ("rate", Fraction(1, 14)),
    "b-v": ("rate", Fraction(1, 28)),
    "c-i": _slope(5, Fraction(4, 7)),
    "c-ii": _slope(5, Fraction(2, 7)),
    "h3-bi": ("vanishing", None),
    "h3-ci": _slope(7, Fraction(4, 49)),
    # creation rate ~ (n/7)^2/n^2
    "h3-cii": _slope(7, Fraction(1, 49)),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print(f"n={args.n}  reps={args.reps}  seed={args.seed}")
    print(f"{'chain':8s} {'observable':10s} {'sim mean':>12s} {'limit':>12s}")
    for cid in chains.BUILTIN_IDS:
        cfg = montecarlo.ExperimentConfig(source=cid, n=args.n,
                                          reps=args.reps, seed=args.seed)
        s = montecarlo.run_experiment(cfg)
        for name in s.components:
            kind, value = LIMITS.get(name, (None, None))
            if kind == "slope" and value is not None:
                limit = f"{float(value) * args.n:.3f}"
            elif kind == "rate":
                limit = f"{float(value):.5f}"
            elif kind == "vanishing":
                limit = "-> 0"
            else:
                limit = "?"
            print(f"{cid:8s} {name:10s} {s.mean(name):12.5f} {limit:>12s}")


if __name__ == "__main__":
    main()
