#!/usr/bin/env python3
"""Verify the tunnel identity by brute force.

Two sweeps: every one of the 512 subsets of a 3x3 grid, then a batch of
seeded random objects at several densities.  For each object the directly
counted tunnels are compared with v - 2(p + c - h) + b, and each random
object is also rebuilt pixel by pixel with a Tracker, whose counters must
match.  The identity is exact, so a single disagreement anywhere would flag
a counting bug, and the demo then exits with status 1, as it does when an
insertion's change vector matches no case of the table.
"""

import sys
import time
from collections import Counter

from pixtopo import CaseId
from pixtopo.verify import agrees, random_sweep, subset_reports


def main() -> int:
    print(__doc__)
    start = time.perf_counter()
    bad_subsets = sum(not report.consistent for report in subset_reports(3, 3))
    print(f"exhaustive 3x3 sweep: 512 subsets, {bad_subsets} inconsistent")
    cases = Counter()
    bad_random = 0
    for density in (0.1, 0.3, 0.5, 0.7, 0.9):
        for report, snapshot in random_sweep(18, 18, density, int(density * 10), 400, cases):
            bad_random += not (report.consistent and agrees(snapshot, report))
    unmatched = cases[CaseId.UNMATCHED]
    print(f"random sweep:         2000 objects, {bad_random} inconsistent "
          f"({sum(cases.values())} tracked insertions, {unmatched} unmatched)")
    print(f"elapsed: {time.perf_counter() - start:.2f}s")
    print()
    print("The same checks at larger scale run via the CLI:")
    print("    pixtopo verify --grid 20x20 --runs 1000 --exhaustive 4x4")
    return 1 if bad_subsets or bad_random or unmatched else 0


if __name__ == "__main__":
    sys.exit(main())
