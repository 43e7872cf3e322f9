#!/usr/bin/env python3
"""Watch the counters update as pixels are inserted one at a time.

A Tracker maintains (p, v, b, t, c) with constant local work per insertion
and derives the hole count algebraically, h = p + c + (t - v - b)/2, with no
flood fill ever.  Each insertion yields a change vector that classifies into
a small table of cases; the second half of the demo builds a random object
and prints how often each case fired.  The demo exits with status 1 if the
final tracked counters disagree with a fresh recompute.
"""

import sys
from collections import Counter

from pixtopo import Tracker, analyze, classify_case, generate_random
from pixtopo.verify import agrees, case_table, replay

# grow a square ring, then fill its center
STORY = [
    (0, 0), (1, 0), (2, 0),
    (2, 1), (2, 2), (1, 2), (0, 2), (0, 1),   # ring closes: a hole appears
    (1, 1),                                    # fill the hole: four blocks
]


def main() -> int:
    print(__doc__)
    tracker = Tracker()
    print("insert   ->   dv  dc  dh  db  dt   case    tracked (p,v,b,t,c) h")
    for pixel in STORY:
        delta = tracker.add_pixel(pixel)
        case = classify_case(delta)
        state = (tracker.p, tracker.v, tracker.b, tracker.t, tracker.c)
        print(f"{str(pixel):>8} -> {delta.dv:>4} {delta.dc:>3} {delta.dh:>3} "
              f"{delta.db:>3} {delta.dt:>3}   {case.value:>4}    "
              f"{str(state):>18} {tracker.derived_holes()}")

    snap = tracker.snapshot()
    full = analyze(tracker.as_object())
    print()
    print(f"final snapshot:   {snap}")
    print(f"fresh recompute:  {full}")
    print(f"derived h == flood-filled h: {snap.h == full.h}")

    print()
    print("case frequencies while building a random 60x60 object:")
    cases = Counter()
    replay(generate_random(60, 60, 0.5, seed=7), cases)
    for line in case_table(cases):
        print(f"    {line}")
    return 0 if agrees(snap, full) else 1


if __name__ == "__main__":
    sys.exit(main())
