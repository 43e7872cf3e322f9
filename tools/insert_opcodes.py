#!/usr/bin/env python3
"""Count the bytecodes a Tracker insertion runs, as sys.settrace opcode events.

    python3 tools/insert_opcodes.py [TREE]

Imports pixtopo from ``TREE/src`` (by default the checkout holding this
tool) and prints, as JSON, the opcode events per ``Tracker.add_pixel`` call
on two insertion orders:

- ``grow``: the benchmark's ``grow`` order for seed 1 (a 1000x1000 smoothed
  object, its pixels shuffled, as ``bench/run.py`` builds it from
  ``bench/inputs.py``); the first 100,000 pixels go in untraced, and the
  next 10,000 are counted.
- ``sweep``: every insertion of ``verify.random_sweep(48, 48, 0.5, 5, 24)``,
  the 24 shuffled 48x48 objects that ``pixtopo verify`` replays.

An event is counted in ``add_pixel`` and in any Python function it calls.
The figure depends on the CPython version, not on the machine; it is
deterministic for one interpreter and tree.  ``bench/inputs.py`` is loaded
from this checkout by path and not edited, and the trace function that was
set before a count is restored after it.
"""

from __future__ import annotations

import importlib.util
import json
import platform
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
GROW_SEED, GROW_SIZE, GROW_SIGMA, GROW_FILL = 1, 1000, 6.0, 0.15
GROW_SKIP, GROW_COUNT = 100_000, 10_000
SWEEP = (48, 48, 0.5, 5, 24)  # width, height, density, seed, runs


def count(run, code) -> tuple:
    """Run ``run()`` under an opcode trace; return the opcode events inside
    frames of ``code`` and their callees, and the calls of ``code``."""
    events = calls = depth = 0

    def local(frame, event, arg):
        nonlocal events, depth
        if event == "opcode":
            events += 1
        elif event == "return" and frame.f_code is code:
            depth -= 1
        return local

    def start(frame, event, arg):
        nonlocal calls, depth
        if frame.f_code is code:
            calls += 1
            depth += 1
        elif not depth:
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(previous)
    return events, calls


def per_insertion(tracker_class, pixels, skip: int = 0) -> float:
    """Opcode events per ``add_pixel`` of ``pixels[skip:]`` into a tracker
    that already holds ``pixels[:skip]``."""
    tracker = tracker_class(pixels[:skip])
    add = tracker.add_pixel

    def run():
        for pixel in pixels[skip:]:
            add(pixel)

    events, calls = count(run, tracker_class.add_pixel.__code__)
    return events / calls


def grow_order() -> list:
    """The first GROW_SKIP + GROW_COUNT pixels of the ``grow`` order."""
    spec = importlib.util.spec_from_file_location("bench_inputs", HERE / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    mask = inputs.smoothed(GROW_SEED, inputs.GROW_OBJECT, GROW_SIZE, GROW_SIZE, GROW_SIGMA,
                           GROW_FILL)
    ys, xs = mask.nonzero()
    order = inputs.rng(GROW_SEED, inputs.GROW_ORDER).permutation(xs.size)
    n = GROW_SKIP + GROW_COUNT
    return list(zip(xs[order][:n].tolist(), ys[order][:n].tolist()))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    tree = Path(args[0]).resolve() if args else HERE
    if len(args) > 1 or not (tree / "src" / "pixtopo").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(tree / "src"))
    from pixtopo import verify
    from pixtopo.incremental import Tracker

    events, calls = count(lambda: list(verify.random_sweep(*SWEEP, Counter())),
                          Tracker.add_pixel.__code__)
    document = {
        "tree": str(tree),
        "python": platform.python_version(),
        "grow": {"insertions": GROW_COUNT,
                 "opcodes_per_insertion": per_insertion(Tracker, grow_order(), GROW_SKIP)},
        "sweep": {"insertions": calls, "opcodes_per_insertion": events / calls},
    }
    print(json.dumps(document, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
