"""Brute-force sweeps of the identity t = v - 2(p + c - h) + b, shared by
``pixtopo verify``, the acceptance suite and the demos.

``subset_reports`` yields the report of every subset of a small grid,
analyzed in stacks of ``SUBSET_CHUNK`` masks by ``invariants.analyze_batch``:
one census and three labellings per stack instead of per subset.  It is the
only enumeration of subsets.  ``replay`` fills a new Tracker and counts
its deltas; ``random_sweep`` replays each seeded random object, shuffled,
and analyzes the objects in stacks by the same batch engine.

Analysis, generation and case classification are looked up on their modules
at call time, so wrappers installed on those module attributes see every call.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from . import generate, incremental, invariants
from .grid import Pixel
from .incremental import CaseId, Tracker
from .invariants import InvariantReport

_TRACKED = attrgetter("p", "v", "c0", "h", "b", "t_direct")

# Subsets per stack in subset_reports: large enough that the per-call cost
# of the labellings is spread thin, small enough that the stack's labels
# stay a few hundred kilobytes.
SUBSET_CHUNK = 1024

# Cells per stack in random_sweep: analyze_batch's labels take four bytes a
# cell, so a stack of large grids stays a few megabytes.
SWEEP_STACK_CELLS = 1 << 20


def subset_reports(width: int, height: int) -> Iterator[InvariantReport]:
    """The report of every subset of the width x height grid, in mask order:
    subset ``mask`` holds cell i, pixel (i % width, i // width), iff bit i of
    ``mask`` is set.  The masks are built from the bits of consecutive
    numbers and analyzed ``SUBSET_CHUNK`` at a time."""
    n = width * height
    bits = np.arange(n)
    for start in range(0, 1 << n, SUBSET_CHUNK):
        numbers = np.arange(start, min(start + SUBSET_CHUNK, 1 << n))
        masks = (numbers[:, None] >> bits & 1).astype(bool)
        yield from invariants.analyze_batch(masks.reshape(-1, height, width))


def replay(pixels: Iterable[Pixel], cases: Counter) -> Tracker:
    """A new Tracker with the pixels inserted in order.  Their cases are added
    to ``cases`` once the last pixel is in, so a raising insertion adds none;
    a run repeats a few dozen distinct deltas, each classified once."""
    tracker = Tracker()
    for delta, count in Counter(map(tracker.add_pixel, pixels)).items():
        cases[incremental.classify_case(delta)] += count
    return tracker


def agrees(snapshot: InvariantReport, report: InvariantReport) -> bool:
    """Whether a tracker snapshot matches a fresh report on p, v, c0, h, b and t_direct."""
    return _TRACKED(snapshot) == _TRACKED(report)


def random_sweep(
    width: int, height: int, density: float, seed: int, runs: int, cases: Counter,
) -> Iterator[Tuple[InvariantReport, InvariantReport]]:
    """Per run, in run order, the report of a ``generate_random(width, height,
    density)`` object and the snapshot of a Tracker that replayed its pixels
    shuffled; one SplitMix64 stream seeded with ``seed`` draws each object's
    seed, then its shuffle.  The objects are analyzed by ``analyze_batch``
    in stacks of at most ``SUBSET_CHUNK`` runs and ``SWEEP_STACK_CELLS``
    cells, or of one run when a grid is larger; a stack keeps each run's
    mask and snapshot until it is analyzed.  Raises ValueError for
    arguments generate_random refuses."""
    rng = generate.SplitMix64(seed)
    per_stack = max(1, min(SUBSET_CHUNK, SWEEP_STACK_CELLS // max(1, width * height)))
    for start in range(0, runs, per_stack):
        masks, snapshots = [], []
        for _ in range(min(per_stack, runs - start)):
            obj = generate.generate_random(width, height, density, seed=rng.next_u64())
            mask = obj._to_mask((0, 0), (height, width))
            masks.append(mask)
            # cell i is pixel (i % width, i // width): the flat indices are
            # in the (y, x) order of iterating the object, and take one small
            # int each where a pixel tuple would take three objects
            cells = np.flatnonzero(mask).tolist()
            rng.shuffle(cells)
            pixels = ((cell % width, cell // width) for cell in cells)
            snapshots.append(replay(pixels, cases).snapshot())
        yield from zip(invariants.analyze_batch(np.stack(masks)), snapshots)


def case_table(cases: Counter) -> List[str]:
    """One line per case that occurred, in CaseId order: id, count, share."""
    total = sum(cases.values())
    return [
        f"{case.value:>9}  {cases[case]:>8}  {cases[case] / total:7.2%}"
        for case in CaseId
        if cases[case]
    ]
