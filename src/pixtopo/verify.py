"""Brute-force sweeps of the identity t = v - 2(p + c - h) + b, shared by
``pixtopo verify``, the acceptance suite and the demos.

Analysis, generation and case classification are looked up on their modules
at call time, so wrappers installed on those module attributes see every call.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Iterable, Iterator, List, Tuple

from . import generate, incremental, invariants
from .grid import DigitalObject, Pixel
from .incremental import CaseId, InsertionDelta, Tracker
from .invariants import InvariantReport

_TRACKED = attrgetter("p", "v", "c0", "h", "b", "t_direct")


def grid_subsets(width: int, height: int) -> Iterator[DigitalObject]:
    """Every subset of the width x height grid, set-backed, in mask order:
    subset ``mask`` holds cell i, pixel (i % width, i // width), iff bit i is set."""
    cells = [(x, y) for y in range(height) for x in range(width)]
    for mask in range(1 << len(cells)):
        yield DigitalObject(cell for i, cell in enumerate(cells) if mask >> i & 1)


def replay(tracker: Tracker, pixels: Iterable[Pixel], cases: Counter) -> Iterator[InsertionDelta]:
    """Insert pixels into the tracker in order; count each delta's case, then yield it."""
    for pixel in pixels:
        delta = tracker.add_pixel(pixel)
        cases[incremental.classify_case(delta)] += 1
        yield delta


def agrees(snapshot: InvariantReport, report: InvariantReport) -> bool:
    """Whether a tracker snapshot matches a fresh report on p, v, c0, h, b and t_direct."""
    return _TRACKED(snapshot) == _TRACKED(report)


def random_sweep(
    width: int, height: int, density: float, seed: int, runs: int, cases: Counter,
) -> Iterator[Tuple[InvariantReport, InvariantReport]]:
    """Per run, the report of a ``generate_random(width, height, density)``
    object and the snapshot of a Tracker that replayed its pixels shuffled;
    one SplitMix64 stream seeded with ``seed`` draws each object's seed, then
    its shuffle.  Raises ValueError for arguments generate_random refuses."""
    rng = generate.SplitMix64(seed)
    for _ in range(runs):
        obj = generate.generate_random(width, height, density, seed=rng.next_u64())
        report = invariants.analyze(obj)
        pixels = list(obj)
        rng.shuffle(pixels)
        tracker = Tracker()
        for _ in replay(tracker, pixels, cases):
            pass
        yield report, tracker.snapshot()


def case_table(cases: Counter) -> List[str]:
    """One line per case that occurred, in CaseId order: id, count, share."""
    total = sum(cases.values())
    return [
        f"{case.value:>9}  {cases[case]:>8}  {cases[case] / total:7.2%}"
        for case in CaseId
        if cases[case]
    ]
