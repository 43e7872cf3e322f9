"""Acceptance suite: one test per verification criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 2/3 share their sweep corpora with criterion 7, and criterion 5
audits the insertion deltas produced while running criterion 4, so the
expensive corpora are built once per session.

The exhaustive corpus of criteria 2 and 7 comes from ``subset_reports``,
which analyzes the subsets in stacks with ``analyze_batch``, and criterion 4
checks every insertion sequence against one ``analyze_batch`` call over its
prefixes.  Criterion 3 stays on scalar ``analyze``: it is the randomized
corpus of the single-object engine, which ``tests/test_verify.py`` also
compares with the batch on every 4x4 subset.
"""

import functools
import time
from collections import Counter

import numpy as np

from conftest import DIAMOND, DIAGONAL_PAIR, RING8
from pixtopo import (
    Adjacency,
    CaseId,
    DigitalObject,
    GenerationError,
    SplitMix64,
    Tracker,
    analyze,
    analyze_batch,
    classify_case,
    count_tunnels_direct,
    generate_blockfree,
    generate_curve,
    generate_random,
    has_separating_tunnels,
    is_simple_arc,
    is_simple_closed_curve,
)
from pixtopo.verify import agrees, case_table, subset_reports


def _line(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {text}")
    assert ok, text


# ---------------------------------------------------------------------------
# shared corpora

def _timed_reports(objects):
    """``analyze`` of each object, and the seconds generation and analysis took."""
    start = time.perf_counter()
    reports = [analyze(obj) for obj in objects]
    return reports, time.perf_counter() - start


@functools.cache
def exhaustive_sweep():
    """Criterion 2 corpus: all subsets of 4x4 (and 3x3 as a smoke suite)."""
    start = time.perf_counter()
    reports = list(subset_reports(3, 3)) + list(subset_reports(4, 4))
    return reports, time.perf_counter() - start


@functools.cache
def randomized_sweep():
    """Criterion 3 corpus: 10,000 seeded objects, grids up to 20x20."""
    rng = SplitMix64(20260811)
    # draws per object: width, height, then the object's seed
    return _timed_reports(
        generate_random(1 + rng.below(20), 1 + rng.below(20), density, seed=rng.next_u64())
        for density in (0.1, 0.3, 0.5, 0.7, 0.9)
        for _ in range(2000)
    )


@functools.cache
def insertion_sweep():
    """Criteria 4/5 corpus: 1,000 seeded insertion sequences, checked stepwise.

    Step k of a sequence is compared with slice k - 1 of one batch: the
    object of cells whose insertion rank is below k (h via fresh labelling)."""
    start = time.perf_counter()
    rng = SplitMix64(5150)
    mismatches = 0
    cases = Counter()
    forbidden = 0
    for _ in range(1000):
        width = 4 + rng.below(17)
        height = 4 + rng.below(17)
        cells = [(x, y) for y in range(height) for x in range(width)]
        rng.shuffle(cells)
        length = min(200, 1 + rng.below(len(cells)))
        rank = np.full((height, width), length)
        for i, (x, y) in enumerate(cells[:length]):
            rank[y, x] = i
        reports = analyze_batch(rank <= np.arange(length)[:, None, None])
        tracker = Tracker()
        for step, pixel in enumerate(cells[:length], 1):
            delta = tracker.add_pixel(pixel)
            cases[classify_case(delta)] += 1
            if (
                delta.db < 0
                or (delta.dh > 0 and delta.dc > 0)
                or (delta.db > 0 and delta.dc > 0)
                or (delta.dh < 0 and delta.dc != 0)
            ):
                forbidden += 1
            if not agrees(tracker.snapshot(), reports[step - 1]):
                mismatches += 1
    return {
        "sequences": 1000,
        "insertions": sum(cases.values()),
        "mismatches": mismatches,
        "cases": cases,
        "forbidden": forbidden,
        "elapsed": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_base_case():
    rep = analyze(DigitalObject([(0, 0)]))
    ok = (
        (rep.p, rep.v, rep.c0, rep.h, rep.b, rep.t_direct) == (1, 4, 1, 0, 0, 0)
        and rep.consistent
    )
    _line(1, ok, f"single pixel report {rep}")


def test_criterion_2_exhaustive_identity():
    reports, elapsed = exhaustive_sweep()
    inconsistent = sum(not rep.consistent for rep in reports)
    ok = inconsistent == 0 and elapsed < 10.0
    _line(
        2,
        ok,
        f"{len(reports)} subsets of 3x3+4x4, {inconsistent} inconsistent, {elapsed:.1f}s",
    )


def test_criterion_3_randomized_identity():
    reports, elapsed = randomized_sweep()
    inconsistent = sum(not rep.consistent for rep in reports)
    ok = inconsistent == 0 and elapsed < 30.0
    _line(
        3,
        ok,
        f"{len(reports)} random objects, {inconsistent} inconsistent, {elapsed:.1f}s",
    )


def test_criterion_4_incremental_equivalence():
    result = insertion_sweep()
    ok = result["mismatches"] == 0
    _line(
        4,
        ok,
        f"{result['sequences']} sequences / {result['insertions']} insertions "
        f"checked stepwise, {result['mismatches']} mismatches, {result['elapsed']:.1f}s",
    )


def test_criterion_5_case_conformance():
    result = insertion_sweep()
    cases = result["cases"]
    total = sum(cases.values())
    print("  insertion case frequency:")
    for line in case_table(cases):
        print(f"    {line}")
    required = {CaseId.C1A, CaseId.C1B, CaseId.C2, CaseId.C3A, CaseId.C6A}
    missing = {c.value for c in required if cases[c] == 0}
    ok = (
        cases[CaseId.UNMATCHED] == 0
        and result["forbidden"] == 0
        and not missing
    )
    _line(
        5,
        ok,
        f"{total} deltas classified, {cases[CaseId.UNMATCHED]} unmatched, "
        f"{result['forbidden']} forbidden transitions, missing cases: {missing or 'none'}",
    )


def _generate_curves(kind, alpha, count, start_seed):
    out = []
    seed = start_seed
    rng = SplitMix64(start_seed ^ 0xC0FFEE)
    while len(out) < count:
        steps = (4 if kind == "closed" else 1) + rng.below(37)
        try:
            out.append(generate_curve(kind, alpha, steps=steps, seed=seed))
        except GenerationError:
            pass
        seed += 1
    return out


def test_criterion_6_curve_identities():
    failures = []
    for alpha in (Adjacency.ZERO, Adjacency.ONE):
        for obj in _generate_curves("closed", alpha, 200, start_seed=1000 + alpha):
            assert is_simple_closed_curve(obj, alpha)
            rep = analyze(obj)
            if rep.t_direct != rep.v - 2 * rep.p:
                failures.append(("closed", alpha, rep))
        for obj in _generate_curves("arc", alpha, 200, start_seed=2000 + alpha):
            assert is_simple_arc(obj, alpha)
            rep = analyze(obj)
            if rep.t_direct != rep.v - 2 * (rep.p + 1):
                failures.append(("arc", alpha, rep))
    rng = SplitMix64(99)
    for i in range(200):
        obj = generate_blockfree(1 + rng.below(60), seed=3000 + i)
        rep = analyze(obj)
        if rep.t_direct != rep.v - 2 * (rep.p + 1 - rep.h):
            failures.append(("blockfree", None, rep))

    diamond = analyze(DigitalObject(DIAMOND))
    ring = analyze(DigitalObject(RING8))
    pinned_ok = (diamond.t_direct, diamond.v, diamond.p) == (4, 12, 4) and (
        ring.t_direct, ring.v, ring.p,
    ) == (0, 16, 8)
    ok = not failures and pinned_ok
    _line(
        6,
        ok,
        f"200 closed curves per adjacency + 200 arcs per adjacency + 200 "
        f"block-free objects, {len(failures)} identity failures, pinned fixtures "
        f"{'ok' if pinned_ok else 'BAD'}",
    )


def test_criterion_7_tunnel_freedom_biconditional():
    ex, _ = exhaustive_sweep()
    rnd, _ = randomized_sweep()
    violations = sum((rep.t_direct == 0) != (rep.t_formula == 0) for rep in ex + rnd)
    _line(
        7,
        violations == 0,
        f"t=0 iff v-2(p+c-h)+b=0 over {len(ex)} subsets and "
        f"{len(rnd)} random objects, {violations} violations",
    )


def test_criterion_8_performance():
    obj = generate_random(1000, 1000, 0.5, seed=42)
    pixels = list(obj)  # raster order: the incremental image-loading scenario

    analyze_time = min(_timed(lambda: analyze(obj)) for _ in range(3))
    report = analyze(obj)
    assert report.consistent

    def build():
        tracker = Tracker()
        add = tracker.add_pixel
        for pixel in pixels:
            add(pixel)
        return tracker

    tracker_time = min(_timed(build) for _ in range(3))
    per_pixel_us = tracker_time / len(pixels) * 1e6
    ok = analyze_time < 2.0 and per_pixel_us < 5.0
    _line(
        8,
        ok,
        f"analyze({report.p} px) {analyze_time:.2f}s (< 2s), "
        f"insertion {per_pixel_us:.2f} us/px (< 5 us)",
    )


def _timed(fn):
    # best-of-N timing with the cyclic collector paused, as timeit does
    import gc

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def test_criterion_9_tunnel_notion_divergence():
    pair = DigitalObject(DIAGONAL_PAIR)
    diamond = DigitalObject(DIAMOND)
    ok = (
        count_tunnels_direct(pair) == 1
        and has_separating_tunnels(pair) is False
        and count_tunnels_direct(diamond) == 4
        and has_separating_tunnels(diamond) is True
    )
    _line(
        9,
        ok,
        "diagonal pair: t_direct=1, separating=False; diamond: t_direct=4, separating=True",
    )
