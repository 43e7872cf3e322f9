from collections import Counter
from dataclasses import replace

import pytest

from pixtopo import (
    CaseId, DigitalObject, DuplicatePixelError, SplitMix64, Tracker, analyze, generate_random,
    incremental, verify,
)
from pixtopo.generate import _SHUFFLE_BLOCK
from pixtopo.verify import (
    SUBSET_CHUNK, agrees, case_table, random_sweep, replay, subset_reports,
)
from test_cli import VERIFY_3X3_SEED3


@pytest.mark.parametrize(
    "width, height",
    [(1, 1), (2, 1), (1, 3), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4), (12, 1), (1, 12)],
)
def test_subset_reports_match_analyze_in_mask_order(width, height):
    # subset k holds cell i, pixel (i % w, i // w), iff bit i of k is set;
    # scalar analyze reads these objects through their squeezed rasters
    w, n = width, width * height
    assert list(subset_reports(width, height)) == [
        analyze(DigitalObject((i % w, i // w) for i in range(n) if k >> i & 1))
        for k in range(1 << n)
    ]


def _inline_shuffle(rng, items):
    """The Fisher-Yates loop the sweeps used to write out."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", [0, 3, 5150, 2**64 - 1, 2**64 - 3 * 0x9E3779B97F4A7C15])
@pytest.mark.parametrize("length", [0, 1, 2, 50, 1151, _SHUFFLE_BLOCK + 3])
def test_shuffle_matches_the_inline_loop(seed, length):
    items, expected = list(range(length)), list(range(length))
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    assert rng.shuffle(items) is None
    _inline_shuffle(reference, expected)
    assert items == expected
    assert rng.next_u64() == reference.next_u64()  # same number of draws


def test_replay_tallies_every_insertion():
    obj = generate_random(12, 9, 0.6, seed=11)
    cases = Counter()
    tracker = replay(obj, cases)
    assert tracker.p == len(obj) == sum(cases.values())
    assert agrees(tracker.snapshot(), analyze(obj))


def test_replay_classifies_each_distinct_delta_once(monkeypatch):
    real_classify, classified = incremental.classify_case, []

    def recording(delta):
        classified.append(delta)
        return real_classify(delta)

    monkeypatch.setattr(incremental, "classify_case", recording)
    obj = generate_random(30, 30, 0.5, seed=7)
    stepwise = Tracker()
    deltas = [stepwise.add_pixel(pixel) for pixel in obj]
    cases = Counter()
    replay(obj, cases)
    assert sorted(classified) == sorted(set(deltas))
    assert sum(cases.values()) == len(obj)
    assert cases == Counter(real_classify(delta) for delta in deltas)


def test_replay_tallies_nothing_when_an_insertion_raises():
    cases = Counter({CaseId.C1A: 2})
    with pytest.raises(DuplicatePixelError):
        replay([(0, 0), (1, 0), (0, 0), (5, 5)], cases)
    assert cases == Counter({CaseId.C1A: 2})


def test_random_sweep_stacks_match_the_inline_loop():
    # more runs than one stack holds, so two analyze_batch stacks are yielded
    runs, cases = SUBSET_CHUNK + 5, Counter()
    swept = list(random_sweep(3, 2, 0.5, 9, runs, cases))
    rng, expected, inserted = SplitMix64(9), [], 0
    for _ in range(runs):
        obj = generate_random(3, 2, 0.5, seed=rng.next_u64())
        pixels = list(obj)
        rng.shuffle(pixels)
        tracker = Tracker()
        for pixel in pixels:
            tracker.add_pixel(pixel)
        expected.append((analyze(obj), tracker.snapshot()))
        inserted += len(pixels)
    assert swept == expected
    assert sum(cases.values()) == inserted


@pytest.mark.parametrize("width, height", [(7, 5), (5, 7)])
def test_random_sweep_feeds_each_cell_as_its_pixel(monkeypatch, width, height):
    # a transposed feed gives the same snapshots and cases, so the pixels
    # replay receives are compared too
    fed = []

    def recording(pixels, cases):
        fed.append(list(pixels))
        return replay(fed[-1], cases)

    monkeypatch.setattr(verify, "replay", recording)
    cases = Counter()
    snapshots = [snap for _, snap in random_sweep(width, height, 0.5, 9, 6, cases)]
    # the same draws, fed by the per-cell generator the sweep used before
    rng, expected_cases, expected_fed, expected = SplitMix64(9), Counter(), [], []
    for _ in range(6):
        obj = generate_random(width, height, 0.5, seed=rng.next_u64())
        cells = sorted(x + y * width for x, y in obj)
        rng.shuffle(cells)
        expected_fed.append(list((cell % width, cell // width) for cell in cells))
        expected.append(replay(expected_fed[-1], expected_cases).snapshot())
    assert fed == expected_fed
    assert {c.__class__ for pixels in fed for pixel in pixels for c in pixel} == {int}
    assert snapshots == expected
    assert cases == expected_cases


def test_agrees_compares_the_tracked_counters():
    rep = analyze(DigitalObject([(0, 0), (1, 1)]))
    snap = Tracker([(0, 0), (1, 1)]).snapshot()
    assert snap != rep and agrees(snap, rep)  # c1 is not tracked
    for field in ("p", "v", "c0", "h", "b", "t_direct"):
        assert not agrees(snap, replace(rep, **{field: getattr(rep, field) + 1}))


def test_case_table_matches_the_pinned_cli_lines():
    cases = Counter()
    for report, snap in random_sweep(20, 20, 0.5, 3, 10, cases):
        assert report.consistent and agrees(snap, report)
    lines = VERIFY_3X3_SEED3.splitlines()
    table = lines[lines.index("case frequency:") + 1 : -1]
    assert [f"  {line}" for line in case_table(cases)] == table


def test_case_table_of_no_insertions_is_empty():
    assert case_table(Counter()) == []
