from collections import Counter
from dataclasses import replace

import pytest

from pixtopo import DigitalObject, SplitMix64, Tracker, analyze, generate_random
from pixtopo.verify import agrees, case_table, grid_subsets, random_sweep, replay
from test_cli import VERIFY_3X3_SEED3


@pytest.mark.parametrize("width, height", [(1, 1), (2, 1), (3, 2), (2, 3)])
def test_grid_subsets_in_mask_order(width, height):
    subsets = list(grid_subsets(width, height))
    assert len(subsets) == 2 ** (width * height) == len(set(subsets))
    for mask, obj in enumerate(subsets):
        # bit i is cell i, row-major
        expected = {(i % width, i // width) for i in range(width * height) if mask >> i & 1}
        assert obj == DigitalObject(expected)


def _inline_shuffle(rng, items):
    """The Fisher-Yates loop the sweeps used to write out."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", [0, 3, 5150, 2**64 - 1])
@pytest.mark.parametrize("length", [0, 1, 50])
def test_shuffle_matches_the_inline_loop(seed, length):
    items, expected = list(range(length)), list(range(length))
    rng, reference = SplitMix64(seed), SplitMix64(seed)
    assert rng.shuffle(items) is None
    _inline_shuffle(reference, expected)
    assert items == expected
    assert rng.next_u64() == reference.next_u64()  # same number of draws


def test_replay_tallies_every_insertion():
    obj = generate_random(12, 9, 0.6, seed=11)
    tracker, cases = Tracker(), Counter()
    deltas = list(replay(tracker, obj, cases))
    assert len(deltas) == len(obj) == sum(cases.values())
    assert agrees(tracker.snapshot(), analyze(obj))


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
