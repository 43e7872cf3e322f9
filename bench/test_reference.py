"""Tests of the benchmark's reference counter.

Run with ``python -m pytest bench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import reference  # noqa: E402


@pytest.fixture(scope="module")
def all_4x4():
    """Every one of the 65,536 subsets of the 4x4 grid, bit i = cell i."""
    bits = (np.arange(1 << 16)[:, None] >> np.arange(16)) & 1
    return reference.counts(bits.astype(bool).reshape(-1, 4, 4))


def test_totals_over_all_4x4_subsets(all_4x4):
    # Each total counts, per cell, corner or block, the subsets it occurs in:
    # 16 cells in half the subsets; 4 lattice corners touch 1 cell, 12 edge
    # points 2 and 9 interior points 4, and a point is a vertex unless all
    # cells it touches are empty; each of the 9 interior points is a block in
    # 2**12 subsets and a tunnel in 2 * 2**12.
    assert all_4x4["p"].sum() == 16 * 2**15 == 524_288
    assert all_4x4["v"].sum() == 4 * (2**16 - 2**15) + 12 * (2**16 - 2**14) + 9 * (2**16 - 2**12)
    assert all_4x4["v"].sum() == 1_273_856
    assert all_4x4["b"].sum() == 9 * 2**12 == 36_864
    assert all_4x4["t"].sum() == 9 * 2 * 2**12 == 73_728


def test_identity_holds_on_every_4x4_subset(all_4x4):
    c = all_4x4
    formula = c["v"] - 2 * (c["p"] + c["c0"] - c["h"]) + c["b"]
    assert np.array_equal(formula, c["t"])


@pytest.mark.parametrize(
    "rows, want",
    [
        (["#"], dict(p=1, v=4, c0=1, c1=1, h=0, b=0, t=0)),
        ([".#.", "#.#", ".#."], dict(p=4, v=12, c0=1, c1=4, h=1, b=0, t=4)),
        (["###", "#.#", "###"], dict(p=8, v=16, c0=1, c1=1, h=1, b=0, t=0)),
        (["#.", ".#"], dict(p=2, v=7, c0=1, c1=2, h=0, b=0, t=1)),
        (["##", "##"], dict(p=4, v=9, c0=1, c1=1, h=0, b=1, t=0)),
        (["#..#"], dict(p=2, v=8, c0=2, c1=2, h=0, b=0, t=0)),
    ],
)
def test_small_shapes(rows, want):
    mask = np.array([[ch == "#" for ch in row] for row in rows])
    got = {k: int(v[0]) for k, v in reference.counts(mask[None]).items()}
    assert got == want


def test_report_with_one_field_off_by_one_is_rejected():
    mask = np.array([[ch == "#" for ch in row] for row in [".#.", "#.#", ".#."]])
    expected = reference.expected_report(mask)
    assert reference.report_errors(dict(expected), expected) == []
    for key, value in expected.items():
        if key == "consistent":
            continue
        for delta in (-1, 1):
            bad = dict(expected, **{key: value + delta})
            assert reference.report_errors(bad, expected), (key, delta)
    assert reference.report_errors(dict(expected, consistent=False), expected)
