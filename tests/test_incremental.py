import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import DIAMOND, RING8
from pixtopo import (
    CaseId,
    DigitalObject,
    DuplicatePixelError,
    InsertionDelta,
    Tracker,
    TrackerCorruptionError,
    analyze,
    classify_case,
    generate_random,
)
from pixtopo.incremental import COORD_BOUND, TrackerStats
from pixtopo.grid import MAX_RASTER_CELLS
from pixtopo.invariants import _BLOCK_MASK, _TUNNEL_MASKS, _census, rasterize

pixel_lists = st.lists(
    st.tuples(st.integers(-2, 7), st.integers(-2, 7)), unique=True, max_size=40
)


def deltas_of(base, pixel):
    """Expected change vector from two full recomputations."""
    before = oracles.report(base)
    after = oracles.report(set(base) | {pixel})
    return InsertionDelta(
        dv=after["v"] - before["v"],
        dc=after["c0"] - before["c0"],
        dh=after["h"] - before["h"],
        db=after["b"] - before["b"],
        dt=after["t_direct"] - before["t_direct"],
    )


def page_entries(tracker):
    """Every occupied lattice point of a tracker, decoded from its pages,
    with its entry: occupancy mask | component id << 4."""
    entries = {}
    for key, page in tracker._pages.items():
        col, row = key
        for i, value in enumerate(page):
            if value:
                entries[8 * col + i % 8, 8 * row + i // 8] = value
    return entries


def test_new_tracker_is_empty():
    tr = Tracker()
    assert (tr.p, tr.v, tr.b, tr.t, tr.c) == (0, 0, 0, 0, 0)
    assert tr.derived_holes() == 0
    snap = tr.snapshot()
    assert (snap.p, snap.v, snap.c0, snap.h, snap.b, snap.t_direct) == (0, 0, 0, 0, 0, 0)
    assert snap.c1 is None and snap.consistent


def test_first_pixel_counters():
    tr = Tracker()
    delta = tr.add_pixel((0, 0))
    assert delta == InsertionDelta(dv=4, dc=1, dh=0, db=0, dt=0)
    assert (tr.p, tr.v, tr.b, tr.t, tr.c) == (1, 4, 0, 0, 1)
    assert tr.derived_holes() == 0


def test_two_diagonal_pixels():
    tr = Tracker([(0, 0), (1, 1)])
    assert (tr.p, tr.v, tr.b, tr.t, tr.c) == (2, 7, 0, 1, 1)
    assert tr.derived_holes() == 0


def test_diagonal_insertion_is_case_1b():
    tr = Tracker([(0, 0)])
    delta = tr.add_pixel((1, 1))
    assert delta == InsertionDelta(dv=3, dc=0, dh=0, db=0, dt=1)
    assert classify_case(delta) is CaseId.C1B


def test_isolated_insertion_is_case_2():
    tr = Tracker([(0, 0)])
    delta = tr.add_pixel((10, 10))
    assert delta == InsertionDelta(dv=4, dc=1, dh=0, db=0, dt=0)
    assert classify_case(delta) is CaseId.C2


def test_filling_ring_center_is_case_8d():
    tr = Tracker(RING8)
    delta = tr.add_pixel((1, 1))
    assert delta == InsertionDelta(dv=0, dc=0, dh=-1, db=4, dt=0)
    assert classify_case(delta) is CaseId.C8D


def test_filling_diamond_center_is_case_4():
    tr = Tracker(DIAMOND)
    assert tr.snapshot().h == 1
    delta = tr.add_pixel((1, 1))
    assert delta == InsertionDelta(dv=0, dc=0, dh=-1, db=0, dt=-4)
    assert classify_case(delta) is CaseId.C4
    assert tr.snapshot().h == 0


def test_snapshot_full_3x3():
    tr = Tracker((x, y) for x in range(3) for y in range(3))
    snap = tr.snapshot()
    assert (snap.p, snap.v, snap.c0, snap.h, snap.b, snap.t_direct) == (9, 16, 1, 0, 4, 0)


def test_duplicate_insertion_rejected_and_state_unchanged():
    tr = Tracker(DIAMOND)
    before = tr.snapshot()
    with pytest.raises(DuplicatePixelError):
        tr.add_pixel((1, 0))
    assert tr.snapshot() == before
    assert len(tr) == 4


def test_coordinate_bound_enforced():
    tr = Tracker()
    with pytest.raises(ValueError):
        tr.add_pixel((1 << 40, 0))
    assert len(tr) == 0


def test_membership_and_as_object():
    tr = Tracker(DIAMOND)
    assert (1, 0) in tr and (1, 1) not in tr
    assert "nonsense" not in tr
    assert tr.as_object() == DigitalObject(DIAMOND)


@pytest.mark.parametrize("pixel", [(0.5, 0), (0, 2.0), ("1", 0)])
def test_non_integral_pixel_is_rejected_and_state_unchanged(pixel):
    tr = Tracker(DIAMOND)
    before = tr.snapshot()
    with pytest.raises(TypeError):
        tr.add_pixel(pixel)
    assert tr.snapshot() == before
    assert tr.as_object() == DigitalObject(DIAMOND)


@pytest.mark.parametrize("pixel", [(True, 0), (0, False)])
def test_bool_pixel_is_rejected_and_state_unchanged(pixel):
    # operator.index(True) is 1, so (True, 0) would silently insert (1, 0)
    tr = Tracker(DIAMOND)
    before = tr.snapshot()
    with pytest.raises(TypeError, match="bool"):
        tr.add_pixel(pixel)
    assert tr.snapshot() == before
    assert tr.as_object() == DigitalObject(DIAMOND)


def test_bool_pixel_is_never_a_member():
    tr = Tracker([(1, 0), (0, 0)])
    assert (True, 0) not in tr and (0, False) not in tr and (1.0, 0) not in tr
    assert (1, 0) in tr and (0, 0) in tr


def test_numpy_integer_pixels_are_stored_as_int():
    # an int64 coordinate beyond 32 bits is stored, read back and found
    tr = Tracker([(np.int64(2**32), np.int64(-5)), (np.int32(1), np.uint8(2))])
    assert tr.as_object() == DigitalObject([(2**32, -5), (1, 2)])
    assert (2**32, -5) in tr and (1, 2) in tr


def test_membership_converts_like_add_pixel():
    tr = Tracker([(1, 2)])
    assert (np.int64(1), np.int64(2)) in tr
    assert (1.0, 2) not in tr
    assert (0.5, 2) not in tr
    # out of the coordinate bound: found on no page, whatever its size
    assert (0, 2**34 + 2) not in tr
    assert (10**30, 0) not in tr
    assert (-(10**30), 2) not in tr


def test_pixels_at_the_coordinate_bound_keep_distinct_keys():
    # pixels at the top and bottom of the coordinate bound keep their own
    # pages and decode back to themselves
    top, bottom = COORD_BOUND - 1, -COORD_BOUND + 1
    pixels = [(0, top), (0, top - 1), (1, bottom), (-1, bottom)]
    tr = Tracker(pixels)
    assert (tr.p, tr.v, tr.b, tr.t, tr.c) == (4, 6 + 4 + 4, 0, 0, 3)
    assert tr.snapshot().h == 0
    assert all(pixel in tr for pixel in pixels)
    assert (1, top) not in tr and (0, bottom) not in tr
    assert tr.as_object() == DigitalObject(pixels)


# offsets that put the blobs of pixel_lists (coordinates -2..7) across the
# rows, columns and corners of 8x8 pages, near the origin and near both ends
# of the coordinate bound
PAGE_EDGE_OFFSETS = [-17, -9, -1, 7, 15, COORD_BOUND - 12, -(COORD_BOUND - 12)]


@st.composite
def page_edge_lists(draw):
    pixels = draw(pixel_lists)
    dx = draw(st.sampled_from(PAGE_EDGE_OFFSETS))
    dy = draw(st.sampled_from(PAGE_EDGE_OFFSETS))
    return [(x + dx, y + dy) for x, y in pixels]


@given(page_edge_lists(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_blobs_across_page_edges_match_the_oracles(pixels, rnd):
    rnd.shuffle(pixels)
    tr = Tracker(pixels)
    snap = tr.snapshot()
    expected = oracles.report(pixels)
    assert (snap.p, snap.v, snap.c0, snap.h, snap.b, snap.t_direct) == tuple(
        expected[key] for key in ("p", "v", "c0", "h", "b", "t_direct")
    )
    assert tr.as_object() == DigitalObject(pixels)
    members = set(pixels)
    for x, y in pixels:
        for q in ((x + dx, y + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
            assert (q in tr) == (q in members)


# pixels on a page's last column, last row or both, next to the origin and
# to both ends of the coordinate bound
PAGE_EDGE_PIXELS = [
    (7, 3), (3, 7), (7, 7), (-1, -1), (-9, 0),
    (COORD_BOUND - 1, COORD_BOUND - 1), (-COORD_BOUND + 7, -COORD_BOUND + 7),
]


@pytest.mark.parametrize("pixel", PAGE_EDGE_PIXELS)
def test_rejected_page_edge_pixel_leaves_the_tracker_unchanged(pixel):
    x, y = pixel
    base = [(x, y), (x - 1, y - 1), (x - 1, y)]
    tr = Tracker(base)
    probes = [(x + dx, y + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]

    def state():
        return len(tr), tr.snapshot(), [q in tr for q in probes], tr.as_object(), tr.stats()

    before = state()
    with pytest.raises(DuplicatePixelError):
        tr.add_pixel((x, y))
    assert state() == before
    with pytest.raises(TypeError):
        tr.add_pixel((x + 0.5, y))
    assert state() == before
    with pytest.raises(TypeError, match="bool"):
        tr.add_pixel((x, True))
    assert state() == before
    with pytest.raises(ValueError):
        tr.add_pixel((x, y + 2 * COORD_BOUND))
    assert state() == before
    # the tracker still takes the pixel that completes the 2x2 block
    assert tr.add_pixel((x, y - 1)) == deltas_of(base, (x, y - 1))
    assert tr.snapshot() == Tracker([(0, 0), (0, 1), (1, 0), (1, 1)]).snapshot()


def test_grown_tracker_holds_under_100_bytes_per_pixel():
    pixels = list(generate_random(200, 200, 0.5, seed=1))
    random.Random(1).shuffle(pixels)
    tracemalloc.start()
    try:
        tr = Tracker(pixels)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tr) == len(pixels)
    assert size / len(pixels) < 100


def test_stats_of_the_3x3_block():
    tr = Tracker((x, y) for y in range(3) for x in range(3))
    assert tr.stats() == TrackerStats(pages=1, corners=16, components=1, max_depth=0)


def test_stats_of_two_components():
    # the corners of (7, 7) fall on four pages, one of them shared with (0, 0)
    tr = Tracker([(0, 0), (7, 7)])
    assert tr.stats() == TrackerStats(pages=4, corners=8, components=2, max_depth=0)
    # two isolated pixels take an id each; the pixel between them links one
    # root below the other
    tr = Tracker([(0, 0), (2, 0), (1, 0)])
    assert tr.stats() == TrackerStats(pages=1, corners=8, components=2, max_depth=1)
    assert Tracker().stats() == TrackerStats(pages=0, corners=0, components=0, max_depth=0)


@pytest.mark.parametrize("density", [0.3, 0.6, 0.9])
def test_shuffled_random_grid_matches_analyze(density):
    obj = generate_random(64, 48, density, seed=7)
    pixels = list(obj)
    np.random.default_rng(11).shuffle(pixels)
    snap = Tracker(pixels).snapshot()
    rep = analyze(obj)
    assert (snap.p, snap.v, snap.c0, snap.h, snap.b, snap.t_direct) == (
        rep.p, rep.v, rep.c0, rep.h, rep.b, rep.t_direct,
    )


def test_corruption_is_detected():
    tr = Tracker([(0, 0)])
    tr.t += 1  # sabotage: breaks the parity of t - v - b
    with pytest.raises(TrackerCorruptionError):
        tr.snapshot()
    tr = Tracker([(0, 0)])
    tr.v += 2  # sabotage: drives the derived hole count negative
    with pytest.raises(TrackerCorruptionError):
        tr.snapshot()


# --- the insertion case table ----------------------------------------------

CASE_TABLE = [
    # (dv, dc, dh, db, dt) -> label
    ((2, 0, 0, 0, 0), "1a"),
    ((3, 0, 0, 0, 1), "1b"),
    ((1, 0, 0, 0, -1), "1c"),
    ((0, 0, 0, 0, -2), "1d"),
    ((4, 1, 0, 0, 0), "2"),
    ((0, -1, 0, 0, 0), "3a"),
    ((2, -1, 0, 0, 2), "3a"),
    ((1, -2, 0, 0, 3), "3b"),
    ((0, -3, 0, 0, 4), "3c"),
    ((0, 0, -1, 0, -4), "4"),
    ((0, 0, 1, 0, 0), "5a"),
    ((1, 0, 1, 0, 1), "5a"),
    ((0, 0, 2, 0, 2), "5b"),
    ((1, 0, 2, 0, 3), "5b"),
    ((0, 0, 3, 0, 4), "5c"),
    ((0, 0, 0, 1, -1), "6a"),
    ((1, 0, 0, 1, 0), "6b"),
    ((0, 0, 0, 2, 0), "6c"),
    ((0, 0, 1, 1, 1), "7"),
    ((0, 0, -1, 1, -3), "8a"),
    ((0, 0, -1, 2, -2), "8b"),
    ((0, 0, -1, 3, -1), "8c"),
    ((0, 0, -1, 4, 0), "8d"),
    ((0, -1, 0, 1, 1), "9"),
    ((0, -1, 1, 0, 2), "10a"),
    ((1, -1, 1, 0, 3), "10a"),
    ((0, -2, 1, 0, 4), "10b"),
    ((0, -1, 2, 0, 4), "10c"),
]


@pytest.mark.parametrize("vector,label", CASE_TABLE)
def test_case_table(vector, label):
    delta = InsertionDelta(*vector)
    assert delta.balances()
    assert classify_case(delta).value == label


def test_unbalanced_delta_is_unmatched():
    assert classify_case(InsertionDelta(1, 0, 0, 0, 0)) is CaseId.UNMATCHED


def test_unknown_signature_is_unmatched():
    # balanced, but h drops while c changes: a forbidden transition signature
    delta = InsertionDelta(dv=0, dc=-1, dh=-1, db=0, dt=-2)
    assert delta.balances()
    assert classify_case(delta) is CaseId.UNMATCHED


def test_exhaustive_3x3_insertions_match_recompute_and_classify():
    """Every subset of a 3x3 neighborhood, every possible insertion."""
    cells = [(x, y) for y in range(3) for x in range(3)]
    for mask in range(512):
        base = [cells[i] for i in range(9) if mask >> i & 1]
        for q in cells:
            if q in base:
                continue
            tr = Tracker(base)
            delta = tr.add_pixel(q)
            assert delta == deltas_of(base, q)
            assert classify_case(delta) is not CaseId.UNMATCHED
            snap = tr.snapshot()
            rep = analyze(DigitalObject(base + [q]))
            assert (snap.p, snap.v, snap.c0, snap.h, snap.b, snap.t_direct) == (
                rep.p, rep.v, rep.c0, rep.h, rep.b, rep.t_direct,
            )


# --- randomized properties ---------------------------------------------------

@given(pixel_lists)
@settings(max_examples=200, deadline=None)
def test_snapshot_equals_fresh_analysis_after_every_insertion(pixels):
    tr = Tracker()
    for i, pixel in enumerate(pixels):
        delta = tr.add_pixel(pixel)
        assert delta.balances()
        snap = tr.snapshot()
        rep = analyze(DigitalObject(pixels[: i + 1]))
        assert (snap.p, snap.v, snap.c0, snap.h, snap.b, snap.t_direct) == (
            rep.p, rep.v, rep.c0, rep.h, rep.b, rep.t_direct,
        )


@given(pixel_lists, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_order_independence(pixels, rnd):
    tr1 = Tracker(pixels)
    shuffled = list(pixels)
    rnd.shuffle(shuffled)
    tr2 = Tracker(shuffled)
    assert tr1.snapshot() == tr2.snapshot()


@given(pixel_lists)
@settings(max_examples=200, deadline=None)
def test_forbidden_transitions_never_occur(pixels):
    tr = Tracker()
    for pixel in pixels:
        d = tr.add_pixel(pixel)
        assert d.db >= 0
        assert not (d.dh > 0 and d.dc > 0)
        assert not (d.db > 0 and d.dc > 0)
        assert not (d.dh < 0 and d.dc != 0)
        assert (tr.v + tr.b + tr.t) % 2 == 0
        assert classify_case(d) is not CaseId.UNMATCHED


@given(st.integers(1, 9), st.integers(1, 9), st.floats(0, 1), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_corner_masks_are_the_census_codes(width, height, density, seed):
    # the tracker's gain tables use the census's tunnel and block masks, which
    # is only sound while both read a lattice point's four pixels in one layout
    obj = generate_random(width, height, density, seed)
    tr = Tracker(obj)
    corners = {point: value & 15 for point, value in page_entries(tr).items()}
    # window [r, c] of the unsqueezed raster padded by one cell is the lattice
    # point (x0 + c, y0 + r) and holds its SW, SE, NW and NE pixels in bits
    # 1, 2, 4 and 8
    box = obj.bounding_box()
    (x0, y0), (x1, y1) = box if box else ((0, 0), (-1, -1))
    m = obj._to_mask((x0 - 1, y0 - 1), (y1 - y0 + 3, x1 - x0 + 3)).astype(int)
    codes = m[:-1, :-1] + 2 * m[:-1, 1:] + 4 * m[1:, :-1] + 8 * m[1:, 1:]
    assert corners == {
        (x0 + int(c), y0 + int(r)): int(codes[r, c]) for r, c in np.argwhere(codes)
    }
    v, b, t = _census(rasterize(obj))
    assert (v, b, t) == (
        np.count_nonzero(codes),
        np.count_nonzero(codes == _BLOCK_MASK),
        np.count_nonzero(np.isin(codes, _TUNNEL_MASKS)),
    )


# --- as_object ---------------------------------------------------------------

@st.composite
def compact_blobs(draw):
    """Pixels in a box of up to 8x8 with every row and column occupied,
    shifted anywhere in -1000..1000: nothing to squeeze."""
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pixels = {(x, draw(st.integers(0, height - 1))) for x in range(width)}
    pixels |= {(draw(st.integers(0, width - 1)), y) for y in range(height)}
    pixels |= set(draw(st.lists(
        st.tuples(st.integers(0, width - 1), st.integers(0, height - 1)), max_size=30
    )))
    dx, dy = draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))
    return [(x + dx, y + dy) for x, y in pixels]


@st.composite
def split_blobs(draw):
    """Two compact blobs two or more empty lines apart along x, y or both:
    runs of empty lines to squeeze."""
    first, second = draw(compact_blobs()), draw(compact_blobs())
    (x0, y0), (x1, y1) = DigitalObject(first).bounding_box()
    (u0, v0), _ = DigitalObject(second).bounding_box()
    gap_x, gap_y = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    dx = x1 + draw(st.integers(3, 10**6)) - u0 if gap_x else x0 - u0
    dy = y1 + draw(st.integers(3, 10**6)) - v0 if gap_y else y0 - v0
    return first + [(x + dx, y + dy) for x, y in second]


tiny_sets = st.one_of(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=2, unique=True),
    st.lists(
        st.tuples(
            st.integers(-COORD_BOUND + 1, COORD_BOUND - 1),
            st.integers(-COORD_BOUND + 1, COORD_BOUND - 1),
        ),
        min_size=1, max_size=2, unique=True,
    ),
)


@given(st.one_of(compact_blobs(), split_blobs(), tiny_sets, pixel_lists), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_as_object_equals_the_replayed_pixels(pixels, rnd):
    rnd.shuffle(pixels)
    tr = Tracker(pixels)
    obj = tr.as_object()
    snap = tr.snapshot()
    rep = analyze(obj)
    assert (rep.p, rep.v, rep.c0, rep.h, rep.b, rep.t_direct) == (
        snap.p, snap.v, snap.c0, snap.h, snap.b, snap.t_direct,
    )
    expected = DigitalObject(pixels)
    assert obj == expected and hash(obj) == hash(expected)
    assert len(obj) == len(expected)
    assert list(obj) == list(expected)
    assert obj.bounding_box() == expected.bounding_box()


def test_as_object_of_keys_on_both_sides_of_int64():
    # two pixels side by side far out on the x axis decode exactly into a mask
    pixels = [(465021186, 0), (465021187, 0)]
    obj = Tracker(pixels).as_object()
    assert obj._mask is not None
    assert obj == DigitalObject(pixels) and list(obj) == pixels
    assert analyze(obj).consistent and len(obj) == 2
    # and so do two pixels stacked one above the other
    below = [(465021186, 0), (465021186, 1)]
    obj = Tracker(below).as_object()
    assert obj._mask is not None and list(obj) == below


def test_empty_tracker_gives_the_empty_object():
    obj = Tracker().as_object()
    assert obj == DigitalObject() and not obj and len(obj) == 0
    assert obj.bounding_box() is None and list(obj) == []


def test_compact_tracker_object_builds_no_pixel_set():
    obj = generate_random(40, 25, 1.0, seed=0)
    pixels = list(obj)
    np.random.default_rng(3).shuffle(pixels)
    result = Tracker(pixels).as_object()
    assert len(result) == 1000 and result.bounding_box() == ((0, 0), (39, 24))
    assert analyze(result) == analyze(obj)
    assert result == obj


def test_as_object_of_far_apart_pixels_allocates_no_line_array():
    # two pixels 5 * 10**7 columns apart: the box is within the raster limit,
    # but it holds far more than 64 cells per pixel, so the coordinate
    # constructor sorts and squeezes the coordinates, and as_object must not
    # mark the box's columns
    tr = Tracker([(0, 0), (5 * 10**7, 0)])
    tracemalloc.start()
    try:
        obj = tr.as_object()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert obj._mask.shape == (1, 3) and list(obj) == [(0, 0), (5 * 10**7, 0)]
    assert peak < 10**6


def test_as_object_beyond_the_raster_limit_raises():
    # a diagonal two apart has no empty run to squeeze, and its box exceeds
    # the limit: the object cannot be built, but the tracker keeps working
    pixels = [(2 * i, 2 * i) for i in range(6000)]
    assert (2 * 6000 - 1) ** 2 > MAX_RASTER_CELLS
    tr = Tracker(pixels)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^box 11999x11999 exceeds the raster limit"):
            tr.as_object()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000  # the refused mask would take 144 MB
    with pytest.raises(ValueError, match="^box 11999x11999 exceeds the raster limit"):
        DigitalObject(pixels)
    tr.add_pixel((1, 0))
    assert tr.snapshot().p == 6001 and (1, 0) in tr
