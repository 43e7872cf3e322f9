import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import DIAMOND, DIAGONAL_PAIR, DOMINO, RING8, SQUARE2, SQUARE3, stretched
from pixtopo import (
    Adjacency,
    DigitalObject,
    analyze,
    count_blocks,
    count_components,
    count_holes,
    count_tunnels_direct,
    count_vertices,
    curve_report,
    generate_curve,
    generate_random,
    has_separating_tunnels,
    is_general_curve,
    is_k_separating,
    is_simple_arc,
    is_simple_closed_curve,
    is_tunnel_free,
    tunnels_by_formula,
)
from pixtopo import Tracker, grid, incremental, invariants


small_objects = st.builds(
    DigitalObject,
    st.sets(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), max_size=36),
)


def obj(pixels):
    return DigitalObject(pixels)


# --- individual counters on the canonical fixtures -------------------------

def test_count_pixels():
    assert len(obj([])) == 0
    assert len(obj([(0, 0)])) == 1
    assert len(obj(DIAMOND)) == 4


def test_count_vertices():
    assert count_vertices(obj([(0, 0)])) == 4
    assert count_vertices(obj(DOMINO)) == 6
    assert count_vertices(obj(DIAMOND)) == 12


def test_count_blocks():
    assert count_blocks(obj([(0, 0)])) == 0
    assert count_blocks(obj(SQUARE2)) == 1
    assert count_blocks(obj(SQUARE3)) == 4


def test_count_components():
    assert count_components(obj([]), Adjacency.ZERO) == 0
    assert count_components(obj([(0, 0)]), Adjacency.ZERO) == 1
    assert count_components(obj(DIAMOND), Adjacency.ZERO) == 1
    assert count_components(obj(DIAMOND), Adjacency.ONE) == 4
    assert count_components(obj([(0, 0), (5, 5)]), Adjacency.ZERO) == 2


def test_count_holes():
    assert count_holes(obj([(0, 0)])) == 0
    assert count_holes(obj(RING8)) == 1
    assert count_holes(obj(DIAMOND)) == 1
    assert count_holes(obj([])) == 0


def test_count_tunnels_direct():
    assert count_tunnels_direct(obj(DOMINO)) == 0
    assert count_tunnels_direct(obj(DIAGONAL_PAIR)) == 1
    assert count_tunnels_direct(obj(DIAMOND)) == 4


def test_tunnels_by_formula():
    assert tunnels_by_formula(1, 4, 1, 0, 0) == 0
    assert tunnels_by_formula(4, 12, 1, 1, 0) == 4
    assert tunnels_by_formula(0, 0, 0, 0, 0) == 0
    assert tunnels_by_formula(2, 4, 1, 0, 0) == -2  # nonsense inputs stay signed


def test_analyze_single_pixel():
    rep = analyze(obj([(0, 0)]))
    assert (rep.p, rep.v, rep.c0, rep.c1, rep.h, rep.b) == (1, 4, 1, 1, 0, 0)
    assert rep.t_direct == rep.t_formula == 0
    assert rep.consistent


def test_analyze_diamond():
    rep = analyze(obj(DIAMOND))
    assert (rep.p, rep.v, rep.c0, rep.c1, rep.h, rep.b) == (4, 12, 1, 4, 1, 0)
    assert rep.t_direct == rep.t_formula == 4
    assert rep.consistent


def test_analyze_full_2x2():
    rep = analyze(obj(SQUARE2))
    assert (rep.p, rep.v, rep.c0, rep.c1, rep.h, rep.b) == (4, 9, 1, 1, 0, 1)
    assert rep.t_direct == rep.t_formula == 0
    assert rep.consistent


def test_analyze_empty():
    rep = analyze(obj([]))
    assert (rep.p, rep.v, rep.c0, rep.c1, rep.h, rep.b, rep.t_direct, rep.t_formula) == (
        0, 0, 0, 0, 0, 0, 0, 0,
    )
    assert rep.consistent


def test_is_tunnel_free():
    assert is_tunnel_free(obj(DOMINO))
    assert not is_tunnel_free(obj(DIAGONAL_PAIR))
    assert is_tunnel_free(obj([]))


def test_tunnel_free_objects_zero_the_formula():
    for pixels in (DOMINO, SQUARE2, SQUARE3, RING8, []):
        rep = analyze(obj(pixels))
        assert rep.t_direct == 0
        assert rep.t_formula == 0


def test_is_k_separating():
    square = obj(SQUARE3)
    center = obj([(1, 1)])
    assert not is_k_separating(center, square, Adjacency.ZERO)
    assert not is_k_separating(center, square, Adjacency.ONE)
    column = obj([(1, 0), (1, 1), (1, 2)])
    assert is_k_separating(column, square, Adjacency.ZERO)
    assert is_k_separating(column, square, Adjacency.ONE)
    assert not is_k_separating(square, square, Adjacency.ZERO)


def test_is_k_separating_requires_subset():
    with pytest.raises(ValueError):
        is_k_separating(obj([(9, 9)]), obj(SQUARE3), Adjacency.ZERO)


# shapes on which the two adjacencies give different answers
_SHAPES = [obj(DIAMOND), obj(RING8), obj(DOMINO), obj(DIAGONAL_PAIR)]
_ELBOW = obj([(0, 0), (1, 0), (1, 1)])  # without (1, 0), a diagonal pair


@pytest.mark.parametrize("call", [
    lambda a: [count_components(o, a) for o in _SHAPES],
    lambda a: is_k_separating(obj([(1, 0)]), _ELBOW, a),
    lambda a: [curve_report(o, a) for o in _SHAPES],
    lambda a: [is_general_curve(o, a) for o in _SHAPES],
    lambda a: [is_simple_closed_curve(o, a) for o in _SHAPES],
    lambda a: [is_simple_arc(o, a) for o in _SHAPES],
    lambda a: [generate_curve(kind, a, 12, 3) for kind in ("closed", "arc")],
], ids=["count_components", "is_k_separating", "curve_report", "is_general_curve",
        "is_simple_closed_curve", "is_simple_arc", "generate_curve"])
def test_a_plain_int_adjacency_means_its_member(call):
    for alpha in Adjacency:
        assert call(int(alpha)) == call(alpha)
    with pytest.raises(ValueError):
        call(2)


def test_has_separating_tunnels():
    assert has_separating_tunnels(obj(DIAMOND))
    assert not has_separating_tunnels(obj(RING8))
    # the two tunnel notions genuinely differ on a lone diagonal pair
    assert count_tunnels_direct(obj(DIAGONAL_PAIR)) == 1
    assert not has_separating_tunnels(obj(DIAGONAL_PAIR))
    assert not has_separating_tunnels(obj([]))


def test_separating_tunnels_imply_counted_tunnels():
    for pixels in (DIAMOND, RING8, DIAGONAL_PAIR, DOMINO, SQUARE3):
        if has_separating_tunnels(obj(pixels)):
            assert count_tunnels_direct(obj(pixels)) > 0


# --- the raster path ------------------------------------------------------

def test_rasterize_pads_one_empty_cell_per_side():
    assert invariants.rasterize(obj([])).tolist() == [[False, False], [False, False]]
    assert invariants.rasterize(obj([(2, 5), (3, 6)])).tolist() == [
        [False, False, False, False],
        [False, True, False, False],
        [False, False, True, False],
        [False, False, False, False],
    ]
    # a single empty column stays; the run of 99 empty rows becomes one line
    assert invariants.rasterize(obj([(0, 0), (2, 0), (2, 100)])).astype(int).tolist() == [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
    ]


# every public function that rasterizes, with its answer on two far-apart pixels
_FAR = obj([(0, 0), (20_000, 20_000)])
_COUNTERS = [
    pytest.param(analyze, invariants.InvariantReport(2, 8, 2, 2, 0, 0, 0, 0, True), id="analyze"),
    pytest.param(count_holes, 0, id="count_holes"),
    pytest.param(has_separating_tunnels, False, id="has_separating_tunnels"),
    pytest.param(count_vertices, 8, id="count_vertices"),
    pytest.param(count_blocks, 0, id="count_blocks"),
    pytest.param(count_tunnels_direct, 0, id="count_tunnels_direct"),
    pytest.param(lambda o: count_components(o, Adjacency.ZERO), 2, id="count_components_0"),
    pytest.param(lambda o: count_components(o, Adjacency.ONE), 2, id="count_components_1"),
    pytest.param(is_tunnel_free, True, id="is_tunnel_free"),
    pytest.param(
        lambda o: is_k_separating(obj([(0, 0)]), o, Adjacency.ZERO), False, id="is_k_separating",
    ),
]


# is_k_separating is left out: its (0, 0) is no pixel of the diamond
@pytest.mark.parametrize("fn, _", _COUNTERS[:-1])
def test_raster_functions_build_one_bounding_box(fn, _, monkeypatch):
    calls = {"rasterize": 0, "bounding_box": 0}
    rasterize, bounding_box = invariants.rasterize, DigitalObject.bounding_box

    def counted_rasterize(o):
        calls["rasterize"] += 1
        return rasterize(o)

    def counted_bounding_box(self):
        calls["bounding_box"] += 1
        return bounding_box(self)

    mask = np.zeros((3, 3), dtype=bool)
    for x, y in DIAMOND:
        mask[y, x] = True
    from_pixels, from_mask = obj(DIAMOND), DigitalObject.from_mask(mask)
    monkeypatch.setattr(invariants, "rasterize", counted_rasterize)
    monkeypatch.setattr(DigitalObject, "bounding_box", counted_bounding_box)
    # every object holds its squeezed raster, which rasterize pads without
    # asking for a box, however the object was built
    fn(from_pixels)
    assert calls == {"rasterize": 1, "bounding_box": 0}
    fn(from_mask)
    assert calls == {"rasterize": 2, "bounding_box": 0}


@pytest.mark.parametrize("fn, far_answer", _COUNTERS)
def test_raster_functions_refuse_oversized_boxes(fn, far_answer):
    # runs of empty lines are squeezed, so distance alone costs nothing
    assert fn(_FAR) == far_answer
    # single empty lines are kept: 6000 diagonal pixels spaced by one cell
    # still span 11999 x 11999 cells, over the limit, so the object cannot
    # be built and no counter is reached
    diagonal = [(2 * i, 2 * i) for i in range(6_000)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^box \d+x\d+ exceeds the raster limit"):
            fn(obj(diagonal))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000  # the refused mask would take 144 MB


# --- equivalence with the brute-force oracles ------------------------------

def _assert_matches_oracles(o, pixels=None):
    rep = analyze(o)
    expected = oracles.report(o.pixels if pixels is None else pixels)
    got = {
        "p": rep.p, "v": rep.v, "c0": rep.c0, "c1": rep.c1, "h": rep.h,
        "b": rep.b, "t_direct": rep.t_direct, "t_formula": rep.t_formula,
    }
    assert got == expected
    assert rep.consistent


@given(small_objects)
@settings(max_examples=300)
def test_analyze_matches_oracles(o):
    _assert_matches_oracles(o)


@pytest.mark.parametrize("density", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("width, height", [(64, 64), (65, 65), (70, 40)])
def test_analyze_matches_oracles_on_larger_grids(width, height, density):
    _assert_matches_oracles(generate_random(width, height, density, seed=11))


def _assert_counters_match_oracles(o, pixels):
    assert count_vertices(o) == oracles.vertices(pixels)
    assert count_blocks(o) == oracles.blocks(pixels)
    assert count_tunnels_direct(o) == oracles.tunnels(pixels)
    assert count_components(o, Adjacency.ZERO) == oracles.components(pixels, diagonal=True)
    assert count_components(o, Adjacency.ONE) == oracles.components(pixels, diagonal=False)
    assert count_holes(o) == oracles.holes(pixels)


@given(small_objects, st.data())
@settings(max_examples=300)
def test_counters_match_oracles(o, data):
    pixels = o.pixels
    _assert_counters_match_oracles(o, pixels)
    removed = data.draw(st.sets(st.sampled_from(sorted(pixels))) if pixels else st.just(set()))
    rest = pixels - removed
    for alpha, diagonal in ((Adjacency.ZERO, True), (Adjacency.ONE, False)):
        assert is_k_separating(obj(removed), o, alpha) == (
            oracles.components(rest, diagonal=diagonal) >= 2
        )


@given(stretched(small_objects))
@settings(max_examples=300)
def test_stretched_objects_match_oracles(pair):
    o, stretched = pair
    _assert_matches_oracles(stretched, o.pixels)
    _assert_counters_match_oracles(stretched, o.pixels)
    assert has_separating_tunnels(stretched) == has_separating_tunnels(o)


@given(small_objects)
def test_formula_consistency_is_universal(o):
    assert analyze(o).consistent


@given(small_objects)
@settings(max_examples=200)
def test_separating_tunnels_need_counted_tunnels(o):
    if has_separating_tunnels(o):
        assert count_tunnels_direct(o) > 0


@given(small_objects)
def test_monotone_bounds_and_parity(o):
    rep = analyze(o)
    assert rep.v <= 4 * rep.p
    assert rep.b <= rep.p
    assert rep.t_direct <= rep.v
    assert rep.c0 <= rep.c1
    assert (rep.v + rep.b + rep.t_direct) % 2 == 0


@given(small_objects, st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
@settings(max_examples=100)
def test_translation_invariance(o, dx, dy):
    rep = analyze(o)
    moved = analyze(o.translate(dx, dy))
    assert rep == moved


_SYMMETRIES = [
    lambda x, y: (x, y),
    lambda x, y: (-x, y),
    lambda x, y: (x, -y),
    lambda x, y: (-x, -y),
    lambda x, y: (y, x),
    lambda x, y: (-y, x),
    lambda x, y: (y, -x),
    lambda x, y: (-y, -x),
]


@given(small_objects, st.integers(0, 7))
@settings(max_examples=150)
def test_square_symmetry_invariance(o, which):
    sym = _SYMMETRIES[which]
    mapped = DigitalObject(sym(x, y) for x, y in o.pixels)
    a, b = analyze(o), analyze(mapped)
    assert (a.p, a.v, a.c0, a.c1, a.h, a.b, a.t_direct) == (
        b.p, b.v, b.c0, b.c1, b.h, b.b, b.t_direct,
    )


# --- the two constructors of an object -------------------------------------

@given(
    small_objects,
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(0, 3),
    st.integers(0, 3),
)
@settings(max_examples=300)
def test_mask_backed_object_matches_set_backed(o, ox, oy, pad_x, pad_y):
    # small_objects lie in [-3, 8]^2; the mask has empty margins to trim
    height, width = 14 + pad_y, 14 + pad_x
    mask = np.zeros((height, width), dtype=bool)
    for x, y in o.pixels:
        mask[y + 3 + pad_y, x + 3 + pad_x] = True
    m = DigitalObject.from_mask(mask, origin=(ox, oy))
    s = o.translate(ox + 3 + pad_x, oy + 3 + pad_y)

    assert len(m) == len(s)
    assert bool(m) == bool(s)
    assert list(m) == list(s)
    assert m.bounding_box() == s.bounding_box()
    assert analyze(m) == analyze(s)
    assert count_holes(m) == count_holes(s)
    assert has_separating_tunnels(m) == has_separating_tunnels(s)
    for alpha in (Adjacency.ZERO, Adjacency.ONE):
        assert curve_report(m, alpha) == curve_report(s, alpha)
    assert m == s and hash(m) == hash(s)
    for x in range(ox - 1, ox + width + 1):
        for y in range(oy - 1, oy + height + 1):
            assert ((x, y) in m) == ((x, y) in s)


@st.composite
def gappy_masks(draw):
    """A random mask of up to 6x6 cells spread over a larger one, with zero
    to three empty lines before each of its rows and columns and after the
    last: runs of empty lines for ``from_mask`` to squeeze."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=height * width, max_size=height * width))
    at = []
    for n in (height, width):
        gaps = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
        at.append(np.cumsum(np.add(gaps[:-1], 1)) - 1)
        at.append(int(at[-1][-1]) + 1 + gaps[-1])
    rows, total_rows, cols, total_cols = at
    mask = np.zeros((total_rows, total_cols), dtype=bool)
    mask[np.ix_(rows, cols)] = np.array(bits, dtype=bool).reshape(height, width)
    return mask


def _raster(o):
    return o._mask.tobytes(), o._mask.shape, o._xs.tolist(), o._ys.tolist()


@given(gappy_masks(), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=300)
def test_squeezed_mask_equals_the_object_of_its_pixels(mask, ox, oy):
    m = DigitalObject.from_mask(mask, origin=(ox, oy))
    pixels = [(ox + int(col), oy + int(row)) for row, col in np.argwhere(mask)]
    s = DigitalObject(list(m))
    # both constructors give the one canonical raster of the pixels
    assert m == s and hash(m) == hash(s) and _raster(m) == _raster(s)
    assert m == DigitalObject(reversed(pixels)) and list(m) == pixels
    assert len(m) == len(pixels) and bool(m) == bool(pixels)
    if pixels:
        xs, ys = [x for x, _ in pixels], [y for _, y in pixels]
        assert m.bounding_box() == ((min(xs), min(ys)), (max(xs), max(ys)))
        # no run of two or more empty lines is left in the stored raster
        for axis in (0, 1):
            occupied = m._mask.any(axis=axis)
            assert not (~occupied[:-1] & ~occupied[1:]).any()
        (x0, y0), (x1, y1) = m.bounding_box()
        window = m._to_mask((x0, y0), (y1 - y0 + 1, x1 - x0 + 1))
        assert np.array_equal(window, mask[np.ix_(
            range(y0 - oy, y1 - oy + 1), range(x0 - ox, x1 - ox + 1)
        )])
    else:
        assert m.bounding_box() is None and m == DigitalObject()
    _assert_matches_oracles(m, pixels)


@given(stretched(small_objects), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
@settings(max_examples=200)
def test_stretched_and_negative_objects_keep_their_raster(pair, dx, dy):
    o, far = pair
    # widening a gap of empty lines leaves it one squeezed line
    assert np.array_equal(far._mask, o._mask)
    again = DigitalObject(list(far))
    assert far == again and hash(far) == hash(again) and _raster(far) == _raster(again)
    moved = far.translate(dx, dy)
    assert moved == DigitalObject((x + dx, y + dy) for x, y in far)
    assert list(moved) == [(x + dx, y + dy) for x, y in far]
    assert analyze(moved) == analyze(o)


def test_coordinates_beyond_int64():
    pixels = [(10**30, 0), (10**30 + 1, 1), (-5, 0)]
    o = DigitalObject(pixels)
    # the same squeezed raster as three pixels near the origin
    near = DigitalObject([(2, 0), (3, 1), (0, 0)])
    assert np.array_equal(o._mask, near._mask)
    rep = analyze(o)
    assert rep.consistent and rep == analyze(near)
    _assert_matches_oracles(near)
    assert list(o) == [(-5, 0), (10**30, 0), (10**30 + 1, 1)]
    assert o.bounding_box() == ((-5, 0), (10**30 + 1, 1))
    assert len(o) == 3 and (10**30 + 1, 1) in o and (10**30, 1) not in o
    same = DigitalObject(reversed(pixels))
    assert o == same and hash(o) == hash(same)
    assert o != DigitalObject([(10**30, 0), (10**30 + 2, 1), (-5, 0)])
    assert o.translate(-10**30, 0) == DigitalObject([(0, 0), (1, 1), (-5 - 10**30, 0)])
    row = DigitalObject.from_mask(np.ones((1, 2), dtype=bool), origin=(10**30, 0))
    assert row == DigitalObject([(10**30, 0), (10**30 + 1, 0)])
    # coordinates that come back within int64 are stored as int64 again
    home = row.translate(-10**30, 0)
    assert home == DigitalObject([(0, 0), (1, 0)]) and home._xs.dtype == np.int64
    edge = DigitalObject([(-(2**63) + 1, 0)]).translate(2**63, 0)
    assert edge == DigitalObject([(1, 0)]) and edge._xs.dtype == np.int64


# The pixel in each slot around lattice point (0, 0), by its census bit.
_SLOTS = {1: (-1, -1), 2: (0, -1), 4: (-1, 0), 8: (0, 0)}  # SW, SE, NW, NE


@pytest.mark.parametrize("code", range(16))
def test_each_census_code_balances_the_identity(code):
    pixels = [p for bit, p in _SLOTS.items() if code & bit]
    window = DigitalObject(pixels)._to_mask((-1, -1), (2, 2))
    # the window's one census code is the slot layout SW=1, SE=2, NW=4, NE=8
    m = window.astype(int)
    assert m[0, 0] + 2 * m[0, 1] + 4 * m[1, 0] + 8 * m[1, 1] == code
    v, b, t = (int(n) for n in invariants._census(window))
    assert (v, b, t) == (int(code != 0), int(code == invariants._BLOCK_MASK),
                         int(code in invariants._TUNNEL_MASKS))
    # Gray's E8 = (Q1 - Q3 - 2 QD) / 4, told from the pixels' geometry alone;
    # p counts each pixel at its four corners, so a point holds n / 4 of it
    n = len(pixels)
    diagonal = n == 2 and pixels[0][0] != pixels[1][0] and pixels[0][1] != pixels[1][1]
    e8_quarters = {1: 1, 3: -1}.get(n, 0) - 2 * diagonal
    # the point's share of t - v + 2p + 2 E8 - b, times 4
    assert 4 * t - 4 * v + 2 * n + 2 * e8_quarters - 4 * b == 0
    # the tracker's insertion table is built from the same masks in the same layout
    assert incremental._TUNNEL_MASKS is invariants._TUNNEL_MASKS
    assert incremental._BLOCK_MASK == invariants._BLOCK_MASK
    tracker = Tracker(pixels)
    assert (tracker.b, tracker.t) == (b, t)


def test_exhaustive_3x3_smoke():
    cells = [(x, y) for y in range(3) for x in range(3)]
    for mask in range(512):
        o = DigitalObject(cells[i] for i in range(9) if mask >> i & 1)
        rep = analyze(o)
        assert rep.consistent, f"subset {mask:#05x}"


# --- the batch engine --------------------------------------------------------

def _slice_pixels(mask):
    return {(int(col), int(row)) for row, col in np.argwhere(mask)}


def _assert_batch_matches(stack):
    reports = invariants.analyze_batch(stack)
    assert len(reports) == len(stack)
    for mask, rep in zip(stack, reports):
        assert rep == analyze(DigitalObject.from_mask(mask))
        expected = oracles.report(_slice_pixels(mask))
        assert {key: getattr(rep, key) for key in expected} == expected
        assert rep.consistent


@st.composite
def mask_stacks(draw):
    """An (N, H, W) boolean stack, N <= 12 and H, W <= 8, holding an all-true
    slice and an all-false slice with a non-empty slice on either side."""
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = st.lists(st.booleans(), min_size=height * width, max_size=height * width)

    def masks(lo, hi):
        drawn = draw(st.lists(cells, min_size=lo, max_size=hi))
        return [np.array(m, dtype=bool).reshape(height, width) for m in drawn]

    left, right = masks(0, 4), masks(1, 6)
    right[0].flat[draw(st.integers(0, height * width - 1))] = True
    ones = np.ones((height, width), dtype=bool)
    zeros = np.zeros((height, width), dtype=bool)
    return np.stack(left + [ones, zeros] + right)


@given(mask_stacks())
@settings(max_examples=200)
def test_analyze_batch_matches_oracles_and_analyze(stack):
    _assert_batch_matches(stack)


def test_analyze_batch_of_no_masks_is_empty():
    assert invariants.analyze_batch(np.zeros((0, 3, 4), dtype=bool)) == []


@pytest.mark.parametrize("shape", [(3, 0, 4), (2, 5, 0), (1, 0, 0)])
def test_analyze_batch_of_empty_slices(shape):
    assert invariants.analyze_batch(np.zeros(shape, dtype=bool)) == [analyze(obj([]))] * shape[0]


@pytest.mark.parametrize("shape", [(3, 3), (1, 2, 3, 3), (4,)])
def test_analyze_batch_rejects_non_3d_input(shape):
    with pytest.raises(ValueError, match="3-D"):
        invariants.analyze_batch(np.ones(shape, dtype=bool))


def test_analyze_batch_reads_integers_as_booleans():
    stack = np.array([[[2, 0, 0], [0, -1, 0], [0, 0, 7]], [[0, 0, 0], [0, 0, 0], [0, 0, 3]]])
    reports = invariants.analyze_batch(stack)
    assert reports == [analyze(DigitalObject.from_mask(mask)) for mask in stack]
    assert reports == invariants.analyze_batch(stack != 0)
    assert (reports[0].p, reports[0].c0, reports[0].t_direct) == (3, 1, 2)


def test_analyze_batch_refuses_a_stack_over_the_raster_limit():
    # a zero-stride view: 100,010,000 cells that take no memory until copied
    stack = np.broadcast_to(np.zeros((1, 1, 1), dtype=bool), (1, 10_000, 10_001))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^box 10001x10000 exceeds the raster limit"):
            invariants.analyze_batch(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the padded stack alone would take 100 MB


@pytest.mark.parametrize("limit", [24, 23])
def test_analyze_batch_reads_the_raster_limit_at_call_time(limit, monkeypatch):
    stack = np.ones((2, 3, 4), dtype=bool)  # 24 cells
    monkeypatch.setattr(grid, "MAX_RASTER_CELLS", limit)
    if limit >= stack.size:
        assert invariants.analyze_batch(stack) == [analyze(DigitalObject.from_mask(stack[0]))] * 2
    else:
        with pytest.raises(ValueError, match="^stack of 2 4x3 boxes exceeds .* of 23 cells"):
            invariants.analyze_batch(stack)


def test_analyze_batch_returns_plain_ints():
    (rep,) = invariants.analyze_batch(np.eye(3, dtype=bool)[None])
    counters = ("p", "v", "c0", "c1", "h", "b", "t_direct", "t_formula")
    assert all(type(getattr(rep, key)) is int for key in counters)
    assert type(rep.consistent) is bool


# --- the labeller ------------------------------------------------------------

class _FindsNothing:
    def __init__(self, path, *loader_details):
        pass

    def find_spec(self, fullname, target=None):
        return None


def test_a_scipy_without_the_compiled_labeller_fails_at_the_first_labelling(monkeypatch):
    monkeypatch.delitem(sys.modules, invariants._NI_LABEL, raising=False)
    monkeypatch.setattr(invariants, "FileFinder", _FindsNothing)
    monkeypatch.setattr(invariants, "ndi", type(invariants.ndi)())
    with pytest.raises(ModuleNotFoundError, match="'scipy.ndimage._ni_label'") as raised:
        analyze(DigitalObject(DIAMOND))
    assert raised.value.name == invariants._NI_LABEL
    assert invariants._NI_LABEL not in sys.modules


def test_without_scipy_the_first_labelling_raises(monkeypatch):
    for name in ("scipy", "scipy.ndimage", invariants._NI_LABEL):
        monkeypatch.setitem(sys.modules, name, None)  # as if not installed
    monkeypatch.setattr(invariants, "ndi", type(invariants.ndi)())
    diamond = DigitalObject(DIAMOND)
    assert count_vertices(diamond) == 12
    with pytest.raises(ModuleNotFoundError, match="'scipy'"):
        analyze(diamond)


def test_the_labeller_stand_in_has_only_label():
    with pytest.raises(AttributeError):
        type(invariants.ndi)().find_objects
