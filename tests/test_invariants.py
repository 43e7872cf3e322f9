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
    count_pixels,
    count_tunnels_direct,
    count_vertices,
    curve_report,
    generate_random,
    has_separating_tunnels,
    is_k_separating,
    is_tunnel_free,
    tunnels_by_formula,
)
from pixtopo import invariants


small_objects = st.builds(
    DigitalObject,
    st.sets(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), max_size=36),
)


def obj(pixels):
    return DigitalObject(pixels)


# --- individual counters on the canonical fixtures -------------------------

def test_count_pixels():
    assert count_pixels(obj([])) == 0
    assert count_pixels(obj([(0, 0)])) == 1
    assert count_pixels(obj(DIAMOND)) == 4


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


# is_k_separating rasterizes a set-backed remainder, whatever its arguments
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
    set_backed, mask_backed = obj(DIAMOND), DigitalObject.from_mask(mask)
    monkeypatch.setattr(invariants, "rasterize", counted_rasterize)
    monkeypatch.setattr(DigitalObject, "bounding_box", counted_bounding_box)
    # a set-backed object finds its lines in one pass over its pixels, so no
    # box is computed; a mask-backed one reads the box it already holds
    fn(set_backed)
    assert calls == {"rasterize": 1, "bounding_box": 0}
    fn(mask_backed)
    assert calls == {"rasterize": 2, "bounding_box": 1}


@pytest.mark.parametrize("fn, far_answer", _COUNTERS)
def test_raster_functions_refuse_oversized_boxes(fn, far_answer):
    # runs of empty lines are squeezed, so distance alone costs nothing
    assert fn(_FAR) == far_answer
    # single empty lines are kept: 6000 diagonal pixels spaced by one cell
    # still span 11999 x 11999 cells, over the limit
    diagonal = obj([(2 * i, 2 * i) for i in range(6_000)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^box \d+x\d+ exceeds the raster limit"):
            fn(diagonal)
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


# --- the two representations of an object ---------------------------------

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
    # none of the above builds the pixel set of a mask-backed object
    assert m._pixels is None or not m
    for alpha in (Adjacency.ZERO, Adjacency.ONE):
        assert curve_report(m, alpha) == curve_report(s, alpha)
    assert m == s and hash(m) == hash(s)
    for x in range(ox - 1, ox + width + 1):
        for y in range(oy - 1, oy + height + 1):
            assert ((x, y) in m) == ((x, y) in s)


def test_exhaustive_3x3_smoke():
    cells = [(x, y) for y in range(3) for x in range(3)]
    for mask in range(512):
        o = DigitalObject(cells[i] for i in range(9) if mask >> i & 1)
        rep = analyze(o)
        assert rep.consistent, f"subset {mask:#05x}"
