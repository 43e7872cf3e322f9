import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pixtopo import Adjacency, DigitalObject, Tracker, analyze, analyze_batch, corners
from pixtopo.incremental import COORD_BOUND

coords = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


def test_corners_origin():
    assert corners((0, 0)) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_corners_translated():
    assert corners((1, 0)) == {(1, 0), (2, 0), (1, 1), (2, 1)}


def test_corners_negative():
    assert corners((-1, -1)) == {(-1, -1), (0, -1), (-1, 0), (0, 0)}


def test_neighbors_one():
    assert set(Adjacency.ONE.offsets) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_neighbors_zero():
    expected = {(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)} - {(0, 0)}
    assert set(Adjacency.ZERO.offsets) == expected


def test_diagonal_neighbors_are_the_difference():
    diff = set(Adjacency.ZERO.offsets) - set(Adjacency.ONE.offsets)
    assert diff == {(-1, -1), (1, -1), (-1, 1), (1, 1)}


def test_from_pixels_empty():
    assert len(DigitalObject([])) == 0
    assert not DigitalObject([])


def test_from_pixels_dedup():
    assert len(DigitalObject([(0, 0), (0, 0)])) == 1


@pytest.mark.parametrize("pixels", [[(0.7, 0), (0, 0)], [(0, 0), (1, 2.0)], [("1", 0)]])
def test_non_integral_coordinates_are_rejected(pixels):
    with pytest.raises(TypeError):
        DigitalObject(pixels)


@pytest.mark.parametrize("pixels", [[(True, 0), (1, 0)], [(0, False)]])
def test_bool_coordinates_are_rejected(pixels):
    # operator.index(True) is 1, so (True, 0) would silently be (1, 0)
    with pytest.raises(TypeError, match="bool"):
        DigitalObject(pixels)


def test_numpy_integer_coordinates_are_accepted():
    obj = DigitalObject([(np.int64(1), np.int32(2)), (np.uint8(0), 0)])
    assert obj == DigitalObject([(1, 2), (0, 0)])
    assert all(type(c) is int for p in obj for c in p)


def test_from_pixels_diamond():
    obj = DigitalObject([(1, 0), (0, 1), (2, 1), (1, 2)])
    assert len(obj) == 4
    assert (1, 0) in obj and (1, 1) not in obj


def test_bounding_box():
    assert DigitalObject([]).bounding_box() is None
    assert DigitalObject([(0, 0)]).bounding_box() == ((0, 0), (0, 0))
    assert DigitalObject([(1, 0), (0, 1), (2, 1), (1, 2)]).bounding_box() == ((0, 0), (2, 2))


def test_iteration_is_sorted_by_row_then_column():
    obj = DigitalObject([(2, 1), (0, 1), (1, 0), (1, 2)])
    assert list(obj) == [(1, 0), (0, 1), (2, 1), (1, 2)]


def test_equality_and_hash():
    a = DigitalObject([(0, 0), (1, 1)])
    b = DigitalObject([(1, 1), (0, 0), (0, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != DigitalObject([(0, 0)])


# --- objects from masks -------------------------------------------------------

def test_from_mask_cell_convention_and_trimming():
    mask = np.zeros((4, 5), dtype=bool)
    mask[1, 2] = mask[2, 3] = True
    obj = DigitalObject.from_mask(mask, origin=(10, -7))
    # cell [row, col] is pixel (ox + col, oy + row); empty rows and columns drop
    assert obj == DigitalObject([(12, -6), (13, -5)])
    assert obj.bounding_box() == ((12, -6), (13, -5))
    assert list(obj) == [(12, -6), (13, -5)]
    assert len(obj) == 2 and obj


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0), (3, 4)])
def test_from_mask_without_pixels_is_the_empty_object(shape):
    obj = DigitalObject.from_mask(np.zeros(shape, dtype=bool), origin=(5, 5))
    assert obj == DigitalObject()
    assert not obj and len(obj) == 0 and list(obj) == []
    assert obj.bounding_box() is None


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
def test_from_mask_rejects_non_2d_masks(shape):
    with pytest.raises(ValueError, match="2-D"):
        DigitalObject.from_mask(np.ones(shape, dtype=bool))


def test_from_mask_rejects_non_integral_origin():
    with pytest.raises(TypeError):
        DigitalObject.from_mask(np.ones((1, 1), dtype=bool), origin=(0.5, 0))


@pytest.mark.parametrize("origin", [(True, 0), (0, False)])
def test_from_mask_rejects_bool_origin(origin):
    with pytest.raises(TypeError, match="bool"):
        DigitalObject.from_mask(np.ones((1, 1), dtype=bool), origin=origin)


def test_from_mask_copies_its_input():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    obj = DigitalObject.from_mask(mask)
    mask[:] = True
    assert obj == DigitalObject([(1, 1)])
    assert len(obj) == 1 and obj.bounding_box() == ((1, 1), (1, 1))


def test_from_mask_reads_a_bool_view_of_other_bytes():
    # numpy reads any nonzero byte of a bool array as True
    mask = np.array([[2, 1], [0, 2]], dtype=np.uint8).view(bool)
    obj = DigitalObject.from_mask(mask)
    expected = DigitalObject([(0, 0), (1, 0), (1, 1)])
    assert obj == expected and hash(obj) == hash(expected)
    assert analyze(obj) == analyze(expected)
    assert analyze_batch(mask[None]) == [analyze(expected)]


def test_mask_backed_iteration_yields_plain_ints():
    obj = DigitalObject.from_mask(np.eye(3, dtype=bool), origin=(np.int64(-1), 2))
    assert list(obj) == [(-1, 2), (0, 3), (1, 4)]
    assert all(type(c) is int for p in obj for c in p)
    assert all(type(c) is int for p in obj.pixels for c in p)


def test_translate():
    obj = DigitalObject([(0, 0), (1, 1)]).translate(-3, 2)
    assert obj.pixels == {(-3, 2), (-2, 3)}
    assert DigitalObject([(0, 0)]).translate(np.int64(2), np.int8(-1)) == DigitalObject([(2, -1)])


@pytest.mark.parametrize("shift", [(True, 0), (0, False), (0.5, 0), (0, 1.0), ("1", 0)])
def test_translate_refuses_shifts_that_are_not_integers(shift):
    # translate(True, 0) would silently shift by one
    with pytest.raises(TypeError):
        DigitalObject([(0, 0)]).translate(*shift)


_PROBES = [
    ((1, 0), True),
    ((np.int64(1), np.int8(0)), True),
    ((True, 0), False),
    ((1, False), False),
    ((1.0, 0), False),
    ((1, 0.0), False),
    ([1, 0], False),
    ((1, 0, 0), False),
    ("10", False),
    (None, False),
]


@pytest.mark.parametrize("container", [DigitalObject, Tracker])
@pytest.mark.parametrize("probe, member", _PROBES)
def test_membership_is_the_same_in_object_and_tracker(container, probe, member):
    assert (probe in container([(1, 0)])) is member


# where the first line of an axis goes: near the origin, at the int64
# edges (so one axis mixes int64 and wider coordinates) or far beyond them
_axis_starts = st.one_of(
    st.integers(-10**6, 10**6),
    st.sampled_from([2**63 - 12, -(2**63) - 3, 10**30, -(10**30)]),
)


@st.composite
def gappy_pixel_sets(draw):
    """Up to 20 pixels on a 7x7 lattice whose consecutive lines lie 1 to 4
    apart: adjacent, one empty line between, or a run of two or three."""
    cells = draw(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20))
    at = []
    for _ in range(2):
        steps = draw(st.lists(st.integers(1, 4), min_size=6, max_size=6))
        at.append(np.cumsum([draw(_axis_starts)] + steps, dtype=object).tolist())
    return {(at[0][x], at[1][y]) for x, y in cells}


def _probes(pixels):
    """Every pixel and the 24 points within two lines of it on both axes."""
    return {(x + dx, y + dy) for x, y in pixels for dx in range(-2, 3) for dy in range(-2, 3)}


def _assert_is_the_set(o, pixels):
    assert list(o) == sorted(pixels, key=lambda p: (p[1], p[0]))
    assert o.pixels == pixels and len(o) == len(pixels) and bool(o) == bool(pixels)
    assert all((q in o) == (q in pixels) for q in _probes(pixels))
    if pixels:
        xs, ys = [x for x, _ in pixels], [y for _, y in pixels]
        assert o.bounding_box() == ((min(xs), min(ys)), (max(xs), max(ys)))
    else:
        assert o.bounding_box() is None


@given(gappy_pixel_sets(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_object_behaves_as_its_pixel_set(pixels, rnd):
    listed = list(pixels) * 2
    rnd.shuffle(listed)
    o = DigitalObject(listed)
    _assert_is_the_set(o, pixels)
    same = DigitalObject(reversed(listed))
    assert o == same and hash(o) == hash(same)
    if pixels:
        (x0, y0), (x1, y1) = o.bounding_box()
        mask = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
        for x, y in pixels:
            mask[y - y0, x - x0] = True
        m = DigitalObject.from_mask(mask, origin=(x0, y0))
        assert m == o and hash(m) == hash(o)
        _assert_is_the_set(m, pixels)
        # one pixel less, or one more next to the box, is another object
        fewer = pixels - {min(pixels)}
        assert DigitalObject(fewer) != o
        assert DigitalObject(pixels | {(x1 + 1, y1)}) != o
    if all(abs(c) < COORD_BOUND for p in pixels for c in p):
        order = sorted(pixels)
        rnd.shuffle(order)
        t = Tracker(order).as_object()
        assert t == o and hash(t) == hash(o)
        _assert_is_the_set(t, pixels)


def _step(p, q):
    return q[0] - p[0], q[1] - p[1]


@given(coords, coords)
def test_one_adjacent_implies_zero_adjacent(p, q):
    if _step(p, q) in Adjacency.ONE.offsets:
        assert _step(p, q) in Adjacency.ZERO.offsets


@given(coords, coords)
def test_shared_corner_count_matches_adjacency_class(p, q):
    shared = len(corners(p) & corners(q))
    if p == q:
        assert shared == 4
    elif _step(p, q) in Adjacency.ONE.offsets:
        assert shared == 2
    elif _step(p, q) in Adjacency.ZERO.offsets:
        assert shared == 1
    else:
        assert shared == 0


@given(coords, coords, st.sampled_from([Adjacency.ZERO, Adjacency.ONE]))
def test_neighbors_symmetric(p, q, adjacency):
    assert (_step(p, q) in adjacency.offsets) == (_step(q, p) in adjacency.offsets)


@given(st.sampled_from([Adjacency.ZERO, Adjacency.ONE]))
def test_neighbor_count_and_self_exclusion(adjacency):
    assert len(set(adjacency.offsets)) == (8 if adjacency is Adjacency.ZERO else 4)
    assert (0, 0) not in adjacency.offsets
