import numpy as np
import pytest
from hypothesis import given, strategies as st

from pixtopo import Adjacency, DigitalObject, are_adjacent, corners, from_pixels, neighbors

coords = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


def test_corners_origin():
    assert corners((0, 0)) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_corners_translated():
    assert corners((1, 0)) == {(1, 0), (2, 0), (1, 1), (2, 1)}


def test_corners_negative():
    assert corners((-1, -1)) == {(-1, -1), (0, -1), (-1, 0), (0, 0)}


def test_neighbors_one():
    assert neighbors((0, 0), Adjacency.ONE) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_neighbors_zero():
    expected = {(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)} - {(0, 0)}
    assert neighbors((0, 0), Adjacency.ZERO) == expected


def test_diagonal_neighbors_are_the_difference():
    diff = neighbors((5, 5), Adjacency.ZERO) - neighbors((5, 5), Adjacency.ONE)
    assert diff == {(4, 4), (6, 4), (4, 6), (6, 6)}


def test_from_pixels_empty():
    assert len(from_pixels([])) == 0
    assert not from_pixels([])


def test_from_pixels_dedup():
    assert len(from_pixels([(0, 0), (0, 0)])) == 1


@pytest.mark.parametrize("pixels", [[(0.7, 0), (0, 0)], [(0, 0), (1, 2.0)], [("1", 0)]])
def test_non_integral_coordinates_are_rejected(pixels):
    with pytest.raises(TypeError):
        from_pixels(pixels)


@pytest.mark.parametrize("pixels", [[(True, 0), (1, 0)], [(0, False)]])
def test_bool_coordinates_are_rejected(pixels):
    # operator.index(True) is 1, so (True, 0) would silently be (1, 0)
    with pytest.raises(TypeError, match="bool"):
        DigitalObject(pixels)


def test_numpy_integer_coordinates_are_accepted():
    obj = from_pixels([(np.int64(1), np.int32(2)), (np.uint8(0), 0)])
    assert obj == from_pixels([(1, 2), (0, 0)])
    assert all(type(c) is int for p in obj for c in p)


def test_from_pixels_diamond():
    obj = from_pixels([(1, 0), (0, 1), (2, 1), (1, 2)])
    assert len(obj) == 4
    assert (1, 0) in obj and (1, 1) not in obj


def test_bounding_box():
    assert from_pixels([]).bounding_box() is None
    assert from_pixels([(0, 0)]).bounding_box() == ((0, 0), (0, 0))
    assert from_pixels([(1, 0), (0, 1), (2, 1), (1, 2)]).bounding_box() == ((0, 0), (2, 2))


def test_iteration_is_sorted_by_row_then_column():
    obj = from_pixels([(2, 1), (0, 1), (1, 0), (1, 2)])
    assert list(obj) == [(1, 0), (0, 1), (2, 1), (1, 2)]


def test_equality_and_hash():
    a = from_pixels([(0, 0), (1, 1)])
    b = from_pixels([(1, 1), (0, 0), (0, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != from_pixels([(0, 0)])


# --- mask-backed objects ------------------------------------------------------

def test_from_mask_cell_convention_and_trimming():
    mask = np.zeros((4, 5), dtype=bool)
    mask[1, 2] = mask[2, 3] = True
    obj = DigitalObject.from_mask(mask, origin=(10, -7))
    # cell [row, col] is pixel (ox + col, oy + row); empty rows and columns drop
    assert obj == from_pixels([(12, -6), (13, -5)])
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
    assert obj == from_pixels([(1, 1)])
    assert len(obj) == 1 and obj.bounding_box() == ((1, 1), (1, 1))


def test_mask_backed_iteration_yields_plain_ints():
    obj = DigitalObject.from_mask(np.eye(3, dtype=bool), origin=(np.int64(-1), 2))
    assert list(obj) == [(-1, 2), (0, 3), (1, 4)]
    assert all(type(c) is int for p in obj for c in p)
    assert all(type(c) is int for p in obj.pixels for c in p)


def test_translate():
    obj = from_pixels([(0, 0), (1, 1)]).translate(-3, 2)
    assert obj.pixels == {(-3, 2), (-2, 3)}


@given(coords, coords)
def test_one_adjacent_implies_zero_adjacent(p, q):
    if are_adjacent(p, q, Adjacency.ONE):
        assert are_adjacent(p, q, Adjacency.ZERO)


@given(coords, coords)
def test_shared_corner_count_matches_adjacency_class(p, q):
    shared = len(corners(p) & corners(q))
    if p == q:
        assert shared == 4
    elif are_adjacent(p, q, Adjacency.ONE):
        assert shared == 2
    elif are_adjacent(p, q, Adjacency.ZERO):
        assert shared == 1
    else:
        assert shared == 0


@given(coords, coords, st.sampled_from([Adjacency.ZERO, Adjacency.ONE]))
def test_neighbors_symmetric(p, q, adjacency):
    assert (q in neighbors(p, adjacency)) == (p in neighbors(q, adjacency))


@given(coords, st.sampled_from([Adjacency.ZERO, Adjacency.ONE]))
def test_neighbor_count_and_self_exclusion(p, adjacency):
    ns = neighbors(p, adjacency)
    assert len(ns) == (8 if adjacency is Adjacency.ZERO else 4)
    assert p not in ns
