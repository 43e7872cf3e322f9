"""Pixels, lattice corners, adjacency and the digital object container.

A pixel is the unit grid square whose lower-left corner sits at an integer
lattice point (x, y); we identify the pixel with that point.  Two pixels are
0-adjacent when they share at least a corner (8-neighborhood) and 1-adjacent
when they share an edge (4-neighborhood).  Everything else in the package is
built on the small vocabulary defined here.

A ``DigitalObject`` is its squeezed raster and nothing else: a read-only
boolean mask over its tight bounding box in which every run of two or more
fully empty rows or columns is one empty line, plus the x of each column
and the y of each row.  The squeeze changes no counter (see
``invariants``), so ``analyze`` reads the mask as it is, and the memory of
an object follows its distinct occupied rows and columns rather than their
distance.  One gap rule, ``_kept``, chooses the lines to keep, whether
``from_mask`` reads the occupied lines off a mask or ``DigitalObject(pixels)``
and ``Tracker.as_object`` hand over pixel coordinates.
"""

from __future__ import annotations

from enum import IntEnum
from operator import index
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

Pixel = Tuple[int, int]

# Neighbor offsets, fixed order (E, NE, N, NW, W, SW, S, SE).
OFFSETS_8: Tuple[Pixel, ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)
OFFSETS_4: Tuple[Pixel, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))

# Hard ceiling on the cells of an object's squeezed raster.
MAX_RASTER_CELLS = 100_000_000

# The int64 range: line coordinates beyond it are kept as Python ints.
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


class Adjacency(IntEnum):
    """Pixel adjacency relation: ZERO shares a corner, ONE shares an edge."""

    ZERO = 0
    ONE = 1

    @property
    def offsets(self) -> Tuple[Pixel, ...]:
        return OFFSETS_8 if self is Adjacency.ZERO else OFFSETS_4


def corners(p: Pixel) -> frozenset:
    """The 4 lattice points at the corners of pixel p = (x, y)."""
    x, y = p
    return frozenset(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))


def _pixel(x, y) -> Pixel:
    """(x, y) converted with ``operator.index``, which refuses floats and
    strings.  A bool is refused too: index(True) is 1, so it would pass."""
    if x.__class__ is bool or y.__class__ is bool:
        raise TypeError(f"pixel coordinates must be integers, not bool: ({x!r}, {y!r})")
    return index(x), index(y)


def _member(p: object) -> Optional[Pixel]:
    """``p`` as a pixel when it is a pair of integers, else None.

    The membership test of ``DigitalObject`` and ``Tracker``: anything
    ``_pixel`` refuses, or that is not a 2-tuple, is never a member.
    """
    if not (isinstance(p, tuple) and len(p) == 2):
        return None
    try:
        return _pixel(*p)
    except TypeError:
        return None


def _check_raster_size(width: int, height: int, count: int = 1) -> None:
    """Raise ValueError when ``count`` boxes of width x height exceed MAX_RASTER_CELLS."""
    if count * width * height > MAX_RASTER_CELLS:
        box = f"{width}x{height}"
        boxes = f"stack of {count} {box} boxes" if count > 1 else f"box {box}"
        raise ValueError(f"{boxes} exceeds the raster limit of {MAX_RASTER_CELLS} cells")


# ---------------------------------------------------------------------------
# the squeeze

def _kept(occupied: np.ndarray) -> np.ndarray:
    """The coordinates of the lines the squeezed raster keeps along one axis.

    ``occupied`` holds the occupied lines' coordinates, increasing.  Each is
    kept, and a gap between two of them, one empty line or a run of many,
    keeps one empty line, at the coordinate after the last occupied one.
    """
    if not occupied.size or occupied[0] + (occupied.size - 1) == occupied[-1]:
        return occupied  # no gap at all
    before = occupied[:-1]
    # c[i + 1] - 1, unlike c[i + 1] - c[i], cannot leave int64
    kept = np.concatenate((occupied, before[occupied[1:] - 1 != before] + 1))
    kept.sort()
    return kept


def _line_array(at: List[int]) -> np.ndarray:
    """Integers as int64, or as Python ints in an object array once they leave int64."""
    try:
        return np.array(at, dtype=np.int64)
    except OverflowError:
        return np.array(at, dtype=object)


def _shifted(lines: np.ndarray, shift: int) -> np.ndarray:
    """The increasing coordinates ``lines + shift``, typed as ``_line_array`` types them."""
    first, last = int(lines[0]) + shift, int(lines[-1]) + shift
    if lines.dtype != object and _I64_MIN <= min(first, shift) and max(last, shift) <= _I64_MAX:
        return lines + shift
    return _line_array((lines.astype(object) + shift).tolist())


# (read-only mask, x of each column, y of each row); the empty one has nothing to write
_Raster = Tuple[np.ndarray, np.ndarray, np.ndarray]
_EMPTY: _Raster = (np.zeros((0, 0), dtype=bool), np.zeros(0, np.int64), np.zeros(0, np.int64))


def _squeezed(mask: np.ndarray, ox: int, oy: int) -> _Raster:
    """The raster of the pixels (ox + col, oy + row) set in a 2-D mask.

    Raises ValueError, before copying the kept lines, when the squeezed box
    exceeds ``MAX_RASTER_CELLS``.
    """
    # logical_or.reduce is any() without its wrapper, which costs small masks
    rows = _kept(np.logical_or.reduce(mask, axis=1).nonzero()[0])
    if not rows.size:
        return _EMPTY
    cols = _kept(np.logical_or.reduce(mask, axis=0).nonzero()[0])
    _check_raster_size(cols.size, rows.size)
    # a tight box with nothing to squeeze stays a view until the one copy
    box = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    if box.shape != (rows.size, cols.size):
        box = mask[rows][:, cols]
    # unlike a plain copy, the comparison stores 0 or 1 in every byte
    squeezed = np.not_equal(box, False)
    squeezed.flags.writeable = False
    return squeezed, _shifted(cols, ox), _shifted(rows, oy)


def _raster(xs: np.ndarray, ys: np.ndarray) -> _Raster:
    """The raster of the pixels (xs[i], ys[i]), typed as ``_line_array`` types
    them; repeats are allowed.

    When the tight box has at most 64 cells per coordinate and is within
    ``MAX_RASTER_CELLS``, the pixels are written into a mask of the box for
    ``_squeezed``, which is fast and takes memory linear in the input.  A
    larger box may squeeze to far less, so otherwise each axis's coordinates
    are sorted and squeezed, and only the squeezed box is allocated, after
    the limit check.
    """
    if not xs.size:
        return _EMPTY
    x0, y0 = int(np.minimum.reduce(xs)), int(np.minimum.reduce(ys))
    width, height = int(np.maximum.reduce(xs)) - x0 + 1, int(np.maximum.reduce(ys)) - y0 + 1
    if width * height <= min(64 * xs.size, MAX_RASTER_CELLS):
        box = np.zeros((height, width), dtype=bool)
        box[(ys - y0).astype(np.intp, copy=False), (xs - x0).astype(np.intp, copy=False)] = True
        return _squeezed(box, x0, y0)
    cols, rows = _kept(np.unique(xs)), _kept(np.unique(ys))
    _check_raster_size(cols.size, rows.size)
    mask = np.zeros((rows.size, cols.size), dtype=bool)
    mask[rows.searchsorted(ys), cols.searchsorted(xs)] = True
    mask.flags.writeable = False
    return mask, cols, rows


class DigitalObject:
    """A finite set of pixels, the universe of every computation here.

    Immutable after construction; safe to share between threads.  Iteration
    is deterministic, sorted by (y, x), so reports built from the same pixels
    always come out identical.  Coordinates must be integers (anything
    ``operator.index`` accepts, such as numpy integers); floats, strings
    and bools raise TypeError.

    The object is its squeezed raster (see the module docstring) and holds
    nothing else: a read-only mask, the x of each of its columns and the y
    of each of its rows, all three canonical for the pixels, so ``==`` and
    ``hash`` compare them.  ``len``, ``bool``, iteration, ``bounding_box``,
    ``in`` and every counter read them directly; ``pixels`` builds a new
    frozenset of pixel tuples on each call.  Construction raises
    ValueError, before the raster is allocated, when the squeezed box
    exceeds ``MAX_RASTER_CELLS``.
    """

    __slots__ = ("_mask", "_xs", "_ys")

    def __init__(self, pixels: Iterable[Pixel] = ()):
        xs, ys = [], []
        for x, y in pixels:
            # a plain int passes _pixel unchanged, so only others take the call
            if x.__class__ is not int or y.__class__ is not int:
                x, y = _pixel(x, y)
            xs.append(x)
            ys.append(y)
        self._mask, self._xs, self._ys = _raster(_line_array(xs), _line_array(ys))

    @classmethod
    def _from_raster(cls, mask: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> "DigitalObject":
        """The object whose squeezed raster is (mask, xs, ys), taken as it is."""
        obj = cls.__new__(cls)
        obj._mask, obj._xs, obj._ys = mask, xs, ys
        return obj

    @classmethod
    def _from_coords(cls, xs: np.ndarray, ys: np.ndarray) -> "DigitalObject":
        """The object of the pixels (xs[i], ys[i]), as ``_raster`` takes them, unchecked."""
        return cls._from_raster(*_raster(xs, ys))

    @classmethod
    def from_mask(cls, mask: np.ndarray, origin: Pixel = (0, 0)) -> "DigitalObject":
        """The object whose pixel (ox + col, oy + row) is set where mask[row, col] is.

        ``mask`` must be 2-D; it is read as booleans, squeezed and copied, so
        later writes to it do not reach the object.  An all-false or empty
        mask gives the empty object.  Raises ValueError, before the copy,
        when the squeezed box exceeds ``MAX_RASTER_CELLS``.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got {mask.ndim}-D")
        ox, oy = origin
        ox, oy = _pixel(ox, oy)
        return cls._from_raster(*_squeezed(mask, ox, oy))

    @property
    def pixels(self) -> frozenset:
        """A new frozenset of the pixel tuples, built on each call."""
        return frozenset(self)

    def __contains__(self, p: object) -> bool:
        p = _member(p)
        if p is None or not self:
            return False
        x, y = p
        xs, ys = self._xs, self._ys
        if not (xs[0] <= x <= xs[-1] and ys[0] <= y <= ys[-1]):
            return False
        col, row = xs.searchsorted(x), ys.searchsorted(y)
        return xs[col] == x and ys[row] == y and bool(self._mask[row, col])

    def __len__(self) -> int:
        return int(np.count_nonzero(self._mask))

    def __bool__(self) -> bool:
        return self._xs.size > 0

    def __iter__(self) -> Iterator[Pixel]:
        rows, cols = np.nonzero(self._mask)
        return zip(self._xs[cols].tolist(), self._ys[rows].tolist())

    def _key(self) -> tuple:
        return self._mask.tobytes(), tuple(self._xs.tolist()), tuple(self._ys.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DigitalObject):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"DigitalObject({len(self)} pixels)"

    def bounding_box(self) -> Optional[Tuple[Pixel, Pixel]]:
        """Tight ((xmin, ymin), (xmax, ymax)) over pixel coords; None if empty."""
        if not self:
            return None
        xs, ys = self._xs, self._ys
        return (int(xs[0]), int(ys[0])), (int(xs[-1]), int(ys[-1]))

    def _to_mask(self, origin: Pixel, shape: Tuple[int, int]) -> np.ndarray:
        """A new boolean mask of ``shape`` (rows, cols) whose cell [0, 0] is ``origin``.

        Cell [row, col] is pixel (ox + col, oy + row), as in ``from_mask``:
        the squeezed raster expanded to the window.  The window must hold the
        whole object, which callers ensure by deriving it from
        ``bounding_box``; nothing checks this.
        """
        ox, oy = origin
        out = np.zeros(shape, dtype=bool)
        rows = (self._ys - oy).astype(np.intp)
        out[np.ix_(rows, (self._xs - ox).astype(np.intp))] = self._mask
        return out

    def translate(self, dx: int, dy: int) -> "DigitalObject":
        """A copy shifted by (dx, dy)."""
        dx, dy = _pixel(dx, dy)
        if not self:
            return self
        return DigitalObject._from_raster(
            self._mask, _shifted(self._xs, dx), _shifted(self._ys, dy)
        )
