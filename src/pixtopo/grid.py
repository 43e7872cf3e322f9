"""Pixels, lattice corners, adjacency and the digital object container.

A pixel is the unit grid square whose lower-left corner sits at an integer
lattice point (x, y); we identify the pixel with that point.  Two pixels are
0-adjacent when they share at least a corner (8-neighborhood) and 1-adjacent
when they share an edge (4-neighborhood).  Everything else in the package is
built on the small vocabulary defined here.

A ``DigitalObject`` is its squeezed raster: a read-only boolean mask over
its tight bounding box in which every run of two or more fully empty rows or
columns is one empty line, plus the x of each column and the y of each row.
The squeeze changes no counter (see ``invariants``), so ``analyze`` reads
the mask as it is, and the memory of an object follows its distinct
occupied rows and columns rather than their distance.  ``DigitalObject``
and ``DigitalObject.from_mask`` build the same raster from the same pixels,
and the frozenset of pixel tuples is built only by the operations that need
it.
"""

from __future__ import annotations

from enum import IntEnum
from operator import index
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
# line coordinates

def _lines(coords: Iterable[int]) -> Tuple[Dict[int, int], List[int]]:
    """Mask line of each distinct coordinate along one axis, and each line's coordinate.

    Occupied coordinates take lines 0, 1, ... in order; a gap between two of
    them, whether one empty line or a run of many, becomes one empty line at
    the coordinate after the last occupied one.
    """
    line_of: Dict[int, int] = {}
    at: List[int] = []
    for c in sorted(set(coords)):
        if at and c != at[-1] + 1:
            at.append(at[-1] + 1)
        line_of[c] = len(at)
        at.append(c)
    return line_of, at


def _kept_lines(occupied: np.ndarray) -> np.ndarray:
    """Indices of the lines the squeezed raster keeps, given each line's occupancy.

    The numpy form of ``_lines``: every occupied line, and the line after
    each occupied one up to the last, so a gap keeps its first empty line.
    """
    keep = occupied.copy()
    keep[1:] |= occupied[:-1]
    lines = np.flatnonzero(keep)
    return lines[:-1] if lines.size and not occupied[lines[-1]] else lines


def _line_array(at: List[int]) -> np.ndarray:
    """Increasing line coordinates as int64, or as Python ints in an object
    array once they leave int64."""
    if _I64_MIN <= at[0] and at[-1] <= _I64_MAX:
        return np.array(at, dtype=np.int64)
    return np.array(at, dtype=object)


def _shifted(lines: np.ndarray, shift: int) -> np.ndarray:
    """The increasing coordinates ``lines + shift``, typed as ``_line_array`` types them."""
    first, last = int(lines[0]) + shift, int(lines[-1]) + shift
    if (
        lines.dtype != object
        and _I64_MIN <= shift <= _I64_MAX
        and _I64_MIN <= first
        and last <= _I64_MAX
    ):
        return lines + shift
    return _line_array((lines.astype(object) + shift).tolist())


_EMPTY_MASK = np.zeros((0, 0), dtype=bool)
_EMPTY_MASK.flags.writeable = False
_NO_LINES = np.zeros(0, dtype=np.int64)
_NO_LINES.flags.writeable = False


class DigitalObject:
    """A finite set of pixels, the universe of every computation here.

    Immutable after construction; safe to share between threads.  Iteration
    is deterministic, sorted by (y, x), so reports built from the same pixels
    always come out identical.  Coordinates must be integers (anything
    ``operator.index`` accepts, such as numpy integers); floats, strings
    and bools raise TypeError.

    The object holds its squeezed raster (see the module docstring): a
    read-only mask, the x of each of its columns and the y of each of its
    rows, all three canonical for the pixels, so ``==`` and ``hash``
    compare them.  ``len``, ``bool``, iteration, ``bounding_box`` and every
    counter read them directly.  ``pixels`` and ``in`` use the frozenset of
    pixel tuples, which ``DigitalObject(pixels)`` keeps and ``from_mask``
    builds on first use (about 140 bytes per pixel).  Construction raises
    ValueError, before the raster is allocated, when the squeezed box
    exceeds ``MAX_RASTER_CELLS``.
    """

    __slots__ = ("_mask", "_xs", "_ys", "_pixels")

    def __init__(self, pixels: Iterable[Pixel] = ()):
        pixels = frozenset(_pixel(x, y) for x, y in pixels)
        self._pixels: Optional[frozenset] = pixels
        if not pixels:
            self._mask, self._xs, self._ys = _EMPTY_MASK, _NO_LINES, _NO_LINES
            return
        # two list passes, unlike zip(*pixels), allocate no container per
        # pixel that the garbage collector would have to count
        xs = [p[0] for p in pixels]
        ys = [p[1] for p in pixels]
        col_of, cols = _lines(xs)
        row_of, rows = _lines(ys)
        _check_raster_size(len(cols), len(rows))
        mask = np.zeros((len(rows), len(cols)), dtype=bool)
        n = len(xs)
        row_index = np.fromiter(map(row_of.__getitem__, ys), np.intp, n)
        mask[row_index, np.fromiter(map(col_of.__getitem__, xs), np.intp, n)] = True
        mask.flags.writeable = False
        self._mask, self._xs, self._ys = mask, _line_array(cols), _line_array(rows)

    @classmethod
    def _from_raster(cls, mask: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> "DigitalObject":
        """The object whose squeezed raster is (mask, xs, ys), taken as it is."""
        mask.flags.writeable = False
        obj = cls.__new__(cls)
        obj._mask, obj._xs, obj._ys, obj._pixels = mask, xs, ys, None
        return obj

    @classmethod
    def from_mask(cls, mask: np.ndarray, origin: Pixel = (0, 0)) -> "DigitalObject":
        """The object whose pixel (ox + col, oy + row) is set where mask[row, col] is.

        ``mask`` must be 2-D; it is read as booleans, squeezed and copied, so
        later writes to it do not reach the object.  A mask with nothing to
        squeeze is copied in one pass over its tight box.  An all-false or
        empty mask gives the empty object.  Raises ValueError, before the
        copy, when the squeezed box exceeds ``MAX_RASTER_CELLS``.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got {mask.ndim}-D")
        ox, oy = origin
        ox, oy = _pixel(ox, oy)
        rows = _kept_lines(mask.any(axis=1))
        if rows.size == 0:
            return cls()
        cols = _kept_lines(mask.any(axis=0))
        _check_raster_size(cols.size, rows.size)
        r0, r1 = rows[0], rows[-1] + 1
        c0, c1 = cols[0], cols[-1] + 1
        if rows.size == r1 - r0 and cols.size == c1 - c0:
            squeezed = mask[r0:r1, c0:c1]
        else:
            squeezed = mask[np.ix_(rows, cols)]
        # the comparison copies, and unlike a plain copy it stores 0 or 1 in
        # every byte, also when the mask is a bool view of other bytes
        squeezed = np.not_equal(squeezed, False)
        return cls._from_raster(squeezed, _shifted(cols, ox), _shifted(rows, oy))

    @property
    def pixels(self) -> frozenset:
        if self._pixels is None:
            self._pixels = frozenset(self)
        return self._pixels

    def __contains__(self, p: object) -> bool:
        p = _member(p)
        return p is not None and p in self.pixels

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
