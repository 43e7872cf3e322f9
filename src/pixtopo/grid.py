"""Pixels, lattice corners, adjacency and the digital object container.

A pixel is the unit grid square whose lower-left corner sits at an integer
lattice point (x, y); we identify the pixel with that point.  Two pixels are
0-adjacent when they share at least a corner (8-neighborhood) and 1-adjacent
when they share an edge (4-neighborhood).  Everything else in the package is
built on the small vocabulary defined here.

A ``DigitalObject`` holds its pixels either as a frozenset of (x, y) tuples
or as a read-only boolean mask over its tight bounding box plus the pixel of
the mask's cell [0, 0] (``DigitalObject.from_mask``).  PBM images (P1 and P4),
random objects and ``Tracker.as_object`` results (unless their pixels lie
far apart) are mask-backed, so ``analyze`` reads them without ever building
a Python tuple per pixel; the frozenset is built on first use by the
operations that need it.
"""

from __future__ import annotations

from enum import IntEnum
from operator import index
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

Pixel = Tuple[int, int]
LatticePoint = Tuple[int, int]

# Neighbor offsets, fixed order (E, NE, N, NW, W, SW, S, SE).
OFFSETS_8: Tuple[Pixel, ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)
OFFSETS_4: Tuple[Pixel, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


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


def neighbors(p: Pixel, adjacency: Adjacency = Adjacency.ZERO) -> frozenset:
    """Neighboring coordinates of p (8 for ZERO, 4 for ONE); p excluded."""
    x, y = p
    return frozenset((x + dx, y + dy) for dx, dy in adjacency.offsets)


def are_adjacent(p: Pixel, q: Pixel, adjacency: Adjacency = Adjacency.ZERO) -> bool:
    """True when distinct pixels p and q are related under the adjacency."""
    dx = abs(p[0] - q[0])
    dy = abs(p[1] - q[1])
    if adjacency is Adjacency.ONE:
        return dx + dy == 1
    return max(dx, dy) == 1


def _pixel(x, y) -> Pixel:
    """(x, y) converted with ``operator.index``, which refuses floats and
    strings.  A bool is refused too: index(True) is 1, so it would pass."""
    if x.__class__ is bool or y.__class__ is bool:
        raise TypeError(f"pixel coordinates must be integers, not bool: ({x!r}, {y!r})")
    return index(x), index(y)


class DigitalObject:
    """A finite set of pixels, the universe of every computation here.

    Immutable after construction; safe to share between threads.  Iteration
    is deterministic, sorted by (y, x), so reports built from the same pixels
    always come out identical.  Coordinates must be integers (anything
    ``operator.index`` accepts, such as numpy integers); floats, strings
    and bools raise TypeError.

    An object holds one of two representations.  ``DigitalObject(pixels)``
    holds a frozenset of (x, y) tuples.  ``DigitalObject.from_mask(mask,
    origin)`` holds a read-only boolean mask trimmed to the tight bounding
    box, plus the pixel of its cell [0, 0]; it builds the frozenset only when
    an operation needs it, and keeps it from then on (about 140 bytes per
    pixel, against one byte per cell of the box for the mask).  ``pixels``,
    ``in``, ``==``, ``hash`` and ``translate`` build it; ``len``, ``bool``,
    iteration and ``bounding_box`` do not.  Equality and hashing depend on
    the pixels alone, never on the representation.
    """

    __slots__ = ("_pixels", "_sorted", "_mask", "_origin")

    def __init__(self, pixels: Iterable[Pixel] = ()):
        self._pixels: Optional[frozenset] = frozenset(_pixel(x, y) for x, y in pixels)
        self._sorted: Optional[Tuple[Pixel, ...]] = None
        self._mask: Optional[np.ndarray] = None
        self._origin: Pixel = (0, 0)

    @classmethod
    def from_mask(cls, mask: np.ndarray, origin: Pixel = (0, 0)) -> "DigitalObject":
        """The object whose pixel (ox + col, oy + row) is set where mask[row, col] is.

        ``mask`` must be 2-D; it is read as booleans, trimmed to its tight
        box and copied, so later writes to it do not reach the object.  An
        all-false or empty mask gives the empty object.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got {mask.ndim}-D")
        ox, oy = origin
        ox, oy = _pixel(ox, oy)
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size == 0:
            return cls()
        cols = np.flatnonzero(mask.any(axis=0))
        r0, r1 = int(rows[0]), int(rows[-1]) + 1
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        tight = mask[r0:r1, c0:c1].copy()
        tight.flags.writeable = False
        obj = cls.__new__(cls)
        obj._pixels = None
        obj._sorted = None
        obj._mask = tight
        obj._origin = (ox + c0, oy + r0)
        return obj

    def _coords(self) -> Tuple[list, list]:
        """Row-major x and y coordinate lists of a mask-backed object."""
        ys, xs = np.nonzero(self._mask)
        ox, oy = self._origin
        return (xs + ox).tolist(), (ys + oy).tolist()

    @property
    def pixels(self) -> frozenset:
        if self._pixels is None:
            self._pixels = frozenset(zip(*self._coords()))
        return self._pixels

    def __contains__(self, p: object) -> bool:
        return p in self.pixels

    def __len__(self) -> int:
        if self._mask is not None:
            return int(np.count_nonzero(self._mask))
        return len(self._pixels)

    def __bool__(self) -> bool:
        # from_mask never keeps an all-false mask
        return self._mask is not None or bool(self._pixels)

    def __iter__(self) -> Iterator[Pixel]:
        if self._mask is not None:
            return zip(*self._coords())
        if self._sorted is None:
            self._sorted = tuple(sorted(self._pixels, key=lambda p: (p[1], p[0])))
        return iter(self._sorted)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DigitalObject):
            return self.pixels == other.pixels
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pixels)

    def __repr__(self) -> str:
        return f"DigitalObject({len(self)} pixels)"

    def bounding_box(self) -> Optional[Tuple[Pixel, Pixel]]:
        """Tight ((xmin, ymin), (xmax, ymax)) over pixel coords; None if empty."""
        if self._mask is not None:
            (ox, oy), (h, w) = self._origin, self._mask.shape
            return (ox, oy), (ox + w - 1, oy + h - 1)
        if not self._pixels:
            return None
        xs = [p[0] for p in self._pixels]
        ys = [p[1] for p in self._pixels]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def _to_mask(self, origin: Pixel, shape: Tuple[int, int]) -> np.ndarray:
        """A new boolean mask of ``shape`` (rows, cols) whose cell [0, 0] is ``origin``.

        Cell [row, col] is pixel (ox + col, oy + row), as in ``from_mask``.
        The window must hold the whole object, which callers ensure by
        deriving it from ``bounding_box``; nothing checks this, so a tiny
        object pays for no extra numpy call.  A mask-backed object is copied
        in with one slice assignment, so its pixel set is not built; a
        set-backed one is written through flat indices.
        """
        ox, oy = origin
        height, width = shape
        if self._mask is not None:
            (x0, y0), (h, w) = self._origin, self._mask.shape
            out = np.zeros(shape, dtype=bool)
            out[y0 - oy : y0 - oy + h, x0 - ox : x0 - ox + w] = self._mask
            return out
        flat = np.zeros(height * width, dtype=bool)
        base = oy * width + ox
        flat[np.fromiter(
            (y * width + x - base for x, y in self._pixels),
            dtype=np.int64,
            count=len(self._pixels),
        )] = True
        return flat.reshape(shape)

    def translate(self, dx: int, dy: int) -> "DigitalObject":
        """A copy shifted by (dx, dy)."""
        return DigitalObject((x + dx, y + dy) for x, y in self.pixels)


def from_pixels(coords: Iterable[Pixel]) -> DigitalObject:
    """Build a DigitalObject from coordinates; duplicates collapse silently."""
    return DigitalObject(coords)
