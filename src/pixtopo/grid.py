"""Pixels, lattice corners, adjacency and the digital object container.

A pixel is the unit grid square whose lower-left corner sits at an integer
lattice point (x, y); we identify the pixel with that point.  Two pixels are
0-adjacent when they share at least a corner (8-neighborhood) and 1-adjacent
when they share an edge (4-neighborhood).  Everything else in the package is
built on the small vocabulary defined here.
"""

from __future__ import annotations

from enum import IntEnum
from operator import index
from typing import Iterable, Iterator, Optional, Tuple

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


class DigitalObject:
    """A finite set of pixels, the universe of every computation here.

    Immutable after construction; safe to share between threads.  Membership
    is O(1); iteration is deterministic, sorted by (y, x), so reports built
    from the same pixels always come out identical.  Coordinates must be
    integers (anything ``operator.index`` accepts, such as numpy integers);
    floats and strings raise TypeError.
    """

    __slots__ = ("_pixels", "_sorted")

    def __init__(self, pixels: Iterable[Pixel] = ()):
        self._pixels = frozenset((index(x), index(y)) for x, y in pixels)
        self._sorted: Optional[Tuple[Pixel, ...]] = None

    @property
    def pixels(self) -> frozenset:
        return self._pixels

    def __contains__(self, p: object) -> bool:
        return p in self._pixels

    def __len__(self) -> int:
        return len(self._pixels)

    def __bool__(self) -> bool:
        return bool(self._pixels)

    def __iter__(self) -> Iterator[Pixel]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._pixels, key=lambda p: (p[1], p[0])))
        return iter(self._sorted)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DigitalObject):
            return self._pixels == other._pixels
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pixels)

    def __repr__(self) -> str:
        return f"DigitalObject({len(self._pixels)} pixels)"

    def bounding_box(self) -> Optional[Tuple[Pixel, Pixel]]:
        """Tight ((xmin, ymin), (xmax, ymax)) over pixel coords; None if empty."""
        if not self._pixels:
            return None
        xs = [p[0] for p in self._pixels]
        ys = [p[1] for p in self._pixels]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def translate(self, dx: int, dy: int) -> "DigitalObject":
        """A copy shifted by (dx, dy)."""
        return DigitalObject((x + dx, y + dy) for x, y in self._pixels)


def from_pixels(coords: Iterable[Pixel]) -> DigitalObject:
    """Build a DigitalObject from coordinates; duplicates collapse silently."""
    return DigitalObject(coords)
