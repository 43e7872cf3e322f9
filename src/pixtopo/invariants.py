"""Direct computation of the topological counters of a digital object.

The counters are: p pixels, v distinct corner lattice points, c0/c1 connected
components under 0-/1-adjacency, h proper holes (finite 1-components of the
complement), b 2x2 blocks, and t tunnels.  A tunnel is a lattice point whose
incident pixels are exactly a diagonal pair: two pixels meeting only at that
point.  The counters are tied together by

    t = v - 2(p + c - h) + b        (c = number of 0-components)

which ``analyze`` evaluates alongside the directly counted t as a built-in
consistency check.

``analyze``, ``count_holes`` and ``has_separating_tunnels`` build the
bounding box: ``rasterize`` writes the object into a boolean mask over the box
padded by one empty cell on each side.  v, b and t come from a census of the
mask's 2x2 windows (Gray 1971), c0 and c1 from labelling the mask, and h from
labelling its complement.  Memory is proportional to the box area, and these
three functions raise ValueError once the tight box exceeds
``MAX_RASTER_CELLS``.  They never build the pixel set of a mask-backed
object (see ``grid.DigitalObject``): ``rasterize`` copies its mask.

``count_vertices``, ``count_blocks``, ``count_tunnels_direct``,
``count_components`` and ``is_k_separating`` build no bounding box.  They
work on per-corner occupancy masks and a union-find over the pixel set, so
they accept pixels that lie arbitrarily far apart, and they build the pixel
set of a mask-backed object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np
from scipy import ndimage as ndi

from .grid import Adjacency, DigitalObject, Pixel

# Hard ceiling for rasterize, whose memory grows with the bounding box area.
MAX_RASTER_CELLS = 100_000_000

_STRUCT4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCT8 = np.ones((3, 3), dtype=bool)

# Occupancy bits of the four pixel slots around a lattice point, seen from the
# point: SW=1, SE=2, NW=4, NE=8.  A point is a tunnel iff its mask is one of
# the two diagonal pairs, and the center of a 2-block iff all four are set.
_TUNNEL_MASKS = (0b0110, 0b1001)
_BLOCK_MASK = 0b1111


@dataclass(frozen=True)
class InvariantReport:
    """All counters of one object plus the formula cross-check.

    ``t_formula`` is v - 2(p + c0 - h) + b; ``consistent`` records whether it
    agrees with the directly counted ``t_direct``.  ``c1`` is diagnostic only
    and may be None (incremental snapshots do not track it).
    """

    p: int
    v: int
    c0: int
    c1: Optional[int]
    h: int
    b: int
    t_direct: int
    t_formula: int
    consistent: bool


EMPTY_REPORT = InvariantReport(0, 0, 0, 0, 0, 0, 0, 0, True)


# ---------------------------------------------------------------------------
# corner-mask and union-find helpers (no bounding box)

def corner_masks(pixels: Iterable[Pixel]) -> Dict[Tuple[int, int], int]:
    """Map each corner lattice point to its 4-bit pixel-occupancy mask."""
    masks: Dict[Tuple[int, int], int] = {}
    get = masks.get
    for x, y in pixels:
        x1 = x + 1
        y1 = y + 1
        masks[(x, y)] = get((x, y), 0) | 8
        masks[(x1, y)] = get((x1, y), 0) | 4
        masks[(x, y1)] = get((x, y1), 0) | 2
        masks[(x1, y1)] = get((x1, y1), 0) | 1
    return masks


def _union_scan(cells: Iterable[Pixel], preds: Tuple[Pixel, ...]) -> int:
    """Count connected components of ``cells`` (given in raster order).

    ``preds`` are the neighbor offsets pointing at already-scanned cells, so
    a single pass with union-find labels everything.
    """
    parent: Dict[Pixel, Pixel] = {}
    count = 0
    for p in cells:
        parent[p] = p
        count += 1
        x, y = p
        for dx, dy in preds:
            q = (x + dx, y + dy)
            if q in parent:
                a = p
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                r = q
                while parent[r] != r:
                    parent[r] = parent[parent[r]]
                    r = parent[r]
                if a != r:
                    parent[r] = a
                    count -= 1
    return count


_PREDS_0 = ((-1, 0), (-1, -1), (0, -1), (1, -1))
_PREDS_1 = ((-1, 0), (0, -1))


def _components_sparse(pixels: FrozenSet[Pixel], adjacency: Adjacency) -> int:
    if not pixels:
        return 0
    order = sorted(pixels, key=lambda p: (p[1], p[0]))
    preds = _PREDS_1 if adjacency is Adjacency.ONE else _PREDS_0
    return _union_scan(order, preds)


# ---------------------------------------------------------------------------
# raster helpers (bounding box)

def rasterize(obj: DigitalObject) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Boolean mask over the bounding box padded by one empty cell per side.

    Returns the mask and the (x, y) coordinates of its cell [0, 0]: row index
    is y - oy, column index is x - ox.  The empty frame makes the improper
    complement region one connected strip.  A mask-backed object's mask is
    copied into the padded buffer with one slice assignment, so no pixel
    tuple is built; a set-backed object is written through flat indices.
    Raises ValueError when the tight box exceeds MAX_RASTER_CELLS.
    """
    box = obj.bounding_box()
    if box is None:
        return np.zeros((0, 0), dtype=bool), (0, 0)
    (x0, y0), (x1, y1) = box
    w = x1 - x0 + 1
    h = y1 - y0 + 1
    if w * h > MAX_RASTER_CELLS:
        raise ValueError(
            f"bounding box {w}x{h} exceeds the raster limit of {MAX_RASTER_CELLS} cells"
        )
    origin = (x0 - 1, y0 - 1)
    return obj._to_mask(origin, (h + 2, w + 2)), origin


def _vbt(mask: np.ndarray) -> Tuple[int, int, int]:
    """Vertices, 2x2 blocks and tunnels of a padded mask.

    Bit-quad census (Gray 1971): each 2x2 window of the mask is the corner
    mask of the lattice point at its center.  Kept out of ``analyze`` so its
    temporaries are freed before the labellings allocate theirs.
    """
    m = mask.view(np.uint8)
    pairs = m[:, :-1] + 2 * m[:, 1:]
    codes = pairs[:-1] + 4 * pairs[1:]
    # count_nonzero, unlike bincount, makes no intp copy of the codes
    v = np.count_nonzero(codes)
    b = np.count_nonzero(codes == _BLOCK_MASK)
    t = np.count_nonzero(codes == _TUNNEL_MASKS[0]) + np.count_nonzero(codes == _TUNNEL_MASKS[1])
    return int(v), int(b), int(t)


def _count_labels(image: np.ndarray, structure: np.ndarray) -> int:
    return int(ndi.label(image, structure=structure)[1])


# ---------------------------------------------------------------------------
# public counters

def count_pixels(obj: DigitalObject) -> int:
    """Number of pixels of the object."""
    return len(obj)


def count_vertices(obj: DigitalObject) -> int:
    """Number of distinct lattice points occurring as pixel corners."""
    return len(corner_masks(obj.pixels))


def count_blocks(obj: DigitalObject) -> int:
    """Number of complete 2x2 squares of pixels."""
    masks = corner_masks(obj.pixels)
    return sum(1 for m in masks.values() if m == _BLOCK_MASK)


def count_tunnels_direct(obj: DigitalObject) -> int:
    """Number of lattice points incident to exactly one diagonal pixel pair."""
    masks = corner_masks(obj.pixels)
    return sum(1 for m in masks.values() if m in _TUNNEL_MASKS)


def count_components(obj: DigitalObject, adjacency: Adjacency = Adjacency.ZERO) -> int:
    """Number of maximal connected subsets under the given adjacency."""
    return _components_sparse(obj.pixels, adjacency)


def count_holes(obj: DigitalObject) -> int:
    """Number of proper holes: finite 1-components of the complement.

    Flood fill runs over the bounding box inflated by one cell on each side;
    the single component touching the inflated frame is the improper region
    and is never counted.
    """
    if not obj:
        return 0
    mask, _ = rasterize(obj)
    return _count_labels(~mask, _STRUCT4) - 1


def tunnels_by_formula(p: int, v: int, c: int, h: int, b: int) -> int:
    """Evaluate v - 2(p + c - h) + b.

    Signed on purpose: a negative result from counter inputs signals a bug
    rather than a valid tunnel count.
    """
    return v - 2 * (p + c - h) + b


def analyze(obj: DigitalObject) -> InvariantReport:
    """All counters of the object, plus the formula evaluation and verdict."""
    p = len(obj)
    if p == 0:
        return EMPTY_REPORT
    mask, _ = rasterize(obj)
    v, b, t = _vbt(mask)
    c0 = _count_labels(mask, _STRUCT8)
    c1 = _count_labels(mask, _STRUCT4)
    h = _count_labels(~mask, _STRUCT4) - 1
    tf = tunnels_by_formula(p, v, c0, h, b)
    return InvariantReport(p, v, c0, c1, h, b, t, tf, t == tf)


def is_tunnel_free(obj: DigitalObject) -> bool:
    """True when the object has no tunnels at all."""
    return count_tunnels_direct(obj) == 0


def is_k_separating(m: DigitalObject, s: DigitalObject, adjacency: Adjacency) -> bool:
    """True when removing m from s leaves s disconnected under the adjacency.

    Requires m to be a subset of s; an empty remainder counts as connected.
    """
    if not m.pixels <= s.pixels:
        raise ValueError("m must be a subset of s")
    rest = s.pixels - m.pixels
    return _components_sparse(frozenset(rest), adjacency) >= 2


def has_separating_tunnels(obj: DigitalObject) -> bool:
    """True when some complement regions merge under 0- but not 1-adjacency.

    Computed on the complement within the inflated bounding box: strictly
    more 1-components than 0-components means a hole escapes diagonally,
    i.e. the object separates under 1- but not 0-adjacency.  This is the
    region-separation notion of a tunnel; it implies count_tunnels_direct > 0
    but not conversely (a lone diagonal pair has a countable tunnel point yet
    separates nothing).
    """
    if not obj:
        return False
    mask, _ = rasterize(obj)
    comp = ~mask
    return _count_labels(comp, _STRUCT4) > _count_labels(comp, _STRUCT8)
