"""Incremental maintenance of the counters under single-pixel insertion.

A Tracker keeps (p, v, b, t, c) current with constant local work per inserted
pixel: the four corners of the new pixel are re-examined in dense 8x8 pages
of lattice points, which hold each corner's occupancy mask and component id,
and component bookkeeping runs over an insert-only union-find of components.
The hole count is never flood-filled; it is derived from the rearranged
counter identity

    h = p + c + (t - v - b) / 2

so every snapshot doubles as a consistency check: if the derived value is
negative or the parity is off, the tracker state is corrupt.

Each insertion also yields its change vector (dv, dc, dh, db, dt), which
``classify_case`` maps onto a fixed table of insertion cases keyed by the
(dc, dh, db) signature; the case ids exist for auditing and statistics, not
for the update itself.
"""

from __future__ import annotations

from array import array
from enum import Enum
from itertools import chain
from operator import index
from typing import Dict, Iterable, NamedTuple, Tuple

import numpy as np

from .grid import DigitalObject, Pixel, _member
from .invariants import _BLOCK_MASK, _TUNNEL_MASKS, InvariantReport, tunnels_by_formula


class DuplicatePixelError(ValueError):
    """Raised when a pixel is inserted twice; the tracker is left unchanged."""


class TrackerCorruptionError(RuntimeError):
    """Raised when the tracked counters violate the counter identity."""


class InsertionDelta(NamedTuple):
    """Change in (v, c, h, b, t) caused by inserting one pixel (p grows by 1)."""

    dv: int
    dc: int
    dh: int
    db: int
    dt: int

    def balances(self) -> bool:
        """Whether the delta satisfies dv - 2(1 + dc - dh) + db - dt = 0."""
        return self.dv - 2 * (1 + self.dc - self.dh) + self.db - self.dt == 0


class CaseId(Enum):
    """Insertion case labels; UNMATCHED flags a delta outside the table."""

    C1A = "1a"
    C1B = "1b"
    C1C = "1c"
    C1D = "1d"
    C2 = "2"
    C3A = "3a"
    C3B = "3b"
    C3C = "3c"
    C4 = "4"
    C5A = "5a"
    C5B = "5b"
    C5C = "5c"
    C6A = "6a"
    C6B = "6b"
    C6C = "6c"
    C7 = "7"
    C8A = "8a"
    C8B = "8b"
    C8C = "8c"
    C8D = "8d"
    C9 = "9"
    C10A = "10a"
    C10B = "10b"
    C10C = "10c"
    UNMATCHED = "unmatched"


# (dc, dh, db) -> case, for the signatures that need no further splitting.
_SIGNATURES: Dict[Tuple[int, int, int], CaseId] = {
    (1, 0, 0): CaseId.C2,
    (-1, 0, 0): CaseId.C3A,
    (-2, 0, 0): CaseId.C3B,
    (-3, 0, 0): CaseId.C3C,
    (0, -1, 0): CaseId.C4,
    (0, 1, 0): CaseId.C5A,
    (0, 2, 0): CaseId.C5B,
    (0, 3, 0): CaseId.C5C,
    (0, 0, 2): CaseId.C6C,
    (0, 1, 1): CaseId.C7,
    (0, -1, 1): CaseId.C8A,
    (0, -1, 2): CaseId.C8B,
    (0, -1, 3): CaseId.C8C,
    (0, -1, 4): CaseId.C8D,
    (-1, 0, 1): CaseId.C9,
    (-1, 1, 0): CaseId.C10A,
    (-2, 1, 0): CaseId.C10B,
    (-1, 2, 0): CaseId.C10C,
}

# Signature (0,0,0) splits on how many corners the pixel shares with the
# existing object, and (0,0,1) on whether the block's far corner is new.
_CASE1_BY_DV = {2: CaseId.C1A, 3: CaseId.C1B, 1: CaseId.C1C, 0: CaseId.C1D}
_CASE6_BY_DV = {0: CaseId.C6A, 1: CaseId.C6B}


def classify_case(delta: InsertionDelta) -> CaseId:
    """Map an insertion delta to its case id, or UNMATCHED if none fits."""
    if not delta.balances():
        return CaseId.UNMATCHED
    signature = (delta.dc, delta.dh, delta.db)
    if signature == (0, 0, 0):
        return _CASE1_BY_DV.get(delta.dv, CaseId.UNMATCHED)
    if signature == (0, 0, 1):
        return _CASE6_BY_DV.get(delta.dv, CaseId.UNMATCHED)
    return _SIGNATURES.get(signature, CaseId.UNMATCHED)


# Tracker coordinates must stay within (-COORD_BOUND, COORD_BOUND), so a
# lattice point (x, y), a corner of some pixel, has |x|, |y| <= COORD_BOUND,
# and ``as_object`` decodes every page key and pixel within int64.
COORD_BOUND = 1 << 33

# The tracker keeps its lattice points in pages of 8x8: point (x, y) is entry
# (y & 7) * 8 + (x & 7) of the page keyed (x >> 3, y >> 3).  A fresh page
# holds 64 empty lattice points; an entry holds the point's occupancy mask in
# bits 0..3 and its component's union-find id from bit 4.
_BLANK_PAGE = array("q", bytes(8 * 64))


def _slot(pages: Dict[Tuple[int, int], array], x: int, y: int) -> Tuple[array, int]:
    """The page holding lattice point (x, y), made blank if absent, and its index."""
    key = (x >> 3, y >> 3)
    page = pages.get(key)
    if page is None:
        page = pages[key] = _BLANK_PAGE[:]
    return page, (y & 7) << 3 | (x & 7)


def _corner_gains(slot: int) -> Tuple[int, ...]:
    """Packed (dv, dt + 1, db) for setting ``slot`` in a corner of mask m.

    Entry m holds dv | (dt + 1) << 8 | db << 16: the corner is a new vertex
    when m is empty, a 2x2 square holding one diagonal pair (a tunnel mask)
    counts towards t as it appears or disappears, and the block mask is a
    block.  The sum over a pixel's four corners unpacks with dt offset by
    4; no field can carry into the next, since each stays within 0..8.
    """
    gains = []
    for m in range(16):
        n = m | slot
        dv = 1 if m == 0 else 0
        dt = (n in _TUNNEL_MASKS) - (m in _TUNNEL_MASKS)
        db = 1 if n == _BLOCK_MASK else 0
        gains.append(dv | (dt + 1) << 8 | db << 16)
    return tuple(gains)


# The pixel occupies slot 8/4/2/1 at its lower-left/lower-right/upper-left/
# upper-right corner: the census's SW/SE/NW/NE layout, so a corner mask is the
# census code at that lattice point and the tables share its tunnel and block
# masks.  add_pixel sums one entry of each table per insertion.
_GAIN_LL = _corner_gains(8)
_GAIN_LR = _corner_gains(4)
_GAIN_UL = _corner_gains(2)
_GAIN_UR = _corner_gains(1)

# An insertion's delta depends only on the summed corner gains and on how
# many components the pixel merges, so each (gains, merges) pair is worked
# out once and its delta reused; at most a few hundred pairs exist.  Deltas
# are immutable, so sharing them is safe.
_TRANSITIONS: Dict[int, InsertionDelta] = {}


def _transition(packed: int, merged: int, pixel: Pixel) -> InsertionDelta:
    """The delta for summed corner gains ``packed`` and ``merged`` merges."""
    dv = packed & 255
    dt = ((packed >> 8) & 255) - 4
    db = packed >> 16
    remainder = dt - dv - db
    if remainder & 1:
        raise TrackerCorruptionError(
            f"odd tunnel/vertex/block change at {pixel}: dt={dt} dv={dv} db={db}"
        )
    dc = 1 - merged
    delta = InsertionDelta(dv, dc, dc + 1 + remainder // 2, db, dt)
    _TRANSITIONS[packed | merged << 24] = delta
    return delta


class TrackerStats(NamedTuple):
    """The shape of a tracker's storage, from ``Tracker.stats()``."""

    pages: int  # 8x8 pages of lattice points allocated
    corners: int  # lattice points that are a corner of some pixel
    components: int  # union-find ids allocated, one per isolated insertion
    max_depth: int  # longest union-find path from an id to its root


class Tracker:
    """Grows a digital object pixel by pixel, keeping all counters current.

    The lattice points live in 8x8 pages of int64 entries, each holding the
    point's corner occupancy mask and the union-find id of the component
    its pixels belong to: a few dozen bytes per pixel on a dense object,
    about a kilobyte on widely scattered pixels, which take a page or more
    each.  The union-find runs over components, not pixels: an insertion
    touching no occupied corner allocates an id, and every other insertion
    writes the root it found into its four corners.

    Single-writer: do not mutate one tracker from several threads.  Snapshots
    are immutable and freely shareable.  Deletion is unsupported by design;
    the component structure is insert-only.  Coordinates must stay within
    (-2**33, 2**33), which comfortably covers 32-bit signed positions.
    """

    __slots__ = ("_pages", "_parent", "_rank", "p", "v", "b", "t", "c")

    def __init__(self, pixels: Iterable[Pixel] = ()):
        self._pages: Dict[Tuple[int, int], array] = {}
        self._parent: list = []
        self._rank: list = []
        self.p = 0
        self.v = 0
        self.b = 0
        self.t = 0
        self.c = 0
        for pix in pixels:
            self.add_pixel(pix)

    def __len__(self) -> int:
        return self.p

    def __contains__(self, pixel: object) -> bool:
        pixel = _member(pixel)
        if pixel is None:
            return False
        px, py = pixel
        page = self._pages.get((px >> 3, py >> 3))
        return page is not None and bool(page[(py & 7) << 3 | (px & 7)] & 8)

    def as_object(self) -> DigitalObject:
        """The current pixel set as an immutable DigitalObject.

        A pixel sets bit 8 at its lower-left corner, so the entries of all
        pages, laid end to end, hold a pixel at each flat index f with bit 8
        set: on page f >> 6, row f >> 3 & 7 and column f & 7.  The pages'
        (column, row) keys are read in the same order into one int64 array.
        The decoded x and y arrays go to ``DigitalObject._from_coords``; no
        pixel tuple is built.  Raises ValueError, as ``DigitalObject(pixels)``
        does, when the squeezed box exceeds ``MAX_RASTER_CELLS``; the tracker
        is kept.
        """
        pages = self._pages
        keys = np.fromiter(chain.from_iterable(pages), np.int64, 2 * len(pages))
        cols, rows = keys.reshape(-1, 2).T
        entries = np.frombuffer(b"".join(pages.values()), dtype=np.int64)
        flat = np.flatnonzero(entries & 8)
        page = flat >> 6
        return DigitalObject._from_coords(
            cols[page] * 8 + (flat & 7), rows[page] * 8 + (flat >> 3 & 7)
        )

    def stats(self) -> TrackerStats:
        """Page, corner and union-find figures, computed now from the state.

        Nothing is counted during insertion, so ``add_pixel`` pays nothing
        for it; asking costs one pass over the pages and the union-find.
        """
        pages = self._pages
        entries = np.frombuffer(b"".join(pages.values()), dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        # move every id still below a root up one link per round; the
        # rounds in which some id moved count the deepest path
        moving = np.arange(parent.size)
        depth = 0
        while True:
            up = parent[moving]
            moving = up[up != moving]
            if not moving.size:
                break
            depth += 1
        return TrackerStats(
            pages=len(pages),
            corners=int(np.count_nonzero(entries)),
            components=len(self._parent),
            max_depth=depth,
        )

    def add_pixel(self, pixel: Pixel) -> InsertionDelta:
        """Insert one pixel and return the resulting change vector.

        Work is bounded by the pixel's four corners plus union-find cost.
        Inserting a pixel that is already present raises DuplicatePixelError
        and leaves the state untouched; so does a coordinate that is not an
        integer or is a bool (TypeError), while numpy integers are stored as
        ``int``.
        """
        px, py = pixel
        if px.__class__ is bool or py.__class__ is bool:
            raise TypeError(f"pixel coordinates must be integers, not bool: {pixel}")
        px = index(px)
        py = index(py)
        if abs(px) >= COORD_BOUND or abs(py) >= COORD_BOUND:
            raise ValueError(f"pixel {pixel} outside the tracker coordinate bound")
        # Entries of the four corners around the pixel; bit 8/4/2/1 is the
        # slot this pixel occupies at its lower-left/right/upper-left/right
        # corner.  Off its page's last row and column, all four sit in the
        # lower-left corner's page, one entry and one row of 8 apart.
        pages = self._pages
        lx = px & 7
        ly = py & 7
        key = (px >> 3, py >> 3)
        p1 = pages.get(key)
        if p1 is None:
            p1 = pages[key] = _BLANK_PAGE[:]
        i1 = ly << 3 | lx
        v1 = p1[i1]
        if v1 & 8:
            raise DuplicatePixelError(f"pixel {pixel} already present")
        if lx != 7 and ly != 7:
            p2 = p3 = p4 = p1
            i2 = i1 + 1
            i3 = i1 + 8
            i4 = i1 + 9
        else:
            p2, i2 = _slot(pages, px + 1, py)
            p3, i3 = _slot(pages, px, py + 1)
            p4, i4 = _slot(pages, px + 1, py + 1)
        v2 = p2[i2]
        v3 = p3[i3]
        v4 = p4[i4]
        packed = (
            _GAIN_LL[v1 & 15] + _GAIN_LR[v2 & 15] + _GAIN_UL[v3 & 15] + _GAIN_UR[v4 & 15]
        )

        # Every 8-neighbor shares a corner with the new pixel, and all pixels
        # at one corner are already in one component, so one find per
        # occupied corner, on the id that corner keeps, unites all of them.
        # A corner keeping the root found so far needs no find.  The final
        # root is written back into all four corners, so their next finds
        # stop at once unless a later union moved it.
        parent = self._parent
        rank = self._rank
        root = -1
        merged = 0
        for value in (v1, v2, v3, v4):
            if not value:
                continue
            q = value >> 4
            if q == root:
                continue
            qp = parent[q]
            while qp != q:
                grand = parent[qp]
                if grand == qp:
                    q = qp
                    break
                parent[q] = grand  # path halving
                q = grand
                qp = parent[grand]
            if q != root:
                merged += 1
                if root < 0:
                    root = q
                elif rank[root] < rank[q]:
                    parent[root] = q
                    root = q
                else:
                    parent[q] = root
                    if rank[root] == rank[q]:
                        rank[root] += 1
        if root < 0:
            root = len(parent)
            parent.append(root)
            rank.append(0)
        tag = root << 4
        p1[i1] = v1 & 15 | tag | 8
        p2[i2] = v2 & 15 | tag | 4
        p3[i3] = v3 & 15 | tag | 2
        p4[i4] = v4 & 15 | tag | 1

        delta = _TRANSITIONS.get(packed | merged << 24)
        if delta is None:
            delta = _transition(packed, merged, pixel)
        dv, dc, _, db, dt = delta
        self.p += 1
        self.v += dv
        self.b += db
        self.t += dt
        self.c += dc
        return delta

    def derived_holes(self) -> int:
        """Hole count from the counter identity, without any flood fill."""
        remainder = self.t - self.v - self.b
        if remainder & 1:
            raise TrackerCorruptionError(
                f"corrupt state: t - v - b = {remainder} is odd"
            )
        h = self.p + self.c + remainder // 2
        if h < 0:
            raise TrackerCorruptionError(f"corrupt state: derived hole count {h} < 0")
        return h

    def snapshot(self) -> InvariantReport:
        """Immutable report of the current counters; h is derived, not counted.

        t_formula is recomputed from the report's own fields and equals the
        tracked t by construction, so ``consistent`` is vacuously true here;
        genuine corruption surfaces as TrackerCorruptionError instead.
        """
        h = self.derived_holes()
        tf = tunnels_by_formula(self.p, self.v, self.c, h, self.b)
        return InvariantReport(
            p=self.p,
            v=self.v,
            c0=self.c,
            c1=None,
            h=h,
            b=self.b,
            t_direct=self.t,
            t_formula=tf,
            consistent=self.t == tf,
        )
