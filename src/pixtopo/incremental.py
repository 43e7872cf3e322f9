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

Each insertion also yields its change vector (dv, dc, dh, db, dt), looked
up in a table closed at import over all 401 pairs of neighbour pattern and
merge count; a key outside it is a state no object reaches, and raises
TrackerCorruptionError before any counter changes.  ``classify_case`` maps a
delta onto a fixed table of insertion cases keyed by the (dc, dh, db)
signature; the case ids exist for auditing and statistics, not for the
update itself.
"""

from __future__ import annotations

import sys
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
# Its negation, made once: written in add_pixel, it would build a new int
# on every insertion.
_LOW_BOUND = -COORD_BOUND

# The tracker keeps its lattice points in pages of 8x8: point (x, y) is entry
# (y & 7) * 8 + (x & 7) of the page keyed (x >> 3, y >> 3).  A fresh page
# holds 64 empty lattice points; an entry, an unsigned 32-bit int, holds the
# point's occupancy mask in bits 0..3 and its component's union-find id from
# bit 4, so ids stay below _ID_LIMIT.
_BLANK_PAGE = array("I", bytes(4 * 64))
_ID_LIMIT = 1 << 28

# The byte of an entry that holds its occupancy mask, in the pages' native order.
_MASK_BYTE = 0 if sys.byteorder == "little" else 3


def _insertion_table() -> Dict[int, InsertionDelta]:
    """The delta of every insertion, keyed as ``add_pixel`` keys it.

    For each pattern of occupied 8-neighbours, the census codes (SW=1, SE=2,
    NW=4, NE=8) of the pixel's lower-left, lower-right, upper-left and
    upper-right corners, before and after it fills slot 8, 4, 2 and 1 of
    them, give dv (corners that were empty), db (corners that become blocks)
    and dt; dh follows from the identity.  The occupied corners form as many
    groups as there are occupied corners, less the edge neighbours that join
    two of them, plus one when all four close a ring; the pixel merges from
    1 to that many components, or 0 when it has no neighbour.
    """
    table = {}
    for pattern in range(256):
        sw, s, se, w, e, nw, n, ne = (pattern >> k & 1 for k in range(8))
        before = (
            sw | s << 1 | w << 2, s | se << 1 | e << 3,
            w | nw << 2 | n << 3, e << 1 | n << 2 | ne << 3,
        )
        after = (before[0] | 8, before[1] | 4, before[2] | 2, before[3] | 1)
        dv = before.count(0)
        db = after.count(_BLOCK_MASK)
        dt = sum(m in _TUNNEL_MASKS for m in after) - sum(m in _TUNNEL_MASKS for m in before)
        groups = 4 - dv - (s + e + n + w) + (s & e & n & w)
        key = before[0] | before[1] << 4 | before[2] << 8 | before[3] << 12
        for merged in range(1, groups + 1) if groups else (0,):
            dc = 1 - merged
            dh = dc + 1 - (dv + db - dt) // 2
            table[key | merged << 16] = InsertionDelta(dv, dc, dh, db, dt)
    return table


# The 401 deltas, shared since they are immutable.  Built at import and never
# written after, so a key outside it can only come from a corrupt state.
_TRANSITIONS: Dict[int, InsertionDelta] = _insertion_table()


class TrackerStats(NamedTuple):
    """The shape of a tracker's storage, from ``Tracker.stats()``."""

    pages: int  # 8x8 pages of lattice points allocated
    corners: int  # lattice points that are a corner of some pixel
    components: int  # union-find ids allocated, one per isolated insertion
    max_depth: int  # longest union-find path from an id to its root


class Tracker:
    """Grows a digital object pixel by pixel, keeping all counters current.

    The lattice points live in 8x8 pages of unsigned 32-bit entries, each
    holding the point's corner occupancy mask and the union-find id of the
    component its pixels belong to: about 21 bytes per pixel on a dense
    object, about 700 on widely scattered pixels, which take a page or more
    each.  The union-find runs over components, not pixels: an insertion
    touching no occupied corner allocates an id, and every other insertion
    writes the root it found into its four corners.  Union by rank, with no
    path compression, bounds every find path by log2 of the ids allocated.
    An entry leaves 28 bits for the id, so a tracker allocates at most 2**28
    ids; the isolated insertion that would need one more raises
    OverflowError.  Reaching it takes 2**28 isolated insertions, whose
    union-find lists alone would hold over 10 GB.

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
        set: on page f >> 6, row f >> 3 & 7 and column f & 7.  Bit 8 is read
        from the low byte of each entry, so the pages are joined into one
        buffer of 4 bytes per entry and the only other transient per entry
        is one byte; the buffer is dropped before the coordinates are built.
        The pages' (column, row) keys are read in the same order into one
        int64 array.  The decoded x and y arrays go to
        ``DigitalObject._from_coords``; no pixel tuple is built.  Raises
        ValueError, as ``DigitalObject(pixels)`` does, when the squeezed box
        exceeds ``MAX_RASTER_CELLS``; the tracker is kept.
        """
        pages = self._pages
        keys = np.fromiter(chain.from_iterable(pages), np.int64, 2 * len(pages))
        cols, rows = keys.reshape(-1, 2).T
        joined = np.frombuffer(b"".join(pages.values()), dtype=np.uint8)
        flat = np.flatnonzero(joined[_MASK_BYTE::4] & 8)
        del joined
        page = flat >> 6
        xs = cols[page]
        ys = rows[page]
        del page
        xs <<= 3
        ys <<= 3
        ys |= flat >> 3 & 7
        flat &= 7
        xs |= flat
        return DigitalObject._from_coords(xs, ys)

    def stats(self) -> TrackerStats:
        """Page, corner and union-find figures, computed now from the state.

        Nothing is counted during insertion, so ``add_pixel`` pays nothing
        for it; asking costs one pass over the pages and the union-find.
        """
        pages = self._pages
        entries = np.frombuffer(b"".join(pages.values()), dtype=np.uint32)
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

        Work is bounded by the pixel's four corners plus union-find cost; the
        delta is one lookup in ``_TRANSITIONS``.  Inserting a pixel that is
        already present raises DuplicatePixelError and leaves the state
        untouched; so does a coordinate that is not an integer or is a bool
        (TypeError), or lies outside the coordinate bound (ValueError).
        Plain ``int`` coordinates go straight to the bound check; numpy and
        other integers are converted by ``operator.index`` and stored as
        ``int``.  Corner codes and a merge count that are no key of the
        table, which no object reaches, raise TrackerCorruptionError naming
        the pixel, before any counter or corner entry changes.  An isolated
        insertion that would allocate id 2**28 raises OverflowError the same
        way, before any counter, corner entry or union-find list changes.
        Either refusal drops the blank pages the insertion made, so
        ``stats().pages`` reads as before it.
        """
        px, py = pixel
        if px.__class__ is not int or py.__class__ is not int:
            if px.__class__ is bool or py.__class__ is bool:
                raise TypeError(f"pixel coordinates must be integers, not bool: {pixel}")
            px = index(px)
            py = index(py)
        if not (_LOW_BOUND < px < COORD_BOUND and _LOW_BOUND < py < COORD_BOUND):
            raise ValueError(f"pixel {pixel} outside the tracker coordinate bound")
        # Entries of the four corners around the pixel; bit 8/4/2/1 is the
        # slot this pixel occupies at its lower-left/right/upper-left/right
        # corner.  Off its page's last row and column, all four sit in the
        # lower-left corner's page, one entry and one row of 8 apart.  The
        # page-edge cases, about a quarter of the insertions on a random
        # object, look up the other pages inline, as a helper call per
        # corner cost more than the lookup it made.
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
        if lx != 7:
            if ly != 7:
                p2 = p3 = p4 = p1
                i2 = i1 + 1
                i3 = i1 + 8
                i4 = i1 + 9
            else:
                # last row: the upper corners fall in row 0 of the page above
                key = (px >> 3, py + 1 >> 3)
                p3 = pages.get(key)
                if p3 is None:
                    p3 = pages[key] = _BLANK_PAGE[:]
                p2 = p1
                p4 = p3
                i2 = i1 + 1
                i3 = lx
                i4 = lx + 1
        elif ly != 7:
            # last column: the right-hand corners fall in column 0 of the
            # page to the right
            key = (px + 1 >> 3, py >> 3)
            p2 = pages.get(key)
            if p2 is None:
                p2 = pages[key] = _BLANK_PAGE[:]
            p3 = p1
            p4 = p2
            i2 = i1 - 7
            i3 = i1 + 8
            i4 = i1 + 1
        else:
            # the page's last point: the other three corners fall on the
            # pages to the right, above, and above and to the right
            key = (px + 1 >> 3, py >> 3)
            p2 = pages.get(key)
            if p2 is None:
                p2 = pages[key] = _BLANK_PAGE[:]
            key = (px >> 3, py + 1 >> 3)
            p3 = pages.get(key)
            if p3 is None:
                p3 = pages[key] = _BLANK_PAGE[:]
            key = (px + 1 >> 3, py + 1 >> 3)
            p4 = pages.get(key)
            if p4 is None:
                p4 = pages[key] = _BLANK_PAGE[:]
            i2 = 56
            i3 = 7
            i4 = 0
        v2 = p2[i2]
        v3 = p3[i3]
        v4 = p4[i4]

        # Every 8-neighbor shares a corner with the new pixel, and all pixels
        # at one corner are already in one component, so one find per
        # occupied corner, on the id that corner keeps, unites all of them.
        # A corner keeping the root found so far needs no find.  The final
        # root is written back into all four corners, so their next finds
        # stop at once unless a later union moved it.  A find writes
        # nothing: union by rank alone bounds its path.
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
                q = qp
                qp = parent[q]
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
        # the key _insertion_table builds, as products and sums: CPython
        # specialises those for ints, but not shifts and ors
        key = (v1 & 15) + (v2 & 15) * 16 + (v3 & 15) * 256 + (v4 & 15) * 4096 + merged * 65536
        try:
            delta = _TRANSITIONS[key]
        except KeyError:
            self._drop_blank_pages(px, py)
            raise TrackerCorruptionError(
                f"corrupt state at {pixel}: corner codes"
                f" {(v1 & 15, v2 & 15, v3 & 15, v4 & 15)} with {merged} merges"
            ) from None
        if root < 0:
            root = len(parent)
            if root >= _ID_LIMIT:
                self._drop_blank_pages(px, py)
                raise OverflowError(
                    f"pixel {pixel} needs a new component id, but the tracker"
                    f" holds its limit of {_ID_LIMIT} ids"
                )
            parent.append(root)
            rank.append(0)
        tag = root << 4
        p1[i1] = v1 & 15 | tag | 8
        p2[i2] = v2 & 15 | tag | 4
        p3[i3] = v3 & 15 | tag | 2
        p4[i4] = v4 & 15 | tag | 1

        dv, dc, _, db, dt = delta
        self.p += 1
        self.v += dv
        self.b += db
        self.t += dt
        self.c += dc
        return delta

    def _drop_blank_pages(self, px: int, py: int) -> None:
        """Drop the pages of pixel (px, py)'s corners that hold no entry, as
        a refused insertion leaves the ones it made; a missing page reads
        as blank, so no answer changes."""
        pages = self._pages
        for key in (
            (px >> 3, py >> 3), (px + 1 >> 3, py >> 3),
            (px >> 3, py + 1 >> 3), (px + 1 >> 3, py + 1 >> 3),
        ):
            if pages.get(key) == _BLANK_PAGE:
                del pages[key]

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
