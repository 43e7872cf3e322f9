"""Incremental maintenance of the counters under single-pixel insertion.

A Tracker keeps (p, v, b, t, c) current with constant local work per inserted
pixel: the four corners of the new pixel are re-examined through a corner
occupancy map, and component bookkeeping runs over an insert-only union-find.
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

from enum import Enum
from operator import index
from typing import Dict, Iterable, NamedTuple, Tuple

from .grid import DigitalObject, Pixel
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


# Tracker coordinates are packed into one integer, x * _STRIDE + (y + 2**33),
# so corner-map and union-find keys avoid tuple hashing on the hot path.  An
# int hashes to itself, and a dict starts probing at the hash's low bits; a
# stride of exactly 2**34 would leave those bits to y alone, so every pixel
# of a row would start at the same slot, and lookups on a 1000x1000 raster
# ran about 2.5 times slower.  The odd golden-ratio constant added to the
# stride spreads x over the low bits as well.  Since y + 2**33 + 1 stays
# below the stride, keys of distinct corners never alias.
COORD_BOUND = 1 << 33
_STRIDE = COORD_BOUND * 2 + 0x9E3779B9


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
# out once and its entry (dv, dc, db, dt, delta) reused; at most a few
# hundred pairs exist.  Deltas are immutable, so sharing them is safe.
_Transition = Tuple[int, int, int, int, InsertionDelta]
_TRANSITIONS: Dict[int, _Transition] = {}


def _transition(packed: int, merged: int, pixel: Pixel) -> _Transition:
    """The entry for summed corner gains ``packed`` and ``merged`` merges."""
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
    entry = _TRANSITIONS[packed | merged << 24] = (dv, dc, db, dt, delta)
    return entry


class Tracker:
    """Grows a digital object pixel by pixel, keeping all counters current.

    Single-writer: do not mutate one tracker from several threads.  Snapshots
    are immutable and freely shareable.  Deletion is unsupported by design;
    the component structure is insert-only.  Coordinates must stay within
    (-2**33, 2**33), which comfortably covers 32-bit signed positions.
    """

    __slots__ = ("_corners", "_parent", "_rank", "_keys", "p", "v", "b", "t", "c")

    def __init__(self, pixels: Iterable[Pixel] = ()):
        # corner value = occupancy mask (bits 0..3) | pixel id << 4, where the
        # id belongs to the first pixel inserted at this corner
        self._corners: Dict[int, int] = {}
        self._parent: list = []
        self._rank: list = []
        self._keys: list = []
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
        if not (isinstance(pixel, tuple) and len(pixel) == 2):
            return False
        px, py = pixel
        if px.__class__ is bool or py.__class__ is bool:
            return False
        try:
            px = index(px)
            py = index(py)
        except TypeError:
            return False
        # out-of-bound coordinates would alias the key of an in-bound pixel
        if abs(px) >= COORD_BOUND or abs(py) >= COORD_BOUND:
            return False
        return bool(self._corners.get(px * _STRIDE + py + COORD_BOUND, 0) & 8)

    def as_object(self) -> DigitalObject:
        """The current pixel set as an immutable DigitalObject."""
        pairs = []
        for key in self._keys:
            x, rest = divmod(key, _STRIDE)
            pairs.append((x, rest - COORD_BOUND))
        return DigitalObject(pairs)

    def add_pixel(self, pixel: Pixel) -> InsertionDelta:
        """Insert one pixel and return the resulting change vector.

        Work is bounded by the pixel's 8-neighborhood plus union-find cost.
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
        k1 = px * _STRIDE + py + COORD_BOUND
        corners = self._corners
        get = corners.get
        # Masks of the four corners around the pixel; bit 8/4/2/1 is the slot
        # this pixel occupies at its lower-left/right/upper-left/right corner.
        v1 = get(k1, 0)
        m1 = v1 & 15
        if m1 & 8:
            raise DuplicatePixelError(f"pixel {pixel} already present")
        k2 = k1 + _STRIDE
        k3 = k1 + 1
        k4 = k2 + 1
        v2 = get(k2, 0)
        v3 = get(k3, 0)
        v4 = get(k4, 0)
        m2 = v2 & 15
        m3 = v3 & 15
        m4 = v4 & 15

        pid = self.p
        tag = pid << 4
        corners[k1] = (v1 or tag) | 8
        corners[k2] = (v2 or tag) | 4
        corners[k3] = (v3 or tag) | 2
        corners[k4] = (v4 or tag) | 1
        packed = _GAIN_LL[m1] + _GAIN_LR[m2] + _GAIN_UL[m3] + _GAIN_UR[m4]

        # Every 8-neighbor shares a corner with the new pixel, and all pixels
        # at one corner are already in one component, so one find per
        # occupied corner, on the id that corner keeps, unites all of them.
        # The new pixel is a singleton of rank 0: it hangs below the first
        # root found without a link of its own, and enters the forest once
        # the final root is known.
        parent = self._parent
        rank = self._rank
        root = pid
        merged = 0
        for value in (v1, v2, v3, v4):
            if not value:
                continue
            q = value >> 4
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
                if root == pid:
                    root = q
                elif rank[root] < rank[q]:
                    parent[root] = q
                    root = q
                else:
                    parent[q] = root
                    if rank[root] == rank[q]:
                        rank[root] += 1
        parent.append(root)
        rank.append(0)
        if merged and not rank[root]:
            rank[root] = 1
        self._keys.append(k1)

        entry = _TRANSITIONS.get(packed | merged << 24)
        if entry is None:
            entry = _transition(packed, merged, pixel)
        dv, dc, db, dt, delta = entry
        self.p = pid + 1
        self.v += dv
        self.b += db
        self.t += dt
        self.c += dc
        return delta

    def add_pixels(self, coords: Iterable[Pixel]) -> None:
        """Insert many pixels; raises like add_pixel on the first duplicate."""
        for pixel in coords:
            self.add_pixel(pixel)

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
