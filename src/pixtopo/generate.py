"""Seeded generators for random objects, digital curves and block-free blobs.

Everything here is deterministic per seed, built on SplitMix64 so fixtures
can be reproduced bit-for-bit anywhere: output i of a stream seeded with s is

    z = s + (i + 1) * 0x9E3779B97F4A7C15            (mod 2**64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9        (mod 2**64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB        (mod 2**64)
    z = z ^ (z >> 31)

``generate_random`` includes cell i (row-major) iff (z_i >> 11) is below
floor(density * 2**53).  The curve generators draw from the same stream and
rejection-sample until the corresponding curve predicate holds.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from .grid import Adjacency, DigitalObject, Pixel
from .curves import is_simple_arc, is_simple_closed_curve

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1

DEFAULT_CELL_CAP = 10_000_000


class GenerationError(RuntimeError):
    """Curve generation gave up after its rejection budget; retry a new seed."""


class SplitMix64:
    """The documented counter-based PRNG all generators share."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _U64
        z = ((z ^ (z >> 27)) * _MIX2) & _U64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via the multiply-shift reduction."""
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """Fisher-Yates in place: for i = len - 1 down to 1, swap i and below(i + 1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _mix(state: np.ndarray) -> np.ndarray:
    z = state
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def check_random_args(
    width: int, height: int, density: float, cell_cap: int = DEFAULT_CELL_CAP,
) -> None:
    """Raise ValueError for arguments that ``generate_random`` refuses."""
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density {density} outside [0, 1]")
    if width * height > cell_cap:
        raise ValueError(f"{width}x{height} = {width * height} cells exceeds the cap of {cell_cap}")


def generate_random(
    width: int,
    height: int,
    density: float,
    seed: int,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> DigitalObject:
    """Bernoulli-sample a width x height grid with the given pixel density.

    Identical (width, height, density, seed) always yield the identical
    object, mask-backed with cell i at row i // width, column i % width.
    Raises ValueError unless both sizes are positive, density lies in [0, 1]
    and the grid holds at most ``cell_cap`` cells.
    """
    check_random_args(width, height, density, cell_cap)
    cells = width * height
    threshold = int(density * (1 << 53))
    with np.errstate(over="ignore"):
        states = np.arange(1, cells + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(seed & _U64)
        draws = _mix(states) >> np.uint64(11)
    return DigitalObject.from_mask((draws < np.uint64(threshold)).reshape(height, width))


# ---------------------------------------------------------------------------
# curves

_MAX_ATTEMPTS = 64
MAX_CURVE_STEPS = 10_000


def _arc_walk(alpha: Adjacency, steps: int, rng: SplitMix64) -> Set[Pixel]:
    """Self-avoiding walk in which each new cell touches only the walk head.

    The contact rule uses the 8-neighborhood for both adjacencies: an
    edge-connected path that merely brushes itself diagonally would seal a
    complement cell, and sealed paths no longer count their corners like
    open arcs do.
    """
    offsets = alpha.offsets
    contact = Adjacency.ZERO.offsets
    cells: Set[Pixel] = {(0, 0)}
    head = (0, 0)
    while len(cells) < steps:
        candidates: List[Pixel] = []
        for dx, dy in offsets:
            c = (head[0] + dx, head[1] + dy)
            if c in cells:
                continue
            for ex, ey in contact:
                q = (c[0] + ex, c[1] + ey)
                if q in cells and q != head:
                    break
            else:
                candidates.append(c)
        if not candidates:
            return cells  # dead end; caller rejects and retries
        head = candidates[rng.below(len(candidates))]
        cells.add(head)
    return cells


def _ring_one(width: int, height: int) -> Set[Pixel]:
    cells = set()
    for x in range(width):
        cells.add((x, 0))
        cells.add((x, height - 1))
    for y in range(height):
        cells.add((0, y))
        cells.add((width - 1, y))
    return cells


def _diamond(radius: int) -> Set[Pixel]:
    cells = set()
    for k in range(radius):
        cells.add((radius - k, k))
        cells.add((-(radius - k), k))
        cells.add((radius - k, -k))
        cells.add((-(radius - k), -k))
    cells.add((0, radius))
    cells.add((0, -radius))
    return cells


def _closed_one(steps: int, rng: SplitMix64) -> Set[Pixel]:
    """Rectangle ring sized to ~steps cells plus predicate-checked wall bumps."""
    if steps <= 8:
        return _ring_one(3, 3)
    width = 3 + rng.below(max(1, steps // 3))
    height = max(3, (steps + 4) // 2 - width)
    cells = _ring_one(width, height)
    for _ in range(rng.below(4)):
        wall = rng.below(4)
        horizontal = wall < 2
        length = width if horizontal else height
        if length < 7:
            continue
        a = 2 + rng.below(length - 6)
        b = a + rng.below(min(3, length - 4 - a) + 1)
        if horizontal:
            y = -1 if wall == 0 else height
            edge_y = 0 if wall == 0 else height - 1
            added = {(x, y) for x in range(a - 1, b + 2)}
            removed = {(x, edge_y) for x in range(a, b + 1)}
        else:
            x = -1 if wall == 2 else width
            edge_x = 0 if wall == 2 else width - 1
            added = {(x, yy) for yy in range(a - 1, b + 2)}
            removed = {(edge_x, yy) for yy in range(a, b + 1)}
        candidate = (cells - removed) | added
        if is_simple_closed_curve(DigitalObject(candidate), Adjacency.ONE):
            cells = candidate
    return cells


def _closed_zero(steps: int, rng: SplitMix64) -> Set[Pixel]:
    """Diamond ring sized to ~steps cells plus predicate-checked elbows."""
    radius = max(1, round(steps / 4))
    cells = _diamond(radius)
    if radius >= 2:
        for _ in range(rng.below(4)):
            sx = 1 if rng.below(2) else -1
            sy = 1 if rng.below(2) else -1
            k = 1 + rng.below(radius - 1)
            removed = (sx * (radius - k), sy * k)
            added = {(sx * (radius - k + 1), sy * k), (sx * (radius - k), sy * (k + 1))}
            candidate = (cells - {removed}) | added
            if is_simple_closed_curve(DigitalObject(candidate), Adjacency.ZERO):
                cells = candidate
    return cells


def generate_curve(kind: str, alpha: Adjacency, steps: int, seed: int) -> DigitalObject:
    """A seeded simple curve: 'closed' or 'arc', guaranteed to pass its predicate.

    ``steps`` scales the pixel count (exact for arcs, approximate for closed
    curves; the minimal closed shapes are the 4-pixel diamond under ZERO and
    the 8-pixel square ring under ONE).  Raises GenerationError when the
    rejection budget runs out; retry with another seed.
    """
    if not 1 <= steps <= MAX_CURVE_STEPS:
        raise ValueError(f"steps must be in 1..{MAX_CURVE_STEPS}")
    rng = SplitMix64(seed)
    for _ in range(_MAX_ATTEMPTS):
        if kind == "arc":
            cells = _arc_walk(alpha, steps, rng)
            if len(cells) != steps:
                continue
            predicate = is_simple_arc
        elif kind == "closed":
            cells = _closed_one(steps, rng) if alpha is Adjacency.ONE else _closed_zero(steps, rng)
            predicate = is_simple_closed_curve
        else:
            raise ValueError(f"unknown curve kind {kind!r} (expected 'closed' or 'arc')")
        dx = rng.below(17) - 8
        dy = rng.below(17) - 8
        obj = DigitalObject((x + dx, y + dy) for x, y in cells)
        if predicate(obj, alpha):
            return obj
    raise GenerationError(f"no valid {kind} curve after {_MAX_ATTEMPTS} attempts (seed {seed})")


def _completes_block(c: Pixel, cells: Set[Pixel]) -> bool:
    x, y = c
    for bx in (x - 1, x):
        for by in (y - 1, y):
            if all(
                (qx, qy) == c or (qx, qy) in cells
                for qx in (bx, bx + 1)
                for qy in (by, by + 1)
            ):
                return True
    return False


def generate_blockfree(size: int, seed: int) -> DigitalObject:
    """Random 0-connected object free of 2x2 blocks (holes and tunnels allowed).

    Grows from a seed pixel, adding uniformly chosen boundary cells that do
    not complete a block.  Deterministic per seed.
    """
    if size < 1:
        raise ValueError("size must be positive")
    rng = SplitMix64(seed)
    cells: Set[Pixel] = {(0, 0)}
    order: List[Pixel] = [(0, 0)]
    stall = 0
    while len(cells) < size and stall < 64 * size + 64:
        base = order[rng.below(len(order))]
        dx, dy = Adjacency.ZERO.offsets[rng.below(8)]
        c = (base[0] + dx, base[1] + dy)
        if c in cells or _completes_block(c, cells):
            stall += 1
            continue
        cells.add(c)
        order.append(c)
        stall = 0
    return DigitalObject(cells)
