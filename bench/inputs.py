"""Seeded inputs of the benchmark workloads, made without pixtopo.

Every input is a boolean mask with row index y and column index x, drawn from
numpy's PCG64 seeded with ``[seed, stream]`` so one workload seed gives the
same inputs on every machine with the same numpy.  The verify workload also
needs the pixel total of pixtopo's own random objects; ``verify_pixel_total``
recomputes it from the SplitMix64 stream and inclusion rule documented in
``pixtopo/generate.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import ndimage

# Streams of one seed, one per input.
NOISE, SMOOTH, CURVE, NONCURVE, GROW_OBJECT, GROW_ORDER, VERIFY_SEEDS = range(7)


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def bernoulli(seed: int, stream: int, height: int, width: int, density: float) -> np.ndarray:
    return rng(seed, stream).random((height, width)) < density


def smoothed(seed: int, stream: int, height: int, width: int, sigma: float,
             fill: float) -> np.ndarray:
    """Gaussian-smoothed white noise cut at its ``fill`` quantile.

    Gives a few large components with holes of many sizes, unlike the
    speckle of Bernoulli noise.
    """
    field = ndimage.gaussian_filter(rng(seed, stream).standard_normal((height, width)), sigma)
    return field > np.quantile(field, 1.0 - fill)


def closed_curve(seed: int, stream: int) -> np.ndarray:
    """A large simple closed curve under 1-adjacency.

    The rectangle ring is one by construction: every cell has exactly two
    edge neighbours and no 2x2 block occurs.  Outward bumps on the top and
    bottom walls keep that: a bump lifts the wall cells a..b one row out and
    joins them through the cells a-1 and b+1 of the new row, and bumps stay
    at least four cells apart and off the corners, so no bump meets another
    or a side wall.
    """
    g = rng(seed, stream)
    width = int(g.integers(700, 900))
    height = int(g.integers(700, 900))
    mask = np.zeros((height + 2, width), dtype=bool)
    top, bottom = 1, height
    mask[top, :] = mask[bottom, :] = True
    mask[top:bottom + 1, 0] = mask[top:bottom + 1, width - 1] = True
    for wall, out in ((top, top - 1), (bottom, bottom + 1)):
        a = 2 + int(g.integers(0, 20))
        while True:
            b = a + int(g.integers(0, 40))
            if b + 1 > width - 3:
                break
            mask[wall, a:b + 1] = False
            mask[out, a - 1:b + 2] = True
            a = b + 5 + int(g.integers(0, 40))
    return mask


def non_curve(seed: int, stream: int) -> np.ndarray:
    """A mid-size Bernoulli object with a 2x2 block, so no curve class fits."""
    mask = bernoulli(seed, stream, 256, 256, 0.5)
    mask[:2, :2] = True
    return mask


def write_pbm(path: Path, mask: np.ndarray) -> None:
    """Write a mask as a packed-binary P4 image, top row first."""
    height, width = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P4\n{width} {height}\n".encode())
        fh.write(np.packbits(mask, axis=1).tobytes())


# ---------------------------------------------------------------------------
# SplitMix64, as documented in pixtopo/generate.py

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1


def _mix_int(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _U64
    z = ((z ^ (z >> 27)) * _MIX2) & _U64
    return z ^ (z >> 31)


def _random_pixel_count(seed: int, cells: int, density: float) -> int:
    """Pixels of a random object: cell i is in iff (z_i >> 11) < floor(density * 2**53)."""
    with np.errstate(over="ignore"):
        z = np.arange(1, cells + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(seed)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return int(np.count_nonzero((z >> np.uint64(11)) < np.uint64(int(density * (1 << 53)))))


def verify_pixel_total(seed: int, runs: int, width: int, height: int, density: float) -> int:
    """Total pixels of the random objects of ``pixtopo verify --seed seed``.

    The command draws one object seed from its stream per run, then one draw
    per swap of its Fisher-Yates shuffle, p - 1 draws for p pixels.
    """
    state = seed & _U64
    total = 0
    for _ in range(runs):
        state = (state + _GAMMA) & _U64
        p = _random_pixel_count(_mix_int(state), width * height, density)
        total += p
        state = (state + max(p - 1, 0) * _GAMMA) & _U64
    return total
