import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from pixtopo import DigitalObject

# Canonical small objects used throughout; values frozen from tests/oracles.py.
DIAMOND = [(1, 0), (0, 1), (2, 1), (1, 2)]
DOMINO = [(0, 0), (1, 0)]
DIAGONAL_PAIR = [(0, 0), (1, 1)]
RING8 = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
SQUARE2 = [(x, y) for x in range(2) for y in range(2)]
SQUARE3 = [(x, y) for x in range(3) for y in range(3)]


@pytest.fixture
def diamond():
    return DigitalObject(DIAMOND)


@pytest.fixture
def domino():
    return DigitalObject(DOMINO)


@pytest.fixture
def diagonal_pair():
    return DigitalObject(DIAGONAL_PAIR)


@pytest.fixture
def ring8():
    return DigitalObject(RING8)


@pytest.fixture
def square2():
    return DigitalObject(SQUARE2)


@pytest.fixture
def square3():
    return DigitalObject(SQUARE3)


@st.composite
def stretched(draw, objects):
    """An object drawn from ``objects``, and a copy of it in which every gap
    of two or more between occupied coordinates is widened by up to 10^5 and
    which is shifted by up to 10^6 along each axis."""
    o = draw(objects)
    moves = []
    for axis in (0, 1):
        coords = sorted({p[axis] for p in o.pixels})
        extra = draw(st.integers(-10**6, 10**6))
        move = {}
        for prev, c in zip([None] + coords, coords):
            if prev is not None and c - prev >= 2:
                extra += draw(st.integers(0, 10**5))
            move[c] = c + extra
        moves.append(move)
    return o, DigitalObject((moves[0][x], moves[1][y]) for x, y in o.pixels)
