"""tools/insert_opcodes.py counts the opcode events of Tracker insertions.

The counts depend on the CPython version, so these tests pin none: they
check that a count repeats, covers add_pixel's callees and nothing else, and
leaves the trace function as it found it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pixtopo import Tracker

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "insert_opcodes.py"
_spec = importlib.util.spec_from_file_location("insert_opcodes", _TOOL)
insert_opcodes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(insert_opcodes)

# a 3x3 block and pixels on a page's last row, last column and last point
PIXELS = [(x, y) for x in range(3) for y in range(3)] + [(7, 3), (3, 7), (7, 7), (8, 8)]


def _prior(frame, event, arg):
    return None


def test_count_repeats_and_restores_the_trace():
    before = sys.gettrace()
    sys.settrace(_prior)
    try:
        first = insert_opcodes.per_insertion(Tracker, PIXELS, skip=4)
        assert sys.gettrace() is _prior
        assert insert_opcodes.per_insertion(Tracker, PIXELS, skip=4) == first > 0
        with pytest.raises(ZeroDivisionError):
            insert_opcodes.count(lambda: 1 / 0, Tracker.add_pixel.__code__)
        assert sys.gettrace() is _prior
    finally:
        sys.settrace(before)


def test_count_covers_add_pixel_and_its_callees_only():
    code = Tracker.add_pixel.__code__

    def insert(pixels, busy=False):
        tracker = Tracker()
        for pixel in pixels:
            if busy:
                sorted(str(i) for i in range(20))  # Python work outside add_pixel
            tracker.add_pixel(pixel)

    plain = insert_opcodes.count(lambda: insert(PIXELS), code)
    assert plain[1] == len(PIXELS)
    assert insert_opcodes.count(lambda: insert(PIXELS, busy=True), code) == plain
    # numpy coordinates take grid._pixel, whose opcodes count too
    numpy_pixels = [(np.int64(x), np.int64(y)) for x, y in PIXELS]
    events, calls = insert_opcodes.count(lambda: insert(numpy_pixels), code)
    assert calls == len(PIXELS) and events > plain[0]


def test_bad_arguments_are_usage_errors(tmp_path, capsys):
    assert insert_opcodes.main([str(tmp_path)]) == 2
    assert insert_opcodes.main(["a", "b"]) == 2
    assert "insert_opcodes.py [TREE]" in capsys.readouterr().err
