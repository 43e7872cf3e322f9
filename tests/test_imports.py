"""What a fresh interpreter loads: only scipy's compiled labeller, at the first
labelling, and the tracker's insertion table, whole, at import.

Each test runs a child from the directory holding the imported package, so
the child finds the same pixtopo whether it is installed or not.  They check
which modules load, not how long loading takes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import pixtopo


def _child(*args):
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        cwd=Path(pixtopo.__file__).parents[1],
    )
    assert result.returncode == 0, result.stderr
    return result


def test_import_loads_no_scipy():
    # the import also builds the tracker's whole insertion table, before any
    # insertion, so no insertion ever fills it
    result = _child(
        "-X", "importtime", "-c",
        "import pixtopo, pixtopo.cli; print('label' in vars(pixtopo.invariants.ndi),"
        " len(pixtopo.incremental._TRANSITIONS))",
    )
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "pixtopo.invariants" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]
    assert result.stdout == "False 401\n"


_MAIN = """
import sys
from pixtopo import cli
try:
    status = cli.main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(status, "scipy" in sys.modules, "scipy.ndimage" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, status, loads_scipy", [
    (["gen", "--width", "4", "--height", "3"], 0, False),
    (["--help"], 0, False),
    (["verify", "--runs", "-1"], 3, False),
    (["analyze", "FILE"], 0, True),
    (["classify", "FILE", "--adjacency", "1"], 0, True),
    (["verify", "--exhaustive", "2x2", "--runs", "1"], 0, True),
], ids=["gen", "help", "usage-error", "analyze", "classify", "verify"])
def test_cli_loads_scipy_only_to_label(argv, status, loads_scipy, tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(".#.\n#.#\n.#.\n")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    last = _child("-c", _MAIN, *argv).stderr.splitlines()[-1]
    assert last == f"{status} {loads_scipy} False"


_TRACED = """
import json, sys
import numpy as np
from pixtopo import DigitalObject, analyze, analyze_batch, invariants

def run():
    diamond = DigitalObject([(1, 0), (0, 1), (2, 1), (1, 2)])
    stack = np.array([np.eye(3), np.ones((3, 3))], dtype=bool)
    return [analyze(diamond), *analyze_batch(stack)]

class Proxy:
    # what a tracer puts in place of invariants.ndi: label counted, the rest forwarded
    def __init__(self, module, label):
        self._module = module
        self.label = label

    def __getattr__(self, name):
        return getattr(self._module, name)

calls = []
original = invariants.__dict__["ndi"]
before = "scipy" in sys.modules

def label(*args, **kwargs):
    calls.append(1)
    return original.label(*args, **kwargs)

invariants.ndi = Proxy(original, label)
traced = run()
invariants.ndi = original
untraced = run()
print(json.dumps({
    "scipy_before": before,
    "calls": len(calls),
    "same_reports": traced == untraced,
    "ndimage": "scipy.ndimage" in sys.modules,
}))
"""


def test_a_tracer_can_replace_ndi_before_the_first_labelling():
    result = json.loads(_child("-c", _TRACED).stdout)
    assert result == {
        "scipy_before": False, "calls": 3 + 3, "same_reports": True, "ndimage": False,
    }


_SAME_LABELS = """
import json, sys
import numpy as np
from pixtopo import invariants

rng = np.random.default_rng(20)
masks = [rng.random(shape) < 0.5 for shape in [(1, 40), (40, 1), (30, 30)]]
stack = np.zeros((6, 7, 9), dtype=bool)
stack[:, 1:-1, 1:-1] = rng.random((6, 5, 7)) < 0.5
masks.append(stack.reshape(-1, 9))  # as _stack_counts passes a stack
cases = [(image, structure) for mask in masks for image in (mask, ~mask)
         for structure in (invariants._STRUCT4, invariants._STRUCT8)]
ours = [invariants.ndi.label(image, structure=structure) for image, structure in cases]
ndimage_before = "scipy.ndimage" in sys.modules
loaded = sys.modules.get("scipy.ndimage._ni_label")

import scipy.ndimage
theirs = [scipy.ndimage.label(image, structure=structure) for image, structure in cases]
print(json.dumps({
    "ndimage_before": ndimage_before,
    "registered": sys.modules["scipy.ndimage._ni_label"] is loaded,
    "reused": scipy.ndimage._measurements._ni_label is loaded,
    "same": [
        a.dtype == c.dtype and np.array_equal(a, c) and int(b) == int(d) > 0
        for (a, b), (c, d) in zip(ours, theirs)
    ],
}))
"""


def test_the_compiled_labeller_labels_as_scipy_ndimage_does():
    result = json.loads(_child("-c", _SAME_LABELS).stdout)
    assert result == {
        "ndimage_before": False, "registered": True, "reused": True, "same": [True] * 16,
    }


_NDIMAGE_FIRST = """
import json, sys
import scipy.ndimage
from pixtopo import DigitalObject, analyze

extension = sys.modules["scipy.ndimage._ni_label"]
real, calls = extension._label, []

def counted(*args):
    calls.append(1)
    return real(*args)

extension._label = counted
report = analyze(DigitalObject([(1, 0), (0, 1), (2, 1), (1, 2)]))
print(json.dumps({"calls": len(calls), "c0 c1 h": [report.c0, report.c1, report.h]}))
"""


def test_after_scipy_ndimage_its_labeller_is_used():
    result = json.loads(_child("-c", _NDIMAGE_FIRST).stdout)
    assert result == {"calls": 3, "c0 c1 h": [1, 4, 1]}
