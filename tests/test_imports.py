"""What a fresh interpreter loads: scipy.ndimage waits for the first labelling.

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
    result = _child("-X", "importtime", "-c", "import pixtopo, pixtopo.cli")
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "pixtopo.invariants" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


_MAIN = """
import sys
from pixtopo import cli
try:
    status = cli.main(sys.argv[1:])
except SystemExit as exc:
    status = exc.code
print(status, "scipy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv, status, loads_scipy", [
    (["gen", "--width", "4", "--height", "3"], 0, False),
    (["--help"], 0, False),
    (["verify", "--runs", "-1"], 3, False),
    (["analyze", "FILE"], 0, True),
], ids=["gen", "help", "usage-error", "analyze"])
def test_cli_loads_scipy_only_to_label(argv, status, loads_scipy, tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(".#.\n#.#\n.#.\n")
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    last = _child("-c", _MAIN, *argv).stderr.splitlines()[-1]
    assert last == f"{status} {loads_scipy}"


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
real_label = invariants.ndi.label

def label(*args, **kwargs):
    calls.append(1)
    return real_label(*args, **kwargs)

invariants.ndi = Proxy(original, label)
traced = run()
invariants.ndi = original
untraced = run()
import scipy.ndimage
print(json.dumps({
    "scipy_before": before,
    "calls": len(calls),
    "same_reports": traced == untraced,
    "real_label": invariants.ndi.label is scipy.ndimage.label,
}))
"""


def test_a_tracer_can_replace_ndi_before_the_first_labelling():
    result = json.loads(_child("-c", _TRACED).stdout)
    assert result == {
        "scipy_before": False, "calls": 3 + 3, "same_reports": True, "real_label": True,
    }
