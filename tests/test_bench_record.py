"""tools/bench_record.py runs each tree's bench/run.py for every workload and
seed, alternating which tree goes first, and compares the copied results.

The trees here are stubs whose bench/run.py logs its arguments and writes a
fixed result file: only the fields bench_compare reads.
"""

import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_BENCHMARK = json.loads((_TOOL.parents[1] / "BENCHMARK.json").read_text())
_WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]

_STUB = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
bench = Path(__file__).resolve().parent
with open(bench.parents[1] / "log.txt", "a") as log:
    log.write(" ".join([bench.parent.name, args["--workload"], args["--seed"],
                        args["--seconds"], args["--trace"]]) + "\\n")
if args["--seed"] == {fail_seed!r}:
    sys.exit(1)
(bench / "out").mkdir(exist_ok=True)
name = "result-{{}}-seed{{}}-trace0.json".format(args["--workload"], args["--seed"])
(bench / "out" / name).write_text(json.dumps({{
    "correct": True, "attempted": 4, "failed": 0,
    "metrics": {{m: {{"value": {value}, "unit": "?"}} for m in
                ("setup_s", "cold_s", "op_s", "items_per_s", "peak_rss_mb")}},
}}))
"""


def _git(tree, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=tree, capture_output=True, text=True, check=True).stdout.strip()


def _tree(root, name, value=1.0, fail_seed=None):
    tree = root / name
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(_STUB.format(value=value, fail_seed=str(fail_seed)))
    return tree


def _record(*args):
    return subprocess.run([sys.executable, "-X", "importtime", str(_TOOL), *map(str, args)],
                          capture_output=True, text=True)


def test_runs_alternate_and_each_tree_keeps_its_revision(tmp_path):
    parent, change = _tree(tmp_path, "parent"), _tree(tmp_path, "change")
    for tree in (parent, change):
        _git(tree, "init", "-q")
        _git(tree, "add", "-A")
        _git(tree, "commit", "-q", "-m", "stub")
    (change / "bench" / "run.py").write_text(
        (change / "bench" / "run.py").read_text().replace("1.0", "0.9"))  # dirty
    out = tmp_path / "record"
    result = _record(parent, change, "--seeds", "3-5", "--out", out)
    assert result.returncode == 0, result.stderr
    seconds = f"{_BENCHMARK['run_seconds']:g}"
    expected = []
    for seed, order in ((3, ("parent", "change")), (4, ("change", "parent")),
                        (5, ("parent", "change"))):
        expected += [f"{side} {w} {seed} {seconds} 0" for w in _WORKLOADS for side in order]
    assert (tmp_path / "log.txt").read_text().splitlines() == expected
    for side in ("parent", "change"):
        assert sorted(p.name for p in (out / side).iterdir()) == sorted(
            f"result-{w}-seed{s}-trace0.json" for w in _WORKLOADS for s in (3, 4, 5))
    assert f"{_WORKLOADS[0]}: 3 pairs, seeds 3, 4, 5" in result.stdout
    document = json.loads((out / "compare.json").read_text())
    assert document["parent_revision"] == _git(parent, "rev-parse", "HEAD")
    assert document["change_revision"] == _git(change, "rev-parse", "HEAD") + "-dirty"
    assert "revision" not in document
    assert (document["seeds"], document["run_seconds"], document["status"]) == (
        [3, 5], _BENCHMARK["run_seconds"], 0)
    op_s = document["workloads"][_WORKLOADS[0]]["metrics"]["op_s"]
    assert (op_s["wins"], op_s["pairs"]) == (3, 3)
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "json" in imported
    assert not [name for name in imported
                if name.split(".")[0] in ("pixtopo", "numpy", "scipy")]


def test_a_run_without_a_result_fails_and_no_stale_file_is_copied(tmp_path):
    parent, change = _tree(tmp_path, "parent"), _tree(tmp_path, "change", fail_seed=2)
    stale = change / "bench" / "out" / f"result-{_WORKLOADS[0]}-seed2-trace0.json"
    stale.parent.mkdir()
    stale.write_text("{}")
    out = tmp_path / "record"
    result = _record(parent, change, "--seeds", "1-2", "--out", out)
    assert result.returncode == 1
    assert f"{_WORKLOADS[0]} seed 2 wrote no result (exit 1)" in result.stderr
    assert not stale.exists()
    assert sorted(p.name for p in (out / "change").iterdir()) == sorted(
        f"result-{w}-seed1-trace0.json" for w in _WORKLOADS)
    document = json.loads((out / "compare.json").read_text())
    assert document["parent_revision"] is None and document["change_revision"] is None
    assert {run["seed"] for run in document["unpaired"]} == {2}


def test_bad_arguments_are_usage_errors(tmp_path):
    parent, change = _tree(tmp_path, "parent"), _tree(tmp_path, "change")
    for args in ([parent, change, "--seeds", "1-2"],
                 [parent, change, "--seeds", "3-1", "--out", tmp_path / "o"],
                 [parent, change, "--seeds", "a-b", "--out", tmp_path / "o"],
                 [parent, tmp_path / "missing", "--seeds", "1", "--out", tmp_path / "o"],
                 [parent, change, "--out", tmp_path / "o", "--seeds", "1"]):
        assert _record(*args).returncode == 2
    assert not (tmp_path / "o").exists()
    assert not (tmp_path / "log.txt").exists()
