"""tools/bench_compare.py pairs result files by workload and seed and judges
each end-to-end metric against its bound in BENCHMARK.json.

The result files here are synthetic: only the fields the tool reads.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

_BASE = {"setup_s": 0.2, "cold_s": 0.7, "op_s": 0.1, "items_per_s": 3e4, "peak_rss_mb": 56.0}


def _write(directory, workload, seed, correct=True, failed=0, **metrics):
    directory.mkdir(exist_ok=True)
    values = dict(_BASE, **metrics)
    (directory / f"result-{workload}-seed{seed}-trace0.json").write_text(json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {name: {"value": value, "unit": "?"} for name, value in values.items()},
    }))


def _rows(out):
    """{metric: (wins, verdict)} of the printed table."""
    rows = re.finditer(r"(?m)^  (\w+) .* (\d+/\d+) +\S+  (.+)$", out)
    return {row[1]: (row[2], row[3]) for row in rows}


def _compare(tmp_path, capsys):
    status = bench_compare.compare(tmp_path / "parent", tmp_path / "change")
    return status, capsys.readouterr().out


def test_identical_runs_are_within_bound(tmp_path, capsys):
    for seed in range(1, 6):
        for side in ("parent", "change"):
            _write(tmp_path / side, "verify", seed, op_s=0.1 + seed / 1000)
    status, out = _compare(tmp_path, capsys)
    assert status == 0
    assert out.startswith("verify: 5 pairs, seeds 1, 2, 3, 4, 5\n")
    assert all(row == ("0/5", "within bound") for row in _rows(out).values())
    assert "parent: attempted 50, failed 0" in out


@pytest.mark.parametrize("metric, factor", [("op_s", 1.3), ("items_per_s", 0.7)])
def test_a_median_worse_than_its_bound_fails(tmp_path, capsys, metric, factor):
    for seed in range(1, 6):
        _write(tmp_path / "parent", "grow", seed)
        _write(tmp_path / "change", "grow", seed, **{metric: _BASE[metric] * factor})
    status, out = _compare(tmp_path, capsys)
    assert status == 1
    assert _rows(out)[metric] == ("0/5", "worse than bound")
    assert _rows(out)["setup_s"] == ("0/5", "within bound")


def test_wins_follow_the_better_direction(tmp_path, capsys):
    for seed in range(1, 5):
        _write(tmp_path / "parent", "image", seed)
        # seeds 1-3 better on both metrics, seed 4 worse on both
        better = seed < 4
        _write(tmp_path / "change", "image", seed,
               op_s=0.09 if better else 0.11, items_per_s=3.3e4 if better else 2.7e4)
    status, out = _compare(tmp_path, capsys)
    assert status == 0
    assert _rows(out)["op_s"] == ("3/4", "within bound")
    assert _rows(out)["items_per_s"] == ("3/4", "within bound")
    assert "change/parent by pair: 0.900 0.900 0.900 1.100" in out


def test_a_parent_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys):
    spread = [0.15, 0.2, 0.25, 0.3, 0.35]  # quartiles 0.2 and 0.3 about 0.25
    for seed, value in enumerate(spread, 1):
        _write(tmp_path / "parent", "grow", seed, setup_s=value, cold_s=value)
        # setup_s a little worse, cold_s below every parent run
        _write(tmp_path / "change", "grow", seed, setup_s=value * 1.05, cold_s=0.1)
    status, out = _compare(tmp_path, capsys)
    assert status == 0
    assert _rows(out)["setup_s"] == ("0/5", "unresolved")
    assert _rows(out)["cold_s"] == ("5/5", "within bound")


def test_an_incorrect_run_fails_and_failures_are_counted(tmp_path, capsys):
    for seed in (1, 2):
        _write(tmp_path / "parent", "verify", seed)
        _write(tmp_path / "change", "verify", seed, correct=seed != 2, failed=seed)
    status, out = _compare(tmp_path, capsys)
    assert status == 1
    assert "change: attempted 20, failed 3" in out
    assert "change: seed 2 not correct" in out
    assert "parent: seed" not in out


def test_only_paired_untraced_runs_count(tmp_path, capsys):
    _write(tmp_path / "parent", "image", 1)
    _write(tmp_path / "parent", "image", 2, op_s=9.0)
    _write(tmp_path / "change", "image", 1)
    _write(tmp_path / "change", "image", 3, op_s=9.0)
    (tmp_path / "change" / "result-image-seed2-trace1.json").write_text("{}")
    status, out = _compare(tmp_path, capsys)
    assert status == 0
    assert "unpaired: image seed 2 only in parent, ignored" in out
    assert "unpaired: image seed 3 only in change, ignored" in out
    assert "image: 1 pairs, seeds 1\n" in out


def test_json_holds_what_is_printed(tmp_path, capsys):
    for seed in range(1, 5):
        _write(tmp_path / "parent", "grow", seed, peak_rss_mb=48.0 + seed / 10)
        _write(tmp_path / "change", "grow", seed, peak_rss_mb=45.0 + seed / 10,
               correct=seed != 3, failed=seed == 4)
    _write(tmp_path / "change", "image", 1)
    out = tmp_path / "compare.json"
    status = bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                                 "--json", str(out)])
    printed = capsys.readouterr().out
    data = json.loads(out.read_text())
    assert status == data["status"] == 1
    assert data["unpaired"] == [{"workload": "image", "seed": 1, "side": "change"}]
    grow = data["workloads"]["grow"]
    assert grow["seeds"] == [1, 2, 3, 4]
    assert grow["parent"] == {"attempted": 40, "failed": 0, "not_correct": []}
    assert grow["change"] == {"attempted": 40, "failed": 1, "not_correct": [3]}
    peak = grow["metrics"]["peak_rss_mb"]
    assert peak["parent"]["median"] == pytest.approx(48.25)
    assert peak["change"]["median"] == pytest.approx(45.25)
    assert peak["parent"]["q1"] < peak["parent"]["median"] < peak["parent"]["q3"]
    assert peak["ratio"] == pytest.approx(45.25 / 48.25)
    assert (peak["wins"], peak["pairs"], peak["bound"]) == (4, 4, 0.05)
    assert len(peak["by_pair"]) == 4
    assert list(grow["metrics"]) == list(_BASE)
    assert {name: (f"{row['wins']}/{row['pairs']}", row["verdict"])
            for name, row in grow["metrics"].items()} == _rows(printed)
    assert data["python"] == ".".join(map(str, sys.version_info[:3]))
    assert data["cpu_count"] >= 1
    assert {"revision", "numpy", "scipy"} <= data.keys()


def test_no_pairs_and_bad_arguments_are_usage_errors(tmp_path):
    _write(tmp_path / "parent", "image", 1)
    _write(tmp_path / "change", "grow", 1)
    assert bench_compare.compare(tmp_path / "parent", tmp_path / "change") == 2
    assert bench_compare.main([str(tmp_path / "parent")]) == 2
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "missing")]) == 2
    assert bench_compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                               "--out", str(tmp_path / "x.json")]) == 2
    assert not (tmp_path / "x.json").exists()


def test_the_script_imports_no_pixtopo(tmp_path):
    for side in ("parent", "change"):
        _write(tmp_path / side, "image", 1)
    result = subprocess.run(
        [sys.executable, "-X", "importtime", str(_TOOL), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--json", str(tmp_path / "compare.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("image: 1 pairs")
    assert json.loads((tmp_path / "compare.json").read_text())["numpy"]
    imported = [line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()]
    assert "json" in imported
    assert not [name for name in imported
                if name.split(".")[0] in ("pixtopo", "numpy", "scipy")]
