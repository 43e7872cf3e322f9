import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pixtopo
from pixtopo import Tracker, cli, curves, generate_random, grid, invariants, to_pbm
from pixtopo.cli import (
    EXIT_BROKEN_PIPE, EXIT_INCONSISTENT, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main,
)

DIAMOND_TEXT = ".#.\n#.#\n.#.\n"


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_TEXT)
    return str(path)


def test_analyze_text(diamond_file, capsys):
    assert main(["analyze", diamond_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "t = v - 2(p + c - h) + b" in out
    assert "consistent: yes" in out


def test_analyze_json(diamond_file, capsys):
    assert main(["analyze", diamond_file, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 4 and payload["t_direct"] == 4
    assert payload["consistent"] is True
    assert payload["source"] == diamond_file


def test_analyze_with_curve(diamond_file, capsys):
    assert main(["analyze", diamond_file, "--json", "--curve", "0"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["curve"]["0"]["is_simple_closed_curve"] is True


def test_analyze_multiple_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("#\n")
    b = tmp_path / "b.txt"
    b.write_text("##\n")
    assert main(["analyze", str(a), str(b)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("source:") == 2


def test_analyze_pbm(tmp_path, capsys):
    path = tmp_path / "dot.pbm"
    path.write_bytes(b"P1\n1 1\n1\n")
    assert main(["analyze", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["p"] == 1


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("#?\n")
    assert main(["analyze", str(path)]) == EXIT_INPUT
    assert "line 1, column 2" in capsys.readouterr().err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/no/such/file"]) == EXIT_INPUT


def test_analyze_far_apart_pixels(tmp_path, capsys):
    # pixels (0, 0) and (20000, 20000): 20,001 lines, about 40 KB
    path = tmp_path / "far.txt"
    path.write_text("#\n" + "\n" * 19_999 + "." * 20_000 + "#\n")
    assert main(["analyze", str(path), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    counts = {key: payload[key] for key in ("p", "v", "c0", "c1", "h", "b", "t_direct", "t_formula")}
    assert counts == {"p": 2, "v": 8, "c0": 2, "c1": 2, "h": 0, "b": 0, "t_direct": 0, "t_formula": 0}
    assert payload["consistent"] is True


def test_analyze_oversized_pbm_header(tmp_path, capsys):
    path = tmp_path / "huge.pbm"
    path.write_bytes(b"P4\n99999999999999999999 0\n")
    assert main(["analyze", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}: image 99999999999999999999x0 exceeds the raster limit of 100000000 cells\n"
    )


@pytest.mark.parametrize("argv", [
    ["analyze", "{path}"],
    ["analyze", "{path}", "--curve", "1"],
    ["classify", "{path}", "--adjacency", "0"],
])
def test_objects_over_the_raster_limit_exit_2(argv, diamond_file, monkeypatch, capsys):
    monkeypatch.setattr(grid, "MAX_RASTER_CELLS", 8)
    assert main([arg.format(path=diamond_file) for arg in argv]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{diamond_file}: box 3x3 exceeds the raster limit of 8 cells\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing files
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_classify(diamond_file, capsys):
    assert main(["classify", diamond_file, "--adjacency", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "simple closed curve: True" in out


# the diamond, the 8-ring, two pixels 20,000 apart, an empty file and a P4 image
CLASSIFY_INPUTS = {
    "diamond.txt": DIAMOND_TEXT.encode(),
    "ring8.txt": b"###\n#.#\n###\n",
    "far.txt": ("#\n" + "\n" * 19_999 + "." * 20_000 + "#\n").encode(),
    "empty.txt": b"",
    "noise.pbm": to_pbm(generate_random(40, 30, 0.5, 7)),
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("alpha", ["0", "1"])
@pytest.mark.parametrize("name", sorted(CLASSIFY_INPUTS))
def test_classify_prints_what_analyze_curve_prints(name, alpha, json_flag, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(CLASSIFY_INPUTS[name])
    assert main(["classify", str(path), "--adjacency", alpha, *json_flag]) == EXIT_OK
    classified = capsys.readouterr()
    assert main(["analyze", str(path), "--curve", alpha, *json_flag]) == EXIT_OK
    assert capsys.readouterr() == classified
    assert "curve" in classified.out


@pytest.mark.parametrize("argv", [
    ["classify", "{path}", "--adjacency", "0"],
    ["classify", "{path}", "--adjacency", "1", "--json"],
    ["analyze", "{path}", "--curve", "0"],
    ["analyze", "{path}", "{path}", "--curve", "1", "--json"],
])
def test_curve_commands_analyze_each_file_once(argv, diamond_file, monkeypatch, capsys):
    real_count_labels = invariants._count_labels
    calls = []

    def counting(image, structure):
        calls.append(structure)
        return real_count_labels(image, structure)

    monkeypatch.setattr(invariants, "_count_labels", counting)
    assert main([arg.format(path=diamond_file) for arg in argv]) == EXIT_OK
    assert len(calls) == 3 * argv.count("{path}")  # c0, c1 and h of one analysis


def test_classify_alarms_on_inconsistent_reports(diamond_file, monkeypatch, capsys):
    # curve_report counts the object through this helper, on the raster it
    # also reads the degrees from
    real_analyze = curves._analyze_raster

    def inconsistent(p, mask):
        rep = real_analyze(p, mask)
        return replace(rep, t_formula=rep.t_direct + 2, consistent=False)

    monkeypatch.setattr(curves, "_analyze_raster", inconsistent)
    assert main(["classify", diamond_file, "--adjacency", "0", "--json"]) == EXIT_INCONSISTENT
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is False
    assert (payload["t_direct"], payload["t_formula"]) == (4, 6)
    assert payload["curve"]["0"]["is_simple_closed_curve"] is True


def test_verify_runs_clean(capsys):
    code = main([
        "verify", "--grid", "8x8", "--density", "0.5", "--seed", "1",
        "--runs", "20", "--exhaustive", "2x2",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "case frequency:" in out
    assert "failures: 0" in out
    assert "16 subsets checked, 0 inconsistent" in out


# Output pinned before random objects became mask-backed.  The random sweep
# inserts each object's pixels in an order shuffled from the object's
# iteration order, so the case frequencies pin that order as well as the
# generator and the tracker.
VERIFY_3X3_SEED3 = "\n".join([
    "exhaustive 3x3: 512 subsets checked, 0 inconsistent",
    "random sweep: 10 objects on 20x20 at density 0.5",
    "insertions classified: 1985",
    "case frequency:",
    "         1a       380   19.14%",
    "         1b       232   11.69%",
    "         1c       124    6.25%",
    "         1d        57    2.87%",
    "          2       481   24.23%",
    "         3a       357   17.98%",
    "         3b        21    1.06%",
    "          4         3    0.15%",
    "         5a       108    5.44%",
    "         5b        14    0.71%",
    "         5c         2    0.10%",
    "         6a        58    2.92%",
    "         6b        67    3.38%",
    "         6c        23    1.16%",
    "          7        13    0.65%",
    "         8a         3    0.15%",
    "         8b         4    0.20%",
    "         8c         5    0.25%",
    "          9         8    0.40%",
    "        10a        23    1.16%",
    "        10b         2    0.10%",
    "failures: 0",
]) + "\n"


def test_verify_output_is_pinned(capsys):
    code = main([
        "verify", "--exhaustive", "3x3", "--grid", "20x20", "--runs", "10", "--seed", "3",
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out == VERIFY_3X3_SEED3


# The benchmark's verify operation; it checks only three of these lines.
VERIFY_4X3_48X48_SEED12345 = "\n".join([
    "exhaustive 4x3: 4096 subsets checked, 0 inconsistent",
    "random sweep: 24 objects on 48x48 at density 0.5",
    "insertions classified: 27654",
    "case frequency:",
    "         1a      5113   18.49%",
    "         1b      3043   11.00%",
    "         1c      1656    5.99%",
    "         1d       770    2.78%",
    "          2      6356   22.98%",
    "         3a      4754   17.19%",
    "         3b       323    1.17%",
    "         3c         3    0.01%",
    "          4        47    0.17%",
    "         5a      2050    7.41%",
    "         5b       332    1.20%",
    "         5c        17    0.06%",
    "         6a       920    3.33%",
    "         6b       848    3.07%",
    "         6c       334    1.21%",
    "          7       261    0.94%",
    "         8a       103    0.37%",
    "         8b       106    0.38%",
    "         8c        56    0.20%",
    "         8d         4    0.01%",
    "          9       153    0.55%",
    "        10a       383    1.38%",
    "        10b        11    0.04%",
    "        10c        11    0.04%",
    "failures: 0",
]) + "\n"


def test_benchmark_verify_output_is_pinned(capsys):
    code = main([
        "verify", "--exhaustive", "4x3", "--grid", "48x48", "--density", "0.5",
        "--runs", "24", "--seed", "12345",
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out == VERIFY_4X3_48X48_SEED12345


@pytest.mark.parametrize("argv", [
    ["--grid", "0x5"],
    ["--grid", "5x0"],
    ["--exhaustive=2x-1"],
    ["--exhaustive", "0x3"],
])
def test_verify_rejects_bad_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pixtopo verify: error: " in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--runs", "-1"], "--runs -1 is negative"),
    (["--runs", "1", "--density", "1.5"], "density 1.5 outside [0, 1]"),
    (["--runs", "1", "--grid", "4000x4000"],
     "4000x4000 = 16000000 cells exceeds the cap of 10000000"),
    # checked before the exhaustive sweep, and even when no random run is due
    (["--exhaustive", "3x3", "--density", "2"], "density 2.0 outside [0, 1]"),
    (["--runs", "0", "--grid", "4000x4000"],
     "4000x4000 = 16000000 cells exceeds the cap of 10000000"),
])
def test_verify_arguments_out_of_range(argv, message, capsys):
    assert main(["verify", *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: {message}\n"


def test_verify_refuses_exhaustive_grids_over_the_cell_limit(monkeypatch, capsys):
    sweeps = []
    monkeypatch.setattr(pixtopo.verify, "subset_reports", lambda *dims: sweeps.append(dims))
    assert main(["verify", "--exhaustive", "7x3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "exhaustive grid larger than 20 cells is impractical\n"
    assert sweeps == []


def test_verify_sweeps_exhaustive_grids_at_the_cell_limit(monkeypatch, capsys):
    # the real 5x4 sweep checks 1,048,576 subsets in seconds; the stub records the call
    sweeps = []

    def no_subsets(*dims):
        sweeps.append(dims)
        return iter(())

    monkeypatch.setattr(pixtopo.verify, "subset_reports", no_subsets)
    assert main(["verify", "--exhaustive", "5x4", "--runs", "0"]) == EXIT_OK
    assert sweeps == [(5, 4)]
    assert capsys.readouterr().out.startswith(
        "exhaustive 5x4: 1048576 subsets checked, 0 inconsistent\n"
    )


def test_verify_alarms_on_inconsistent_reports(monkeypatch, capsys):
    real_analyze, real_batch = invariants.analyze, invariants.analyze_batch
    faked = []

    def inconsistent(obj):
        rep = real_analyze(obj)
        faked.append(replace(rep, t_formula=rep.t_direct + 2, consistent=False))
        return faked[-1]

    def inconsistent_batch(masks):
        reports = [
            replace(rep, t_formula=rep.t_direct + 2, consistent=False)
            for rep in real_batch(masks)
        ]
        faked.extend(reports)
        return reports

    monkeypatch.setattr(cli, "analyze", inconsistent)
    monkeypatch.setattr(invariants, "analyze", inconsistent)
    monkeypatch.setattr(invariants, "analyze_batch", inconsistent_batch)
    code = main(["verify", "--exhaustive", "1x1", "--grid", "3x3", "--runs", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_INCONSISTENT
    assert len(faked) == 4
    assert captured.err.splitlines() == [
        f"INCONSISTENT subset mask=0x0: {faked[0]}",
        f"INCONSISTENT subset mask=0x1: {faked[1]}",
        f"INCONSISTENT random object (run 0): {faked[2]}",
        f"INCONSISTENT random object (run 1): {faked[3]}",
    ]
    assert captured.out.startswith("exhaustive 1x1: 2 subsets checked, 2 inconsistent\n")
    assert captured.out.endswith("\nfailures: 4\n")


def test_exhaustive_verify_runs_on_the_batch_engine(monkeypatch, capsys):
    # the scalar loop made 4,096 analyze and 12,288 ndi.label calls here
    real_analyze, real_ndi = invariants.analyze, invariants.ndi
    calls = {"analyze": 0, "label": 0}

    def counting_analyze(obj):
        calls["analyze"] += 1
        return real_analyze(obj)

    class CountingNdi:
        def __getattr__(self, name):
            return getattr(real_ndi, name)

        def label(self, *args, **kwargs):
            calls["label"] += 1
            return real_ndi.label(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze", counting_analyze)
    monkeypatch.setattr(invariants, "analyze", counting_analyze)
    monkeypatch.setattr(invariants, "ndi", CountingNdi())
    assert main(["verify", "--exhaustive", "4x3", "--runs", "0"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(
        "exhaustive 4x3: 4096 subsets checked, 0 inconsistent\n"
    )
    assert calls["analyze"] == 0
    assert 0 < calls["label"] <= 12


def test_random_verify_runs_on_the_batch_engine(monkeypatch, capsys):
    # the per-object loop made 24 analyze and 72 ndi.label calls here
    real_analyze, real_ndi = invariants.analyze, invariants.ndi
    calls = {"analyze": 0, "label": 0}

    def counting_analyze(obj):
        calls["analyze"] += 1
        return real_analyze(obj)

    class CountingNdi:
        def __getattr__(self, name):
            return getattr(real_ndi, name)

        def label(self, *args, **kwargs):
            calls["label"] += 1
            return real_ndi.label(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze", counting_analyze)
    monkeypatch.setattr(invariants, "analyze", counting_analyze)
    monkeypatch.setattr(invariants, "ndi", CountingNdi())
    assert main(["verify", "--grid", "48x48", "--runs", "24"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("\nfailures: 0\n")
    assert calls["analyze"] == 0
    assert 0 < calls["label"] <= 3


def test_verify_alarms_on_tracker_mismatch(monkeypatch, capsys):
    real_batch, real_snapshot = invariants.analyze_batch, Tracker.snapshot
    reports, snaps = [], []

    def recording(masks):
        batch = real_batch(masks)
        reports.extend(batch)
        return batch

    def off_by_one(self):
        snap = real_snapshot(self)
        snaps.append(replace(snap, b=snap.b + 1))
        return snaps[-1]

    monkeypatch.setattr(invariants, "analyze_batch", recording)
    monkeypatch.setattr(Tracker, "snapshot", off_by_one)
    code = main(["verify", "--grid", "3x3", "--runs", "2", "--seed", "4"])
    captured = capsys.readouterr()
    assert code == EXIT_INCONSISTENT
    assert len(reports) == len(snaps) == 2
    assert captured.err.splitlines() == [
        f"TRACKER MISMATCH (run {run}): {snaps[run]} vs {reports[run]}" for run in range(2)
    ]
    assert captured.out.endswith("\nfailures: 2\n")


def test_gen_deterministic(capsys):
    assert main(["gen", "--width", "8", "--height", "8", "--seed", "5"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["gen", "--width", "8", "--height", "8", "--seed", "5"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_gen_curve_to_file_and_analyze(tmp_path, capsys):
    out_path = tmp_path / "curve.txt"
    assert main([
        "gen", "--curve", "closed", "--adjacency", "1", "--steps", "16",
        "--seed", "2", "-o", str(out_path),
    ]) == EXIT_OK
    assert main(["analyze", str(out_path), "--json", "--curve", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["curve"]["1"]["is_simple_closed_curve"] is True
    assert payload["t_direct"] == payload["v"] - 2 * payload["p"]


def test_gen_conflicting_options(capsys):
    assert main(["gen", "--curve", "arc", "--width", "5"]) == EXIT_USAGE


@pytest.mark.parametrize("steps", ["0", "20000"])
def test_gen_curve_steps_out_of_range_is_a_usage_error(steps, capsys):
    assert main(["gen", "--curve", "arc", "--steps", steps]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gen: steps must be in 1..10000\n"


def test_gen_to_an_unwritable_path_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    assert main(["gen", "--width", "3", "--height", "3", "-o", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gen: {path}: No such file or directory\n"


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_format_option_is_gone(command, diamond_file, capsys):
    argv = [command, diamond_file, "--format", "ascii"]
    if command == "classify":
        argv += ["--adjacency", "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --format ascii" in capsys.readouterr().err


def _pixtopo(*argv, **kwargs):
    # run from the directory holding the imported package, so the child finds
    # the same pixtopo whether it is installed or not
    return subprocess.Popen(
        [sys.executable, "-m", "pixtopo.cli", *argv],
        cwd=Path(pixtopo.__file__).parents[1], **kwargs,
    )


def test_closed_stdout_exits_141_quietly():
    # 4 MB of grid, more than a pipe holds: the child blocks in print until
    # the pipe closes under it
    child = _pixtopo("gen", "--width", "2000", "--height", "2000",
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(16)
    child.stdout.close()
    assert child.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert child.stderr.read() == b""
    child.stderr.close()


def test_pipe_closed_before_the_exit_flush_exits_141_quietly():
    # buffered stdout holds the whole report until it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    child = _pixtopo("verify", "--exhaustive", "1x1", "--runs", "0",
                     stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    _, err = child.communicate(timeout=60)
    assert child.returncode == EXIT_BROKEN_PIPE
    assert err == b""


def _analyze_diamond_with_module(module, diamond_file):
    # run from the directory holding the imported package, so the child finds
    # the same pixtopo whether it is installed or not
    result = subprocess.run(
        [sys.executable, "-m", module, "analyze", diamond_file, "--json"],
        capture_output=True, text=True, cwd=Path(pixtopo.__file__).parents[1],
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["p"] == 4


def test_module_entry_point(diamond_file):
    _analyze_diamond_with_module("pixtopo.cli", diamond_file)


def test_package_entry_point(diamond_file):
    _analyze_diamond_with_module("pixtopo", diamond_file)
