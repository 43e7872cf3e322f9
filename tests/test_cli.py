import json
import subprocess
import sys
from pathlib import Path

import pytest

import pixtopo
from pixtopo.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main

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


def test_module_entry_point(diamond_file):
    # run from the directory holding the imported package, so the child finds
    # the same pixtopo whether it is installed or not
    result = subprocess.run(
        [sys.executable, "-m", "pixtopo.cli", "analyze", diamond_file, "--json"],
        capture_output=True, text=True, cwd=Path(pixtopo.__file__).parents[1],
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["p"] == 4
