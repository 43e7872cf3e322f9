"""The README's python blocks run, and return what their comments say.

In the library tour an expression statement followed by a comment claims
its value: ``tracker.snapshot().h  # 0, derived ...`` claims 0.  The
comment lines under ``rep = analyze(diamond)`` spell out that report.
"""

import ast
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from pixtopo import InvariantReport

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def _claims(block):
    """(statement, claimed value or None) for each top-level statement."""
    lines = block.splitlines()
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2]
        claim = re.match(r"\s*([^\s,:]+)", comment) if isinstance(stmt, ast.Expr) else None
        yield stmt, None if claim is None else ast.literal_eval(claim[1])


def _run(block, namespace):
    out = StringIO()
    checked = 0
    with redirect_stdout(out):
        for stmt, claim in _claims(block):
            if claim is None:
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            else:
                value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
                assert value == claim, ast.unparse(stmt)
                checked += 1
    return checked, out.getvalue()


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


def test_library_tour_returns_what_its_comments_say():
    namespace = {}
    checked, _ = _run(BLOCKS[0], namespace)
    assert checked == 3  # snapshot().h, is_simple_closed and report == rep
    comment = re.match(r"(?:#.*\n)+", BLOCKS[0].split("rep = analyze(diamond)\n")[1])[0]
    stated = "".join(line.lstrip("# ") for line in comment.splitlines())
    assert namespace["rep"] == eval(stated, {"InvariantReport": InvariantReport})
    assert namespace["rep"] == InvariantReport(4, 12, 1, 4, 1, 0, 4, 4, True)
    assert (namespace["delta"].dh, namespace["delta"].dt) == (-1, -4)  # "dh=-1, dt=-4"


def test_verify_tour_runs_and_prints_the_case_table():
    _, out = _run(BLOCKS[1], {})
    assert out.strip()
