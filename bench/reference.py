"""Reference counter for the benchmark: p, v, c0, c1, h, b and t without pixtopo.

It works on a stack of boolean masks of shape (N, H, W), row index y and
column index x; every slice is one object.  p, v, b and t come from
bit-quads (Gray 1971): each lattice point of the padded mask gets the 4-bit
code of the pixels around it, v counts non-zero codes, b the full code and t
the two diagonal codes.  c0, c1 and h come from labelling an explicit
adjacency graph with scipy.sparse.csgraph, an algorithm pixtopo does not use:
c0 and c1 over the pixels under 8- and 4-adjacency, and h over the
4-connected complement of the mask padded by one cell, minus its one
unbounded region.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# Offsets (dy, dx) that reach every adjacent pair once.
_OFFSETS_4 = ((0, 1), (1, 0))
_OFFSETS_8 = ((0, 1), (1, 0), (1, 1), (1, -1))

# Bit-quad codes: upper-left 1, upper-right 2, lower-left 4, lower-right 8.
_BLOCK_CODE = 15
_DIAGONAL_CODES = (6, 9)


def _pad(stack: np.ndarray) -> np.ndarray:
    return np.pad(stack, ((0, 0), (1, 1), (1, 1)))


def components_per_slice(stack: np.ndarray, offsets) -> np.ndarray:
    """Number of connected components of the set cells of every slice."""
    n, h, w = stack.shape
    flat = np.flatnonzero(stack)
    if flat.size == 0:
        return np.zeros(n, dtype=np.int64)
    ids = np.full(stack.shape, -1, dtype=np.int64)
    ids.reshape(-1)[flat] = np.arange(flat.size)
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    for dy, dx in offsets:
        x0, x1 = max(0, -dx), w - max(0, dx)
        src = ids[:, : h - dy, x0:x1]
        dst = ids[:, dy:, x0 + dx : x1 + dx]
        both = (src >= 0) & (dst >= 0)
        rows.append(src[both])
        cols.append(dst[both])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    graph = coo_matrix((np.ones(r.size, dtype=np.int8), (r, c)), shape=(flat.size, flat.size))
    count, labels = connected_components(graph, directed=False)
    component_slice = np.empty(count, dtype=np.int64)
    component_slice[labels] = flat // (h * w)
    return np.bincount(component_slice, minlength=n)


def counts(stack: np.ndarray) -> Dict[str, np.ndarray]:
    """Every counter of every slice of a (N, H, W) boolean stack."""
    stack = np.asarray(stack, dtype=bool)
    if stack.ndim != 3:
        raise ValueError(f"expected a (N, H, W) stack, got shape {stack.shape}")
    padded = _pad(stack)
    q = padded.astype(np.uint8)
    code = q[:, :-1, :-1] + 2 * q[:, :-1, 1:] + 4 * q[:, 1:, :-1] + 8 * q[:, 1:, 1:]
    per_slice = (1, 2)
    return {
        "p": stack.sum(axis=per_slice, dtype=np.int64),
        "v": np.count_nonzero(code, axis=per_slice).astype(np.int64),
        "c0": components_per_slice(stack, _OFFSETS_8),
        "c1": components_per_slice(stack, _OFFSETS_4),
        "h": components_per_slice(~padded, _OFFSETS_4) - 1,
        "b": np.count_nonzero(code == _BLOCK_CODE, axis=per_slice).astype(np.int64),
        "t": np.count_nonzero(np.isin(code, _DIAGONAL_CODES), axis=per_slice).astype(np.int64),
    }


def expected_report(mask: np.ndarray) -> Dict[str, object]:
    """The report fields pixtopo must give for one (H, W) mask."""
    c = {k: int(v[0]) for k, v in counts(mask[None]).items()}
    t_formula = c["v"] - 2 * (c["p"] + c["c0"] - c["h"]) + c["b"]
    return {
        "p": c["p"],
        "v": c["v"],
        "c0": c["c0"],
        "c1": c["c1"],
        "h": c["h"],
        "b": c["b"],
        "t_direct": c["t"],
        "t_formula": t_formula,
        "consistent": c["t"] == t_formula,
    }


def report_errors(report: Dict[str, object], expected: Dict[str, object],
                  skip: tuple = ()) -> List[str]:
    """Every way a report differs from the expected one; empty when it matches.

    Besides field equality this checks the identity itself, t_formula ==
    t_direct, and that ``consistent`` says so.  ``skip`` names fields the
    report does not carry, such as c1 of a tracker snapshot.
    """
    errors = []
    for key, want in expected.items():
        if key in skip:
            continue
        got = report.get(key)
        if got != want or type(got) is not type(want):
            errors.append(f"{key}: got {got!r}, expected {want!r}")
    if report.get("t_formula") != report.get("t_direct"):
        errors.append(f"t_formula {report.get('t_formula')!r} != t_direct {report.get('t_direct')!r}")
    if report.get("consistent") is not True:
        errors.append(f"consistent is {report.get('consistent')!r}")
    return errors
