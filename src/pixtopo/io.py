"""Reading binary images, writing them back, and emitting analysis reports.

Two input formats are supported: a permissive ASCII grid ('#' or '1' marks a
pixel, '.', '0' or space marks background) and Netpbm PBM, both the ASCII P1
and the packed-binary P4 variant.  The coordinate convention is shared: the
top line is row y=0, y grows downward, the leftmost column is x=0.

Report emission is deterministic: JSON keys keep a fixed order so equal
inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .curves import CurveVerdict
from .grid import MAX_RASTER_CELLS, Adjacency, DigitalObject, _check_raster_size
from .invariants import InvariantReport

FORMAT_VERSION = "1"

PIXEL_CHARS = frozenset("#1")
EMPTY_CHARS = frozenset(".0 ")


class ParseError(ValueError):
    """Malformed input image; the message pinpoints the offending location."""


def parse_ascii_grid(text: str) -> DigitalObject:
    """Parse an ASCII grid; lines may differ in length, missing cells are background.

    Rows end at a line feed or a carriage return and line feed.  Any other
    character outside '#1' / '.0 ', a lone carriage return or another break
    ``str.splitlines`` knows included, raises ParseError naming the 1-based
    line and column.
    """
    pixels = []
    for row, line in enumerate(text.replace("\r\n", "\n").split("\n")):
        for col, ch in enumerate(line):
            if ch in PIXEL_CHARS:
                pixels.append((col, row))
            elif ch not in EMPTY_CHARS:
                raise ParseError(
                    f"unexpected character {ch!r} at line {row + 1}, column {col + 1}"
                )
    return DigitalObject(pixels)


def _writer_mask(obj: DigitalObject) -> np.ndarray:
    """The object as a mask over the writers' box.

    The box runs from (min(xmin, 0), min(ymin, 0)) to the bounding box's far
    corner, so objects in the nonnegative quadrant keep their coordinates.
    Raises ValueError when the box exceeds MAX_RASTER_CELLS.
    """
    box = obj.bounding_box()
    if box is None:
        return np.zeros((0, 0), dtype=bool)
    (x0, y0), (x1, y1) = box
    x0 = min(x0, 0)
    y0 = min(y0, 0)
    width = x1 - x0 + 1
    height = y1 - y0 + 1
    _check_raster_size(width, height)
    return obj._to_mask((x0, y0), (height, width))


def to_ascii_grid(obj: DigitalObject) -> str:
    """Render the object as an ASCII grid, ``#`` for a pixel and ``.`` for an
    empty cell (inverse of parse_ascii_grid).

    When the object lies in the nonnegative quadrant the rendering starts at
    the origin, so parse -> render -> parse is the identity on coordinates;
    otherwise it starts at the bounding-box corner (grids cannot express
    negative positions).  Raises ValueError when the rendered grid would
    exceed MAX_RASTER_CELLS cells.
    """
    cells = np.where(_writer_mask(obj), "#", ".")
    return "\n".join("".join(row) for row in cells.tolist())


# ---------------------------------------------------------------------------
# PBM

_WHITESPACE = b" \t\r\n\x0b\x0c"
_COMMENT = re.compile(rb"#[^\n]*")
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]|#[^\n]*)*([^ \t\r\n\x0b\x0c#]*)")
_P1_VALID = np.zeros(256, dtype=bool)
_P1_VALID[list(_WHITESPACE + b"01")] = True


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comments."""
    match = _HEADER_TOKEN.match(data, pos)
    if not match[1]:
        raise ParseError(f"unexpected end of header at byte {match.start(1)}")
    return match[1], match.end(1)


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, end = _next_token(data, pos)
    if not token.isdigit():
        raise ParseError(f"non-numeric {what} {token!r} at byte {end - len(token)}")
    return int(token), end


def parse_pbm(data: bytes) -> DigitalObject:
    """Parse a PBM image, ASCII (P1) or packed binary (P4); bit 1 is a pixel.

    P1 digits may run together or be separated by whitespace and '#'
    comments.  P4 rows are padded to whole bytes, most significant bit
    first.  Padding bits and bytes after the raster are ignored, and the
    raster becomes the object through ``DigitalObject.from_mask``.  Raises ParseError with a byte offset on bad
    magic, malformed header, an invalid P1 raster byte or a truncated raster,
    and before allocating anything when a side or the area given in the
    header exceeds MAX_RASTER_CELLS.
    """
    magic = data[:2]
    if magic not in (b"P1", b"P4"):
        raise ParseError(f"bad magic {magic!r} at byte 0 (expected P1 or P4)")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    # checked before numpy sees the sizes; either side alone may overflow it,
    # but a 0-width P1 raster never fills a row, so its height is never used
    rows = height if width or magic == b"P4" else 0
    if max(width, rows, width * height) > MAX_RASTER_CELLS:
        raise ParseError(
            f"image {width}x{height} exceeds the raster limit of {MAX_RASTER_CELLS} cells"
        )
    if magic == b"P1":
        if height == 0:
            return DigitalObject()
        # comments become blanks of the same length, so byte offsets survive
        blanked = _COMMENT.sub(lambda m: b" " * len(m[0]), data[pos:])
        raster = np.frombuffer(blanked, dtype=np.uint8)
        digits = np.flatnonzero((raster == ord("0")) | (raster == ord("1")))
        need = width * height
        # a 0-width raster never fills a row, so it reads to the end of the data
        complete = 0 < need <= digits.size
        valid = _P1_VALID[raster[: digits[need - 1] if complete else raster.size]]
        if not valid.all():
            bad = pos + int(np.argmin(valid))
            raise ParseError(f"invalid raster character {data[bad : bad + 1]!r} at byte {bad}")
        if not complete:
            raise ParseError(f"unexpected end of raster at byte {len(data)}")
        return DigitalObject.from_mask((raster[digits[:need]] == ord("1")).reshape(height, width))
    # single whitespace byte separates the header from the raster
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise ParseError(f"missing raster separator at byte {pos}")
    pos += 1
    row_bytes = (width + 7) // 8
    if len(data) - pos < row_bytes * height:
        raise ParseError(f"unexpected end of raster at byte {len(data)}")
    raster = np.frombuffer(data, dtype=np.uint8, count=row_bytes * height, offset=pos)
    rows = raster.reshape(height, row_bytes)
    return DigitalObject.from_mask(np.unpackbits(rows, axis=1, count=width).view(bool))


def to_pbm(obj: DigitalObject, binary: bool = True) -> bytes:
    """Render the object as PBM bytes, P4 when binary else P1.

    Same origin rule and size limit as to_ascii_grid: coordinates are
    preserved for objects in the nonnegative quadrant.
    """
    mask = _writer_mask(obj)
    height, width = mask.shape
    header = f"{width} {height}".encode()
    if not binary:
        digits = mask.view(np.uint8) + ord("0")
        return b"\n".join([b"P1", header, *(row.tobytes() for row in digits)]) + b"\n"
    return b"P4\n" + header + b"\n" + np.packbits(mask, axis=1).tobytes()


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ReportDocument:
    """One analysis result ready for emission."""

    source: str
    report: InvariantReport
    curves: Optional[Dict[Adjacency, CurveVerdict]] = None


def _verdict_dict(verdict: CurveVerdict) -> dict:
    return {
        "adjacency": int(verdict.alpha),
        "is_simple_closed_curve": verdict.is_simple_closed,
        "is_simple_arc": verdict.is_simple_arc,
        "is_general_curve": verdict.is_general_curve,
        "identities": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
            for c in verdict.identity_checks
        ],
    }


def emit_report(doc: ReportDocument, format: str = "text") -> str:
    """Serialize a report document as 'json' or aligned human-readable 'text'.

    JSON field names and order are frozen (c0 and c1 are the component counts
    under 0- and 1-adjacency); output is deterministic for regression diffs.
    """
    rep = doc.report
    if format == "json":
        payload = {
            "source": doc.source,
            "format_version": FORMAT_VERSION,
            "p": rep.p,
            "v": rep.v,
            "c0": rep.c0,
            "c1": rep.c1,
            "h": rep.h,
            "b": rep.b,
            "t_direct": rep.t_direct,
            "t_formula": rep.t_formula,
            "consistent": rep.consistent,
        }
        if doc.curves:
            payload["curve"] = {
                str(int(alpha)): _verdict_dict(verdict)
                for alpha, verdict in sorted(doc.curves.items())
            }
        return json.dumps(payload, indent=2)
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    lines = [
        f"source: {doc.source}",
        f"  pixels         p  = {rep.p}",
        f"  vertices       v  = {rep.v}",
        f"  0-components   c0 = {rep.c0}",
        f"  1-components   c1 = {'-' if rep.c1 is None else rep.c1}",
        f"  proper holes   h  = {rep.h}",
        f"  2x2 blocks     b  = {rep.b}",
        f"  tunnels        t  = {rep.t_direct} (directly counted)",
        "  t = v - 2(p + c - h) + b"
        f" = {rep.v} - 2({rep.p} + {rep.c0} - {rep.h}) + {rep.b} = {rep.t_formula}",
        f"  consistent: {'yes' if rep.consistent else 'NO'}",
    ]
    if doc.curves:
        for alpha, verdict in sorted(doc.curves.items()):
            lines.append(f"  curve classification ({int(alpha)}-adjacency):")
            lines.append(f"    simple closed curve: {verdict.is_simple_closed}")
            lines.append(f"    simple arc:          {verdict.is_simple_arc}")
            lines.append(f"    general curve:       {verdict.is_general_curve}")
            for c in verdict.identity_checks:
                mark = "ok" if c.holds else "VIOLATED"
                lines.append(f"    [{mark}] {c.name}  ({c.lhs} vs {c.rhs})")
    return "\n".join(lines)
