import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DIAMOND
from pixtopo import (
    Adjacency,
    DigitalObject,
    ParseError,
    ReportDocument,
    analyze,
    curve_report,
    emit_report,
    parse_ascii_grid,
    parse_pbm,
    to_ascii_grid,
    to_pbm,
)
from pixtopo.grid import MAX_RASTER_CELLS
from pixtopo.io import _header_int

grid_objects = st.builds(
    DigitalObject,
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40),
)


@st.composite
def wide_objects(draw):
    """Objects exactly 9 or 17 columns wide: one and two P4 bytes plus one bit."""
    width = draw(st.sampled_from([9, 17]))
    cells = draw(st.sets(st.tuples(st.integers(0, width - 1), st.integers(0, 5)), max_size=40))
    return DigitalObject(cells | {(width - 1, 0)})


def as_mask_backed(cells):
    """The same pixels, held as a mask."""
    x0 = min([x for x, _ in cells], default=0)
    y0 = min([y for _, y in cells], default=0)
    mask = np.zeros((32, 32), dtype=bool)
    for x, y in cells:
        mask[y - y0, x - x0] = True
    return DigitalObject.from_mask(mask, (x0, y0))


# --- ascii grids -------------------------------------------------------------

def test_parse_single_pixel():
    assert parse_ascii_grid("#").pixels == {(0, 0)}


def test_parse_diamond():
    assert parse_ascii_grid(".#.\n#.#\n.#.").pixels == set(DIAMOND)


def test_parse_alternate_alphabet():
    assert parse_ascii_grid("010\n1 1\n0#0").pixels == {(1, 0), (0, 1), (2, 1), (1, 2)}


def test_parse_ragged_lines():
    assert parse_ascii_grid("#\n..#").pixels == {(0, 0), (2, 1)}


def test_parse_error_position():
    with pytest.raises(ParseError, match="line 1, column 2"):
        parse_ascii_grid("#?")
    with pytest.raises(ParseError, match="line 3, column 1"):
        parse_ascii_grid("#.\n.#\nx.")


@pytest.mark.parametrize("brk", ["\x0c", "\x1c", "\x85", "\u2028", "\r", "\x0b"])
def test_only_line_feeds_break_rows(brk):
    # str.splitlines breaks at each of these; the grid's alphabet has none
    with pytest.raises(ParseError, match="line 1, column 2"):
        parse_ascii_grid(f"#{brk}#")
    with pytest.raises(ParseError, match="line 2, column 1"):
        parse_ascii_grid(f"#\r\n{brk}#")
    assert parse_ascii_grid("#.\r\n.#\r\n").pixels == {(0, 0), (1, 1)}


def test_parse_empty_text():
    assert len(parse_ascii_grid("")) == 0


def test_ascii_round_trip():
    text = "..#.\n#..#\n.##."
    obj = parse_ascii_grid(text)
    assert parse_ascii_grid(to_ascii_grid(obj)) == obj
    assert to_ascii_grid(obj) == text.replace(" ", ".")


def test_ascii_render_preserves_origin_offsets():
    obj = parse_ascii_grid("..\n.#")
    assert to_ascii_grid(obj) == "..\n.#"


@given(grid_objects)
@settings(max_examples=200)
def test_ascii_round_trip_property(obj):
    assert parse_ascii_grid(to_ascii_grid(obj)) == obj


# --- pbm ---------------------------------------------------------------------

def test_parse_p1_single():
    assert parse_pbm(b"P1\n1 1\n1\n").pixels == {(0, 0)}


def test_parse_p1_diamond():
    data = b"P1\n# a comment\n3 3\n010\n101\n010\n"
    assert parse_pbm(data).pixels == set(DIAMOND)


def test_parse_p1_dense_bits():
    assert parse_pbm(b"P1 2 2 1011").pixels == {(0, 0), (0, 1), (1, 1)}


def test_parse_p4_round_trip():
    obj = DigitalObject(DIAMOND)
    assert parse_pbm(to_pbm(obj, binary=True)) == obj
    assert parse_pbm(to_pbm(obj, binary=False)) == obj


def test_p4_bit_packing_is_msb_first():
    # 9 columns: second row byte holds only the leftmost bit of column 8
    obj = DigitalObject([(0, 0), (8, 0)])
    raw = to_pbm(obj, binary=True)
    assert raw.endswith(b"\x80\x80")


def test_parse_p4_truncated_raster():
    data = to_pbm(DigitalObject(DIAMOND), binary=True)[:-1]
    with pytest.raises(ParseError, match="unexpected end of raster"):
        parse_pbm(data)


def test_parse_bad_magic():
    with pytest.raises(ParseError, match="bad magic"):
        parse_pbm(b"P5\n1 1\n255\n\x00")


def test_parse_bad_header():
    with pytest.raises(ParseError, match="non-numeric width"):
        parse_pbm(b"P1\nx 3\n")


def test_parse_p1_bad_raster_char():
    with pytest.raises(ParseError, match="invalid raster character"):
        parse_pbm(b"P1\n2 1\n12\n")


def test_parse_p1_truncated():
    with pytest.raises(ParseError, match="unexpected end of raster"):
        parse_pbm(b"P1\n2 2\n101")


@given(st.one_of(grid_objects, wide_objects()))
@settings(max_examples=150)
def test_formats_agree(obj):
    assert parse_pbm(to_pbm(obj, binary=True)) == obj
    assert parse_pbm(to_pbm(obj, binary=False)) == obj
    assert parse_ascii_grid(to_ascii_grid(obj)) == obj


@given(st.sets(st.tuples(st.integers(-12, 9), st.integers(-12, 9)), max_size=40))
@settings(max_examples=150)
def test_writers_start_negative_objects_at_their_corner(cells):
    # negative positions do not round-trip: each writer renders the object
    # shifted by (-min(x0, 0), -min(y0, 0)), from either constructor
    obj = DigitalObject(cells)
    dx = -min([0] + [x for x, _ in cells])
    dy = -min([0] + [y for _, y in cells])
    shifted = obj.translate(dx, dy)
    for o in (obj, as_mask_backed(cells)):
        assert to_pbm(o, binary=True) == to_pbm(shifted, binary=True)
        assert to_pbm(o, binary=False) == to_pbm(shifted, binary=False)
        assert to_ascii_grid(o) == to_ascii_grid(shifted)
    assert parse_pbm(to_pbm(obj)) == shifted


@pytest.mark.parametrize("write", [
    to_ascii_grid,
    lambda o: to_pbm(o, binary=True),
    lambda o: to_pbm(o, binary=False),
])
def test_writers_refuse_oversized_images(write):
    with pytest.raises(
        ValueError, match=r"^box 20001x20001 exceeds the raster limit of 100000000 cells$"
    ):
        write(DigitalObject([(0, 0), (20_000, 20_000)]))


@pytest.mark.parametrize("header", [
    b"P4\n99999999999999999999 0\n",
    b"P4\n0 99999999999999999999\n",
    b"P4\n10001 10000\n",
    b"P1\n99999999999999999999 0\n",
    b"P1\n10001 10000\n",
])
def test_parse_pbm_refuses_oversized_headers(header):
    width, height = header[3:].split()
    with pytest.raises(ParseError, match=(
        f"^image {width.decode()}x{height.decode()} exceeds the raster limit of 100000000 cells$"
    )):
        parse_pbm(header)


def test_writers_on_the_empty_object():
    assert to_pbm(DigitalObject(), binary=True) == b"P4\n0 0\n"
    assert to_pbm(DigitalObject(), binary=False) == b"P1\n0 0\n"
    assert to_ascii_grid(DigitalObject()) == ""


# --- P4 decoding against a per-bit reference -----------------------------

def _p4_pixels(width, height, raster):
    """Decode a P4 raster one bit at a time, most significant bit first."""
    row_bytes = (width + 7) // 8
    return {
        (x, y)
        for y in range(height)
        for x in range(width)
        if raster[y * row_bytes + (x >> 3)] & (0x80 >> (x & 7))
    }


def _assert_decodes_like_reference(width, height, raster, trailing=b""):
    obj = parse_pbm(b"P4\n%d %d\n" % (width, height) + raster + trailing)
    expected = _p4_pixels(width, height, raster)
    assert obj.pixels == expected
    assert list(obj) == sorted(expected, key=lambda p: (p[1], p[0]))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parse_p4_matches_bitwise_decoding(width, seed):
    height = 5
    raster = np.random.default_rng([width, seed]).integers(
        0, 256, size=height * ((width + 7) // 8), dtype=np.uint8
    ).tobytes()
    _assert_decodes_like_reference(width, height, raster)


@pytest.mark.parametrize("width", [1, 7, 9, 17])
def test_parse_p4_ignores_set_padding_bits(width):
    # every bit set, padding included: exactly the width x 3 cells are pixels
    raster = b"\xff" * (3 * ((width + 7) // 8))
    _assert_decodes_like_reference(width, 3, raster)
    assert len(parse_pbm(b"P4\n%d 3\n" % width + raster)) == 3 * width


def test_parse_p4_ignores_trailing_bytes():
    _assert_decodes_like_reference(9, 2, b"\x81\x80\x7f\x00", trailing=b"\xff\xffP4 junk")


@pytest.mark.parametrize("header", [b"P4\n0 4\n", b"P4\n5 0\n", b"P4\n0 0\n", b"P4 0 3 "])
def test_parse_p4_without_cells(header):
    assert parse_pbm(header) == DigitalObject()
    assert parse_pbm(header + b"\xff\xff") == DigitalObject()


@pytest.mark.parametrize("data, end", [
    (b"P4\n9 2\n\x80\x80\x80", 10),
    (b"P4\n8 3\n", 7),
    (b"P4\n1 1\n", 7),
])
def test_parse_p4_truncated_raster_message(data, end):
    assert len(data) == end
    with pytest.raises(ParseError, match=f"^unexpected end of raster at byte {end}$"):
        parse_pbm(data)


# --- P1 decoding against the per-byte loop it replaced -------------------

_P1_WHITESPACE = b" \t\r\n\x0b\x0c"


def _p1_reference(data):
    """The per-byte P1 raster loop, after the header; pixels or the error text."""
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    # the header's size check comes first; a 0-width raster never uses its height
    if max(width, width * height) > MAX_RASTER_CELLS:
        return f"image {width}x{height} exceeds the raster limit of {MAX_RASTER_CELLS} cells"
    pixels = []
    x = y = 0
    n = len(data)
    while y < height:
        if pos >= n:
            return f"unexpected end of raster at byte {pos}"
        ch = data[pos : pos + 1]
        if ch in _P1_WHITESPACE:
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch in (b"0", b"1"):
            if ch == b"1":
                pixels.append((x, y))
            pos += 1
            x += 1
            if x == width:
                x = 0
                y += 1
        else:
            return f"invalid raster character {ch!r} at byte {pos}"
    return set(pixels)


def _assert_p1_like_reference(data):
    try:
        expected = _p1_reference(data)
    except ParseError as exc:  # a header error, raised by the shared header parser
        expected = str(exc)
    if isinstance(expected, str):
        with pytest.raises(ParseError) as exc:
            parse_pbm(data)
        assert str(exc.value) == expected
    else:
        obj = parse_pbm(data)
        assert obj.pixels == expected
        assert list(obj) == sorted(expected, key=lambda p: (p[1], p[0]))


@pytest.mark.parametrize("data", [
    b"P1\n3 2\n1 0 1\n# 111 a comment\n0 1 0\n",   # comment inside the raster
    b"P1\n3 2\n1 0#11\n1\n0 1 0\n",                 # comment mid-row, then more digits
    b"P1 2 2#c\n1 1 1 1",                           # comment right after the header
    b"P1 4 3 011010011101",                         # digits with no whitespace
    b"P1\n3 3\n101\n010\n1",                        # truncated raster
    b"P1\n3 3\n",                                   # header only
    b"P1 2 2",                                      # no separator, no raster
    b"P1\n3 2\n101\n0x1\n",                         # invalid byte before the last digit
    b"P1\n3 2\n101\n011x\xff\n",                    # invalid bytes after the last digit
    b"P1\n3 2\n101\n011\x00",
    b"P1\n2 2\n1\xff",
    b"P1\n0 3\n",                                   # 0-width header
    b"P1\n0 3\n0 1 1\n",
    b"P1\n0 2\n01x",
    b"P1\n4 0\n",                                   # 0-height header
    b"P1\n4 0\nxyz",
    b"P1\n0 0\n",
    b"P1 1 0100000101",                             # height runs into the digits, over the limit
])
def test_parse_p1_matches_per_byte_loop(data):
    _assert_p1_like_reference(data)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([b"", b" ", b"\n", b"#c\n", b"\t"]),
    st.lists(
        st.sampled_from([b"0", b"1", b"01", b" ", b"\n", b"\r", b"#", b"#1 0\n", b"x", b"\xff"]),
        max_size=30,
    ),
)
def test_parse_p1_matches_per_byte_loop_property(width, height, separator, body):
    _assert_p1_like_reference(b"P1 %d %d" % (width, height) + separator + b"".join(body))


@pytest.mark.parametrize("data", [
    b"P1 0 100010101",           # a height over the raster limit, digits run into it
    b"P1\n0 999999999\n0 1 1\n",
    b"P1\n0 999999999\n01x",
])
def test_parse_p1_zero_width_never_reaches_the_raster_limit(data):
    # a 0-width raster never fills a row, so the height allocates nothing
    _assert_p1_like_reference(data)


def test_parse_p1_is_mask_backed():
    obj = parse_pbm(to_pbm(DigitalObject(DIAMOND), binary=False))
    assert obj == DigitalObject(DIAMOND)


# --- report emission ---------------------------------------------------------

def _diamond_doc(with_curve=False):
    obj = DigitalObject(DIAMOND)
    curves = {Adjacency.ZERO: curve_report(obj, Adjacency.ZERO)} if with_curve else None
    return ReportDocument(source="diamond", report=analyze(obj), curves=curves)


def test_emit_json_fields_and_order():
    payload = json.loads(emit_report(_diamond_doc(), "json"))
    assert list(payload) == [
        "source", "format_version", "p", "v", "c0", "c1", "h", "b",
        "t_direct", "t_formula", "consistent",
    ]
    assert payload["p"] == 4 and payload["v"] == 12 and payload["c0"] == 1
    assert payload["c1"] == 4 and payload["h"] == 1 and payload["b"] == 0
    assert payload["t_direct"] == 4 and payload["t_formula"] == 4
    assert payload["consistent"] is True


def test_emit_json_deterministic():
    assert emit_report(_diamond_doc(True), "json") == emit_report(_diamond_doc(True), "json")


def test_emit_json_curve_subobject():
    payload = json.loads(emit_report(_diamond_doc(True), "json"))
    curve = payload["curve"]["0"]
    assert curve["is_simple_closed_curve"] is True
    assert all(item["holds"] for item in curve["identities"])


def test_emit_empty_report():
    doc = ReportDocument(source="empty", report=analyze(DigitalObject([])))
    payload = json.loads(emit_report(doc, "json"))
    assert payload["p"] == 0 and payload["consistent"] is True


def test_emit_text_single_pixel():
    doc = ReportDocument(source="dot", report=analyze(DigitalObject([(0, 0)])))
    text = emit_report(doc, "text")
    assert "t = v - 2(p + c - h) + b" in text
    assert "p  = 1" in text and "v  = 4" in text and "c0 = 1" in text
    assert "consistent: yes" in text


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit_report(_diamond_doc(), "xml")
