"""Hostile scan files: the loaders and `clean` fail only in documented ways.

Every loader may raise only a HerdWeightError (or FileNotFoundError) on
arbitrary bytes, and `clean` over such files exits 0, 1 or 2, never with
a traceback. On hostile text, the text loaders give the points or the
first error that a line-by-line reference parser gives.
"""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from herdweight import files  # noqa: E402
from herdweight.cli import main  # noqa: E402
from herdweight.errors import EmptyCloud, HerdWeightError, NonFiniteCoordinate, ParseError  # noqa: E402
from herdweight.pointcloud import (  # noqa: E402
    CSV_FORMAT,
    FORMATS,
    PLY_ASCII,
    XYZ_ASCII,
    load_point_cloud,
)

PLY_HEADERS = [
    b"ply\nformat ascii 1.0\nelement vertex 3\n"
    b"property float x\nproperty float y\nproperty float z\nend_header\n",
    b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
    b"property float x\nproperty float y\nproperty float z\nend_header\n",
]
SCAN_ALPHABET = b"0123456789 \t\n\r,.-+eE_xyznaif\x00\xff"

# Header lines, each cut short at a random length.
cut_header_lines = st.sampled_from(PLY_HEADERS).flatmap(lambda h: st.lists(
    st.tuples(st.sampled_from(h.split(b"\n")[1:]), st.integers(0, 40)).map(lambda t: t[0][: t[1]]),
    max_size=10).map(lambda lines: b"ply\n" + b"\n".join(lines) + b"\n0 0 0\n"))

# Raw bytes, valid PLY headers with any body, noisy number-like text, and
# PLY headers built from cut lines.
hostile_bytes = st.one_of(
    st.binary(max_size=300),
    st.tuples(st.sampled_from(PLY_HEADERS), st.binary(max_size=120)).map(b"".join),
    st.lists(st.sampled_from(SCAN_ALPHABET), max_size=300).map(bytes),
    st.tuples(st.sampled_from(PLY_HEADERS), st.lists(st.sampled_from(SCAN_ALPHABET), max_size=200))
    .map(lambda t: t[0] + bytes(t[1])),
    cut_header_lines,
)

FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@pytest.mark.parametrize("fmt", FORMATS)
@FUZZ
@given(data=hostile_bytes)
def test_loader_raises_only_documented_errors(fmt, data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "scan"
        path.write_bytes(data)
        try:
            cloud = load_point_cloud(path, fmt)
        except (HerdWeightError, FileNotFoundError):
            return
        assert cloud.n_points >= 1


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(files=st.lists(st.tuples(st.sampled_from([".xyz", ".csv", ".ply"]), hostile_bytes),
                      min_size=1, max_size=3))
def test_clean_exit_code_on_hostile_files(files):
    with tempfile.TemporaryDirectory() as d:
        scans = Path(d) / "scans"
        scans.mkdir()
        for i, (suffix, data) in enumerate(files):
            (scans / f"s{i}{suffix}").write_bytes(data)
        assert main(["clean", str(scans), "--out", str(Path(d) / "out")]) in (0, 1, 2)


# Differential check of the blocked loaders against a line-by-line
# reference, with blocks of 2-3 rows so that block boundaries fall inside
# the data.

NUMBERS = ["0", "-1.5", "2e3", "1_000", "١٢", ".5", "+7.", "-0.0", "4.9e-324", "1e-400", "0.1",
           "123456.789"]
# The last seven are spellings that numpy's reader might take otherwise than
# float(): a comment sign, a quoted number, and non-finite values.
JUNK = ["x", "1..2", "_1", "1_", "--1", "0x10", "1,5", "١x", "nan", "-inf", "#", "1#2", '"1"', "inf",
        "Infinity", "NaN", "1e999"]
number = st.sampled_from(NUMBERS)
token = st.sampled_from(NUMBERS * 3 + JUNK)
line_kind = st.sampled_from(["good"] * 12 + ["blank", "short", "long", "junk"])


def _row(draw, width):
    """Cells for a row of `width` fields, or of another kind of line."""
    kind = draw(line_kind)
    if kind == "blank":
        return []
    n = width
    if kind == "short":
        n = draw(st.integers(0, width - 1))
    elif kind == "long":
        n = width + draw(st.integers(1, 2))
    return [draw(token if kind == "junk" else number) for _ in range(n)]


@st.composite
def xyz_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        sep = draw(st.sampled_from([" ", "\t", "  ", "\x1c", "\x0b", " \x0c", "\xa0", "\u3000"]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + sep.join(_row(draw, 3)) + pad)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines) + draw(st.sampled_from(["", "0 0 0"]))


@st.composite
def csv_texts(draw):
    header = draw(st.sampled_from([None, "x,y,z", "z,y,x", " X , Y , Z ", "id,x,y,z", "a,b,c"]))
    width = 4 if header == "id,x,y,z" else 3
    records = [] if header is None else [header]
    for _ in range(draw(st.integers(0, 8))):
        cells = _row(draw, width)
        if not cells:
            records.append(draw(st.sampled_from(["", " ", ",,"])))
            continue
        pad = draw(st.sampled_from(["", " ", "\x1c", "\t"]))
        cells = [pad + c + pad for c in cells]
        if draw(st.booleans()):  # a quoted cell with a newline inside
            i = draw(st.integers(0, len(cells) - 1))
            cells[i] = f'"{cells[i]}\n"'
        records.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(records) + draw(st.sampled_from(["", end]))


@st.composite
def ply_texts(draw):
    """(file bytes, vertex count, lines before the vertices, properties, x/y/z columns)."""
    names = draw(st.permutations(["x", "y", "z", "red", "alpha"][: draw(st.integers(3, 5))]))
    n = draw(st.integers(1, 7))
    skip = draw(st.integers(0, 2))
    head = "ply\nformat ascii 1.0\n"
    if skip:
        head += f"element face {skip}\nproperty float a\n"
    head += f"element vertex {n}\n" + "".join(f"property float {p}\n" for p in names) + "end_header\n"
    lines = [draw(st.sampled_from(["0", "junk", "", "é"])) for _ in range(skip)]
    for _ in range(max(n + draw(st.sampled_from([0, 0, 0, 1, -1, -2])), 0)):
        lines.append(draw(st.sampled_from([" ", "\t", "\xa0", "\u3000"])).join(_row(draw, len(names))))
    body = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    cols = tuple(names.index(a) for a in "xyz")
    return (head + body).encode("utf-8"), n, skip, len(names), cols


def _ref_rows(path, numbered, width, cols, exact):
    """Points from (line number, fields) pairs, or the expected error's prefix."""
    out = []
    for where, parts in numbered:
        if len(parts) < width or exact and len(parts) > width:
            return f"{path}{where}: expected {width} fields"
        for c in cols:
            try:
                out.append(float(parts[c].strip()))
            except ValueError:
                return f"{path}{where}: cannot parse"
    return np.array(out, dtype=np.float64).reshape(-1, 3)


def ref_xyz(path, text):
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    numbered = [(f":{i}", line.split()) for i, line in enumerate(lines, start=1) if line.split()]
    return _ref_rows(path, numbered, 3, (0, 1, 2), exact=True)


def ref_csv(path, text):
    records = list(enumerate(csv.reader(io.StringIO(text, newline="")), start=1))
    records = [(i, rec) for i, rec in records if "".join(rec).strip()]
    cols = (0, 1, 2)
    if records and records[0][0] == 1:
        try:
            float(records[0][1][0].strip())
        except ValueError:
            names = [c.strip().lower() for c in records.pop(0)[1]]
            if not {"x", "y", "z"} <= set(names):
                return f"{path}:1: header must name x, y and z"
            cols = tuple(names.index(a) for a in "xyz")
    return _ref_rows(path, [(f":{i}", rec) for i, rec in records], max(cols) + 1, cols, exact=False)


def ref_ply(path, data, n, skip, width, cols):
    body = data.split(b"end_header\n", 1)[1].decode("ascii", errors="replace").split("\n")
    if body[-1] == "":
        body.pop()
    rows = body[skip: skip + n]
    pts = _ref_rows(path, [(f": vertex {i}", line.split()) for i, line in enumerate(rows)], width,
                    cols, exact=False)
    if isinstance(pts, np.ndarray) and len(rows) < n:
        return f"{path}: expected {n} vertices, file ends at {len(rows)}"
    return pts


def _check_against_reference(path, fmt, expected, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "BLOCK_ROWS", block)
        try:
            got = load_point_cloud(path, fmt).points
        except HerdWeightError as exc:
            got = exc
    if isinstance(expected, str):
        assert isinstance(got, ParseError) and str(got).startswith(expected), (expected, got)
    elif len(expected) == 0:
        assert isinstance(got, EmptyCloud), got
    elif not np.isfinite(expected).all():
        first = int(np.flatnonzero(~np.isfinite(expected).all(axis=1))[0])
        assert isinstance(got, NonFiniteCoordinate) and str(got).endswith(f"point {first}"), got
    else:
        assert isinstance(got, np.ndarray), got
        assert got.tobytes() == expected.tobytes()


DIFF = settings(max_examples=300, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@DIFF
@given(text=xyz_texts(), block=st.integers(2, 3))
def test_xyz_loader_matches_reference(text, block):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "scan.xyz"
        path.write_bytes(text.encode("utf-8"))
        _check_against_reference(path, XYZ_ASCII, ref_xyz(path, text), block)


@DIFF
@given(text=csv_texts(), block=st.integers(2, 3))
def test_csv_loader_matches_reference(text, block):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "scan.csv"
        path.write_bytes(text.encode("utf-8"))
        _check_against_reference(path, CSV_FORMAT, ref_csv(path, text), block)


@DIFF
@given(ply=ply_texts(), block=st.integers(2, 3))
def test_ply_ascii_loader_matches_reference(ply, block):
    data, n, skip, width, cols = ply
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "scan.ply"
        path.write_bytes(data)
        _check_against_reference(path, PLY_ASCII, ref_ply(path, data, n, skip, width, cols), block)


@pytest.mark.parametrize("text", ['x,y,z\n"1\n",2,3\n4,5,6\n', 'x,y,z\n"1\n",2,3\n4,5\n',
                                  'x,y,z\n4,5,6\n"1\n",2,junk\n', '0,0,0\n1,1,1\nx,y,z\n'])
def test_csv_records_across_block_boundaries(tmp_path, text):
    """With 2-row blocks, a record whose quoted field spans lines 2-3 ends
    the first block, and errors name records, not lines; only record 1 can
    be a header, not the first record of a later block."""
    path = tmp_path / "scan.csv"
    path.write_text(text, newline="")
    _check_against_reference(path, CSV_FORMAT, ref_csv(path, text), 2)
