"""Point cloud container and file I/O.

Supported interchange formats: whitespace-separated XYZ text, CSV with
x,y,z columns, and PLY with float vertex coordinates (ascii or
little-endian binary). Coordinates are metres with z vertical. Extra
per-vertex PLY attributes (colour, normals, splat parameters, ...) are
read past and discarded; vertex order is preserved and nothing is
deduplicated.
"""

from __future__ import annotations

import csv
import io
import operator
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import CoordinateOverflow, EmptyCloud, NonFiniteCoordinate, ParseError
from .files import output, row_blocks, text_blocks

XYZ_ASCII = "xyz-ascii"
CSV_FORMAT = "csv"
PLY_ASCII = "ply-ascii"
PLY_BINARY_LE = "ply-binary-le"

# The format of each scan suffix; a .ply file's header tells binary from ascii.
SCAN_SUFFIXES = {".xyz": XYZ_ASCII, ".txt": XYZ_ASCII, ".csv": CSV_FORMAT, ".ply": PLY_ASCII}

# The token a PLY header's format line names each PLY format by.
_PLY_TOKENS = {PLY_ASCII: "ascii", PLY_BINARY_LE: "binary_little_endian"}

_PLY_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "<i2", "int16": "<i2",
    "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4",
    "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4",
    "double": "<f8", "float64": "<f8",
}


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points, stored as an (N, 3) float64 array."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) array, got shape {pts.shape}")
        if pts.shape[0] == 0:
            raise EmptyCloud("point cloud has no points")
        if not np.isfinite(pts).all():  # a row-by-row check costs ~35 ns a row: only for the message
            raise NonFiniteCoordinate(f"non-finite coordinate at point {np.argmin(np.isfinite(pts).all(axis=1))}")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n_points

    @classmethod
    def of_checked(cls, points: np.ndarray) -> PointCloud:
        """A cloud of ``points`` that a cloud's check has passed (its own, or some of its rows)."""
        object.__setattr__(cloud := object.__new__(cls), "points", points)
        return cloud


def as_points(cloud) -> np.ndarray:
    """Accept a PointCloud or raw (N, 3) array and return the array."""
    if isinstance(cloud, PointCloud):
        return cloud.points
    return PointCloud(np.asarray(cloud, dtype=np.float64)).points


# Axis-0 reductions of a row-major (n, 3) array without numpy's loop over
# rows (15-35 ns a row), to the bit: max and min are exact in any order, and
# a column's add.accumulate adds in row order like numpy's sum, which starts
# at +0.0 (hence "+ 0.0"); a column's .sum() adds pairwise, to other bits.


def axis_means(pts: np.ndarray) -> np.ndarray:
    """``pts.mean(axis=0)`` of a row-major (n, 3) array, bit for bit."""
    return np.array([np.add.accumulate(pts[:, k])[-1] + 0.0 for k in range(3)]) / pts.shape[0]


def axis_spans(pts: np.ndarray) -> np.ndarray:
    """``pts.max(axis=0) - pts.min(axis=0)``; an all-zero column's 0 may differ in sign."""
    return np.array([pts[:, k].max() - pts[:, k].min() for k in range(3)])


def covariance(pts: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and covariance (divisor N) of ``pts`` or of ``pts[rows]``, whose copy is centred
    in place."""
    centroid, rel = centred(pts, rows)
    return centroid, scatter(rel)


def centred(pts: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """``covariance``'s centroid and the rows centred on it, with no numpy warning on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        sub = pts if rows is None else pts[rows]
        centroid = axis_means(sub)
        return centroid, np.subtract(sub, centroid, out=None if rows is None else sub)


def scatter(rel: np.ndarray) -> np.ndarray:
    """Covariance (divisor N) of centred rows; CoordinateOverflow, not a
    numpy warning, if it overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        cov = (rel.T @ rel) / rel.shape[0]
    if not np.isfinite(cov).all():
        raise CoordinateOverflow("coordinates too large: their covariance overflows float64")
    return cov


def block_floats(rows, first: int, where, cols=(0, 1, 2), width: int = 3, exact: bool = True,
                 blank=operator.not_) -> np.ndarray:
    """The ``cols`` cells of a block of rows, the first numbered ``first``,
    as an (n, len(cols)) float64 array. Rows for which ``blank`` is true
    (as it must be for an empty row; None skips none) are skipped; the
    others have ``width`` fields, or at least ``width`` unless ``exact``.
    Each cell is stripped (str.strip() also removes \\x1c-\\x1f, which
    float() rejects) and converted with float(); the first bad row is a
    ParseError that ``where(row number)`` names."""
    out = []
    for i, row in enumerate(rows, start=first):
        if blank is not None and blank(row):
            continue
        if len(row) < width or exact and len(row) > width:
            raise ParseError(f"{where(i)}: expected {width} fields, got {len(row)}")
        for c in cols:
            try:
                out.append(float(row[c].strip()))
            except ValueError:
                raise ParseError(f"{where(i)}: cannot parse {row[c]!r} as a number") from None
    return np.array(out, dtype=np.float64).reshape(-1, len(cols))


def text_floats(lines, first: int, where, cols=(0, 1, 2), width: int = 3, exact: bool = True,
                blank=operator.not_, delimiter=None, rows=None) -> np.ndarray:
    """`block_floats` of text ``lines`` split by ``delimiter`` (None: any
    whitespace), by one ``np.loadtxt`` call unless ``rows`` gives CSV records
    or numpy refuses or might misread the lines (it skips blank lines)."""
    # picking columns, numpy takes any row that holds them: pick the last required one too
    use = None if exact else cols if width - 1 in cols else (*cols, width - 1)
    if rows is None and lines and not lines[0].isspace():  # a block of no data makes numpy warn
        try:
            pts = np.loadtxt(lines, dtype=np.float64, comments=None, delimiter=delimiter, usecols=use, ndmin=2)
            if pts.shape == (len(lines), width if use is None else len(use)):
                return pts[:, list(cols)] if use is None else pts[:, : len(cols)]
        except ValueError:
            pass
    if rows is None:
        rows = list(map(str.split, lines)) if delimiter is None else list(csv.reader(lines))
    return block_floats(rows, first, where, cols, width, exact, blank)


def load_point_cloud(path: str | Path, fmt: str) -> PointCloud:
    """Load a point cloud from `path` parsed under the declared format.

    Raises FileNotFoundError, ParseError (with line/offset context),
    NonFiniteCoordinate, or EmptyCloud.
    """
    path = Path(path)
    pts = _format_io(fmt)[0](path)
    if len(pts) == 0:
        raise EmptyCloud(f"{path}: no points")
    return PointCloud(pts)


def _load_xyz(path: Path) -> np.ndarray:
    parts = [np.empty((0, 3))]
    with text_blocks(path) as blocks:
        for first, lines, _ in blocks:
            parts.append(text_floats(lines, first, lambda i: f"{path}:{i}"))
    return np.concatenate(parts)


def _load_csv(path: Path) -> np.ndarray:
    cols = (0, 1, 2)
    parts = [np.empty((0, 3))]
    with text_blocks(path, csv_records=True) as blocks:
        for first, lines, rows in blocks:
            if first == 1:
                head = rows[0] if rows else next(csv.reader(lines[:1]))
                if not _blank_record(head) and (named := _header_columns(head, path)):
                    cols, first, lines, rows = named, 2, lines[1:], rows and rows[1:]
            parts.append(text_floats(lines, first, lambda i: f"{path}:{i}", cols, max(cols) + 1,
                                     exact=False, blank=_blank_record, delimiter=",", rows=rows))
    return np.concatenate(parts)


def _blank_record(rec: list[str]) -> bool:
    return not "".join(rec).strip()


def _header_columns(rec: list[str], path: Path) -> tuple[int, int, int] | None:
    """The x, y and z columns a header names, or None if ``rec`` is data."""
    try:
        float(rec[0].strip())
        return None
    except ValueError:
        names = [c.strip().lower() for c in rec]
    try:
        return names.index("x"), names.index("y"), names.index("z")
    except ValueError:
        raise ParseError(f"{path}:1: header must name x, y and z columns, got {names}") from None


def _load_ply(fmt: str, read_vertices, path: Path) -> np.ndarray:
    with open(path, "rb") as f:
        header = _read_ply_header(f, path)
        if header["format"] != fmt:
            raise ParseError(f"{path}: file is not format {_PLY_TOKENS[fmt]}")
        if header["n_vertex"] == 0:
            raise EmptyCloud(f"{path}: vertex element declares 0 vertices")
        return read_vertices(f, header, path)


def _read_ply_header(f, path: Path) -> dict:
    """The format the last format line names (ascii if none does) and the vertex element."""
    magic = f.readline().strip()
    if magic != b"ply":
        raise ParseError(f"{path}: missing 'ply' magic line")
    fmt = PLY_ASCII
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    props: list[tuple[str, str]] | None = None
    while True:
        raw = f.readline()
        if not raw:
            raise ParseError(f"{path}: unexpected end of file inside header")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        parts = line.split()
        malformed = ParseError(f"{path}: malformed header line {line!r}")
        if line.startswith("format"):
            if len(parts) < 2:
                raise malformed
            if parts[1] not in _PLY_TOKENS.values():
                raise ParseError(f"{path}: unsupported PLY format {parts[1]!r}")
            fmt = next(f for f, token in _PLY_TOKENS.items() if token == parts[1])
        elif line.startswith("element"):
            try:
                _, name, count_text = parts
                count = int(count_text)
            except ValueError:
                raise malformed from None
            if count < 0:
                raise malformed
            props = []
            elements.append((name, count, props))
        elif line.startswith("property"):
            if props is None:
                raise ParseError(f"{path}: property before any element")
            is_list = parts[1:2] == ["list"]
            if len(parts) < (5 if is_list else 3):
                raise malformed
            props.append(("list", parts[-1]) if is_list else (parts[1], parts[2]))
        elif line == "end_header":
            break
        else:
            raise ParseError(f"{path}: unrecognised header line {line!r}")
    for pos, (name, count, plist) in enumerate(elements):
        if name == "vertex":
            names = [p[1] for p in plist]
            for axis in ("x", "y", "z"):
                if axis not in names:
                    raise ParseError(f"{path}: vertex element lacks property {axis!r}")
            return {
                "format": fmt,
                "n_vertex": count,
                "vertex_props": plist,
                "before_vertex": elements[:pos],
            }
    raise ParseError(f"{path}: no vertex element in header")


def _read_ply_ascii_vertices(f, header: dict, path: Path) -> np.ndarray:
    # Every element instance is one line, so preceding elements are skipped.
    # Clamping hostile counts to islice's sys.maxsize limit changes nothing.
    skip = sum(count for _, count, _ in header["before_vertex"])
    n = header["n_vertex"]
    names = [p[1] for p in header["vertex_props"]]
    cols = names.index("x"), names.index("y"), names.index("z")
    parts = [np.empty((0, 3))]
    with io.TextIOWrapper(f, encoding="ascii", errors="replace", newline="\n") as text:
        lines = islice(text, min(skip, sys.maxsize), min(skip + n, sys.maxsize))
        for first, block in row_blocks(lines, first=0):
            parts.append(text_floats(block, first, lambda i: f"{path}: vertex {i}", cols, len(names),
                                     exact=False, blank=None))
    pts = np.concatenate(parts)
    if len(pts) < n:
        raise ParseError(f"{path}: expected {n} vertices, file ends at {len(pts)}")
    return pts


def _ply_dtype(plist, path: Path, what: str) -> np.dtype:
    fields = []
    for typ, name in plist:
        if typ == "list":
            raise ParseError(f"{path}: list property {name!r} in {what} is unsupported")
        if typ not in _PLY_SCALAR_TYPES:
            raise ParseError(f"{path}: unknown property type {typ!r}")
        fields.append((name, _PLY_SCALAR_TYPES[typ]))
    try:
        return np.dtype(fields)
    except ValueError as exc:  # e.g. a property named twice
        raise ParseError(f"{path}: bad {what}: {exc}") from None


def _read_ply_binary_vertices(f, header: dict, path: Path) -> np.ndarray:
    skip = sum(count * _ply_dtype(plist, path, f"element {name!r}").itemsize
               for name, count, plist in header["before_vertex"] if count)
    dt = _ply_dtype(header["vertex_props"], path, "vertex element")
    n = header["n_vertex"]
    # Sizes are checked against the file first, so a hostile count allocates nothing.
    available = max(os.fstat(f.fileno()).st_size - f.tell() - skip, 0)
    if available < n * dt.itemsize:
        raise ParseError(f"{path}: vertex data truncated at byte {available} of {n * dt.itemsize}")
    f.seek(skip, os.SEEK_CUR)
    rec = np.frombuffer(f.read(n * dt.itemsize), dtype=dt, count=n)
    return np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)


def save_point_cloud(cloud: PointCloud, path: str | Path, fmt: str) -> None:
    """Write `cloud` to `path`; IoError if that fails.

    ASCII formats use the shortest decimal that reparses to the same
    float, so load(save(c)) is bit-exact; ply-binary-le stores float32
    and round-trips the float32 bits exactly.
    """
    pts = as_points(cloud)
    _format_io(fmt)[1](pts, path)


def _save_text(sep: str, head, pts: np.ndarray, path) -> None:
    """``head(len(pts))``, then one line of shortest round-trip decimals split by ``sep`` a point."""
    with output(path) as f:
        f.write(head(len(pts)))
        for x, y, z in pts.tolist():
            f.write(f"{x!r}{sep}{y!r}{sep}{z!r}\n")


def _save_ply_binary(pts: np.ndarray, path) -> None:
    with output(path, binary=True) as f:
        f.write(_ply_header(PLY_BINARY_LE, len(pts)).encode())
        f.write(pts.astype("<f4").tobytes())


def _ply_header(fmt: str, n: int) -> str:
    return (f"ply\nformat {_PLY_TOKENS[fmt]} 1.0\nelement vertex {n}\n"
            "property float x\nproperty float y\nproperty float z\nend_header\n")


# The loader and the writer of each format
_FORMAT_IO = {
    XYZ_ASCII: (_load_xyz, partial(_save_text, " ", lambda n: "")),
    CSV_FORMAT: (_load_csv, partial(_save_text, ",", lambda n: "x,y,z\n")),
    PLY_ASCII: (partial(_load_ply, PLY_ASCII, _read_ply_ascii_vertices),
                partial(_save_text, " ", partial(_ply_header, PLY_ASCII))),
    PLY_BINARY_LE: (partial(_load_ply, PLY_BINARY_LE, _read_ply_binary_vertices), _save_ply_binary),
}
FORMATS = tuple(_FORMAT_IO)


def _format_io(fmt: str) -> tuple:
    """``fmt``'s (loader, writer)."""
    if fmt not in _FORMAT_IO:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _FORMAT_IO[fmt]


def detect_format(path: str | Path) -> str:
    """The format of `path` from its suffix; a .ply file's from its header."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in SCAN_SUFFIXES:
        raise ParseError(f"{path}: cannot infer format from suffix {suffix!r}")
    if SCAN_SUFFIXES[suffix] != PLY_ASCII:
        return SCAN_SUFFIXES[suffix]
    with open(path, "rb") as f:
        return _read_ply_header(f, path)["format"]
