"""Point cloud container and file I/O.

Supported interchange formats: whitespace-separated XYZ text, CSV with
x,y,z columns, and PLY with float vertex coordinates (ascii or
little-endian binary). Coordinates are metres with z vertical. Extra
per-vertex PLY attributes (colour, normals, splat parameters, ...) are
read past and discarded; vertex order is preserved and nothing is
deduplicated.
"""

from __future__ import annotations

import io
import operator
import os
import sys
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import EmptyCloud, NonFiniteCoordinate, ParseError
from .files import output, row_blocks, text_blocks

XYZ_ASCII = "xyz-ascii"
CSV_FORMAT = "csv"
PLY_ASCII = "ply-ascii"
PLY_BINARY_LE = "ply-binary-le"

FORMATS = (XYZ_ASCII, CSV_FORMAT, PLY_ASCII, PLY_BINARY_LE)

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
        bad = ~np.isfinite(pts).all(axis=1)
        if bad.any():
            raise NonFiniteCoordinate(f"non-finite coordinate at point {int(np.flatnonzero(bad)[0])}")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n_points


def as_points(cloud) -> np.ndarray:
    """Accept a PointCloud or raw (N, 3) array and return the array."""
    if isinstance(cloud, PointCloud):
        return cloud.points
    return PointCloud(np.asarray(cloud, dtype=np.float64)).points


def block_floats(rows, first: int, where, cols=(0, 1, 2), width: int = 3, exact: bool = True,
                 blank=operator.not_) -> np.ndarray:
    """The ``cols`` cells of a block of rows, the first numbered ``first``,
    as an (n, len(cols)) float64 array. Rows for which ``blank`` is true
    (as it must be for an empty row; None skips none) are skipped; the
    others have ``width`` fields, or at least ``width`` unless ``exact``.
    One ``np.array`` call converts the block, with float()'s value for
    every cell. Only if it fails is the block re-scanned row by row, to
    raise the first bad row's ParseError (``where(row number)`` names it)
    or to convert cells padded with \\x1c-\\x1f, which str.strip()
    removes and float() rejects."""
    kept = rows if blank is None else list(filter(None, rows))
    lengths = set(map(len, kept))
    if lengths <= {width} if exact else min(lengths, default=width) >= width:
        if lengths == {len(cols)} and cols == tuple(range(len(cols))):
            cells = chain.from_iterable(kept)  # the rows are the cells
        else:
            picked = map(operator.itemgetter(*cols), kept)
            cells = picked if len(cols) == 1 else chain.from_iterable(picked)
        try:
            return np.array(list(cells), dtype=np.float64).reshape(-1, len(cols))
        except ValueError:
            pass
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


def load_point_cloud(path: str | Path, fmt: str) -> PointCloud:
    """Load a point cloud from `path` parsed under the declared format.

    Raises FileNotFoundError, ParseError (with line/offset context),
    NonFiniteCoordinate, or EmptyCloud.
    """
    path = Path(path)
    if fmt == XYZ_ASCII:
        pts = _load_xyz(path)
    elif fmt == CSV_FORMAT:
        pts = _load_csv(path)
    elif fmt == PLY_ASCII:
        pts = _load_ply(path, binary=False)
    elif fmt == PLY_BINARY_LE:
        pts = _load_ply(path, binary=True)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if len(pts) == 0:
        raise EmptyCloud(f"{path}: no points")
    return PointCloud(pts)


def _load_xyz(path: Path) -> np.ndarray:
    parts = [np.empty((0, 3))]
    with text_blocks(path) as blocks:
        for first, rows in blocks:
            parts.append(block_floats(rows, first, lambda i: f"{path}:{i}"))
    return np.concatenate(parts)


def _load_csv(path: Path) -> np.ndarray:
    cols = (0, 1, 2)
    parts = [np.empty((0, 3))]
    with text_blocks(path, csv_records=True) as blocks:
        for first, rows in blocks:
            if first == 1 and not _blank_record(rows[0]) and (named := _header_columns(rows[0], path)):
                cols, rows[0] = named, []
            parts.append(block_floats(rows, first, lambda i: f"{path}:{i}", cols, max(cols) + 1,
                                      exact=False, blank=_blank_record))
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


def _load_ply(path: Path, binary: bool) -> np.ndarray:
    with open(path, "rb") as f:
        header = _read_ply_header(f, path)
        if header["binary"] != binary:
            want = "binary_little_endian" if binary else "ascii"
            raise ParseError(f"{path}: file is not format {want}")
        n_vertex = header["n_vertex"]
        if n_vertex == 0:
            raise EmptyCloud(f"{path}: vertex element declares 0 vertices")
        if binary:
            return _read_ply_binary_vertices(f, header, path)
        return _read_ply_ascii_vertices(f, header, path)


def _read_ply_header(f, path: Path) -> dict:
    magic = f.readline().strip()
    if magic != b"ply":
        raise ParseError(f"{path}: missing 'ply' magic line")
    binary = False
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
            if parts[1] == "ascii":
                binary = False
            elif parts[1] == "binary_little_endian":
                binary = True
            else:
                raise ParseError(f"{path}: unsupported PLY format {parts[1]!r}")
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
                "binary": binary,
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
        for first, rows in row_blocks(map(str.split, lines), first=0):
            parts.append(block_floats(rows, first, lambda i: f"{path}: vertex {i}", cols, len(names),
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
    if fmt == PLY_BINARY_LE:
        with output(path, binary=True) as f:
            f.write((_ply_header("binary_little_endian", len(pts)) + "\n").encode("ascii"))
            f.write(pts.astype("<f4").tobytes())
        return
    # (separator, header lines) of each text format
    text_formats = {XYZ_ASCII: (" ", ""), CSV_FORMAT: (",", "x,y,z\n"),
                    PLY_ASCII: (" ", _ply_header("ascii", len(pts)) + "\n")}
    if fmt not in text_formats:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    sep, head = text_formats[fmt]
    with output(path) as f:
        f.write(head)
        for x, y, z in pts.tolist():
            f.write(f"{x!r}{sep}{y!r}{sep}{z!r}\n")


def _ply_header(fmt_token: str, n: int) -> str:
    return (
        "ply\n"
        f"format {fmt_token} 1.0\n"
        f"element vertex {n}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header"
    )


def detect_format(path: str | Path) -> str:
    """Guess the format of `path` from its suffix (sniffing PLY headers)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in (".xyz", ".txt"):
        return XYZ_ASCII
    if suffix == ".csv":
        return CSV_FORMAT
    if suffix == ".ply":
        with open(path, "rb") as f:
            head = f.read(512)
        return PLY_BINARY_LE if b"binary_little_endian" in head else PLY_ASCII
    raise ParseError(f"{path}: cannot infer format from suffix {suffix!r}")
