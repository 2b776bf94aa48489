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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyCloud, IoError, NonFiniteCoordinate, ParseError
from .files import open_fresh

XYZ_ASCII = "xyz-ascii"
CSV_FORMAT = "csv"
PLY_ASCII = "ply-ascii"
PLY_BINARY_LE = "ply-binary-le"

FORMATS = (XYZ_ASCII, CSV_FORMAT, PLY_ASCII, PLY_BINARY_LE)

# x, y, z in metres
Point3 = tuple[float, float, float]

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


def _finite_or_raise(x: float, y: float, z: float, index: int) -> None:
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise NonFiniteCoordinate(f"non-finite coordinate at point {index}")


def _parse_float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{where}: cannot parse {token!r} as a number") from None


def load_point_cloud(path: str | Path, fmt: str) -> PointCloud:
    """Load a point cloud from `path` parsed under the declared format.

    Raises FileNotFoundError, ParseError (with line/offset context),
    NonFiniteCoordinate, or EmptyCloud.
    """
    path = Path(path)
    if fmt == XYZ_ASCII:
        rows = _load_xyz(path)
    elif fmt == CSV_FORMAT:
        rows = _load_csv(path)
    elif fmt == PLY_ASCII:
        rows = _load_ply(path, binary=False)
    elif fmt == PLY_BINARY_LE:
        rows = _load_ply(path, binary=True)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if len(rows) == 0:
        raise EmptyCloud(f"{path}: no points")
    return PointCloud(np.asarray(rows, dtype=np.float64))


def _load_xyz(path: Path) -> list[Point3]:
    rows: list[Point3] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            x, y, z = (_parse_float(p, f"{path}:{lineno}") for p in parts)
            _finite_or_raise(x, y, z, len(rows))
            rows.append((x, y, z))
    return rows


def _load_csv(path: Path) -> list[Point3]:
    rows: list[Point3] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        cols = (0, 1, 2)
        for lineno, rec in enumerate(reader, start=1):
            if not rec or all(not c.strip() for c in rec):
                continue
            if lineno == 1 and _looks_like_header(rec):
                cols = _header_columns(rec, path)
                continue
            if max(cols) >= len(rec):
                raise ParseError(f"{path}:{lineno}: expected at least {max(cols) + 1} columns, got {len(rec)}")
            x, y, z = (_parse_float(rec[c].strip(), f"{path}:{lineno}") for c in cols)
            _finite_or_raise(x, y, z, len(rows))
            rows.append((x, y, z))
    return rows


def _looks_like_header(rec: list[str]) -> bool:
    try:
        float(rec[0].strip())
        return False
    except ValueError:
        return True


def _header_columns(rec: list[str], path: Path) -> tuple[int, int, int]:
    names = [c.strip().lower() for c in rec]
    try:
        return names.index("x"), names.index("y"), names.index("z")
    except ValueError:
        raise ParseError(f"{path}:1: header must name x, y and z columns, got {names}") from None


def _load_ply(path: Path, binary: bool) -> list[Point3]:
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
        if line.startswith("format"):
            token = line.split()[1]
            if token == "ascii":
                binary = False
            elif token == "binary_little_endian":
                binary = True
            else:
                raise ParseError(f"{path}: unsupported PLY format {token!r}")
        elif line.startswith("element"):
            _, name, count = line.split()
            props = []
            elements.append((name, int(count), props))
        elif line.startswith("property"):
            if props is None:
                raise ParseError(f"{path}: property before any element")
            parts = line.split()
            if parts[1] == "list":
                props.append(("list", parts[-1]))
            else:
                props.append((parts[1], parts[2]))
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


def _read_ply_ascii_vertices(f, header: dict, path: Path) -> list[Point3]:
    # Every element instance is one text line, so preceding elements are skippable.
    for _, count, _ in header["before_vertex"]:
        for _ in range(count):
            f.readline()
    names = [p[1] for p in header["vertex_props"]]
    ix, iy, iz = names.index("x"), names.index("y"), names.index("z")
    rows: list[Point3] = []
    for i in range(header["n_vertex"]):
        raw = f.readline()
        if not raw:
            raise ParseError(f"{path}: expected {header['n_vertex']} vertices, file ends at {i}")
        parts = raw.decode("ascii", errors="replace").split()
        if len(parts) < len(names):
            raise ParseError(f"{path}: vertex {i}: expected {len(names)} fields, got {len(parts)}")
        x = _parse_float(parts[ix], f"{path}: vertex {i}")
        y = _parse_float(parts[iy], f"{path}: vertex {i}")
        z = _parse_float(parts[iz], f"{path}: vertex {i}")
        _finite_or_raise(x, y, z, i)
        rows.append((x, y, z))
    return rows


def _read_ply_binary_vertices(f, header: dict, path: Path) -> list[Point3]:
    for name, count, plist in header["before_vertex"]:
        if count == 0:
            continue
        if any(t == "list" for t, _ in plist):
            raise ParseError(f"{path}: cannot skip binary element {name!r} with list properties")
        f.read(count * sum(np.dtype(_PLY_SCALAR_TYPES[t]).itemsize for t, _ in plist))
    fields = []
    for typ, name in header["vertex_props"]:
        if typ == "list":
            raise ParseError(f"{path}: list property {name!r} in vertex element is unsupported")
        if typ not in _PLY_SCALAR_TYPES:
            raise ParseError(f"{path}: unknown property type {typ!r}")
        fields.append((name, _PLY_SCALAR_TYPES[typ]))
    dt = np.dtype(fields)
    n = header["n_vertex"]
    buf = f.read(n * dt.itemsize)
    if len(buf) != n * dt.itemsize:
        raise ParseError(f"{path}: vertex data truncated at byte {len(buf)} of {n * dt.itemsize}")
    rec = np.frombuffer(buf, dtype=dt, count=n)
    pts = np.stack([rec["x"], rec["y"], rec["z"]], axis=1).astype(np.float64)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise NonFiniteCoordinate(f"non-finite coordinate at point {int(np.flatnonzero(bad)[0])}")
    return [tuple(p) for p in pts]


def save_point_cloud(cloud: PointCloud, path: str | Path, fmt: str) -> None:
    """Write `cloud` to `path`.

    ASCII formats use the shortest decimal that reparses to the same
    float, so load(save(c)) is bit-exact; ply-binary-le stores float32
    and round-trips the float32 bits exactly.
    """
    pts = as_points(cloud)
    path = Path(path)
    try:
        if fmt == XYZ_ASCII:
            _save_text(path, ("%s %s %s" % (repr(x), repr(y), repr(z)) for x, y, z in pts.tolist()))
        elif fmt == CSV_FORMAT:
            _save_text(path, ("%s,%s,%s" % (repr(x), repr(y), repr(z)) for x, y, z in pts.tolist()), head="x,y,z")
        elif fmt == PLY_ASCII:
            head = _ply_header("ascii", len(pts))
            _save_text(path, ("%s %s %s" % (repr(x), repr(y), repr(z)) for x, y, z in pts.tolist()), head=head)
        elif fmt == PLY_BINARY_LE:
            with open_fresh(path, "wb") as f:
                f.write((_ply_header("binary_little_endian", len(pts)) + "\n").encode("ascii"))
                f.write(pts.astype("<f4").tobytes())
        else:
            raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _save_text(path: Path, lines, head: str | None = None) -> None:
    with open_fresh(path, "w", encoding="utf-8", newline="\n") as f:
        if head is not None:
            f.write(head + "\n")
        for line in lines:
            f.write(line + "\n")


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
