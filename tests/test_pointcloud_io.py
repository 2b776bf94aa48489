"""Loader/saver contracts: parsing, validation, round-trip stability."""

import tracemalloc

import numpy as np
import pytest

from herdweight import files, pointcloud
from herdweight.config import load_config
from herdweight.dataset import load_weights_csv
from herdweight.errors import CoordinateOverflow, EmptyCloud, IoError, NonFiniteCoordinate, ParseError
from herdweight.features import moments
from herdweight.pointcloud import (
    CSV_FORMAT,
    FORMATS,
    PLY_ASCII,
    PLY_BINARY_LE,
    XYZ_ASCII,
    PointCloud,
    detect_format,
    load_point_cloud,
    save_point_cloud,
)

TETRA = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_xyz_parse_four_points(tmp_path):
    p = tmp_path / "cloud.xyz"
    p.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    cloud = load_point_cloud(p, XYZ_ASCII)
    assert cloud.n_points == 4
    np.testing.assert_array_equal(cloud.points, TETRA)


def test_ply_ascii_zero_vertices_is_empty(tmp_path):
    p = tmp_path / "empty.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 0\n"
                 "property float x\nproperty float y\nproperty float z\nend_header\n")
    with pytest.raises(EmptyCloud):
        load_point_cloud(p, PLY_ASCII)


def test_csv_nan_z_reports_row_index(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,z\n0,0,0\n1,2,nan\n")
    with pytest.raises(NonFiniteCoordinate, match="point 1"):
        load_point_cloud(p, CSV_FORMAT)


def test_csv_headerless(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("0,0,0\n1,0,0\n0,1,0\n0,0,1\n")
    cloud = load_point_cloud(p, CSV_FORMAT)
    np.testing.assert_array_equal(cloud.points, TETRA)


def test_missing_file_raises_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_point_cloud(tmp_path / "nope.xyz", XYZ_ASCII)


def test_xyz_wrong_field_count_names_line(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("0 0 0\n1 2\n")
    with pytest.raises(ParseError, match=":2"):
        load_point_cloud(p, XYZ_ASCII)


def test_ply_binary_roundtrip_bit_exact(tmp_path):
    cloud = PointCloud(TETRA)
    p = tmp_path / "t.ply"
    save_point_cloud(cloud, p, PLY_BINARY_LE)
    back = load_point_cloud(p, PLY_BINARY_LE)
    assert np.array_equal(back.points.astype("<f4").view(np.uint32),
                          cloud.points.astype("<f4").view(np.uint32))


def test_xyz_precision_contract(tmp_path):
    cloud = PointCloud(np.array([[0.123456789, 0.0, 0.0]] + TETRA.tolist()))
    p = tmp_path / "p.xyz"
    save_point_cloud(cloud, p, XYZ_ASCII)
    back = load_point_cloud(p, XYZ_ASCII)
    assert abs(back.points[0, 0] - 0.123456789) < 1e-9


def test_save_unwritable_path_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        save_point_cloud(PointCloud(TETRA), tmp_path / "missing_dir" / "x.xyz", XYZ_ASCII)


def test_format_mismatch_is_parse_error(tmp_path):
    p = tmp_path / "bin.ply"
    save_point_cloud(PointCloud(TETRA), p, PLY_BINARY_LE)
    with pytest.raises(ParseError):
        load_point_cloud(p, PLY_ASCII)


def test_ply_extra_vertex_properties_discarded(tmp_path):
    p = tmp_path / "extra.ply"
    p.write_text(
        "ply\nformat ascii 1.0\ncomment colours included\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
        "0 0 0 255 0 0\n"
        "1 2 3 0 255 0\n"
    )
    cloud = load_point_cloud(p, PLY_ASCII)
    np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])


def test_ply_binary_extra_properties_skipped(tmp_path):
    p = tmp_path / "extra_bin.ply"
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
              "property float x\nproperty float y\nproperty float z\n"
              "property uchar intensity\nend_header\n").encode()
    row_t = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("i", "u1")])
    data = np.array([(0, 0, 0, 7), (1, 2, 3, 9)], dtype=row_t)
    p.write_bytes(header + data.tobytes())
    cloud = load_point_cloud(p, PLY_BINARY_LE)
    np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])


def test_detect_format(tmp_path, misleading_plys):
    suffix = {fmt: s for s, fmt in pointcloud.SCAN_SUFFIXES.items()}
    for i, fmt in enumerate(FORMATS):
        p = tmp_path / f"a{i}{suffix.get(fmt, '.ply')}"
        save_point_cloud(PointCloud(TETRA), p, fmt)
        assert detect_format(p) == fmt
    for fmt, p in misleading_plys.items():
        assert detect_format(p) == fmt
        load_point_cloud(p, fmt)


def test_loader_rejects_infinite_values(tmp_path):
    p = tmp_path / "inf.xyz"
    p.write_text("0 0 0\n1 inf 0\n")
    with pytest.raises(NonFiniteCoordinate):
        load_point_cloud(p, XYZ_ASCII)


def test_roundtrip_property_100_random_clouds(tmp_path):
    """ASCII round-trips are bit-exact (stronger than the 9-significant-digit
    contract); binary round-trips preserve float32 bits."""
    rng = np.random.default_rng(42)
    for i in range(100):
        n = int(rng.integers(1, 40))
        scale = 10.0 ** rng.integers(-3, 4)
        pts = rng.normal(scale=scale, size=(n, 3))
        cloud = PointCloud(pts)
        for fmt in FORMATS:
            p = tmp_path / f"c{i}{'_' + fmt}.dat"
            save_point_cloud(cloud, p, fmt)
            back = load_point_cloud(p, fmt)
            if fmt == PLY_BINARY_LE:
                assert np.array_equal(back.points.astype("<f4"), pts.astype("<f4"))
            else:
                assert np.array_equal(back.points, pts)


def test_cloud_validation():
    with pytest.raises(EmptyCloud):
        PointCloud(np.empty((0, 3)))
    with pytest.raises(NonFiniteCoordinate):
        PointCloud(np.array([[0.0, 0.0, np.nan]]))
    with pytest.raises(NonFiniteCoordinate, match="at point 2$"):
        PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.0, -np.inf, 0.0], [np.nan, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 2)))


@pytest.mark.parametrize("fmt, name", [(XYZ_ASCII, "bin.xyz"), (CSV_FORMAT, "bin.csv"),
                                       (PLY_ASCII, "bin.ply")])
def test_non_utf8_text_is_parse_error(tmp_path, fmt, name):
    p = tmp_path / name
    head = (b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property float x\nproperty float y\nproperty float z\nend_header\n") if fmt == PLY_ASCII else b""
    p.write_bytes(head + b"0 0 \xff\xfe\x00\x80 1\n")
    with pytest.raises(ParseError):
        load_point_cloud(p, fmt)


@pytest.mark.parametrize("name, text, load, want", [
    ("a.xyz", "0 0 0\n1 2 3\n", lambda p: load_point_cloud(p, XYZ_ASCII).points.tolist(), [[0, 0, 0], [1, 2, 3]]),
    ("a.csv", "x,y,z\n0,0,0\n1,2,3\n", lambda p: load_point_cloud(p, CSV_FORMAT).points.tolist(),
     [[0, 0, 0], [1, 2, 3]]),
    ("w.csv", "animal_id,weight_kg\ncow1,500\n", load_weights_csv, {"cow1": 500.0}),
    ("c.json", '{"evaluation": {"k": 3}}', lambda p: load_config(p).evaluation.k, 3),
], ids=["xyz-scan", "csv-scan", "weights", "config"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, name, text, load, want):
    """A file saved as "UTF-8 with BOM" (Excel's "CSV UTF-8") reads as without it."""
    p = tmp_path / name
    p.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load(p) == want


@pytest.mark.parametrize("line", ["element vertex abc", "element vertex", "element vertex 3 4",
                                  "element vertex -3", "property float", "property list uchar x",
                                  "format"])
@pytest.mark.parametrize("fmt", [PLY_ASCII, PLY_BINARY_LE])
def test_malformed_ply_header_is_parse_error(tmp_path, line, fmt):
    token = "ascii" if fmt == PLY_ASCII else "binary_little_endian"
    lines = [f"format {token} 1.0", "element vertex 1", "property float x", "property float y",
             "property float z"]
    if line.startswith("element"):
        lines[1] = line
    else:
        lines.insert(5 if line.startswith("property") else 1, line)
    p = tmp_path / "bad.ply"
    p.write_bytes(("ply\n" + "\n".join(lines) + "\nend_header\n").encode() + b"0 0 0\n")
    with pytest.raises(ParseError, match="malformed header line"):
        load_point_cloud(p, fmt)


def test_ply_binary_hostile_counts_are_parse_errors(tmp_path):
    body = np.zeros(3, dtype="<f4").tobytes()
    xyz = "property float x\nproperty float y\nproperty float z\n"
    for head in (f"element vertex 99999999999999999999\n{xyz}",
                 f"element face 99999999999999999999999\nproperty uchar a\nelement vertex 1\n{xyz}",
                 f"element vertex 1\n{xyz}property float x\n"):
        p = tmp_path / "hostile.ply"
        p.write_bytes(f"ply\nformat binary_little_endian 1.0\n{head}end_header\n".encode() + body)
        with pytest.raises(ParseError):
            load_point_cloud(p, PLY_BINARY_LE)


@pytest.mark.parametrize("head", ["element vertex 99999999999999999999\n",
                                  "element face 99999999999999999999999\nproperty uchar a\nelement vertex 1\n",
                                  "element face 9223372036854775807\nproperty uchar a\nelement vertex 5\n"])
def test_ply_ascii_hostile_counts_are_parse_errors(tmp_path, head):
    p = tmp_path / "hostile.ply"
    p.write_text(f"ply\nformat ascii 1.0\n{head}property float x\nproperty float y\nproperty float z\n"
                 "end_header\n0 0 0\n")
    with pytest.raises(ParseError, match="file ends at"):
        load_point_cloud(p, PLY_ASCII)


def test_csv_reader_error_is_parse_error(tmp_path):
    p = tmp_path / "huge_field.csv"
    p.write_text("0,0,0\n1," + "1" * 200_000 + ",0\n")
    with pytest.raises(ParseError, match=":2: field larger than field limit"):
        load_point_cloud(p, CSV_FORMAT)
    with pytest.MonkeyPatch.context() as mp:  # the record in a later block
        mp.setattr(files, "BLOCK_ROWS", 1)
        with pytest.raises(ParseError, match=":2: field larger than field limit"):
            load_point_cloud(p, CSV_FORMAT)


def test_first_bad_line_is_reported(tmp_path):
    """Errors name the first bad line in file order, whatever its kind."""
    p = tmp_path / "two_faults.xyz"
    p.write_text("0 0 0\n1 two 3\n\n1 2\n")
    with pytest.raises(ParseError, match=r":2: cannot parse 'two'"):
        load_point_cloud(p, XYZ_ASCII)
    p.write_text("0 0 0\n1 2\n1 two 3\n")
    with pytest.raises(ParseError, match=r":2: expected 3 fields"):
        load_point_cloud(p, XYZ_ASCII)
    p = tmp_path / "short.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
                 "property float z\nend_header\n0 0 0\n1 1\n")
    with pytest.raises(ParseError, match="vertex 1: expected 3 fields"):
        load_point_cloud(p, PLY_ASCII)
    p.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
                 "property float z\nproperty uchar red\nend_header\n0 0 0 9\n1 1 1\n")
    with pytest.raises(ParseError, match="vertex 1: expected 4 fields, got 3"):
        load_point_cloud(p, PLY_ASCII)
    p.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
                 "property float z\nend_header\n0 0 0\n1 1 1\n")
    with pytest.raises(ParseError, match="file ends at 2"):
        load_point_cloud(p, PLY_ASCII)


def test_text_values_match_float_token_by_token(tmp_path):
    """Array-native parsing gives float()'s value for every token, including
    underscores, non-ASCII digits, exponents below the float range, CRLF and
    lone-CR line ends, and CSV cells padded with non-ASCII-space whitespace."""
    tokens = ["1_000", "١٢", "1e-400", "-0.0", "4.9e-324", ".5", "+7.", "0.1", "2", "3"]
    want = np.array([float(t) for t in tokens[:9]]).reshape(3, 3)
    p = tmp_path / "odd.xyz"
    p.write_text("\r\n".join(" ".join(tokens[i:i + 3]) for i in (0, 3)) + "\r" + " ".join(tokens[6:9]))
    np.testing.assert_array_equal(load_point_cloud(p, XYZ_ASCII).points, want)
    p = tmp_path / "odd.csv"
    p.write_text("x,y,z\n" + "\n".join(",".join(f"\x1c{t} " for t in tokens[i:i + 3]) for i in (0, 3, 6)))
    np.testing.assert_array_equal(load_point_cloud(p, CSV_FORMAT).points, want)


@pytest.mark.parametrize("fmt", [XYZ_ASCII, CSV_FORMAT, PLY_ASCII])
def test_saved_text_is_converted_by_numpy_alone(tmp_path, monkeypatch, fmt):
    """Every block of a file that save_point_cloud writes, the CSV header's
    block and a short last block included, is converted by numpy's reader:
    the exact row-by-row path is never taken."""
    cloud = PointCloud(np.random.default_rng(7).normal(size=(1000, 3)))
    p = tmp_path / "cloud"
    save_point_cloud(cloud, p, fmt)

    def refuse(*args, **kwargs):
        raise AssertionError("a clean block took the exact path")

    monkeypatch.setattr(pointcloud, "block_floats", refuse)
    monkeypatch.setattr(files, "BLOCK_ROWS", 300)
    assert load_point_cloud(p, fmt).points.tobytes() == cloud.points.tobytes()


@pytest.mark.parametrize("fmt", [XYZ_ASCII, CSV_FORMAT, PLY_ASCII])
def test_text_load_peak_memory_per_point_is_flat(tmp_path, fmt):
    """Text is parsed in blocks: from 32k to 128k points the traced peak of
    a load grows by at most 64 B per added point, of which the (N, 3)
    float64 result and its block parts take 48."""
    sizes = (1 << 15, 1 << 17)
    peaks = []
    for n in sizes:
        p = tmp_path / f"cloud{n}"
        save_point_cloud(PointCloud(np.random.default_rng(n).normal(size=(n, 3))), p, fmt)
        tracemalloc.start()
        try:
            load_point_cloud(p, fmt)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) <= 64


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 3780, 40_000])
def test_column_helpers_match_numpy_axis_reductions(n):
    """axis_means, covariance and moments give the bits of numpy's axis-0
    mean, centred covariance and std; axis_spans those of max - min, and an
    all-zero column's span compares equal to numpy's."""
    rng = np.random.default_rng(n)
    pts = (rng.normal(size=(n, 3)) * [1e-3, 2.0, 50.0] + [4e5, -3e7, 0.0]).astype(np.float32).astype(np.float64)
    pts[rng.random(n) < 0.3, 2] = 0.0
    pts[rng.random(n) < 0.3, 2] = -0.0
    zeros = np.where(rng.random((n, 2)) < 0.5, 0.0, -0.0)
    for cloud in (pts, np.column_stack([pts[:, 0], zeros]), np.full((n, 3), -0.0)):
        assert pointcloud.axis_means(cloud).tobytes() == cloud.mean(axis=0).tobytes()
        spans = pointcloud.axis_spans(cloud)
        numpy_spans = cloud.max(axis=0) - cloud.min(axis=0)
        assert np.array_equal(spans, numpy_spans)
        nonzero = cloud.any(axis=0)
        assert spans[nonzero].tobytes() == numpy_spans[nonzero].tobytes()
        centred = cloud - cloud.mean(axis=0)
        centroid, cov = pointcloud.covariance(cloud)
        assert centroid.tobytes() == cloud.mean(axis=0).tobytes()
        assert cov.tobytes() == ((centred.T @ centred) / n).tobytes()
        rows = np.arange(0, n, 2)
        _, sub_cov = pointcloud.covariance(cloud, rows)
        sub = cloud[rows] - cloud[rows].mean(axis=0)
        assert sub_cov.tobytes() == ((sub.T @ sub) / rows.size).tobytes()
        mean, std = cloud.mean(axis=0), cloud.std(axis=0)
        assert np.array(moments(cloud)).tobytes() == np.column_stack([mean, std]).ravel().tobytes()


def test_overflowing_covariance_is_an_error_not_a_warning():
    """Finite coordinates whose covariance overflows float64 raise
    CoordinateOverflow; numpy's overflow warning would be an error here."""
    pts = np.array([[1e200, 0.0, 0.0], [-1e200, 1.0, 0.0], [0.0, -1e200, 1e200]])
    with pytest.raises(CoordinateOverflow, match="covariance overflows"):
        pointcloud.covariance(pts)
    with pytest.raises(CoordinateOverflow):
        pointcloud.covariance(pts, np.array([0, 1]))
