"""Hostile scan files: the loaders and `clean` fail only in documented ways.

Every loader may raise only a HerdWeightError (or FileNotFoundError) on
arbitrary bytes, and `clean` over such files exits 0, 1 or 2, never with
a traceback.
"""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from herdweight.cli import main  # noqa: E402
from herdweight.errors import HerdWeightError  # noqa: E402
from herdweight.pointcloud import FORMATS, load_point_cloud  # noqa: E402

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
