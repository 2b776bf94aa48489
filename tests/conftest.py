"""Fixtures shared by several test modules."""

import concurrent.futures

import numpy as np
import pytest

from herdweight.pointcloud import PLY_ASCII, PLY_BINARY_LE, PointCloud, save_point_cloud


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Replaces ProcessPoolExecutor with a stand-in that starts no process:
    it maps in this process and records each pool's ``max_workers`` in the
    list this fixture returns."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture()
def misleading_plys(tmp_path):
    """``{format: path}`` of two 50-point PLY files in ``tmp_path/plys``
    whose first bytes could mislead a format guess: the ascii one has a
    comment naming the binary format, and the binary one's format line
    follows a 600-byte comment."""
    d = tmp_path / "plys"
    d.mkdir()
    cloud = PointCloud(np.random.default_rng(5).normal(size=(50, 3)))
    paths = {PLY_ASCII: d / "ascii.ply", PLY_BINARY_LE: d / "binary.ply"}
    for fmt, path in paths.items():
        save_point_cloud(cloud, path, fmt)
    text = paths[PLY_ASCII].read_bytes()
    paths[PLY_ASCII].write_bytes(text.replace(b"format ascii 1.0\n",
                                              b"format ascii 1.0\ncomment converted from binary_little_endian\n"))
    data = paths[PLY_BINARY_LE].read_bytes()
    paths[PLY_BINARY_LE].write_bytes(data.replace(b"ply\n", b"ply\ncomment " + b"x" * 600 + b"\n", 1))
    return paths
