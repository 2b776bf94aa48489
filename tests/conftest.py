"""Fixtures shared by several test modules."""

import concurrent.futures

import pytest


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
