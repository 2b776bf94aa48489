"""Opening output files."""

import os


def open_fresh(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` on a new file: an existing file at
    ``path`` is unlinked, not truncated. Truncating a file written moments
    ago can block in a writeback flush (about 50 ms on ext4). A hard link
    to the old file keeps its bytes; a symlink at ``path`` is replaced,
    not written through."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode, **kwargs)
