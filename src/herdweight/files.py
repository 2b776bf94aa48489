"""Opening output files and reading input text."""

import csv
import io
import os
from pathlib import Path

from .errors import ParseError


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


def read_text(path) -> str:
    """The file's contents as UTF-8 text; other bytes are a ParseError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_csv(path) -> list[list[str]]:
    """Every record of a UTF-8 CSV file; a malformed file is a ParseError."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
