"""Opening output files and reading input text in blocks of rows."""

import codecs
import csv
import os
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice

from .errors import ParseError

# Input text is read and converted BLOCK_ROWS rows at a time, so parsing
# holds one block's tokens (about 8 MB for three numbers a row) whatever
# the file size, while the fixed cost of each block's few calls stays
# below 1 % of its work.
BLOCK_ROWS = 16384


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


def row_blocks(rows, first: int = 1):
    """``(number of its first row, rows)`` for consecutive blocks of up to
    BLOCK_ROWS items of the iterable ``rows``, numbered from ``first``."""
    while block := list(islice(rows, BLOCK_ROWS)):
        yield first, block
        first += len(block)


@contextmanager
def text_blocks(path, csv_records: bool = False):
    """The `row_blocks` of a UTF-8 text file, open for the ``with`` block:
    CSV records, or else each line's whitespace-separated tokens (universal
    newlines). Non-UTF-8 bytes and malformed CSV raise ParseError as their
    block is read, before any other error in that block."""
    with open(path, encoding="utf-8", newline="" if csv_records else None) as f:
        rows = csv.reader(f) if csv_records else map(str.split, f)
        try:
            yield row_blocks(rows)
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text ({_utf8_fault(path)})") from None
        except csv.Error as exc:
            raise ParseError(f"{path}:{rows.line_num}: {exc}") from None


def _utf8_fault(path) -> str:
    """Why and at which byte UTF-8 decoding fails. The text reader counts
    from its chunk, so this decodes the file again 1 MB at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    fed = 0
    with open(path, "rb") as f:
        for chunk in chain(iter(partial(f.read, 1 << 20), b""), [b""]):
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:  # exc.start counts from the first undecoded byte
                return f"{exc.reason} at byte {fed - len(decoder.getstate()[0]) + exc.start}"
            fed += len(chunk)
    return "the file changed while it was read"
