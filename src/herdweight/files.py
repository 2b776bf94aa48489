"""Every output file and JSON input of the package, and input text read in
blocks of rows. Only `output` opens a file for writing, so that a failure
to write is always an IoError naming the file."""

import codecs
import csv
import json
import os
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice
from pathlib import Path

from .errors import IoError, ParseError

# Input text is read and converted BLOCK_ROWS rows at a time, so parsing
# holds one block's lines (about 2 MB for three numbers a row) whatever
# the file size, while the fixed cost of each block's few calls stays
# below 1 % of its work.
BLOCK_ROWS = 16384


@contextmanager
def output(path, binary: bool = False, newline: str = "\n"):
    """A new file at ``path``, open for writing (UTF-8 text unless
    ``binary``) in the ``with`` block. An existing file at ``path`` is
    unlinked, not truncated: truncating a file written moments ago can
    block in a writeback flush (about 50 ms on ext4). A hard link to the
    old file keeps its bytes; a symlink at ``path`` is replaced, not
    written through. Any OSError from the unlink, the open or a write is
    an IoError."""
    try:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        with (open(path, "wb") if binary else open(path, "w", encoding="utf-8", newline=newline)) as f:
            yield f
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """``payload`` as JSON with sorted keys, indented by 2, and a final newline."""
    with output(path) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows) -> None:
    """A CSV file of ``header`` and then ``rows``, with CRLF line ends."""
    with output(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path, what: str, error):
    """The JSON value in the UTF-8 file at ``path``, after a byte-order
    mark if it starts with one; ``error`` names why if the file is missing,
    unreadable, not UTF-8, not JSON or too deep."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except OSError as exc:   # a directory, no permission
        raise error(f"{path}: cannot read {what}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 ({_utf8_fault(path)})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{path}: JSON nested too deep") from None


def row_blocks(rows, first: int = 1):
    """``(number of its first row, rows)`` for consecutive blocks of up to
    BLOCK_ROWS items of the iterable ``rows``, numbered from ``first``."""
    while block := list(islice(rows, BLOCK_ROWS)):
        yield first, block
        first += len(block)


@contextmanager
def text_blocks(path, csv_records: bool = False):
    """``(number of its first row, its lines, None)`` for each block of
    BLOCK_ROWS lines (rows) of a UTF-8 text file, after a byte-order mark
    if it starts with one, open for the ``with`` block. From a CSV block
    with a quote, a NUL (refused by csv before Python 3.11) or a line as
    long as csv's field limit on, a record may span lines: the rest is
    ``(first, [], rows)``, `row_blocks` of CSV records. Non-UTF-8 bytes
    and malformed CSV raise ParseError as their block is read, before any
    other error in it."""
    with open(path, encoding="utf-8-sig", newline="" if csv_records else None) as f:
        try:
            yield _line_blocks(f, path, csv_records)
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text ({_utf8_fault(path)})") from None


def _line_blocks(f, path, csv_records: bool):
    for first, lines in row_blocks(f):
        text = "".join(lines) if csv_records else ""
        if '"' in text or "\0" in text or csv_records and max(map(len, lines)) >= csv.field_size_limit():
            records = csv.reader(chain(lines, f))
            try:
                yield from ((i, [], rows) for i, rows in row_blocks(records, first))
            except csv.Error as exc:
                raise ParseError(f"{path}:{first - 1 + records.line_num}: {exc}") from None
            return
        yield first, lines, None


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
