"""Exception hierarchy shared across the toolkit, and the file I/O every
artifact goes through: one atomic writer, the npz and table writers and
readers built on it, and the text reader that names undecodable bytes.

Exit-code mapping for the CLI: validation problems are 1, missing
prerequisite artifacts are 2, numeric failures are 3.
"""

import contextlib
import itertools
import os
import zipfile
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np


class ToolError(Exception):
    exit_code = 1


class ValidationError(ToolError):
    """Bad arguments, malformed configs/files, or violated contracts."""

    exit_code = 1


class CapacityError(ValidationError):
    """A dataset cannot supply what was requested (names the shortfall)."""


class DependencyError(ToolError):
    """A required artifact is missing; message names the producing command."""

    exit_code = 2


class NumericError(ToolError):
    """Non-finite values encountered during computation."""

    exit_code = 3


def read_text(path: str) -> str:
    """The whole file decoded as UTF-8, with universal newlines; bytes that do
    not decode, or a file that cannot be opened, are a ValidationError naming
    path:line or path."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        # read() decodes the whole file at once, so e.object is all of it
        before = e.object[:e.start]  # lines end at universal newlines, not at a form feed
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise ValidationError(f"{path}:{line}: not UTF-8 text") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


@contextlib.contextmanager
def write_atomic(path: str, binary: bool = False):
    """A file opened at path + ".partial" (its directory made if missing), as
    bytes or as UTF-8 text without newline translation, and renamed to `path`
    when the block ends.  What the block raises passes through, that file removed
    and `path` kept; any other OSError is a ValidationError naming `path`."""
    partial = path + ".partial"
    in_block = False
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with (open(partial, "wb") if binary else open(partial, "w", encoding="utf-8", newline="")) as f:
            in_block = True
            yield f
            in_block = False
        os.replace(partial, path)
    except OSError as exc:
        if in_block:
            raise
        raise ValidationError(f"cannot write {path}: {exc}") from None
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def write_table(path: str, rows: Iterable[Sequence[str]], header: Sequence[str] | None = None,
                sep: str = "\t") -> None:
    """`header`, then each row of strings, as lines of `sep`-joined fields, written
    atomically.  Lines end in CRLF for a comma, as the csv module writes, else in LF."""
    end = "\r\n" if sep == "," else "\n"
    with write_atomic(path) as f:
        if header is not None:
            f.write(sep.join(header) + end)
        f.writelines(sep.join(row) + end for row in rows)


_TABLE_BLOCK = 2048  # lines per read_table block, so a table's fields are never all held at once


def read_table(path: str, width: int, header: Sequence[str] | None = None, sep: str = "\t",
               text: str | None = None) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """(line numbers, columns) of each block of at most _TABLE_BLOCK non-blank lines
    of a write_table file after its `header`; columns[k] is field k of each line.  A
    first line other than `header`, or a line without exactly `width` fields, is a
    ValidationError naming path:line, raised once the lines before it are yielded.
    `text`, when given, is parsed in place of reading the file."""
    lines = (read_text(path) if text is None else text).split("\n")
    if header is not None and lines[0] != sep.join(header):
        raise ValidationError(f"{path}:1: expected the header {sep.join(header)!r}")
    for start in range(header is not None, len(lines), _TABLE_BLOCK):
        block = lines[start:start + _TABLE_BLOCK]
        numbers: Sequence[int] = range(start + 1, start + 1 + len(block))
        if "" in block:
            numbers, block = [n for n, line in zip(numbers, block) if line], list(filter(None, block))
        counts = list(map(str.count, block, itertools.repeat(sep)))
        clean = len(block) if counts.count(width - 1) == len(block) else next(
            i for i, count in enumerate(counts) if count != width - 1)
        if clean:
            fields = sep.join(block[:clean]).split(sep)
            yield numbers[:clean], [fields[k::width] for k in range(width)]
        if clean < len(block):
            raise ValidationError(f"{path}:{numbers[clean]}: expected {width} fields")


def write_npz(path: str, arrays: dict[str, np.ndarray]) -> None:
    """One uncompressed npz of `arrays`, written atomically."""
    with write_atomic(path, binary=True) as f:
        np.savez(f, **arrays)


def read_npz(path: str, what: str,
             names: Collection[str] | Callable[[dict], Collection[str]]) -> dict[str, np.ndarray]:
    """Every member of the npz at `path`, which must hold exactly `names` (or
    `names(members)`).  An unreadable file, a non-array, missing or unknown
    member, or a ValidationError from `names` is a ValidationError naming `path`."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: not a readable {what} ({exc})") from None
    for key, value in arrays.items():
        if not isinstance(value, np.ndarray):  # np.load returns a non-npy member as bytes
            raise ValidationError(f"{path}: member {key} of the {what} is not an array")
    try:
        expected = set(names(arrays) if callable(names) else names)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    problems = [f"{label} members {sorted(found)}" for label, found in (
        ("missing", expected - arrays.keys()), ("unknown", arrays.keys() - expected)) if found]
    if problems:
        raise ValidationError(f"{path}: {', '.join(problems)}")
    return arrays
