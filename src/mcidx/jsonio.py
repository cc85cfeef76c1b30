"""JSONL file helpers, typed record fields, atomic text writes and tolerant JSON extraction from generated text."""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

from .errors import DataError, ParseError, SchemaError

_JSON_WHITESPACE = " \t\n\r"
# ``json.loads`` without its per-call wrapper, which matches whitespace with
# two regexes; ``iter_jsonl_lines`` strips that whitespace itself.
_raw_decode = json.JSONDecoder().raw_decode
# ``json.dumps(record, ensure_ascii=False)`` builds a new encoder per call;
# this one is built once and writes the same bytes.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, record)`` for every non-blank line of a JSONL file.

    Raises SchemaError naming ``path`` and the line on invalid JSON or on
    records that are not objects, and DataError naming ``path`` if it is not
    UTF-8.
    """
    with open(path, encoding="utf-8") as fh:
        yield from iter_jsonl_lines(fh, path)


def read_jsonl(path: str | Path, parse: Callable[[dict], object]) -> None:
    """Call ``parse(record)`` on each record of a JSONL file, in file order.

    This is the one loop over corpus, QA and views records: a DataError that
    ``parse`` raises gets ``path`` and the record's line number.
    """
    for lineno, record in iter_jsonl(path):
        try:
            parse(record)
        except DataError as exc:
            exc.line, exc.path = lineno, path
            raise


def iter_jsonl_lines(lines: Iterable[str], path: str | Path) -> Iterator[tuple[int, dict]]:
    """``iter_jsonl`` over the lines of ``path`` already opened as UTF-8 text.

    Each line is decoded as ``json.loads`` would: a line that is empty or
    whitespace (in the ``str.isspace`` sense) is skipped; otherwise JSON
    whitespace around one value is allowed and anything else is an error.
    """
    try:
        for lineno, line in enumerate(lines, start=1):
            text = line.strip(_JSON_WHITESPACE)
            if not text or text.isspace():
                continue
            try:
                record, end = _raw_decode(text)
            # Besides a JSONDecodeError: a ValueError for an int of over 4300 digits, and nesting too deep.
            except (ValueError, RecursionError) as exc:
                raise SchemaError(f"invalid JSON ({getattr(exc, 'msg', exc)})", lineno, path) from exc
            if end != len(text):
                raise SchemaError("invalid JSON (Extra data)", lineno, path)
            if not isinstance(record, dict):
                raise SchemaError("record is not a JSON object", lineno, path)
            yield lineno, record
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def require(record: dict, key: str, kind: type):
    """``record[key]`` if it is present and of ``kind``, else SchemaError.

    An int is not a bool, and a str must encode as UTF-8: JSON can spell a
    lone surrogate (``"\\ud800"``), which no output file could hold.
    """
    if key not in record:
        raise SchemaError(f"missing key {key!r}")
    value = record[key]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"key {key!r} must be an integer")
    elif not isinstance(value, kind):
        raise SchemaError(f"key {key!r} must be {kind.__name__}")
    elif kind is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SchemaError(f"key {key!r} is not valid Unicode ({exc.reason})") from exc
    return value


@contextmanager
def atomic_text_writer(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for writing text so that it is replaced only on success.

    Writes go to a temporary sibling in the same directory (created with its
    parents), which ``os.replace`` moves over ``path`` once the block exits
    cleanly. If the block raises, the sibling is removed and any old file at
    ``path`` keeps its bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    with atomic_text_writer(path) as fh:
        for record in records:
            fh.write(_encode(record) + "\n")


def jsonl_bytes(records: Iterable[dict]) -> bytes:
    """The UTF-8 bytes that ``write_jsonl`` writes for ``records``."""
    return "".join([_encode(record) + "\n" for record in records]).encode("utf-8")


def iter_json_objects(text: str) -> Iterator[dict]:
    """Extract every top-level JSON object embedded in free-form text.

    Generated text often wraps objects in prose or arrays; this scans for
    ``{`` and decodes balanced objects, skipping anything malformed. Text
    nested too deeply to decode is a ParseError.
    """
    pos = 0
    while True:
        start = text.find("{", pos)
        if start < 0:
            return
        try:
            obj, end = _raw_decode(text, start)
        except ValueError:
            pos = start + 1
            continue
        except RecursionError as exc:
            raise ParseError("generated text nests JSON too deeply") from exc
        if isinstance(obj, dict):
            yield obj
        pos = end
