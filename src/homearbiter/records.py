"""JSON-lines records: one JSON value per line, blank lines skipped, in UTF-8 with any line end.

Every JSON reader decodes, checks its records and words their errors as ``file:line`` here.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

from .errors import ParseError


def decode_utf8(data: bytes, where: str) -> str:
    """UTF-8 ``data`` as text, line ends as they are.

    A byte that is not UTF-8 raises a :class:`ParseError` naming ``where``
    and the line that holds the first such byte.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b"?").splitlines())  # a line ends at \n, \r\n or \r
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})", path=where, line=line) from None


def decode_text(data: bytes, where: str) -> str:
    """:func:`decode_utf8` of ``data``, with each ``\\r\\n`` or ``\\r`` read as ``\\n``, as ``open`` reads a file."""
    text = decode_utf8(data, where)
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_input(path: str | Path) -> tuple[str, str]:
    """The text of a UTF-8 file, by :func:`decode_text`, and the SHA-256 of its bytes, from one read."""
    data = Path(path).read_bytes()
    return decode_text(data, str(path)), hashlib.sha256(data).hexdigest()


def parse_json(text: str, path: str, line: int | None = None):
    """``json.loads`` of one input, with any bad JSON raised as a :class:`ParseError` naming ``path:line``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", path=path, line=line) from exc
    except ValueError as exc:  # valid syntax past a parser limit: an integer of more than 4300 digits
        raise ParseError(f"bad JSON: {exc}", path=path, line=line) from exc


def json_lines(text: str, where: str) -> Iterator[tuple[int, object]]:
    """``(line number, value)`` of each non-blank line of a JSON-lines text, stripped, by :func:`parse_json`."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line:
            yield lineno, parse_json(line, where, lineno)


_KIND_NAMES = {str: "a string", list: "a list of strings", dict: "an object"}


def check_record(obj, fields: Mapping[str, type]) -> None:
    """Raise unless ``obj`` is a JSON object whose ``fields`` are of their kinds: strings, lists of strings, objects."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for name, kind in fields.items():
        if not isinstance(obj[name], kind) or kind is list and not all(isinstance(item, str) for item in obj[name]):
            raise ValueError(f"{name} must be {_KIND_NAMES[kind]}")


@contextmanager
def record_errors(where: str, lineno: int, prefix: str = "") -> Iterator[None]:
    """Raise a record's lookup, type, value or overflow error as a ``where:lineno: prefix...`` :class:`ParseError`.

    A ``KeyError``, such as :func:`check_record` raises for a missing field, reads ``missing field 'x'``.
    """
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{prefix}missing field {exc.args[0]!r}", path=where, line=lineno) from exc
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{prefix}{exc}", path=where, line=lineno) from exc


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
