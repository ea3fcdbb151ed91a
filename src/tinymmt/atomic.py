"""The one way tinymmt writes an output file (whole, or not at all), reads a
text input (UTF-8, or a structured error) and reads a JSON input (one parse,
one field-table check)."""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path

from tinymmt.errors import DataError

_counter = itertools.count()


def atomic_write(path, data: str | bytes) -> None:
    """Write `data` (str is encoded as UTF-8) to `path` through a temp file
    in the same directory, then rename it over `path`.

    The parent directory is created. The temp name is unique per call, so
    two writers to one path never share it, and it is removed if the write
    fails. The file gets the mode a plain open() gives (0o666 less umask).
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_counter)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_text(path, error: type[Exception] = DataError) -> str:
    """A UTF-8 text file's contents with universal newlines; a missing,
    unreadable or undecodable file raises `error`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


def read_lines(path) -> list[str]:
    """A text file's lines, broken only at line endings (\\n, \\r\\n or \\r),
    not at the other breaks str.splitlines() knows (\\x0c, \\x85, U+2028, ...).
    A final line ending ends the last line, it does not start one. A leading
    byte order mark raises DataError: it would join the first line's first word."""
    text = read_text(path)
    if text.startswith("\ufeff"):
        raise DataError(f"{path}:1: starts with a byte order mark (U+FEFF); "
                        "save the file as UTF-8 without one")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def parse_json(text: str, where, error: type[Exception]):
    """The JSON value `text` holds; invalid JSON raises `error` naming `where`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON: {exc}") from None


NUMBER = (int, float)  # JSON true and false are not numbers, though bool subclasses int
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
_WALKED = {str, float, list, dict}  # the types a _fault can hide in


def _fault(value) -> tuple[tuple, str] | None:
    """The keys down to, and the kind of, the first thing in a decoded JSON value that
    JSON text cannot hold: half a surrogate pair (a \\u escape spells one) or NaN and
    +-Infinity (not numbers in RFC 8259; json.loads reads them, and 1e400 as inf)."""
    stack = [((), value)]
    while stack:  # a stack, not recursion: a value may nest deeper than Python frames
        keys, value = stack.pop()
        kind = type(value)
        if kind is str:
            try:
                value.isascii() or value.encode("utf-8")  # half a surrogate pair cannot encode
            except UnicodeEncodeError:
                return keys, "holds a lone surrogate"
        elif kind is float:
            if not math.isfinite(value):
                return keys, f"is not a finite number: {value}"
        elif kind is list:
            stack += (((*keys, i), v) for i, v in enumerate(value) if type(v) in _WALKED)
        elif kind is dict:
            stack += (((*keys, k), k) for k in value if not k.isascii())
            stack += (((*keys, k), v) for k, v in value.items() if type(v) in _WALKED)
    return None


def json_fields(obj, kinds: dict, where, error: type[Exception], required) -> dict:
    """`obj`, checked against one format's field table (key -> the type or tuple of types
    its value may take; the keys it leaves out are for the caller's defaults). A non-object,
    an unknown or missing key, a wrong type or a _fault raises `error` naming `where` and the key."""
    if type(obj) is not dict:
        raise error(f"{where}: expected a JSON object, got {_JSON_TYPES[type(obj)]}")
    for key, value in obj.items():
        kind = kinds.get(key)
        if kind is None:
            raise error(f"{where}: unknown key {key!r} (allowed: {', '.join(kinds)})")
        found = type(value)
        if not isinstance(value, kind) or (found is bool and kind is not bool):
            expected = " or ".join(map(_JSON_TYPES.get, kind if isinstance(kind, tuple) else (kind,)))
            raise error(f"{where}: {key!r} must be {expected}, got {_JSON_TYPES[found]}")
        if (found is str and value.isascii() or found is float and math.isfinite(value)
                or found is list and _WALKED.isdisjoint(map(type, value))):
            continue  # a clean leaf, or an array of no _WALKED type: nothing for _fault to find
        fault = _fault(value) if found in _WALKED else None
        if fault:
            keys, problem = fault
            raise error(f"{where}: {key!r}{''.join(f'[{k!r}]' for k in keys)} {problem}")
    for key in required:
        if key not in obj:
            raise error(f"{where}: missing required key {key!r}")
    return obj
