"""The one way tinymmt writes an output file (whole, or not at all) and
reads a text input (UTF-8, or a structured error)."""

from __future__ import annotations

import itertools
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
    A final line ending ends the last line, it does not start one."""
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines
