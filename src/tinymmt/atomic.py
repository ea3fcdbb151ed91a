"""The one way tinymmt writes an output file: whole, or not at all."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

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
