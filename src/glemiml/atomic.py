"""Atomic file writes: an artifact appears whole or not at all."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Text file handle whose contents replace `path` when the block exits cleanly.

    The handle writes to a temp file in the same directory, so the final
    os.replace is atomic. If the block raises, the temp file is removed and
    `path` keeps its previous contents (or stays absent). The file is created
    with the permissions open() would give it.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
