"""Atomic file replacement: a reader sees the old file or the new one,
never a torn one.  The one writer behind the result cache, the
checkpoint store and the heartbeat records."""

from __future__ import annotations

import os
import tempfile
from typing import IO, Callable


def write_atomic(path: str, write: Callable[[IO], None],
                 binary: bool = False) -> None:
    """Create or replace ``path`` with what ``write(fh)`` writes.

    ``write`` fills a temp file in ``path``'s directory, which then
    replaces ``path`` in one ``os.replace``.  On any failure the temp
    file is removed and the error re-raised; ``path`` is left as it was.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
