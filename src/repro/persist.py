"""The one atomic writer (records, job files, checkpoints, corpus
entries) and the one quarantining reader (records, job files): a killed
writer never leaves half a file, and a damaged file is set aside as
``<path>.corrupt`` instead of taking its reader down."""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

__all__ = ["atomic_write", "read_json_file", "read_json_object", "temp_path"]


def temp_path(path: str) -> str:
    """Where :func:`atomic_write` streams ``path`` before the rename."""
    return path + ".tmp"


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator[Any]:
    """Open ``<path>.tmp`` for writing; rename it to ``path`` on exit."""
    with open(temp_path(path), mode) as handle:
        yield handle
    os.replace(temp_path(path), path)


def read_json_file(path: str, kind: str,
                   build: Optional[Callable[[Dict[str, Any]], Any]] = None
                   ) -> Optional[Tuple[bytes, Any]]:
    """The bytes of ``path`` and the JSON object they hold, passed
    through ``build`` if given.

    None when the file is missing, or when it does not parse, is not an
    object or does not build: such a file is renamed to
    ``<path>.corrupt`` with a :class:`RuntimeWarning` naming the
    ``kind`` of artifact, and reads as absent from then on.  A file that
    another reader removes or quarantines first also reads as absent.
    Only the file that was read is renamed: if a writer replaced it
    after the read, the new file is read once more instead (and reads as
    absent if it is replaced again meanwhile).
    """
    for _ in range(2):
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return None
        with handle:
            raw = handle.read()
            try:
                data = json.loads(raw)
                if not isinstance(data, dict):
                    raise ValueError(
                        f"not a JSON object: {type(data).__name__}")
                return raw, (data if build is None else build(data))
            except (ValueError, TypeError) as exc:
                error = exc
                read = os.fstat(handle.fileno())
        try:
            now = os.stat(path)
        except FileNotFoundError:
            return None
        if (now.st_dev, now.st_ino) == (read.st_dev, read.st_ino):
            break
    else:
        return None  # replaced again while this reader looked
    try:
        os.replace(path, path + ".corrupt")
    except FileNotFoundError:
        return None
    warnings.warn(f"quarantined corrupt {kind} {path} -> "
                  f"{path}.corrupt: {error}", RuntimeWarning, stacklevel=3)
    return None


def read_json_object(path: str, kind: str,
                     build: Optional[Callable[[Dict[str, Any]], Any]] = None
                     ) -> Optional[Any]:
    """:func:`read_json_file` without the bytes."""
    read = read_json_file(path, kind, build)
    return None if read is None else read[1]
