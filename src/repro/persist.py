"""The one atomic writer (records, job files, checkpoints, corpus
entries) and the one quarantining reader (records, job files): a killed
writer never leaves half a file, and a damaged file is set aside as
``<path>.corrupt`` instead of taking its reader down."""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = ["atomic_write", "read_json_object", "temp_path"]


def temp_path(path: str) -> str:
    """Where :func:`atomic_write` streams ``path`` before the rename."""
    return path + ".tmp"


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator[Any]:
    """Open ``<path>.tmp`` for writing; rename it to ``path`` on exit."""
    with open(temp_path(path), mode) as handle:
        yield handle
    os.replace(temp_path(path), path)


def read_json_object(path: str, kind: str,
                     build: Optional[Callable[[Dict[str, Any]], Any]] = None
                     ) -> Optional[Any]:
    """The JSON object in ``path``, passed through ``build`` if given.

    None when the file is missing, or when it does not parse, is not an
    object or does not build: such a file is renamed to
    ``<path>.corrupt`` with a :class:`RuntimeWarning` naming the
    ``kind`` of artifact, and reads as absent from then on.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"not a JSON object: {type(data).__name__}")
        return data if build is None else build(data)
    except (ValueError, TypeError) as exc:
        os.replace(path, path + ".corrupt")
        warnings.warn(f"quarantined corrupt {kind} {path} -> "
                      f"{path}.corrupt: {exc}", RuntimeWarning, stacklevel=3)
        return None
