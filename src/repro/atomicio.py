"""The one atomic write-then-rename helper: :func:`atomic_write_bytes`.

Every artifact this stack persists — checkpoint cells, monitor
snapshots, run manifests, trace JSONL, metrics JSON — must be readable
or absent, never torn: a kill or crash mid-write may cost the artifact,
but a resume must never ingest half a file.  The idiom is always the
same (write a same-directory temp file, then ``os.replace`` over the
target, which POSIX guarantees atomic within a filesystem), so it lives
here once instead of being re-inlined per module; text and JSON
artifacts go through :func:`atomic_write_text`, its UTF-8 sibling.

Rule ``IO001`` in :mod:`repro.analysis` rejects direct write-mode
``open`` / ``write_text`` / ``json.dump`` calls in the persistence
layers (``repro.runtime``, ``repro.obs``) that do not route through
these helpers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from types import TracebackType
from typing import BinaryIO

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "append_jsonl_line",
    "AtomicBinaryWriter",
]


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp-then-rename, no fsync).

    Parent directories are created as needed.  The temp file carries the
    writing pid so concurrent writers in different processes cannot
    collide on the temp name; the final ``os.replace`` makes whichever
    finishes last win with a complete file either way.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        # Never leave the temp file behind on a failed write/rename; the
        # original target (if any) is still intact.
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically, UTF-8 encoded (see
    :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(
    path: str | Path,
    payload: object,
    *,
    indent: int | None = None,
    sort_keys: bool = True,
) -> Path:
    """Serialise ``payload`` as JSON and write it atomically.

    The document always ends with a newline; ``sort_keys`` defaults to
    True so serialised artifacts are byte-stable across runs (the
    repr-exact float convention from the checkpoint layer relies on
    deterministic serialisation).
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    return atomic_write_text(path, text)


def append_jsonl_line(path: str | Path, payload: object) -> Path:
    """Append one JSON document as a line to a JSONL stream file.

    This is the deliberate exception to the temp-then-rename rule:
    streaming telemetry (the live metrics JSONL that `obs tail`
    follows) wants each sample visible to readers *immediately*, and
    rewriting the whole file per sample would turn an O(1) publish into
    O(samples).  A single ``write`` of one ``\\n``-terminated line is
    appended and flushed; a crash mid-write can tear at most the final
    line, and every reader of these streams tolerates (skips) a torn
    last line.  Durable artifacts — checkpoints, manifests, flight
    recordings — must keep using :func:`atomic_write_text`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(payload, sort_keys=True) + "\n"
    with open(path, "a") as handle:
        handle.write(line)
        handle.flush()
    return path


class AtomicBinaryWriter:
    """Streamed binary writes with the same temp-then-rename guarantee.

    For artifacts too large to assemble in memory (the memory-mapped
    slab columns): bytes stream into a same-directory temp file and the
    target name only ever comes into existence — complete — on
    :meth:`commit` (fsync + ``os.replace``).  :meth:`abort` (or an
    exception inside the ``with`` block) removes the temp file and
    leaves any previous target untouched.  May be used as a context
    manager (commits on clean exit) or held open across a longer build
    loop with an explicit ``commit()``/``abort()``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(f".{self.path.name}.tmp-{os.getpid()}")
        self._handle: BinaryIO | None = open(self._tmp, "wb")
        self.nbytes = 0

    def write(self, data: bytes) -> int:
        """Append raw bytes; returns the number written."""
        if self._handle is None:
            raise ValueError(f"writer for {self.path} is already closed")
        written = self._handle.write(data)
        self.nbytes += written
        return written

    def commit(self) -> Path:
        """Flush, fsync and atomically rename the temp file into place."""
        if self._handle is None:
            raise ValueError(f"writer for {self.path} is already closed")
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            os.replace(self._tmp, self.path)
        except OSError:
            self._handle = None
            self._tmp.unlink(missing_ok=True)
            raise
        self._handle = None
        return self.path

    def abort(self) -> None:
        """Discard everything written; the previous target survives."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> AtomicBinaryWriter:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False
