"""The repository's durable JSONL log: one held handle, explicit commits.

Every write-ahead log in the code base is a :class:`CheckpointLog`: the
admission service's checkpoint, the gateway's ingestion journal, and
the campaign, multicore and batch sweep checkpoints.  The discipline is
the same everywhere:

* each record is one JSON line carrying a CRC-32 of its own canonical
  payload, so a torn or bit-flipped line is detectably bad on
  :meth:`~CheckpointLog.load` and is skipped with a warning;
* :meth:`~CheckpointLog.append` writes the line through a handle held
  open for the log's lifetime and flushes it to the operating system —
  a *process* crash loses nothing appended;
* :meth:`~CheckpointLog.commit` fsyncs, and only when something was
  appended since the previous commit — a *power loss* loses nothing
  committed.  Callers commit exactly where a promise leaves the
  process (see ``docs/deployment.md`` § "Durability contract");
* a torn final line left by an earlier crash is isolated on a line of
  its own once, when the handle opens, never per append; a non-empty
  file is then fsynced once, so bytes an earlier process left in the
  page cache are durable before they count as committed.

The module depends on nothing but the standard library, so sweeps that
checkpoint import it without pulling in the service stack.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from pathlib import Path

__all__ = ["CheckpointLog"]


def _crc(op: dict) -> int:
    """CRC-32 over the canonical serialization of ``op`` (crc key aside)."""
    canonical = json.dumps(op, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


class CheckpointLog:
    """Append-only durable op log (one CRC'd JSON object per line).

    The file opens on the first :meth:`append` and stays open until
    :meth:`close`; constructing a log or calling :meth:`load` touches
    nothing on disk.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        #: length in bytes of the file's durable prefix: its size when
        #: the handle opened (fsynced there) plus every record a
        #: :meth:`commit` covered.
        #: A power loss can cut the file anywhere past this offset.
        self.committed_offset = 0
        self._end = 0
        self._handle = None

    def exists(self) -> bool:
        return self.path.exists() and self.path.stat().st_size > 0

    def _open(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "a+b")
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                # a crash tore the final record: end it here so the next
                # record starts on a line of its own (load skips the torn
                # one; it may still be a whole record minus its newline)
                handle.write(b"\n")
                handle.flush()
                size += 1
            # a crashed writer's bytes may still sit only in the page
            # cache: make them durable before calling them committed
            os.fsync(handle.fileno())
        self.committed_offset = size
        self._end = size
        self._handle = handle
        return handle

    def append(self, op: dict) -> None:
        """Write one record and flush it to the OS; no fsync.

        The record is durable against a process crash on return and
        against a power loss after the next :meth:`commit`."""
        record = dict(op)
        record["crc"] = _crc(op)
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        handle = self._handle if self._handle is not None else self._open()
        handle.write(line)
        handle.flush()
        self._end += len(line)

    def commit(self) -> None:
        """fsync everything appended since the last commit (if any)."""
        if self._handle is not None and self._end != self.committed_offset:
            os.fsync(self._handle.fileno())
            self.committed_offset = self._end

    def close(self) -> None:
        """Release the handle *without* committing: a clean shutdown
        calls :meth:`commit` first, a crash drill does not.  A later
        :meth:`append` reopens the file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def load(self) -> list[dict]:
        """All intact ops, each verified against its per-line CRC.

        A line that fails to parse *or* parses but fails its CRC (a
        torn partial flush, a bit flip) is skipped with a warning — a
        crash artifact, not a reason to refuse the whole log.  Lines
        written before the CRC discipline (no ``crc`` key) are accepted
        unverified for back-compatibility."""
        if not self.path.exists():
            return []
        ops: list[dict] = []
        torn = 0
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    torn += 1
                    continue
                if not isinstance(record, dict):
                    torn += 1
                    continue
                expected = record.pop("crc", None)
                if expected is not None and expected != _crc(record):
                    torn += 1
                    continue
                ops.append(record)
        if torn:
            warnings.warn(
                f"checkpoint {self.path}: skipped {torn} torn/corrupt "
                "record(s) (crash artifact — restoring from the intact "
                "prefix)",
                stacklevel=2,
            )
        return ops
