"""Persistent request journal: the daemon's write-ahead log.

``RequestJournal`` makes an acknowledged request survive ``kill -9``.
Every blocking kernel request the daemon admits is appended — and
fsync'd — as an ``accepted`` record *before* it is dispatched; once the
response has been computed a ``completed`` record marks it done.  A
daemon that dies between the two leaves the record pending, and the
next boot replays exactly the pending set through the normal dispatch
path.  Replay is at-least-once, but compile keys are content-addressed
and single-flight, so re-running a request that actually finished is a
cache hit — the effect is exactly-once per kernel artifact.

On-disk format (documented in DESIGN.md Appendix F): newline-delimited
JSON segments ``journal-NNNNNN.ndjson``.  Each record is a JSON object
``{"lsn", "type", "body", "crc"}`` where ``crc`` is the CRC32 of the
canonical JSON encoding of the record *without* its ``crc`` field.  A
torn trailing write (the usual ``kill -9`` artifact) or a bit-flipped
record fails its CRC and is skipped with a counter — recovery never
crashes on a damaged journal, it serves what it can prove intact.

Rotation + compaction: when the active segment reaches
``segment_max_records`` the journal starts a fresh segment, rewrites
only the still-pending records into it, and deletes the old segments —
completed entries are garbage-collected so the journal stays bounded
by the in-flight window, not by traffic history.

Like the artifact store (PR 6 convention), the journal degrades rather
than crashes on a read-only directory: writes become no-ops counted in
``dropped``, ``degraded`` flips in :meth:`stats`, and the daemon keeps
serving — durability is lost, availability is not.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

_PREFIX = "journal-"
_SUFFIX = ".ndjson"

#: Record types.  ``accepted`` carries the request frame as ``body``;
#: ``completed`` carries ``{"ok": bool}`` and tombstones its ``lsn``.
RECORD_TYPES = ("accepted", "completed")


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_crc(record: Dict[str, Any]) -> int:
    """CRC32 over the canonical encoding of ``record`` sans ``crc``."""
    body = {k: v for k, v in record.items() if k != "crc"}
    return zlib.crc32(_canonical(body).encode("utf-8"))


def encode_record(lsn: int, rtype: str, body: Dict[str, Any]) -> bytes:
    record = {"lsn": lsn, "type": rtype, "body": body}
    record["crc"] = record_crc(record)
    return (_canonical(record) + "\n").encode("utf-8")


def segment_name(index: int) -> str:
    return f"{_PREFIX}{index:06d}{_SUFFIX}"


def _segment_index(path: Path) -> int:
    return int(path.name[len(_PREFIX) : -len(_SUFFIX)])


def scan_segments(root: Path) -> Tuple[Dict[int, Dict[str, Any]], Dict[str, int]]:
    """Read every segment under ``root`` without mutating anything.

    Returns ``(pending, counters)`` where ``pending`` maps lsn →
    accepted request body for records never marked completed, and
    ``counters`` reports ``records``/``skipped_torn``/``skipped_crc``/
    ``max_lsn``/``max_segment``.  Used both by :class:`RequestJournal`
    recovery and by external inspectors (the chaos harness) that must
    not disturb a journal a daemon still owns.
    """
    pending: Dict[int, Dict[str, Any]] = {}
    counters = {
        "records": 0,
        "skipped_torn": 0,
        "skipped_crc": 0,
        "max_lsn": 0,
        "max_segment": -1,
    }
    root = Path(root)
    if not root.is_dir():
        return pending, counters
    for path in sorted(root.glob(f"{_PREFIX}*{_SUFFIX}")):
        try:
            counters["max_segment"] = max(
                counters["max_segment"], _segment_index(path)
            )
        except ValueError:
            continue
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                # A torn trailing write after kill -9, or plain garbage.
                counters["skipped_torn"] += 1
                continue
            if not isinstance(record, dict):
                counters["skipped_torn"] += 1
                continue
            crc = record.get("crc")
            if not isinstance(crc, int) or crc != record_crc(record):
                counters["skipped_crc"] += 1
                continue
            lsn = record.get("lsn")
            rtype = record.get("type")
            body = record.get("body")
            if (
                not isinstance(lsn, int)
                or rtype not in RECORD_TYPES
                or not isinstance(body, dict)
            ):
                counters["skipped_crc"] += 1
                continue
            counters["records"] += 1
            counters["max_lsn"] = max(counters["max_lsn"], lsn)
            if rtype == "accepted":
                pending[lsn] = body
            else:
                pending.pop(lsn, None)
    return pending, counters


class RequestJournal:
    """Append-only, CRC-tagged, fsync'd NDJSON write-ahead log."""

    def __init__(
        self,
        root: Path,
        segment_max_records: int = 1024,
        fsync: bool = True,
    ) -> None:
        self.root = Path(root)
        self.segment_max_records = max(1, int(segment_max_records))
        self.fsync = fsync
        self.degraded = False
        self.appended = 0
        self.completed = 0
        self.dropped = 0
        self.compactions = 0
        self._lock = threading.Lock()
        self._file = None
        self._segment_index = 0
        self._records_in_segment = 0
        self._pending: Dict[int, Dict[str, Any]] = {}
        self._scan_counters: Dict[str, int] = {}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            self._degrade()
        pending, counters = scan_segments(self.root)
        self._pending = dict(sorted(pending.items()))
        self._scan_counters = counters
        self.recovered_pending = len(pending)
        self._next_lsn = counters["max_lsn"] + 1
        if not self.degraded:
            with self._lock:
                # Compact on open: pending records move into a fresh
                # segment, history (and any torn tail) is dropped.
                self._compact_locked(counters["max_segment"] + 1)

    # -- write path ----------------------------------------------------------

    def record_accepted(self, body: Dict[str, Any]) -> Optional[int]:
        """Durably journal one admitted request; returns its lsn.

        Returns ``None`` in degraded mode (read-only journal dir) — the
        caller serves the request anyway, it just will not survive a
        crash."""
        with self._lock:
            lsn = self._next_lsn
            self._next_lsn += 1
            if not self._append_locked(lsn, "accepted", dict(body)):
                return None
            self._pending[lsn] = dict(body)
            self.appended += 1
            return lsn

    def record_completed(self, lsn: int, ok: bool = True) -> None:
        """Tombstone a journaled request once its response exists."""
        with self._lock:
            self._pending.pop(lsn, None)
            if self._append_locked(lsn, "completed", {"ok": bool(ok)}):
                self.completed += 1

    def _append_locked(self, lsn: int, rtype: str, body: Dict[str, Any]) -> bool:
        if self.degraded:
            self.dropped += 1
            return False
        try:
            if self._file is None or self._records_in_segment >= (
                self.segment_max_records
            ):
                self._compact_locked(self._segment_index + 1)
                if self.degraded:
                    self.dropped += 1
                    return False
            frame = encode_record(lsn, rtype, body)
            self._file.write(frame)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._records_in_segment += 1
            return True
        except (OSError, ValueError):
            self._degrade()
            self.dropped += 1
            return False

    def _compact_locked(self, new_index: int) -> None:
        """Open segment ``new_index``, rewrite pending, drop the rest."""
        try:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None
            path = self.root / segment_name(new_index)
            handle = open(path, "ab")
            for lsn, body in sorted(self._pending.items()):
                handle.write(encode_record(lsn, "accepted", body))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self._file = handle
            self._segment_index = new_index
            self._records_in_segment = len(self._pending)
            self.compactions += 1
            for old in sorted(self.root.glob(f"{_PREFIX}*{_SUFFIX}")):
                try:
                    if _segment_index(old) < new_index:
                        old.unlink()
                except (OSError, ValueError):
                    pass  # best-effort GC; stale segments re-compact next boot
        except OSError:
            self._degrade()

    def _degrade(self) -> None:
        """Read-only journal dir: keep serving, stop journaling."""
        self.degraded = True
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None

    # -- read path -----------------------------------------------------------

    def pending(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Snapshot of journaled-but-never-completed requests, lsn order."""
        with self._lock:
            return sorted(self._pending.items())

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "dir": str(self.root),
                "degraded": self.degraded,
                "pending": len(self._pending),
                "recovered_pending": self.recovered_pending,
                "appended": self.appended,
                "completed": self.completed,
                "dropped": self.dropped,
                "compactions": self.compactions,
                "segment_index": self._segment_index,
                "skipped_torn": self._scan_counters.get("skipped_torn", 0),
                "skipped_crc": self._scan_counters.get("skipped_crc", 0),
            }

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
