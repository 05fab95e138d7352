"""On-disk artifact store (the warm tier).

One JSON file per content-addressed key under a cache directory, written
atomically (temp file + rename) so concurrent writers — several CLI
invocations, a warmup fleet, the serving daemon's worker pool — can
share the directory without torn artifacts.  Corrupt or version-skewed
artifacts are treated as misses and *quarantined* to
``<cache-dir>/quarantine/`` rather than silently deleted, so an
operator can diagnose what corrupted them; the caller recompiles and
the fresh artifact overwrites the key.

Artifacts are *sharded* by content-hash prefix: key ``ca7382…`` lives
at ``<cache-dir>/ca/ca7382….json``.  A flat directory degrades badly at
serving scale (every lookup readdirs thousands of entries, rsync/ls
choke), and hash-prefix shards spread a content-addressed keyspace
uniformly by construction.

The store also keeps cumulative service counters in ``stats.json`` so a
later ``swgemm cache stats`` invocation can report the hits a previous
``swgemm perf`` run produced — per-process counters alone would vanish
with the process.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.faults import FaultInjector
from repro.runtime.program import CompiledProgram

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "SWGEMM_CACHE_DIR"

_STATS_FILE = "stats.json"
_POISON_FILE = "poison-keys.json"
_SUFFIX = ".json"
_QUARANTINE_DIR = "quarantine"

#: Hex characters of the key prefix that name a shard directory (256
#: shards over a uniformly distributed content hash).
SHARD_WIDTH = 2

_HEX = set("0123456789abcdef")


def shard_for(key: str) -> str:
    """Shard directory name for a content-addressed key."""
    prefix = key[:SHARD_WIDTH].lower()
    if len(prefix) == SHARD_WIDTH and all(c in _HEX for c in prefix):
        return prefix
    # Non-hex or degenerate keys (test doubles) share a fallback shard.
    return "_" * SHARD_WIDTH


def _is_shard_dir(path: Path) -> bool:
    name = path.name
    return len(name) == SHARD_WIDTH and (
        all(c in _HEX for c in name) or name == "_" * SHARD_WIDTH
    )


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and a
    rename, so a concurrent reader sees the old bytes or the new ones,
    never a torn file."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def default_cache_dir() -> Path:
    """``$SWGEMM_CACHE_DIR`` or ``~/.cache/swgemm``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "swgemm"


class ArtifactStore:
    """Directory of serialized :class:`CompiledProgram` artifacts."""

    def __init__(
        self, root: Path, injector: Optional[FaultInjector] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.disk_hits = 0
        self.disk_misses = 0
        self.writes = 0
        self.quarantined = 0
        #: optional fault plane corrupting freshly written artifacts
        #: (chaos testing of the quarantine/recompile path)
        self.injector = injector

    # -- artifact files ----------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / shard_for(key) / f"{key}{_SUFFIX}"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / _QUARANTINE_DIR

    def _artifact_paths(self) -> List[Path]:
        """Every artifact file, across all shards."""
        return sorted(
            p
            for shard in self.root.iterdir()
            if shard.is_dir() and _is_shard_dir(shard)
            for p in shard.glob(f"*{_SUFFIX}")
        )

    def get(self, key: str) -> Optional[CompiledProgram]:
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
            program = CompiledProgram.from_dict(data["program"])
        except FileNotFoundError:
            self.disk_misses += 1
            return None
        except Exception:
            # Corrupt, truncated or version-skewed artifact (a missing
            # field or admission report included): quarantine it for
            # diagnosis and report a miss so the caller recompiles.
            self._quarantine(path)
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        return program

    def put(self, key: str, program: CompiledProgram) -> Path:
        payload = {
            "key": key,
            "created": time.time(),
            "codegen_seconds": program.codegen_seconds,
            "variant": program.options.variant_name(),
            # Machine-readable arch tag (registry key) so cache stats can
            # attribute artifacts per-arch without decoding the program.
            "arch": program.arch.name.lower(),
            "program": program.to_dict(),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, json.dumps(payload))
        self.writes += 1
        if self.injector is not None:
            # The fault plane may truncate the artifact we just landed —
            # the next get() must treat it as a miss and quarantine it.
            self.injector.corrupt_artifact(path)
        return path

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt artifact aside (collision-safe) for diagnosis."""
        qdir = self.quarantine_dir
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            serial = 0
            while target.exists():
                serial += 1
                target = qdir / f"{path.stem}.{serial}{path.suffix}"
            os.replace(path, target)
        except OSError:
            # Quarantine is best-effort; never let it turn a cache miss
            # into a hard failure.  Fall back to deleting the artifact so
            # the corrupt bytes cannot be served again (also best-effort:
            # on a read-only store even the unlink is denied).
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        self.quarantined += 1
        self.bump_persistent_stats({"quarantined": 1})

    def keys(self) -> List[str]:
        return sorted(p.stem for p in self._artifact_paths())

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._artifact_paths())

    def shard_counts(self) -> Dict[str, int]:
        """Artifacts per (non-empty) shard directory."""
        counts: Dict[str, int] = {}
        for path in self._artifact_paths():
            shard = path.parent.name
            counts[shard] = counts.get(shard, 0) + 1
        return dict(sorted(counts.items()))

    def arch_counts(self) -> Dict[str, int]:
        """Artifacts per architecture (top-level ``arch`` tag).

        Every :meth:`put` writes the tag; a file the store cannot
        attribute — unreadable, or without the tag, which :meth:`get`
        quarantines — counts as ``(unreadable)``."""
        counts: Dict[str, int] = {}
        for path in self._artifact_paths():
            try:
                tag = json.loads(path.read_text()).get("arch")
            except (OSError, ValueError, AttributeError):
                tag = None
            name = str(tag).lower() if tag else "(unreadable)"
            counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def clear(self) -> int:
        """Remove every artifact and the persistent counters."""
        removed = 0
        for p in self._artifact_paths():
            p.unlink(missing_ok=True)
            removed += 1
        (self.root / _STATS_FILE).unlink(missing_ok=True)
        for shard in self.root.iterdir():
            if shard.is_dir() and _is_shard_dir(shard):
                try:
                    shard.rmdir()
                except OSError:
                    pass  # non-empty (racing writer) — keep it
        return removed

    # -- persistent counters ------------------------------------------------

    def load_persistent_stats(self) -> Dict[str, float]:
        try:
            data = json.loads((self.root / _STATS_FILE).read_text())
            return data if isinstance(data, dict) else {}
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def bump_persistent_stats(self, deltas: Dict[str, float]) -> Dict[str, float]:
        """Merge counter deltas into ``stats.json`` (load-modify-rename)."""
        totals = self.load_persistent_stats()
        for name, delta in deltas.items():
            if delta:
                totals[name] = totals.get(name, 0) + delta
        totals["updated"] = time.time()
        try:
            atomic_write(
                self.root / _STATS_FILE, json.dumps(totals, sort_keys=True)
            )
        except OSError:
            pass  # read-only store: counters stay session-local
        return totals

    def poison_keys(self) -> List[str]:
        """Cache keys the serving daemon's circuit breaker quarantined.

        The breaker (:mod:`repro.serve.isolation`) persists its state to
        ``<cache-dir>/poison-keys.json``; reading it here lets ``swgemm
        cache stats`` report poisoned kernels without a live daemon.
        Best-effort: a missing or damaged file reads as empty."""
        try:
            data = json.loads((self.root / _POISON_FILE).read_text())
        except (OSError, json.JSONDecodeError):
            return []
        keys = data.get("quarantined", []) if isinstance(data, dict) else []
        return sorted(str(k) for k in keys) if isinstance(keys, list) else []

    def stats(self) -> Dict[str, object]:
        qdir = self.quarantine_dir
        quarantine_files = (
            len(list(qdir.glob(f"*{_SUFFIX}"))) if qdir.is_dir() else 0
        )
        shards = self.shard_counts()
        return {
            "dir": str(self.root),
            "artifacts": len(self.keys()),
            "bytes": self.total_bytes(),
            "shards": len(shards),
            "per_shard": shards,
            "archs": self.arch_counts(),
            "hits": self.disk_hits,
            "misses": self.disk_misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "quarantine_files": quarantine_files,
            "poison_keys": self.poison_keys(),
        }
