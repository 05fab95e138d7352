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
from typing import Dict, List, Optional, Tuple

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
        #: artifact path -> (mtime ns, size, arch tag or None): the tag of
        #: each file version, so :meth:`stats` reads a file once per
        #: version; :meth:`put` records the tag it writes
        self._arch_tags: Dict[Path, Tuple[int, int, Optional[str]]] = {}

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
        stat = path.stat()
        self._arch_tags[path] = (stat.st_mtime_ns, stat.st_size, payload["arch"])
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

    def _arch_entry(
        self, path: Path, stat: os.stat_result
    ) -> Tuple[int, int, Optional[str]]:
        """``(mtime ns, size, arch tag or None)`` of one artifact file
        version; the file is read only if this version is new."""
        known = self._arch_tags.get(path)
        if known is not None and known[:2] == (stat.st_mtime_ns, stat.st_size):
            return known
        try:
            tag = json.loads(path.read_text()).get("arch")
        except (OSError, ValueError, AttributeError):
            tag = None
        return (stat.st_mtime_ns, stat.st_size, tag)

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
        """The store's report, from one walk of the shards.

        ``archs`` counts artifacts per architecture (the top-level
        ``arch`` tag every :meth:`put` writes); a file the store cannot
        attribute — unreadable, or without the tag, which :meth:`get`
        quarantines — counts as ``(unreadable)``.  A file that vanishes
        during the walk is not counted."""
        qdir = self.quarantine_dir
        quarantine_files = (
            len(list(qdir.glob(f"*{_SUFFIX}"))) if qdir.is_dir() else 0
        )
        shards: Dict[str, int] = {}
        archs: Dict[str, int] = {}
        total_bytes = 0
        tags: Dict[Path, Tuple[int, int, Optional[str]]] = {}
        for path in self._artifact_paths():
            try:
                stat = path.stat()
            except OSError:
                continue  # removed during the walk
            tags[path] = entry = self._arch_entry(path, stat)
            total_bytes += stat.st_size
            shards[path.parent.name] = shards.get(path.parent.name, 0) + 1
            arch = str(entry[2]).lower() if entry[2] else "(unreadable)"
            archs[arch] = archs.get(arch, 0) + 1
        self._arch_tags = tags  # forgets the files that are gone
        return {
            "dir": str(self.root),
            "artifacts": sum(shards.values()),
            "bytes": total_bytes,
            "shards": len(shards),
            "per_shard": dict(sorted(shards.items())),
            "archs": dict(sorted(archs.items())),
            "hits": self.disk_hits,
            "misses": self.disk_misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "quarantine_files": quarantine_files,
            "poison_keys": self.poison_keys(),
        }
