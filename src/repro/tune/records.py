"""Tuning records: persisted winners of the search.

A :class:`TuningRecord` binds a *class* of problems — not one exact
shape — to the configuration that won the search for it:

* the **spec class** strips naming from the :class:`GemmSpec` (parameter
  and array names cannot change the generated code) and keeps what does:
  batchedness, transposes, dtype, fusion functions;
* the **shape class** buckets each dimension to its nearest power of two
  (integer arithmetic: round up when ``d ≥ 1.5·2^p``), so 1000×4096×512
  and 1100×4000×500 share one record — matching the granularity at
  which the padding-waste tradeoff actually changes;
* the **search-space version** (:data:`repro.tune.space.SEARCH_SPACE_VERSION`)
  invalidates records when the candidate grid changes shape.

Records live in a :class:`TuningRecordStore` next to the compiled-kernel
artifacts (``<cache-dir>/tuning/``), written atomically like the
artifact store, with an in-memory fallback for cache-less services.  The
store also keeps per-record *journals* — partial measurement maps the
search driver appends to after every simulation — so an interrupted
``swgemm tune`` resumes instead of re-measuring.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.options import CompilerOptions
from repro.core.spec import GemmSpec
from repro.runtime import serde
from repro.service.store import atomic_write
from repro.sunway.arch import ArchSpec
from repro.tune.space import SEARCH_SPACE_VERSION, Candidate

_SUFFIX = ".json"
_JOURNAL_SUFFIX = ".journal.json"


def shape_bucket(d: int) -> int:
    """Nearest power of two, integer math (up from ``1.5·2^p``)."""
    if d <= 1:
        return 1
    p = d.bit_length() - 1  # 2^p <= d < 2^(p+1)
    return 1 << (p + 1) if 2 * d >= 3 * (1 << p) else 1 << p


def shape_class(
    M: int, N: int, K: int, batch: int = 1
) -> Tuple[int, int, int, int]:
    return (shape_bucket(M), shape_bucket(N), shape_bucket(K), shape_bucket(batch))


def spec_class(spec: GemmSpec) -> Dict[str, object]:
    """Spec identity minus naming — what can change the generated code."""
    return {
        "batched": spec.is_batched,
        "trans_a": spec.trans_a,
        "trans_b": spec.trans_b,
        "dtype": spec.dtype,
        "prologue": spec.prologue_func,
        "epilogue": spec.epilogue_func,
    }


def record_key(
    spec: GemmSpec, arch: ArchSpec, shape_cls: Tuple[int, int, int, int]
) -> str:
    """Content address of one tuning record."""
    from repro.service.keys import canonical_blob

    payload = {
        "space": SEARCH_SPACE_VERSION,
        "spec_class": spec_class(spec),
        "arch": canonical_blob(arch),
        "shape_class": list(shape_cls),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TuningRecord:
    """The winner of one search, addressed by ``key``."""

    key: str
    shape_class: Tuple[int, int, int, int]
    arch_name: str
    space_version: int
    candidate: Candidate
    best_gflops: float
    default_gflops: float
    measurements: int
    seed: int

    @property
    def improvement(self) -> float:
        """Fractional win over the default config (0.08 = 8% faster)."""
        if self.default_gflops <= 0:
            return 0.0
        return self.best_gflops / self.default_gflops - 1.0

    def apply(self, options: CompilerOptions) -> CompilerOptions:
        """Steer a request's options to the recorded configuration."""
        return self.candidate.apply(options)

    def describe(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "shape_class": "x".join(str(d) for d in self.shape_class[:3])
            + (f" b{self.shape_class[3]}" if self.shape_class[3] > 1 else ""),
            "config": self.candidate.name(),
            "best_gflops": round(self.best_gflops, 2),
            "default_gflops": round(self.default_gflops, 2),
            "improvement_pct": round(100 * self.improvement, 2),
            "measurements": self.measurements,
            "seed": self.seed,
            "space_version": self.space_version,
            "arch": self.arch_name,
        }


class TuningRecordStore:
    """Directory of tuning records (+ journals), or in-memory fallback.

    Mirrors the artifact store's discipline: one JSON file per key,
    atomic temp-file/rename writes, corrupt files treated as misses.
    ``root=None`` keeps everything in process memory (the memory-only
    default service still tunes; the records just die with it).
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError:
                # Read-only cache dir: serve existing records if the
                # directory is already there, else degrade to memory-only
                # (inspection commands must work against legacy stores).
                if not self.root.is_dir():
                    self.root = None
        self._memory: Dict[str, TuningRecord] = {}
        self._journals: Dict[str, Dict[str, float]] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # -- records -----------------------------------------------------------

    def path_for(self, key: str) -> Optional[Path]:
        return None if self.root is None else self.root / f"{key}{_SUFFIX}"

    def get(self, key: str) -> Optional[TuningRecord]:
        record = self._memory.get(key)
        if record is None and self.root is not None:
            try:
                data = json.loads(self.path_for(key).read_text())
                record = serde.decode(data["record"])
                self._memory[key] = record
            except (FileNotFoundError, json.JSONDecodeError, KeyError,
                    serde.SerializationError):
                record = None
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, record: TuningRecord) -> None:
        self._memory[record.key] = record
        self.writes += 1
        if self.root is None:
            return
        payload = {"key": record.key, "record": serde.encode(record)}
        atomic_write(
            self.path_for(record.key), json.dumps(payload, sort_keys=True)
        )

    def keys(self) -> List[str]:
        keys = set(self._memory)
        if self.root is not None:
            keys.update(
                p.name[: -len(_SUFFIX)]
                for p in self.root.glob(f"*{_SUFFIX}")
                if not p.name.endswith(_JOURNAL_SUFFIX)
            )
        return sorted(keys)

    def records(self) -> List[TuningRecord]:
        return [r for r in (self.get(k) for k in self.keys()) if r is not None]

    def clear(self) -> int:
        removed = len(self.keys())
        self._memory.clear()
        self._journals.clear()
        if self.root is not None:
            for p in self.root.glob("*.json"):
                p.unlink(missing_ok=True)
        return removed

    # -- journals (search resumability) ------------------------------------

    def journal_load(self, key: str) -> Dict[str, float]:
        """Candidate-name → measured Gflops map of an earlier (possibly
        interrupted) search for this key."""
        if self.root is None:
            return dict(self._journals.get(key, {}))
        try:
            data = json.loads(
                (self.root / f"{key}{_JOURNAL_SUFFIX}").read_text()
            )
            return {str(k): float(v) for k, v in data.items()}
        except (FileNotFoundError, json.JSONDecodeError, ValueError):
            return {}

    def journal_save(self, key: str, measurements: Dict[str, float]) -> None:
        self._journals[key] = dict(measurements)
        if self.root is None:
            return
        atomic_write(
            self.root / f"{key}{_JOURNAL_SUFFIX}",
            json.dumps(measurements, sort_keys=True),
        )

    def journal_clear(self, key: str) -> None:
        self._journals.pop(key, None)
        if self.root is not None:
            (self.root / f"{key}{_JOURNAL_SUFFIX}").unlink(missing_ok=True)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "dir": str(self.root) if self.root is not None else None,
            "records": len(self.keys()),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }


# Candidate and TuningRecord round-trip through the tagged serde format
# like every other compiler dataclass (TileConfig registers with the
# core dataclasses in repro.runtime.serde, which also holds the legacy
# candidate upgrade).
serde.register_dataclass(Candidate, upgrade=serde.upgrade_candidate)
serde.register_dataclass(TuningRecord)
