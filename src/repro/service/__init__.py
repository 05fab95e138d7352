"""Kernel compilation service.

Content-addressed caching and single-flight batched compilation for the
GEMM kernel generator — the substrate that makes the compiler cheap to
call from serving paths (see ROADMAP.md).  Three layers:

* :mod:`repro.service.keys` — stable cache keys over
  ``(GemmSpec, ArchSpec, CompilerOptions)``;
* :mod:`repro.service.cache` / :mod:`repro.service.store` — the
  in-process LRU hot tier and the on-disk artifact store;
* :mod:`repro.service.service` — :class:`CompileService`, which
  deduplicates concurrent requests and precompiles shape sets.
"""

from repro.service.cache import LRUCache
from repro.service.keys import CACHE_SCHEMA_VERSION, cache_key, canonical_blob
from repro.service.service import (
    CompileService,
    ServiceConfig,
    get_default_service,
    set_default_service,
    standard_requests,
)
from repro.service.store import ArtifactStore, CACHE_DIR_ENV, default_cache_dir

__all__ = [
    "ArtifactStore",
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "CompileService",
    "LRUCache",
    "ServiceConfig",
    "cache_key",
    "canonical_blob",
    "default_cache_dir",
    "get_default_service",
    "set_default_service",
    "standard_requests",
]
