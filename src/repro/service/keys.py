"""Content-addressed cache keys.

A compiled kernel is fully determined by the ``(spec, arch, options)``
triple *and the pass pipeline that compiles it* — the generated code is
*parametric* in M/N/K (§8.5), so shapes do not enter the key.  The key
is the SHA-256 of the canonical JSON encoding of that triple plus the
pipeline identity and a schema version, which makes it stable across
processes and hosts: two workers asked for the same kernel derive the
same key and can share one artifact store.

Two normalisation steps keep the key honest:

* options are **reconciled** against the spec first
  (:func:`repro.core.passes.reconcile_options`) — the reconciled set is
  what the compiler actually compiles with, so requests that can only
  produce the same kernel (e.g. a fused spec with and without the
  explicit fusion option) share one key, while fused and unfused specs
  can never collide.  :func:`cache_key` reconciles by itself, so callers
  pass a request's options as given
  (:meth:`~repro.service.CompileService.reconciled_key` is this function
  with the service's defaults);
* the **pipeline identity** (:func:`repro.core.passes.pipeline_identity`)
  enters the payload, so editing the pass pipeline — replacing,
  reordering or adding passes — invalidates exactly the artifacts it
  must.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence, Union

from repro.core.options import CompilerOptions
from repro.core.passes import (
    Pass,
    build_pipeline,
    pipeline_identity,
    reconcile_options,
)
from repro.core.spec import GemmSpec
from repro.runtime import serde
from repro.sunway.arch import SW26010PRO, ArchSpec

#: Bumped when the key derivation or compiler output shape changes in a
#: way that must invalidate existing artifacts.  2: reconciled options +
#: pipeline identity entered the payload.  3: ``tile_config`` joined
#: ``CompilerOptions`` (autotuner) — pre-tile artifacts were compiled
#: before the kernel shape became request-addressable, so they are
#: invalidated wholesale rather than guessed at.  4: the multi-arch
#: backend refactor — ``kernel_backend`` joined ``CompilerOptions`` and
#: ``ArchSpec`` grew register-file fields (``simd_doubles``,
#: ``vector_registers``), so the canonical arch/options blobs changed
#: encoding.  5: the schedule IR — ``SchedulePolicy`` joined
#: ``CompilerOptions`` (its canonical pass tuple and the per-rewrite
#: ``schedule:<name>`` pipeline passes address rewritten timelines
#: separately from the fixed recipe).  6: ``schedule`` became the only
#: latency-hiding knob — ``enable_latency_hiding`` and
#: ``TileConfig.buffer_depth`` left the options blob, and the policy is
#: never ``None``.  7: the policy became a mode alone — its
#: ``allow``/``deny`` rewrite filters left the options blob, and
#: ``optimize`` always runs the whole rewrite stack.  8: ``kernel_backend``
#: became the one kernel field (``naive``/``vendor``/``parametric``, never
#: ``None``) — ``use_asm`` and ``TileConfig.k_strip`` left the options
#: blob.  9: the terminal verify pass became unconditional — ``verify``
#: left the options blob, and every artifact carries its passing report.
CACHE_SCHEMA_VERSION = 9


def canonical_blob(obj: object) -> str:
    """Deterministic JSON text of any serde-encodable object."""
    return json.dumps(
        serde.encode(obj), sort_keys=True, separators=(",", ":")
    )


def cache_key(
    spec: GemmSpec,
    arch: Optional[ArchSpec] = None,
    options: Optional[CompilerOptions] = None,
    pipeline: Union[str, Sequence[Pass], None] = None,
) -> str:
    """Stable hex digest addressing one compiled kernel.

    ``pipeline`` overrides the pipeline component of the key: pass the
    pass list (or its precomputed identity string) of a customised
    compiler; by default the variant-aware default pipeline for the
    reconciled request is hashed.
    """
    arch = arch or SW26010PRO
    options = options or CompilerOptions()
    if options.fault_policy is not None or options.retry_policy is not None:
        # Fault injection and retry behaviour are runtime-only concerns:
        # the generated code is identical, so they must not fragment the
        # artifact store.  The service re-stamps the requested policies
        # onto cached programs (see CompileService._get).
        options = options.with_(fault_policy=None, retry_policy=None)
    # Arch-aware reconciliation also collapses a tile config restating
    # the arch's analytical default to ``tile_config=None``, so tuned
    # requests that land on the default share the default's artifact.
    options = reconcile_options(spec, options, arch)
    if pipeline is None:
        pipeline_id = pipeline_identity(build_pipeline(spec, arch, options))
    elif isinstance(pipeline, str):
        pipeline_id = pipeline
    else:
        pipeline_id = pipeline_identity(pipeline)
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "serde": serde.SERDE_VERSION,
        "spec": canonical_blob(spec),
        "arch": canonical_blob(arch),
        "options": canonical_blob(options),
        "pipeline": pipeline_id,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
