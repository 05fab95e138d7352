"""The newline-delimited-JSON serving protocol.

One frame per line, one JSON object per frame.  Requests carry an
``id`` the caller chooses (echoed verbatim on the response, so a client
may pipeline), an ``op``, a ``tenant``, a ``priority`` class and an
op-specific ``params`` object; responses carry ``ok`` plus either a
``result`` or a structured ``error`` (exception type + message), and a
``meta`` object with serving telemetry (priority, queue/execution
times, cache source).

The module also owns the wire codecs for kernel descriptors: a flat
``params`` dict → ``(GemmSpec, CompilerOptions, ArchSpec)``.  The same
codec runs in the daemon's workers and in the load generator, so a
seeded trace can compute the content-addressed cache key of every
request it is about to send — that is how the benchmark proves
single-flight dedup (compiles executed < unique keys requested).

Framing limits: a frame longer than :data:`MAX_FRAME_BYTES` is a
protocol error — the daemon answers with a structured error and drops
the connection (an NDJSON stream cannot resynchronise after an
oversized line).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.serve.queue import DEFAULT_PRIORITY, check_priority

#: Hard ceiling on one frame (request or response), newline included.
MAX_FRAME_BYTES = 1 << 20

#: Bumped on incompatible protocol changes; echoed by ``ping``.
PROTOCOL_VERSION = 1

#: Every operation the daemon understands.
OPS = (
    "ping",
    "stats",
    "health",
    "compile",
    "run",
    "tune",
    "verify",
    "warmup",
    "shutdown",
)

_MAX_TENANT_LEN = 64


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One JSON object → one ``\\n``-terminated wire frame."""
    try:
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"payload is not JSON-serialisable: {exc}") from exc
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return data


def decode_frame(line: bytes) -> Dict[str, Any]:
    """One wire line → one JSON object, loudly rejecting garbage."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ---------------------------------------------------------------------------
# Requests and responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One client → daemon frame.

    ``deadline_ms`` is the caller's *relative* end-to-end budget: the
    daemon anchors it at receipt time (client and server clocks are
    never compared), sheds the request if the budget dies while it is
    queued, and hands the remaining budget to the worker as its compile
    deadline.  ``None`` (the default, and the only value old clients
    can send) means unbounded — the wire encoding omits the key
    entirely, so deadline-less traffic is byte-identical to the
    pre-deadline protocol."""

    id: object
    op: str
    tenant: str = "default"
    priority: str = DEFAULT_PRIORITY
    params: Dict[str, Any] = field(default_factory=dict)
    deadline_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "op": self.op,
            "tenant": self.tenant,
            "priority": self.priority,
            "params": self.params,
        }
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload

    def encode(self) -> bytes:
        return encode_frame(self.to_dict())

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Request":
        if "op" not in payload:
            raise ProtocolError("request frame is missing 'op'")
        op = payload["op"]
        if op not in OPS:
            raise ProtocolError(
                f"unknown op {op!r}; expected one of {OPS}"
            )
        rid = payload.get("id")
        if rid is not None and not isinstance(rid, (int, str)):
            raise ProtocolError(
                f"request id must be an int or string, got {type(rid).__name__}"
            )
        tenant = payload.get("tenant", "default")
        if (
            not isinstance(tenant, str)
            or not tenant
            or len(tenant) > _MAX_TENANT_LEN
        ):
            raise ProtocolError(
                "tenant must be a non-empty string of at most "
                f"{_MAX_TENANT_LEN} characters"
            )
        priority = payload.get("priority", DEFAULT_PRIORITY)
        try:
            check_priority(priority if isinstance(priority, str) else repr(priority))
        except ConfigurationError as exc:
            raise ProtocolError(str(exc)) from exc
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError(
                f"params must be a JSON object, got {type(params).__name__}"
            )
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or not deadline_ms > 0
                or deadline_ms != deadline_ms  # NaN
                or deadline_ms == float("inf")
            ):
                raise ProtocolError(
                    "deadline_ms must be a positive finite number, got "
                    f"{deadline_ms!r}"
                )
            deadline_ms = float(deadline_ms)
        return Request(
            id=rid,
            op=op,
            tenant=tenant,
            priority=priority,
            params=params,
            deadline_ms=deadline_ms,
        )

    @staticmethod
    def decode(line: bytes) -> "Request":
        return Request.from_dict(decode_frame(line))


@dataclass(frozen=True)
class Response:
    """One daemon → client frame."""

    id: object
    ok: bool
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "ok": self.ok,
            "result": self.result,
            "error": self.error,
            "meta": self.meta,
        }

    def encode(self) -> bytes:
        return encode_frame(self.to_dict())

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Response":
        if "ok" not in payload or not isinstance(payload["ok"], bool):
            raise ProtocolError("response frame is missing a boolean 'ok'")
        error = payload.get("error")
        if error is not None and not isinstance(error, dict):
            raise ProtocolError("response error must be a JSON object")
        meta = payload.get("meta") or {}
        if not isinstance(meta, dict):
            raise ProtocolError("response meta must be a JSON object")
        return Response(
            id=payload.get("id"),
            ok=payload["ok"],
            result=payload.get("result"),
            error=error,
            meta=meta,
        )

    @staticmethod
    def decode(line: bytes) -> "Response":
        return Response.from_dict(decode_frame(line))

    @staticmethod
    def failure(
        rid: object, exc: BaseException, meta: Optional[Dict[str, Any]] = None
    ) -> "Response":
        error: Dict[str, Any] = {
            "type": type(exc).__name__, "message": str(exc)
        }
        # Overload rejections carry a structured back-off hint so the
        # client can honor the server's drain-rate estimate instead of
        # guessing; only the new error types have the attribute, so
        # legacy error frames are byte-identical.
        retry_after = getattr(exc, "retry_after_s", None)
        if isinstance(retry_after, (int, float)):
            error["retry_after_s"] = round(float(retry_after), 3)
        return Response(
            id=rid,
            ok=False,
            error=error,
            meta=meta or {},
        )


# ---------------------------------------------------------------------------
# Kernel descriptors on the wire
# ---------------------------------------------------------------------------

#: params keys that map straight onto CompilerOptions fields.
_OPTION_KEYS = (
    "batch",
    "enable_rma",
    "fusion",
    "prologue_func",
    "epilogue_func",
    "kernel_backend",
    # the latency-hiding schedule policy, a mode string ("recipe"/
    # "optimize"/"off"); parsed by SchedulePolicy.parse when the options
    # are built, so bad values (objects included) surface as structured
    # ProtocolErrors like every other knob.
    "schedule",
)


def arch_from_name(name: str):
    """Resolve a wire architecture name via the arch registry."""
    from repro.errors import ConfigurationError
    from repro.sunway import arch_names, get_arch

    try:
        return get_arch(str(name))
    except ConfigurationError:
        raise ProtocolError(
            f"unknown arch {name!r}; expected one of {arch_names()}"
        ) from None


#: Every params key the kernel ops understand; anything else is a typo
#: the daemon must reject, not silently ignore.
KNOWN_PARAM_KEYS = frozenset(_OPTION_KEYS) | {
    "arch", "tile", "use_asm", "fault", "fault_policy", "retry_policy",
    "dtype", "trans_a", "trans_b",
    "M", "N", "K", "seed", "alpha", "batch_count",
    "timeout", "guarded", "budget", "drain",
}


def spec_and_options(params: Dict[str, Any]):
    """Kernel params → ``(GemmSpec, CompilerOptions, ArchSpec)``.

    The option path reuses :func:`repro.api._coerce_options`, so the
    wire surface inherits the facade's semantics exactly (unknown knobs
    rejected, ``schedule="optimize"`` on the naive kernel refused).  The
    wire keeps ``use_asm`` as an input alias of the kernel choice: a
    false ``use_asm`` selects ``kernel_backend="naive"``, whatever
    backend the request names.  ``tile`` takes ``mt``/``nt``/``kt``.  Fault
    injection rides along per request: either the ``fault`` shorthand
    ``{"seed", "rate", "max_retries"}`` (the documented chaos profile)
    or a full ``fault_policy`` / ``retry_policy`` object as produced by
    :meth:`repro.faults.FaultPolicy.to_dict`.
    """
    from repro.api import _coerce_options
    from repro.core.options import TileConfig
    from repro.core.spec import GemmSpec
    from repro.faults import FaultPolicy, RetryPolicy

    unknown = set(params) - KNOWN_PARAM_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown param key(s) {sorted(unknown)}; valid keys are "
            f"{sorted(KNOWN_PARAM_KEYS)}"
        )
    arch = arch_from_name(params.get("arch", "sw26010pro"))
    overrides: Dict[str, Any] = {
        key: params[key] for key in _OPTION_KEYS if key in params
    }
    if "use_asm" in params and not params["use_asm"]:
        overrides["kernel_backend"] = "naive"
    tile = params.get("tile")
    if tile is not None:
        if not isinstance(tile, dict):
            raise ProtocolError("tile must be a JSON object (mt/nt/kt)")
        try:
            overrides["tile_config"] = TileConfig(**tile)
        except (TypeError, ConfigurationError) as exc:
            raise ProtocolError(f"invalid tile config: {exc}") from exc
    fault = params.get("fault")
    if fault is not None:
        if not isinstance(fault, dict):
            raise ProtocolError("fault must be a JSON object (seed/rate/...)")
        overrides["fault_policy"] = FaultPolicy.chaos(
            seed=int(fault.get("seed", 0)), rate=float(fault.get("rate", 0.05))
        )
        overrides["retry_policy"] = RetryPolicy(
            max_retries=int(fault.get("max_retries", 3))
        )
    if "fault_policy" in params:
        overrides["fault_policy"] = FaultPolicy.from_dict(params["fault_policy"])
    if "retry_policy" in params:
        overrides["retry_policy"] = RetryPolicy.from_dict(params["retry_policy"])
    try:
        options = _coerce_options(None, overrides)
    except ConfigurationError as exc:
        raise ProtocolError(str(exc)) from exc
    fusion = options.fusion
    try:
        spec = GemmSpec(
            batch_param="BS" if options.batch else None,
            prologue_func=options.prologue_func if fusion == "prologue" else None,
            epilogue_func=options.epilogue_func if fusion == "epilogue" else None,
            dtype=params.get("dtype", "float64"),
            trans_a=bool(params.get("trans_a", False)),
            trans_b=bool(params.get("trans_b", False)),
        )
    except ConfigurationError as exc:
        raise ProtocolError(str(exc)) from exc
    return spec, options, arch


def shape_hint(params: Dict[str, Any]) -> Optional[Tuple[int, ...]]:
    """``(M, N, K[, batch])`` from kernel params, when all dims are given."""
    if not all(dim in params for dim in ("M", "N", "K")):
        return None
    dims = [params["M"], params["N"], params["K"]]
    if params.get("batch_count"):
        dims.append(params["batch_count"])
    try:
        return tuple(int(d) for d in dims)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"non-integer shape dimension: {exc}") from exc
