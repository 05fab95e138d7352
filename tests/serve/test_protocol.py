"""Wire-protocol tests: round-trips, malformed frames, size limits.

The NDJSON protocol is the daemon's entire public surface, so the
round-trip property — ``decode(encode(x)) == x`` for every well-formed
request/response — is tested generatively, and every class of garbage a
peer can send (bad UTF-8, bad JSON, non-object frames, unknown ops,
oversized frames, wrong field types) must map to a structured
:class:`~repro.errors.ProtocolError`, never a stray exception.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import TileConfig
from repro.errors import ProtocolError
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    Request,
    Response,
    arch_from_name,
    decode_frame,
    encode_frame,
    spec_and_options,
    shape_hint,
)
from repro.serve.queue import PRIORITIES

# JSON-representable params values (strings keep to a modest alphabet so
# frames stay far below the size limit; the limit has its own tests).
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=40),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)
params_objects = st.dictionaries(st.text(min_size=1, max_size=16),
                                 json_values, max_size=6)
request_ids = st.one_of(st.integers(), st.text(min_size=1, max_size=32))
tenants = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=64,
)


# -- frame codec -------------------------------------------------------------


@given(params_objects)
def test_frame_round_trip(payload):
    assert decode_frame(encode_frame(payload)) == payload


def test_frame_is_one_line():
    data = encode_frame({"a": "multi\nline\nstring"})
    assert data.endswith(b"\n")
    assert data.count(b"\n") == 1  # embedded newlines are escaped


@pytest.mark.parametrize(
    "line",
    [
        b"\xff\xfe not utf8\n",
        b"{not json}\n",
        b"[1, 2, 3]\n",
        b'"just a string"\n',
        b"42\n",
        b"null\n",
    ],
)
def test_malformed_frames_raise_protocol_error(line):
    with pytest.raises(ProtocolError):
        decode_frame(line)


def test_oversized_frame_rejected_both_directions():
    huge = {"blob": "x" * MAX_FRAME_BYTES}
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(huge)
    raw = json.dumps(huge).encode() + b"\n"
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_frame(raw)


def test_non_serialisable_payload_rejected():
    with pytest.raises(ProtocolError, match="serialisable"):
        encode_frame({"fn": object()})


# -- request round-trip ------------------------------------------------------


@settings(max_examples=60)
@given(
    rid=request_ids,
    op=st.sampled_from(OPS),
    tenant=tenants,
    priority=st.sampled_from(PRIORITIES),
    params=params_objects,
)
def test_request_round_trip(rid, op, tenant, priority, params):
    request = Request(
        id=rid, op=op, tenant=tenant, priority=priority, params=params
    )
    decoded = Request.decode(request.encode())
    assert decoded == request


@pytest.mark.parametrize(
    "payload",
    [
        {},  # no op
        {"op": "transmogrify"},  # unknown op
        {"op": "ping", "id": [1, 2]},  # bad id type
        {"op": "ping", "tenant": ""},  # empty tenant
        {"op": "ping", "tenant": "x" * 65},  # tenant too long
        {"op": "ping", "tenant": 7},  # bad tenant type
        {"op": "ping", "priority": "urgent"},  # unknown priority class
        {"op": "ping", "params": [1]},  # params not an object
    ],
)
def test_invalid_requests_raise_protocol_error(payload):
    with pytest.raises(ProtocolError):
        Request.from_dict(payload)


# -- response round-trip -----------------------------------------------------


@settings(max_examples=60)
@given(
    rid=st.one_of(st.none(), request_ids),
    ok=st.booleans(),
    result=st.one_of(st.none(), params_objects),
    meta=params_objects,
)
def test_response_round_trip(rid, ok, result, meta):
    response = Response(id=rid, ok=ok, result=result, meta=meta)
    assert Response.decode(response.encode()) == response


def test_response_failure_captures_exception_type():
    response = Response.failure("r1", ProtocolError("boom"))
    assert not response.ok
    assert response.error == {"type": "ProtocolError", "message": "boom"}


@pytest.mark.parametrize(
    "payload",
    [
        {},  # no ok
        {"ok": "yes"},  # non-bool ok
        {"ok": True, "error": "oops"},  # non-object error
        {"ok": True, "meta": 3},  # non-object meta
    ],
)
def test_invalid_responses_raise_protocol_error(payload):
    with pytest.raises(ProtocolError):
        Response.from_dict(payload)


# -- kernel descriptor codec -------------------------------------------------


def test_spec_and_options_default_descriptor():
    spec, options, arch = spec_and_options({"arch": "toy"})
    assert arch.name == "toy"
    assert not spec.is_batched
    assert options.use_asm


def test_spec_and_options_unknown_arch():
    with pytest.raises(ProtocolError, match="unknown arch"):
        spec_and_options({"arch": "riscv"})
    with pytest.raises(ProtocolError):
        arch_from_name("riscv")


def test_spec_and_options_rejects_unknown_option():
    with pytest.raises(ProtocolError, match="unknown param key"):
        spec_and_options({"arch": "toy", "turbo": True})


def test_spec_and_options_refuses_the_verify_switch():
    """The admission gate cannot be switched off over the wire either:
    ``verify`` is an unknown key like any other."""
    for value in (False, True):
        with pytest.raises(ProtocolError, match="unknown param key"):
            spec_and_options({"arch": "toy", "verify": value})


def test_spec_and_options_fusion_and_batch():
    spec, options, _ = spec_and_options(
        {"arch": "toy", "fusion": "epilogue", "epilogue_func": "sigmoid"}
    )
    assert spec.epilogue_func == "sigmoid"
    assert options.fusion == "epilogue"
    spec, options, _ = spec_and_options({"arch": "toy", "batch": True})
    assert spec.is_batched
    assert options.batch


def test_spec_and_options_registry_archs_resolve():
    """The wire resolves every registered arch, case-insensitively —
    including the PR-8 hypothetical variants."""
    for name in ("sw26010pro", "SW26010Pro-HBM", "sw26010pro-lite"):
        _, _, arch = spec_and_options({"arch": name})
        assert arch.name.lower() == name.lower()


def test_spec_and_options_tile_composes_with_backend():
    """``tile`` carries mt/nt/kt and composes with ``kernel_backend``;
    a ``k_strip`` pin is refused."""
    _, options, _ = spec_and_options(
        {"arch": "toy", "tile": {"mt": 8, "nt": 8, "kt": 4},
         "kernel_backend": "parametric"}
    )
    assert options.kernel_backend == "parametric"
    assert options.tile_config == TileConfig(8, 8, 4)
    with pytest.raises(ProtocolError, match="invalid tile config"):
        spec_and_options(
            {"arch": "toy", "tile": {"mt": 8, "nt": 8, "kt": 4, "k_strip": 2}}
        )


def test_spec_and_options_micro_kernel_shorthand():
    """The ``micro_kernel: "MTxNTxKT"`` shorthand restated ``tile``: a
    well-formed one is refused like any other unknown key, and the same
    shape is spelt through ``tile``."""
    with pytest.raises(ProtocolError, match="unknown param key"):
        spec_and_options({"arch": "toy", "micro_kernel": "8x8x4"})
    _, options, _ = spec_and_options(
        {"arch": "toy", "tile": {"mt": 8, "nt": 8, "kt": 4}}
    )
    assert (options.tile_config.mt, options.tile_config.nt,
            options.tile_config.kt) == (8, 8, 4)


def test_spec_and_options_micro_kernel_rejects_garbage():
    with pytest.raises(ProtocolError, match="unknown param key"):
        spec_and_options({"arch": "toy", "micro_kernel": "8by8by4"})


def test_spec_and_options_use_asm_alias():
    """The wire's ``use_asm`` is an input alias: false selects the naive
    kernel whatever backend the request names; true keeps the backend."""
    for params in ({}, {"kernel_backend": "parametric"}):
        _, options, _ = spec_and_options(
            {"arch": "toy", "use_asm": False, **params}
        )
        assert options.kernel_backend == "naive"
    _, options, _ = spec_and_options(
        {"arch": "toy", "use_asm": True, "kernel_backend": "parametric"}
    )
    assert options.kernel_backend == "parametric"


def test_spec_and_options_unknown_kernel_backend_is_protocol_error():
    with pytest.raises(ProtocolError, match="kernel backend"):
        spec_and_options({"arch": "toy", "kernel_backend": "bogus"})


def test_spec_and_options_fault_shorthand():
    _, options, _ = spec_and_options(
        {"arch": "toy", "fault": {"seed": 2022, "rate": 0.05, "max_retries": 5}}
    )
    assert options.fault_policy is not None
    assert options.fault_policy.seed == 2022
    assert options.retry_policy.max_retries == 5


def test_spec_and_options_full_policy_round_trip():
    from repro.faults import FaultPolicy, RetryPolicy

    policy = FaultPolicy.chaos(seed=9, rate=0.1)
    retry = RetryPolicy(max_retries=7)
    _, options, _ = spec_and_options(
        {
            "arch": "toy",
            "fault_policy": policy.to_dict(),
            "retry_policy": retry.to_dict(),
        }
    )
    assert options.fault_policy == policy
    assert options.retry_policy == retry


def test_shape_hint_parsing():
    assert shape_hint({}) is None
    assert shape_hint({"M": 1, "N": 2}) is None
    assert shape_hint({"M": 64, "N": 32, "K": 16}) == (64, 32, 16)
    assert shape_hint(
        {"M": 64, "N": 32, "K": 16, "batch_count": 8}
    ) == (64, 32, 16, 8)
    with pytest.raises(ProtocolError):
        shape_hint({"M": "wide", "N": 32, "K": 16})
