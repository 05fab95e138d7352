"""The benchmark's own tests: statistics, spans, the ledger, the
metric list, and determinism of everything that must repeat exactly.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from perfbench import layers, ledger
from perfbench.common import (
    NOMINAL_LOOP_S, ROOT, Failures, PassResult, Timing, Yardstick, tail,
)
from perfbench.tracing import Tracer

sys.path.insert(0, str(ROOT / "src"))


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 31))
    value, pct, beyond = tail(values)
    assert beyond == 10 and sum(v > value for v in values) == 10
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)


def test_yardstick_scales_host_time_to_nominal_speed():
    stick = Yardstick()
    assert stick.scale(NOMINAL_LOOP_S, NOMINAL_LOOP_S) == pytest.approx(1.0)
    assert stick.scale(NOMINAL_LOOP_S, 3 * NOMINAL_LOOP_S) == pytest.approx(0.5)
    with stick.timing() as timing:
        time.sleep(0.01)
    assert timing.host_ms >= 10 and timing.ms == timing.host_ms * timing.scale
    result = PassResult.of(2.0, {"a": Timing(100.0, 0.5), "b": Timing(300.0, 0.5)})
    assert result.latencies_ms == {"a": 50.0, "b": 150.0}
    assert result.scaled_seconds == pytest.approx(1.0)


def test_self_time_is_span_minus_children_and_ids_are_shared(tmp_path):
    tracer = Tracer()
    with tracer.span("op") as op:
        with tracer.span("child"):
            time.sleep(0.02)
        time.sleep(0.01)
    with tracer.span("other"):
        pass
    child = tracer.by_name("child")[0]
    own = tracer.self_ms()
    assert own[op.span_id] == pytest.approx(op.ms - child.ms)
    assert child.trace_id == op.trace_id == op.span_id
    assert tracer.by_name("other")[0].trace_id != op.trace_id

    path = tmp_path / "trace.json"
    tracer.export_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["ph"] for e in events} == {"X"}
    by_name = {e["name"]: e for e in events}
    assert by_name["child"]["args"]["parent_id"] == op.span_id


def test_wrap_records_nested_spans_and_restores():
    class Layer:
        def work(self, x):
            return x + 1

    tracer = Tracer()
    original = Layer.__dict__["work"]
    tracer.wrap(Layer, "work", "layer.work", post=lambda r: {"result": r})
    with tracer.span("op"):
        assert Layer().work(1) == 2
    tracer.restore()
    assert Layer.__dict__["work"] is original
    span = tracer.by_name("layer.work")[0]
    assert span.attrs["result"] == 2
    assert span.parent_id == tracer.by_name("op")[0].span_id


def test_snapshots_agree_with_each_other():
    points, conflicts = ledger.snapshot_points()
    assert not conflicts
    key = ("sw26010pro", "4096x4096x4096", "64x64x32-d2-s8:rma+hide")
    assert points[key] == pytest.approx(1848.92, abs=0.01)


def test_ledger_flags_a_disagreeing_point():
    key = ("sw26010pro", "4096x4096x4096", "64x64x32-d2-s8:rma+hide")
    compared, mismatches = ledger.check({key: 1848.0})
    assert compared == 1 and len(mismatches) == 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _, _ in layers.PER_LAYER
    ]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        layers.PER_LAYER_UNITS
    )
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "peak_rss_mb", "p50_ms", "tail_ms", "ops_per_s",
    ]


def test_serve_clients_send_the_same_ops_in_step_and_distinct_cold_keys():
    from perfbench.serve_mixed import (
        CLIENTS, HOT_KERNELS, PASS_MIX, client_requests,
    )

    sequences = client_requests(5)
    assert sequences == client_requests(5)
    assert [len(s) for s in sequences] == [sum(n for *_, n in PASS_MIX)] * CLIENTS
    assert [op for op, _ in sequences[0]] == [op for op, _ in sequences[1]]
    hot = [json.dumps({"arch": "toy", **k}, sort_keys=True) for k in HOT_KERNELS]
    kernels = [json.dumps(p, sort_keys=True) for s in sequences
               for op, p in s if op in ("compile", "verify")]
    cold = [k for k in kernels if k not in hot]
    assert len(cold) == len(set(cold)) == 4


# -- determinism -----------------------------------------------------------------


def test_a_drawn_key_emits_identical_source_in_two_services():
    from repro.service import CompileService

    from perfbench.compile_grid import CompileGrid, draw_keys

    workload = CompileGrid(0, Failures())
    point = draw_keys(0)[0]
    first = workload._compile(point, CompileService())[0]
    second = workload._compile(point, CompileService())[0]
    assert first.cpe_source() == second.cpe_source()
    assert first.mpe_source() == second.mpe_source()


def _traced_pass(workload):
    tracer = Tracer()
    layers.install(tracer)
    try:
        result = workload.run_pass(0)
    finally:
        tracer.restore()
    metrics = layers.from_spans(tracer, 1)
    metrics.update(workload.layer_counters([result]))
    return metrics


def test_compile_grid_sizes_repeat_exactly():
    from perfbench.compile_grid import CompileGrid

    def sizes():
        failures = Failures()
        workload = CompileGrid(3, failures)
        workload.keys = workload.keys[:6]
        metrics = _traced_pass(workload)
        assert failures.failed == 0, failures.messages
        return {k: metrics[k] for k in ("codegen.source_bytes",
                                        "service.artifact_bytes")}

    assert sizes() == sizes()


def test_paper_sweep_sim_metrics_repeat_exactly():
    from perfbench.paper_sweep import PaperSweep

    keys = ("sim.paper_gflops_geomean", "sim.ragged_gflops_geomean",
            "sunway.dma_messages", "sunway.rma_messages",
            "sunway.kernel_calls", "runtime.simulator.bubble_mean")

    def sim():
        failures = Failures()
        workload = PaperSweep(0, failures)
        workload.warm_up()
        metrics = _traced_pass(workload)
        workload.finish()
        assert failures.failed == 0, failures.messages
        return {k: metrics[k] for k in keys}

    first = sim()
    assert first == sim()
    assert all(first[k] > 0 for k in keys)
