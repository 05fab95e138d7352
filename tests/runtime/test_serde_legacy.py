"""Payloads written before the current cache schema still decode.

Schema 6 made ``CompilerOptions.schedule`` the only latency-hiding knob:
``enable_latency_hiding`` and ``TileConfig.buffer_depth`` are gone, and
the policy is never ``None``.  Schema 7 made the policy a mode alone:
its ``allow``/``deny`` rewrite filters are gone, and ``optimize`` runs
the whole rewrite stack.  Schema 8 made ``kernel_backend`` the one
kernel field: ``use_asm`` is gone, the backend is never ``None``, and
``TileConfig.k_strip`` is gone (a tuning candidate keeps it as a name
label).

The fixtures under ``tests/golden/legacy/`` were written by the code of
their schema: encoded option sets, and one schema-5 tuning record as
``swgemm tune`` persisted it (toy arch, 48×80×32, seed 0, budget 6).
They must decode onto the one field of each decision and — for the
record — still steer compiles.  A legacy ``optimize`` policy whose filters named any other
pipeline than the current stack must refuse to decode.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro import api
from repro.core import CompilerOptions, GemmSpec
from repro.core.options import SchedulePolicy, TileConfig
from repro.core.passes import reconcile_options
from repro.runtime import serde
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import SW26010PRO, TOY_ARCH
from repro.tune.records import TuningRecordStore

LEGACY = Path(__file__).resolve().parents[1] / "golden" / "legacy"
RECORD = LEGACY / "tuning_record_schema5.json"

full = CompilerOptions.full()
EXPECTED = {
    "full": full,
    "baseline": CompilerOptions.baseline(),
    "with_asm": CompilerOptions.with_asm(),
    "with_rma": CompilerOptions.with_rma(),
    "optimize": full.with_(schedule=SchedulePolicy("optimize")),
    "off_policy": full.with_(schedule="off"),
    "pinned_depth": full.with_(
        tile_config=TileConfig(32, 32, 16),
        kernel_backend="parametric",
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_schema5_options_decode_onto_the_schedule_field(name):
    payload = json.loads((LEGACY / "options_schema5.json").read_text())[name]
    decoded = serde.decode(payload)
    assert decoded == EXPECTED[name]
    spec = GemmSpec()
    assert reconcile_options(spec, decoded, SW26010PRO) == reconcile_options(
        spec, EXPECTED[name], SW26010PRO
    )


#: Schema-6 option sets: which decode (and onto what), which raise.
SCHEMA6_DECODES = {
    # the tuple reconcile pinned for every whole-stack request
    "optimize": full.with_(schedule=SchedulePolicy("optimize")),
    # denying the rewrite that never applied still names the stack
    "optimize_deny_retire_waits": full.with_(
        schedule=SchedulePolicy("optimize")
    ),
    # a recipe's filters never selected anything
    "recipe_filtered": full,
}
SCHEMA6_REFUSED = ("optimize_allow", "optimize_deny")


def _schema6(name):
    return json.loads((LEGACY / "options_schema6.json").read_text())[name]


@pytest.mark.parametrize("name", sorted(SCHEMA6_DECODES))
def test_schema6_policies_decode_onto_the_mode(name):
    decoded = serde.decode(_schema6(name))
    assert decoded == SCHEMA6_DECODES[name]
    assert serde.encode(decoded.schedule)["v"] == {
        "mode": decoded.schedule.mode
    }


@pytest.mark.parametrize("name", SCHEMA6_REFUSED)
def test_schema6_filtered_optimize_refuses_to_decode(name):
    """A filtered stack named a different pipeline than ``optimize``
    runs now; decoding it as ``optimize`` would serve the wrong one."""
    with pytest.raises(serde.SerializationError, match="legacy schedule"):
        serde.decode(_schema6(name))


def test_schema5_tuning_record_decodes_and_steers(tmp_path):
    cache = tmp_path / "cache"
    (cache / "tuning").mkdir(parents=True)
    key = json.loads(RECORD.read_text())["key"]
    shutil.copy(RECORD, cache / "tuning" / f"{key}.json")

    record = TuningRecordStore(cache / "tuning").get(key)
    assert record is not None
    assert record.candidate.name() == "16x16x8-d2-s1:dma+hide"
    assert record.candidate.tile == TileConfig(16, 16, 8)
    assert record.candidate.k_strip == 1

    service = CompileService(ServiceConfig(cache_dir=cache))
    program = api.compile(GemmSpec(), arch=TOY_ARCH, shape=(48, 80, 32),
                          service=service)
    assert service.tuning_hits == 1
    assert program.plan.kernel_shape == record.candidate.tile.shape()
    assert program.options.latency_hiding
