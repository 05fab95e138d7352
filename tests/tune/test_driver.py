"""Stage 2 of the search: the seeded, journal-resumable driver.

Everything runs on TOY_ARCH so a whole search takes well under a second.
"""

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH
from repro.tune import (
    TuneOptions,
    Tuner,
    TuningRecordStore,
    record_key,
    shape_class,
)

SHAPE = dict(M=128, N=128, K=64)


def _tuner(store=None):
    return Tuner(
        TOY_ARCH,
        service=CompileService(ServiceConfig()),
        store=store or TuningRecordStore(None),
    )


def test_same_seed_same_record():
    opts = TuneOptions(seed=42, max_measurements=6)
    first = _tuner().tune(tune_options=opts, **SHAPE)
    second = _tuner().tune(tune_options=opts, **SHAPE)
    assert first.record == second.record
    assert [t.candidate.name() for t in first.trials] == [
        t.candidate.name() for t in second.trials
    ]


def test_winner_never_loses_to_the_default():
    result = _tuner().tune(
        tune_options=TuneOptions(seed=3, max_measurements=6), **SHAPE
    )
    assert result.record.best_gflops >= result.record.default_gflops


def test_measurement_budget_is_respected():
    result = _tuner().tune(
        tune_options=TuneOptions(seed=0, max_measurements=4), **SHAPE
    )
    assert result.measured <= 4


def test_record_is_stored_and_journal_cleared():
    store = TuningRecordStore(None)
    result = _tuner(store).tune(
        tune_options=TuneOptions(seed=0, max_measurements=5), **SHAPE
    )
    assert store.get(result.record.key) == result.record
    assert store.journal_load(result.record.key) == {}


def test_journal_resume_skips_remeasurement():
    """A journal left by an interrupted search is trusted verbatim: its
    entries cost no measurement budget on the next run."""
    store = TuningRecordStore(None)
    key = record_key(
        GemmSpec(), TOY_ARCH, shape_class(SHAPE["M"], SHAPE["N"], SHAPE["K"])
    )
    complete = _tuner(TuningRecordStore(None)).tune(
        tune_options=TuneOptions(seed=9, max_measurements=6), **SHAPE
    )
    store.journal_save(
        key, {t.candidate.name(): t.gflops for t in complete.trials}
    )
    resumed = _tuner(store).tune(
        tune_options=TuneOptions(seed=9, max_measurements=6), **SHAPE
    )
    assert resumed.resumed == len(complete.trials)
    # Journal entries cost no budget, so the resumed search explores at
    # least as far and never ends up worse.
    assert resumed.record.best_gflops >= complete.record.best_gflops


def test_batched_shape_gets_a_batched_spec():
    result = _tuner().tune(
        M=32, N=64, K=32, batch=8,
        tune_options=TuneOptions(seed=0, max_measurements=4),
    )
    assert result.record.shape_class[3] == 8


def test_base_tile_config_is_a_search_origin_not_a_pin():
    from repro.core.options import TileConfig

    base = CompilerOptions.full().with_(tile_config=TileConfig(4, 4, 4))
    result = _tuner().tune(
        base_options=base,
        tune_options=TuneOptions(seed=0, max_measurements=4),
        **SHAPE,
    )
    # The search still explored the space instead of measuring one pin.
    assert result.candidates_total > 1


def test_hill_climb_and_exhaustive_strategies():
    small_budget = _tuner().tune(
        tune_options=TuneOptions(seed=0, max_measurements=4), **SHAPE
    )
    assert small_budget.strategy == "hill-climb"
    big_budget = _tuner().tune(
        tune_options=TuneOptions(seed=0, max_measurements=10_000), **SHAPE
    )
    assert big_budget.strategy == "exhaustive"
    # Exhaustive search is the ground truth the heuristic approximates.
    assert (
        big_budget.record.best_gflops >= small_budget.record.best_gflops
    )


def test_transposed_spec_tunes():
    """Every measurement times a chunk in the operands' storage layout;
    a K×M transposed A used to be allocated M×K and read out of bounds."""
    from repro import api

    record = api.tune(
        GemmSpec(trans_a=True), shape=(48, 80, 32), arch=TOY_ARCH, seed=0,
        budget=4, service=CompileService(ServiceConfig()),
    )
    assert record.best_gflops >= record.default_gflops
