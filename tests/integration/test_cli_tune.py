"""CLI surface of the autotuner: `swgemm tune`, `tune --show`, the
tuning section of `cache stats`, record-steered `run`, and the shared
global flags that work on either side of the subcommand."""

import json

import pytest

from repro.cli import main

TOY_TUNE = ["tune", "--arch", "toy", "-M", "128", "-N", "128", "-K", "64",
            "--budget", "6", "--seed", "0"]


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "kernel-cache")


def test_tune_searches_and_reports(capsys, cache_dir):
    assert main(["--cache-dir", cache_dir, *TOY_TUNE]) == 0
    out = capsys.readouterr().out
    assert "candidate(s)" in out
    assert "best config" in out


def test_tune_json_is_machine_readable(capsys, cache_dir):
    assert main(["--cache-dir", cache_dir, *TOY_TUNE, "--json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["best_gflops"] >= row["default_gflops"]
    assert row["measurements"] >= 1
    assert row["strategy"] in ("exhaustive", "hill-climb")


def test_tune_show_lists_records(capsys, cache_dir):
    assert main(["--cache-dir", cache_dir, *TOY_TUNE]) == 0
    capsys.readouterr()
    assert main(["--cache-dir", cache_dir, "tune", "--show"]) == 0
    out = capsys.readouterr().out
    assert "128x128x64" in out
    assert "toy" in out


def test_tune_show_on_empty_store(capsys, cache_dir):
    assert main(["--cache-dir", cache_dir, "tune", "--show"]) == 0
    assert "no tuning records" in capsys.readouterr().out


def test_cache_stats_reports_tuning_records(capsys, cache_dir):
    assert main(["--cache-dir", cache_dir, *TOY_TUNE]) == 0
    capsys.readouterr()
    assert main(["--cache-dir", cache_dir, "cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "tuning records:" in out
    assert "stored: 1" in out.replace("  ", " ").replace("  ", " ")


def test_run_is_steered_by_the_record(capsys, cache_dir):
    assert main(["--cache-dir", cache_dir, *TOY_TUNE]) == 0
    capsys.readouterr()
    assert main(["--cache-dir", cache_dir, "run", "--arch", "toy",
                 "-M", "128", "-N", "128", "-K", "64"]) == 0
    capsys.readouterr()
    assert main(["--cache-dir", cache_dir, "cache", "stats", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["persistent"].get("tuning_hits", 0) >= 1


def test_batched_run_is_steered_by_the_batched_record(
    capsys, cache_dir, tmp_path
):
    """``run`` executes a batched source as a batch of ``RUN_BATCH``, so
    its shape hint carries that batch and finds the record a ``tune
    --batch-count RUN_BATCH`` of the same M/N/K wrote."""
    from perfbench.grid import SOURCES
    from repro.runtime.executor import RUN_BATCH

    source = tmp_path / "batched.c"
    source.write_text(SOURCES["batched"])
    shape = ["-M", "48", "-N", "80", "-K", "32"]
    assert main(["--cache-dir", cache_dir, "tune", "--arch", "toy",
                 "--batch-count", str(RUN_BATCH), *shape,
                 "--seed", "0", "--budget", "6", "--json"]) == 0
    tuned = json.loads(capsys.readouterr().out)
    assert tuned["best_gflops"] > tuned["default_gflops"]
    assert main(["--cache-dir", cache_dir, "run", "--arch", "toy",
                 str(source), *shape]) == 0
    out = capsys.readouterr().out
    assert float(out.split("max |C - reference| = ")[1].split()[0]) < 1e-8
    gflops = float(out.split("ms (")[1].split()[0])
    assert gflops == pytest.approx(tuned["best_gflops"], rel=0.05)
    assert main(["--cache-dir", cache_dir, "cache", "stats", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["persistent"].get("tuning_hits", 0) == 1


def test_cache_clear_drops_tuning_records(capsys, cache_dir):
    assert main(["--cache-dir", cache_dir, *TOY_TUNE]) == 0
    capsys.readouterr()
    assert main(["--cache-dir", cache_dir, "cache", "clear"]) == 0
    assert "1 tuning record(s)" in capsys.readouterr().out
    assert main(["--cache-dir", cache_dir, "tune", "--show"]) == 0
    assert "no tuning records" in capsys.readouterr().out


def test_global_flags_work_on_either_side(capsys, cache_dir):
    """--cache-dir/--no-cache before or after the subcommand are the
    same invocation; the subcommand spelling wins when both appear."""
    assert main(["tune", "--show", "--cache-dir", cache_dir]) == 0
    before = capsys.readouterr().out
    assert main(["--cache-dir", cache_dir, "tune", "--show"]) == 0
    assert capsys.readouterr().out == before

    assert main(["--no-cache", *TOY_TUNE]) == 0
    out = capsys.readouterr().out
    assert "not persisted" in out
    assert main([*TOY_TUNE, "--no-cache"]) == 0
    assert "not persisted" in capsys.readouterr().out


def test_determinism_across_invocations(capsys, cache_dir, tmp_path):
    assert main(["--cache-dir", str(tmp_path / "a"), *TOY_TUNE, "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["--cache-dir", str(tmp_path / "b"), *TOY_TUNE, "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_tune_without_source_applies_every_option_flag(monkeypatch, cache_dir):
    """With no source, the option flags edit ``CompilerOptions.full()``
    through the same helper as every other subcommand."""
    import repro.api

    class Stop(Exception):
        pass

    seen = {}

    def fake_tune(spec, **kwargs):
        seen.update(kwargs)
        raise Stop

    monkeypatch.setattr(repro.api, "tune", fake_tune)
    with pytest.raises(Stop):
        main(["--cache-dir", cache_dir, *TOY_TUNE, "--no-rma", "--no-verify",
              "--schedule", "off"])
    options = seen["options"]
    assert (options.enable_rma, options.verify) == (False, False)
    assert options.use_asm and options.schedule.mode == "off"
