"""The admission-control CLI surface: ``swgemm verify``,
``compile --explain-verify``, ``--timeout`` and clean cache-dir failure
modes."""

import json

import pytest

from repro.cli import main


# -- swgemm verify -----------------------------------------------------------


def test_verify_default_kernel_is_admitted(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "verdict: ADMITTED" in out
    for check in (
        "spm-budget",
        "dma-bounds",
        "double-buffer-hazards",
        "rma-discipline",
    ):
        assert check in out


def test_verify_json_output(capsys):
    assert main(["verify", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert [c["name"] for c in data["checks"]] == [
        "spm-budget",
        "dma-bounds",
        "double-buffer-hazards",
        "rma-discipline",
    ]
    assert all(c["status"] == "passed" for c in data["checks"])


def test_verify_covers_ablation_variants(capsys):
    for flag in ("--no-use-asm", "--no-rma", "--schedule=off"):
        assert main(["verify", flag]) == 0, flag
        assert "ADMITTED" in capsys.readouterr().out


def test_compile_explain_verify(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compile", "-o", str(out), "--explain-verify"]) == 0
    text = capsys.readouterr().out
    assert "verification (verifier v" in text
    assert "verdict: ADMITTED" in text


def test_the_gate_cannot_be_switched_off(tmp_path, capsys):
    """Every compile ends in the admission gate: there is no flag that
    skips it, so ``--no-verify`` is an argparse error (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(["compile", "-o", str(tmp_path / "out"), "--no-verify"])
    assert exc.value.code == 2
    assert "--no-verify" in capsys.readouterr().err


# -- structured failure modes ------------------------------------------------


def test_timeout_zero_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--no-cache", "--timeout", "0", "compile", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("swgemm: error:")
    assert "deadline" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["run", "-M", "0"],
    ["run", "-K", "-16"],
    ["tune", "-M", "0"],
    ["tune", "--batch-count", "0"],
    ["perf", "-M", "0"],
])
def test_non_positive_shape_fails_cleanly(tmp_path, capsys, argv):
    assert main(["--cache-dir", str(tmp_path), *argv, "--arch", "toy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("swgemm: error:")
    assert "must be a positive integer" in err
    assert "Traceback" not in err


def test_verify_reports_a_refused_kernel_and_exits_1(monkeypatch, capsys):
    """``verify`` compiles through the gate; on a refusal it prints the
    report the refusal carries instead of a bare error."""
    from repro.schedule import REWRITES, Rewrite
    from tests.schedule.test_rewrites import _drop_first_dma_wait

    monkeypatch.setitem(
        REWRITES, "split-waits",
        Rewrite("split-waits", "drops a wait", _drop_first_dma_wait),
    )
    assert main(["verify", "--arch", "toy", "--schedule=optimize"]) == 1
    out = capsys.readouterr().out
    assert "REJECTED" in out and "double-buffer-hazards" in out


def test_cache_stats_rejects_non_directory_cache_dir(tmp_path, capsys):
    bogus = tmp_path / "a-file"
    bogus.write_text("not a directory")
    assert main(["--cache-dir", str(bogus), "cache", "stats"]) == 1
    err = capsys.readouterr().err
    assert "swgemm: error:" in err
    assert "not a directory" in err
    assert "Traceback" not in err


def test_cache_clear_rejects_non_directory_cache_dir(tmp_path, capsys):
    bogus = tmp_path / "a-file"
    bogus.write_text("not a directory")
    assert main(["--cache-dir", str(bogus), "cache", "clear"]) == 1
    err = capsys.readouterr().err
    assert "swgemm: error:" in err and "Traceback" not in err


def test_cache_dir_under_a_file_parent_fails_cleanly(tmp_path, capsys):
    parent = tmp_path / "plain-file"
    parent.write_text("occupies the path")
    target = parent / "cache"
    assert main(["--cache-dir", str(target), "cache", "stats"]) == 1
    err = capsys.readouterr().err
    assert "swgemm: error:" in err and "Traceback" not in err
