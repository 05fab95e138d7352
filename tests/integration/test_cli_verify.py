"""The admission-control CLI surface: ``swgemm verify``,
``compile --explain-verify``, ``--no-verify``, ``--timeout`` and clean
cache-dir failure modes."""

import json

import pytest

from repro.cli import main


def read_tree(directory):
    return {p.name: p.read_text() for p in directory.iterdir() if p.is_file()}


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


def test_compile_explain_verify_with_no_verify_notes_skip(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["compile", "-o", str(out), "--no-verify", "--explain-verify"]
    ) == 0
    text = capsys.readouterr().out
    assert "ADMITTED" not in text
    assert "no-verify" in text or "no verification" in text


# -- --no-verify bit-exactness (§8.1 escape hatch) ---------------------------


def test_no_verify_compile_outputs_are_byte_identical(tmp_path):
    verified = tmp_path / "verified"
    unverified = tmp_path / "unverified"
    assert main(["compile", "-o", str(verified)]) == 0
    assert main(["compile", "-o", str(unverified), "--no-verify"]) == 0
    assert read_tree(verified) == read_tree(unverified)


# -- structured failure modes ------------------------------------------------


def test_timeout_zero_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--no-cache", "--timeout", "0", "compile", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("swgemm: error:")
    assert "deadline" in err
    assert "Traceback" not in err


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


def test_cache_stats_reports_verify_counters(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["--cache-dir", str(cache), "cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "verified on load" in out
    assert "verify rejected" in out
