"""Exact CLI bytes under pytest: the recorded digests of ``cli_bytes.py``,
and its stdlib-only runner, which a child runs as ``python tests/cli_bytes.py``."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import cli_bytes
from cli_bytes import CACHE_SHA, COMMANDS, FULL_CACHE_SHA, masked
from plumbhf.cli import main
from support import e8, write_graph_file


def digest(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, hashlib.sha256(masked(capsys.readouterr().out).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_bytes_match_recorded_digest(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)
    argv, code, sha = COMMANDS[name]
    path = tmp_path / "e8.json"
    write_graph_file(e8(), path)
    argv = [a.format(e8=path) for a in argv]
    assert digest(argv, capsys) == (code, sha)


def test_cache_bytes_match_recorded_digest_and_a_warm_rerun_keeps_them(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)
    path = tmp_path / "cache.jsonl"
    argv = ["survey", "--max-a", "12", "--cache", str(path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert hashlib.sha256(cold.encode()).hexdigest() == COMMANDS["survey 12"][2]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_SHA
    assert main(argv) == 0  # every row read from the cache, nothing appended
    assert capsys.readouterr().out == cold
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_SHA


def test_full_survey_cache_bytes_match_recorded_digest_and_a_warm_rerun_keeps_them(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)
    path = tmp_path / "cache.jsonl"
    argv = ["survey", "--max-a", "9", "--full", "--cache", str(path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    lines = path.read_bytes().splitlines()
    assert len(lines) == 18 and all(b'"early_stop":null,' in line for line in lines)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FULL_CACHE_SHA
    assert main(argv) == 0  # every row read from the cache, nothing appended
    assert capsys.readouterr().out == cold
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FULL_CACHE_SHA


def test_the_stdlib_runner_passes_every_check_in_a_child():
    script = Path(__file__).with_name("cli_bytes.py")
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.count("ok: ") == len(COMMANDS) + 2 and "FAIL" not in run.stdout
    assert run.stdout.endswith(f"{len(COMMANDS) + 2} of {len(COMMANDS) + 2} byte checks pass\n")


def test_the_stdlib_runner_fails_on_a_wrong_digest(monkeypatch, capsys):
    name = "all-minus-two 6"
    argv, code, sha = COMMANDS[name]
    monkeypatch.setattr(cli_bytes, "COMMANDS", {name: (argv, code, "0" * 64)})
    monkeypatch.setattr(cli_bytes, "FULL_CACHE_SHA", "1" * 64)
    monkeypatch.setenv("PLUMB_HF_CACHE", "")  # main drops it; monkeypatch restores it
    assert cli_bytes.main() == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"FAIL: {name}", "ok: cache survey 12", "FAIL: cache survey 9 full",
                                "1 of 3 byte checks pass"]
    assert err.splitlines() == [
        f"{name}: exit 0, sha256 {sha}; recorded exit 0, sha256 {'0' * 64}",
        f"cache survey 9 full: cache sha256 {FULL_CACHE_SHA} cold, {FULL_CACHE_SHA} warm (recorded {'1' * 64}), "
        "exit 0 then 0, warm stdout equal to cold",
    ]
