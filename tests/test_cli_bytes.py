"""Exact CLI bytes under pytest: one case per check of ``cli_bytes.py``,
and its stdlib-only runner, which a child runs as ``python tests/cli_bytes.py``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cli_bytes
from cli_bytes import CHECKS, COMMANDS


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_cli_bytes_match_recorded_digest(name, tmp_path, monkeypatch):
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)
    assert CHECKS[name](tmp_path) is None


@pytest.mark.parametrize("copied", [False, True], ids=["in-tests", "copied"])
def test_the_stdlib_runner_passes_every_check_in_a_child(copied, tmp_path):
    """Run where it is, the runner imports the package under ``src/`` next
    to it; copied with ``support.py`` into a directory of their own, as
    CI checks an installed package, it imports whichever is on the path,
    here this checkout's ``src/`` through PYTHONPATH."""
    here = Path(__file__).parent
    script, env = here / "cli_bytes.py", None
    if copied:
        for name in ("cli_bytes.py", "support.py"):
            shutil.copy(here / name, tmp_path / name)
        script, env = tmp_path / "cli_bytes.py", {**os.environ, "PYTHONPATH": str(here.parent / "src")}
    run = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [f"ok: {name}" for name in sorted(CHECKS)] + ["15 of 15 byte checks pass"]


def test_the_stdlib_runner_fails_on_a_wrong_digest(monkeypatch, capsys):
    """Each check reads its digests when it runs: a wrong stdout digest of
    ``survey 12`` fails that command and its cached survey too."""
    argv, code, sha = COMMANDS["survey 12"]
    cache_sha, full_sha = cli_bytes.CACHE_SHA, cli_bytes.FULL_CACHE_SHA
    monkeypatch.setitem(COMMANDS, "survey 12", (argv, code, "0" * 64))
    monkeypatch.setattr(cli_bytes, "FULL_CACHE_SHA", "1" * 64)
    monkeypatch.setenv("PLUMB_HF_CACHE", "")  # main drops it; monkeypatch restores it
    names = ["all-minus-two 6", "cache survey 12", "cache survey 9 full", "survey 12"]
    assert cli_bytes.main({name: CHECKS[name] for name in names}) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ["ok: all-minus-two 6", "FAIL: cache survey 12", "FAIL: cache survey 9 full",
                                "FAIL: survey 12", "1 of 4 byte checks pass"]
    cached, full, command = err.splitlines()
    assert cached == (f"cache survey 12: cache sha256 {cache_sha} cold, {cache_sha} warm (recorded {cache_sha}), "
                      f"exit 0 then 0, stdout sha256 {sha} cold (recorded {'0' * 64}), warm stdout equal to cold")
    assert full.startswith(f"cache survey 9 full: cache sha256 {full_sha} cold, {full_sha} warm "
                           f"(recorded {'1' * 64}), exit 0 then 0, stdout sha256 ")
    assert command == f"survey 12: exit 0, sha256 {sha}; recorded exit 0, sha256 {'0' * 64}"
