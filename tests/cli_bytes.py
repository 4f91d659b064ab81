"""Exact CLI bytes: each command's stdout and exit code against a recorded digest.

The digests pin the emitters, so a refactor of them must keep every byte.
``elapsed_ms`` is the one field that varies between runs; it is masked to
0 in JSON and CSV before hashing.  The bytes of the cache files that a
cold early-stop ``survey --cache`` and a cold ``survey --full --cache``
write are pinned the same way.  A digest changes only with a deliberate
change to the output, together with a CHANGES.md line saying why.

Each of the 15 checks in ``CHECKS`` is written once, here: it takes a
temporary directory and returns None, or a message saying what differs.
This module needs only the standard library, so any interpreter can run
them without pytest::

    python tests/cli_bytes.py

It runs the package under ``src/`` next to it, prints one line per
check, and exits 1 if any check fails.  ``test_cli_bytes.py`` runs the
same functions as one pytest case each.
"""

import csv
import hashlib
import io
import os
import re
import sys
import tempfile
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

if __name__ == "__main__":  # this checkout's package, and support next to this file
    _here = Path(__file__).resolve().parent
    sys.path[:0] = [str(_here.parent / "src"), str(_here)]

from plumbhf import cli
from support import e8, write_graph_file

COMMANDS = {
    "analyze e8": (["analyze", "{e8}"], 0, "243a0e8e5e344a89e16a33bf25d09eace179d263da34e2b38a1bd2dc13c334f0"),
    "analyze e8 csv": (["analyze", "{e8}", "--format", "csv"], 0, "91601f3d2b5b5048e187dc3dff5426fd86853c58092eba8097ce8f352ed8ef40"),
    "analyze e8 sequences": (["analyze", "{e8}", "--emit-sequences"], 0, "ba3bdff028850fa7a4cd9adec9afbf1f14e2bf3a3c1c224d81fd810eb9f6f3b4"),
    "brieskorn 2 3 7": (["brieskorn", "2", "3", "7"], 0, "23ed9e7964c648dcf5137803b9bd812e33ab56b057680c55dfb8019b74ccecbc"),
    "brieskorn 2 3 7 csv": (["brieskorn", "2", "3", "7", "--format", "csv"], 0, "e9fcafcded78d3c2401654228eca8dda96f546610c044dfdf549b71fe485bf83"),
    "brieskorn 2 3 7 sequences": (["brieskorn", "2", "3", "7", "--emit-sequences"], 0, "17c539783ea3c9febe84d4c2fd7581eb132d8c555272f019d4e17e2231df1554"),
    "survey 12": (["survey", "--max-a", "12"], 0, "9887a5156d572964e5d029679394b9088f3345db13bcfd8870138f756c437f4c"),
    "survey 12 csv": (["survey", "--max-a", "12", "--format", "csv"], 0, "805c29ee703502409e9b13da560946a16a628099d1b05b0052f909fbbe6d3017"),
    "survey 9 rays 4 full csv": (["survey", "--max-a", "9", "--rays", "4", "--full", "--format", "csv"], 0, "72244a71478552a7e00ba71bc056e20589a96f659321946215cf37aee259433f"),
    "all-minus-two 6": (["all-minus-two", "--max-p", "6"], 0, "5d0311bdfeff58bf063f674492ae2c8bd3c71229928ca7859e09cdda9d0107bf"),
    "all-minus-two 6 csv": (["all-minus-two", "--max-p", "6", "--format", "csv"], 0, "56471f29c2435df55e2e7c340efa1ab686f16d78d635e27e19e819fbaeac6c7f"),
    "s3 14": (["s3", "--bound", "14"], 0, "cb843aa7e24a6449b17cceeec8572ffeb9a54e13658bcdd5de2770692fb68012"),
    "s3 14 csv": (["s3", "--bound", "14", "--format", "csv"], 0, "8f1433589fc516348f7449feaab17d00eef84a0bf8e954e879214c814c95278a"),
}

# sha256 of the file a cold `survey --max-a 12 --cache PATH` writes (45 records)
CACHE_SHA = "0e99a60f6c6377f6279a0ec93a42a0eca986764d384fce576f5eb1c0ec699ed7"
# sha256 of the file a cold `survey --max-a 9 --full --cache PATH` writes
# (18 records, each with "early_stop":null)
FULL_CACHE_SHA = "065237da45e773ee34e75aef5d27f7dfce7cbfc5da664560cf110c2e8b00724b"


def masked(text: str) -> str:
    """``text`` with every elapsed_ms value set to 0 (a JSON key or a CSV column)."""
    if "elapsed_ms" not in text or text.lstrip().startswith(("{", "[")):
        return re.sub(r'("elapsed_ms": )\d+', r"\g<1>0", text)
    lines = text.splitlines(keepends=True)
    header = next(csv.reader(io.StringIO(lines[0])))
    after = len(header) - 1 - header.index("elapsed_ms")  # cells right of it: none quoted
    out = [lines[0]]
    for line in lines[1:]:
        body = line.rstrip("\r\n")
        head, cell, *tail = body.rsplit(",", after + 1)
        assert cell == next(csv.reader(io.StringIO(line)))[-after - 1] and cell.isdigit()
        out.append(",".join([head, "0", *tail]) + line[len(body):])
    return "".join(out)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of ``plumbhf argv``."""
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def check_command(name: str, tmp: Path) -> str | None:
    """``COMMANDS[name]``, with its graph file in ``tmp``: its exit code and
    the digest of its masked stdout against the recorded ones."""
    argv, code, sha = COMMANDS[name]
    e8_path = tmp / "e8.json"
    write_graph_file(e8(), e8_path)
    got_code, out = run([a.format(e8=e8_path) for a in argv])
    got = sha256(masked(out).encode())
    if (got_code, got) != (code, sha):
        return f"exit {got_code}, sha256 {got}; recorded exit {code}, sha256 {sha}"
    return None


def check_cached_survey(argv: list[str], cache_sha: str, stdout_sha: str | None, tmp: Path) -> str | None:
    """``argv`` with a new cache file in ``tmp``, run cold, then warm.

    The cold run exits 0, writes the recorded cache bytes and, when
    ``stdout_sha`` is given, prints the recorded stdout of the same survey
    without a cache.  The warm run reads every row from the cache, so it
    exits and prints as the cold run did and appends nothing.
    """
    path = tmp / "cache.jsonl"
    argv = [*argv, "--cache", str(path)]
    cold = run(argv)
    cold_sha = sha256(path.read_bytes())
    warm = run(argv)
    warm_sha = sha256(path.read_bytes())
    out_sha = sha256(cold[1].encode())
    if warm_sha == cold_sha == cache_sha and cold == warm and cold[0] == 0 and stdout_sha in (None, out_sha):
        return None
    return (f"cache sha256 {cold_sha} cold, {warm_sha} warm (recorded {cache_sha}), "
            f"exit {cold[0]} then {warm[0]}, stdout sha256 {out_sha} cold (recorded {stdout_sha}), "
            f"warm stdout {'equal to' if cold[1] == warm[1] else 'differs from'} cold")


def check_cache_survey_12(tmp: Path) -> str | None:
    return check_cached_survey(["survey", "--max-a", "12"], CACHE_SHA, COMMANDS["survey 12"][2], tmp)


def check_cache_survey_9_full(tmp: Path) -> str | None:
    return check_cached_survey(["survey", "--max-a", "9", "--full"], FULL_CACHE_SHA, None, tmp)


CHECKS = {
    **{name: partial(check_command, name) for name in COMMANDS},
    "cache survey 12": check_cache_survey_12,
    "cache survey 9 full": check_cache_survey_9_full,
}


def main(checks: dict = CHECKS) -> int:
    """Run each check in a temporary directory of its own, and print
    ``ok`` or ``FAIL`` per check, then the total; 1 if any fails."""
    os.environ.pop("PLUMB_HF_CACHE", None)  # the cache flag's default
    failures = []
    for name in sorted(checks):
        with tempfile.TemporaryDirectory() as tmp:
            problem = checks[name](Path(tmp))
        print(f"{'FAIL' if problem else 'ok'}: {name}")
        if problem:
            failures.append(f"{name}: {problem}")
    for line in failures:
        print(line, file=sys.stderr)
    print(f"{len(checks) - len(failures)} of {len(checks)} byte checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
