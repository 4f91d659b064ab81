"""Exact CLI bytes: each command's stdout and exit code against a recorded digest.

The digests pin the emitters, so a refactor of them must keep every byte.
``elapsed_ms`` is the one field that varies between runs; it is masked to
0 in JSON and CSV before hashing.  The bytes of the cache files that a
cold early-stop ``survey --cache`` and a cold ``survey --full --cache``
write are pinned the same way.  A digest changes only with a deliberate
change to the output, together with a CHANGES.md line saying why.

The 15 checks test whichever ``plumbhf`` is importable.  Copied with
``support.py`` into a directory of their own, they check an installed
package from outside the checkout::

    python -m pytest -q -p no:cacheprovider test_cli_bytes.py
"""

import csv
import hashlib
import io
import re
from contextlib import redirect_stdout

import pytest

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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_bytes_match_recorded_digest(name, tmp_path, monkeypatch):
    """``COMMANDS[name]``, with its graph file in ``tmp_path``: its exit code
    and the digest of its masked stdout against the recorded ones."""
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)  # the cache flag's default
    argv, code, sha = COMMANDS[name]
    e8_path = tmp_path / "e8.json"
    write_graph_file(e8(), e8_path)
    got_code, out = run([a.format(e8=e8_path) for a in argv])
    assert (got_code, sha256(masked(out).encode())) == (code, sha)


@pytest.mark.parametrize("argv, cache_sha, stdout_sha", [
    pytest.param(["survey", "--max-a", "12"], CACHE_SHA, COMMANDS["survey 12"][2], id="cache survey 12"),
    pytest.param(["survey", "--max-a", "9", "--full"], FULL_CACHE_SHA, None, id="cache survey 9 full"),
])
def test_a_cached_survey_writes_recorded_bytes_cold_and_reads_them_warm(argv, cache_sha, stdout_sha, tmp_path,
                                                                        monkeypatch):
    """``argv`` with a new cache file, run cold, then warm.

    The cold run exits 0, writes the recorded cache bytes and, when
    ``stdout_sha`` is given, prints the recorded stdout of the same survey
    without a cache.  The warm run reads every row from the cache, so it
    exits and prints as the cold run did and appends nothing.
    """
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)
    path = tmp_path / "cache.jsonl"
    argv = [*argv, "--cache", str(path)]
    cold = run(argv)
    cold_sha = sha256(path.read_bytes())
    warm = run(argv)
    assert (cold[0], cold_sha, sha256(path.read_bytes())) == (0, cache_sha, cache_sha)
    assert stdout_sha in (None, sha256(cold[1].encode()))
    assert warm == cold
