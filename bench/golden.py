"""Golden outputs of the plumbhf CLI, and the script that records them.

An output is compared as its normalized JSON: parsed, every
``elapsed_ms`` field dropped, dumped with sorted keys and no spaces.
``golden.json`` keeps the sha256 of that text per CLI invocation:

- ``surveys``: ``plumbhf survey --max-a N`` for N in SURVEY_SIZES, with
  the row count, the sha256 of the cache file a cold run writes, and the
  total initial count of the surveyed stars (from that cache);
- ``pool`` and ``self_test``: ``plumbhf brieskorn a b c`` for every tuple
  of the full-count pool and for the self-test tuple, with its initial
  count, vertex count and good-initial count.

The goldens were recorded once on the unoptimized code.  A change that
claims a gain must reproduce them; it must not re-record them.

Record (takes a few minutes, one process):

    python3 bench/golden.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

SURVEY_SIZES = (12, 30)
SELF_TEST_TUPLE = (3, 5, 7)
# The full-count pool: pairwise-coprime 3-tuples with a <= POOL_MAX_A whose
# blown-down star has between INITIALS_BAND[0] and INITIALS_BAND[1]
# initial associations.  The band is the work ceiling: no draw can reach
# a tuple like (9, 17, 19), which has 3.1e11 initials.
POOL_MAX_A = 25
INITIALS_BAND = (20_000, 80_000)


def _drop_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _drop_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_drop_elapsed(v) for v in obj]
    return obj


def normalize(text: str) -> str:
    """The comparable form of one CLI emission (raises ValueError if not JSON)."""
    obj = json.loads(text)
    return json.dumps(_drop_elapsed(obj), sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(normalize(text).encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tuple_key(params) -> str:
    return " ".join(str(a) for a in params)


def load(path: Path = GOLDEN_PATH) -> dict:
    golden = json.loads(path.read_text())
    lo, hi = golden["initials_band"]
    for key, rec in golden["pool"].items():
        if not lo <= rec["initial_count"] <= hi:
            raise ValueError(f"pool tuple {key} has {rec['initial_count']} initials, outside {lo}..{hi}")
    return golden


def _cache_initials(cache: Path) -> int:
    return sum(json.loads(line)["initial_count"] for line in cache.read_text().splitlines() if line)


def survey_record(ws, max_a: int) -> dict:
    """Golden entry for ``survey --max-a max_a`` (cold, then warm as a check)."""
    from run import _check, survey_op

    cache = ws.dir / f"record-{max_a}.jsonl"
    cache.write_bytes(b"")
    argv = ["survey", "--max-a", str(max_a), "--cache", str(cache)]
    cold = ws.cli(argv)
    if cold.code != 0:
        raise RuntimeError(f"survey --max-a {max_a} failed: {cold.stderr}")
    rec = {
        "sha256": digest(cold.stdout),
        "rows": len(json.loads(cold.stdout)),
        "initials": _cache_initials(cache),
        "cache_sha256": file_digest(cache),
    }
    problem = _check(survey_op(max_a, cache, rec), ws.cli(argv))
    if problem is not None:
        raise RuntimeError(f"warm survey disagrees with cold: {problem}")
    return rec


def full_count_record(ws, params) -> dict:
    run = ws.cli(["brieskorn", *map(str, params)])
    if run.code != 0:
        raise RuntimeError(f"brieskorn {params} failed: {run.stderr}")
    obj = json.loads(run.stdout)
    return {
        "sha256": digest(run.stdout),
        "initial_count": obj["initial_count"],
        "vertex_count": obj["vertex_count"],
        "good_initial_count": obj["good_initial_count"],
    }


def _pool_tuples(root: Path) -> list[tuple[int, int, int]]:
    sys.path.insert(0, str(root / "src"))
    from plumbhf import blow_down, brieskorn, star_graph
    from plumbhf.errors import PlumbingError

    lo, hi = INITIALS_BAND
    out = []
    for t in itertools.combinations(range(2, POOL_MAX_A + 1), 3):
        if any(math.gcd(x, y) != 1 for x, y in itertools.combinations(t, 2)):
            continue
        try:
            graph = blow_down(star_graph(brieskorn(t)))
        except PlumbingError:
            continue
        if lo <= math.prod(-w for w in graph.weights) <= hi:
            out.append(t)
    return out


def record(root: Path) -> dict:
    from run import Workspace

    golden: dict = {
        "normalization": "json.loads, drop every elapsed_ms, json.dumps(sort_keys=True, separators=(',', ':')), sha256",
        "initials_band": list(INITIALS_BAND),
        "surveys": {},
        "pool": {},
        "self_test": {},
    }
    with Workspace(root) as ws:
        for n in SURVEY_SIZES:
            golden["surveys"][str(n)] = survey_record(ws, n)
            print(f"survey --max-a {n}: {golden['surveys'][str(n)]}", file=sys.stderr)
        golden["self_test"][tuple_key(SELF_TEST_TUPLE)] = full_count_record(ws, SELF_TEST_TUPLE)
        for t in _pool_tuples(root):
            golden["pool"][tuple_key(t)] = rec = full_count_record(ws, t)
            print(f"brieskorn {tuple_key(t)}: {rec}", file=sys.stderr)
    return golden


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    data = record(root)
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
