"""Self-tests of the benchmark on tiny inputs (a <= 12 and the tuple (3, 5, 7)).

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden as goldens
import run
from tracer import Tracer, plumbhf_modules

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def golden():
    return goldens.load()


@pytest.fixture
def ws():
    with run.Workspace() as workspace:
        yield workspace


def tiny_setup(ws, golden, warm=False):
    """survey --max-a 12 (cold, or warm after one fill) plus brieskorn 3 5 7."""

    def setup_fn():
        cache = ws.dir / "tiny.jsonl"
        cache.write_bytes(b"")
        survey = run.survey_op(12, cache, golden["surveys"]["12"])
        checks = [run._check(survey, ws.cli(survey.argv))] if warm else []
        count = run.count_op((3, 5, 7), golden["self_test"]["3 5 7"])
        return run.Plan([survey, count], fresh_cache=None if warm else cache), checks

    return setup_fn


def _names_and_units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit, _) in metrics.items()}


def test_every_end_to_end_metric_is_emitted_with_its_unit(ws, golden):
    outcome = run.measure(tiny_setup(ws, golden), ws, seconds=0)
    assert _names_and_units(outcome.metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert outcome.problems == []
    assert all(value > 0 for value, _, _ in outcome.metrics.values())


def test_every_per_layer_metric_is_emitted_and_counts_repeat(ws, golden):
    first = run.trace(tiny_setup(ws, golden), ws, seconds=0)
    second = run.trace(tiny_setup(ws, golden), ws, seconds=0)
    assert _names_and_units(first.metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first.problems == [] and second.problems == []
    counts = {n for n, (_, unit, _) in first.metrics.items() if unit in ("count", "count/row")}
    assert counts
    assert {n: first.metrics[n][0] for n in counts} == {n: second.metrics[n][0] for n in counts}


def test_forms_and_hashes_per_row_are_seen_through_every_binding(ws, golden):
    # 45 survey rows plus one brieskorn report; a cold survey row does two
    # determinants, three definiteness checks and two hashes, a warm row one
    # definiteness check and one hash, and the report five forms and one hash.
    cold = run.trace(tiny_setup(ws, golden), ws, seconds=0).metrics
    assert cold["graph.determinant.calls"][0] == 45 * 2 + 2
    assert cold["graph.negdef.calls"][0] == 45 * 3 + 3
    assert cold["files.hash.calls"][0] == 45 * 2 + 1
    assert cold["graph.blow_down.calls"][0] == 1
    warm = run.trace(tiny_setup(ws, golden, warm=True), ws, seconds=0).metrics
    assert warm["graph.determinant.calls"][0] == 2
    assert warm["graph.negdef.calls"][0] == 45 + 3
    assert warm["files.hash.calls"][0] == 45 + 1
    assert warm["report.cache.hit_ratio"][0] == 1.0
    assert warm["game.count.calls"][0] == 1


def test_a_corrupted_golden_is_reported_as_a_failure(ws, golden):
    bad = dict(golden["self_test"]["3 5 7"], sha256="0" * 64)

    def setup_fn():
        return run.Plan([run.count_op((3, 5, 7), bad)]), []

    outcome = run.measure(setup_fn, ws, seconds=0)
    assert outcome.attempted == len(outcome.problems) >= 1
    assert "differs from the golden" in outcome.problems[0]


def test_a_survey_without_the_paper_fact_is_a_failure(golden):
    rec = golden["surveys"]["12"]
    rows = [{"params": [2, 3, 5], "verdict": "nontrivial"}]
    assert "paper" in run._survey_problem(json.dumps(rows), rec)


def test_the_tracer_leaves_plumbhf_unpatched():
    run.load_plumbhf()

    def snapshot():
        out = {}
        for module in plumbhf_modules():
            out[module.__name__] = dict(vars(module))
            for key, value in vars(module).items():
                if isinstance(value, type) and value.__module__.startswith("plumbhf"):
                    out[f"{module.__name__}.{key}"] = dict(vars(value))
        return out

    before = snapshot()
    import plumbhf.game
    import plumbhf.graph
    import plumbhf.report

    original = plumbhf.graph.graph_determinant
    with Tracer():
        patched = plumbhf.graph.graph_determinant
        assert patched is not original
        assert plumbhf.report.graph_determinant is patched
        assert plumbhf.game.graph_determinant is patched
        assert plumbhf.graph_determinant is patched
    assert snapshot() == before


def test_mixes_stay_in_the_band_and_near_the_work_target(golden):
    lo, hi = golden["initials_band"]
    for seed in range(10):
        mix = run.draw_mix(golden["pool"], seed)
        assert mix == run.draw_mix(golden["pool"], seed)
        recs = [golden["pool"][goldens.tuple_key(t)] for t in mix]
        assert len(set(mix)) == run.MIX_SIZE
        assert all(lo <= r["initial_count"] <= hi for r in recs)
        initials = sum(r["initial_count"] for r in recs)
        work = sum(r["initial_count"] * r["vertex_count"] for r in recs)
        assert abs(initials - run.MIX_INITIALS) <= run.MIX_TOLERANCE * run.MIX_INITIALS
        assert abs(work - run.MIX_WORK) <= run.MIX_TOLERANCE * run.MIX_WORK


def test_a_pool_tuple_outside_the_band_is_refused(golden, tmp_path):
    data = json.loads(goldens.GOLDEN_PATH.read_text())
    data["pool"]["9 17 19"] = dict(golden["self_test"]["3 5 7"], initial_count=311_934_222_336)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="9 17 19"):
        goldens.load(path)


def test_the_oracle_agrees_with_the_game_on_a_small_star():
    assert run.oracle_checks([(3, 5, 7)], seed=1) == [None]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "survey_cold", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".bench_work").exists()
