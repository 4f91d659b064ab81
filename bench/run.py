"""Benchmark of the plumbhf CLI on three fixed workloads.

    python3 bench/run.py --workload survey_cold --seed 1 --seconds 30 --trace 0

With ``--trace 0`` each operation is a ``python -m plumbhf`` child
process, run one at a time from this parent, and the end-to-end metrics
are printed; times are registered as ratios to ``reference.py`` children
run between the operations.  With ``--trace 1`` the same operations run
in this process, once untraced and once with every plumbhf module
wrapped by ``tracer.Tracer``, and the per-module metrics are printed.  Every output
is checked against ``golden.json``; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and
the exit code is 1 when any output is wrong.  ``--workload all`` runs
the three in turn.  README.md in this directory says why each workload
exists and which end-to-end metric each per-module metric moves.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import io
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import golden as goldens
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("survey_cold", "survey_warm", "full_count")

SURVEY_MAX_A = 30
PREFLIGHT_MAX_A = 12
# The paper's survey fact: for a <= 30 only Sigma(2, 3, 5) has rank 1.
PAPER_TRIVIAL = [[2, 3, 5]]
# A full-count mix is MIX_SIZE pool tuples whose total initials and total
# initials x vertices are both within MIX_TOLERANCE of their targets.  A
# full count visits about 0.4 * vertices states per initial (3.5 at 9
# vertices, 5.9 at 15), so holding both sums keeps the initials and the
# work of a mix nearly the same for every seed (5 s on the unoptimized code).
MIX_SIZE = 4
MIX_INITIALS = 130_000
MIX_WORK = 1_625_000
MIX_TOLERANCE = 0.01
ORACLE_SAMPLES = 100
SETUP_REPEATS = 3
REFERENCE = Path(__file__).with_name("reference.py")
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150


# -- child processes ----------------------------------------------------------


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Workspace:
    """A scratch directory in the checkout plus the child-process runner."""

    def __init__(self, root: Path = ROOT) -> None:
        self.root = root
        self.base = root / ".bench_work"
        env = {k: v for k, v in os.environ.items() if k != "PLUMB_HF_CACHE"}
        env["PYTHONPATH"] = str(root / "src")
        # the same dict layouts, and so the same timings, in every child
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def __enter__(self) -> "Workspace":
        self.base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=self.base))
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.base.rmdir()

    def cli(self, args: list[str]) -> ChildRun:
        return self.python(["-m", "plumbhf", *args])

    def reference_s(self) -> float:
        """Wall time of one reference child (reference.py), the ``ref`` unit."""
        run = self.python([str(REFERENCE)])
        if run.code != 0:
            raise RuntimeError(f"reference run failed: {run.stderr}")
        return run.wall_s

    def python(self, args: list[str]) -> ChildRun:
        err_path = self.dir / "stderr.txt"
        with err_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=self.root,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return ChildRun(
            code=code,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            stdout=out.decode(),
            stderr=err_path.read_text(errors="replace") if code != 0 else "",
        )


# -- operations and their checks ------------------------------------------------


def _survey_problem(stdout: str, rec: dict) -> str | None:
    try:
        rows = json.loads(stdout)
        skipped = [r["params"] for r in rows if r["verdict"] == "skipped"]
        trivial = [r["params"] for r in rows if r["verdict"] == "trivial-rank"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed survey output ({exc})"
    if skipped:
        return f"{len(skipped)} skipped rows, first {skipped[0]}"
    if trivial != PAPER_TRIVIAL:
        return f"trivial-rank rows {trivial}; the paper has only (2, 3, 5)"
    if len(rows) != rec["rows"] or goldens.digest(stdout) != rec["sha256"]:
        return "survey output differs from the golden"
    return None


def _count_problem(stdout: str, rec: dict) -> str | None:
    try:
        obj = json.loads(stdout)
        count = obj["good_initial_count"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed brieskorn output ({exc})"
    if goldens.digest(stdout) != rec["sha256"]:
        return f"output differs from the golden (count {count}, golden {rec['good_initial_count']})"
    return None


@dataclass
class Op:
    """One CLI invocation with its golden check."""

    argv: list[str]
    rec: dict
    rows: int
    initials: int
    cache: Path | None = None  # the cache file must equal rec["cache_sha256"] after the op

    def problem(self, code: int, stdout: str, stderr: str = "") -> str | None:
        what = "plumbhf " + " ".join(self.argv)
        if code != 0:
            return f"{what}: exit {code} {stderr.strip()[-300:]}"
        check = _survey_problem if self.argv[0] == "survey" else _count_problem
        problem = check(stdout, self.rec)
        if problem is None and self.cache is not None:
            if goldens.file_digest(self.cache) != self.rec["cache_sha256"]:
                problem = "cache file differs from the golden"
        return None if problem is None else f"{what}: {problem}"


def survey_op(max_a: int, cache: Path, rec: dict) -> Op:
    argv = ["survey", "--max-a", str(max_a), "--cache", str(cache)]
    return Op(argv, rec, rows=rec["rows"], initials=rec["initials"], cache=cache)


def count_op(params, rec: dict) -> Op:
    argv = ["brieskorn", *map(str, params)]
    return Op(argv, rec, rows=1, initials=rec["initial_count"])


def _check(op: Op, run: ChildRun) -> str | None:
    return op.problem(run.code, run.stdout, run.stderr)


# -- workloads --------------------------------------------------------------------


def draw_mix(pool: dict, seed: int) -> list[tuple[int, ...]]:
    """MIX_SIZE pool tuples: a seeded draw, completed by the pair that best meets the targets."""
    sizes = {
        key: (rec["initial_count"], rec["initial_count"] * rec["vertex_count"])
        for key, rec in sorted(pool.items())
    }
    keys = list(sizes)
    pairs = [
        (a, b, sizes[a][0] + sizes[b][0], sizes[a][1] + sizes[b][1])
        for a, b in itertools.combinations(keys, 2)
    ]
    rng = random.Random(seed)
    for _ in range(1000):
        picked = rng.sample(keys, MIX_SIZE - 2)
        initials = MIX_INITIALS - sum(sizes[k][0] for k in picked)
        work = MIX_WORK - sum(sizes[k][1] for k in picked)
        miss, a, b = min(
            (max(abs(i - initials) / MIX_INITIALS, abs(w - work) / MIX_WORK), a, b)
            for a, b, i, w in pairs
            if a not in picked and b not in picked
        )
        if miss <= MIX_TOLERANCE:
            return [tuple(int(x) for x in k.split()) for k in picked + [a, b]]
    raise RuntimeError("no full-count mix within tolerance")


def load_plumbhf():
    """Import plumbhf from this checkout's src/ (never an installed copy)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import plumbhf
    import plumbhf.cli

    if Path(plumbhf.__file__).resolve().parent != ROOT / "src" / "plumbhf":
        raise RuntimeError(f"imported plumbhf from {plumbhf.__file__}, not {src}")
    return plumbhf


def load_oracle():
    """tests/support.py: the uncached BFS over the raw move rules."""
    load_plumbhf()
    spec = importlib.util.spec_from_file_location("plumbhf_test_support", ROOT / "tests" / "support.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sample_initial(rng: random.Random, weights, uniform: bool) -> tuple[int, ...]:
    """Uniform initial, or one near final (each vertex at its cap w.p. 1/10)."""
    values = []
    for m in weights:
        kmax = -m
        if uniform:
            k = rng.randint(1, kmax)
        else:
            k = kmax if kmax == 1 or rng.random() < 0.1 else rng.randint(1, kmax - 1)
        values.append(m + 2 * k)
    return tuple(values)


def oracle_checks(mix, seed: int) -> list[str | None]:
    """Per tuple: game verdicts on seeded sample initials against the BFS oracle."""
    plumbhf = load_plumbhf()
    support = load_oracle()
    checks = []
    for params in mix:
        graph = plumbhf.blow_down(plumbhf.star_graph(plumbhf.brieskorn(params)))
        game = plumbhf.AssociationGame(graph)
        rng = random.Random(f"oracle {seed} {params}")
        wrong = []
        for i in range(ORACLE_SAMPLES):
            values = _sample_initial(rng, graph.weights, uniform=i % 2 == 0)
            verdict = game.completes_to_good(plumbhf.Association(graph, values)) is not None
            if verdict != support.oracle_completes(graph, values):
                wrong.append(values)
        checks.append(
            f"brieskorn {params}: the game and the BFS oracle disagree at {len(wrong)} initials, first {wrong[0]}"
            if wrong
            else None
        )
    return checks


@dataclass
class Plan:
    """What one pass runs, after set-up."""

    ops: list[Op]
    fresh_cache: Path | None = None  # emptied before every pass
    notes: list[str] = field(default_factory=list)


def preflight(ws: Workspace, golden: dict) -> str | None:
    """A small cold survey, checked; it also warms the interpreter and .pyc files."""
    cache = ws.dir / "preflight.jsonl"
    cache.write_bytes(b"")
    op = survey_op(PREFLIGHT_MAX_A, cache, golden["surveys"][str(PREFLIGHT_MAX_A)])
    return _check(op, ws.cli(op.argv))


def setup(name: str, ws: Workspace, golden: dict, seed: int) -> tuple[Plan, list[str | None]]:
    """The workload's plan, and the outcome of each check made on the way."""
    checks = [preflight(ws, golden)]
    rec = golden["surveys"][str(SURVEY_MAX_A)]
    cache = ws.dir / f"{name}.jsonl"
    if name == "survey_cold":
        return Plan([survey_op(SURVEY_MAX_A, cache, rec)], fresh_cache=cache), checks
    if name == "survey_warm":
        cache.write_bytes(b"")
        op = survey_op(SURVEY_MAX_A, cache, rec)
        return Plan([op]), checks + [_check(op, ws.cli(op.argv))]
    if name == "full_count":
        mix = draw_mix(golden["pool"], seed)
        ops = [count_op(t, golden["pool"][goldens.tuple_key(t)]) for t in mix]
        initials = sum(op.initials for op in ops)
        note = f"mix {mix}, {initials} initials, {ORACLE_SAMPLES} oracle samples per tuple"
        return Plan(ops, notes=[note]), checks + oracle_checks(mix, seed)
    raise ValueError(f"unknown workload {name!r}")


# -- measurement ------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    wall_ref: list[float] = field(default_factory=list)  # per op
    cpu_ref: list[float] = field(default_factory=list)  # per op
    rss_mb: float = 0.0
    rows: int = 0
    initials: int = 0
    attempted: int = 0
    problems: list[str] = field(default_factory=list)


def run_pass(ws: Workspace, plan: Plan, refs: list[float]) -> Pass:
    """One pass in child processes.

    ``refs`` ends with a reference time taken just before the pass; one
    more is appended after every op, and the op's wall and CPU times are
    divided by the mean of the two reference times around it.
    """
    if plan.fresh_cache is not None:
        plan.fresh_cache.write_bytes(b"")
    result = Pass()
    for op in plan.ops:
        run = ws.cli(op.argv)
        refs.append(ws.reference_s())
        unit = (refs[-2] + refs[-1]) / 2
        result.wall_s += run.wall_s
        result.cpu_s += run.cpu_s
        result.wall_ref.append(run.wall_s / unit)
        result.cpu_ref.append(run.cpu_s / unit)
        result.rss_mb = max(result.rss_mb, run.rss_mb)
        result.rows += op.rows
        result.initials += op.initials
        result.attempted += 1
        problem = _check(op, run)
        if problem is not None:
            result.problems.append(problem)
    return result


def run_pass_in_process(plan: Plan, cli) -> Pass:
    """The same pass through ``cli.main`` in this process."""
    if plan.fresh_cache is not None:
        plan.fresh_cache.write_bytes(b"")
    result = Pass()
    for op in plan.ops:
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(op.argv)
        result.wall_s += time.perf_counter() - start
        result.rows += op.rows
        result.initials += op.initials
        result.attempted += 1
        problem = op.problem(code, out.getvalue())
        if problem is not None:
            result.problems.append(problem)
    return result


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit, how it was taken)
    attempted: int
    problems: list[str]
    notes: list[str]
    printed: dict  # like metrics, printed but not part of the result line


def _setup_repeated(setup_fn, repeats: int):
    times, checks = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        plan, found = setup_fn()
        times.append(time.perf_counter() - start)
        checks += found
    return plan, times, checks


def _outcome(metrics: dict, checks: list[str | None], passes: list[Pass], notes: list[str], printed=None) -> Outcome:
    problems = [c for c in checks if c is not None]
    for p in passes:
        problems += p.problems
    attempted = len(checks) + sum(p.attempted for p in passes)
    return Outcome(metrics, attempted, problems, notes, printed or {})


def _sum_of_op_medians(per_pass) -> float:
    """A pass's time, robust to a slow moment in any one op of any pass."""
    return sum(statistics.median(op) for op in zip(*per_pass))


def measure(setup_fn, ws: Workspace, seconds: float) -> Outcome:
    """End-to-end metrics, tracing off; ``setup_fn()`` returns (plan, checks)."""
    plan, setup_times, checks = _setup_repeated(setup_fn, SETUP_REPEATS)
    passes: list[Pass] = []
    refs = [ws.reference_s()]
    start, pass_s = time.perf_counter(), 0.0
    # stop before a pass that would end past the budget, so a run lasts about `seconds`
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        begun = time.perf_counter()
        passes.append(run_pass(ws, plan, refs))
        pass_s = time.perf_counter() - begun
    wall_ref = _sum_of_op_medians(p.wall_ref for p in passes)
    wall = statistics.median(p.wall_s for p in passes)
    rows, initials = passes[0].rows, passes[0].initials
    n = f"median of {len(passes)} passes"
    metrics = {
        "wall_ref": (wall_ref, "ref", f"sum over ops of the median of {len(passes)} passes"),
        "cpu_ref": (_sum_of_op_medians(p.cpu_ref for p in passes), "ref", f"sum over ops of the median of {len(passes)} passes"),
        "rows_per_ref": (rows / wall_ref, "1/ref", f"{rows} rows / wall_ref"),
        "initials_per_ref": (initials / wall_ref, "1/ref", f"{initials} initials / wall_ref"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB", f"max over {sum(p.attempted for p in passes)} children"),
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
    }
    printed = {
        "wall_s": (wall, "s", n),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s", n),
        "rows_per_s": (rows / wall, "1/s", f"{rows} rows / wall_s"),
        "initials_per_s": (initials / wall, "1/s", f"{initials} initials / wall_s"),
        "reference_s": (statistics.median(refs), "s", f"median of {len(refs)} reference times"),
    }
    return _outcome(metrics, checks, passes, plan.notes, printed)


def _counts(tracer: Tracer, agg: dict) -> dict:
    out = {name: a["calls"] for name, a in agg.items()}
    out.update(vars(tracer.game), cache_hits=tracer.cache_hits)
    return out


def trace(setup_fn, ws: Workspace, seconds: float) -> Outcome:
    """Per-module metrics from traced in-process passes."""
    plan, _, checks = _setup_repeated(setup_fn, 1)
    imports = [ws.python(["-c", "import plumbhf.cli"]) for _ in range(IMPORT_SAMPLES)]
    checks += [f"import plumbhf.cli: exit {r.code} {r.stderr[-300:]}" if r.code else None for r in imports]
    cli = load_plumbhf().cli
    untraced, traced, aggs, counts = [], [], [], []
    start, pair_s = time.perf_counter(), 0.0
    while not traced or time.perf_counter() - start + pair_s <= seconds:
        begun = time.perf_counter()
        untraced.append(run_pass_in_process(plan, cli))
        with Tracer() as tracer:
            traced.append(run_pass_in_process(plan, cli))
        pair_s = time.perf_counter() - begun
        aggs.append(tracer.aggregate())
        counts.append(_counts(tracer, aggs[-1]))
    checks.append(None if all(c == counts[0] for c in counts) else "trace counts differ between passes")
    metrics = layer_metrics(aggs, counts[0], plan.ops, import_s=statistics.median(r.wall_s for r in imports))
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced) - 1,
        "ratio",
        f"medians of {len(traced)} traced / {len(untraced)} untraced passes",
    )
    return _outcome(metrics, checks, untraced + traced, plan.notes)


def layer_metrics(aggs: list[dict], counts: dict, ops: list[Op], import_s: float) -> dict:
    n = f"median of {len(aggs)} traced passes"

    def self_s(span: str):
        return (statistics.median(a[span]["self_s"] for a in aggs), "s", n)

    def calls(span: str):
        return (counts[span], "count", "one traced pass")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rows = sum(op.rows for op in ops)
    m = {
        "cli.import_s": (import_s, "s", f"median of {IMPORT_SAMPLES} child starts"),
        "cli.self_s": self_s("cli"),
    }
    for span in (
        "seifert.brieskorn",
        "seifert.star_graph",
        "contfrac.expand_cf",
        "graph.determinant",
        "graph.negdef",
        "files.hash",
        "game.count",
        "report.analyze",
    ):
        m[f"{span}.calls"] = calls(span)
        m[f"{span}.self_s"] = self_s(span)
    m["graph.blow_down.calls"] = calls("graph.blow_down")
    forms = counts["graph.determinant"] + counts["graph.negdef"]
    m["graph.forms_per_row"] = (ratio(forms, rows), "count/row", f"{forms} forms / {rows} rows")
    m["files.hash_per_row"] = (ratio(counts["files.hash"], rows), "count/row", f"{counts['files.hash']} hashes / {rows} rows")
    m["game.init.self_s"] = self_s("game.init")
    m["game.initials"] = (counts["initials"], "count", "initials scanned, one traced pass")
    m["game.good"] = (counts["good"], "count", "good initials found, one traced pass")
    m["game.good_ratio"] = (
        ratio(counts["full_good"], counts["full_initials"]),
        "ratio",
        f"{counts['full_good']} good / {counts['full_initials']} initials of full counts",
    )
    count_self = m["game.count.self_s"][0]
    m["game.us_per_initial"] = (ratio(count_self * 1e6, counts["initials"]), "us", "game.count.self_s / game.initials")
    m["game.witness_states"] = (counts["witness_states"], "count", "states in returned witnesses")
    m["report.cache.load_s"] = self_s("report.cache.load")
    m["report.cache.gets"] = calls("report.cache.get")
    gets = counts["report.cache.get"]
    m["report.cache.hit_ratio"] = (ratio(counts["cache_hits"], gets), "ratio", f"{counts['cache_hits']} hits / {gets} gets")
    m["report.cache.puts"] = calls("report.cache.put")
    m["report.cache.put_s"] = self_s("report.cache.put")
    m["report.survey.self_s"] = self_s("report.survey")
    return m


# -- entry point ---------------------------------------------------------------------


def _missing() -> list[str]:
    needed = [ROOT / "src" / "plumbhf" / "cli.py", ROOT / "tests" / "support.py", goldens.GOLDEN_PATH]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # a terminated run still kills its child and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = _missing()
    if missing:
        print(f"bench: cannot run, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    golden = goldens.load()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = trace if args.trace else measure
    metrics, attempted, problems = {}, 0, []
    with Workspace() as ws:
        for name in names:
            outcome = run(functools.partial(setup, name, ws, golden, args.seed), ws, args.seconds)
            for note in outcome.notes:
                print(f"{name}: {note}")
            for metric, (value, unit, how) in outcome.metrics.items():
                print(f"{name:<12} {metric:<28} {value!r:>24} {unit:<10} {how}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit}
            for metric, (value, unit, how) in outcome.printed.items():
                print(f"{name:<12} {metric:<28} {value!r:>24} {unit:<10} {how} (printed only)")
            failed = len(outcome.problems)
            print(f"{name:<12} {'failed_frac':<28} {failed / outcome.attempted!r:>24} {'ratio':<10} {failed} failed of {outcome.attempted}")
            for problem in outcome.problems:
                print(f"{name}: FAILED {problem}", file=sys.stderr)
            attempted += outcome.attempted
            problems += outcome.problems
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(problems), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
