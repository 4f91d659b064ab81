import csv
import gc
import io
import json
import os
import re
import select
import shlex
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from plumbhf.cli import build_parser, main
from plumbhf.game import Association, GoodSequence, is_good_sequence
from plumbhf.graph import blow_down, build_graph
from plumbhf.report import SurveyRow
from plumbhf.s3 import S3Row
from plumbhf.seifert import sigma_star
from support import chain, e8, star, time_limit, write_graph_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_value(out):
    """The value of a CLI JSON output, which is byte for byte json.dumps(value, indent=2)."""
    value = json.loads(out)
    assert out == json.dumps(value, indent=2) + "\n"
    return value


def graph_file(tmp_path, graph, name="graph.json"):
    path = tmp_path / name
    write_graph_file(graph, path)
    return str(path)


def test_analyze_json(tmp_path, capsys):
    path = graph_file(tmp_path, e8())
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["det"] == 1
    assert obj["good_initial_count"] == 1
    assert obj["negative_definite"] is True
    assert obj["name"] == "e8"


def test_analyze_output_file(tmp_path, capsys):
    path = graph_file(tmp_path, e8())
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", path, "--output", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["det"] == 1


def test_analyze_emit_sequences(tmp_path, capsys):
    path = graph_file(tmp_path, chain(-2, -2))
    code, out, _ = run(capsys, "analyze", path, "--emit-sequences")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["sequences"]) == obj["good_initial_count"] == 3


def test_analyze_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [{"id": 0, "weight": "x"}], "edges": []}')
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "ParseError" in err


def test_analyze_non_utf8_file_exits_1_naming_it(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "caf\xe9", "vertices": [], "edges": []}')
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert out == ""
    assert f"ParseError: {bad}: not UTF-8" in err


def test_analyze_deeply_nested_file_exits_1_naming_it(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert out == ""
    assert f"ParseError: {bad}: JSON nested too deeply" in err


def test_analyze_two_bad_vertices_exits_1(tmp_path, capsys):
    path = graph_file(tmp_path, chain(-2, -1, -2, -1, -2))
    code, out, err = run(capsys, "analyze", path)
    assert code == 1
    assert "TooManyBadVertices" in err


def test_brieskorn_poincare(capsys):
    code, out, _ = run(capsys, "brieskorn", "2", "3", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "trivial-rank"
    assert obj["good_initial_count"] == 1
    assert obj["det"] == 1
    assert obj["vertex_count"] == 8


def test_brieskorn_nontrivial(capsys):
    code, out, _ = run(capsys, "brieskorn", "2", "3", "7", "--early-stop", "2")
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "nontrivial"
    assert obj["good_initial_count"] == 2


def test_brieskorn_count_beyond_any_scan(capsys):
    """(9, 17, 19) has 3.1e11 initials; the exact count walks tau, and
    every emitted sequence replays against the game's rules."""
    with time_limit(60):
        code, out, _ = run(capsys, "brieskorn", "9", "17", "19", "--emit-sequences")
    assert code == 0
    obj = json_value(out)
    assert obj["good_initial_count"] == 64
    assert obj["partial"] is False
    assert obj["initial_count"] == 309237645312
    graph = blow_down(sigma_star((9, 17, 19)))
    assert len(obj["sequences"]) == 64
    for seq, initial in zip(obj["sequences"], obj["good_initials"]):
        states = tuple(Association(graph, tuple(s)) for s in seq["states"])
        assert list(states[0].values) == initial
        assert is_good_sequence(GoodSequence(states, tuple(seq["moved"])))


def test_brieskorn_not_coprime_exits_1(capsys):
    code, out, err = run(capsys, "brieskorn", "2", "4", "5")
    assert code == 1
    assert "NotCoprime" in err


def test_survey_defaults_match_explicit_flags(capsys, monkeypatch):
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)

    def rows(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in json.loads(out)]

    assert rows("all-minus-two") == rows("all-minus-two", "--max-p", "12")
    assert rows("survey") == rows("survey", "--max-a", "30", "--early-stop", "2")


@pytest.mark.parametrize(
    "argv, sample",
    [(["--max-a", "20"], "50"), (["--full", "--max-a", "12"], "20")],
    ids=["max-a-20", "full-max-a-12"],
)
def test_survey_brieskorn_with_cache(tmp_path, capsys, argv, sample):
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "survey", *argv, "--cache", str(cache))
    assert code == 0
    rows = json.loads(out)
    assert {tuple(r["params"]): r["verdict"] for r in rows}[(2, 3, 5)] == "trivial-rank"
    first = cache.read_text(encoding="ascii")
    lines = first.splitlines()
    assert len(lines) == len(rows)
    for line in lines:
        assert line == json.dumps(json.loads(line), separators=(",", ":"), sort_keys=True)

    # rerun reuses the cache without growing it, and reverify agrees
    code, warm, _ = run(capsys, "survey", *argv, "--cache", str(cache), "--reverify-sample", sample)
    assert code == 0
    assert warm == out
    assert cache.read_text() == first


def test_survey_reverify_names_each_tampered_record_and_exits_1(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "survey", "--max-a", "7", "--cache", str(cache))
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert code == 0 and len(records) == len(json.loads(out)) == 8
    # two records that still load, each with a fact that a recount contradicts
    assert (records[0]["good_initial_count"], records[0]["partial"]) == (1, False)
    records[0]["good_initial_count"] = 0
    initials = records[1]["initial_count"]
    records[1]["initial_count"] += 1
    cache.write_text("".join(json.dumps(r, separators=(",", ":"), sort_keys=True) + "\n" for r in records))
    code, rerun, err = run(capsys, "survey", "--max-a", "7", "--cache", str(cache), "--reverify-sample", "8")
    assert code == 1
    assert [r["params"] for r in json.loads(rerun)] == [r["params"] for r in json.loads(out)]
    assert sorted(err.splitlines()) == sorted([
        f"cache mismatch for {records[0]['graph_hash'][:12]} (early_stop 2): good_initial_count: cached 0, recomputed 1",
        f"cache mismatch for {records[1]['graph_hash'][:12]} (early_stop 2): "
        f"initial_count: cached {initials + 1}, recomputed {initials}",
    ])


def test_survey_torn_cache_exits_1(tmp_path, capsys):
    # a torn line that a newline terminated is refused: only a last line is skipped as torn
    cache = tmp_path / "cache.jsonl"
    run(capsys, "survey", "--max-a", "6", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    cache.write_text("\n".join(lines[:-1] + [lines[-1][:40]]) + "\n")
    code, out, err = run(capsys, "survey", "--max-a", "6", "--cache", str(cache))
    assert code == 1
    assert out == ""
    assert f"ParseError: {cache}:{len(lines)}:" in err


def test_survey_skips_a_torn_last_cache_line_and_cuts_it(tmp_path, capsys):
    """A killed survey leaves a last line without its newline; a rerun says
    so on stderr, keeps its exit code, and leaves the bytes of a run that
    was never killed."""
    clean, torn = tmp_path / "clean.jsonl", tmp_path / "torn.jsonl"
    for path in (clean, torn):
        code, out, err = run(capsys, "survey", "--max-a", "9", "--cache", str(path))
        assert (code, err) == (0, "")
    data = torn.read_bytes()
    start = data.rindex(b"\n", 0, -1) + 1
    torn.write_bytes(data[: start + (len(data) - start) // 2])  # torn mid-line
    code, rerun, err = run(capsys, "survey", "--max-a", "9", "--cache", str(torn))
    assert (code, rerun) == (0, out)
    assert err == f"plumbhf: {torn}:{len(data.splitlines())}: skipped a torn last cache record\n"
    assert torn.read_bytes() == clean.read_bytes() == data
    assert run(capsys, "survey", "--max-a", "9", "--cache", str(torn)) == (0, out, "")
    assert torn.read_bytes() == data


def test_survey_non_utf8_cache_line_exits_1(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "survey", "--max-a", "6", "--cache", str(cache))
    lines = cache.read_bytes().splitlines()
    cache.write_bytes(b"\n".join([*lines, b'{"graph_hash": "\xff"}']) + b"\n")
    code, out, err = run(capsys, "survey", "--max-a", "6", "--cache", str(cache))
    assert code == 1
    assert out == ""
    assert f"ParseError: {cache}:{len(lines) + 1}: bad cache record (UnicodeDecodeError" in err


def test_survey_deeply_nested_cache_line_exits_1(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "survey", "--max-a", "6", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    cache.write_text("\n".join([lines[0], "[" * 100_000 + "]" * 100_000, *lines[1:]]) + "\n")
    code, out, err = run(capsys, "survey", "--max-a", "6", "--cache", str(cache))
    assert code == 1
    assert out == ""
    assert f"ParseError: {cache}:2: bad cache record (RecursionError" in err


def test_survey_cache_env_var(tmp_path, capsys, monkeypatch):
    env_cache = tmp_path / "env.jsonl"
    monkeypatch.setenv("PLUMB_HF_CACHE", str(env_cache))
    code, _, _ = run(capsys, "survey", "--max-a", "6")
    assert code == 0
    assert env_cache.exists()

    # an explicit flag wins over the environment
    flag_cache = tmp_path / "flag.jsonl"
    before = env_cache.read_text()
    code, _, _ = run(capsys, "survey", "--max-a", "6", "--cache", str(flag_cache))
    assert code == 0
    assert flag_cache.exists()
    assert env_cache.read_text() == before


def test_survey_all_minus_two_ignores_env_cache(tmp_path, capsys, monkeypatch):
    torn = tmp_path / "torn.jsonl"
    torn.write_text('{"graph_hash": "ab')
    monkeypatch.setenv("PLUMB_HF_CACHE", str(torn))
    code, out, _ = run(capsys, "all-minus-two", "--max-p", "6")
    assert code == 0
    assert json.loads(out)
    assert torn.read_text() == '{"graph_hash": "ab'


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "emission-fails"])
def test_survey_closes_its_cache(tmp_path, capsys, monkeypatch, fails):
    """No handle is left for the garbage collector, also when emission fails."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    path = tmp_path / "cache.jsonl"
    argv = ["survey", "--max-a", "7", "--cache", str(path)]
    if fails:
        argv += ["--output", str(tmp_path / "missing" / "rows.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == (1 if fails else 0)
        gc.collect()
    assert unraisable == []
    assert len(path.read_text().splitlines()) == 8  # one record per row of a <= 7
    capsys.readouterr()


def test_survey_no_cache_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)
    code, _, _ = run(capsys, "survey", "--max-a", "6")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def _csv_cell(value):
    """The documented CSV rendering of a JSON value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(" ".join(map(str, v)) if isinstance(v, list) else str(v) for v in value)
    return str(value)


@pytest.mark.parametrize(
    "argv, good",
    [
        (["brieskorn", "2", "3", "7"], 2),
        (["brieskorn", "2", "3", "7", "--early-stop", "2"], 2),
        (["brieskorn", "9", "17", "19"], 64),
        (["brieskorn", "2", "3"], 1),  # the empty graph: one empty initial
        (["analyze", "{singular}"], 0),
        (["survey", "--max-a", "40"], None),  # 2,518 rows
        (["s3", "--bound", "40"], None),
        (["all-minus-two", "--max-p", "5"], None),
    ],
    ids=[
        "2-3-7", "2-3-7-stop-2", "9-17-19", "2-3", "no-good-initial",
        "survey-40", "s3-40", "all-minus-two-5",
    ],
)
def test_every_report_cell_agrees_with_json(tmp_path, capsys, argv, good):
    argv = [a.format(singular=graph_file(tmp_path, chain(-2, -1, -2))) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the singular chain is not definite
        _, json_out, _ = run(capsys, *argv)
        _, csv_out, _ = run(capsys, *argv, "--format", "csv")
    objs = json_value(json_out)
    objs = objs if isinstance(objs, list) else [objs]
    lines = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(lines) == len(objs) > 0
    if good is not None:
        [obj], [line] = objs, lines
        assert ("verdict" in line) == (argv[0] == "brieskorn")
        assert len(obj["good_initials"]) == obj["good_initial_count"] == good
        assert line["good_initials"] == ";".join(" ".join(map(str, v)) for v in obj["good_initials"])
    for obj, line in zip(objs, lines):
        assert list(line) == list(obj)
        for key, value in obj.items():
            if key != "elapsed_ms":  # a timing, from two separate runs
                assert line[key] == _csv_cell(value), key


def test_empty_survey_csv_is_the_header_alone(capsys):
    # the one tuple, (2, 3, 4), is not pairwise coprime
    code, out, _ = run(capsys, "survey", "--max-a", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert next(csv.reader(lines)) == list(SurveyRow._fields)
    code, out, _ = run(capsys, "survey", "--max-a", "4")
    assert json.loads(out) == []


def test_s3_harness(capsys):
    code, out, _ = run(capsys, "s3", "--bound", "8")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    for row in rows:
        assert row["unique_good_initial"]
        assert row["reversal_is_good"]
    # the whole harness to bound 40 as a command: exit 1 names a failing row
    argv = [sys.executable, "-m", "plumbhf", "s3", "--bound", "40"]
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_s3_exits_1_and_names_a_failing_quadruple(capsys, monkeypatch):
    import plumbhf.s3

    rows = plumbhf.s3.s3_rows(8)
    rows[1] = S3Row(**{**vars(rows[1]), "bumped_sums_hold": False, "reversal_is_good": False})
    monkeypatch.setattr(plumbhf.s3, "s3_rows", lambda bound: rows)
    code, out, err = run(capsys, "s3", "--bound", "8")
    assert code == 1
    assert len(json.loads(out)) == 4  # the rows are still emitted
    assert err == f"plumbhf: s3 {rows[1].quadruple} fails bumped_sums_hold, reversal_is_good\n"


def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)
    cache = str(tmp_path / "cache.jsonl")
    for argv in (
        ["analyze"],  # missing file argument
        ["survey", "--format", "xml"],
        [],
        ["survey", "--max-a", "6", "--reverify-sample", "3"],  # no cache to reverify
        ["survey", "--early-stop", "0"],
        ["brieskorn", "2", "3", "5", "--early-stop", "-1"],
        # a partial count of 1 settles no verdict
        ["survey", "--max-a", "7", "--early-stop", "1"],
        ["brieskorn", "2", "3", "7", "--early-stop", "1"],
        # all-minus-two never reads or writes a cache
        ["all-minus-two", "--cache", cache],
        ["all-minus-two", "--reverify-sample", "3"],
        ["all-minus-two", "--cache", cache, "--reverify-sample", "3"],
        ["survey", "--max-a", "6", "--cache", cache, "--reverify-sample", "-3"],
        # each subcommand rejects the flags it does not read
        ["all-minus-two", "--max-a", "3"],
        ["all-minus-two", "--early-stop", "5"],
        ["all-minus-two", "--full"],
        ["survey", "--max-p", "6"],
        ["survey", "--max-a", "6", "--max-p", "6"],
        ["survey", "--mode", "brieskorn"],
        ["analyze", "graph.json", "--full"],  # a full scan is the default
        ["brieskorn", "2", "3", "5", "--full"],
        # an early stop equal to the default still conflicts with --full
        ["survey", "--early-stop", "2", "--full"],
        ["survey", "--full", "--early-stop", "2"],
        # integer flags below 1 would sweep nothing or fail late
        ["survey", "--max-a", "0"],
        ["survey", "--max-a", "x"],  # not an integer at all
        ["all-minus-two", "--max-p", "-3"],
        ["all-minus-two", "--rays", "0"],
        ["survey", "--rays", "-1"],
        # one or two fibers give S^3, whose count of 1 never meets the early stop
        ["survey", "--rays", "2"],
        ["brieskorn", "1", "3", "5"],  # a multiplicity below 2 is no singular fiber
        ["s3", "--bound", "4"],  # the smallest sphere quadruple has a1 + a2 = 5
        # CSV has no column for witness sequences
        ["analyze", "graph.json", "--emit-sequences", "--format", "csv"],
        ["brieskorn", "2", "3", "7", "--format", "csv", "--emit-sequences"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        # the usage line is the subcommand's, flag conflicts included
        usage = f"usage: plumbhf {argv[0]} " if argv else "usage: plumbhf [-h]"
        assert capsys.readouterr().err.startswith(usage), argv
    assert list(tmp_path.iterdir()) == []


SUBCOMMANDS = ("analyze", "brieskorn", "survey", "all-minus-two", "s3")


def test_help_exits_0(capsys):
    for argv in ([], *([name] for name in SUBCOMMANDS)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0, argv
        out = capsys.readouterr().out
        assert out.startswith(f"usage: plumbhf {' '.join(argv)}".rstrip() + " "), argv
    # the top-level usage names exactly these subcommands
    assert "{" + ",".join(SUBCOMMANDS) + "}" in build_parser().format_usage()


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [line for b in blocks for line in b.splitlines() if line.startswith("plumbhf ")]
    assert {shlex.split(line)[1] for line in lines} == set(SUBCOMMANDS)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_missing_file_exits_1(capsys):
    code, out, err = run(capsys, "analyze", "/nonexistent/graph.json")
    assert code == 1
    assert err


def _child_env(**env):
    """This environment plus ``env``, with the package's source importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": path, **env}


def _c_locale_env():
    """A C locale, in which the interpreter's own stdout encoding is ASCII."""
    return _child_env(LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")


def test_output_is_utf8_whatever_the_locale(tmp_path):
    """Under a C locale the interpreter's own encoding is ASCII; stdout and
    --output still get UTF-8, so a name beyond ASCII reaches the CSV."""
    name = "\u03a3 e8 \u2603"
    path = graph_file(tmp_path, star(-2, [-2] * 4, [-2] * 2, [-2], name=name))
    out = tmp_path / "report.csv"
    argv = [sys.executable, "-m", "plumbhf", "analyze", path, "--format", "csv"]
    for output in ([], ["--output", str(out)]):
        proc = subprocess.run(argv + output, env=_c_locale_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr
        text = (out.read_bytes() if output else proc.stdout).decode("utf-8")
        line = next(csv.DictReader(io.StringIO(text)))
        assert line["name"] == name and line["good_initial_count"] == "1"


def test_stdout_without_a_binary_layer_takes_the_text(monkeypatch):
    """A caller that redirects stdout to an io.StringIO gets the text."""
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["brieskorn", "2", "3", "5", "--format", "csv"]) == 0
    assert next(csv.DictReader(io.StringIO(out.getvalue())))["verdict"] == "trivial-rank"


def test_a_binary_layer_that_takes_part_of_each_write_gets_every_byte(capsys, monkeypatch):
    """A raw file (stdout under python -u) may write fewer bytes than given."""
    _, out, _ = run(capsys, "survey", "--max-a", "12")
    got = bytearray()

    def write(data):
        got.extend(data[:4096])
        return min(len(data), 4096)

    raw = SimpleNamespace(flush=lambda: None, buffer=SimpleNamespace(write=write))
    monkeypatch.setattr(sys, "stdout", raw)
    assert main(["survey", "--max-a", "12"]) == 0
    assert len(got) > 4096 and got == out.encode()


def test_an_unbuffered_stdout_closed_early_exits_1():
    """The reader takes 10 bytes of about 2 MB and closes the pipe."""
    argv = [sys.executable, "-m", "plumbhf", "survey", "--max-a", "60"]
    env = _child_env(PYTHONUNBUFFERED="1")
    pipe = subprocess.PIPE
    proc = subprocess.Popen(argv, env=env, stdout=pipe, stderr=pipe, text=True)
    proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and "BrokenPipeError" in err, err


def test_a_survey_killed_outright_leaves_no_worker_running(tmp_path):
    """SIGTERM ends a split survey's process with no cleanup run; its worker
    exits before its next tuple, so a pipe end that both inherited is closed
    well before the worker's half (about 10 s of CPU) could be done."""
    cache = tmp_path / "cache.jsonl"
    argv = [sys.executable, "-m", "plumbhf", "survey", "--full", "--max-a", "30", "--cache", str(cache)]
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        argv, env=_child_env(), stdout=subprocess.DEVNULL, start_new_session=True, pass_fds=[write_end]
    )
    os.close(write_end)
    try:
        with time_limit(60):
            while not (cache.exists() and cache.stat().st_size):  # the worker is forked before any row
                assert proc.poll() is None, "the survey ended before its first cache line"
                time.sleep(0.01)
        os.kill(proc.pid, signal.SIGTERM)  # the survey's process alone
        assert select.select([read_end], [], [], 3)[0], "the pipe is still open 3 s after the kill"
        assert os.read(read_end, 1) == b""  # end of file: every holder of the write end has exited
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        os.close(read_end)


@pytest.mark.skipif(sys.platform == "win32", reason="needs a POSIX file size limit")
def test_a_failed_output_write_leaves_the_target_as_it_was(tmp_path):
    """A file size limit fails the write of --output part way (EFBIG); the
    old file keeps its bytes and no temp file is left beside it."""
    dest = tmp_path / "rows.json"
    dest.write_bytes(b"old bytes\n")
    limit = 4096  # survey --max-a 12 writes about 7 kB
    child = (
        "import resource, signal, sys\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
        "from plumbhf.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["survey", "--max-a", "12", "--output", str(dest)]
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv], env=_c_locale_env(), capture_output=True, text=True
    )
    assert proc.returncode == 1 and "File too large" in proc.stderr, proc.stderr
    assert dest.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.json"]
    assert main(argv) == 0 and len(json.loads(dest.read_text(encoding="utf-8"))) == 45
    assert [p.name for p in tmp_path.iterdir()] == ["rows.json"]


def test_a_failed_self_check_exits_1_naming_the_row(capsys, monkeypatch):
    """A play that the engine itself then refuses is its fault, not the
    row's: the survey stops with exit 1, its message naming the row."""
    from plumbhf.game import AssociationGame

    monkeypatch.setattr(AssociationGame, "_play", lambda self, offsets: None)
    code, out, err = run(capsys, "survey", "--full", "--max-a", "7")
    assert code == 1 and out == ""
    assert "SelfCheckError: Sigma(2, 3, 5): tau minimum with offsets" in err, err


def test_a_failed_self_check_in_a_recheck_exits_1_naming_the_row(tmp_path, capsys, monkeypatch):
    """A --reverify-sample count takes its record from the survey's own
    step, so an engine fault there names the row as a survey row's does."""
    from plumbhf.game import AssociationGame

    argv = ["survey", "--full", "--max-a", "7", "--cache", str(tmp_path / "c.jsonl")]
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(AssociationGame, "_play", lambda self, offsets: None)
    code, out, err = run(capsys, *argv, "--reverify-sample", "20")
    assert code == 1 and out == cold  # every row a cache hit: the recheck is the first count
    assert "SelfCheckError: Sigma(5, 6, 7): tau minimum with offsets" in err, err


@pytest.mark.parametrize("flags", [None, [], ["-W", "error"]], ids=["main", "python-m", "python-W-error"])
def test_the_domain_warning_is_one_stderr_line(tmp_path, capsys, flags):
    """In process or as ``python -m plumbhf``, whose first frame outside
    the package is runpy's, the warning is one line naming the graph.
    Under ``-W error`` it is an error: one line, exit 1 and no output."""
    path = graph_file(tmp_path, build_graph([-2, -1, -2], [(0, 1), (1, 2)], name="singular"))
    if flags is None:
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # the interpreter's own action, also under -W error
            code, out, err = run(capsys, "analyze", path)
    else:
        argv = [sys.executable, *flags, "-m", "plumbhf", "analyze", path]
        proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=60)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    message = ("graph 'singular' is outside the validity domain (negative definite, "
               "at most one bad vertex); game counts are not HF+ ranks here")
    if flags == ["-W", "error"]:
        assert (code, out, err) == (1, "", f"plumbhf: UserWarning: {message}\n")
    else:
        assert (code, json.loads(out)["good_initial_count"]) == (0, 0)
        assert err == f"plumbhf: warning: {message}\n"


@pytest.mark.parametrize(
    "flags, module",
    [([], "plumbhf"), ([], "plumbhf.cli"), (["-X", "dev", "-W", "error"], "plumbhf.cli")],
    ids=["plumbhf", "plumbhf.cli", "plumbhf.cli-X-dev-W-error"],
)
def test_module_entry_point(flags, module):
    """``python -m plumbhf`` runs; ``python -m plumbhf.cli`` refuses with one
    line naming the module entry, also under ``-X dev -W error``."""
    argv = [sys.executable, *flags, "-m", module, "brieskorn", "2", "3", "5", "--early-stop", "2"]
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=60)
    if module == "plumbhf":
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["good_initial_count"] == 1
    else:
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "plumbhf: the module entry is python -m plumbhf, not python -m plumbhf.cli\n"
