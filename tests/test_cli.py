import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from plumbhf.cli import build_parser, main
from plumbhf.game import Association, GoodSequence, is_good_sequence
from plumbhf.graph import blow_down, build_graph
from plumbhf.report import S3Row, SurveyRow
from plumbhf.seifert import sigma_star
from support import chain, e8, write_graph_file


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_analyze_csv_same_data(tmp_path, capsys):
    path = graph_file(tmp_path, e8())
    code, out, _ = run(capsys, "analyze", path)
    obj = json.loads(out)
    code, out, _ = run(capsys, "analyze", path, "--format", "csv")
    assert code == 0
    line = next(csv.DictReader(io.StringIO(out)))
    for key in ("det", "good_initial_count", "initial_count", "vertex_count"):
        assert line[key] == str(obj[key])
    assert line["graph_hash"] == obj["graph_hash"]


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
    code, out, _ = run(capsys, "brieskorn", "9", "17", "19", "--emit-sequences")
    assert code == 0
    obj = json.loads(out)
    assert obj["good_initial_count"] == 64
    assert obj["partial"] is False
    assert obj["initial_count"] == 309237645312
    graph = blow_down(sigma_star((9, 17, 19)))
    assert len(obj["sequences"]) == 64
    for seq, initial in zip(obj["sequences"], obj["good_initials"]):
        states = tuple(Association(graph, tuple(s)) for s in seq["states"])
        assert list(states[0].values) == initial
        assert is_good_sequence(GoodSequence(states, tuple(seq["moved"])))


def test_brieskorn_csv_carries_the_json_verdict(capsys):
    for argv in (["2", "3", "5"], ["2", "3", "7", "--early-stop", "2"]):
        code, out, _ = run(capsys, "brieskorn", *argv)
        obj = json.loads(out)
        code, out, _ = run(capsys, "brieskorn", *argv, "--format", "csv")
        assert code == 0
        header, line = list(csv.reader(io.StringIO(out)))
        assert header[-1] == "verdict"
        assert line[-1] == obj["verdict"]
        assert header[:-1] == [k for k in obj if k not in ("sequences", "verdict")]


def test_brieskorn_not_coprime_exits_1(capsys):
    code, out, err = run(capsys, "brieskorn", "2", "4", "5")
    assert code == 1
    assert "NotCoprime" in err


def test_survey_all_minus_two(capsys):
    code, out, _ = run(capsys, "all-minus-two", "--max-p", "12")
    assert code == 0
    rows = json.loads(out)
    hits = [r["params"] for r in rows if r["verdict"] == "solution"]
    assert hits == [[1, 2, 4]]


def test_survey_defaults_match_explicit_flags(capsys, monkeypatch):
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)

    def rows(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in json.loads(out)]

    assert rows("all-minus-two") == rows("all-minus-two", "--max-p", "12")
    assert rows("survey") == rows("survey", "--max-a", "30", "--early-stop", "2")


def test_survey_brieskorn_with_cache(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "survey", "--max-a", "7", "--cache", str(cache))
    assert code == 0
    rows = json.loads(out)
    assert {tuple(r["params"]): r["verdict"] for r in rows}[(2, 3, 5)] == "trivial-rank"
    first = cache.read_text()
    assert first

    # rerun reuses the cache without growing it, and reverify agrees
    code, out, _ = run(
        capsys, "survey", "--max-a", "7", "--cache", str(cache), "--reverify-sample", "5"
    )
    assert code == 0
    assert json.loads(out) == rows
    assert cache.read_text() == first


def test_survey_torn_cache_exits_1(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "survey", "--max-a", "6", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    cache.write_text("\n".join(lines[:-1] + [lines[-1][:40]]) + "\n")
    code, out, err = run(capsys, "survey", "--max-a", "6", "--cache", str(cache))
    assert code == 1
    assert out == ""
    assert f"ParseError: {cache}:{len(lines)}:" in err


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


def test_survey_no_cache_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PLUMB_HF_CACHE", raising=False)
    code, _, _ = run(capsys, "survey", "--max-a", "6")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_survey_csv_matches_json(capsys):
    code, json_out, _ = run(capsys, "all-minus-two", "--max-p", "5")
    code, csv_out, _ = run(capsys, "all-minus-two", "--max-p", "5", "--format", "csv")
    rows = json.loads(json_out)
    lines = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(lines)
    for obj, line in zip(rows, lines):
        assert line["params"] == ";".join(str(x) for x in obj["params"])
        assert line["verdict"] == obj["verdict"]


def test_empty_survey_csv_is_the_header_alone(capsys):
    # the one tuple, (2, 3, 4), is not pairwise coprime
    code, out, _ = run(capsys, "survey", "--max-a", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert next(csv.reader(lines)) == list(SurveyRow(params=(2, 3, 5), verdict="x").to_obj())
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


def test_s3_exits_1_and_names_a_failing_quadruple(capsys, monkeypatch):
    import plumbhf.cli

    rows = plumbhf.cli.s3_rows(8)
    rows[1] = S3Row(**{**vars(rows[1]), "bumped_sums_hold": False, "reversal_is_good": False})
    monkeypatch.setattr(plumbhf.cli, "s3_rows", lambda bound: rows)
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


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "plumbhf", "brieskorn", "2", "3", "5", "--early-stop", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["good_initial_count"] == 1
