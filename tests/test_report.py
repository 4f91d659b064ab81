import csv
import io
import json
from functools import cached_property

import pytest

import plumbhf.report
import plumbhf.seifert
from plumbhf import (
    ParseError,
    PlumbingGraph,
    S3Row,
    SurveyRow,
    analyze,
    survey_all_minus_two,
    survey_brieskorn,
)
from plumbhf.report import (
    ResultCache,
    brieskorn_row,
    report_to_csv,
    reverify_cache,
    rows_to_csv,
    s3_rows,
)
from support import e8


def test_analyze_report_fields():
    r = analyze(e8())
    assert r.det == 1
    assert r.negative_definite
    assert r.bad_vertices == (0,)
    assert r.is_homology_sphere
    assert r.vertex_count == 8
    assert r.initial_count == 256
    assert r.good_initial_count == 1
    assert not r.partial
    assert r.good_initials == (tuple([0] * 8),)
    assert r.elapsed_ms >= 0
    assert r.sequences is None
    obj = r.to_obj()
    assert obj["good_initial_count"] == 1
    assert "assumes_independent_generators" in obj
    json.dumps(obj)  # must be serializable as is
    # a frozen value: every field, the default note and sequences included, in order
    assert list(obj) == [name for name in r._fields if name != "sequences"]
    assert repr(r).startswith("AnalysisReport(name='e8', graph_hash=")
    assert all(f"{name}={getattr(r, name)!r}" in repr(r) for name in r._fields)
    with pytest.raises(AttributeError):
        r.good_initial_count = 2


def test_analyze_emits_sequences_on_request():
    r = analyze(e8(), emit_sequences=True)
    assert r.sequences is not None
    assert list(r.to_obj())[-3:] == ["early_stop", "assumes_independent_generators", "sequences"]
    seq = r.sequences[0]
    assert seq["states"][0] == [0] * 8
    assert seq["moved"] == []


def test_analyze_early_stop_sets_partial():
    r = analyze(e8(), early_stop=1)
    assert r.good_initial_count == 1
    assert r.partial
    assert r.early_stop == 1


def test_survey_brieskorn_small():
    rows = survey_brieskorn(max_a=7, rays=3)
    by_params = {r.params: r for r in rows}
    assert by_params[(2, 3, 5)].verdict == "trivial-rank"
    assert by_params[(2, 3, 5)].count == 1
    assert by_params[(2, 3, 7)].verdict == "nontrivial"
    assert all(r.verdict == "nontrivial" for p, r in by_params.items() if p != (2, 3, 5))
    # pairwise-coprime tuples only
    assert (2, 4, 5) not in by_params
    assert (2, 4, 7) not in by_params


def test_survey_all_minus_two_exact():
    rows = survey_all_minus_two(max_p=12, rays=3)
    solutions = [r.params for r in rows if r.verdict == "solution"]
    assert solutions == [(1, 2, 4)]
    for rays in (4, 5, 6):
        rows = survey_all_minus_two(max_p=12, rays=rays)
        assert all(r.verdict == "non-solution" for r in rows)


def test_s3_rows_all_pass_small():
    rows = s3_rows(8)
    assert rows
    for row in rows:
        assert row.all_pass()
        assert row.count == 1
        assert row.central_moves == row.quadruple[0] + row.quadruple[2] - 1


def test_cache_reuse_and_append(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    rows1 = survey_brieskorn(max_a=7, rays=3, cache=cache)
    lines1 = path.read_text().splitlines()
    assert len(lines1) == len(rows1)

    # a fresh cache object reads the file back and prevents new appends
    cache2 = ResultCache(path)
    rows2 = survey_brieskorn(max_a=7, rays=3, cache=cache2)
    assert [r.to_obj() for r in rows2] == [r.to_obj() for r in rows1]
    assert path.read_text().splitlines() == lines1

    # a different early_stop is a different cache key
    rows3 = survey_brieskorn(max_a=7, rays=3, early_stop=None, cache=cache2)
    lines3 = path.read_text().splitlines()
    assert len(lines3) == 2 * len(rows1)
    assert [r.params for r in rows3] == [r.params for r in rows1]


def test_cache_makes_its_directory_on_the_first_put_only(tmp_path, monkeypatch):
    path = tmp_path / "new" / "dir" / "cache.jsonl"
    rows = survey_brieskorn(max_a=7, rays=3, cache=ResultCache(path))
    assert len(path.read_text().splitlines()) == len(rows) > 1
    made = []
    mkdir = plumbhf.report.Path.mkdir

    def counted(directory, **kwargs):
        made.append(directory)
        return mkdir(directory, **kwargs)

    monkeypatch.setattr(plumbhf.report.Path, "mkdir", counted)
    other = tmp_path / "new" / "other.jsonl"
    survey_brieskorn(max_a=7, rays=3, cache=ResultCache(other))
    assert made == [other.parent]
    assert len(other.read_text().splitlines()) == len(rows)


def test_survey_needs_three_rays():
    # one or two fibers give S^3: its count of 1 never meets the early stop
    for rays in (1, 2):
        with pytest.raises(ValueError, match="rays must be at least 3"):
            survey_brieskorn(max_a=5, rays=rays)


def test_cache_reverify_flags_tampering(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    rows = survey_brieskorn(max_a=7, rays=3, cache=cache)
    assert reverify_cache(cache, rows, sample=len(rows)) == []

    # corrupt one stored count and reload
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[0]["good_initial_count"] += 5
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    tampered = ResultCache(path)
    problems = reverify_cache(tampered, rows, sample=len(rows))
    assert len(problems) == 1
    assert "mismatch" in problems[0]


def test_cache_reverify_covers_every_early_stop_of_a_graph(tmp_path):
    cache = ResultCache(tmp_path / "cache.jsonl")
    survey_brieskorn(max_a=7, rays=3, early_stop=None, cache=cache)
    rows = survey_brieskorn(max_a=7, rays=3, cache=cache)
    assert len(cache.records) == 2 * len(rows)
    assert reverify_cache(cache, rows, sample=len(cache.records)) == []
    # rows of another run cannot be rebuilt, so their records are not eligible
    assert reverify_cache(cache, survey_brieskorn(max_a=7, rays=4), sample=5) == []


@pytest.mark.parametrize(
    "last_line, message",
    [
        ('{"det":1,"early_stop":2,"good_initial_count', "JSONDecodeError"),
        ('{"det":1,"good_initial_count":1,"graph_hash":"ab","partial":false}', "KeyError: 'early_stop'"),
        ("[1, 2]", "TypeError"),
        ('{"early_stop":2,"graph_hash":[1]}', "graph_hash has the wrong type"),
        ('{"early_stop":2,"graph_hash":"ab"}', "KeyError: 'good_initial_count'"),
        ('{"early_stop":2,"good_initial_count":1,"graph_hash":"ab"}', "KeyError: 'partial'"),
        (
            '{"early_stop":2,"good_initial_count":"7","graph_hash":"ab","partial":false}',
            "good_initial_count has the wrong type",
        ),
        (
            '{"early_stop":2,"good_initial_count":1,"graph_hash":"ab","partial":0}',
            "partial has the wrong type",
        ),
        (
            '{"early_stop":0,"good_initial_count":1,"graph_hash":"ab","partial":false}',
            "early_stop has the wrong type or value: 0",
        ),
        (
            '{"early_stop":true,"good_initial_count":1,"graph_hash":"ab","partial":false}',
            "early_stop has the wrong type",
        ),
    ],
)
def test_cache_malformed_record_names_path_and_line(tmp_path, last_line, message):
    path = tmp_path / "cache.jsonl"
    survey_brieskorn(max_a=6, rays=3, cache=ResultCache(path))
    good = path.read_text().splitlines()
    path.write_text("\n".join(good + ["", last_line]) + "\n")
    with pytest.raises(ParseError) as exc:
        ResultCache(path)
    assert f"{path}:{len(good) + 2}:" in str(exc.value)
    assert message in str(exc.value)


def test_csv_and_json_rows_carry_identical_data():
    rows = survey_brieskorn(max_a=7, rays=3)
    objs = [r.to_obj() for r in rows]
    parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows, SurveyRow))))
    assert len(parsed) == len(objs)
    assert list(parsed[0]) == ["params", "verdict", "count", "partial", "graph_hash", "reason"]
    for obj, line in zip(objs, parsed):
        assert line["params"] == ";".join(str(x) for x in obj["params"])
        assert line["verdict"] == obj["verdict"]
        assert line["count"] == ("" if obj["count"] is None else str(obj["count"]))
        assert line["partial"] == ("true" if obj["partial"] else "false")
        assert line["graph_hash"] == (obj["graph_hash"] or "")


def test_report_csv_matches_json_fields():
    r = analyze(e8())
    obj = r.to_obj()
    parsed = list(csv.DictReader(io.StringIO(report_to_csv(r))))
    assert len(parsed) == 1
    line = parsed[0]
    assert list(line) == [
        "name",
        "graph_hash",
        "vertex_count",
        "det",
        "negative_definite",
        "bad_vertices",
        "is_homology_sphere",
        "initial_count",
        "good_initial_count",
        "partial",
        "good_initials",
        "elapsed_ms",
        "early_stop",
        "assumes_independent_generators",
    ]
    assert line["det"] == str(obj["det"])
    assert line["graph_hash"] == obj["graph_hash"]
    assert line["good_initial_count"] == str(obj["good_initial_count"])
    assert line["bad_vertices"] == ";".join(str(v) for v in obj["bad_vertices"])
    assert line["negative_definite"] == "true"


def test_s3_csv_columns_and_values():
    rows = s3_rows(8)
    parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows, S3Row))))
    assert list(parsed[0]) == [
        "quadruple",
        "unique_good_initial",
        "bumped_sums_hold",
        "central_count_matches",
        "pairing_jumps_match",
        "reversal_is_good",
        "count",
        "central_moves",
    ]
    for row, line in zip(rows, parsed):
        assert line["quadruple"] == ";".join(str(x) for x in row.quadruple)
        assert line["count"] == str(row.count)


def test_brieskorn_row_skips_invalid_tuples():
    row = brieskorn_row((2, 4, 5))
    assert row.verdict == "skipped"
    assert "NotCoprime" in row.reason


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name (a function or a cached_property) to record its calls."""
    calls = []
    orig = vars(owner)[name]
    func = orig.func if isinstance(orig, cached_property) else orig

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    if isinstance(orig, cached_property):
        counted = cached_property(counted)
        counted.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_survey_row_builds_sweeps_and_hashes_once(tmp_path, monkeypatch):
    stars = _count_calls(monkeypatch, plumbhf.seifert, "star_graph")
    sweeps = _count_calls(monkeypatch, PlumbingGraph, "forms")
    hashes = _count_calls(monkeypatch, PlumbingGraph, "canonical_hash")
    cache = ResultCache(tmp_path / "cache.jsonl")
    cold = survey_brieskorn(max_a=12, cache=cache)
    assert len(cold) == 45 and all(r.verdict != "skipped" for r in cold)
    assert len(stars) == len(sweeps) == len(hashes) == len(cold)

    def no_game(graph):
        raise AssertionError("a warm row ran the game")

    monkeypatch.setattr(plumbhf.report, "AssociationGame", no_game)
    del stars[:], sweeps[:], hashes[:]
    warm = survey_brieskorn(max_a=12, cache=cache)
    assert [r.to_obj() for r in warm] == [r.to_obj() for r in cold]
    assert len(stars) == len(sweeps) == len(hashes) == len(warm)
