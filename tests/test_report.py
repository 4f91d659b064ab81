import errno
import json
import marshal
import os
import re
import signal
import threading
import time
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

import plumbhf.graph
import plumbhf.report
import plumbhf.s3
import plumbhf.seifert
from plumbhf.errors import NotCoprimeError, ParseError, SelfCheckError
from plumbhf.game import AssociationGame
from plumbhf.graph import PlumbingGraph, build_graph
from plumbhf.report import (
    CountRecord,
    ResultCache,
    analyze,
    brieskorn_row,
    json_text,
    reverify_cache,
    survey_brieskorn,
)
from plumbhf.s3 import S3Row, s3_rows
from plumbhf.seifert import star_graph
from support import coprime_pairs, descent_verdict, e8, time_limit


# (last line of a cache, what its ParseError says): lines no count writes
MALFORMED_RECORDS = [
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
        '{"early_stop":2,"good_initial_count":1,"graph_hash":"ab","initial_count":9,"partial":false}',
        "KeyError: 'det'",
    ),
    (
        '{"det":1,"early_stop":2,"good_initial_count":1,"graph_hash":"ab",'
        '"initial_count":"many","partial":false}',
        "initial_count has the wrong type or value: 'many'",
    ),
    (
        '{"early_stop":0,"good_initial_count":1,"graph_hash":"ab","partial":false}',
        "early_stop has the wrong type or value: 0",
    ),
    (
        '{"early_stop":true,"good_initial_count":1,"graph_hash":"ab","partial":false}',
        "early_stop has the wrong type",
    ),
    (  # a field no count writes, which would fail a reverify of a right count
        '{"det":1,"early_stop":2,"good_initial_count":1,"graph_hash":"ab","initial_count":9,'
        '"note":"x","partial":false}',
        "TypeError: unknown fields ['note']",
    ),
    # well-typed records that no count produces
    (
        '{"det":1,"early_stop":null,"good_initial_count":-3,"graph_hash":"ab","initial_count":9,"partial":false}',
        "good_initial_count has the wrong type or value: -3",
    ),
    (
        '{"det":1,"early_stop":null,"good_initial_count":7,"graph_hash":"ab","initial_count":9,"partial":true}',
        "ValueError: a partial count of 7 did not stop at early_stop None",
    ),
    (
        '{"det":1,"early_stop":2,"good_initial_count":7,"graph_hash":"ab","initial_count":9,"partial":false}',
        "ValueError: good_initial_count 7 exceeds early_stop 2",
    ),
    (
        '{"det":1,"early_stop":3,"good_initial_count":1,"graph_hash":"ab","initial_count":9,"partial":true}',
        "ValueError: a partial count of 1 did not stop at early_stop 3",
    ),
]


def _decodes(line: str) -> bool:
    try:
        json.loads(line)
    except ValueError:
        return False
    return True


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
    assert seq["states"][0] == (0,) * 8
    assert seq["moved"] == ()


def test_analyze_early_stop_sets_partial():
    r = analyze(e8(), early_stop=1)
    assert r.good_initial_count == 1
    assert r.partial
    assert r.early_stop == 1


def test_every_survey_verdict_matches_the_delta_descent():
    """A second route to each verdict: Nemethi's Delta from the Seifert
    invariants alone, with no graph, forms or game."""
    sizes = {}
    with time_limit(120):
        for a, rays in ((100, 3), (16, 4), (12, 5)):
            rows = survey_brieskorn(max_a=a, rays=rays)
            sizes[rays] = len(rows)
            for row in rows:
                assert row.verdict == descent_verdict(row.params), row
    assert sizes == {3: 44142, 4: 109, 5: 6}
    # two fibers give S^3, count 1: no descent
    pairs = coprime_pairs(60)
    assert len(pairs) == 492
    assert all(descent_verdict(p) == "trivial-rank" for p in pairs)


def test_homology_sphere_needs_a_connected_graph():
    # two isolated -1 vertices: |det| = 1, but the forest is not connected
    forest = build_graph([-1, -1], [])
    r = analyze(forest)
    assert r.det == 1
    assert not r.is_homology_sphere
    assert analyze(e8()).is_homology_sphere
    assert not analyze(build_graph([-2], [])).is_homology_sphere  # connected, |det| = 2


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_the_readme_cache_record_is_the_line_a_full_survey_writes(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Result cache", 1)[1]
    record = re.search(r"```\n(\{.*?\})\n```", section).group(1)
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        assert survey_brieskorn(max_a=5, early_stop=None, cache=cache)[0].params == (2, 3, 5)
    assert path.read_text().splitlines()[0] == record


def test_s3_rows_all_pass_small():
    rows = s3_rows(8)
    assert rows
    for row in rows:
        assert row.failures() == []
        assert row.count == 1
        assert row.central_moves == row.quadruple[0] + row.quadruple[2] - 1
    # the properties are the bool fields; a count or a move count of 0 is none
    five = ["unique_good_initial", "bumped_sums_hold", "central_count_matches", "pairing_jumps_match",
            "reversal_is_good"]
    failing = S3Row(**{**vars(rows[0]), **dict.fromkeys(five, False), "count": 0, "central_moves": 0})
    assert failing.failures() == five


def test_cache_reuse_and_append(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        rows1 = survey_brieskorn(max_a=7, rays=3, cache=cache)
    lines1 = path.read_text().splitlines()
    assert len(lines1) == len(rows1)

    # a fresh cache object reads the file back and prevents new appends
    with ResultCache(path) as cache2:
        rows2 = survey_brieskorn(max_a=7, rays=3, cache=cache2)
        assert rows2 == rows1
        assert path.read_text().splitlines() == lines1

        # a key the cache holds keeps its record and writes no second line
        held = next(iter(cache2.records.values()))
        cache2.put(CountRecord(**{**vars(held), "det": held.det + 1}))
        assert cache2.get(*held.key) is held
        assert path.read_text().splitlines() == lines1

        # a different early_stop is a different cache key
        rows3 = survey_brieskorn(max_a=7, rays=3, early_stop=None, cache=cache2)
    lines3 = path.read_text().splitlines()
    assert len(lines3) == 2 * len(rows1)
    assert [r.params for r in rows3] == [r.params for r in rows1]


def test_cache_makes_its_directory_on_the_first_put_only(tmp_path, monkeypatch):
    path = tmp_path / "new" / "dir" / "cache.jsonl"
    with ResultCache(path) as cache:
        rows = survey_brieskorn(max_a=7, rays=3, cache=cache)
    assert len(path.read_text().splitlines()) == len(rows) > 1
    made = []
    mkdir = plumbhf.report.Path.mkdir

    def counted(directory, **kwargs):
        made.append(directory)
        return mkdir(directory, **kwargs)

    monkeypatch.setattr(plumbhf.report.Path, "mkdir", counted)
    other = tmp_path / "new" / "other.jsonl"
    with ResultCache(other) as cache:
        survey_brieskorn(max_a=7, rays=3, cache=cache)
    assert made == [other.parent]
    assert len(other.read_text().splitlines()) == len(rows)


def test_a_record_without_its_newline_is_terminated_before_the_next(tmp_path):
    clean, cut = tmp_path / "clean.jsonl", tmp_path / "cut.jsonl"
    for path in (clean, cut):
        with ResultCache(path) as cache:
            survey_brieskorn(max_a=5, cache=cache)
    cut.write_bytes(cut.read_bytes().rstrip(b"\n"))
    for path in (clean, cut):
        with ResultCache(path) as cache:
            rows = survey_brieskorn(max_a=7, cache=cache)
    assert cut.read_bytes() == clean.read_bytes()
    assert len(ResultCache(cut).records) == len(rows) == len(cut.read_bytes().splitlines())


@pytest.mark.parametrize("last_line, message", MALFORMED_RECORDS)
def test_only_a_last_line_that_is_torn_is_skipped(tmp_path, last_line, message):
    """Without its newline, a last line that does not decode is a torn
    write and is skipped; one that decodes is refused as with it."""
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        survey_brieskorn(max_a=6, cache=cache)
    good = path.read_text().splitlines()
    path.write_text("\n".join(good + [last_line]))
    if _decodes(last_line):
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:{len(good) + 1}:.*{re.escape(message)}"):
            ResultCache(path)
    else:
        torn = ResultCache(path)
        assert torn.torn_line == len(good) + 1 and torn.records == cache.records


@pytest.mark.parametrize("tail", ["torn", "unterminated"])
def test_a_cache_tail_is_mended_only_by_the_first_run_that_extends_it(tmp_path, tail):
    """Two runs load one cache whose last line is torn, or a record without
    its newline: the first to put mends that line, and the later run's
    first put keeps every record appended since and adds no newline."""
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        survey_brieskorn(max_a=6, cache=cache)
    good = path.read_bytes()
    path.write_bytes(good + b'{"det":1,"early_st' if tail == "torn" else good[:-1])
    early, late = ResultCache(path), ResultCache(path)
    assert early.torn_line == late.torn_line == (len(good.splitlines()) + 1 if tail == "torn" else None)
    with early:
        survey_brieskorn(max_a=9, early_stop=None, cache=early)
    with late:
        survey_brieskorn(max_a=7, cache=late)
    merged = {**early.records, **late.records}
    assert len(merged) > len(early.records) > len(cache.records)
    assert ResultCache(path).records == merged
    assert path.read_bytes().startswith(good) and len(path.read_bytes().splitlines()) == len(merged)


def _records(*hashes):
    """One early-stop record per hash letter."""
    return [CountRecord(graph_hash=h * 64, early_stop=2, good_initial_count=2, partial=True, det=1,
                        initial_count=8) for h in hashes]


def test_a_run_that_restores_the_loaded_size_keeps_its_record(tmp_path):
    """A torn fragment exactly as long as another run's record: when that
    run has cut the fragment and appended its record, the file has its
    loaded size again, but ends in a newline, so a later run cuts nothing."""
    a, b, c = _records("a", "b", "c")
    path = tmp_path / "cache.jsonl"
    path.write_text(a.line() + "x" * len(b.line()))
    early, late = ResultCache(path), ResultCache(path)
    assert early.torn_line == late.torn_line == 2
    with early:
        early.put(b)
    assert path.read_text() == a.line() + b.line()  # the loaded size again
    with late:
        late.put(c)
    assert path.read_text() == a.line() + b.line() + c.line()


def test_a_file_that_is_only_a_torn_fragment_is_cut_to_nothing(tmp_path):
    """The torn line is line 1 at offset 0: no record loads, and the first
    put leaves the file holding exactly its own record."""
    [a] = _records("a")
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b'{"det":1,"early_st')
    with ResultCache(path) as cache:
        assert (cache.torn_line, cache.records) == (1, {})
        cache.put(a)
    assert path.read_text() == a.line()


def test_a_whitespace_last_line_without_its_newline_is_terminated(tmp_path):
    """A blank last line decodes to nothing, so it is no torn record: the
    first put ends it with a newline, and a reload skips it."""
    a, b = _records("a", "b")
    path = tmp_path / "cache.jsonl"
    path.write_text(a.line() + " \t")
    with ResultCache(path) as cache:
        assert (cache.torn_line, list(cache.records.values())) == (None, [a])
        cache.put(b)
    assert path.read_text() == a.line() + " \t\n" + b.line()
    assert list(ResultCache(path).records.values()) == [a, b]


def test_a_second_cache_sees_every_record_the_first_has_put(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as first:
        survey_brieskorn(max_a=7, cache=first)
        assert len(first.records) > 1
        assert ResultCache(path).records == first.records


def test_a_survey_row_builds_no_association(monkeypatch):
    results = []
    count = AssociationGame.good_initial_count

    def recorded(game, early_stop=None):
        results.append(count(game, early_stop))
        return results[-1]

    monkeypatch.setattr(AssociationGame, "good_initial_count", recorded)
    rows = survey_brieskorn(max_a=9)
    assert len(results) == len(rows) and sum(r.count for r in results) >= 2 * len(rows) - 1
    assert not any("initials" in vars(r) or "witnesses" in vars(r) for r in results)
    assert results[0].initials[0].graph == results[0].graph  # still built on a read


def test_survey_needs_three_rays():
    # one or two fibers give S^3: its count of 1 never meets the early stop
    for rays in (1, 2):
        with pytest.raises(ValueError, match="rays must be at least 3"):
            survey_brieskorn(max_a=5, rays=rays)


def test_survey_needs_an_early_stop_of_two():
    # a partial count of 1 would label every row trivial-rank, Sigma(2,3,7) too
    for early_stop in (0, 1):
        with pytest.raises(ValueError, match="early_stop must be at least 2"):
            survey_brieskorn(max_a=7, early_stop=early_stop)


def test_s3_rows_build_one_star_per_row(monkeypatch):
    """Each row plays on the star of Sigma(x, y) that gave its quadruple."""
    built = []

    def counted(inv, name=None):
        built.append(sum(inv.rays, ()))
        return star_graph(inv, name)

    monkeypatch.setattr(plumbhf.s3, "star_graph", counted)
    rows = s3_rows(20)
    assert len(rows) == 45
    assert sorted(built) == sorted(r.quadruple for r in rows)


def test_s3_pairing_needs_equal_lengths(monkeypatch):
    monkeypatch.setattr(plumbhf.s3, "pairing_vector_from_rays", lambda t, s: (1, 2))
    with pytest.raises(ValueError, match="zip"):
        s3_rows(5)


def test_cache_reverify_flags_tampering(tmp_path):
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        rows = survey_brieskorn(max_a=7, rays=3, cache=cache)
    assert reverify_cache(cache, rows, sample=len(rows)) == []

    # corrupt one stored count, keeping the record consistent so that the
    # loader accepts it and only the recount can catch it, and reload
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["good_initial_count"] == 1 and not records[0]["partial"]
    records[0]["good_initial_count"] = 0
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    tampered = ResultCache(path)
    problems = reverify_cache(tampered, rows, sample=len(rows))
    assert len(problems) == 1
    assert problems[0].startswith(f"cache mismatch for {records[0]['graph_hash'][:12]} (early_stop 2): ")
    assert problems[0].endswith(": good_initial_count: cached 0, recomputed 1")


def test_cache_reverify_covers_every_early_stop_of_a_graph(tmp_path):
    with ResultCache(tmp_path / "cache.jsonl") as cache:
        survey_brieskorn(max_a=7, rays=3, early_stop=None, cache=cache)
        rows = survey_brieskorn(max_a=7, rays=3, cache=cache)
    assert len(cache.records) == 2 * len(rows)
    assert reverify_cache(cache, rows, sample=len(cache.records)) == []
    # rows of another run cannot be rebuilt, so their records are not eligible
    assert reverify_cache(cache, survey_brieskorn(max_a=7, rays=4), sample=5) == []


@pytest.mark.parametrize("last_line, message", MALFORMED_RECORDS)
def test_cache_malformed_record_names_path_and_line(tmp_path, last_line, message):
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        survey_brieskorn(max_a=6, rays=3, cache=cache)
    good = path.read_text().splitlines()
    path.write_text("\n".join(good + ["", last_line]) + "\n")
    with pytest.raises(ParseError) as exc:
        ResultCache(path)
    assert f"{path}:{len(good) + 2}:" in str(exc.value)
    assert message in str(exc.value)


@pytest.mark.parametrize("last_line, message", [
    *((line, m) for line, m in MALFORMED_RECORDS if line.startswith("{") and _decodes(line)),
    (  # each good initial is an initial
        '{"det":1,"early_stop":null,"good_initial_count":5,"graph_hash":"ab","initial_count":3,"partial":false}',
        "ValueError: good_initial_count 5 exceeds initial_count 3",
    ),
])
def test_a_record_is_refused_when_built_as_when_loaded(tmp_path, last_line, message):
    """One rule: each JSON object of the table, built directly, raises the
    exception that the loader reports for its line."""
    with pytest.raises((KeyError, TypeError, ValueError)) as built:
        CountRecord(**json.loads(last_line))
    path = tmp_path / "cache.jsonl"
    path.write_text(last_line + "\n")
    with pytest.raises(ParseError) as loaded:
        ResultCache(path)
    assert type(loaded.value.__cause__) is built.type
    assert str(loaded.value) == f"{path}:1: bad cache record ({built.type.__name__}: {built.value})"
    assert message in str(loaded.value)


def test_a_record_is_built_by_keyword_from_exact_types():
    fields = {"graph_hash": "ab", "early_stop": 2, "good_initial_count": 2, "partial": True,
              "det": -1, "initial_count": 9}
    rec = CountRecord(**fields)
    assert [getattr(rec, name) for name in CountRecord._fields] == list(fields.values())
    assert rec.key == ("ab", 2) and rec == CountRecord(**dict(reversed(fields.items())))
    with pytest.raises(TypeError):
        CountRecord(*fields.values())
    with pytest.raises(TypeError, match="graph_hash has the wrong type"):
        CountRecord(**{**fields, "graph_hash": type("S", (str,), {})("ab")})
    with pytest.raises(TypeError, match=r"unknown fields \['self'\]"):
        CountRecord(**fields, self=1)
    with pytest.raises(AttributeError):
        rec.det = 1


def test_consistent_records_at_the_edges_load(tmp_path):
    # a count below early_stop is exact, and one that stops at the last
    # initial reaches early_stop without being partial
    lines = [
        '{"det":1,"early_stop":null,"good_initial_count":0,"graph_hash":"a","initial_count":9,"partial":false}',
        '{"det":1,"early_stop":2,"good_initial_count":1,"graph_hash":"b","initial_count":9,"partial":false}',
        '{"det":1,"early_stop":2,"good_initial_count":2,"graph_hash":"c","initial_count":9,"partial":false}',
        '{"det":1,"early_stop":2,"good_initial_count":2,"graph_hash":"d","initial_count":9,"partial":true}',
    ]
    path = tmp_path / "cache.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert len(ResultCache(path).records) == 4


@pytest.mark.parametrize("max_a, early_stop", [(30, 2), (9, None)])
def test_a_fresh_survey_cache_loads_back(tmp_path, max_a, early_stop):
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        rows = survey_brieskorn(max_a=max_a, early_stop=early_stop, cache=cache)
    assert ResultCache(path).records == cache.records
    assert len(cache.records) == len(rows) == len(path.read_bytes().splitlines())


def test_each_cache_record_is_one_line_of_compact_key_sorted_json(tmp_path):
    """Each line is what json.dumps writes for its record, for null and
    int early_stop, negative det, initial counts past 2**63 and a
    graph_hash that needs escaping, and a survey's cache reads back."""
    records = [
        {"graph_hash": "a", "early_stop": None, "good_initial_count": 0, "partial": False, "det": -1, "initial_count": 0},
        {"graph_hash": "b", "early_stop": 2, "good_initial_count": 2, "partial": True, "det": 1, "initial_count": 10**30},
        {"graph_hash": 'c\u00e9"\\', "early_stop": 7, "good_initial_count": 3, "partial": False, "det": -123456789, "initial_count": 311_934_222_336},
    ]
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache:
        for rec in records:
            cache.put(CountRecord(**rec))
        survey_brieskorn(max_a=9, early_stop=None, cache=cache)
        survey_brieskorn(max_a=9, cache=cache)
    lines = path.read_text(encoding="ascii").splitlines()
    assert len(lines) == len(records) + 2 * 18
    assert lines[: len(records)] == [json.dumps(r, separators=(",", ":"), sort_keys=True) for r in records]
    assert lines == [json.dumps(json.loads(line), separators=(",", ":"), sort_keys=True) for line in lines]
    assert ResultCache(path).records == cache.records


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, b"x", {1: "a"}, {None: 1}, [0, 1.0], {"a": ({"b": frozenset()},)}, type("S", (str,), {})()],
)
def test_json_text_refuses_what_it_cannot_write_as_json_dumps_would(value):
    """A float, a set, bytes, a dict key that is not a str, or a str
    subclass, at any depth."""
    with pytest.raises(TypeError):
        json_text(value)


def test_brieskorn_row_refuses_a_tuple_that_is_not_coprime(tmp_path):
    """A refused tuple raises as brieskorn does, before the cache opens a file."""
    path = tmp_path / "cache.jsonl"
    with ResultCache(path) as cache, pytest.raises(NotCoprimeError, match=r"gcd\(2, 4\) > 1"):
        brieskorn_row((2, 4, 5), cache=cache)
    assert not path.exists()


def test_brieskorn_row_counts_once_and_then_serves_its_record(tmp_path, monkeypatch):
    """The first call on (2, 3, 7) runs analyze once and writes one line; a
    second runs no analyze, puts nothing and returns an equal row; one with
    early_stop=None is another key, so it writes a second line."""
    path = tmp_path / "cache.jsonl"
    counts = _count_calls(monkeypatch, plumbhf.report, "analyze")
    puts = _count_calls(monkeypatch, ResultCache, "put")
    with ResultCache(path) as cache:
        first = brieskorn_row((2, 3, 7), cache=cache)
        assert (len(counts), len(puts), len(path.read_bytes().splitlines())) == (1, 1, 1)
        assert brieskorn_row((2, 3, 7), cache=cache) == first
        assert (len(counts), len(puts), len(path.read_bytes().splitlines())) == (1, 1, 1)
        full = brieskorn_row((2, 3, 7), early_stop=None, cache=cache)
    assert (len(counts), len(path.read_bytes().splitlines())) == (2, 2)
    assert full.graph_hash == first.graph_hash


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


def test_each_survey_row_builds_and_hashes_once_and_sweeps_never(tmp_path, monkeypatch):
    """A star carries its forms from star_graph, so no row sweeps, cold or
    warm; the early-stop game never asks for the tau walk's period."""
    invariants = _count_calls(monkeypatch, plumbhf.seifert, "brieskorn")
    stars = _count_calls(monkeypatch, plumbhf.seifert, "star_graph")
    sweeps = _count_calls(monkeypatch, plumbhf.graph, "_sweep")
    hashes = _count_calls(monkeypatch, PlumbingGraph, "canonical_hash")
    adjacency = _count_calls(monkeypatch, PlumbingGraph, "neighbors")
    with ResultCache(tmp_path / "cache.jsonl") as cache:
        cold = survey_brieskorn(max_a=12, cache=cache)
    assert len(cold) == 45
    assert len(invariants) == len(stars) == len(hashes) == len(cold)
    assert sweeps == []

    def no_game(graph):
        raise AssertionError("a warm row ran the game")

    monkeypatch.setattr(plumbhf.report, "AssociationGame", no_game)
    assert len(adjacency) == len(cold)  # the game reads it
    del invariants[:], stars[:], hashes[:], adjacency[:]
    warm = survey_brieskorn(max_a=12, cache=cache)
    assert warm == cold
    assert len(invariants) == len(stars) == len(hashes) == len(warm)
    assert sweeps == [] and adjacency == []


# -- the forked survey worker: a survey serves cache hits in one process,
# and at its first miss, with at least SPLIT_ROWS tuples left, forks one
# worker for the second half of those

SPLIT_MAX_A = 30  # 1,037 rows; from an empty cache the worker's half starts at tuple 518


def _survey_bytes(path, max_a=SPLIT_MAX_A, rays=3):
    """The JSON text of an early-stop survey's rows, and its cache file's bytes."""
    with ResultCache(path) as cache:
        rows = survey_brieskorn(max_a=max_a, rays=rays, cache=cache)
    return json_text(rows), path.read_bytes()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# case: the tuple at which the survey forks, its first miss, or None where it never forks
SPLIT_CASES = {
    "empty": 0, "resumed": 1, "warm": None, "mixed": 0, "worker-killed": 0, "prefix-300": 300, "prefix-700": None,
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_a_split_survey_writes_the_rows_and_cache_of_a_serial_one(tmp_path, monkeypatch, case):
    """From an empty cache, one holding three records of each half, one
    holding every record (warm), one holding the 963 records of the
    four-ray a <= 24 survey (mixed), and ones holding the first 300 or 700
    records, of which the second leaves 337 tuples, too few to fork for;
    and from an empty cache with a worker killed part way, whose half this
    process then computes.  Only computed records are put."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")  # serial surveys
        cold = _survey_bytes(tmp_path / "cold.jsonl")
        lines = cold[1].splitlines(keepends=True)
        if case == "resumed":
            start = b"".join(lines[i] for i in (0, 250, 500, 520, 800, 1036))
        elif case == "warm":
            start = cold[1]
        elif case == "mixed":
            start = _survey_bytes(tmp_path / "four-ray.jsonl", 24, 4)[1]
        elif case.startswith("prefix-"):
            start = b"".join(lines[: int(case[len("prefix-"):])])
        else:
            start = b""
        for name in ("split.jsonl", "serial.jsonl"):
            (tmp_path / name).write_bytes(start)
        serial = _survey_bytes(tmp_path / "serial.jsonl")
    if case == "worker-killed":
        real, parent = plumbhf.report.analyze, os.getpid()
        victim = f"sigma{plumbhf.seifert.coprime_tuples(SPLIT_MAX_A, 3)[800]}"

        def analyze(graph, **kwargs):
            if graph.name == victim and os.getpid() != parent:  # in the worker, as an OOM kill would
                os.kill(os.getpid(), signal.SIGKILL)
            return real(graph, **kwargs)

        monkeypatch.setattr(plumbhf.report, "analyze", analyze)
    stars = _count_calls(monkeypatch, plumbhf.report, "sigma_star")  # in this process only
    counts = _count_calls(monkeypatch, plumbhf.report, "analyze")
    puts = _count_calls(monkeypatch, ResultCache, "put")
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(len(stars) - 1)  # the tuple whose star was built last
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    with time_limit(60):
        split = _survey_bytes(tmp_path / "split.jsonl")
    at = SPLIT_CASES[case]
    assert forks == ([] if at is None else [at])
    _no_child_left()
    assert split == serial
    held = set(start.splitlines(keepends=True))
    assert len(split[1].splitlines()) == len(held | set(lines))
    theirs = 0 if at is None or case == "worker-killed" else len(lines) - (at + (len(lines) - at) // 2)
    computed_here = lines[: len(lines) - theirs]  # the worker's records were used for the rest
    assert len(counts) == sum(line not in held for line in computed_here)
    assert len(puts) == len(counts) + theirs  # a hit served here is never put
    if case == "warm":
        assert split == cold  # the cold rows, and not a cache byte written


@pytest.mark.parametrize(
    "at, fault",
    [(800, SelfCheckError("planted")), (100, SelfCheckError("planted")), (100, KeyboardInterrupt())],
    ids=["worker-half", "parent-half", "parent-interrupted"],
)
def test_a_fault_in_either_half_raises_as_a_serial_survey_and_leaves_no_process(tmp_path, monkeypatch, at, fault):
    """A worker that fails hands its half back, which the parent computes
    and fails on; a parent that fails stops and reaps the worker, which
    would otherwise hang on its first tuple.  Either way the message and
    the cache lines are the serial run's."""
    tuples = plumbhf.seifert.coprime_tuples(SPLIT_MAX_A, 3)
    name, first_of_worker = f"sigma{tuples[at]}", f"sigma{tuples[518]}"
    real = plumbhf.report.analyze

    def analyze(graph, **kwargs):
        if graph.name == name:
            raise fault
        if graph.name == first_of_worker and at < 518:
            time.sleep(60)
        return real(graph, **kwargs)

    monkeypatch.setattr(plumbhf.report, "analyze", analyze)
    expected = re.escape(f"Sigma{tuples[at]}: planted") if isinstance(fault, SelfCheckError) else None
    forks = _count_calls(monkeypatch, os, "fork")
    with time_limit(20), pytest.raises(type(fault), match=expected):
        _survey_bytes(tmp_path / "split.jsonl")
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.delattr(os, "fork")  # a serial survey from here on
    with pytest.raises(type(fault), match=expected):
        _survey_bytes(tmp_path / "serial.jsonl")
    assert (tmp_path / "split.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


@pytest.mark.parametrize(
    "dumps, message",
    [
        (
            lambda keys: marshal.dumps(keys[:-1]),
            re.escape(f"the worker's half from Sigma{plumbhf.seifert.coprime_tuples(SPLIT_MAX_A, 3)[518]} "
                      "has 519 tuples but 518 records"),
        ),
        (lambda keys: b"\xff", None),
        (lambda keys: marshal.dumps([k[:5] for k in keys]), None),
    ],
    ids=["a-record-short", "not-marshal", "a-field-short"],
)
def test_a_worker_that_exits_0_with_bad_records_fails_the_survey_and_leaves_a_cache_prefix(
    tmp_path, monkeypatch, dumps, message
):
    """Only its exit status decides a worker's half: records that do not
    match its tuples raise before any of them is stored, and are never
    replaced by a recount.  So the cache holds this process's half alone."""
    monkeypatch.setattr(plumbhf.report, "marshal", SimpleNamespace(dumps=dumps, loads=marshal.loads))
    with time_limit(60), pytest.raises(ValueError, match=message):
        _survey_bytes(tmp_path / "split.jsonl")
    _no_child_left()
    monkeypatch.delattr(os, "fork")  # a serial survey from here on
    serial = _survey_bytes(tmp_path / "serial.jsonl")[1].splitlines(keepends=True)
    assert (tmp_path / "split.jsonl").read_bytes() == b"".join(serial[:518])


def test_a_small_or_threaded_survey_stays_in_one_process(tmp_path, monkeypatch):
    """Nothing forks for a cold a <= 12 survey (45 rows, the benchmark's
    self-test), an a <= 30 one on one usable CPU, or an a <= 30 one run
    while another thread is alive."""

    def no_fork():
        raise AssertionError("the survey forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert len(_survey_bytes(tmp_path / "small.jsonl", max_a=12)[1].splitlines()) == 45
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        m.setattr(os, "cpu_count", lambda: 1)
        assert len(_survey_bytes(tmp_path / "one-cpu.jsonl")[1].splitlines()) == 1037
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(survey_brieskorn(max_a=30)) == 1037
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_survey_whose_fork_fails_computes_every_row_here(tmp_path, monkeypatch, capsys):
    """fork(2) fails with EAGAIN or ENOMEM under a process or memory limit:
    the survey closes both ends of the worker's pipe and computes the rest
    itself, silently and with a serial run's bytes."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")  # a serial survey
        serial = _survey_bytes(tmp_path / "serial.jsonl")
    fds, pipe = [], os.pipe

    def recorded_pipe():
        fds.extend(pipe())
        return tuple(fds[-2:])

    def failed_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", failed_fork)
    assert _survey_bytes(tmp_path / "split.jsonl") == serial
    assert len(fds) == 2
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert capsys.readouterr() == ("", "")
