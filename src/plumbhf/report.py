"""Reports, surveys, and the append-only result cache.

Reports are frozen value classes (:class:`plumbhf.graph.Frozen`), each
built by the constructor its class gets once, when it is made, with the
fields as parameters, and written from their fields in declaration order
by two writers, with no dict built per row.  :func:`json_text` gives the
bytes of ``json.dumps(value, indent=2)`` on CPython 3.10 to 3.13 (3.10 to 3.12
encode that in pure Python whenever an indent is set) from the C string
encoder and one join per container; that encoder is taken from ``_json``
(``json.encoder`` where it is missing), so writing loads no JSON decoder.
:func:`csv_text` writes a header and one line per record of values in
header order, each value one cell: None is empty, a bool is true or
false, a tuple is its items joined by ';', where an item that is itself
a tuple is its items joined by ' ', and anything else is its str().
The survey cache is a JSONL file keyed by the canonical graph
hash, reused only when the stored early_stop setting matches.  A cache
keeps one append handle, opened on its first put, and writes each record
as one whole line of compact JSON with the keys det, early_stop,
good_initial_count, graph_hash, initial_count and partial in that sorted
order, formatted directly from those six fields with no encoder pass;
close it, or use it as a context manager.  ``json`` is imported at the
first cache line there is to decode, so a cold survey into an empty or
new cache file never loads it.  The S^3 harness rows are in
:mod:`plumbhf.s3`.
"""

from __future__ import annotations

import io
import itertools
import math
import time
from collections.abc import Iterable, Sequence
from pathlib import Path

try:  # the C encoder json.encoder itself uses; importing json would load its decoder too
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .errors import ParseError, PlumbingError, SelfCheckError
from .files import canonical_graph_hash
from .game import AssociationGame
from .graph import (
    Frozen,
    PlumbingGraph,
    graph_determinant,
    is_negative_definite,
)
from .seifert import coprime_tuples, sigma_star

ASSUMPTION_NOTE = "good initial associations are assumed linearly independent in Ker(U)"


class AnalysisReport(Frozen):
    """Everything the analyze path computes for one graph."""

    name: str | None
    graph_hash: str
    vertex_count: int
    det: int
    negative_definite: bool
    bad_vertices: tuple[int, ...]
    is_homology_sphere: bool
    initial_count: int
    good_initial_count: int
    partial: bool
    good_initials: tuple[tuple[int, ...], ...]
    elapsed_ms: int
    early_stop: int | None
    assumes_independent_generators: str = ASSUMPTION_NOTE
    sequences: tuple[dict, ...] | None = None

    def to_obj(self) -> dict:
        """The fields in order, as they are; sequences only when emitted."""
        obj = dict(zip(self._fields, self._key(self)))
        if self.sequences is None:
            del obj["sequences"]
        return obj


def analyze(
    graph: PlumbingGraph,
    early_stop: int | None = None,
    emit_sequences: bool = False,
) -> AnalysisReport:
    """Run the full pipeline on one graph.

    Propagates TooManyBadVerticesError from the count; a disconnected
    graph simply reports is_homology_sphere False (homology spheres are
    connected).
    """
    start = time.perf_counter()
    det = graph_determinant(graph)
    result = AssociationGame(graph).good_initial_count(early_stop)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return AnalysisReport(
        name=graph.name,
        graph_hash=canonical_graph_hash(graph),
        vertex_count=graph.vertex_count,
        det=det,
        negative_definite=is_negative_definite(graph),
        bad_vertices=graph.bad,
        is_homology_sphere=graph.is_connected and abs(det) == 1,
        initial_count=result.initial_total,
        good_initial_count=result.count,
        partial=result.partial,
        good_initials=result.initial_values(),
        elapsed_ms=elapsed_ms,
        early_stop=early_stop,
        sequences=tuple(
            {"states": [s.values for s in w.states], "moved": w.moved} for w in result.witnesses
        )
        if emit_sequences
        else None,
    )


class SurveyRow(Frozen):
    """One family member in a survey emission."""

    params: tuple[int, ...]
    verdict: str
    count: int | None = None
    partial: bool = False
    graph_hash: str | None = None
    reason: str | None = None


class ResultCache:
    """Append-only JSONL cache of analyze results keyed by graph hash.

    A line that is not UTF-8, or not a JSON object with a str graph_hash,
    an early_stop that is null or an int >= 1, an int good_initial_count
    >= 0, a bool partial, an int det and an int initial_count >= 0 (a
    torn last line, say), with any other key, or with a count above
    early_stop or partial below it, raises ParseError naming path:line.
    A valid last line without its newline is terminated by the first
    put, which also makes the directory and opens the one append handle
    that ``close`` (or leaving a ``with`` block) closes; each record is
    one write of a whole line (:func:`_record_line`), then a flush.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: dict[tuple[str, int | None], dict] = {}
        self._fh = None
        self._pending_newline = False  # the file ends in a record without its newline
        if self.path.exists():
            with self.path.open("rb") as fh:
                raw = b""
                loads = None
                for lineno, raw in enumerate(fh, 1):
                    try:
                        line = raw.decode("utf-8").strip()
                        if not line:
                            continue
                        if loads is None:  # json loads at the first line to decode
                            from json import loads
                        rec = loads(line)
                        _check_record(rec)
                        key = (rec["graph_hash"], rec["early_stop"])
                    except (ValueError, KeyError, TypeError, RecursionError) as exc:
                        raise ParseError(
                            f"{self.path}:{lineno}: bad cache record ({type(exc).__name__}: {exc})"
                        ) from exc
                    self.records[key] = rec
                self._pending_newline = bool(raw) and not raw.endswith(b"\n")

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def get(self, graph_hash: str, early_stop: int | None) -> dict | None:
        return self.records.get((graph_hash, early_stop))

    def put(self, record: dict) -> None:
        key = (record["graph_hash"], record["early_stop"])
        if key in self.records:
            return
        self.records[key] = record
        line = _record_line(record)
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("ab")
            if self._pending_newline:
                line = "\n" + line
                self._pending_newline = False
        self._fh.write(line.encode())
        self._fh.flush()


def _record_line(rec: dict) -> str:
    """The line ``json.dumps(rec, separators=(",", ":"), sort_keys=True)``
    writes for a record of the six typed fields, newline included,
    formatted directly as PlumbingGraph.canonical_hash formats its JSON."""
    stop = rec["early_stop"]
    return (
        f'{{"det":{rec["det"]},"early_stop":{"null" if stop is None else stop},'
        f'"good_initial_count":{rec["good_initial_count"]},'
        f'"graph_hash":{encode_basestring_ascii(rec["graph_hash"])},'
        f'"initial_count":{rec["initial_count"]},"partial":{"true" if rec["partial"] else "false"}}}\n'
    )


_RECORD_FIELDS = {
    "graph_hash": lambda x: isinstance(x, str),
    "early_stop": lambda x: x is None or (type(x) is int and x >= 1),
    "good_initial_count": lambda x: type(x) is int and x >= 0,
    "partial": lambda x: type(x) is bool,
    "det": lambda x: type(x) is int,
    "initial_count": lambda x: type(x) is int and x >= 0,
}


def _check_record(rec: dict) -> None:
    """KeyError or TypeError at the first missing or mistyped field, and
    TypeError for a key that is no field; ValueError for a count no scan
    returns (it stops at early_stop, partial or not)."""
    for name, valid in _RECORD_FIELDS.items():
        if not valid(rec[name]):
            raise TypeError(f"{name} has the wrong type or value: {rec[name]!r}")
    if len(rec) > len(_RECORD_FIELDS):  # every field is there, so rec is a dict
        raise TypeError(f"unknown fields {sorted(rec.keys() - _RECORD_FIELDS.keys())}")
    count, stop = rec["good_initial_count"], rec["early_stop"]
    if stop is not None and count > stop:
        raise ValueError(f"good_initial_count {count} exceeds early_stop {stop}")
    if rec["partial"] and count != stop:
        raise ValueError(f"a partial count of {count} did not stop at early_stop {stop}")


def brieskorn_verdict(count: int) -> str:
    """The survey verdict: two good initials make the kernel rank at least 2."""
    return "nontrivial" if count >= 2 else "trivial-rank"


def brieskorn_row(
    multiplicities: Sequence[int],
    early_stop: int | None = 2,
    cache: ResultCache | None = None,
) -> SurveyRow:
    """Analyze one Brieskorn sphere and classify it.

    A PlumbingError makes the row ``skipped``, except a SelfCheckError,
    a fault of the engine, which is raised again naming the params.
    """
    params = tuple(multiplicities)
    try:
        graph = sigma_star(params)
        rec = cache.get(canonical_graph_hash(graph), early_stop) if cache is not None else None
        if rec is None:
            rec = _cache_record(analyze(graph, early_stop=early_stop))
            if cache is not None:
                cache.put(rec)
        count = rec["good_initial_count"]
        return SurveyRow(
            params=params,
            verdict=brieskorn_verdict(count),
            count=count,
            partial=rec["partial"],
            graph_hash=rec["graph_hash"],
        )
    except SelfCheckError as exc:
        raise SelfCheckError(f"Sigma{params}: {exc}") from exc
    except PlumbingError as exc:
        return SurveyRow(
            params=params,
            verdict="skipped",
            reason=f"{type(exc).__name__}: {exc}",
        )


def _cache_record(report: AnalysisReport) -> dict:
    """The report's attributes that :data:`_RECORD_FIELDS` names."""
    return {name: getattr(report, name) for name in _RECORD_FIELDS}


def survey_brieskorn(
    max_a: int = 30,
    rays: int = 3,
    early_stop: int | None = 2,
    cache: ResultCache | None = None,
) -> list[SurveyRow]:
    """One row per pairwise-coprime multiplicity tuple within the bound."""
    if rays < 3:
        raise ValueError(f"rays must be at least 3, got {rays}: fewer fibers give S^3 (count 1)")
    if early_stop is not None and early_stop < 2:
        raise ValueError(f"early_stop must be at least 2, got {early_stop}: a verdict needs two")
    return [
        brieskorn_row(t, early_stop=early_stop, cache=cache)
        for t in coprime_tuples(max_a, rays)
    ]


def survey_all_minus_two(max_p: int = 12, rays: int = 3) -> list[SurveyRow]:
    """Exact solution scan of 2 - sum p/(p+1) = 1/prod(p+1), no game runs.

    A solution tuple is exactly one whose all-(-2) star (ray lengths p_i,
    center -2) bounds a homology sphere; these are the candidates with
    interior-association count 1.  The equation is tested times
    P = prod(p+1), as 2P - sum p*P/(p+1) == 1, in integers.
    """
    rows = []
    for p in itertools.combinations_with_replacement(range(1, max_p + 1), rays):
        big_p = math.prod(pi + 1 for pi in p)
        solves = 2 * big_p - sum(pi * (big_p // (pi + 1)) for pi in p) == 1
        rows.append(SurveyRow(params=p, verdict="solution" if solves else "non-solution"))
    return rows


def reverify_cache(
    cache: ResultCache,
    rows: Sequence[SurveyRow],
    sample: int,
) -> list[str]:
    """Recompute a random sample of cached rows; return mismatch messages.

    Only records of the Brieskorn ``rows`` of this run are eligible, since
    each graph is rebuilt from its row's params; every early_stop setting
    stored for such a graph is.  Timing fields are not compared.
    """
    import random
    params_by_hash = {r.graph_hash: r.params for r in rows if r.graph_hash}
    keys = sorted(
        (k for k in cache.records if k[0] in params_by_hash),
        key=lambda k: (k[0], k[1] is None, k[1] or 0),  # None sorts after every K
    )
    rng = random.Random(0)  # a fixed seed, so a rerun checks the same records
    picked = rng.sample([cache.records[k] for k in keys], min(sample, len(keys)))
    problems = []
    for rec in picked:
        graph = sigma_star(params_by_hash[rec["graph_hash"]])
        fresh = _cache_record(analyze(graph, early_stop=rec["early_stop"]))
        if fresh != rec:
            problems.append(
                f"cache mismatch for {rec['graph_hash'][:12]}: {rec} != {fresh}"
            )
    return problems


# -- emission ---------------------------------------------------------------


def json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, for the values the CLI emits.

    Those are values of exactly the types str, int, bool and None, dicts
    with str keys, lists, tuples and Frozen rows, which are written as the
    object of their fields in order.  Anything else, a float or a str
    subclass say, raises TypeError, so no bytes are written that
    ``json.dumps`` would write differently.  ``newline`` is the line break
    and the indent of the line ``value`` starts on.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if kind is list or kind is tuple:
        items = [json_text(v, inner) for v in value]
        return "[" + inner + f",{inner}".join(items) + newline + "]" if items else "[]"
    if isinstance(value, Frozen):
        items = [f"{encode_basestring_ascii(k)}: {json_text(getattr(value, k), inner)}"
                 for k in value._fields]
    elif kind is dict:  # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [f"{encode_basestring_ascii(k)}: {json_text(v, inner)}" for k, v in value.items()]
    else:
        raise TypeError(f"{kind.__name__} is not written as JSON here")
    return "{" + inner + f",{inner}".join(items) + newline + "}" if items else "{}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ";".join(" ".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in value)
    return str(value)


def csv_text(header: Iterable[str], records: Iterable[Iterable]) -> str:
    """The header line, then one line per record of values in header order;
    no records give the header alone."""
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in record] for record in records)
    return buf.getvalue()
