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
The survey cache is a JSONL file of :class:`CountRecord` lines, one per
graph hash and early_stop setting.  A cache keeps one append handle,
opened on its first put; close it, or use it as a context manager.
``json`` is imported at the first cache line there is to decode, so a
cold survey into an empty or new cache file never loads it.  When a
survey forks a worker for half of its rows is stated in full in
:func:`survey_brieskorn`.  The S^3 harness rows are in :mod:`plumbhf.s3`.
"""

from __future__ import annotations

import io
import itertools
import marshal
import math
import os
import sys
import time
from collections.abc import Iterable, Sequence
from pathlib import Path

try:  # the C encoder json.encoder itself uses; importing json would load its decoder too
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

from .errors import ParseError, SelfCheckError
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
# On 2 CPUs a cold survey split at 119 rows gained nothing, at 297 about 2%
# and from 363 on about 5% of its wall time.  It stays above 45, the rows of
# the benchmark's traced a <= 12 survey, whose call counts are one process's.
SPLIT_ROWS = 400


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

    def record(self) -> CountRecord:
        """The six facts of this count that a survey row and the cache keep."""
        return CountRecord(**{name: getattr(self, name) for name in CountRecord._fields})


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


class CountRecord(Frozen):
    """The six facts of one count, which a survey row and a cache line hold.

    Built by keyword only, checking the fields in order: KeyError for the
    first one missing, TypeError for a wrong type or value or a key that
    is no field, then ValueError for a count no scan returns.
    """

    graph_hash: str
    early_stop: int | None
    good_initial_count: int
    partial: bool
    det: int
    initial_count: int

    def __init__(self, /, **fields) -> None:
        for name in self._fields:
            x = fields[name]
            if name == "graph_hash":
                valid = type(x) is str
            elif name == "early_stop":
                valid = x is None or (type(x) is int and x >= 1)
            elif name == "partial":
                valid = type(x) is bool
            else:  # det is any int, and a count is at least 0
                valid = type(x) is int and (x >= 0 or name == "det")
            if not valid:
                raise TypeError(f"{name} has the wrong type or value: {x!r}")
        if len(fields) > len(self._fields):
            raise TypeError(f"unknown fields {sorted(fields.keys() - self._fields)}")
        count, stop, total = fields["good_initial_count"], fields["early_stop"], fields["initial_count"]
        if count > total:
            raise ValueError(f"good_initial_count {count} exceeds initial_count {total}")
        if stop is not None and count > stop:
            raise ValueError(f"good_initial_count {count} exceeds early_stop {stop}")
        if fields["partial"] and count != stop:
            raise ValueError(f"a partial count of {count} did not stop at early_stop {stop}")
        vars(self).update(fields)

    @property
    def key(self) -> tuple[str, int | None]:  # a cache holds one record per key
        return self.graph_hash, self.early_stop

    def line(self) -> str:
        """The cache line: ``json.dumps`` of the fields with ``separators=(",", ":")``
        and ``sort_keys=True``, and a newline."""
        return (f'{{"det":{self.det},"early_stop":{json_text(self.early_stop)},'
                f'"good_initial_count":{self.good_initial_count},"graph_hash":{json_text(self.graph_hash)},'
                f'"initial_count":{self.initial_count},"partial":{json_text(self.partial)}}}\n')


class SurveyRow(Frozen):
    """One family member in a survey emission."""

    params: tuple[int, ...]
    verdict: str
    count: int | None = None
    partial: bool = False
    graph_hash: str | None = None
    reason: str | None = None


class ResultCache:
    """Append-only JSONL cache of :class:`CountRecord` lines.

    A line that is not UTF-8 or not JSON, or whose object ``CountRecord``
    refuses, raises ParseError naming path:line, save one: a last line
    without its newline that does not decode is a killed run's torn
    write, so it is skipped, its number kept as ``torn_line``, and the
    first put truncates the file at its start.  A valid last line
    without its newline is terminated by the first put.  Either mends
    only a file that still has its loaded size and still ends without a
    newline: every put ends the file in one, so otherwise another run
    has mended it.  The first put also makes the directory and opens the
    one append handle that ``close`` (or leaving a ``with`` block) closes;
    each record is one write of a whole line (:meth:`CountRecord.line`),
    then a flush.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: dict[tuple[str, int | None], CountRecord] = {}
        self.torn_line: int | None = None  # the number of a torn last line, skipped
        self._fh = None
        self._pending_newline = False  # the file ends in a record without its newline
        self._torn_at: int | None = None  # the offset of the torn line's first byte
        self._size = 0  # the size of the file as loaded
        if self.path.exists():
            with self.path.open("rb") as fh:
                raw = b""
                loads = None
                for lineno, raw in enumerate(fh, 1):
                    decoded = False
                    try:
                        line = raw.decode("utf-8").strip()
                        if not line:
                            continue
                        if loads is None:  # json loads at the first line to decode
                            from json import loads
                        fields = loads(line)
                        decoded = True
                        rec = CountRecord(**fields)
                    except (ValueError, KeyError, TypeError, RecursionError) as exc:
                        if not decoded and not raw.endswith(b"\n"):  # a torn last line
                            self.torn_line, self._torn_at = lineno, fh.tell() - len(raw)
                            break
                        raise ParseError(
                            f"{self.path}:{lineno}: bad cache record ({type(exc).__name__}: {exc})"
                        ) from exc
                    self.records[rec.key] = rec
                else:
                    self._pending_newline = bool(raw) and not raw.endswith(b"\n")
                self._size = fh.tell()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def get(self, graph_hash: str, early_stop: int | None) -> CountRecord | None:
        return self.records.get((graph_hash, early_stop))

    def put(self, record: CountRecord) -> None:
        if record.key in self.records:
            return
        self.records[record.key] = record
        line = record.line()
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = self._fh = self.path.open("a+b")
            if self._torn_at is not None or self._pending_newline:
                fh.seek(self._size - 1)
                tail = fh.read(2)  # the loaded last byte, and one more if the file grew
                if len(tail) == 1 and tail != b"\n":  # still as loaded: no other run mended it
                    if self._torn_at is not None:  # so the fragment never becomes a middle line
                        fh.truncate(self._torn_at)
                    if self._pending_newline:
                        line = "\n" + line
            self._torn_at, self._pending_newline = None, False
        self._fh.write(line.encode())
        self._fh.flush()


def brieskorn_verdict(count: int) -> str:
    """The survey verdict: two good initials make the kernel rank at least 2."""
    return "nontrivial" if count >= 2 else "trivial-rank"


def brieskorn_row(
    multiplicities: Sequence[int],
    early_stop: int | None = 2,
    cache: ResultCache | None = None,
) -> SurveyRow:
    """Analyze one Brieskorn sphere and classify it, storing a new count in
    ``cache``: the survey's loop on one tuple.

    A refused tuple raises the PlumbingError of ``sigma_star``; a
    SelfCheckError, a fault of the engine, is raised again naming the params.
    """
    return _survey_rows([tuple(multiplicities)], early_stop, cache)[0]


def _lookup(
    params: tuple[int, ...], early_stop: int | None, cache: ResultCache | None
) -> tuple[PlumbingGraph, CountRecord | None]:
    """The star of one tuple, and the record ``cache`` holds for it, if any."""
    graph = sigma_star(params)
    return graph, cache.get(canonical_graph_hash(graph), early_stop) if cache is not None else None


def _count(params: tuple[int, ...], graph: PlumbingGraph, early_stop: int | None) -> CountRecord:
    """A fresh count of ``graph``, the star of ``params``, not yet put.

    A SelfCheckError is raised again naming the params."""
    try:
        return analyze(graph, early_stop=early_stop).record()
    except SelfCheckError as exc:
        raise SelfCheckError(f"Sigma{params}: {exc}") from exc


def survey_brieskorn(
    max_a: int = 30,
    rays: int = 3,
    early_stop: int | None = 2,
    cache: ResultCache | None = None,
) -> list[SurveyRow]:
    """One row per pairwise-coprime multiplicity tuple within the bound, in tuple order.

    Each row comes from a record the cache holds, a count made here, or a
    forked worker's record; the last two are stored.  At the first cache miss only, if at least SPLIT_ROWS
    tuples are left, that one included, and :func:`_splits` allows a fork,
    a worker computes the records of the second half of them while this
    process computes the first; a fork that fails leaves them all here.  So
    a warm survey never forks and a cold one forks at tuple 0.  At the
    worker's first tuple this process reads its records and reaps it.  Its
    exit status alone decides its half: at 0 its records, checked to be one
    per tuple before any is stored, make the rest of the rows; otherwise
    this process computes them, raising as a serial run would.  A failure
    or interrupt here kills and reaps the worker, and the worker of a
    survey killed outright exits before its next tuple.  Rows and cache
    lines are a one-process run's bytes, and a killed run keeps a prefix
    of the cache lines, all written by this process.
    """
    if rays < 3:
        raise ValueError(f"rays must be at least 3, got {rays}: fewer fibers give S^3 (count 1)")
    if early_stop is not None and early_stop < 2:
        raise ValueError(f"early_stop must be at least 2, got {early_stop}: a verdict needs two")
    return _survey_rows(coprime_tuples(max_a, rays), early_stop, cache)


def _survey_rows(tuples, early_stop, cache) -> list[SurveyRow]:
    """The rows of ``tuples``, as :func:`survey_brieskorn` makes them."""
    rows, theirs, missed = [], [], False
    worker, start = None, 0  # a forked worker's pid and pipe until its half is read, and its first tuple
    try:
        for i, params in enumerate(tuples):
            if worker is not None and i == start:
                with worker[1] as pipe:
                    data = pipe.read()
                status = os.waitpid(worker[0], 0)[1]
                worker = None
                if status == 0:  # otherwise the worker's tuples are computed here, raising as serial does
                    theirs = [CountRecord(**dict(zip(CountRecord._fields, key, strict=True)))
                              for key in marshal.loads(data)]
                    if len(theirs) != len(tuples) - i:  # checked before any of them is stored
                        raise ValueError(f"the worker's half from Sigma{params} has {len(tuples) - i} "
                                         f"tuples but {len(theirs)} records")
                    theirs.reverse()
            held = None
            if theirs:
                rec = theirs.pop()
            else:
                graph, held = _lookup(params, early_stop, cache)
                if held is None and not missed:
                    missed, start = True, i + (len(tuples) - i) // 2
                    worker = _fork(tuples[start:], early_stop, cache) if _splits(len(tuples) - i) else None
                rec = held if held is not None else _count(params, graph, early_stop)
            if held is None and cache is not None:  # a put skips a key the cache holds
                cache.put(rec)
            rows.append(SurveyRow(params=params, verdict=brieskorn_verdict(rec.good_initial_count),
                                  count=rec.good_initial_count, partial=rec.partial, graph_hash=rec.graph_hash))
    except BaseException:  # this process failed or was interrupted: stop the worker, then raise
        if worker is not None:
            from signal import SIGKILL  # loaded on this path only
            os.kill(worker[0], SIGKILL)
        raise
    finally:
        if worker is not None:
            worker[1].close()
            os.waitpid(worker[0], 0)
    return rows


def _splits(rows: int) -> bool:
    """Whether ``rows`` tuples left at a survey's first miss fork a worker:
    ``os.fork`` exists, no other thread runs, at least two CPUs are usable,
    and ``rows`` is at least SPLIT_ROWS."""
    if not hasattr(os, "fork"):
        return False
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2 and rows >= SPLIT_ROWS


def _fork(tuples, early_stop, cache):
    """Fork a worker for the records of ``tuples``; return its pid and the
    read end of its pipe, or None if the fork fails.

    The worker writes the records' field tuples in one ``marshal`` write
    and exits 0, or exits 1 having written nothing on a failure or once
    the process that forked it is gone.  It leaves by ``os._exit``, which
    runs no ``atexit`` hook and flushes no inherited buffer, and never
    writes the cache.
    """
    read_end, write_end = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:  # EAGAIN or ENOMEM under a process or memory limit
        os.close(read_end)
        os.close(write_end)
        return None
    if pid != 0:
        os.close(write_end)
        return pid, open(read_end, "rb")
    status = 1
    try:
        os.close(read_end)
        keys = []
        for t in tuples:
            if os.getppid() != parent:  # a survey killed outright could not stop this process
                os._exit(1)
            graph, rec = _lookup(t, early_stop, cache)
            keys.append(CountRecord._key(rec if rec is not None else _count(t, graph, early_stop)))
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(keys))
        status = 0
    finally:
        os._exit(status)


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
    kept for such a graph is.  Timing fields are not compared.
    """
    import random
    params_by_hash = {r.graph_hash: r.params for r in rows}
    eligible = sorted(
        (rec for rec in cache.records.values() if rec.graph_hash in params_by_hash),
        key=lambda r: (r.graph_hash, r.early_stop is None, r.early_stop or 0),  # None sorts after every K
    )
    rng = random.Random(0)  # a fixed seed, so a rerun checks the same records
    problems = []
    for rec in rng.sample(eligible, min(sample, len(eligible))):
        params = params_by_hash[rec.graph_hash]
        fresh = _count(params, sigma_star(params), rec.early_stop)
        wrong = [f"{name}: cached {getattr(rec, name)}, recomputed {getattr(fresh, name)}"
                 for name in rec._fields if getattr(rec, name) != getattr(fresh, name)]
        if wrong:
            problems.append(f"cache mismatch for {rec.graph_hash[:12]} (early_stop {rec.early_stop}): "
                            + "; ".join(wrong))
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
