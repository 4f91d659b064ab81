"""Reports, surveys, and the append-only result cache.

Reports are frozen value classes (:class:`plumbhf.graph.Frozen`) whose
JSON emissions are their fields in declaration order; the CSV emissions
carry the same data column by column, with tuple-valued columns joined
by ';'.  The survey cache is a JSONL file keyed by the canonical graph
hash, reused only when the stored early_stop setting matches.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import time
from pathlib import Path
from typing import Sequence

from .contfrac import bumped_sum_check
from .errors import ParseError, PlumbingError
from .files import canonical_graph_hash
from .game import (
    AssociationGame,
    central_count,
    is_good_sequence,
    pairing,
    reverse_negate,
)
from .graph import (
    Frozen,
    PlumbingGraph,
    bad_vertices,
    graph_determinant,
    is_negative_definite,
)
from .seifert import (
    SphereQuadruple,
    enumerate_quadruples,
    pairing_vector_from_rays,
    quadruple_star,
    sigma_star,
)

ASSUMPTION_NOTE = "good initial associations are assumed linearly independent in Ker(U)"


def _plain(value):
    """Tuples become lists, recursively; everything else is emitted as is."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _fields_obj(row) -> dict:
    """A value object as a JSON object, keys in field order."""
    return {name: _plain(getattr(row, name)) for name in row._fields}


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
        obj = _fields_obj(self)
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
        bad_vertices=tuple(bad_vertices(graph)),
        is_homology_sphere=graph.is_connected and abs(det) == 1,
        initial_count=result.initial_total,
        good_initial_count=result.count,
        partial=result.partial,
        good_initials=tuple(a.values for a in result.initials),
        elapsed_ms=elapsed_ms,
        early_stop=early_stop,
        sequences=tuple(w.to_jsonable() for w in result.witnesses)
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

    def to_obj(self) -> dict:
        return _fields_obj(self)


class ResultCache:
    """Append-only JSONL cache of analyze results keyed by graph hash.

    A record that is not a JSON object with a str graph_hash, an
    early_stop that is null or an int >= 1, an int good_initial_count and
    a bool partial (a torn last line, say) raises ParseError naming
    path:line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: dict[tuple[str, int | None], dict] = {}
        if self.path.exists():
            with self.path.open() as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                        _check_record(rec)
                        key = (rec["graph_hash"], rec["early_stop"])
                    except (ValueError, KeyError, TypeError) as exc:
                        raise ParseError(
                            f"{self.path}:{lineno}: bad cache record ({type(exc).__name__}: {exc})"
                        ) from exc
                    self.records[key] = rec

    def get(self, graph_hash: str, early_stop: int | None) -> dict | None:
        return self.records.get((graph_hash, early_stop))

    def put(self, record: dict) -> None:
        key = (record["graph_hash"], record["early_stop"])
        if key in self.records:
            return
        self.records[key] = record
        if len(self.records) == 1:  # the first record: a cache that loaded none may lack its dir
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n")


_RECORD_FIELDS = {
    "graph_hash": lambda x: isinstance(x, str),
    "early_stop": lambda x: x is None or (type(x) is int and x >= 1),
    "good_initial_count": lambda x: type(x) is int,
    "partial": lambda x: type(x) is bool,
}


def _check_record(rec: dict) -> None:
    """KeyError or TypeError at the first missing or mistyped field a hit reads."""
    for name, valid in _RECORD_FIELDS.items():
        if not valid(rec[name]):
            raise TypeError(f"{name} has the wrong type or value: {rec[name]!r}")


def _coprime_tuples(max_a: int, rays: int) -> list[tuple[int, ...]]:
    out = []
    for t in itertools.combinations(range(2, max_a + 1), rays):
        if all(math.gcd(x, y) == 1 for x, y in itertools.combinations(t, 2)):
            out.append(t)
    return out


def brieskorn_verdict(count: int) -> str:
    """The survey verdict: two good initials make the kernel rank at least 2."""
    return "nontrivial" if count >= 2 else "trivial-rank"


def brieskorn_row(
    multiplicities: Sequence[int],
    early_stop: int | None = 2,
    cache: ResultCache | None = None,
) -> SurveyRow:
    """Analyze one Brieskorn sphere and classify it."""
    params = tuple(multiplicities)
    try:
        graph = sigma_star(params)
        graph_hash = canonical_graph_hash(graph)
        cached = cache.get(graph_hash, early_stop) if cache is not None else None
        if cached is not None:
            count, partial = cached["good_initial_count"], cached["partial"]
        else:
            report = analyze(graph, early_stop=early_stop)
            count, partial = report.good_initial_count, report.partial
            if cache is not None:
                cache.put(_cache_record(report))
        return SurveyRow(
            params=params,
            verdict=brieskorn_verdict(count),
            count=count,
            partial=partial,
            graph_hash=graph_hash,
        )
    except PlumbingError as exc:
        return SurveyRow(
            params=params,
            verdict="skipped",
            reason=f"{type(exc).__name__}: {exc}",
        )


def _cache_record(report: AnalysisReport) -> dict:
    return {
        "graph_hash": report.graph_hash,
        "early_stop": report.early_stop,
        "good_initial_count": report.good_initial_count,
        "partial": report.partial,
        "det": report.det,
        "initial_count": report.initial_count,
    }


def survey_brieskorn(
    max_a: int = 30,
    rays: int = 3,
    early_stop: int | None = 2,
    cache: ResultCache | None = None,
) -> list[SurveyRow]:
    """One row per pairwise-coprime multiplicity tuple within the bound."""
    if rays < 3:
        raise ValueError(f"rays must be at least 3, got {rays}: fewer fibers give S^3 (count 1)")
    return [
        brieskorn_row(t, early_stop=early_stop, cache=cache)
        for t in _coprime_tuples(max_a, rays)
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


class S3Row(Frozen):
    """Per-quadruple verification outcomes for the two-ray S^3 family."""

    quadruple: tuple[int, int, int, int]
    unique_good_initial: bool
    bumped_sums_hold: bool
    central_count_matches: bool
    pairing_jumps_match: bool
    reversal_is_good: bool
    count: int
    central_moves: int

    PROPERTIES = (
        "unique_good_initial",
        "bumped_sums_hold",
        "central_count_matches",
        "pairing_jumps_match",
        "reversal_is_good",
    )

    def failures(self) -> list[str]:
        """The names of the five properties that do not hold."""
        return [name for name in self.PROPERTIES if not getattr(self, name)]

    def all_pass(self) -> bool:
        return not self.failures()

    def to_obj(self) -> dict:
        return _fields_obj(self)


def s3_row(q: SphereQuadruple) -> S3Row:
    """Check the five structural properties on one quadruple's star."""
    c = q.canonical()
    graph = quadruple_star(c, name="s3" + str(c.as_tuple()))
    result = AssociationGame(graph).good_initial_count()
    expected_minimum = tuple(m + 2 for m in graph.weights)
    unique = result.count == 1 and result.initials[0].values == expected_minimum
    witness = result.witnesses[0] if result.witnesses else None

    # the star lists the center, then the first ray, then the second
    split = graph.neighbors[0][1]
    t, s = graph.weights[1:split], graph.weights[split:]
    bumped = bumped_sum_check(t, s) == (True, True)

    central = central_count(witness, 0) if witness else -1
    central_ok = central == c.a1 + c.a2 - 1

    jumps_ok = False
    reversal_ok = False
    if witness is not None:
        pv = pairing_vector_from_rays(t, s)
        values = [pairing(pv, state.values) for state in witness.states]
        jumps_ok = all(
            after - before == (2 if moved == 0 else 0)
            for before, after, moved in zip(values, values[1:], witness.moved)
        )
        reversal_ok = is_good_sequence(reverse_negate(witness))

    return S3Row(
        quadruple=c.as_tuple(),
        unique_good_initial=unique,
        bumped_sums_hold=bumped,
        central_count_matches=central_ok,
        pairing_jumps_match=jumps_ok,
        reversal_is_good=reversal_ok,
        count=result.count,
        central_moves=central,
    )


def s3_rows(bound: int = 20) -> list[S3Row]:
    return [s3_row(q) for q in enumerate_quadruples(bound)]


# -- emission ---------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(x) for x in value)
    return str(value)


def _objs_to_csv(header: list[str], objs: Sequence[dict]) -> str:
    """The header line, then one line per object; no rows give the header alone."""
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for obj in objs:
        writer.writerow([_csv_cell(obj[k]) for k in header])
    return buf.getvalue()


def rows_to_csv(rows: Sequence, row_type: type) -> str:
    """CSV with one row per survey/s3 row, one column per ``row_type`` field."""
    return _objs_to_csv(list(row_type._fields), [r.to_obj() for r in rows])


def report_to_csv(report: AnalysisReport, extra: dict | None = None) -> str:
    """One CSV row of the report's fields, then any ``extra`` columns."""
    obj = report.to_obj()
    obj.pop("sequences", None)
    obj["good_initials"] = [" ".join(str(x) for x in v) for v in obj["good_initials"]]
    obj.update(extra or {})
    return _objs_to_csv(list(obj), [obj])
