"""Per-module spans for plumbhf, recorded from outside the package.

The tracer wraps plumbhf's public functions and the two classes whose
methods carry a layer (``AssociationGame``, ``ResultCache``).  Modules
import graph functions with ``from .graph import ...``, so one function
object is bound under the same name in several modules; the tracer
replaces it in every ``plumbhf`` module that binds it, or calls made
through the other bindings would go unseen.  ``restore`` puts every
original back.

Spans are kept in memory as (name, start, end, parent) and aggregated
when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (module, attribute path); methods are patched on their class
TARGETS = {
    "cli": ("plumbhf.cli", "main"),
    "report.survey": ("plumbhf.report", "survey_brieskorn"),
    "report.analyze": ("plumbhf.report", "analyze"),
    "report.cache.load": ("plumbhf.report", "ResultCache.__init__"),
    "report.cache.get": ("plumbhf.report", "ResultCache.get"),
    "report.cache.put": ("plumbhf.report", "ResultCache.put"),
    "seifert.brieskorn": ("plumbhf.seifert", "brieskorn"),
    "seifert.star_graph": ("plumbhf.seifert", "star_graph"),
    "contfrac.expand_cf": ("plumbhf.contfrac", "expand_cf"),
    "graph.determinant": ("plumbhf.graph", "graph_determinant"),
    "graph.negdef": ("plumbhf.graph", "is_negative_definite"),
    "graph.blow_down": ("plumbhf.graph", "blow_down"),
    "files.hash": ("plumbhf.files", "canonical_graph_hash"),
    "game.init": ("plumbhf.game", "AssociationGame.__init__"),
    "game.count": ("plumbhf.game", "AssociationGame.good_initial_count"),
}


def plumbhf_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "plumbhf" or name.startswith("plumbhf."))
    ]


def _resolve(module_name: str, path: str):
    """(owner, attribute name, original) for a dotted attribute path."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Patch plumbhf in place; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.game = GameCounters()
        self.cache_hits = 0

    def __enter__(self) -> "Tracer":
        try:
            for name, (module_name, path) in TARGETS.items():
                owner, attr, orig = _resolve(module_name, path)
                wrapper = self._wrap(name, orig)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in plumbhf_modules():
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            self._patch(module, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = {
            "game.count": self.game.observe,
            "report.cache.get": self._observe_get,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_get(self, args, result) -> None:
        if result is not None:
            self.cache_hits += 1

    def aggregate(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "total_s", "self_s"} over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TARGETS}
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return out


class GameCounters:
    """What the good-initial counts did, read off their public results.

    The count scans initial states in lexicographic order and an early
    stop breaks right after the last good initial it keeps, so a partial
    scan covered exactly the initials up to that one.
    """

    def __init__(self) -> None:
        self.initials = 0
        self.good = 0
        self.witness_states = 0
        self.full_initials = 0
        self.full_good = 0

    def observe(self, args, result) -> None:
        game = args[0]
        if result.partial:
            scanned = _lex_rank(game.graph.weights, result.initials[-1].values) + 1
        else:
            scanned = result.initial_total
            self.full_initials += scanned
            self.full_good += result.count
        self.initials += scanned
        self.good += result.count
        self.witness_states += sum(len(w.states) for w in result.witnesses)


def _lex_rank(weights, values) -> int:
    """Position of an initial association in the scan order (0-based)."""
    rank = 0
    for m, x in zip(weights, values):
        rank = rank * -m + (x - m) // 2 - 1
    return rank
