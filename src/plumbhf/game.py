"""The association game on weighted plumbing trees.

An association assigns each vertex an integer n(v) with n(v) = m(v)
(mod 2) and |n(v)| <= -m(v).  It is *initial* when m(v) < n(v) <= -m(v)
everywhere and *final* when m(v) <= n(v) < -m(v) everywhere.  A legal
move picks a vertex with n(v) = -m(v), flips it to m(v), and adds 2 to
each neighbor, provided the result is still an association.  A good
sequence runs from an initial association to a final one.

For a negative-definite tree with at most one bad vertex the number of
initial associations that start a good sequence equals the rank of the
kernel of the U-action on HF+ of the boundary (with Z/2 coefficients,
summed over spin-c structures), by the Ozsvath-Szabo plumbing
algorithm.

Internally states live in offset coordinates k(v) = (n(v) - m(v)) / 2,
which range over 0..-m(v).  A vertex is *capped* at the top of its
range; it is movable when it is capped and no neighbor is, and a state
is final exactly when no vertex is capped.

A state with two adjacent capped vertices is never good.  Neither of
them can move, a value only drops through its own vertex's move, and no
move may push a neighbor past its cap, so the pair stays capped and no
later state is final.  The scan over initial states therefore skips
every initial with such a pair, and a play stops as soon as it reaches
one.  Without one, every capped vertex is movable.  The scan is a
counter-based backtrack in index order: vertex v counts from 1 up to
-m(v), or one less while a lower neighbor is capped (the higher ones
still hold 0).  The caps and their product, the number of initials, are
computed once per game.  An early-stopped count is partial exactly when
it stops at an initial other than the lexicographically last one, the
all-capped state.

An exact count (no early stop) on a connected nonempty graph with a
negative-definite form and |det G| = 1 does not scan; the scan stays for
early stops (two good initials take a few plays, the walk a whole
period), other forms, |det| != 1 (one walk per class of L'/L) and
forests.  It walks Nemethi's tau sequence (Geom. Topol. 9, 2005) from v0,
the bad vertex or vertex 0.  Keep p(v) = (x, E_v): adding E_u adds m(u)
to p(u) and 1 to p of each neighbor.  From x(0) = 0, x(i+1) adds E_v0,
then E_v for v != v0 while some p(v) > 0 (Laufer), so x(i) is the least
cycle with v0-coefficient i and p <= 0 off v0.  tau rises by
Delta(i) = 1 - p(v0) after step i.  Step 0 is a minimum, and so is the
step where Delta turns positive after a descent (Delta = 0 steps inside
it belong to it).  A minimum gives the good initial k(v) = 1 - p(v), the
characteristic vector -(K + 2x).  Each is checked by a play, which must
reach a final state, and they are sorted as the scan lists them.

Stop rule.  Let d = |det G|, P = |det(G - v0)| and z = d E*_v0, with
(E*_v0, E_v) = -1 for v = v0 and 0 otherwise.  By Cramer's rule z is
integral with v0-coefficient P, so minimality gives x(i+P) <= x(i) + z
and x(i) <= x(i+P) - z: x(i+P) = x(i) + z, and Delta(i+P) = Delta(i) + d.
Let t be the last step so far with Delta < -d (-1 if none).  The walk
stops at the first step i with no descent pending and i - t >= P.  Any
j > i is j' + qP with t <= i - P < j' <= i and q >= 1, so
Delta(j) >= -d + d = 0: tau never falls again, and no later step is a
minimum.  On three-ray Brieskorn stars Delta >= -1: about P steps.

The game is confluent: two vertices movable at the same state are never
adjacent, so their moves commute, and when one move caps a shared
neighbor the other order caps it too, leaving an adjacent capped pair.
This diamond means that if any play from s reaches a final state in n
moves, every play from s does, so one deterministic play decides a
start.  The state space is finite, so a play that revisits a state never
ends and its start is not good.  A play cannot revisit a state while the
intersection form is nonsingular (a repeat would need a nonzero move
multiset in the form's kernel), so only plays on singular forms keep a
visited set.

There is no memo across starts (on the a <= 30 survey no play reached
a state an earlier play had visited).  A play moves one list in place,
keeping its capped vertices in a heap; a move caps only neighbors of
the moved vertex, so the capped-pair test looks only at those.  Each
game counts the plays that a capped pair (``capped_pairs``) or a
repeated state (``move_cycles``) stopped, and the steps (``tau_steps``)
and Laufer additions (``laufer_steps``) of its tau walks.  A count keeps
each good initial's offsets, checked to lie in 1..-m(v), and moves; the
validated associations and witnesses are built when first read, and a
survey row reads neither.  Every witness returned is replayed by
``is_good_sequence`` from initial to final, or raises SelfCheckError.

Everything here is integer vectors on one graph; the S^3 pairing vector,
and its pairing with witness states, are in :mod:`plumbhf.s3`.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from collections.abc import Iterator, Sequence
from heapq import heappop, heappush
from operator import le

from .errors import SelfCheckError, TooManyBadVerticesError
from .graph import (
    Frozen,
    PlumbingGraph,
    cached_property,
    complement_determinant,
    graph_determinant,
    is_negative_definite,
)

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep  # a warning names the first frame outside it


class Association(Frozen):
    """An integer vector on the vertices of a fixed graph.

    Validates the parity and bound constraints at construction, so every
    instance is a genuine association.
    """

    graph: PlumbingGraph
    values: tuple[int, ...]

    def __init__(self, graph: PlumbingGraph, values: tuple[int, ...]) -> None:
        if len(values) != graph.vertex_count:
            raise ValueError(f"expected {graph.vertex_count} values, got {len(values)}")
        for v, (m, x) in enumerate(zip(graph.weights, values)):
            if (x - m) % 2 != 0:
                raise ValueError(f"value {x} at vertex {v} has wrong parity for weight {m}")
            if abs(x) > -m:
                raise ValueError(f"value {x} at vertex {v} exceeds |{m}|")
        vars(self).update(graph=graph, values=values)


def is_initial(n: Association) -> bool:
    return all(m < x <= -m for m, x in zip(n.graph.weights, n.values))


def is_final(n: Association) -> bool:
    return all(m <= x < -m for m, x in zip(n.graph.weights, n.values))


class GoodSequence(Frozen):
    """A witness: states[0] initial, states[-1] final, one move per step."""

    states: tuple[Association, ...]
    moved: tuple[int, ...]

    def __init__(self, states: tuple[Association, ...], moved: tuple[int, ...]) -> None:
        if not states:
            raise ValueError("a sequence has at least one state")
        if len(moved) != len(states) - 1:
            raise ValueError("need exactly one moved vertex per step")
        vars(self).update(states=states, moved=moved)

    @property
    def graph(self) -> PlumbingGraph:
        return self.states[0].graph


def is_good_sequence(seq: GoodSequence) -> bool:
    """Replay against the definition, independent of the search engine."""
    if not is_initial(seq.states[0]) or not is_final(seq.states[-1]):
        return False
    g = seq.graph
    for before, after, v in zip(seq.states, seq.states[1:], seq.moved):
        if after.graph != g or before.graph != g or not 0 <= v < g.vertex_count:
            return False
        if before.values[v] != -g.weights[v] or after.values[v] != g.weights[v]:
            return False
        nbrs = set(g.neighbors[v])
        for u, (x, y) in enumerate(zip(before.values, after.values)):
            if u == v:
                continue
            if y != x + (2 if u in nbrs else 0):
                return False
    return True


def _witness(graph: PlumbingGraph, offsets: Sequence[int], moves: Sequence[int]) -> GoodSequence:
    """Play ``moves`` from offsets k: a move at v sets k(v) = 0 and adds 1
    at each neighbor, and each state is the Association n = m + 2k.
    SelfCheckError unless is_good_sequence accepts the whole sequence."""
    weights, nbrs, k = graph.weights, graph.neighbors, list(offsets)
    rows = [tuple(k)]
    for v in moves:
        k[v] = 0
        for u in nbrs[v]:
            k[u] += 1
        rows.append(tuple(k))
    states = [Association(graph, tuple([m + 2 * x for m, x in zip(weights, r)])) for r in rows]
    seq = GoodSequence(tuple(states), tuple(moves))
    if not is_good_sequence(seq):
        raise SelfCheckError(f"play {list(moves)} from offsets {tuple(offsets)} fails the replay")
    return seq


class GoodInitialResult(Frozen):
    """Outcome of a (possibly truncated) count of good initial associations.

    ``offsets[i]`` holds the offsets k(v) of the i-th good initial, each
    in 1..-m(v) on ``graph``, and ``moves[i]`` is the play that takes it
    to a final state.  The validated associations and the witness
    sequences, each replayed, are built from them when first read.
    """

    count: int
    offsets: tuple[tuple[int, ...], ...]
    moves: tuple[tuple[int, ...], ...]
    partial: bool
    initial_total: int
    graph: PlumbingGraph

    def initial_values(self) -> tuple[tuple[int, ...], ...]:
        """The good initials n(v) = m(v) + 2 k(v) as plain tuples."""
        weights = self.graph.weights
        return tuple([tuple([m + 2 * k for m, k in zip(weights, s)]) for s in self.offsets])

    @cached_property
    def initials(self) -> tuple[Association, ...]:
        return tuple(Association(self.graph, v) for v in self.initial_values())

    @cached_property
    def witnesses(self) -> tuple[GoodSequence, ...]:
        return tuple(_witness(self.graph, s, ms) for s, ms in zip(self.offsets, self.moves))


class AssociationGame:
    """Search context for one graph.  Plays keep no memo across starts."""

    def __init__(self, graph: PlumbingGraph) -> None:
        self.graph = graph
        self.capped_pairs = 0  # plays stopped by an adjacent capped pair
        self.move_cycles = 0  # plays stopped by a repeated state
        self.tau_steps = 0  # steps of the tau walks, step 0 included
        self.laufer_steps = 0  # E_v additions (v != v0) within those steps
        self._kmax = kmax = tuple(-w for w in graph.weights)
        self._nbrs = graph.neighbors
        self._bad = graph.bad
        self._negative_definite = is_negative_definite(graph)
        self._det = graph_determinant(graph)
        self._initial_total = math.prod(kmax) if not kmax or min(kmax) > 0 else 0  # 0: no initials

    def _is_initial(self, state: Sequence[int]) -> bool:
        """Whether ``state`` is an initial state: one offset 1..-m(v) per vertex."""
        top = self._kmax
        return len(state) == len(top) and (not top or min(state) > 0 and all(map(le, state, top)))

    # -- search ---------------------------------------------------------

    def _warn_if_outside_domain(self) -> None:
        """Warn, at the first caller outside this package, when the graph
        is outside the domain where a count is an HF+ rank."""
        if len(self._bad) > 1 or not self._negative_definite:
            frame, level = sys._getframe(), 1
            while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
                frame, level = frame.f_back, level + 1
            g = self.graph
            name = repr(g.name) if g.name is not None else f"with hash {g.canonical_hash}"
            warnings.warn(
                f"graph {name} is outside the validity domain (negative definite, "
                "at most one bad vertex); game counts are not HF+ ranks here",
                stacklevel=level,
            )

    def _play(self, state: Sequence[int]) -> list[int] | None:
        """Decide a start by one deterministic maximal play (see module doc):
        the lowest capped vertex moves each step, and an adjacent capped
        pair, or on a singular form a repeated state, decides it not good."""
        kmax, nbrs = self._kmax, self._nbrs
        k = list(state)
        capped = [v for v, x in enumerate(k) if x == kmax[v]]  # ascending: a heap
        for v in capped:
            for u in nbrs[v]:
                if k[u] == kmax[u]:
                    self.capped_pairs += 1
                    return None
        visited = set() if self._det == 0 else None
        moves: list[int] = []
        while capped:
            if visited is not None:
                t = tuple(k)
                if t in visited:
                    self.move_cycles += 1
                    return None
                visited.add(t)
            v = heappop(capped)  # no capped pair, so every capped vertex is movable
            moves.append(v)
            k[v] = 0
            for u in nbrs[v]:
                k[u] += 1
                if k[u] == kmax[u]:
                    for w in nbrs[u]:
                        if k[w] == kmax[w]:
                            self.capped_pairs += 1
                            return None
                    heappush(capped, u)
        return moves

    # -- public operations ----------------------------------------------

    def completes_to_good(self, n0: Association) -> GoodSequence | None:
        """A good sequence starting at n0, or None.

        n0 must be an initial association on this game's graph.  The
        witness ends at the first final state the search reaches, so a
        start that is itself final yields the one-state sequence.
        """
        if n0.graph != self.graph:
            raise ValueError("association belongs to a different graph")
        if not is_initial(n0):
            raise ValueError("completes_to_good needs an initial association")
        self._warn_if_outside_domain()
        offsets = [(x - m) // 2 for m, x in zip(self.graph.weights, n0.values)]
        moves = self._play(offsets)
        if moves is None:
            return None
        return _witness(self.graph, offsets, moves)

    def _initial_states(self) -> Iterator:
        """Initial states without an adjacent capped pair, lexicographically
        (module doc).  Every state is the same list, changed in place."""
        if not self._initial_total:
            return
        kmax, nbrs = self._kmax, self._nbrs
        last = len(kmax) - 1
        if last < 0:
            yield []
            return
        state = [0] * len(kmax)
        top = list(kmax)
        v = 0
        while v >= 0:
            k = state[v] + 1
            if k > top[v]:
                state[v] = 0
                v -= 1
                continue
            state[v] = k
            if v == last:
                yield state
                continue
            v += 1
            t = kmax[v]
            for u in nbrs[v]:  # a higher neighbor holds 0 here, below its cap
                if state[u] == kmax[u]:
                    t -= 1
                    break
            top[v] = t

    def _tau_states(self) -> list[tuple[int, ...]]:
        """Offsets of the good initials at the minima of tau (module doc)."""
        weights, nbrs = self.graph.weights, self._nbrs
        v0 = self._bad[0] if self._bad else 0
        period = abs(complement_determinant(self.graph, v0))
        det = abs(self._det)
        p = [0] * len(weights)
        minima: list[tuple[int, ...]] = []
        i, t, descending, laufer = 0, -1, True, 0  # step 0 (Delta = 1) is a minimum
        while True:
            delta = 1 - p[v0]
            if delta < 0:
                descending = True
                if delta < -det:
                    t = i
            elif delta > 0 and descending:
                minima.append(tuple(1 - x for x in p))
                descending = False
            if not descending and i - t >= period:
                break
            i += 1
            p[v0] += weights[v0]
            todo = list(nbrs[v0])
            for u in todo:
                p[u] += 1
            while todo:
                v = todo.pop()
                if p[v] <= 0:
                    continue
                c = (p[v] - 1) // -weights[v] + 1  # additions while p(v) > 0
                laufer += c
                p[v] += c * weights[v]
                for u in nbrs[v]:
                    p[u] += c
                    if u != v0 and p[u] > 0:
                        todo.append(u)
        self.tau_steps += i + 1  # steps 0..i
        self.laufer_steps += laufer
        return minima

    def good_initial_count(self, early_stop: int | None = None) -> GoodInitialResult:
        """Count (and list) the initial associations that complete.

        An exact count walks tau where it applies; any other count scans
        (module doc).  With ``early_stop=K`` the scan stops once K good ones are
        found, flagged partial iff before the last initial, so a count
        below K is exact.  Raises TooManyBadVerticesError beyond one bad
        vertex and warns when the form is not negative definite.
        """
        if len(self._bad) > 1:
            raise TooManyBadVerticesError(
                f"graph has bad vertices {list(self._bad)}; the count needs at most one"
            )
        if not self._negative_definite:
            self._warn_if_outside_domain()
        if early_stop is not None and early_stop < 1:
            raise ValueError("early_stop must be at least 1")
        g = self.graph
        if early_stop is None and self._negative_definite and abs(self._det) == 1:
            if g.vertex_count and g.is_connected:
                return self._count(sorted(self._tau_states()), tau=True)
        return self._count(self._initial_states(), early_stop)

    def _count(self, starts, early_stop: int | None = None, tau: bool = False) -> GoodInitialResult:
        """Play each start in order and keep the good ones, up to ``early_stop``.

        A kept start that is not an initial state raises, and so does a tau
        start whose play fails: each tau minimum is a good initial, with
        k(v) >= 1 as p(v) <= 0 off v0 and k(v0) = Delta > 0.
        """
        goods: list[tuple[int, ...]] = []
        plays: list[tuple[int, ...]] = []
        partial = False
        for s0 in starts:
            moves = self._play(s0)
            if moves is None:
                if tau:
                    raise SelfCheckError(f"tau minimum with offsets {s0} is not a good initial")
                continue
            if not self._is_initial(s0):
                raise SelfCheckError(f"good start with offsets {s0} is not an initial state")
            goods.append(tuple(s0))
            plays.append(tuple(moves))
            if early_stop is not None and len(goods) >= early_stop:
                partial = goods[-1] != self._kmax
                break
        return GoodInitialResult(
            count=len(goods),
            offsets=tuple(goods),
            moves=tuple(plays),
            partial=partial,
            initial_total=self._initial_total,
            graph=self.graph,
        )

