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
one.  Without one, every capped vertex is movable.  Skipped initials are
not scanned, so an early-stopped count is partial exactly when it stops
at an initial other than the lexicographically last one, the all-capped
state.

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

There is no memo across starts: on the a <= 30 survey, the benchmark's
full counts and ``s3 --bound 20`` no play ever reached a state an
earlier play had visited.  A play moves one list in place and keeps its
capped vertices as it goes; a move caps only neighbors of the moved
vertex, so the capped-pair test looks only at those.  Each game counts
the plays that a capped pair (``capped_pairs``) or a repeated state
(``move_cycles``) stopped, and the steps (``tau_steps``) and Laufer
additions (``laufer_steps``) of its tau walks; no emission carries the
counts.  A count keeps only each good initial's moves; the validated
witness sequences are built the first time
:attr:`GoodInitialResult.witnesses` is read.

Everything here is integer vectors on one graph: :func:`pairing` takes
plain integer sequences, and the S^3 pairing vector it is used with is
built in :mod:`plumbhf.seifert`.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterator, Sequence

from .errors import DimensionMismatchError, IllegalMoveError, PlumbingError, TooManyBadVerticesError
from .graph import (
    Frozen,
    PlumbingGraph,
    bad_vertices,
    complement_determinant,
    graph_determinant,
    is_negative_definite,
)


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


def apply_move(n: Association, v: int) -> Association:
    """The changed association, or IllegalMoveError."""
    g = n.graph
    if not (0 <= v < g.vertex_count):
        raise IllegalMoveError(f"no vertex {v}")
    if n.values[v] != -g.weights[v]:
        raise IllegalMoveError(f"vertex {v} is not at -m(v)")
    vals = list(n.values)
    vals[v] = g.weights[v]
    for u in g.neighbors[v]:
        vals[u] += 2
        if vals[u] > -g.weights[u]:
            raise IllegalMoveError(f"move at {v} would push neighbor {u} past its bound")
    return Association(g, tuple(vals))


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

    def to_jsonable(self) -> dict:
        return {
            "states": [list(s.values) for s in self.states],
            "moved": list(self.moved),
        }


def is_good_sequence(seq: GoodSequence) -> bool:
    """Replay against the definition, independent of the search engine."""
    if not is_initial(seq.states[0]) or not is_final(seq.states[-1]):
        return False
    g = seq.graph
    for before, after, v in zip(seq.states, seq.states[1:], seq.moved):
        if after.graph != g or before.graph != g:
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


def reverse_negate(seq: GoodSequence) -> GoodSequence:
    """The reversed, negated sequence; good whenever seq is good."""
    g = seq.graph
    states = tuple(
        Association(g, tuple(-x for x in s.values)) for s in reversed(seq.states)
    )
    return GoodSequence(states, tuple(reversed(seq.moved)))


def _witness(n0: Association, moves: Sequence[int]) -> GoodSequence:
    """The sequence that plays ``moves`` from n0, every state validated."""
    states = [n0]
    for v in moves:
        states.append(apply_move(states[-1], v))
    return GoodSequence(tuple(states), tuple(moves))


class GoodInitialResult(Frozen):
    """Outcome of a (possibly truncated) scan over initial associations.

    ``moves[i]`` is the play that takes ``initials[i]`` to a final
    state.  The witness sequences are built from them when first read.
    """

    count: int
    initials: tuple[Association, ...]
    moves: tuple[tuple[int, ...], ...]
    partial: bool
    initial_total: int

    @cached_property
    def witnesses(self) -> tuple[GoodSequence, ...]:
        return tuple(_witness(n0, ms) for n0, ms in zip(self.initials, self.moves))


class AssociationGame:
    """Search context for one graph.  Plays keep no memo across starts."""

    def __init__(self, graph: PlumbingGraph) -> None:
        self.graph = graph
        self.capped_pairs = 0  # plays stopped by an adjacent capped pair
        self.move_cycles = 0  # plays stopped by a repeated state
        self.tau_steps = 0  # steps of the tau walks, step 0 included
        self.laufer_steps = 0  # E_v additions (v != v0) within those steps
        self._kmax = tuple(-w for w in graph.weights)
        self._nbrs = graph.neighbors
        self._bad = bad_vertices(graph)
        self._negative_definite = is_negative_definite(graph)
        self._det = graph_determinant(graph)

    def _to_assoc(self, state: Sequence[int]) -> Association:
        return Association(
            self.graph,
            tuple(m + 2 * k for m, k in zip(self.graph.weights, state)),
        )

    # -- search ---------------------------------------------------------

    def _warn_if_outside_domain(self) -> None:
        if len(self._bad) > 1 or not self._negative_definite:
            warnings.warn(
                "graph is outside the validity domain (negative definite, "
                "at most one bad vertex); game counts are not HF+ ranks here",
                stacklevel=3,
            )

    def _play(self, state: Sequence[int]) -> list[int] | None:
        """Decide a start by one deterministic maximal play (see module doc).

        The play moves a copy of ``state`` in place.  It keeps the capped
        vertices in a heap and moves the lowest one each step.  A move
        caps only neighbors of the moved vertex, so only those are tested
        for a capped neighbor, and an adjacent capped pair decides the
        start as not good.  On a singular form the play keeps a visited
        set, and a repeated state decides the start as not good.
        """
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
        moves = self._play([(x - m) // 2 for m, x in zip(self.graph.weights, n0.values)])
        if moves is None:
            return None
        return _witness(n0, moves)

    def _initial_states(self) -> Iterator:
        """Initial states without an adjacent capped pair, lexicographically.

        Backtracks over the vertices in index order; vertex v may sit at
        its cap only if no earlier neighbor does.  Every state is the same
        list, changed in place between yields.
        """
        kmax = self._kmax
        if any(k < 1 for k in kmax):
            return
        n = len(kmax)
        if n == 0:
            yield []
            return
        earlier: list[list[int]] = [[] for _ in range(n)]
        for u, w in self.graph.edges:
            earlier[max(u, w)].append(min(u, w))
        state = [0] * n
        values = [iter(range(1, kmax[0] + 1))] + [None] * (n - 1)
        v = 0
        while v >= 0:
            k = next(values[v], None)
            if k is None:
                v -= 1
                continue
            state[v] = k
            if v == n - 1:
                yield state
                continue
            v += 1
            top = kmax[v]
            for u in earlier[v]:
                if state[u] == kmax[u]:
                    top -= 1
                    break
            values[v] = iter(range(1, top + 1))

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

        An exact count walks tau where it applies (see module doc).  Any
        other count scans initial associations in lexicographic order,
        skipping those with an adjacent capped pair.  With
        ``early_stop=K`` the scan may stop as soon as K good ones are
        found; the result is flagged partial iff it stops before the
        last initial, the all-capped state, so a count below K is always
        exact.  Raises TooManyBadVerticesError beyond one bad vertex and
        warns when the form is not negative definite.
        """
        if len(self._bad) > 1:
            raise TooManyBadVerticesError(
                f"graph has bad vertices {self._bad}; the count needs at most one"
            )
        if not self._negative_definite:
            self._warn_if_outside_domain()
        if early_stop is not None and early_stop < 1:
            raise ValueError("early_stop must be at least 1")
        g = self.graph
        if early_stop is None and self._negative_definite and abs(self._det) == 1:
            if g.vertex_count and g.is_connected:
                return self._tau_count()
        return self._scan_count(early_stop)

    def _tau_count(self) -> GoodInitialResult:
        # k(v) >= 1: p(v) <= 0 off v0, and k(v0) = Delta > 0 at a minimum
        starts = sorted(self._tau_states())
        plays = []
        for s0 in starts:
            in_range = all(k <= top for k, top in zip(s0, self._kmax))
            moves = self._play(s0) if in_range else None
            if moves is None:
                raise PlumbingError(f"tau minimum with offsets {s0} is not a good initial")
            plays.append(tuple(moves))
        return self._result(starts, plays, False)

    def _scan_count(self, early_stop: int | None = None) -> GoodInitialResult:
        goods: list[tuple[int, ...]] = []
        plays: list[tuple[int, ...]] = []
        partial = False
        for s0 in self._initial_states():
            moves = self._play(s0)
            if moves is None:
                continue
            goods.append(tuple(s0))
            plays.append(tuple(moves))
            if early_stop is not None and len(goods) >= early_stop:
                partial = goods[-1] != self._kmax
                break
        return self._result(goods, plays, partial)

    def _result(self, starts, plays, partial: bool) -> GoodInitialResult:
        return GoodInitialResult(
            count=len(starts),
            initials=tuple(self._to_assoc(s) for s in starts),
            moves=tuple(plays),
            partial=partial,
            initial_total=math.prod(max(k, 0) for k in self._kmax),
        )


def good_initial_count(graph: PlumbingGraph, early_stop: int | None = None) -> GoodInitialResult:
    """One-shot wrapper; see AssociationGame.good_initial_count."""
    return AssociationGame(graph).good_initial_count(early_stop)


def pairing(x: Sequence[int], y: Sequence[int]) -> int:
    """Coordinatewise dot product sum n(w) n'(w) of two integer vectors."""
    if len(x) != len(y):
        raise DimensionMismatchError(f"lengths {len(x)} and {len(y)} differ")
    return sum(a * b for a, b in zip(x, y))


def central_count(seq: GoodSequence, center: int) -> int:
    """How many moves of the sequence happen at the center vertex."""
    return sum(1 for v in seq.moved if v == center)
