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

A count keeps only each good initial's moves; the validated witness
sequences are built the first time :attr:`GoodInitialResult.witnesses`
is read, and a result holds no reference to the game's memo.

Everything here is integer vectors on one graph: :func:`pairing` takes
plain integer sequences, and the S^3 pairing vector it is used with is
built in :mod:`plumbhf.seifert`.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatchError,
    IllegalMoveError,
    TooManyBadVerticesError,
    WeightTooLargeError,
)
from .graph import (
    PlumbingGraph,
    bad_vertices,
    graph_determinant,
    is_negative_definite,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Association:
    """An integer vector on the vertices of a fixed graph.

    Validates the parity and bound constraints at construction, so every
    instance is a genuine association.
    """

    graph: PlumbingGraph
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.graph.vertex_count:
            raise ValueError(
                f"expected {self.graph.vertex_count} values, got {len(self.values)}"
            )
        for v, (m, x) in enumerate(zip(self.graph.weights, self.values)):
            if (x - m) % 2 != 0:
                raise ValueError(f"value {x} at vertex {v} has wrong parity for weight {m}")
            if abs(x) > -m:
                raise ValueError(f"value {x} at vertex {v} exceeds |{m}|")


def is_initial(n: Association) -> bool:
    return all(m < x <= -m for m, x in zip(n.graph.weights, n.values))


def is_final(n: Association) -> bool:
    return all(m <= x < -m for m, x in zip(n.graph.weights, n.values))


def legal_moves(n: Association) -> list[int]:
    """Vertices where a change is legal, ascending."""
    g = n.graph
    out = []
    for v, (m, x) in enumerate(zip(g.weights, n.values)):
        if x != -m:
            continue
        if all(n.values[u] + 2 <= -g.weights[u] for u in g.neighbors[v]):
            out.append(v)
    return out


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


@dataclass(frozen=True)
class GoodSequence:
    """A witness: states[0] initial, states[-1] final, one move per step."""

    states: tuple[Association, ...]
    moved: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a sequence has at least one state")
        if len(self.moved) != len(self.states) - 1:
            raise ValueError("need exactly one moved vertex per step")

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


@dataclass(frozen=True)
class GoodInitialResult:
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
    """Search context for one graph, with cross-start memoization."""

    def __init__(self, graph: PlumbingGraph) -> None:
        self.graph = graph
        self._kmax = tuple(-w for w in graph.weights)
        self._nbrs = graph.neighbors
        self._bad = bad_vertices(graph)
        self._negative_definite = is_negative_definite(graph)
        self._singular = graph_determinant(graph) == 0
        small = all(0 <= k <= 255 for k in self._kmax)
        self._freeze = bytes if small else tuple
        self._thaw = bytearray if small else list
        # reach[s] is True when a final state is reachable from s, False
        # when provably not; step[s] is a move known to lead toward one.
        self._reach: dict = {}
        self._step: dict = {}

    # -- conversions ----------------------------------------------------

    def _to_state(self, n: Association):
        return self._freeze((x - m) // 2 for m, x in zip(self.graph.weights, n.values))

    def _to_assoc(self, state) -> Association:
        return Association(
            self.graph,
            tuple(m + 2 * k for m, k in zip(self.graph.weights, state)),
        )

    def _bump(self, state, v: int):
        mut = self._thaw(state)
        mut[v] = 0
        for u in self._nbrs[v]:
            mut[u] += 1
        return self._freeze(mut)

    # -- search ---------------------------------------------------------

    def _warn_if_outside_domain(self) -> None:
        if len(self._bad) > 1 or not self._negative_definite:
            warnings.warn(
                "graph is outside the validity domain (negative definite, "
                "at most one bad vertex); game counts are not HF+ ranks here",
                stacklevel=3,
            )

    def _play(self, s0) -> list[int] | None:
        """Decide s0 by one deterministic maximal play (see module doc).

        Confluence makes the play's outcome the outcome of every play.
        A state with an adjacent capped pair decides s0 as not good.
        On a singular form the play keeps a visited set, and a repeated
        state decides s0 as not good.  Visited states are memoized with
        the move taken, so later starts splice into stored plays instead
        of replaying them.
        """
        reach, step = self._reach, self._step
        kmax, nbrs = self._kmax, self._nbrs
        visited = set() if self._singular else None
        path_states: list = []
        path_moves: list[int] = []
        s = s0
        while True:
            known = reach.get(s)
            if known is not None:
                good = known
                break
            if visited is not None:
                if s in visited:
                    logger.debug("move cycle through %r on %s", s, self.graph.name)
                    good = False
                    break
                visited.add(s)
            triggered = [v for v, k in enumerate(s) if k == kmax[v]]
            if not triggered:
                good = True
                break
            if any(s[u] == kmax[u] for v in triggered for u in nbrs[v]):
                logger.debug("capped pair in %r on %s", s, self.graph.name)
                good = False
                break
            move = triggered[0]  # no capped pair, so every capped vertex is movable
            path_states.append(s)
            path_moves.append(move)
            s = self._bump(s, move)
        reach[s] = good
        if not good:
            for t in path_states:
                reach[t] = False
            return None
        # every path state was a memo miss, so these never overwrite
        for t, v in zip(path_states, path_moves):
            reach[t] = True
            step[t] = v
        while True:  # append the memoized continuation, if any
            v = step.get(s)
            if v is None:
                break
            path_moves.append(v)
            s = self._bump(s, v)
        return path_moves

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
        moves = self._play(self._to_state(n0))
        if moves is None:
            return None
        return _witness(n0, moves)

    def _initial_states(self) -> Iterator:
        """Initial states without an adjacent capped pair, lexicographically.

        Backtracks over the vertices in index order; vertex v may sit at
        its cap only if no earlier neighbor does.
        """
        kmax = self._kmax
        if any(k < 1 for k in kmax):
            return
        n = len(kmax)
        if n == 0:
            yield self._freeze(())
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
                yield self._freeze(state)
                continue
            v += 1
            top = kmax[v]
            for u in earlier[v]:
                if state[u] == kmax[u]:
                    top -= 1
                    break
            values[v] = iter(range(1, top + 1))

    def good_initial_count(self, early_stop: int | None = None) -> GoodInitialResult:
        """Count (and list) the initial associations that complete.

        Scans initial associations in lexicographic order, skipping those
        with an adjacent capped pair (see module doc).  With
        ``early_stop=K`` the scan may stop as soon as K good ones are
        found; the result is flagged partial iff it stops before the last
        initial, the all-capped state, so a count below K is always
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
        total = 1
        for k in self._kmax:
            total *= max(k, 0)
        goods: list[Association] = []
        plays: list[tuple[int, ...]] = []
        partial = False
        for s0 in self._initial_states():
            moves = self._play(s0)
            if moves is None:
                continue
            goods.append(self._to_assoc(s0))
            plays.append(tuple(moves))
            if early_stop is not None and len(goods) >= early_stop:
                partial = tuple(s0) != self._kmax
                break
        return GoodInitialResult(
            count=len(goods),
            initials=tuple(goods),
            moves=tuple(plays),
            partial=partial,
            initial_total=total,
        )


def completes_to_good(n0: Association) -> GoodSequence | None:
    """One-shot wrapper; see AssociationGame.completes_to_good."""
    return AssociationGame(n0.graph).completes_to_good(n0)


def good_initial_count(graph: PlumbingGraph, early_stop: int | None = None) -> GoodInitialResult:
    """One-shot wrapper; see AssociationGame.good_initial_count."""
    return AssociationGame(graph).good_initial_count(early_stop)


def interior_association_count(graph: PlumbingGraph) -> int:
    """prod(-1 - m(w)): the associations strictly inside their bounds.

    Each such association is simultaneously initial and final, so this
    is a lower bound for the good-initial count.  Only meaningful when
    every weight is <= -2 (WeightTooLargeError otherwise).
    """
    out = 1
    for v, m in enumerate(graph.weights):
        if m > -2:
            raise WeightTooLargeError(f"vertex {v} has weight {m} > -2")
        out *= -1 - m
    return out


def pairing(x: Sequence[int], y: Sequence[int]) -> int:
    """Coordinatewise dot product sum n(w) n'(w) of two integer vectors."""
    if len(x) != len(y):
        raise DimensionMismatchError(f"lengths {len(x)} and {len(y)} differ")
    return sum(a * b for a, b in zip(x, y))


def central_count(seq: GoodSequence, center: int) -> int:
    """How many moves of the sequence happen at the center vertex."""
    return sum(1 for v in seq.moved if v == center)
