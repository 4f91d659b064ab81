"""Weighted plumbing trees and their intersection forms.

A plumbing graph is a forest whose vertices carry integer weights m(v).
Its intersection matrix has m(v) on the diagonal and a 1 in position
(u, v) for every edge.  The boundary of the plumbed 4-manifold is an
integral homology sphere exactly when the determinant is +-1, and the
counting algorithm in :mod:`plumbhf.game` applies when the form is
negative definite with at most one bad vertex (a vertex with
m(v) > -degree(v)).

A graph's determinant and definiteness come from one leaf-to-root sweep
over the tree, computed once per graph object and kept on it
(:attr:`PlumbingGraph.forms`); its canonical hash, which keys the result
cache, is likewise computed once and kept
(:attr:`PlumbingGraph.canonical_hash`).  No matrix is ever built.  All
arithmetic is exact over the integers.
"""

from __future__ import annotations

import hashlib
import json
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (
    BadIdError,
    CycleCreatedError,
    CycleDetectedError,
    DuplicateEdgeError,
)


class Frozen:
    """Base of the package's immutable value classes.

    A subclass's fields are its annotations, in order, with defaults as
    class attributes.  Construction, equality, hashing and a
    dataclass-style repr follow from ``_fields``.  Setting or deleting an
    attribute raises AttributeError; ``cached_property`` still works.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._required = frozenset(f for f in cls._fields if f not in vars(cls))
        cls._key = attrgetter(*cls._fields)  # not a method: self._key(obj) reads obj's fields

    def __init__(self, *args, **kwargs) -> None:
        given = vars(self)
        given.update(zip(self._fields, args), **kwargs)
        unknown = given.keys() - self._fields or len(given) < len(args) + len(kwargs)
        if unknown or not self._required <= given.keys():
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")

    __delattr__ = __setattr__


class PlumbingGraph(Frozen):
    """Immutable weighted forest on vertices 0..n-1.

    Edges are stored as sorted (low, high) pairs in sorted order, so two
    graphs with the same vertices and edges compare and hash equal.  The
    empty graph is allowed; it denotes the standard 3-sphere.
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    name: str | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in self.weights]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @cached_property
    def is_connected(self) -> bool:
        n = self.vertex_count
        if n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for u in self.neighbors[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    @cached_property
    def forms(self) -> tuple[int, bool]:
        """(det, negative_definite) of the intersection form.

        One leaf-to-root integer sweep per component.  A vertex v with
        children c has E_v = prod D_c and
        D_v = m(v)*E_v - sum_c E_c * prod_{c' != c} D_c', which is the
        determinant of v's subtree (expand along v's row).  det is the
        product of D_root over the roots.  Each subtree is a principal
        submatrix and D_v/E_v is its Schur pivot, so the form is
        negative definite iff every such pivot is negative, i.e. every
        D_v is nonzero with sign (-1)^|subtree(v)|.  The empty graph has
        det 1 and is vacuously negative definite.  Raises
        CycleDetectedError if the edges do not form a forest, which only
        a directly built graph can do.
        """
        d, e, roots = _sweep(self, 0)
        det = 1
        for r in roots:
            det *= d[r]
        return det, all(x * y < 0 for x, y in zip(d, e))

    @cached_property
    def canonical_hash(self) -> str:
        """sha256 of the sorted vertex/edge serialization (name excluded)."""
        payload = {
            "vertices": [[v, w] for v, w in enumerate(self.weights)],
            "edges": [list(e) for e in self.edges],
        }
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def build_graph(
    weights: Sequence[int],
    edges: Iterable[Sequence[int]] = (),
    name: str | None = None,
) -> PlumbingGraph:
    """Validate weights/edges and return a canonical PlumbingGraph.

    Vertex ids are the positions 0..n-1 of ``weights``.  Raises BadIdError
    for an endpoint outside that range, DuplicateEdgeError for a repeated
    unordered pair, and CycleDetectedError for a self-loop or any edge
    that would close a cycle (the graph must be a forest).
    """
    ws = tuple(weights)
    n = len(ws)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n) or not (0 <= v < n):
            raise BadIdError(f"edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise CycleDetectedError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"edge {key} appears twice")
        seen.add(key)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleDetectedError(f"edge {key} closes a cycle")
        parent[ru] = rv
        canon.append(key)
    return PlumbingGraph(ws, tuple(sorted(canon)), name)


def _sweep(g: PlumbingGraph, first: int) -> tuple[list[int], list[int], list[int]]:
    """(D, E, roots) of the leaf-to-root sweep of PlumbingGraph.forms.

    ``first`` roots its own component; every other component is rooted
    at its lowest vertex.
    """
    n = g.vertex_count
    nbrs = g.neighbors
    parent: list[int | None] = [None] * n  # -1 for a root
    order: list[int] = []  # breadth-first, so parents precede children
    roots: list[int] = []
    i = 0
    for r in [first, *range(n)] if n else []:
        if parent[r] is not None:
            continue
        parent[r] = -1
        roots.append(r)
        order.append(r)
        while i < len(order):
            v = order[i]
            i += 1
            for u in nbrs[v]:
                if parent[u] is None:
                    parent[u] = v
                    order.append(u)
    if len(g.edges) != n - len(roots):
        raise CycleDetectedError(f"{len(g.edges)} edges on {n} vertices close a cycle")
    d = list(g.weights)
    e = [1] * n
    for v in reversed(order):  # children before parents
        p = parent[v]
        if p >= 0:
            d[p], e[p] = d[p] * d[v] - e[p] * e[v], e[p] * d[v]
    return d, e, roots


def graph_determinant(g: PlumbingGraph) -> int:
    """Determinant of the intersection form; see PlumbingGraph.forms."""
    return g.forms[0]


def is_negative_definite(g: PlumbingGraph) -> bool:
    """Negative definiteness of the intersection form; see PlumbingGraph.forms."""
    return g.forms[1]


def complement_determinant(g: PlumbingGraph, v: int) -> int:
    """det(G - v) on v's component: the product of the determinants of
    v's branches, which the forms sweep rooted at v leaves in E_v."""
    return _sweep(g, v)[1][v]


def bad_vertices(g: PlumbingGraph) -> list[int]:
    """Vertices with m(v) > -degree(v), ascending."""
    return [v for v in range(g.vertex_count) if g.weights[v] > -g.degree(v)]


def blow_down(g: PlumbingGraph) -> PlumbingGraph:
    """Collapse weight -1 vertices of degree <= 2 until none remains.

    Degree 0: delete the vertex.  Degree 1: delete it and add 1 to the
    neighbor's weight.  Degree 2: delete it, join its two neighbors by an
    edge, and add 1 to each of their weights.  The boundary 3-manifold
    and |det| are unchanged.  Candidates are consumed smallest id first,
    so the fixed point is deterministic.  Surviving vertices are
    renumbered densely, preserving relative order.
    """
    weights = dict(enumerate(g.weights))
    adj: dict[int, set[int]] = {v: set(g.neighbors[v]) for v in range(g.vertex_count)}
    while True:
        v = min((u for u in weights if weights[u] == -1 and len(adj[u]) <= 2), default=None)
        if v is None:
            break
        nbrs = sorted(adj[v])
        for u in nbrs:
            adj[u].discard(v)
        del weights[v], adj[v]
        if len(nbrs) == 1:
            weights[nbrs[0]] += 1
        elif len(nbrs) == 2:
            u, w = nbrs
            if w in adj[u]:
                raise CycleCreatedError(
                    f"blowing down {v} would double the edge ({u}, {w})"
                )
            adj[u].add(w)
            adj[w].add(u)
            weights[u] += 1
            weights[w] += 1
    ids = sorted(weights)
    index = {old: new for new, old in enumerate(ids)}  # order-preserving, so pairs stay sorted
    new_edges = sorted((index[u], index[v]) for u in ids for v in adj[u] if u < v)
    return PlumbingGraph(tuple(weights[i] for i in ids), tuple(new_edges), g.name)
