"""Weighted plumbing trees and their intersection forms.

A plumbing graph is a forest whose vertices carry integer weights m(v).
Its intersection matrix has m(v) on the diagonal and a 1 in position
(u, v) for every edge.  The boundary of the plumbed 4-manifold is an
integral homology sphere exactly when the determinant is +-1, and the
counting algorithm in :mod:`plumbhf.game` applies when the form is
negative definite with at most one bad vertex (a vertex with
m(v) > -degree(v)).

Each per-graph fact is computed once per graph object and kept on it.
The determinant and definiteness come from one leaf-to-root sweep over
the tree (:attr:`PlumbingGraph.forms`), a graph's one structural check:
it refuses anything but a canonical forest on 0..n-1, its edges (low,
high) pairs in ascending order, and every other fact (``neighbors``, so
``bad``, the game and :func:`blow_down`; ``is_connected``;
``canonical_hash``) reads the forms first.  A constructor that knows the
forms from its input stores them in the new graph's instance dict, where
the descriptor never runs: :func:`plumbhf.seifert.star_graph` does, for a
star whose forms the sphere equation fixes, so such a constructor must
build a canonical forest itself.  Connectedness comes from the
component count of that forest.  The sweep is one fold of leaves
straight off the edge list, for every forest and every root: it reads
no adjacency list.  The bad vertices are :attr:`PlumbingGraph.bad`.  The
canonical hash, which keys the result cache, is the sha256 of a compact
JSON serialization formatted directly; sha256 comes from CPython's
builtin module (``_sha2``, or ``_sha256`` before 3.12), since
``hashlib`` would load OpenSSL at start-up, and from ``hashlib`` only
where neither is built.  No matrix is ever built; all arithmetic is exact.
These facts are :class:`cached_property` attributes: the standard
descriptor, minus the lock that Python 3.10 and 3.11 take on every
first read, which costs more than reading a small fact does.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from operator import attrgetter

try:  # CPython's builtin sha256, as random.py takes sha512: hashlib loads OpenSSL
    from _sha2 import sha256  # 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .errors import BadIdError, CycleDetectedError, DuplicateEdgeError


class cached_property(functools.cached_property):
    """functools.cached_property whose first read stores the value without a lock.

    Up to Python 3.11 the standard ``__get__`` takes a lock on every first
    read, which more than doubles its cost.  The values kept here are pure
    functions of immutable fields, so a race between threads at worst
    computes one twice.  Later reads find the value in the instance dict.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Frozen:
    """Base of the package's immutable value classes.

    A subclass's fields are its annotations, in order, with defaults as
    class attributes; no field without a default may follow one with a
    default.  Each subclass that does not define its own ``__init__`` gets
    one built once, when the class is made, whose parameters are the
    fields (the way ``collections.namedtuple`` builds its ``__new__``), so
    a field binds by position or by name, an omitted defaulted field takes
    its default, and an unknown, missing, repeated or surplus argument
    raises TypeError as any Python call does.  Equality, hashing and a
    dataclass-style repr follow from ``_fields``, and
    :func:`plumbhf.report.json_text` writes an instance as the JSON object
    of its fields in that order.  Setting or deleting an attribute raises
    AttributeError; ``cached_property`` still works.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*fields)  # not a method: self._key(obj) reads obj's fields
        if "__init__" not in vars(cls):
            cls.__init__ = _field_init(cls, fields)

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


def _field_init(cls: type, fields: tuple[str, ...]):
    """``__init__(self, <fields>)``, storing the fields as the instance dict."""
    defaults = tuple(vars(cls)[f] for f in fields if f in vars(cls))
    if any(f not in vars(cls) for f in fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    params = ", ".join(fields)
    items = ", ".join(f"{f!r}: {f}" for f in fields)
    namespace = {"_set": object.__setattr__, "__builtins__": {}}
    exec(f"def __init__(self, {params}):\n    _set(self, '__dict__', {{{items}}})", namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class PlumbingGraph(Frozen):
    """Immutable weighted forest on vertices 0..n-1.

    Edges are (low, high) pairs in ascending order; the forms sweep,
    which every fact reads first, refuses any others.  The name is a
    field, so it is part of equality and ``hash()``, but not of
    ``canonical_hash``: same-weight, same-edge graphs under two names have
    one canonical hash yet compare unequal.  The empty graph is allowed;
    it denotes the standard 3-sphere.
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    name: str | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbors, ascending, from the canonical edges
        that the forms sweep, read first, checks."""
        self.forms  # CycleDetectedError or BadIdError unless a canonical forest
        nbrs: list[list[int]] = [[] for _ in self.weights]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @property
    def is_connected(self) -> bool:
        """At most one component.  A forest has n - |E| components, and
        the forms sweep checks that the edges form one (CycleDetectedError
        otherwise)."""
        self.forms  # CycleDetectedError unless the edges form a forest
        return self.vertex_count - len(self.edges) <= 1

    @cached_property
    def bad(self) -> tuple[int, ...]:
        """Vertices with m(v) > -degree(v), ascending."""
        pairs = zip(self.weights, self.neighbors)
        return tuple(v for v, (m, ns) in enumerate(pairs) if m > -len(ns))

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
        D_v is nonzero with sign (-1)^|subtree(v)|; that holds for any
        choice of roots, so the roots _sweep's one fold leaves do not
        change the forms.
        The empty graph has det 1 and is vacuously negative definite.
        Raises CycleDetectedError if the edges do not form a forest, and
        BadIdError for an edge id outside 0..n-1 or edges that are not
        ascending (low, high) pairs, which only a directly built graph
        can have.  A constructor that knows the pair from its
        input stores it instead (:func:`plumbhf.seifert.star_graph`), and
        then no sweep runs.
        """
        d, e, roots = _sweep(self, 0)
        det = 1
        for r in roots:
            det *= d[r]
        return det, all(x * y < 0 for x, y in zip(d, e))

    @cached_property
    def canonical_hash(self) -> str:
        """sha256 of the sorted vertex/edge serialization (name excluded).

        The serialization is the compact, key-sorted JSON of
        ``{"edges": [[u, v], ...], "vertices": [[i, m(i)], ...]}``,
        formatted here directly.  The forms are read first, so a graph
        that is not a canonical forest gets no hash.
        """
        self.forms  # CycleDetectedError or BadIdError unless a canonical forest
        edges = ",".join(f"[{u},{v}]" for u, v in self.edges)
        vertices = ",".join(f"[{v},{w}]" for v, w in enumerate(self.weights))
        blob = f'{{"edges":[{edges}],"vertices":[{vertices}]}}'
        return sha256(blob.encode()).hexdigest()


def build_graph(
    weights: Sequence[int],
    edges: Iterable[Sequence[int]] = (),
    name: str | None = None,
    ids: Sequence[int] | None = None,
) -> PlumbingGraph:
    """Validate weights/edges and return a canonical PlumbingGraph.

    Vertex ids are the positions 0..n-1 of ``weights``.  Raises BadIdError
    for an endpoint outside that range, DuplicateEdgeError for a repeated
    unordered pair, and CycleDetectedError for a self-loop or any edge
    that would close a cycle (the graph must be a forest).  Each error
    names the edge by its place, ``edges[i]``; a self-loop, a repeat or a
    cycle names its vertices as ``ids`` numbers them (a graph file's own
    ids, say), by default by their positions.
    """
    ws = tuple(weights)
    n = len(ws)
    label = range(n) if ids is None else ids
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: dict[tuple[int, int], int] = {}  # canonical edge -> its place in edges
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n) or not (0 <= v < n):
            raise BadIdError(f"edges[{i}]: edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        if u == v:
            raise CycleDetectedError(f"edges[{i}]: self-loop at vertex {label[u]}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(
                f"edges[{i}]: edge [{label[u]}, {label[v]}] repeats edges[{seen[key]}]"
            )
        seen[key] = i
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleDetectedError(f"edges[{i}]: edge [{label[u]}, {label[v]}] closes a cycle")
        parent[ru] = rv
    return PlumbingGraph(ws, tuple(sorted(seen)), name)


def _sweep(g: PlumbingGraph, first: int) -> tuple[list[int], list[int], list[int]]:
    """(D, E, roots) of the leaf-to-root sweep of PlumbingGraph.forms.

    Leaves are folded straight off the edge list; no adjacency list is
    built.  One pass gives each vertex its degree and the XOR of its
    neighbors, which for a leaf is its one unfolded neighbor.  The scan
    runs down the ids, folds each leaf into that neighbor, and follows
    the chain while the neighbor has become a leaf above the scan, so
    each vertex is folded after all its children.  ``first`` gets a
    degree that never reaches 1, so it roots its component; the roots
    are the vertices left unfolded (on a star, the center, and each
    vertex's parent is its lower neighbor).  Each fold removes one edge,
    and a cycle, a doubled edge or a self-loop is never folded away, so
    an edge count other than the number of folds raises
    CycleDetectedError.  An id outside 0..n-1, and then a forest whose
    edges are not ascending (low, high) pairs, raise BadIdError.
    """
    n = g.vertex_count
    deg = [0] * n
    xor = [0] * n
    for i, (u, v) in enumerate(g.edges):
        if not (0 <= u < n and 0 <= v < n):
            raise BadIdError(f"edges[{i}]: edge ({u}, {v}) references a vertex outside 0..{n - 1}")
        deg[u] += 1
        deg[v] += 1
        xor[u] ^= v
        xor[v] ^= u
    if n:
        deg[first] = 0  # folds only lower it, so it never reaches 1
    d = list(g.weights)
    e = [1] * n
    for scan in range(n - 1, -1, -1):
        v = scan
        while deg[v] == 1:  # a leaf: fold it into its one unfolded neighbor p
            p = xor[v]
            d[p], e[p] = d[p] * d[v] - e[p] * e[v], e[p] * d[v]
            deg[p] -= 1
            xor[p] ^= v
            if p < scan:  # the scan reaches p later
                break
            v = p
    folded = deg.count(1)  # a folded vertex keeps degree 1, and no root has it
    if len(g.edges) != folded:
        raise CycleDetectedError(f"{len(g.edges)} edges on {n} vertices close a cycle")
    before = (-1, -1)
    for i, (u, v) in enumerate(g.edges):
        if not (before < (u, v) and u < v):
            raise BadIdError(f"edges[{i}]: edge ({u}, {v}) is not a (low, high) pair in ascending order")
        before = u, v
    roots = [first] if folded == n - 1 else [v for v, k in enumerate(deg) if k != 1]
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


def blow_down(g: PlumbingGraph) -> PlumbingGraph:
    """Collapse weight -1 vertices of degree <= 2 until none remains.

    Degree 0: delete the vertex.  Degree 1: delete it and add 1 to the
    neighbor's weight.  Degree 2: delete it, join its two neighbors by an
    edge, and add 1 to each of their weights.  The boundary 3-manifold
    and |det| are unchanged.  Candidates are consumed smallest id first,
    so the fixed point is deterministic.  Surviving vertices are
    renumbered densely, preserving relative order.  Each step keeps a
    forest a forest, so no step can double an edge; reading
    ``g.neighbors`` checks that ``g`` is one.  A graph with nothing to
    blow down is returned as it is, with its cached facts.
    """
    weights = dict(enumerate(g.weights))
    adj: dict[int, set[int]] = {v: set(ns) for v, ns in enumerate(g.neighbors)}
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
            adj[u].add(w)
            adj[w].add(u)
            weights[u] += 1
            weights[w] += 1
    if len(weights) == g.vertex_count:  # every step deletes a vertex, so none ran
        return g
    ids = sorted(weights)
    index = {old: new for new, old in enumerate(ids)}  # order-preserving, so pairs stay sorted
    new_edges = sorted((index[u], index[v]) for u in ids for v in adj[u] if u < v)
    return PlumbingGraph(tuple(weights[i] for i in ids), tuple(new_edges), g.name)
