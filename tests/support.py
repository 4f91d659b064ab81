"""Shared helpers and independent oracles for the test suite.

Graph builders: ``star``, ``chain``, ``e8``, ``blow_up_edge``,
``blow_up_leaf`` and the seeded draws ``random_forest``,
``relabeled_forest``, ``random_unimodular_tree`` and
``random_small_star``.

Oracles reimplement the library's core answers from their definitions,
so the production code is checked against something it does not share
internals with: ``cofactor_det`` (cofactor expansion),
``oracle_completes`` and ``oracle_count`` (uncached breadth-first
search over the raw move rules), ``brute_initial_states``,
``brute_quadruples`` (a raw scan of the sphere equation),
``descent_verdict`` (Nemethi's Delta from the Seifert invariants) and
``laufer_chi`` (rationality by Laufer's loop, the L-space test of a
count against |det|).

Reference helpers are what the tests compare the package's answers
with: ``is_sphere_quadruple``, ``canonical_quadruple``,
``coprime_pairs``, ``brieskorn_data``, ``delta``,
``reduced_fractions``, ``eval_cf``, ``intersection_matrix``,
``interior_association_count``, ``json_canonical_hash``,
``graph_to_obj`` and ``write_graph_file``.  No command runs them.
``time_limit`` fails a slow check that runs past its bound.
"""

import hashlib
import itertools
import json
import math
import signal
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from plumbhf.graph import build_graph, graph_determinant, is_negative_definite
from plumbhf.seifert import coprime_tuples


def star(center, *rays, name=None):
    """Star graph: center vertex first, then each ray walking outward."""
    weights = [center]
    edges = []
    for ray in rays:
        prev = 0
        for w in ray:
            weights.append(w)
            edges.append((prev, len(weights) - 1))
            prev = len(weights) - 1
    return build_graph(weights, edges, name=name)


def chain(*weights):
    return build_graph(list(weights), [(i, i + 1) for i in range(len(weights) - 1)])


def e8():
    return star(-2, [-2] * 4, [-2] * 2, [-2], name="e8")


def cofactor_det(rows):
    """Textbook cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def oracle_completes(graph, values):
    """Uncached BFS over the raw move rules; True iff a final state is
    reachable from the given association values."""
    kmax = tuple(-w for w in graph.weights)
    nbrs = graph.neighbors
    start = tuple((n - w) // 2 for n, w in zip(values, graph.weights))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            capped = [v for v in range(len(s)) if s[v] == kmax[v]]
            if not capped:
                return True
            for v in capped:
                if any(s[u] >= kmax[u] for u in nbrs[v]):
                    continue
                child = list(s)
                child[v] = 0
                for u in nbrs[v]:
                    child[u] += 1
                child = tuple(child)
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return False


def oracle_count(graph):
    """Full good-initial count through oracle_completes."""
    ranges = [range(w + 2, -w + 1, 2) for w in graph.weights]
    return sum(
        1 for values in itertools.product(*ranges) if oracle_completes(graph, values)
    )


def brute_initial_states(graph):
    """Every initial offset vector k(v) in 1..-m(v) without an adjacent
    capped pair, in lexicographic order: the unpruned product, filtered."""
    kmax = [-w for w in graph.weights]
    return [
        k
        for k in itertools.product(*[range(1, top + 1) for top in kmax])
        if not any(k[u] == kmax[u] and k[v] == kmax[v] for u, v in graph.edges)
    ]


def relabeled_forest(rng, max_vertices=7, weights=(-1, -2, -3, -4)):
    """A random forest whose vertex ids are shuffled, so a vertex may have
    several lower neighbors, built from edges in random order and
    orientation."""
    n = rng.randint(1, max_vertices)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[rng.randrange(v)], label[v]) for v in range(1, n) if rng.random() < 0.85]
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    return build_graph([rng.choice(weights) for _ in range(n)], edges)


def is_sphere_quadruple(q):
    """Exact integer form of 1 + b1/a1 + b2/a2 = 1/(a1*a2) for q = (a1, b1, a2, b2)."""
    a1, b1, a2, b2 = q
    return a1 * a2 + a2 * b1 + a1 * b2 == 1


def canonical_quadruple(q):
    """q = (a1, b1, a2, b2) with the ray of ratio >= -2 first; with b < 0,
    a/b >= -2 is a <= -2b.  A sphere quadruple has exactly one such ray."""
    return q if q[0] <= -2 * q[1] else q[2:] + q[:2]


def coprime_pairs(bound):
    """The coprime pairs x < y with x + y <= bound: one S^3 = Sigma(x, y) each."""
    return [t for t in coprime_tuples(bound - 2, 2) if sum(t) <= bound]


def brieskorn_data(params):
    """(m, rays, P, N0) of Sigma(params), solved as brieskorn solves them.

    P = prod(a), each ray (a_j, b_j) has b_j = (P/a_j)^-1 mod a_j shifted
    into (-a_j, 0), the rays stay in the order of ``params``, the center
    is m = (sum b_j*P/a_j - 1)/P and N0 = (n - 2)*P - sum P/a_j.  Nothing
    is checked: SeifertInvariants checks the sphere equation.
    """
    product = math.prod(params)
    rays = [(a, pow(product // a, -1, a) - a) for a in params]
    m = (sum(b * (product // a) for a, b in rays) - 1) // product
    n0 = (len(params) - 2) * product - sum(product // a for a in params)
    return m, rays, product, n0


def delta(m, rays, i):
    """Nemethi's Delta(i) = 1 - m*i + sum floor(i*b_j/a_j) of the invariants."""
    return 1 - m * i + sum(i * b // a for a, b in rays)


def descent_verdict(params):
    """The survey verdict of Sigma(params) from Nemethi's Delta alone.

    The sphere has two good initials iff Delta(i) < 0 for some i; as
    Delta(i + P) = Delta(i) + 1, only i in 0..P-1 can be the first.
    Any one such i decides it, so N0 mod P is tried before the scan:
    Delta(N0) = -1 on every tuple and N0 >= 1 on every tuple of three or
    more but (2, 3, 5) (seifert.py's docstring proves both), and then
    Delta(N0 mod P) <= Delta(N0).  Shares no code with the graph, the
    forms or the game.
    """
    m, rays, product, n0 = brieskorn_data(params)
    for i in itertools.chain([n0 % product], range(product)):
        if delta(m, rays, i) < 0:
            return "nontrivial"
    return "trivial-rank"


def brute_quadruples(bound):
    """Canonical quadruple tuples with a1 + a2 <= bound, by raw scan of
    the sphere equation a1*a2 + a2*b1 + a1*b2 = 1."""
    out = set()
    for a1 in range(2, bound - 1):
        for a2 in range(2, bound - a1 + 1):
            for b1 in range(-a1 + 1, 0):
                for b2 in range(-a2 + 1, 0):
                    if a1 * a2 + a2 * b1 + a1 * b2 == 1:
                        out.add(canonical_quadruple((a1, b1, a2, b2)))
    return out


def random_forest(rng, max_vertices=6, weight_range=(-4, -1), edge_chance=0.8):
    n = rng.randint(1, max_vertices)
    weights = [rng.randint(*weight_range) for _ in range(n)]
    edges = []
    for v in range(1, n):
        if rng.random() < edge_chance:
            edges.append((rng.randrange(v), v))
    return build_graph(weights, edges)


def random_unimodular_tree(rng, max_vertices=10, max_initials=20_000, nodes=1):
    """Connected negative-definite tree with |det| = 1, at most one bad
    vertex and at least ``nodes`` vertices of degree >= 3.

    The determinant is affine in one weight, det = A*m(r) + B, so a
    random shape and random weights in -5..-1 are completed by solving
    for m(r); draws without an integer m(r) <= -1 are redrawn.
    """
    while True:
        n = rng.randint(2, max_vertices)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if sum(d >= 3 for d in degree) < nodes:
            continue
        weights = [rng.randint(-5, -1) for _ in range(n)]
        r = rng.randrange(n)
        weights[r] = 0
        b = graph_determinant(build_graph(weights, edges))
        weights[r] = -1
        a = b - graph_determinant(build_graph(weights, edges))
        signs = [s for s in (1, -1) if a and (s - b) % a == 0]
        if not signs:
            continue
        weights[r] = (rng.choice(signs) - b) // a
        if weights[r] > -1 or math.prod(-w for w in weights) > max_initials:
            continue
        g = build_graph(weights, edges)
        if is_negative_definite(g) and len(g.bad) <= 1:
            return g


def random_small_star(rng):
    """Negative-definite all-(<= -2) star: rays <= 3, weights >= -5,
    at most 8 vertices.  Retries until the form is negative definite."""
    while True:
        nrays = rng.randint(1, 3)
        lengths = [rng.randint(1, 3) for _ in range(nrays)]
        while 1 + sum(lengths) > 8:
            lengths[lengths.index(max(lengths))] -= 1
            if 0 in lengths:
                lengths.remove(0)
        rays = [[rng.randint(-5, -2) for _ in range(l)] for l in lengths if l > 0]
        g = star(rng.randint(-5, -2), *rays)
        if is_negative_definite(g):
            return g


def blow_up_edge(g, u, v):
    """Insert a -1 vertex on edge (u, v), dropping both end weights by 1."""
    key = (min(u, v), max(u, v))
    assert key in g.edges
    weights = list(g.weights)
    weights[u] -= 1
    weights[v] -= 1
    weights.append(-1)
    new = len(weights) - 1
    edges = [e for e in g.edges if e != key] + [(u, new), (v, new)]
    return build_graph(weights, edges)


def blow_up_leaf(g, u):
    """Hang a -1 leaf off u, dropping u's weight by 1."""
    weights = list(g.weights)
    weights[u] -= 1
    weights.append(-1)
    return build_graph(weights, list(g.edges) + [(u, len(weights) - 1)])


def reduced_fractions(limit):
    """All reduced a/b < -1 with |a|, |b| <= limit."""
    for a in range(2, limit + 1):
        for b in range(1, a):
            if math.gcd(a, b) == 1:
                yield Fraction(-a, b)


def eval_cf(coeffs):
    """Value of a canonical coefficient list (nonempty, all <= -2).

    Folded from the last coefficient in Fraction arithmetic, independently
    of the package's integer recurrences.  Canonical lists never hit a
    zero denominator: every tail evaluates below -1, and so does the
    result.
    """
    if not coeffs:
        raise ValueError("empty coefficient list")
    if any(t > -2 for t in coeffs):
        raise ValueError(f"coefficients must all be <= -2, got {list(coeffs)}")
    value = Fraction(coeffs[-1])
    for t in reversed(coeffs[:-1]):
        value = t - 1 / value
    return value


def intersection_matrix(g):
    """Rows of the form: weights on the diagonal, 1 for every edge, 0 elsewhere."""
    n = g.vertex_count
    rows = [[0] * n for _ in range(n)]
    for v, w in enumerate(g.weights):
        rows[v][v] = w
    for u, v in g.edges:
        rows[u][v] = 1
        rows[v][u] = 1
    return tuple(tuple(r) for r in rows)


def laufer_chi(graph):
    """chi(Z_min) of a connected negative-definite tree, by Laufer's loop.

    Z starts at the sum of all E_v, and E_v is added while (Z, E_v) > 0;
    the loop ends at the fundamental cycle Z_min (Laufer, Amer. J. Math.
    94 (1972)).  chi(Z) = -(Z^2 + K.Z)/2 with K.E_v = -m(v) - 2, and the
    graph is rational iff chi(Z_min) = 1.  With at most one bad vertex,
    rational is the L-space condition (Nemethi, Geom. Topol. 9 (2005)):
    the good-initial count is |det| exactly then.  Adjacency comes from
    graph.edges, not from the package's neighbors.
    """
    nbrs = [[] for _ in graph.weights]
    for u, v in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    z = [1] * len(graph.weights)

    def pairing(v):  # (Z, E_v)
        return z[v] * graph.weights[v] + sum(z[u] for u in nbrs[v])

    while up := [v for v in range(len(z)) if pairing(v) > 0]:
        z[up[0]] += 1
    square = sum(z[v] * pairing(v) for v in range(len(z)))
    canonical = sum(x * (-m - 2) for x, m in zip(z, graph.weights))
    return -(square + canonical) // 2


def interior_association_count(graph):
    """prod(-1 - m(w)): the associations strictly inside their bounds.

    Each such association is simultaneously initial and final, so this
    is a lower bound for the good-initial count.  Only meaningful when
    every weight is <= -2 (ValueError otherwise).
    """
    out = 1
    for v, m in enumerate(graph.weights):
        if m > -2:
            raise ValueError(f"vertex {v} has weight {m} > -2")
        out *= -1 - m
    return out


def json_canonical_hash(g):
    """sha256 of the graph's compact, key-sorted json.dumps serialization,
    the bytes PlumbingGraph.canonical_hash formats directly."""
    payload = {
        "vertices": [[v, w] for v, w in enumerate(g.weights)],
        "edges": [list(e) for e in g.edges],
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def graph_to_obj(g):
    """The canonical graph-file object: dense ids, sorted edges."""
    obj = {}
    if g.name is not None:
        obj["name"] = g.name
    obj["vertices"] = [{"id": v, "weight": w} for v, w in enumerate(g.weights)]
    obj["edges"] = [list(e) for e in g.edges]
    return obj


def write_graph_file(g, path):
    Path(path).write_text(json.dumps(graph_to_obj(g), indent=2) + "\n")


@contextmanager
def time_limit(seconds):
    """Fail the enclosed block with AssertionError, which the package never
    catches, once it has run ``seconds`` of wall time (SIGALRM, so only in
    the main thread of a POSIX process)."""

    def expire(signum, frame):
        raise AssertionError(f"still running after the {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
