"""Shared helpers and independent oracles for the test suite.

The oracles reimplement the library's core answers from their
definitions (cofactor expansion, uncached breadth-first search over the
raw move rules, a brute scan of the sphere equation) so the production
code is checked against something it does not share internals with.
The reference helpers (continued-fraction values, intersection
matrices, the interior-association bound, the S^3 quadruple reduction
and pairing vector, graph-file writing) are what the tests compare the
package's answers with; no command runs them.
"""

import json
from fractions import Fraction
from pathlib import Path

from plumbhf.contfrac import expand_ratio
from plumbhf.graph import build_graph
from plumbhf.seifert import SphereQuadruple, is_sphere_quadruple, pairing_vector_from_rays


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
    import itertools

    ranges = [range(w + 2, -w + 1, 2) for w in graph.weights]
    return sum(
        1 for values in itertools.product(*ranges) if oracle_completes(graph, values)
    )


def brute_quadruples(bound):
    """Canonical quadruple tuples with a1 + a2 <= bound, by raw scan of
    the sphere equation a1*a2 + a2*b1 + a1*b2 = 1."""
    out = set()
    for a1 in range(2, bound - 1):
        for a2 in range(2, bound - a1 + 1):
            for b1 in range(-a1 + 1, 0):
                for b2 in range(-a2 + 1, 0):
                    if a1 * a2 + a2 * b1 + a1 * b2 == 1:
                        q = SphereQuadruple(a1, b1, a2, b2)
                        out.add(q.canonical().as_tuple())
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
    import math

    from plumbhf.graph import bad_vertices, graph_determinant, is_negative_definite

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
        if is_negative_definite(g) and len(bad_vertices(g)) <= 1:
            return g


def random_small_star(rng):
    """Negative-definite all-(<= -2) star: rays <= 3, weights >= -5,
    at most 8 vertices.  Retries until the form is negative definite."""
    from plumbhf.graph import is_negative_definite

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
    import math

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


def reduce_quadruple(q):
    """One reduction step, strictly shrinking both multiplicities.

    The ray with ratio > -2 is moved into first position and replaced by
    (-b1, 2*b1 + a1) while the other ray drops to (a2 + b2, b2).  Raises
    ValueError when the distinguished ratio is exactly -2 (the
    irreducible family) or q is not a sphere quadruple.
    """
    if not is_sphere_quadruple(q):
        raise ValueError(f"{q.as_tuple()} does not satisfy the sphere equation")
    c = q.canonical()
    if c.a1 == -2 * c.b1:
        raise ValueError(f"{c.as_tuple()} has ray ratio exactly -2")
    return SphereQuadruple(-c.b1, 2 * c.b1 + c.a1, c.a2 + c.b2, c.b2)


def pairing_vector(q):
    """The pairing vector of a sphere quadruple's star, from its canonical rays.

    Raises ValueError if q is not a sphere quadruple.
    """
    if not is_sphere_quadruple(q):
        raise ValueError(f"{q.as_tuple()} does not satisfy the sphere equation")
    c = q.canonical()
    return pairing_vector_from_rays(expand_ratio(-c.a1, -c.b1), expand_ratio(-c.a2, -c.b2))


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
