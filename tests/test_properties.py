"""Property tests on random forests: the graph-file object round trip and
the canonical hash.  Skipped when hypothesis is not installed."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from plumbhf import build_graph, canonical_graph_hash, graph_from_obj, graph_to_obj

# deterministic, and no example database written next to the tests
PROPERTY = settings(max_examples=100, deadline=None, database=None, derandomize=True)


@st.composite
def forests(draw, max_vertices=12):
    """A forest with edges given in random order and orientation."""
    n = draw(st.integers(0, max_vertices))
    weights = draw(st.lists(st.integers(-8, 2), min_size=n, max_size=n))
    edges = []
    for v in range(1, n):
        parent = draw(st.none() | st.integers(0, v - 1))  # None starts a new tree
        if parent is not None:
            edges.append(draw(st.sampled_from([(parent, v), (v, parent)])))
    name = draw(st.none() | st.text("ab_(-2) é", max_size=8))
    return build_graph(weights, draw(st.permutations(edges)), name)


@PROPERTY
@given(forests())
def test_graph_obj_round_trip(g):
    assert graph_from_obj(graph_to_obj(g)) == g
    assert graph_from_obj(json.loads(json.dumps(graph_to_obj(g)))) == g


@PROPERTY
@given(forests(), st.data())
def test_hash_survives_relabeling_and_reordering(g, data):
    """Sparse ids in the same order, shuffled vertex and edge lists,
    flipped edges and another name give the same graph and hash."""
    gaps = data.draw(st.lists(st.integers(1, 5), min_size=g.vertex_count, max_size=g.vertex_count))
    start = data.draw(st.integers(-20, 20))
    ids = [start + sum(gaps[: i + 1]) for i in range(g.vertex_count)]
    vertices = [{"id": ids[v], "weight": w} for v, w in enumerate(g.weights)]
    edges = [
        data.draw(st.sampled_from([[ids[u], ids[v]], [ids[v], ids[u]]])) for u, v in g.edges
    ]
    obj = {
        "name": "relabeled",
        "vertices": data.draw(st.permutations(vertices)),
        "edges": data.draw(st.permutations(edges)),
    }
    h = graph_from_obj(obj)
    assert (h.weights, h.edges) == (g.weights, g.edges)
    assert canonical_graph_hash(h) == canonical_graph_hash(g)
