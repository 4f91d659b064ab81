"""Property tests on random forests: the graph-file object round trip,
the canonical hash, the game's count against the BFS oracle, and blow-up
invariance of counts.  Skipped when hypothesis is not installed."""

import json
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from plumbhf.files import canonical_graph_hash, graph_from_obj
from plumbhf.game import good_initial_count, is_good_sequence
from plumbhf.graph import build_graph, is_negative_definite
from support import blow_up_edge, blow_up_leaf, graph_to_obj, oracle_count

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


@st.composite
def game_forests(draw, max_vertices=7, min_weight=-3, max_bad=1):
    """A forest with weights <= -1 and at most ``max_bad`` bad vertices;
    the others get weight <= -degree.  Singular forms are not excluded."""
    n = draw(st.integers(1, max_vertices))
    edges = []
    for v in range(1, n):
        parent = draw(st.none() | st.integers(0, v - 1))
        if parent is not None:
            edges.append((parent, v))
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    bad = draw(st.sets(st.integers(0, n - 1), max_size=max_bad))
    weights = [draw(st.integers(min_weight, -1)) for _ in range(n)]
    weights = [w if v in bad else min(w, -degree[v]) for v, w in enumerate(weights)]
    return build_graph(weights, edges)


@PROPERTY
@given(game_forests())
@example(build_graph([-1, -1], [(0, 1)]))  # singular: a play from (1, 0) cycles
@example(build_graph([-2, -1, -2], [(0, 1), (1, 2)]))
def test_count_matches_the_oracle_and_witnesses_replay(g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # forms that are not negative definite warn
        result = good_initial_count(g)
    assert result.count == oracle_count(g)
    assert len(result.witnesses) == result.count
    assert all(is_good_sequence(w) for w in result.witnesses)


@PROPERTY
@given(game_forests(max_vertices=6, min_weight=-4, max_bad=0), st.data())
def test_count_survives_blow_ups(g, data):
    """Blowing up an edge or hanging a -1 leaf leaves the count alone.
    With weights <= -max(2, degree) the form is negative definite, and
    either blow-up adds at most one bad vertex."""
    g = build_graph([min(w, -2) for w in g.weights], g.edges)
    assert is_negative_definite(g) and not g.bad
    if g.edges and data.draw(st.booleans()):
        bigger = blow_up_edge(g, *data.draw(st.sampled_from(g.edges)))
    else:
        bigger = blow_up_leaf(g, data.draw(st.integers(0, g.vertex_count - 1)))
    assert len(bigger.bad) <= 1
    assert good_initial_count(bigger).count == good_initial_count(g).count
