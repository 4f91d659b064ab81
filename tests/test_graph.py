import random

import pytest

from plumbhf.errors import BadIdError, CycleCreatedError, CycleDetectedError, DuplicateEdgeError
from plumbhf.graph import (
    PlumbingGraph,
    bad_vertices,
    blow_down,
    build_graph,
    complement_determinant,
    graph_determinant,
    is_negative_definite,
)
from plumbhf.report import analyze
from support import chain, cofactor_det, e8, intersection_matrix, random_forest, star


def test_build_graph_basic():
    g = build_graph([-2, -3], [(0, 1)], name="pair")
    assert g.vertex_count == 2
    assert g.weights[1] == -3
    assert g.degree(0) == 1
    assert g.neighbors[0] == (1,)
    assert g.name == "pair"
    assert g.is_connected


def test_build_graph_normalizes_edge_order():
    g = build_graph([-2, -2], [(1, 0)])
    assert g.edges == ((0, 1),)


def test_empty_graph():
    g = build_graph([], [])
    assert g.vertex_count == 0
    assert g.is_connected
    assert graph_determinant(g) == 1
    assert analyze(g).is_homology_sphere
    assert is_negative_definite(g)


def test_build_graph_rejects_bad_ids():
    with pytest.raises(BadIdError):
        build_graph([-2], [(0, 1)])
    with pytest.raises(BadIdError):
        build_graph([-2, -2], [(-1, 0)])


def test_build_graph_rejects_self_loop_and_cycle():
    with pytest.raises(CycleDetectedError):
        build_graph([-2], [(0, 0)])
    with pytest.raises(CycleDetectedError):
        build_graph([-2, -2, -2], [(0, 1), (1, 2), (0, 2)])


def test_build_graph_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        build_graph([-2, -2], [(0, 1), (1, 0)])


def test_intersection_matrix_entries():
    g = chain(-2, -3, -5)
    m = intersection_matrix(g)
    assert m == ((-2, 1, 0), (1, -3, 1), (0, 1, -5))


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(200):
        g = random_forest(rng, max_vertices=6)
        rows = [list(r) for r in intersection_matrix(g)]
        assert graph_determinant(g) == cofactor_det(rows)


def test_complement_determinant_matches_cofactor_oracle():
    """det(G - v) on connected trees, with every vertex as the root."""
    rng = random.Random(6)
    for _ in range(100):
        g = random_forest(rng, max_vertices=6, edge_chance=1.0)
        rows = intersection_matrix(g)
        for v in range(g.vertex_count):
            minor = [r[:v] + r[v + 1 :] for i, r in enumerate(rows) if i != v]
            assert complement_determinant(g, v) == cofactor_det([list(r) for r in minor])


def _sylvester_negative_definite(g):
    """Leading principal minors in vertex order alternate in sign, -1 first."""
    rows = [list(r) for r in intersection_matrix(g)]
    return all(
        (-1) ** k * cofactor_det([r[:k] for r in rows[:k]]) > 0 for k in range(1, len(rows) + 1)
    )


def test_forms_match_cofactor_and_sylvester_on_random_forests():
    # weights up to +1 reach zero and positive pivots, and edge_chance < 1
    # leaves some forests disconnected
    rng = random.Random(17)
    seen = {"disconnected": 0, "definite": 0, "singular": 0, "indefinite": 0}
    for _ in range(400):
        g = random_forest(rng, max_vertices=9, weight_range=(-5, 1))
        det = cofactor_det([list(r) for r in intersection_matrix(g)])
        definite = _sylvester_negative_definite(g)
        assert graph_determinant(g) == det
        assert is_negative_definite(g) == definite
        seen["disconnected"] += not g.is_connected
        seen["definite"] += definite
        seen["singular"] += det == 0
        seen["indefinite"] += det != 0 and not definite
    assert min(seen.values()) >= 20, seen


def test_forms_of_singular_and_degenerate_graphs():
    empty = build_graph([], [])
    assert (graph_determinant(empty), is_negative_definite(empty)) == (1, True)
    singular = {
        "E6~": star(-2, [-2, -2], [-2, -2], [-2, -2]),
        "E7~": star(-2, [-2] * 3, [-2] * 3, [-2]),
        "E8~": star(-2, [-2] * 5, [-2] * 2, [-2]),
        "D4~": star(-2, [-2], [-2], [-2], [-2]),
        "chain(-1, -1)": chain(-1, -1),
    }
    for name, g in singular.items():
        assert graph_determinant(g) == 0, name
        assert not is_negative_definite(g), name


def test_forms_refuse_a_directly_built_cycle():
    for edges in (((0, 1), (0, 2), (1, 2)), ((0, 1), (0, 1)), ((0, 0),)):
        g = PlumbingGraph((-2, -2, -2), edges)
        with pytest.raises(CycleDetectedError):
            graph_determinant(g)
        with pytest.raises(CycleDetectedError):
            is_negative_definite(g)


def test_graphs_are_frozen_values():
    g = build_graph([-2, -3, -2], [(1, 0), (1, 2)], name="g")
    h = PlumbingGraph((-2, -3, -2), ((0, 1), (1, 2)), "g")
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != PlumbingGraph(h.weights, h.edges) and g != (h.weights, h.edges, h.name)
    assert repr(g) == "PlumbingGraph(weights=(-2, -3, -2), edges=((0, 1), (1, 2)), name='g')"
    for name in ("weights", "edges", "name", "forms", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    with pytest.raises(AttributeError):
        del g.weights
    assert g.forms == (-8, True) and "forms" in vars(g)  # cached_property still caches
    assert g == h and hash(g) == hash(h)  # the cache is not a field
    # fields bind by position or name, as a dataclass's do
    assert PlumbingGraph(weights=(-2,), edges=()) == PlumbingGraph((-2,), (), None)
    for bad in (
        lambda: PlumbingGraph((-2,)),  # edges missing
        lambda: PlumbingGraph((-2,), (), None, None),  # one value too many
        lambda: PlumbingGraph((-2,), (), nme="x"),  # no such field
        lambda: PlumbingGraph((-2,), (), weights=(-3,)),  # weights given twice
    ):
        with pytest.raises(TypeError):
            bad()


def test_forms_are_computed_once_per_graph():
    g = e8()
    assert "forms" not in vars(g)
    assert graph_determinant(g) == 1
    cached = vars(g)["forms"]
    assert is_negative_definite(g) is True
    assert g.forms is cached


def test_determinant_known_values():
    assert graph_determinant(e8()) == 1
    # a chain of p vertices of weight -2 has determinant (-1)^p (p+1)
    for p in range(1, 7):
        g = chain(*([-2] * p))
        assert graph_determinant(g) == (-1) ** p * (p + 1)


def test_is_homology_sphere():
    assert analyze(e8()).is_homology_sphere
    assert not analyze(build_graph([-2], [])).is_homology_sphere


def test_is_negative_definite():
    assert is_negative_definite(e8())
    assert is_negative_definite(build_graph([-1], []))
    assert not is_negative_definite(build_graph([1], []))
    assert not is_negative_definite(build_graph([0], []))
    # center -2 with three rays of two -2s is the degenerate affine case
    affine = star(-2, [-2, -2], [-2, -2], [-2, -2])
    assert graph_determinant(affine) == 0
    assert not is_negative_definite(affine)


def test_bad_vertices():
    assert bad_vertices(e8()) == [0]
    assert bad_vertices(chain(-2, -2, -2)) == []
    assert bad_vertices(chain(-2, -1, -2)) == [1]
    # a leaf of weight -1 is fine: -1 is not above -degree = -1
    assert bad_vertices(build_graph([-1, -2], [(0, 1)])) == []


def test_blow_down_fixed_points():
    assert blow_down(build_graph([-1], [])).vertex_count == 0
    assert blow_down(build_graph([-1, -2], [(0, 1)])).vertex_count == 0
    g = blow_down(chain(-2, -1, -2))
    assert g.weights == (0,)
    assert g.edges == ()


def test_blow_down_merges_degree_two():
    g = blow_down(chain(-3, -1, -3))
    assert g.weights == (-2, -2)
    assert g.edges == ((0, 1),)


def test_blow_down_leaves_clean_graphs_alone():
    g = e8()
    out = blow_down(g)
    assert out.weights == g.weights
    assert out.edges == g.edges


def test_blow_down_cascades():
    # each blow-down may create the next candidate
    g = build_graph([-1, -3, -1], [(0, 1), (1, 2)])
    assert blow_down(g).vertex_count == 0
    g = build_graph([-1, -5, -1], [(0, 1), (1, 2)])
    assert blow_down(g).weights == (-3,)


def test_blow_down_double_edge_guard():
    # unreachable through build_graph (forests only); construct directly
    g = PlumbingGraph((-2, -1, -2), ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(CycleCreatedError):
        blow_down(g)


def test_blow_down_preserves_abs_determinant():
    rng = random.Random(9)
    found = 0
    while found < 25:
        g = random_forest(rng, max_vertices=7, weight_range=(-3, -1))
        if all(w != -1 or g.degree(v) > 2 for v, w in enumerate(g.weights)):
            continue
        out = blow_down(g)
        found += 1
        assert abs(graph_determinant(out)) == abs(graph_determinant(g))
