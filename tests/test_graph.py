import functools
import random
import re

import pytest

from plumbhf.errors import BadIdError, CycleDetectedError, DuplicateEdgeError
from plumbhf.game import Association, AssociationGame, GoodInitialResult
from plumbhf.graph import (
    Frozen,
    PlumbingGraph,
    blow_down,
    build_graph,
    complement_determinant,
    graph_determinant,
    is_negative_definite,
)
from plumbhf.report import analyze, brieskorn_row
from plumbhf.s3 import s3_row
from plumbhf.seifert import coprime_tuples, sigma_star
from support import (
    chain,
    cofactor_det,
    e8,
    intersection_matrix,
    json_canonical_hash,
    random_forest,
    relabeled_forest,
    star,
)


def test_the_name_is_part_of_equality_but_not_of_the_canonical_hash():
    a = build_graph([-2, -2], [(0, 1)], name="a")
    b = build_graph([-2, -2], [(0, 1)], name="b")
    assert a != b
    assert a == build_graph([-2, -2], [(1, 0)], name="a")
    assert hash(a) == hash(build_graph([-2, -2], [(0, 1)], name="a"))
    assert a.canonical_hash == b.canonical_hash
    game = AssociationGame(a)
    initial = next(Association(b, v) for v in game.good_initial_count().initial_values())
    with pytest.raises(ValueError, match="association belongs to a different graph"):
        game.completes_to_good(initial)
    assert game.completes_to_good(Association(a, initial.values)) is not None


def test_build_graph_basic():
    g = build_graph([-2, -3], [(0, 1)], name="pair")
    assert g.vertex_count == 2
    assert g.weights[1] == -3
    assert g.neighbors[0] == (1,)
    assert g.name == "pair"
    assert g.is_connected


def test_empty_graph():
    g = build_graph([], [])
    assert g.vertex_count == 0
    assert g.is_connected
    assert graph_determinant(g) == 1
    assert analyze(g).is_homology_sphere
    assert is_negative_definite(g)


@pytest.mark.parametrize(
    "weights, edges, message",
    [([-2], [(0, 1)], "edges[0]: edge (0, 1) references a vertex outside 0..0"),
     ([-2, -2], [(-1, 0)], "edges[0]: edge (-1, 0) references a vertex outside 0..1"),
     ([-2, -2], [(0, 1), (2, 0)], "edges[1]: edge (2, 0) references a vertex outside 0..1")],
    ids=["past-the-count", "negative", "equal-to-the-vertex-count"],
)
def test_build_graph_rejects_bad_ids(weights, edges, message):
    with pytest.raises(BadIdError, match=re.escape(message)):
        build_graph(weights, edges)


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


def test_complement_determinant_matches_cofactor_oracle():
    """det(G - v) on connected trees, with every vertex as the root."""
    rng = random.Random(6)
    graphs = [random_forest(rng, max_vertices=6, edge_chance=1.0) for _ in range(100)]
    relabeled = (relabeled_forest(rng, max_vertices=6) for _ in range(200))
    graphs += [g for g in relabeled if g.is_connected]
    for g in graphs:
        rows = intersection_matrix(g)
        for v in range(g.vertex_count):
            minor = [r[:v] + r[v + 1 :] for i, r in enumerate(rows) if i != v]
            fresh = PlumbingGraph(g.weights, g.edges)
            assert complement_determinant(fresh, v) == cofactor_det([list(r) for r in minor])


def test_no_sweep_reads_the_adjacency_list():
    """The forms sweep folds leaves straight off the edge list, for every
    forest and every root: neither forms nor complement_determinant at
    any vertex builds neighbors, a cached fact.  The relabeled forests
    give some vertex two lower neighbors, which no parent-first
    numbering has."""
    rng = random.Random(29)
    graphs = [random_forest(rng, max_vertices=9, weight_range=(-5, 1)) for _ in range(300)]
    graphs += [relabeled_forest(rng, max_vertices=9, weights=range(-5, 2)) for _ in range(300)]
    two_lower = 0
    for g in graphs:
        g.forms
        assert "neighbors" not in vars(g), g
        for v in range(g.vertex_count):
            complement_determinant(g, v)
            assert "neighbors" not in vars(g), (g, v)
        highs = [v for _, v in g.edges]  # canonical edges: each names v's lower neighbor
        two_lower += len(highs) != len(set(highs))
    assert two_lower >= 100, two_lower


def _sylvester_negative_definite(g):
    """Leading principal minors in vertex order alternate in sign, -1 first."""
    rows = [list(r) for r in intersection_matrix(g)]
    return all(
        (-1) ** k * cofactor_det([r[:k] for r in rows[:k]]) > 0 for k in range(1, len(rows) + 1)
    )


def test_forms_match_cofactor_and_sylvester_on_random_forests():
    # weights up to +1 reach zero and positive pivots, edge_chance < 1
    # leaves some forests disconnected, and relabeled forests give some
    # vertex two lower neighbors
    rng = random.Random(17)
    graphs = [random_forest(rng, max_vertices=9, weight_range=(-5, 1)) for _ in range(400)]
    graphs += [relabeled_forest(rng, max_vertices=9, weights=range(-5, 2)) for _ in range(400)]
    seen = {"disconnected": 0, "definite": 0, "singular": 0, "indefinite": 0}
    for g in graphs:
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


# edge lists on five vertices that are not a forest; only a directly built graph has one
DIRECT_CYCLES = [
    ((0, 1), (0, 2), (1, 2)),
    ((0, 1), (0, 1)),
    ((0, 0),),
    ((0, 1), (1, 2), (2, 3), (3, 1), (3, 4)),  # a triangle with a tail at each end
    ((4, 3), (3, 2), (2, 0), (0, 3), (1, 0)),  # the same shape, ids reversed
    ((0, 1), (1, 2), (2, 1), (2, 3), (3, 4)),  # a doubled edge inside a path
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 4)),  # a self-loop at a path's end
    ((0, 1), (2, 3), (3, 4), (4, 2)),  # a triangle beside a tree
]


@pytest.mark.parametrize("edges", DIRECT_CYCLES)
def test_forms_refuse_a_directly_built_cycle(edges):
    """The leaves of a tail fold away; the cycle's edges never do, at any root."""
    g = PlumbingGraph((-2,) * 5, edges)
    reads = [lambda: graph_determinant(g), lambda: is_negative_definite(g), lambda: g.is_connected,
             lambda: g.canonical_hash]
    for read in reads + [lambda v=v: complement_determinant(g, v) for v in range(5)]:
        with pytest.raises(CycleDetectedError):
            read()


@pytest.mark.parametrize("edges", DIRECT_CYCLES)
def test_every_adjacency_fact_refuses_a_directly_built_cycle(edges):
    """The forms sweep is the one forest check: neighbors reads it first,
    so bad, the game and blow_down refuse a cycle through it too."""
    for weights in ((-2,) * 5, (-1,) * 5):  # -1s: blow_down has candidates
        g = PlumbingGraph(weights, edges)
        for read in (lambda: g.neighbors, lambda: g.bad, lambda: AssociationGame(g),
                     lambda: blow_down(g)):
            with pytest.raises(CycleDetectedError):
                read()


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


# forests on three vertices whose edges are not ascending (low, high) pairs
NON_CANONICAL_FORESTS = [((1, 0),), ((0, 2), (0, 1)), ((1, 2), (0, 1))]
NOT_CANONICAL = "is not a (low, high) pair in ascending order"


@pytest.mark.parametrize(
    "edges, message",
    [
        (((-1, 0),), "edges[0]: edge (-1, 0) references a vertex outside 0..2"),
        (((0, 3),), "edges[0]: edge (0, 3) references a vertex outside 0..2"),
        (((3, 0),), "edges[0]: edge (3, 0) references a vertex outside 0..2"),
        (((0, 1), (1, -3)), "edges[1]: edge (1, -3) references a vertex outside 0..2"),
        (((0, 1), (1, 2), (2, 3)), "edges[2]: edge (2, 3) references a vertex outside 0..2"),
        (NON_CANONICAL_FORESTS[0], f"edges[0]: edge (1, 0) {NOT_CANONICAL}"),
        (NON_CANONICAL_FORESTS[1], f"edges[1]: edge (0, 1) {NOT_CANONICAL}"),
        (NON_CANONICAL_FORESTS[2], f"edges[1]: edge (0, 1) {NOT_CANONICAL}"),
    ],
)
@pytest.mark.parametrize(
    "fact",
    ["forms", "neighbors", "bad", "is_connected", "canonical_hash",
     "complement_determinant", "blow_down", "AssociationGame"],
)
def test_a_directly_built_edge_outside_the_vertices_is_a_bad_id(edges, message, fact):
    """An id past the end once raised IndexError, and a negative one
    wrapped: (-1, 0) on three vertices had the forms of the edge (0, 2).
    Edges out of (low, high) order once gave one graph a second hash."""
    g = PlumbingGraph((-2, -2, -2), edges)
    read = {
        "forms": lambda: g.forms,
        "neighbors": lambda: g.neighbors,
        "bad": lambda: g.bad,
        "is_connected": lambda: g.is_connected,
        "canonical_hash": lambda: g.canonical_hash,
        "complement_determinant": lambda: complement_determinant(g, 0),
        "blow_down": lambda: blow_down(g),
        "AssociationGame": lambda: AssociationGame(g),
    }[fact]
    with pytest.raises(BadIdError, match=re.escape(message)):
        read()


# one value of every Frozen class that takes the constructor Frozen builds from its fields
FROZEN_SAMPLES = {
    "PlumbingGraph": lambda: build_graph([-2, -3], [(0, 1)], name="pair"),
    "GoodInitialResult": lambda: AssociationGame(sigma_star((2, 3, 7))).good_initial_count(),
    "AnalysisReport": lambda: analyze(sigma_star((2, 3, 7)), 2),
    "SurveyRow": lambda: brieskorn_row((2, 3, 7)),
    "S3Row": lambda: s3_row((2, 3)),
}


@pytest.mark.parametrize("name", sorted(FROZEN_SAMPLES))
def test_the_frozen_constructor_binds_its_fields_as_a_call_does(name):
    obj = FROZEN_SAMPLES[name]()
    cls = type(obj)
    assert cls.__name__ == name
    values = cls._key(obj)
    by_name = dict(zip(cls._fields, values))
    for built in (cls(*values), cls(**by_name)):
        assert built == obj and repr(built) == repr(obj) and hash(built) == hash(obj)
    required = [f for f in cls._fields if f not in vars(cls)]
    for bad in (
        lambda: cls(*values, nosuch=None),  # no such field
        lambda: cls(**{f: v for f, v in by_name.items() if f != required[-1]}),  # one missing
        lambda: cls(*values, **{cls._fields[0]: values[0]}),  # the first given twice
        lambda: cls(*values, None),  # one value too many
    ):
        with pytest.raises(TypeError):
            bad()
    defaulted = [f for f in cls._fields if f in vars(cls)]
    bare = cls(**{f: by_name[f] for f in required})
    assert [getattr(bare, f) for f in defaulted] == [vars(cls)[f] for f in defaulted]
    for field in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)


def test_a_frozen_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError, match="without a default follows one with a default"):

        class Misordered(Frozen):
            first: int = 0
            second: int


def test_forms_are_computed_once_per_graph():
    g = e8()
    assert "forms" not in vars(g)
    assert graph_determinant(g) == 1
    cached = vars(g)["forms"]
    assert is_negative_definite(g) is True
    assert g.forms is cached


@pytest.mark.parametrize(
    "owner, name",
    [(PlumbingGraph, name) for name in ("neighbors", "bad", "forms", "canonical_hash")]
    + [(GoodInitialResult, "initials"), (GoodInitialResult, "witnesses")],
)
def test_each_per_graph_fact_is_computed_once_and_kept(owner, name, monkeypatch):
    """Each fact is a functools.cached_property (a subclass of it), so
    wrappers that recognise one still work; a second read returns the
    kept object without calling the function again."""
    fact = vars(owner)[name]
    assert isinstance(fact, functools.cached_property)
    calls = []
    func = fact.func
    monkeypatch.setattr(fact, "func", lambda obj: calls.append(obj) or func(obj))
    g = e8()
    obj = g if owner is PlumbingGraph else AssociationGame(g).good_initial_count()
    first = getattr(obj, name)
    assert getattr(obj, name) is first and vars(obj)[name] is first
    assert calls == [obj]


def test_determinant_known_values():
    assert graph_determinant(e8()) == 1
    # a chain of p vertices of weight -2 has determinant (-1)^p (p+1)
    for p in range(1, 7):
        g = chain(*([-2] * p))
        assert graph_determinant(g) == (-1) ** p * (p + 1)


def test_is_negative_definite():
    assert is_negative_definite(e8())
    assert is_negative_definite(build_graph([-1], []))
    assert not is_negative_definite(build_graph([1], []))
    assert not is_negative_definite(build_graph([0], []))
    # center -2 with three rays of two -2s is the degenerate affine case
    affine = star(-2, [-2, -2], [-2, -2], [-2, -2])
    assert graph_determinant(affine) == 0
    assert not is_negative_definite(affine)


@pytest.mark.parametrize(
    "g, expected",
    [(e8(), (0,)),
     (chain(-2, -2, -2), ()),
     (chain(-2, -1, -2), (1,)),
     # a leaf of weight -1 is fine: -1 is not above -degree = -1
     (build_graph([-1, -2], [(0, 1)]), ()),
     (chain(-2, -1, -2, -1, -2), (1, 3))],
    ids=["e8", "all-minus-two-chain", "one-bad", "minus-one-leaf", "two-bad"],
)
def test_bad_vertices(g, expected):
    # a tuple, immutable, so no caller can change what the graph keeps
    assert type(g.bad) is tuple and g.bad == expected


def _component_count(g):
    """Components by breadth-first search over the edges."""
    seen = set()
    count = 0
    for r in range(g.vertex_count):
        if r in seen:
            continue
        count += 1
        seen.add(r)
        frontier = [r]
        while frontier:
            frontier = [u for v in frontier for u in g.neighbors[v] if u not in seen]
            seen.update(frontier)
    return count


def test_is_connected_matches_a_search_on_random_forests():
    rng = random.Random(23)
    graphs = [build_graph([], []), build_graph([-2], [])]
    graphs += [random_forest(rng, max_vertices=9, edge_chance=0.85) for _ in range(300)]
    connected = 0
    for g in graphs:
        assert g.is_connected == (_component_count(g) <= 1), g
        connected += g.is_connected
    assert 50 <= connected <= len(graphs) - 50


def test_canonical_hash_matches_the_json_serialization():
    rng = random.Random(29)
    graphs = [build_graph([], []), build_graph([-2], []), build_graph([7], [])]
    graphs += [sigma_star(t) for rays in (3, 4) for t in coprime_tuples(12, rays)]
    graphs += [random_forest(rng, max_vertices=9, weight_range=(-12, 12)) for _ in range(200)]
    assert sum(min(g.weights, default=0) < 0 < max(g.weights, default=0) for g in graphs) >= 100
    for g in graphs:
        assert g.canonical_hash == json_canonical_hash(g), g
    # build_graph makes any edge order canonical, so each forest keeps one hash
    assert [build_graph((-2,) * 3, edges).canonical_hash[:16] for edges in NON_CANONICAL_FORESTS] == [
        "e5233c3c5ac52152", "0f308993e7148069", "8ead97b6b7597c91"
    ]


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
    for g in (e8(), sigma_star((2, 3, 7))):  # the -1 center of (2, 3, 7) has degree 3
        assert blow_down(g) is g


def test_blow_down_cascades():
    # each blow-down may create the next candidate
    g = build_graph([-1, -3, -1], [(0, 1), (1, 2)])
    assert blow_down(g).vertex_count == 0
    g = build_graph([-1, -5, -1], [(0, 1), (1, 2)])
    assert blow_down(g).weights == (-3,)


def test_blow_down_preserves_abs_determinant():
    """Reading the output's forms also checks that its edges are canonical:
    ids of 8 and up let a set of neighbors iterate out of order."""
    rng = random.Random(9)
    found = 0
    while found < 100:
        g = random_forest(rng, max_vertices=12, weight_range=(-3, -1))
        if all(w != -1 or len(g.neighbors[v]) > 2 for v, w in enumerate(g.weights)):
            continue
        out = blow_down(g)
        found += 1
        assert abs(graph_determinant(out)) == abs(graph_determinant(g))
