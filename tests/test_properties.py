"""Property tests on random forests: the graph-file object round trip,
the canonical hash and its sha256, the game's count against the BFS oracle, and blow-up
invariance of counts; and the CLI's JSON writer and the cache's record
lines against json.dumps."""

import hashlib
import json
import warnings

from hypothesis import example, given, settings, strategies as st

from plumbhf.files import canonical_graph_hash, graph_from_obj
from plumbhf.game import AssociationGame, is_good_sequence
from plumbhf.graph import blow_down, build_graph, is_negative_definite, sha256 as graph_sha256
from plumbhf.report import CountRecord, SurveyRow, analyze, json_text
from plumbhf.s3 import S3Row
from plumbhf.seifert import brieskorn, sigma_star, star_graph
from support import blow_up_edge, blow_up_leaf, chain, e8, graph_to_obj, oracle_count, star

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


@PROPERTY
@given(st.binary(max_size=4096))
@example(b"")
def test_graph_sha256_is_hashlib_sha256(data):
    # the canonical hash takes sha256 from CPython's builtin module, not hashlib
    assert graph_sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


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
@example(e8())
@example(chain(-2, -3, -2))
@example(star(-2, [-2], [-3]))
@example(star(-3, [-2, -2], [-4]))
@example(sigma_star((2, 5)))  # the quadruple (2, -1, 5, -2)
@example(star_graph(brieskorn((2, 3, 7))))
@example(chain(-2, -2, -2))
def test_count_matches_the_oracle_and_witnesses_replay(g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # forms that are not negative definite warn
        result = AssociationGame(g).good_initial_count()
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
    count = AssociationGame(g).good_initial_count().count
    assert AssociationGame(bigger).good_initial_count().count == count


# quotes, backslashes, control characters, non-ASCII and lone surrogates
json_strings = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028é€😀')
    | st.characters(categories=["Cs"])
)
json_ints = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
json_values = st.recursive(
    json_strings | json_ints | st.booleans() | st.none(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(json_strings, inner),
    max_leaves=30,
)
survey_row_values = st.builds(
    SurveyRow,
    params=st.lists(st.integers(2, 99), max_size=5).map(tuple),
    verdict=st.sampled_from(["nontrivial", "trivial-rank", "solution", "non-solution"]),
    count=st.none() | st.integers(0, 10**6),
    partial=st.booleans(),
    graph_hash=st.none() | st.text("0123456789abcdef", min_size=64, max_size=64),
    reason=st.none() | json_strings,
)
s3_row_values = st.builds(
    S3Row,
    quadruple=st.tuples(*[st.integers(-99, 99)] * 4),
    unique_good_initial=st.booleans(),
    bumped_sums_hold=st.booleans(),
    central_count_matches=st.booleans(),
    pairing_jumps_match=st.booleans(),
    reversal_is_good=st.booleans(),
    count=st.integers(0, 99),
    central_moves=st.integers(-1, 99),
)


@PROPERTY
@given(json_values)
@example("\ud800 \"\\\n\x00é😀")
@example([2**64, -(2**70), True, False, None, [], (), {}, {"": [[{}]]}])
def test_json_text_writes_the_bytes_of_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


@PROPERTY
@given(st.lists(survey_row_values | s3_row_values, max_size=4))
def test_json_text_writes_rows_as_their_fields_in_order(rows):
    objs = [{name: getattr(r, name) for name in r._fields} for r in rows]
    assert json_text(rows) == json.dumps(objs, indent=2)


@settings(PROPERTY, max_examples=10)
@given(st.sampled_from([(2, 3, 5), (2, 3, 7), (3, 4, 5), (2, 5, 7)]), st.none() | st.just(2))
def test_json_text_writes_a_report_with_sequences_as_json_dumps(params, early_stop):
    obj = analyze(blow_down(sigma_star(params)), early_stop, emit_sequences=True).to_obj()
    assert obj["sequences"]
    assert json_text(obj) == json.dumps(obj, indent=2)


@st.composite
def count_record_fields(draw):
    """Fields no record refuses: any graph_hash, ints far past 2**63, no
    more good initials than initials, and partial only where the count
    stopped at early_stop."""
    stop = draw(st.none() | st.integers(1, 2**70))
    count = draw(st.integers(0, 2**70 if stop is None else stop))
    return {
        "graph_hash": draw(st.text()),
        "early_stop": stop,
        "good_initial_count": count,
        "partial": count == stop and draw(st.booleans()),
        "det": draw(st.integers(-(2**70), 2**70)),
        "initial_count": draw(st.integers(count, 2**70)),
    }


@PROPERTY
@given(count_record_fields())
@example({"graph_hash": "\ud800 \"\\\n\x00é😀", "early_stop": 3, "good_initial_count": 3, "partial": True,
          "det": -(2**70), "initial_count": 2**64})
def test_a_record_line_is_the_json_dumps_line_and_reads_back(obj):
    rec = CountRecord(**obj)
    assert rec.line() == json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"
    assert CountRecord(**json.loads(rec.line())) == rec
