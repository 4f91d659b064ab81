import json
import re

import pytest

from plumbhf.errors import ParseError
from plumbhf.files import canonical_graph_hash, graph_from_obj, parse_graph_file
from support import e8, graph_to_obj, write_graph_file


def write(tmp_path, obj, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_minimal_file(tmp_path):
    path = write(tmp_path, {"vertices": [{"id": 0, "weight": -1}], "edges": []})
    g = parse_graph_file(path)
    assert g.weights == (-1,)
    assert g.edges == ()


def test_round_trip_is_identity(tmp_path):
    g = e8()
    path = tmp_path / "e8.json"
    write_graph_file(g, path)
    again = parse_graph_file(path)
    assert again.weights == g.weights
    assert again.edges == g.edges
    assert again.name == g.name
    # byte-identical on a second write
    write_graph_file(again, tmp_path / "e8b.json")
    assert (tmp_path / "e8.json").read_text() == (tmp_path / "e8b.json").read_text()


def test_obj_round_trip_without_name():
    g = graph_from_obj({"vertices": [{"id": 3, "weight": -2}, {"id": 7, "weight": -3}],
                        "edges": [[7, 3]]})
    assert g.weights == (-2, -3)
    assert g.edges == ((0, 1),)
    assert g.name is None
    assert "name" not in graph_to_obj(g)


def test_sparse_ids_reindexed_densely():
    sparse = graph_from_obj(
        {"vertices": [{"id": 10, "weight": -2}, {"id": 20, "weight": -3}], "edges": [[10, 20]]}
    )
    dense = graph_from_obj(
        {"vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -3}], "edges": [[0, 1]]}
    )
    assert sparse.weights == dense.weights
    assert sparse.edges == dense.edges
    assert canonical_graph_hash(sparse) == canonical_graph_hash(dense)


def test_hash_ignores_name_only():
    a = graph_from_obj({"name": "x", "vertices": [{"id": 0, "weight": -2}], "edges": []})
    b = graph_from_obj({"name": "y", "vertices": [{"id": 0, "weight": -2}], "edges": []})
    c = graph_from_obj({"vertices": [{"id": 0, "weight": -3}], "edges": []})
    assert canonical_graph_hash(a) == canonical_graph_hash(b)
    assert canonical_graph_hash(a) != canonical_graph_hash(c)


def test_parse_errors_name_the_problem(tmp_path):
    sparse = [{"id": vid, "weight": -2} for vid in (10, 20, 30)]
    cases = [
        ({"vertices": [{"id": 0, "weight": "two"}], "edges": []}, "weight"),
        ({"vertices": [{"id": 0}], "edges": []}, "id and weight"),
        ({"vertices": [{"id": 0, "weight": -2, "color": 1}], "edges": []}, "id and weight"),
        ({"vertices": [{"id": 0, "weight": -2}, {"id": 0, "weight": -3}], "edges": []}, "duplicate"),
        ({"vertices": [{"id": 0, "weight": -2}], "edges": [[0, 5]]}, "edges[0]"),
        ({"vertices": [{"id": 0, "weight": -2}], "edges": [[0]]}, "edges[0]"),
        ({"vertices": [{"id": True, "weight": -2}], "edges": []}, "id"),
        ({"edges": []}, "vertices"),
        ({"vertices": [], "edges": [], "extra": 1}, "unknown keys"),
        ([], "object"),
        ({"name": 5, "vertices": [{"id": 0, "weight": -2}], "edges": []}, "name: expected string, got int"),
        ({"vertices": [{"id": 0, "weight": -2}], "edges": {}}, "edges: expected list"),
        # structural edge errors name the edge's place and the file's own ids
        ({"vertices": sparse, "edges": [[10, 20], [20, 30], [30, 10]]},
         "edges[2]: edge [30, 10] closes a cycle"),
        ({"vertices": sparse, "edges": [[10, 20], [20, 10]]},
         "edges[1]: edge [20, 10] repeats edges[0]"),
        ({"vertices": sparse, "edges": [[20, 30], [10, 10]]}, "edges[1]: self-loop at vertex 10"),
    ]
    for obj, needle in cases:
        with pytest.raises(ParseError) as err:
            graph_from_obj(obj)
        assert needle in str(err.value)


@pytest.mark.parametrize(
    "weight, edge, message",
    [(True, [0, 1], "vertices[0].weight: expected integer, got True"),
     (-2, [0, True], "edges[0]: expected a pair of integer ids")],
    ids=["weight", "edge-id"],
)
def test_a_json_true_is_not_the_integer_1(weight, edge, message):
    obj = {"vertices": [{"id": 0, "weight": weight}, {"id": 1, "weight": -2}], "edges": [edge]}
    with pytest.raises(ParseError, match=re.escape(message)):
        graph_from_obj(obj)


def test_parse_wraps_structural_graph_errors():
    with pytest.raises(ParseError):
        graph_from_obj(
            {
                "vertices": [{"id": 0, "weight": -2}, {"id": 1, "weight": -2}],
                "edges": [[0, 1], [1, 0]],
            }
        )


def test_parse_file_reports_path_on_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError) as err:
        parse_graph_file(path)
    assert "broken.json" in str(err.value)
