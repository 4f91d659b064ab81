"""Graph file format and canonical hashing.

A graph file is JSON of the form

    {"name": "...", "vertices": [{"id": 0, "weight": -2}, ...],
     "edges": [[0, 1], ...]}

with "name" optional.  Ids may be arbitrary distinct integers; parsing
renumbers them densely in ascending order.  A file that is not UTF-8,
not JSON, nested too deeply to decode, or off the schema raises
ParseError naming the file, and an edge error names the edge's place
in "edges" and the file's own ids.  ``json`` is imported only when a
file is parsed.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError, PlumbingError
from .graph import PlumbingGraph, build_graph


def graph_from_obj(obj) -> PlumbingGraph:
    """Build a graph from a decoded JSON object, with located errors."""
    if not isinstance(obj, dict):
        raise ParseError(f"top level: expected object, got {type(obj).__name__}")
    unknown = set(obj) - {"name", "vertices", "edges"}
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"name: expected string, got {type(name).__name__}")
    vertices = obj.get("vertices")
    if not isinstance(vertices, list):
        raise ParseError("vertices: expected list")
    weights_by_id: dict[int, int] = {}
    for i, entry in enumerate(vertices):
        if not isinstance(entry, dict) or set(entry) != {"id", "weight"}:
            raise ParseError(f"vertices[{i}]: expected an object with id and weight")
        vid, w = entry["id"], entry["weight"]
        if not isinstance(vid, int) or isinstance(vid, bool):
            raise ParseError(f"vertices[{i}].id: expected integer, got {vid!r}")
        if not isinstance(w, int) or isinstance(w, bool):
            raise ParseError(f"vertices[{i}].weight: expected integer, got {w!r}")
        if vid in weights_by_id:
            raise ParseError(f"vertices[{i}].id: duplicate id {vid}")
        weights_by_id[vid] = w
    ids = sorted(weights_by_id)
    index = {vid: j for j, vid in enumerate(ids)}
    edges_obj = obj.get("edges", [])
    if not isinstance(edges_obj, list):
        raise ParseError("edges: expected list")
    edges = []
    for i, e in enumerate(edges_obj):
        if (
            not isinstance(e, list)
            or len(e) != 2
            or any(not isinstance(x, int) or isinstance(x, bool) for x in e)
        ):
            raise ParseError(f"edges[{i}]: expected a pair of integer ids")
        for x in e:
            if x not in index:
                raise ParseError(f"edges[{i}]: unknown vertex id {x}")
        edges.append((index[e[0]], index[e[1]]))
    weights = [weights_by_id[vid] for vid in ids]
    try:
        return build_graph(weights, edges, name, ids=ids)
    except PlumbingError as exc:  # it names edges[i] and the file's ids
        raise ParseError(str(exc)) from exc


def parse_graph_file(path: str | Path) -> PlumbingGraph:
    import json
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply to decode") from exc
    try:
        return graph_from_obj(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def canonical_graph_hash(g: PlumbingGraph) -> str:
    """sha256 of the sorted vertex/edge serialization (name excluded).

    Computed once per graph object; see PlumbingGraph.canonical_hash.
    """
    return g.canonical_hash
