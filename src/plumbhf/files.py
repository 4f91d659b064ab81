"""Graph file format and canonical hashing.

A graph file is JSON of the form

    {"name": "...", "vertices": [{"id": 0, "weight": -2}, ...],
     "edges": [[0, 1], ...]}

with "name" optional.  Ids may be arbitrary distinct integers; parsing
renumbers them densely in ascending order.  Writing always emits the
canonical form (dense ids, sorted edges), so write-then-parse is the
identity and parse-then-write canonicalizes.
"""

from __future__ import annotations

import json
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
    ids: list[int] = []
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
        ids.append(vid)
        weights_by_id[vid] = w
    index = {vid: j for j, vid in enumerate(sorted(ids))}
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
    weights = [weights_by_id[vid] for vid in sorted(ids)]
    try:
        return build_graph(weights, edges, name)
    except PlumbingError as exc:
        raise ParseError(f"edges: {exc}") from exc


def parse_graph_file(path: str | Path) -> PlumbingGraph:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return graph_from_obj(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def graph_to_obj(g: PlumbingGraph) -> dict:
    obj: dict = {}
    if g.name is not None:
        obj["name"] = g.name
    obj["vertices"] = [{"id": v, "weight": w} for v, w in enumerate(g.weights)]
    obj["edges"] = [list(e) for e in g.edges]
    return obj


def write_graph_file(g: PlumbingGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_obj(g), indent=2) + "\n")


def canonical_graph_hash(g: PlumbingGraph) -> str:
    """sha256 of the sorted vertex/edge serialization (name excluded).

    Computed once per graph object; see PlumbingGraph.canonical_hash.
    """
    return g.canonical_hash
