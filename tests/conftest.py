import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from amdep.algebra import AMDepTree, AMType, SGraph, constant
from amdep.graph import BlobHeuristics, SemanticGraph

GOLDENS = Path(__file__).parent / "goldens"

# A graph whose best tree renames a modifier's attach slot and the head's APP
# source to one name; APP there must not wait for that modifier
MOD_ATTACH_GRAPH = {
    "id": "mod-attach", "root": "v0",
    "nodes": [{"id": "v0", "label": "want"}, {"id": "v1", "label": "tiny"},
              {"id": "v2", "label": "go"}, {"id": "v3", "label": "boy"},
              {"id": "v4", "label": "want"}, {"id": "v5", "label": "tiny"}],
    "edges": [{"src": "v0", "tgt": "v1", "label": "mod"},
              {"src": "v0", "tgt": "v2", "label": "op1"},
              {"src": "v1", "tgt": "v5", "label": "op1"},
              {"src": "v3", "tgt": "v0", "label": "mod"},
              {"src": "v3", "tgt": "v2", "label": "ARG0"},
              {"src": "v3", "tgt": "v4", "label": "ARG2"},
              {"src": "v4", "tgt": "v5", "label": "mod"}]}


@st.composite
def small_graphs(draw):
    """Connected graphs of 2-6 nodes rooted at v0: a random spanning tree
    plus extra edges, at most one edge per node pair, many of them mod."""
    n = draw(st.integers(2, 6))
    ids = [f"v{i}" for i in range(n)]
    edge_labels = st.sampled_from(["ARG0", "ARG1", "ARG2", "op1", "mod", "mod"])
    pairs = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)]
    pairs += draw(st.lists(st.sampled_from([(a, b) for a in ids for b in ids if a < b]),
                           max_size=n, unique=True))
    edges = {}
    for a, b in pairs:
        if (a, b) not in edges:
            edges[(a, b)] = (*((b, a) if draw(st.booleans()) else (a, b)), draw(edge_labels))
    labels = st.sampled_from(["want", "go", "boy", "tiny", "see"])
    return SemanticGraph({v: draw(labels) for v in ids}, edges.values(), "v0")


@pytest.fixture(scope="session")
def heuristics():
    return BlobHeuristics.default_table()


@pytest.fixture(scope="session")
def tiny_fairy():
    # "The tiny fairy glows": glow -ARG0-> fairy -mod-> tiny
    return SemanticGraph({"g": "glow", "f": "fairy", "t": "tiny"},
                         [("g", "f", "ARG0"), ("f", "t", "mod")], "g")


@pytest.fixture(scope="session")
def sparkle_glow():
    # "The fairy sparkles and glows": coordination with a shared argument
    return SemanticGraph({"a": "and", "s": "sparkle", "g": "glow", "f": "fairy"},
                         [("a", "s", "op1"), ("a", "g", "op2"),
                          ("s", "f", "ARG0"), ("g", "f", "ARG0")], "a")


@pytest.fixture(scope="session")
def relative_clause():
    # "the fairy that begins to glow": control verb under a relative clause
    return SemanticGraph({"f": "fairy", "b": "begin", "g": "glow"},
                         [("b", "f", "ARG0"), ("b", "g", "ARG1"), ("g", "f", "ARG0")], "f")


@pytest.fixture(scope="session")
def figure_goldens():
    trees = json.loads((GOLDENS / "figures-trees.json").read_text())
    return {item["id"]: item["tree"] for item in trees}


def tree_shape(tree_json):
    """Structural digest of a tree JSON object: edge operations plus the
    constants' types, independent of JSON formatting."""
    edges = sorted((e["parent"], e["op"], e["source"], e["child"])
                   for e in tree_json["edges"])
    types = {n: json.dumps(c["type"], sort_keys=True)
             for n, c in tree_json["nodes"].items()}
    consts = {n: (sorted((e["src"], e["label"], e["tgt"]) for e in c["edges"]),
                  sorted((nd["id"], nd.get("label")) for nd in c["nodes"]))
              for n, c in tree_json["nodes"].items()}
    return edges, types, consts


def two_error_tree(open_root=False):
    """A head see whose x slot node is labelled dog, with cat at x: the
    merge clashes. Its y child is typed [z] against an empty request at y,
    a typing error found after x is consumed; open_root instead leaves y
    unfilled, so the root type stays [y]."""
    g = SemanticGraph({"h": "see", "h@x": "dog", "h@y": None},
                      [("h", "h@x", "ARG0"), ("h", "h@y", "ARG1")], "h")
    head = SGraph(g, "h", {"x": "h@x", "y": "h@y"}, AMType({"x": {}, "y": {}}))
    nodes = {"h": head, "c": constant("cat", "c")}
    edges = [("h", "c", "APP", "x")]
    if not open_root:
        nodes["o"] = constant("open", "o", [("ARG0", "z")])
        edges.append(("h", "o", "APP", "y"))
    return AMDepTree(nodes, "h", edges)
