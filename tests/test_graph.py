import json
import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from amdep.errors import CorpusError
from amdep.graph import (
    BlobHeuristics,
    Edge,
    SemanticGraph,
    is_isomorphic,
    is_isomorphic_mod_of,
    normalize_edges,
    of_normal_form,
    partition_blobs,
    read_corpus,
    write_corpus,
)


def write_json(tmp_path, obj, name="corpus.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


class TestCorpusIO:
    def test_single_graph(self, tmp_path):
        p = write_json(tmp_path, [{
            "id": "fairy-glows",
            "nodes": [{"id": "g", "label": "glow"}, {"id": "f", "label": "fairy"}],
            "edges": [{"src": "g", "tgt": "f", "label": "ARG0"}],
            "root": "g",
        }])
        [(gid, g)] = read_corpus(p)
        assert gid == "fairy-glows"
        assert len(g.nodes) == 2 and len(g.edges) == 1
        assert g.label("g") == "glow"

    def test_empty_corpus(self, tmp_path):
        p = write_json(tmp_path, [])
        assert read_corpus(p) == []

    def test_dangling_edge_names_offender(self, tmp_path):
        p = write_json(tmp_path, [{
            "id": "bad",
            "nodes": [{"id": "a", "label": "A"}],
            "edges": [{"src": "a", "tgt": "x", "label": "ARG0"}],
            "root": "a",
        }])
        with pytest.raises(CorpusError, match="'x'"):
            read_corpus(p)

    def test_missing_root(self, tmp_path):
        p = write_json(tmp_path, [{
            "id": "bad", "nodes": [{"id": "a", "label": "A"}], "edges": [], "root": "zz",
        }])
        with pytest.raises(CorpusError):
            read_corpus(p)

    def test_disconnected(self, tmp_path):
        p = write_json(tmp_path, [{
            "id": "bad",
            "nodes": [{"id": "a", "label": "A"}, {"id": "b", "label": "B"}],
            "edges": [], "root": "a",
        }])
        with pytest.raises(CorpusError, match="connected"):
            read_corpus(p)

    def test_duplicate_parallel_edge_rejected(self, tmp_path):
        p = write_json(tmp_path, [{
            "id": "bad",
            "nodes": [{"id": "a", "label": "A"}, {"id": "b", "label": "B"}],
            "edges": [{"src": "a", "tgt": "b", "label": "x"},
                      {"src": "a", "tgt": "b", "label": "x"}],
            "root": "a",
        }])
        with pytest.raises(CorpusError):
            read_corpus(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(CorpusError):
            read_corpus(p)

    def test_round_trip(self, tmp_path, sparkle_glow):
        out = tmp_path / "out.json"
        write_corpus([("s", sparkle_glow)], out)
        [(gid, g)] = read_corpus(out)
        assert gid == "s" and g == sparkle_glow
        assert is_isomorphic(g, sparkle_glow)

    def test_write_empty(self, tmp_path):
        out = tmp_path / "empty.json"
        write_corpus([], out)
        assert json.loads(out.read_text()) == []


class TestBlobs:
    def test_default_assignments(self, tiny_fairy, heuristics):
        p = partition_blobs(tiny_fairy, heuristics)
        arg0 = Edge("g", "f", "ARG0")
        mod = Edge("f", "t", "mod")
        assert p.owner[arg0] == "g"  # argument edges stay with the head
        assert p.owner[mod] == "t"  # the modifier owns its mod edge

    def test_single_node(self, heuristics):
        g = SemanticGraph({"a": "A"}, [], "a")
        assert partition_blobs(g, heuristics).owner == {}

    def test_prefix_and_default(self, heuristics):
        assert heuristics.side("ARG3") == "src"
        assert heuristics.side("op12") == "src"
        assert heuristics.side("snt2") == "src"
        assert heuristics.side("mod") == "tgt"
        assert heuristics.side("whatever") == "src"

    def test_tsv_parsing(self, tmp_path):
        p = tmp_path / "blobs.tsv"
        p.write_text("# comment\nfoo\ttgt\nfo*\tsrc\n*\ttgt\n")
        h = BlobHeuristics.from_tsv(p)
        assert h.side("foo") == "tgt"  # exact beats prefix
        assert h.side("fox") == "src"
        assert h.side("bar") == "tgt"

    def test_longest_prefix_wins(self):
        h = BlobHeuristics([("AR*", "tgt"), ("ARG*", "src"), ("*", "tgt")])
        assert h.side("ARG1") == "src"
        assert h.side("ARX") == "tgt"

    def test_default_row_required(self):
        with pytest.raises(ValueError):
            BlobHeuristics([("ARG*", "src")])


class TestNormalize:
    def test_mod_edge_reversed(self, tiny_fairy, heuristics):
        n = normalize_edges(tiny_fairy, partition_blobs(tiny_fairy, heuristics))
        assert Edge("t", "f", "mod-of") in n.graph.edges
        assert Edge("g", "f", "ARG0") in n.graph.edges
        assert Edge("f", "t", "mod") not in n.graph.edges

    def test_of_suffix_stripped_not_doubled(self, heuristics):
        g = SemanticGraph({"t": "tiny", "f": "fairy"}, [("t", "f", "mod-of")], "f")
        h = BlobHeuristics([("mod-of", "tgt"), ("*", "src")])
        n = normalize_edges(g, partition_blobs(g, h))
        assert n.graph.edges == (Edge("f", "t", "mod"),)

    def test_edges_point_away_from_owner(self, heuristics):
        rng = random.Random(0)
        for _ in range(25):
            k = rng.randint(2, 7)
            nodes = {f"n{i}": f"L{rng.randint(0, 3)}" for i in range(k)}
            edges = set()
            for i in range(1, k):
                j = rng.randrange(i)
                edges.add((f"n{i}", f"n{j}", rng.choice(["ARG0", "ARG1", "mod", "x"]))
                          if rng.random() < 0.5 else
                          (f"n{j}", f"n{i}", rng.choice(["ARG0", "ARG1", "mod", "x"])))
            g = SemanticGraph(nodes, edges, "n0")
            p = partition_blobs(g, heuristics)
            n = normalize_edges(g, p)
            for e in n.graph.edges:
                assert n.partition.owner[e] == e.src

    def test_double_normalize_is_identity(self, tiny_fairy, heuristics):
        n1 = normalize_edges(tiny_fairy, partition_blobs(tiny_fairy, heuristics))
        n2 = normalize_edges(n1.graph, partition_blobs(n1.graph, heuristics))
        assert n2.graph == n1.graph

    def test_partition_must_cover(self, tiny_fairy, heuristics):
        p = partition_blobs(tiny_fairy, heuristics)
        del p.owner[Edge("g", "f", "ARG0")]
        with pytest.raises(ValueError):
            normalize_edges(tiny_fairy, p)


NODE_LABELS = ("A", "B")
EDGE_LABELS = ("e", "f", "e-of")


@st.composite
def small_graphs(draw):
    """Rooted graphs of 1-6 nodes over few labels, so that symmetric shapes,
    self-loops, parallel pairs, "-of" edges and disconnected parts all occur."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    nodes = {n: draw(st.sampled_from(NODE_LABELS)) for n in ids}
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    st.sampled_from(EDGE_LABELS)), max_size=9))
    return SemanticGraph(nodes, edges, draw(st.sampled_from(ids)))


def _triples(g):
    return Counter((e.src, e.tgt, e.label) for e in g.edges)


def _of_triples(g):
    return of_normal_form(g)[2]


def _brute_force_isomorphic(g1, g2, triples):
    """Oracle: some node bijection keeps the root, the node labels and the
    edge multiset given by triples."""
    if len(g1.nodes) != len(g2.nodes):
        return False
    t1, t2 = triples(g1), triples(g2)
    for image in permutations(g2.nodes):
        m = dict(zip(g1.nodes, image))
        if (m[g1.root] == g2.root
                and all(g2.nodes[m[n]] == lbl for n, lbl in g1.nodes.items())
                and Counter({(m[s], m[t], lbl): k for (s, t, lbl), k in t1.items()}) == t2):
            return True
    return False


class TestIsomorphism:
    @given(g=small_graphs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, g, data):
        """A random renaming of g, then at most one near miss: an edge added
        between existing nodes, one edge relabeled or re-targeted, the targets
        of two edges swapped (which keeps every node's degrees), or the root
        moved."""
        names = data.draw(st.permutations([f"m{i}" for i in range(len(g.nodes))]))
        renamed = g.renamed(dict(zip(g.nodes, names)))
        ids = sorted(renamed.nodes)
        edges = list(renamed.edges)
        root = renamed.root
        kind = data.draw(st.sampled_from(
            ["rename", "add-edge", "relabel-edge", "retarget-edge", "swap-targets",
             "move-root"]))
        if kind == "add-edge":
            edges.append(Edge(data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids)),
                              data.draw(st.sampled_from(EDGE_LABELS))))
        elif kind in ("relabel-edge", "retarget-edge") and edges:
            i = data.draw(st.integers(0, len(edges) - 1))
            e = edges[i]
            if kind == "relabel-edge":
                label = data.draw(st.sampled_from([lbl for lbl in EDGE_LABELS if lbl != e.label]))
                edges[i] = Edge(e.src, e.tgt, label)
            else:
                edges[i] = Edge(e.src, data.draw(st.sampled_from(ids)), e.label)
        elif kind == "swap-targets" and len(edges) > 1:
            i, j = data.draw(st.lists(st.integers(0, len(edges) - 1), min_size=2, max_size=2,
                                      unique=True))
            a, b = edges[i], edges[j]
            edges[i], edges[j] = Edge(a.src, b.tgt, a.label), Edge(b.src, a.tgt, b.label)
        elif kind == "move-root":
            root = data.draw(st.sampled_from(ids))
        other = SemanticGraph(renamed.nodes, edges, root)
        if kind == "rename":
            assert is_isomorphic(g, other) and is_isomorphic_mod_of(g, other)
        for check, triples in ((is_isomorphic, _triples), (is_isomorphic_mod_of, _of_triples)):
            expected = _brute_force_isomorphic(g, other, triples)
            assert check(g, other) == expected
            assert check(other, g) == expected

    def test_renaming_invariance(self, sparkle_glow):
        renamed = sparkle_glow.renamed({"a": "x1", "s": "x2", "g": "x3", "f": "x4"})
        assert is_isomorphic(sparkle_glow, renamed)

    def test_edge_label_mismatch(self):
        g1 = SemanticGraph({"g": "glow", "f": "fairy"}, [("g", "f", "ARG0")], "g")
        g2 = SemanticGraph({"g": "glow", "f": "fairy"}, [("g", "f", "ARG1")], "g")
        assert not is_isomorphic(g1, g2)

    def test_root_must_match(self):
        g1 = SemanticGraph({"a": "X", "b": "X"}, [("a", "b", "e")], "a")
        g2 = SemanticGraph({"a": "X", "b": "X"}, [("a", "b", "e")], "b")
        assert not is_isomorphic(g1, g2)

    def test_node_label_mismatch(self):
        g1 = SemanticGraph({"a": "A", "b": "B"}, [("a", "b", "e")], "a")
        g2 = SemanticGraph({"a": "A", "b": "C"}, [("a", "b", "e")], "a")
        assert not is_isomorphic(g1, g2)

    def test_long_path_takes_no_frame_per_node(self):
        # 1,500 nodes matched one after another, beyond the default recursion limit
        n = 1500
        g1 = SemanticGraph({f"a{i}": f"l{i}" for i in range(n)},
                           [(f"a{i}", f"a{i + 1}", "ARG0") for i in range(n - 1)], "a0")
        edges = [(f"b{i}", f"b{i + 1}", "ARG0") for i in range(n - 1)]
        g2 = SemanticGraph({f"b{i}": f"l{i}" for i in range(n)}, edges, "b0")
        assert is_isomorphic(g1, g2)
        edges[n // 2] = (*edges[n // 2][:2], "ARG1")
        assert not is_isomorphic(g1, SemanticGraph(g2.nodes, edges, "b0"))

    def test_symmetric_candidates_need_backtracking(self):
        # two same-labeled children, only one carries a grandchild
        g1 = SemanticGraph({"r": "R", "a": "X", "b": "X", "c": "C"},
                           [("r", "a", "e"), ("r", "b", "e"), ("a", "c", "f")], "r")
        g2 = SemanticGraph({"r": "R", "a": "X", "b": "X", "c": "C"},
                           [("r", "a", "e"), ("r", "b", "e"), ("b", "c", "f")], "r")
        assert is_isomorphic(g1, g2)

    def test_wrong_first_candidate_is_undone(self):
        # a and b have one signature, so g2's a is tried first for g1's a;
        # only the labels of their children tell them apart
        g1 = SemanticGraph({"r": "R", "a": "X", "b": "X", "c": "P", "d": "Q"},
                           [("r", "a", "e"), ("r", "b", "e"), ("a", "c", "f"), ("b", "d", "f")],
                           "r")
        g2 = SemanticGraph({"r": "R", "a": "X", "b": "X", "c": "Q", "d": "P"},
                           g1.edges, "r")
        assert is_isomorphic(g1, g2) and is_isomorphic(g2, g1)
        g3 = SemanticGraph({**g2.nodes, "d": "Q"}, g1.edges, "r")
        assert not is_isomorphic(g1, g3)

    def test_children_alike_down_to_their_grandchildren_are_undone(self):
        # a and b share a signature, and so do c and d below them: only the
        # labels of the grandchildren tell them apart, so g2's a, tried first
        # for g1's a, is undone once the search below it runs out
        edges = [("r", "a", "e"), ("r", "b", "e"), ("a", "c", "f"), ("b", "d", "f"),
                 ("c", "x", "g"), ("d", "y", "g")]
        g1 = SemanticGraph({"r": "R", "a": "X", "b": "X", "c": "C", "d": "C", "x": "P",
                            "y": "Q"}, edges, "r")
        g2 = SemanticGraph({**g1.nodes, "x": "Q", "y": "P"}, edges, "r")
        found, undone = _match_undos(g1, g2)
        assert found and undone > 0
        assert _match_undos(g1, g1) == (True, 0)

    def test_reentrancy_shape_distinguished(self):
        shared = SemanticGraph({"a": "A", "b": "B", "c": "B", "d": "D"},
                               [("a", "b", "x"), ("a", "c", "y"),
                                ("b", "d", "z"), ("c", "d", "z")], "a")
        split = SemanticGraph({"a": "A", "b": "B", "c": "B", "d": "D", "e": "D"},
                              [("a", "b", "x"), ("a", "c", "y"),
                               ("b", "d", "z"), ("c", "e", "z")], "a")
        assert not is_isomorphic(shared, split)

    def test_equivalence_relation_spot_checks(self, heuristics):
        rng = random.Random(1)
        graphs = []
        for _ in range(6):
            k = rng.randint(2, 6)
            nodes = {f"n{i}": f"L{rng.randint(0, 2)}" for i in range(k)}
            edges = {(f"n{rng.randrange(i) if i else 0}", f"n{i}", "e") for i in range(1, k)}
            graphs.append(SemanticGraph(nodes, edges, "n0"))
        for g in graphs:
            assert is_isomorphic(g, g)  # reflexive
            renamed = g.renamed({n: f"r_{n}" for n in g.nodes})
            assert is_isomorphic(g, renamed) and is_isomorphic(renamed, g)  # symmetric
        for g1 in graphs:
            for g2 in graphs:
                for g3 in graphs:
                    if is_isomorphic(g1, g2) and is_isomorphic(g2, g3):
                        assert is_isomorphic(g1, g3)  # transitive

    def test_mod_of_orientation_equivalence(self):
        amr = SemanticGraph({"f": "fairy", "t": "tiny"}, [("f", "t", "mod")], "f")
        normalized = SemanticGraph({"f": "fairy", "t": "tiny"}, [("t", "f", "mod-of")], "f")
        assert not is_isomorphic(amr, normalized)
        assert is_isomorphic_mod_of(amr, normalized)


def _match_undos(g1, g2):
    """is_isomorphic(g1, g2), and how many times the search undid a match
    on the way, counted by tracing _match's undo line. The line is read off
    the traced code object, not the source file, which may have changed
    since the module was imported."""
    import dis
    import sys

    from amdep import graph

    code = graph._match.__code__
    undo = None
    for ins in dis.get_instructions(code):
        undo = ins.starts_line or undo
        if ins.argval == "discard":  # used.discard(mapping.pop(n))
            break
    else:
        raise AssertionError("_match has no discard call")
    undone = 0

    def trace(frame, event, _arg):
        nonlocal undone
        if frame.f_code is not code:
            return None
        undone += event == "line" and frame.f_lineno == undo
        return trace

    saved = sys.gettrace()
    sys.settrace(trace)
    try:
        found = is_isomorphic(g1, g2)
    finally:
        sys.settrace(saved)
    return found, undone
