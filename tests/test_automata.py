import logging
import random
import re
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from amdep.algebra import (
    AMDepTree,
    AMType,
    SGraph,
    canonical_constant_form,
    check_well_typed,
    constant,
    evaluate,
    is_placeholder,
)
from amdep import automata
from amdep.automata import (
    Rule,
    State,
    TreeAutomaton,
    _LeafLayout,
    binarize,
    build_automaton,
    count_trees,
    enumerate_runs,
    read_automaton,
    reconstruct_tree,
    write_automaton,
)
from amdep.decompose import Decomposition, decompose
from amdep.errors import MalformedInput, UnsupportedName
from amdep.generate import GeneratorConfig, gen_corpus, gen_random_tree
from amdep.graph import SemanticGraph, is_isomorphic, is_isomorphic_mod_of

from conftest import MOD_ATTACH_GRAPH, small_graphs

S3 = ("s1", "s2", "s3")


@pytest.fixture(scope="module")
def rel_decomp(heuristics):
    from amdep.graph import SemanticGraph

    g = SemanticGraph({"f": "fairy", "b": "begin", "g": "glow"},
                      [("b", "f", "ARG0"), ("b", "g", "ARG1"), ("g", "f", "ARG0")], "f")
    d = decompose(g, heuristics)
    assert isinstance(d, Decomposition)
    return d


def brute_force_variants(tree: AMDepTree, sources, normalized_graph=None):
    """Independent oracle: enumerate every combination of injective source
    assignments per constant (over all placeholders in its type), rename the
    whole tree, and keep the combinations that stay well-typed (and, when the
    graph is given, evaluate back to it — a well-typed renaming with
    mismatched assignments can still type-check by symmetry while flipping
    reentrancy endpoints). Never touches the automaton code."""
    nodes = sorted(tree.nodes)
    options = []
    for nid in nodes:
        ph = sorted(tree.constant(nid).placeholders())
        if len(ph) > len(sources):
            return []
        options.append([dict(zip(ph, combo))
                        for combo in permutations(sources, len(ph))])

    accepted = []

    def rename_tree(assignment):
        renamed_nodes = {}
        for nid, phi in zip(nodes, assignment):
            renamed_nodes[nid] = tree.constant(nid).rename_sources(phi)
        edges = []
        for e in tree.edges:
            if e.op == "APP":
                phi = assignment[nodes.index(e.parent)]
            else:
                phi = assignment[nodes.index(e.child)]
            edges.append((e.parent, e.child, e.op, phi.get(e.source, e.source)))
        return AMDepTree(renamed_nodes, tree.root, edges)

    def rec(i, chosen):
        if i == len(nodes):
            try:
                cand = rename_tree(chosen)
                if not check_well_typed(cand).is_empty:
                    return
            except Exception:
                return
            if normalized_graph is not None and not is_isomorphic(
                    evaluate(cand), normalized_graph):
                return
            accepted.append(cand)
            return
        for phi in options[i]:
            rec(i + 1, chosen + [phi])

    rec(0, [])
    return accepted


class TestBinarize:
    def test_relative_clause_shape(self, rel_decomp):
        b = binarize(rel_decomp.tree)
        assert b.op == "MOD" and b.source == "ps(f)"
        assert b.left.is_leaf and b.left.tree_node == "f" and b.left.address == "0"
        assert b.right.op == "APP" and b.right.source == "ps(g)"
        assert b.right.left.tree_node == "b" and b.right.left.address == "10"
        assert b.right.right.tree_node == "g" and b.right.right.address == "11"

    def test_single_constant(self, heuristics):
        from amdep.graph import SemanticGraph

        d = decompose(SemanticGraph({"x": "cat"}, [], "x"), heuristics)
        b = binarize(d.tree)
        assert b.is_leaf and b.address == ""

    def test_coordination_shared_slot_folded_last(self, sparkle_glow, heuristics):
        d = decompose(sparkle_glow, heuristics)
        b = binarize(d.tree)
        # the shared argument is only available after a coordinate is applied,
        # so its operation is the outermost one
        assert b.op == "APP" and b.source == "ps(f)"
        assert b.right.is_leaf and b.right.tree_node == "f"


class TestBuildAutomaton:
    def test_figure_rules(self, rel_decomp):
        a = build_automaton(rel_decomp.tree, S3)
        leaf_states = {str(r.parent) for r in a.rules if not r.children}
        # begin has placeholders f and g: one injective assignment per rule
        assert "10:{f=s1,g=s2}" in leaf_states
        ops = {(r.label, str(r.parent)) for r in a.rules if r.children}
        assert ("APP_s2", "1:{f=s1,g=s2}") in ops
        assert all(str(f).startswith("e:") for f in a.finals)

    def test_consistency_filter(self, rel_decomp):
        a = build_automaton(rel_decomp.tree, S3)
        for r in a.rules:
            if r.children:
                d1, d2 = dict(r.children[0].phi), dict(r.children[1].phi)
                for k in set(d1) & set(d2):
                    assert d1[k] == d2[k]

    def test_zero_placeholder_constant_one_rule(self, heuristics):
        from amdep.graph import SemanticGraph

        d = decompose(SemanticGraph({"x": "cat"}, [], "x"), heuristics)
        a = build_automaton(d.tree, S3)
        assert len(a.rules) == 1 and not a.rules[0].children
        assert count_trees(a) == 1

    def test_warnings_name_the_graph(self, sparkle_glow, heuristics, caplog):
        d = decompose(sparkle_glow, heuristics)
        with caplog.at_level(logging.WARNING, logger="amdep.automata"):
            a = build_automaton(d.tree, ("s1", "s2"), graph_id="sg")
        assert a.graph_id == "sg" and a.empty
        messages = [rec.getMessage() for rec in caplog.records]
        assert any("placeholders but only 2 sources" in m for m in messages)
        assert any("accepts no trees" in m for m in messages)
        assert all(m.startswith("graph sg: ") for m in messages)

    def test_too_few_sources_gives_empty(self, sparkle_glow, heuristics):
        d = decompose(sparkle_glow, heuristics)
        # the coordination constant carries three placeholders (two slots
        # plus the shared argument in the requests)
        a2 = build_automaton(d.tree, ("s1", "s2"))
        assert a2.empty and count_trees(a2) == 0
        a3 = build_automaton(d.tree, S3)
        assert not a3.empty and count_trees(a3) > 0

    def test_constructor_rejects_misnumbered_or_upward_rules(self):
        top, left, right = State("", ()), State("0", ()), State("1", ())

        def rule(rid, parent, children=()):
            return Rule(rid, parent, "APP_s1" if children else "{}", children,
                        ("edge", "APP", "s1") if children else ("const", "{}"), ("",))

        leaves = [rule(0, left), rule(1, right)]
        TreeAutomaton("ok", S3, leaves + [rule(2, top, (left, right))], [top], {})
        with pytest.raises(ValueError, match="rule ids are not 0..2 in order"):
            TreeAutomaton("swapped", S3, [rule(2, top, (left, right))] + leaves, [top], {})
        with pytest.raises(ValueError, match="rule ids are not 0..1 in order"):
            TreeAutomaton("gap", S3, [rule(0, left), rule(2, right)], [top], {})
        with pytest.raises(ValueError, match="rule 0 has a child state no deeper"):
            TreeAutomaton("upward", S3, [rule(0, left, (top, right))], [left], {})
        with pytest.raises(ValueError, match="rule 2 has a child state no deeper"):
            TreeAutomaton("loop", S3, leaves + [rule(2, top, (top, right))], [top], {})

    def test_constructor_rejects_rules_of_other_arity(self):
        top, left, right = State("", ()), State("0", ()), State("1", ())

        def rule(rid, parent, children=()):
            return Rule(rid, parent, "APP_s1" if children else "{}", children,
                        ("edge", "APP", "s1") if children else ("const", "{}"), ("",))

        with pytest.raises(ValueError, match="'unary': rule 1 has 1 children, not 0 or 2"):
            TreeAutomaton("unary", S3, [rule(0, left), rule(1, top, (left,))], [top], {})
        mid = State("2", ())
        with pytest.raises(ValueError, match="'ternary': rule 3 has 3 children, not 0 or 2"):
            TreeAutomaton("ternary", S3, [rule(0, left), rule(1, right), rule(2, mid),
                                          rule(3, top, (left, right, mid))], [top], {})

    def test_determinism(self, rel_decomp):
        a1 = build_automaton(rel_decomp.tree, S3)
        a2 = build_automaton(rel_decomp.tree, S3)
        assert [str(r) for r in a1.rules] == [str(r) for r in a2.rules]
        assert [r.rid for r in a1.rules] == list(range(len(a1.rules)))

    def test_acyclic_addresses(self, rel_decomp):
        a = build_automaton(rel_decomp.tree, S3)
        for r in a.rules:
            for c in r.children:
                assert c.address.startswith(r.parent.address)
                assert len(c.address) > len(r.parent.address)


class TestCounting:
    def test_figure_count_matches_brute_force(self, rel_decomp):
        a = build_automaton(rel_decomp.tree, S3)
        variants = brute_force_variants(rel_decomp.tree, S3,
                                        rel_decomp.normalized.graph)
        assert count_trees(a) == len(variants) == 6

    def test_single_leaf_injective_count(self, heuristics):
        from amdep.graph import SemanticGraph

        # constant with 2 placeholder slots, |S|=3: 3!/(3-2)! = 6
        g = SemanticGraph({"a": "A", "b": "B", "c": "C"},
                          [("a", "b", "ARG0"), ("a", "c", "ARG1")], "a")
        d = decompose(g, heuristics)
        a = build_automaton(d.tree, S3)
        head_rules = [r for r in a.rules
                      if not r.children and r.parent.address == "00"]
        assert len(head_rules) == 6

    def test_monotone_in_inventory(self, heuristics):
        cfg = GeneratorConfig(max_nodes=6)
        for seed in range(15):
            g = evaluate(gen_random_tree(cfg, seed=seed + 77))
            d = decompose(g, heuristics)
            assert isinstance(d, Decomposition)
            c2 = count_trees(build_automaton(d.tree, ("s1", "s2")))
            c3 = count_trees(build_automaton(d.tree, S3))
            c4 = count_trees(build_automaton(d.tree, ("s1", "s2", "s3", "s4")))
            assert c2 <= c3 <= c4

    def test_count_equals_enumeration_on_random_instances(self, heuristics):
        cfg = GeneratorConfig(max_nodes=6)
        checked = 0
        seed = 0
        while checked < 50:
            seed += 1
            g = evaluate(gen_random_tree(cfg, seed=seed + 600))
            d = decompose(g, heuristics)
            a = build_automaton(d.tree, S3)
            n = count_trees(a)
            if n > 2000:
                continue
            assert len(enumerate_runs(a)) == n
            checked += 1


class TestEnumerate:
    def test_limit_zero(self, rel_decomp):
        a = build_automaton(rel_decomp.tree, S3)
        assert enumerate_runs(a, limit=0) == []

    def test_lexicographic_and_truncation(self, rel_decomp):
        a = build_automaton(rel_decomp.tree, S3)
        runs = enumerate_runs(a)
        seqs = [r.rule_ids() for r in runs]
        assert seqs == sorted(seqs)
        assert [r.rule_ids() for r in enumerate_runs(a, limit=3)] == seqs[:3]

    def test_figure_run_present(self, rel_decomp):
        a = build_automaton(rel_decomp.tree, S3)
        found = False
        for run in enumerate_runs(a):
            t = reconstruct_tree(a, run)
            mod = next(e for e in t.edges if e.op == "MOD")
            if (mod.source == "s1"
                    and str(t.constant("b").typ) == "[s1, s2[s1]]"):
                found = True
        assert found


class TestReconstruct:
    def test_soundness_on_random_instances(self, heuristics):
        cfg = GeneratorConfig(max_nodes=6)
        checked = 0
        seed = 0
        while checked < 40:
            seed += 1
            g = evaluate(gen_random_tree(cfg, seed=seed + 700))
            d = decompose(g, heuristics)
            a = build_automaton(d.tree, S3)
            runs = enumerate_runs(a, limit=200)
            if not runs:
                continue
            for run in runs:
                t = reconstruct_tree(a, run)
                assert check_well_typed(t).is_empty
                assert is_isomorphic(evaluate(t), d.normalized.graph)
                # no placeholders remain anywhere
                for nid in t.nodes:
                    assert not t.constant(nid).placeholders()
                for e in t.edges:
                    assert not is_placeholder(e.source)
            checked += 1

    @given(g=small_graphs())
    @example(g=SemanticGraph.from_json(MOD_ATTACH_GRAPH))
    @settings(max_examples=150, deadline=None)
    def test_every_run_verifies(self, heuristics, g):
        """Each run the automaton accepts is a tree of the algebra that
        evaluates back to its graph."""
        d = decompose(g, heuristics)
        if not isinstance(d, Decomposition):
            return
        a = build_automaton(d.tree, S3)
        for run in enumerate_runs(a, limit=300):
            assert is_isomorphic_mod_of(evaluate(reconstruct_tree(a, run)), g)

    def test_shape_matches_binarization(self, rel_decomp):
        a = build_automaton(rel_decomp.tree, S3)
        for run in enumerate_runs(a):
            t = reconstruct_tree(a, run)
            assert sorted((e.parent, e.child, e.op) for e in t.edges) == sorted(
                (e.parent, e.child, e.op) for e in rel_decomp.tree.edges)

    def test_automaton_equals_brute_force_set(self, sparkle_glow, heuristics):
        d = decompose(sparkle_glow, heuristics)
        a = build_automaton(d.tree, S3)
        ng = d.normalized.graph
        auto_trees = {str(sorted((e.parent, e.child, e.op, e.source)
                                 for e in reconstruct_tree(a, run).edges))
                      + "|" + str({n: str(reconstruct_tree(a, run).constant(n).typ)
                                   for n in sorted(d.tree.nodes)})
                      for run in enumerate_runs(a)}
        brute = {str(sorted((e.parent, e.child, e.op, e.source) for e in t.edges))
                 + "|" + str({n: str(t.constant(n).typ) for n in sorted(t.nodes)})
                 for t in brute_force_variants(d.tree, S3, ng)}
        assert auto_trees == brute

    def test_deep_chain_takes_no_frame_per_level(self, heuristics):
        # a0 -ARG0-> a1 -ARG0-> ... a1199: the binarized tree is 1,199 levels
        # deep, beyond the default recursion limit
        from amdep.training import sample_run, viterbi

        n = 1200
        g = SemanticGraph({f"a{i}": "see" for i in range(n)},
                          [(f"a{i}", f"a{i + 1}", "ARG0") for i in range(n - 1)], "a0")
        d = decompose(g, heuristics)
        assert isinstance(d, Decomposition)
        a = build_automaton(d.tree, S3)
        gold = sorted((e.parent, e.child, e.op) for e in d.tree.edges)
        for run in (viterbi(a), sample_run(a, random.Random(1))):
            ids = run.rule_ids()
            assert len(ids) == 2 * n - 1 and ids[0] == run.rule
            t = reconstruct_tree(a, run)
            assert t.root == "a0" and len(t.nodes) == n
            assert sorted((e.parent, e.child, e.op) for e in t.edges) == gold


class TestSerialization:
    def test_round_trip(self, rel_decomp, tmp_path):
        a = build_automaton(rel_decomp.tree, S3)
        a.graph_id = "rel"
        path = tmp_path / "rel.auto"
        write_automaton(a, path)
        a2, weights = read_automaton(path)
        assert weights is None
        assert a2.graph_id == "rel" and a2.sources == S3
        assert [str(r) for r in a2.rules] == [str(r) for r in a.rules]
        assert [str(f) for f in a2.finals] == [str(f) for f in a.finals]
        assert count_trees(a2) == count_trees(a)
        t = reconstruct_tree(a2, enumerate_runs(a2)[0])
        assert check_well_typed(t).is_empty

    def test_deepest_bad_operation_named_first(self, heuristics, tmp_path):
        # the tree is given its edges in postorder, bottom-up, and names the
        # first edge it rejects
        g = SemanticGraph({f"a{i}": "see" for i in range(4)},
                          [(f"a{i}", f"a{i + 1}", "ARG0") for i in range(3)], "a0")
        path = tmp_path / "chain.auto"
        write_automaton(build_automaton(decompose(g, heuristics).tree, S3), path)
        lines = [line.replace(" <- APP_", " <- TOP_" if line.startswith("e:") else " <- LOW_")
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        a, _weights = read_automaton(path)
        with pytest.raises(MalformedInput, match="bad operation 'LOW'"):
            reconstruct_tree(a, enumerate_runs(a, limit=1)[0])

    def test_weights_round_trip(self, rel_decomp, tmp_path):
        a = build_automaton(rel_decomp.tree, S3)
        weights = {r.rid: 0.25 + 0.5 * r.rid for r in a.rules}
        path = tmp_path / "w.auto"
        write_automaton(a, path, weights)
        _a2, w2 = read_automaton(path)
        assert w2 == weights

    @given(seed=st.integers(0, 10_000), nsources=st.integers(1, 4),
           weighted=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, heuristics, tmp_path_factory, seed, nsources,
                                 weighted, data):
        g = evaluate(gen_random_tree(GeneratorConfig(max_nodes=6), seed=seed))
        d = decompose(g, heuristics)
        a = build_automaton(d.tree, [f"s{i + 1}" for i in range(nsources)],
                            graph_id=f"g{seed}")
        weights = None
        if weighted and a.rules:  # an automaton without rules writes no weights
            weights = {r.rid: data.draw(st.floats(1e-300, 1e300)) for r in a.rules}
        path = tmp_path_factory.mktemp("rt") / "a.auto"
        write_automaton(a, path, weights)
        a2, w2 = read_automaton(path)
        assert (a2.graph_id, a2.sources, a2.shape) == (a.graph_id, a.sources, a.shape)
        assert a2.finals == a.finals and a2.empty == a.empty
        assert [(r.rid, r.parent, r.label, r.children, r.event, r.align) for r in a2.rules] \
            == [(r.rid, r.parent, r.label, r.children, r.event, r.align) for r in a.rules]
        assert w2 == weights

    @given(g=small_graphs(), gold_seed=st.integers(0, 10_000), gold=st.booleans(),
           nsources=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_built_and_reread_index_agree(self, heuristics, tmp_path_factory, g, gold_seed,
                                          gold, nsources):
        # the build numbers its states itself and read_automaton numbers
        # them from the file: both must give one index and one file
        if gold:
            [(gid, _g, tree)] = gen_corpus(1, gold_seed, GeneratorConfig(max_nodes=6))
        else:
            d = decompose(g, heuristics)
            if not isinstance(d, Decomposition):
                return
            gid, tree = "g", d.tree
        a = build_automaton(tree, [f"s{i + 1}" for i in range(nsources)], graph_id=gid)
        path = tmp_path_factory.mktemp("idx") / "a.auto"
        write_automaton(a, path)
        a2, _ = read_automaton(path)
        assert a2.state_list == a.state_list and a2.accept == a.accept
        assert a2.state_rules == a.state_rules and a2.children == a.children
        write_automaton(a2, path.with_suffix(".again"))
        assert path.with_suffix(".again").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("misplace", ["leaf rule at op address", "op rule at leaf address",
                                          "op rule with swapped children"])
    def test_misplaced_rule_rejected_with_its_line(self, rel_decomp, tmp_path, misplace):
        a = build_automaton(rel_decomp.tree, S3)
        path = tmp_path / "m.auto"
        write_automaton(a, path)
        lines = path.read_text().splitlines()
        leaf_addr = next(addr for addr, d in a.shape.items() if d["kind"] == "leaf")
        want_leaf = misplace == "leaf rule at op address"
        n, r = next((n, r) for n, r in enumerate(a.rules, len(lines) - len(a.rules))
                    if (not r.children) == want_leaf)
        head, rest = lines[n].split(" <- ", 1)
        phi = head.split(":", 1)[1]
        if misplace == "leaf rule at op address":
            lines[n] = f"{r.parent.address[:-1] or 'e'}:{phi} <- {rest}"
        elif misplace == "op rule at leaf address":
            lines[n] = f"{leaf_addr or 'e'}:{phi} <- {rest}"
        else:
            left, right = (str(c) for c in r.children)
            lines[n] = f"{head} <- {rest.replace(f'{left}, {right}', f'{right}, {left}')}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedInput, match=f"{path}, line {n + 1}: rule at address"):
            read_automaton(path)

    @pytest.mark.parametrize("corrupt", ["operation label without _", "parent state text",
                                         "child state text"])
    def test_bad_label_or_state_rejected_at_read_with_its_line(self, rel_decomp, tmp_path,
                                                                corrupt):
        # labels and state texts are checked while the file is read, not when
        # a query first needs them
        a = build_automaton(rel_decomp.tree, S3)
        path = tmp_path / "c.auto"
        write_automaton(a, path)
        lines = path.read_text().splitlines()
        n = next(n for n, line in enumerate(lines) if not line.endswith("()")
                 and not line.startswith(("#", "final:")))
        head, rest = lines[n].split(" <- ", 1)
        if corrupt == "operation label without _":
            rest = rest.replace("_", "", 1)
        elif corrupt == "parent state text":
            head = head.replace(":{", ":[", 1)
        else:
            rest = rest.replace(", 1:{", ", 1:[", 1)
        lines[n] = f"{head} <- {rest}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedInput, match=re.escape(f"{path}, line {n + 1}: malformed: ")):
            read_automaton(path)

    def test_accepted_syntax_reads_as_the_canonical_file(self, rel_decomp, tmp_path):
        # comments, blank and whitespace-only lines, CRLF endings, a weight on
        # one rule, padded states with unsorted pairs and a leaf label holding
        # " # " all read as the file write_automaton gives
        a = build_automaton(rel_decomp.tree, S3, graph_id="rel")
        leaf = a.children.index(())
        a.labels[leaf] = '{"nodes":{"r":"a # 1"}}'
        canonical = tmp_path / "canonical.auto"
        write_automaton(a, canonical)
        lines = canonical.read_text().splitlines()

        def padded(state):
            addr, pairs = state.strip().split(":", 1)
            return f"  {addr}:{{{','.join(reversed(pairs[1:-1].split(',')))}}} "

        out = lines[:1] + ["# a comment", "#! note headers with other keys are ignored",
                           "", "  \t "] + lines[1:3]
        finals = [line for line in lines if line.startswith("final:")]
        out += [f"final:{padded(line[len('final:'):])}" for line in finals]
        for rid, line in enumerate(lines[3 + len(finals):]):
            head, rest = line.split(" <- ", 1)
            if not rest.endswith("()"):
                label, kids = rest[:-1].split("(", 1)
                rest = f"{label}({', '.join(padded(k) for k in kids.split(', '))})"
            out.append(f"{padded(head)} <- {rest}")
            if rid == leaf:
                out[-1] += " # 0.5"
                out.append("# 0:{} <- not a rule()")
        variant = tmp_path / "variant.auto"
        variant.write_bytes(("\r\n".join(out) + "\r\n").encode())
        fields = ("graph_id", "sources", "shape", "finals", "labels", "aligns", "state_list",
                  "parents", "children", "state_rules", "accept")
        (a1, w1), (a2, w2) = read_automaton(canonical), read_automaton(variant)
        assert [getattr(a2, f) for f in fields] == [getattr(a1, f) for f in fields] \
            == [getattr(a, f) for f in fields]
        assert w1 is None and w2 == {leaf: 0.5}

    # each line, appended to a valid file, and the text of the error it raises
    MALFORMED = {
        "garbage": "not enough values to unpack (expected 2, got 1)",
        "#!": "not enough values to unpack (expected 3, got 1)",
        "#! graph": "not enough values to unpack (expected 3, got 2)",
        "#! shape {": "Expecting property name enclosed in double quotes: line 1 column 2 "
                      "(char 1)",
        "final: e:[]": "bad state ' e:[]'",
        "final: e:{f}": "not enough values to unpack (expected 2, got 1)",
        "e:[] <- x()": "bad state 'e:[]'",
        "  # a comment after spaces <- x()": "bad state '  # a comment after spaces'",
        "final: e:{} <- x()": "bad state ' e:{} <- x()'",
        "e:{} <- MOD_s1": "substring not found",
        "e:{} <- MODs1(0:{}, 1:{f=s1,g=s2})": "not enough values to unpack (expected 2, got 1)",
        "e:{} <- MOD_s1(0:{}, 1:{f=s1,g=s2}) ": "bad state '1:{f=s1,g=s2})'",
        "e:{} <- MOD_s1(0:{}, bogus) # 0.5": "bad state 'bogus'",
        "e:{} <- x() # not a weight": "bad state ') # not a weigh'",
        "e:{f} <- x()": "not enough values to unpack (expected 2, got 1)",
    }

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_line_error_texts(self, rel_decomp, tmp_path, line):
        path = tmp_path / "m.auto"
        write_automaton(build_automaton(rel_decomp.tree, S3), path)
        n = len(path.read_text().splitlines()) + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(MalformedInput) as err:
            read_automaton(path)
        assert str(err.value) == f"{path}, line {n}: malformed: {self.MALFORMED[line]}"

    def test_undecodable_bytes_raise_malformed_input(self, rel_decomp, tmp_path):
        # bytes that are not UTF-8, past the first read buffer: only the form
        # of the message is pinned here; the line and the position are exact,
        # and test_undecodable_bytes_name_their_line pins them
        path = tmp_path / "u.auto"
        write_automaton(build_automaton(rel_decomp.tree, S3), path)
        path.write_bytes(path.read_bytes() + b"# a comment\n" * 3000 + b"\xff\n")
        with pytest.raises(MalformedInput) as err:
            read_automaton(path)
        assert re.fullmatch(rf"{re.escape(str(path))}, line [1-9][0-9]*: malformed: 'utf-8' "
                            r"codec can't decode byte 0xff in position [0-9]+: invalid start "
                            r"byte", str(err.value))

    def test_undecodable_bytes_name_their_line(self, rel_decomp, tmp_path):
        # the error names the line that holds the bad byte, counting lines as
        # text reading does (a CR ends one too), and the byte's position in it
        path = tmp_path / "u.auto"
        write_automaton(build_automaton(rel_decomp.tree, S3), path)
        n = len(path.read_text().splitlines())
        path.write_bytes(path.read_bytes() + b"# a comment\n" * 3000 + b"# cr\r# crlf\r\n"
                         + b"# bad \xff\n")
        with pytest.raises(MalformedInput) as err:
            read_automaton(path)
        assert str(err.value) == (f"{path}, line {n + 3003}: malformed: 'utf-8' codec can't "
                                  "decode byte 0xff in position 6: invalid start byte")

    def test_chunked_writes_keep_the_bytes(self, rel_decomp, tmp_path, monkeypatch):
        # the text reaches the file in chunks of _CHUNK lines: with any chunk
        # size, the line count and its divisors among them, the bytes are those
        # of one write
        a = build_automaton(rel_decomp.tree, S3)
        for weights in (None, [0.5 + k for k in range(len(a.labels))]):
            write_automaton(a, tmp_path / "whole.auto", weights)
            whole = (tmp_path / "whole.auto").read_bytes()
            for chunk in range(1, whole.count(b"\n") + 2):
                monkeypatch.setattr(automata, "_CHUNK", chunk)
                write_automaton(a, tmp_path / "c.auto", weights)
                assert (tmp_path / "c.auto").read_bytes() == whole, chunk
            monkeypatch.undo()

    def test_write_that_fails_leaves_the_old_file(self, rel_decomp, tmp_path, monkeypatch):
        # a weight that cannot be read raises after the first chunk was written
        a = build_automaton(rel_decomp.tree, S3)
        assert len(a.labels) > 2
        path = tmp_path / "a.auto"
        path.write_text("old\n")

        class FailingWeights(dict):
            def __missing__(self, rid):
                raise RuntimeError(f"no weight for rule {rid}")

        monkeypatch.setattr(automata, "_CHUNK", 2)
        with pytest.raises(RuntimeError, match="no weight for rule 2"):
            write_automaton(a, path, FailingWeights({0: 0.5, 1: 0.5}))
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_events_survive(self, rel_decomp, tmp_path):
        a = build_automaton(rel_decomp.tree, S3)
        path = tmp_path / "e.auto"
        write_automaton(a, path)
        a2, _ = read_automaton(path)
        assert [r.event for r in a2.rules] == [r.event for r in a.rules]
        assert [r.align for r in a2.rules] == [r.align for r in a.rules]


def check_leaf_layout(c):
    """Every renaming of c's placeholders onto S3: the layout's label is the
    canonical form of the renamed constant, and the layout reports a clash
    exactly when AMType rejects the renaming."""
    ph = tuple(sorted(c.placeholders()))
    layout = _LeafLayout(c, ph)
    for combo in permutations(S3, len(ph)):
        names = dict(zip(ph, combo))
        try:
            want = canonical_constant_form(c.rename_sources(names))
        except (ValueError, TypeError):  # one level of the type would name a source twice
            want = None
        assert layout.clashes(combo) == (want is None), (c.typ, names)
        if want is not None:
            assert layout.label(names) == want


@given(g=small_graphs(), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_leaf_layout_matches_renamed_canonical_form(heuristics, g, seed):
    # leaves of decomposed trees, some placeholders first renamed to a
    # reusable name so that later renamings can clash with it
    d = decompose(g, heuristics)
    if not isinstance(d, Decomposition):
        return
    rng = random.Random(seed)
    for n in sorted(d.tree.nodes):
        c = d.tree.constant(n)
        fixed = {p: rng.choice(S3) for p in sorted(c.placeholders()) if rng.random() < 0.3}
        try:
            c = c.rename_sources(fixed)
        except (ValueError, TypeError):
            continue
        check_leaf_layout(c)


def test_leaf_layout_on_hand_built_constants():
    # a clash inside a request, with equal and with different requests;
    # anonymous nodes; a source on the root of a one-node constant
    for nested in ({"ps(a)": {}, "s1": {}}, {"ps(a)": {}, "s1": {"s2": {}}}):
        check_leaf_layout(constant("see", "h", [("ARG0", "ps(a)"), ("ARG1", "ps(b)")],
                                   typ=AMType({"ps(a)": {}, "ps(b)": nested})))
    g = SemanticGraph({"h": "see", "h@a": None, "k": "cat", "k2": None, "k3": "cat"},
                      [("h", "h@a", "ARG0"), ("h", "k", "ARG1"), ("h", "k2", "mod"),
                       ("h", "k3", "ARG2"), ("k", "h@a", "ARG0")], "h")
    check_leaf_layout(SGraph(g, "h", {"ps(a)": "h@a"}, AMType({"ps(a)": {"s1": {}}})))
    check_leaf_layout(SGraph(SemanticGraph({"r": None}, [], "r"), "r", {"ps(r)": "r"},
                             AMType({"ps(r)": {}})))


def test_rule_locality_factorization(rel_decomp):
    # one leaf address per tree node, one operation address per tree edge,
    # and every rule names exactly one constant or one operation
    a = build_automaton(rel_decomp.tree, S3)
    leaf_addrs = {addr for addr, d in a.shape.items() if d["kind"] == "leaf"}
    op_addrs = {addr for addr, d in a.shape.items() if d["kind"] == "op"}
    assert len(leaf_addrs) == len(rel_decomp.tree.nodes)
    assert len(op_addrs) == len(rel_decomp.tree.edges)
    for r in a.rules:
        if r.children:
            assert r.event[0] == "edge" and r.parent.address in op_addrs
        else:
            assert r.event[0] == "const" and r.parent.address in leaf_addrs


def test_well_typed_but_inconsistent_renamings_are_rejected(heuristics):
    # a constant type symmetric in two sources type-checks under swapped
    # assignments, but the swap flips which slots merge and the evaluation
    # no longer matches the graph; the automaton must reject those
    from amdep.graph import SemanticGraph
    from amdep.algebra import evaluate
    from amdep.graph import is_isomorphic

    g = SemanticGraph(
        {"a": "A", "b": "B", "c": "C", "x": "X", "y": "Y"},
        [("a", "x", "ARG0"), ("a", "y", "ARG1"), ("a", "b", "ARG2"),
         ("b", "x", "ARG0"), ("b", "y", "ARG1"), ("b", "c", "ARG2"),
         ("c", "x", "ARG0"), ("c", "y", "ARG1")], "a")
    d = decompose(g, heuristics)
    a = build_automaton(d.tree, S3)
    accepted = count_trees(a)
    loose = brute_force_variants(d.tree, S3)  # well-typed only
    strict = brute_force_variants(d.tree, S3, d.normalized.graph)
    assert accepted == len(strict)
    assert len(loose) > len(strict)  # the symmetric swaps type-check...
    for t in loose:
        if not is_isomorphic(evaluate(t), d.normalized.graph):
            break
    else:
        raise AssertionError("expected a well-typed variant with wrong evaluation")


def test_accepted_set_equals_evaluating_brute_force(heuristics):
    from amdep.algebra import canonical_constant_form

    def key_of(t):
        return (tuple(sorted((e.parent, e.child, e.op, e.source) for e in t.edges)),
                tuple(sorted((n, canonical_constant_form(t.constant(n)))
                             for n in t.nodes)))

    cfg = GeneratorConfig(max_nodes=5, reentrancy_prob=0.6, mod_prob=0.4)
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        g = evaluate(gen_random_tree(cfg, seed=seed + 400_000))
        d = decompose(g, heuristics)
        brute = brute_force_variants(d.tree, S3, d.normalized.graph)
        a = build_automaton(d.tree, S3)
        auto = {key_of(reconstruct_tree(a, run)) for run in enumerate_runs(a)}
        assert auto == {key_of(t) for t in brute}
        assert count_trees(a) == len(brute)
        checked += 1


def test_writing_a_large_automaton_traces_less_than_its_file(heuristics, tmp_path):
    # the decomposition of g0018 of the seed-0 corpus at 6 sources has
    # 33,683 rules, a 3.8 MB file; its text reaches the file in chunks
    _gid, g, _tree = gen_corpus(19, 0, GeneratorConfig(max_nodes=12))[18]
    a = build_automaton(decompose(g, heuristics).tree, ("s1", "s2", "s3", "s4", "s5", "s6"))
    assert len(a.labels) == 33_683
    path = tmp_path / "g0018.auto"
    tracemalloc.start()
    try:
        write_automaton(a, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


@pytest.mark.parametrize("ch", "(){}=,:# ")
def test_source_name_with_a_reserved_character_is_unsupported(rel_decomp, ch):
    with pytest.raises(UnsupportedName) as err:
        build_automaton(rel_decomp.tree, ("s1", f"s{ch}2", "s3"))
    assert str(err.value) == f"source name containing {ch!r} unsupported"
