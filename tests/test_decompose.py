import importlib

import pytest
from hypothesis import assume, given, settings

from amdep.algebra import (
    AMDepTree,
    AMType,
    EMPTY_TYPE,
    check_well_typed,
    constant,
    evaluate,
    placeholder,
    placeholder_target,
    term_type,
)
from amdep.decompose import (
    Decomposition,
    NonDecomposable,
    _chain_table,
    _lifts,
    build_plan,
    canonical_tree,
    check_resolvable,
    consecutive_mod_pairs,
    decompose,
    default_plan,
    enumerate_candidate_trees,
    enumerate_unrollings,
    is_ref_node,
    modify_swap,
    resolve,
    unroll,
)
from amdep.errors import AmdepError, InvalidSwapPair, NotWellTyped, ResolutionFailed
from amdep.generate import GeneratorConfig, gen_random_tree
from amdep.graph import SemanticGraph, is_isomorphic, normalize_edges, partition_blobs

from conftest import small_graphs, tree_shape


def normalized(g, heuristics):
    return normalize_edges(g, partition_blobs(g, heuristics))


def edgeset(u):
    return sorted((e.parent, "MOD" if e.backward else "APP", e.child) for e in u.edges)


class TestUnroll:
    def test_coordination_shape(self, sparkle_glow, heuristics):
        u = unroll(normalized(sparkle_glow, heuristics))
        assert len(u.refs) == 1
        [(rid, target)] = u.refs.items()
        assert target == "f"
        # fairy appears once as a real node, once as a reference
        kids = {e.child for e in u.edges}
        assert "f" in kids and rid in kids

    def test_tree_input_gets_no_refs(self, tiny_fairy, heuristics):
        u = unroll(normalized(tiny_fairy, heuristics))
        assert u.refs == {}
        assert edgeset(u) == [("f", "MOD", "t"), ("g", "APP", "f")]

    def test_relative_clause_two_unrollings(self, relative_clause, heuristics):
        n = normalized(relative_clause, heuristics)
        us = enumerate_unrollings(n)
        assert len(us) == 2
        shapes = {tuple(edgeset(u)) for u in us}
        # (a): begin modifies fairy, reference under glow
        # (b): chain of modifiers, reference under begin
        assert any(("f", "MOD", "b") in s for s in shapes)
        assert any(("f", "MOD", "g") in s for s in shapes)

    def test_totality_and_merge_back(self, heuristics):
        cfg = GeneratorConfig(max_nodes=9)
        for seed in range(40):
            g = evaluate(gen_random_tree(cfg, seed=seed + 900))
            n = normalized(g, heuristics)
            u = unroll(n)
            traversed = [e.graph_edge for e in u.edges]
            assert sorted(traversed) == sorted(n.graph.edges)  # each edge once
            assert u.merged() == n.graph

    def test_no_ref_behind_mod_edge(self, heuristics):
        cfg = GeneratorConfig(max_nodes=9)
        for seed in range(40):
            g = evaluate(gen_random_tree(cfg, seed=seed + 900))
            u = unroll(normalized(g, heuristics))
            for e in u.edges:
                if e.child in u.refs:
                    assert not e.backward

    def test_bad_tie_break(self, tiny_fairy, heuristics):
        with pytest.raises(ValueError):
            unroll(normalized(tiny_fairy, heuristics), "bogus")


class TestCanonicalTree:
    def test_tiny_fairy(self, tiny_fairy, heuristics):
        n = normalized(tiny_fairy, heuristics)
        c = canonical_tree(unroll(n), n)
        assert sorted((e.parent, e.op, e.source, e.child) for e in c.edges) == [
            ("f", "MOD", "ps(f)", "t"), ("g", "APP", "ps(f)", "f")]
        assert c.constant("g").typ == AMType({"ps(f)": EMPTY_TYPE})
        assert c.constant("t").typ == AMType({"ps(f)": EMPTY_TYPE})
        assert c.constant("f").typ == EMPTY_TYPE
        # slot requests are all empty in canonical constants
        for nid in c.nodes:
            for _name, req in c.constant(nid).typ.entries:
                assert req.is_empty

    def test_single_node(self, heuristics):
        g = SemanticGraph({"x": "cat"}, [], "x")
        n = normalized(g, heuristics)
        c = canonical_tree(unroll(n), n)
        assert list(c.nodes) == ["x"] and c.edges == []

    def test_coordination_ref_fills_slot(self, sparkle_glow, heuristics):
        n = normalized(sparkle_glow, heuristics)
        u = unroll(n)
        c = canonical_tree(u, n)
        [rid] = u.refs
        edge = c.parent_edge(rid)
        assert edge.op == "APP" and edge.source == "ps(f)"
        assert is_ref_node(c, rid)
        assert term_type(c, edge.parent) == EMPTY_TYPE


class TestCheckResolvable:
    def test_coordination_passes(self, sparkle_glow, heuristics):
        n = normalized(sparkle_glow, heuristics)
        c = canonical_tree(unroll(n), n)
        report = check_resolvable(c, default_plan(c), n)
        assert report.decomposable and not report.violations

    def test_relative_clause_mod_on_path(self, relative_clause, heuristics):
        # a modify edge sits on the reference path; condition 2 is met by the
        # directed graph path glow -> fairy
        n = normalized(relative_clause, heuristics)
        c = canonical_tree(unroll(n), n)
        report = check_resolvable(c, default_plan(c), n)
        assert report.decomposable

    def test_ref_under_mod_is_condition_1(self, heuristics):
        # hand-built: a reference leaf forced behind a modify edge
        from amdep.algebra import ref_placeholder

        glow = constant("glow", "g", [("ARG0", "ps(f)")])
        fairy = constant("fairy", "f")
        tree = AMDepTree(
            {"g": glow, "f": fairy, "r": ref_placeholder("r")}, "g",
            [("g", "f", "APP", "ps(f)"), ("f", "r", "MOD", "ps(f)")])
        n = normalized(SemanticGraph({"g": "glow", "f": "fairy"},
                                     [("g", "f", "ARG0")], "g"), heuristics)
        plan = build_plan(tree, {"f": "g"})
        report = check_resolvable(tree, plan, n)
        assert not report.decomposable
        assert any(v.condition == 1 for v in report.violations)


class TestResolve:
    def test_coordination_golden(self, sparkle_glow, heuristics, figure_goldens):
        d = decompose(sparkle_glow, heuristics)
        assert isinstance(d, Decomposition)
        assert tree_shape(d.tree.to_json()) == tree_shape(
            figure_goldens["fairy-sparkles-and-glows"])
        a = d.tree.constant("a")
        assert a.typ == AMType({"ps(s)": AMType({"ps(f)": EMPTY_TYPE}),
                                "ps(g)": AMType({"ps(f)": EMPTY_TYPE})})
        # fairy moved up under the coordination node
        assert d.tree.parent_edge("f").parent == "a"

    def test_no_refs_is_identity(self, tiny_fairy, heuristics):
        n = normalized(tiny_fairy, heuristics)
        c = canonical_tree(unroll(n), n)
        t = resolve(c, default_plan(c))
        assert t == c

    def test_nested_control_two_step_percolation(self, heuristics):
        # "the fairy seems to begin to glow": requests percolate two levels
        g = SemanticGraph(
            {"b": "begin", "f": "fairy", "s": "seem", "g": "glow"},
            [("b", "f", "ARG0"), ("b", "s", "ARG1"), ("s", "g", "ARG1"),
             ("g", "f", "ARG0")], "b")
        d = decompose(g, heuristics)
        assert isinstance(d, Decomposition)
        assert d.tree.constant("s").typ == AMType(
            {"ps(g)": AMType({"ps(f)": EMPTY_TYPE})})
        assert d.tree.constant("b").typ == AMType(
            {"ps(f)": EMPTY_TYPE,
             "ps(s)": AMType({"ps(f)": EMPTY_TYPE})})
        assert is_isomorphic(evaluate(d.tree), d.normalized.graph)

    def test_resolution_preserves_evaluation(self, heuristics):
        cfg = GeneratorConfig(max_nodes=8)
        for seed in range(30):
            g = evaluate(gen_random_tree(cfg, seed=seed + 500))
            d = decompose(g, heuristics)
            assert isinstance(d, Decomposition)
            assert check_well_typed(d.tree).is_empty
            assert is_isomorphic(evaluate(d.tree), d.normalized.graph)


class TestModifySwap:
    def fig7d_tree(self, relative_clause, heuristics):
        n = normalized(relative_clause, heuristics)
        for u in enumerate_unrollings(n):
            c = canonical_tree(u, n)
            t = resolve(c, default_plan(c))
            if any(e.op == "MOD" and e.parent == "g" for e in t.edges):
                return t, n
        raise AssertionError("chain unrolling not found")

    def test_swap_recovers_other_analysis(self, relative_clause, heuristics,
                                          figure_goldens):
        t, n = self.fig7d_tree(relative_clause, heuristics)
        pairs = consecutive_mod_pairs(t)
        assert pairs == [(("f", "g"), ("g", "b"))]
        swapped = modify_swap(t, pairs)
        assert tree_shape(swapped.to_json()) == tree_shape(
            figure_goldens["fairy-that-begins-to-glow"])
        assert is_isomorphic(evaluate(swapped), n.graph)

    def test_empty_is_identity(self, relative_clause, heuristics):
        t, _n = self.fig7d_tree(relative_clause, heuristics)
        assert modify_swap(t, []) == t

    def test_swap_preserves_evaluation(self, heuristics):
        # triple modifier chain: fairy <- tiny <- green
        g = SemanticGraph({"f": "fairy", "t": "tiny", "q": "green"},
                          [("t", "f", "mod-of"), ("q", "t", "mod-of")], "f")
        d = decompose(g, heuristics)
        pairs = consecutive_mod_pairs(d.tree)
        assert pairs
        swapped = modify_swap(d.tree, [pairs[0]])
        assert check_well_typed(swapped).is_empty
        assert is_isomorphic(evaluate(swapped), evaluate(d.tree))
        # the promoted node records the displaced subtree's type
        ((n, m), (_m, k)) = pairs[0]
        assert placeholder(m) in swapped.constant(k).typ

    def test_invalid_pair(self, tiny_fairy, heuristics):
        d = decompose(tiny_fairy, heuristics)
        with pytest.raises(InvalidSwapPair):
            modify_swap(d.tree, [(("g", "f"), ("f", "t"))])  # first edge is APP

    def test_invalid_pair_texts(self):
        # fairy <-MOD_ps(f)- tiny <-MOD_s1- green: the lower edge of the
        # pair is a modify edge, but not by green's placeholder for tiny
        tree = AMDepTree(
            {"f": constant("fairy", "f"), "t": constant("tiny", "t", [("mod", placeholder("f"))]),
             "q": constant("green", "q", [("mod", "s1")])}, "f",
            [("f", "t", "MOD", placeholder("f")), ("t", "q", "MOD", "s1")])
        with pytest.raises(InvalidSwapPair) as exc:
            modify_swap(tree, [(("f", "t"), ("q", "t"))])
        assert str(exc.value) == "pair (f,t);(q,t) is not consecutive"
        with pytest.raises(InvalidSwapPair) as exc:
            modify_swap(tree, [(("f", "t"), ("t", "q"))])
        assert str(exc.value) == "edge (t,q) is not MOD_ps(t)"


class TestOneCheckedTreePerCall:
    """resolve and modify_swap edit one copy of their input and check one
    tree, at the end; only resolve(debug=True) builds one per step."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        init = AMDepTree.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(AMDepTree, "__init__", counted)
        return calls

    def test_resolve(self, sparkle_glow, heuristics, built):
        n = normalized(sparkle_glow, heuristics)
        c = canonical_tree(unroll(n), n)
        plan = default_plan(c)
        assert plan.targets
        built.clear()
        t = resolve(c, plan)
        assert len(built) == 1
        assert is_isomorphic(evaluate(t), n.graph)
        built.clear()
        assert resolve(c, plan, debug=True) == t
        assert len(built) == 1 + len(plan.targets)

    def test_modify_swap(self, relative_clause, heuristics, built):
        t, _n = TestModifySwap().fig7d_tree(relative_clause, heuristics)
        pairs = consecutive_mod_pairs(t)
        assert len(pairs) == 1
        built.clear()
        modify_swap(t, pairs)
        assert len(built) == 1


class TestResolutionFactsOncePerCandidate:
    """decompose scans each candidate tree for reference leaves once, in
    default_plan, and builds one ancestor chain per position (a referenced
    node and each of its reference leaves); resolve reads the leaves off the
    plan."""

    def test_decompose(self, sparkle_glow, heuristics, monkeypatch):
        # the package's own decompose attribute is the function
        module = importlib.import_module("amdep.decompose")
        is_ref, ancestors = module.is_ref_node, module._ancestors
        scanned, chained = [], []

        def counted_is_ref(tree, node):
            scanned.append((tree, node))
            return is_ref(tree, node)

        def counted_ancestors(tree, node):
            chained.append((tree, node))
            return ancestors(tree, node)

        monkeypatch.setattr(module, "is_ref_node", counted_is_ref)
        monkeypatch.setattr(module, "_ancestors", counted_ancestors)
        assert isinstance(decompose(sparkle_glow, heuristics), Decomposition)
        candidates = {id(t): t for t, _node in scanned}
        assert candidates
        assert {id(t) for t, _node in chained} <= candidates.keys()
        for t in candidates.values():
            assert sorted(node for u, node in scanned if u is t) == sorted(t.nodes)
            refs = [node for node in t.nodes if is_ref(t, node)]
            assert refs
            positions = refs + sorted({placeholder_target(t.parent_edge(r).source)
                                       for r in refs})
            assert sorted(node for u, node in chained if u is t) == sorted(positions)

    def test_enumeration_with_lifts(self, heuristics, monkeypatch):
        # every lifted plan of a candidate is built from its one chain table;
        # fairy's lowest common ancestor "and" lifts to the root
        g = SemanticGraph({"w": "want", "a": "and", "s": "sparkle", "g": "glow", "f": "fairy"},
                          [("w", "a", "ARG1"), ("a", "s", "op1"), ("a", "g", "op2"),
                           ("s", "f", "ARG0"), ("g", "f", "ARG0")], "w")
        module = importlib.import_module("amdep.decompose")
        chain_table, tables, plans = module._chain_table, [], []

        def counted_chain_table(tree):
            tables.append(tree)
            return chain_table(tree)

        def counted_check(tree, plan, n):
            plans.append(plan)
            return check_resolvable(tree, plan, n)

        monkeypatch.setattr(module, "_chain_table", counted_chain_table)
        monkeypatch.setattr(module, "check_resolvable", counted_check)
        assert enumerate_candidate_trees(g, heuristics, with_lifts=True)
        assert len(plans) > len(tables) > 0
        assert len({id(t) for t in tables}) == len(tables)


class TestUnrollingFactsOncePerJuncture:
    """A juncture of the unrolling searches each unvisited component once,
    however many candidates enter the visited nodes from it."""

    def test_two_candidates_into_one_component(self, heuristics, monkeypatch):
        module = importlib.import_module("amdep.decompose")
        g = SemanticGraph({"r": "want", "a": "boy", "b": "go"},
                          [("a", "r", "ARG0"), ("b", "r", "ARG1"), ("a", "b", "ARG2")], "r")
        n = normalized(g, heuristics)
        component, searched = SemanticGraph.component, []

        def counted_component(graph, start, within):
            searched.append(start)
            return component(graph, start, within)

        monkeypatch.setattr(SemanticGraph, "component", counted_component)
        record = []
        u = module._run_unroll(n, "sorted", [], record)
        assert record == [(2, 2)]
        assert len(searched) == 1
        assert u == unroll(n)


class TestResolveExtended:
    def test_default_plan_matches_resolve(self, sparkle_glow, heuristics):
        n = normalized(sparkle_glow, heuristics)
        c = canonical_tree(unroll(n), n)
        plan = default_plan(c)
        assert resolve(c, plan) == resolve(c, default_plan(c))

    def test_lift_one_level_above_lca(self, heuristics):
        # pure chain a -> b -> c; lift c to attach at a instead of b
        g = SemanticGraph({"a": "A", "b": "B", "c": "C"},
                          [("a", "b", "ARG0"), ("b", "c", "ARG0")], "a")
        n = normalized(g, heuristics)
        c_tree = canonical_tree(unroll(n), n)
        plan = build_plan(c_tree, {"c": "a"})
        report = check_resolvable(c_tree, plan, n)
        assert report.decomposable
        lifted = resolve(c_tree, plan)
        assert lifted.parent_edge("c").parent == "a"
        assert lifted.constant("a").typ == AMType(
            {"ps(b)": AMType({"ps(c)": EMPTY_TYPE})})
        assert check_well_typed(lifted).is_empty
        assert is_isomorphic(evaluate(lifted), n.graph)

    def test_plan_below_lca_rejected(self, sparkle_glow, heuristics):
        n = normalized(sparkle_glow, heuristics)
        c = canonical_tree(unroll(n), n)
        with pytest.raises(ValueError):
            build_plan(c, {"f": "s"})  # below the lowest common ancestor

    def test_violating_plan_rejected_before_mutation(self, heuristics):
        # lifting a modifier node above its head puts a modify edge at the
        # bottom of its resolution path
        g = SemanticGraph({"a": "A", "b": "B", "c": "C"},
                          [("a", "b", "ARG0"), ("c", "b", "mod-of")], "a")
        n = normalized(g, heuristics)
        c_tree = canonical_tree(unroll(n), n)
        plan = build_plan(c_tree, {"c": "a"})
        report = check_resolvable(c_tree, plan, n)
        assert not report.decomposable
        assert any(v.condition == 1 for v in report.violations)


def nondecomposable_witness():
    """Two arguments of r are each referenced from a two-node island, with no
    directed path between the reference targets: every unrolling leaves a
    reference whose path crosses an unsupported modify edge."""
    return SemanticGraph(
        {"r": "R", "a": "A", "b": "B", "c": "C", "d": "D"},
        [("r", "a", "ARG0"), ("r", "b", "ARG1"),
         ("c", "a", "ARG0"), ("c", "d", "ARG1"), ("d", "b", "ARG0")], "r")


class TestDecompose:
    def test_figure_goldens(self, tiny_fairy, sparkle_glow, relative_clause,
                            heuristics, figure_goldens):
        for name, g in [("tiny-fairy-glows", tiny_fairy),
                        ("fairy-sparkles-and-glows", sparkle_glow),
                        ("fairy-that-begins-to-glow", relative_clause)]:
            d = decompose(g, heuristics)
            assert isinstance(d, Decomposition), name
            assert tree_shape(d.tree.to_json()) == tree_shape(figure_goldens[name])
            assert is_isomorphic(evaluate(d.tree), d.normalized.graph)

    def test_lemma1_no_reentrancy_gives_canonical_tree(self, heuristics):
        cfg = GeneratorConfig(max_nodes=8, reentrancy_prob=0.0)
        for seed in range(25):
            g = evaluate(gen_random_tree(cfg, seed=seed + 40))
            n = normalized(g, heuristics)
            d = decompose(g, heuristics)
            assert isinstance(d, Decomposition)
            # no complex requests anywhere
            for nid in d.tree.nodes:
                for _name, req in d.tree.constant(nid).typ.entries:
                    assert req.is_empty
            assert d.tree == canonical_tree(unroll(n), n)

    def test_round_trip_sample(self, heuristics):
        cfg = GeneratorConfig()
        for seed in range(150):
            g = evaluate(gen_random_tree(cfg, seed=seed + 2000))
            d = decompose(g, heuristics)
            assert isinstance(d, Decomposition)
            assert is_isomorphic(evaluate(d.tree), d.normalized.graph)

    def test_round_trip_under_many_tie_breaks(self, heuristics):
        cfg = GeneratorConfig(max_nodes=10)
        for seed in range(25):
            g = evaluate(gen_random_tree(cfg, seed=seed + 3000))
            for k in range(5):
                d = decompose(g, heuristics, tie_break=f"seeded:{k}")
                assert isinstance(d, Decomposition)
                assert is_isomorphic(evaluate(d.tree), d.normalized.graph)

    def test_witness_not_decomposable(self, heuristics):
        d = decompose(nondecomposable_witness(), heuristics)
        assert isinstance(d, NonDecomposable)
        assert d.report is not None
        assert any(v.condition == 2 for v in d.report.violations)

    def test_witness_exhaustive_negative(self, heuristics):
        # brute force over unrolling entries, modify swaps and lifted targets
        trees = enumerate_candidate_trees(
            nondecomposable_witness(), heuristics,
            with_swaps=True, with_lifts=True, include_invalid_entries=True)
        assert trees == []

    def test_directed_cycle_rejected(self, heuristics):
        g = SemanticGraph({"a": "A", "b": "B"},
                          [("a", "b", "ARG0"), ("b", "a", "ARG1")], "a")
        d = decompose(g, heuristics)
        assert isinstance(d, NonDecomposable)
        assert "cycle" in d.reason

    def test_self_loop_rejected(self, heuristics):
        g = SemanticGraph({"a": "A", "b": "B"},
                          [("a", "a", "ARG0"), ("a", "b", "ARG1")], "a")
        d = decompose(g, heuristics)
        assert isinstance(d, NonDecomposable)


class TestCompletenessHarness:
    def test_swap_that_does_not_type_is_skipped(self, heuristics):
        # k modifies m twice (ARG0 and ARG1), so one of k's slots for m holds
        # a reference leaf and m's subtree does not type before resolution:
        # swapping the one modify pair raises NotWellTyped, and that variant
        # is skipped as an invalid pair is
        g = SemanticGraph({"n": "N", "m": "M", "k": "K"},
                          [("m", "n", "ARG0"), ("k", "m", "ARG0"), ("k", "m", "ARG1")], "n")
        n = normalized(g, heuristics)
        c = canonical_tree(unroll(n), n)
        (pair,) = consecutive_mod_pairs(c)
        with pytest.raises(NotWellTyped):
            modify_swap(c, [pair])
        plain = enumerate_candidate_trees(g, heuristics, with_swaps=False)
        assert len(plain) == 1
        assert enumerate_candidate_trees(g, heuristics) == plain

    def test_relative_clause_both_analyses_found(self, relative_clause, heuristics,
                                                 figure_goldens):
        trees = enumerate_candidate_trees(relative_clause, heuristics,
                                          with_swaps=True, with_lifts=False)
        assert len(trees) >= 2
        golden = tuple(tree_shape(figure_goldens["fairy-that-begins-to-glow"])[0])
        assert golden in {tuple(tree_shape(t.to_json())[0]) for t in trees}
        # the all-modifier chain alternative as well
        assert any(sum(1 for e in t.edges if e.op == "MOD") == 2 for t in trees)

    def test_all_candidates_verify(self, sparkle_glow, heuristics):
        n = normalized(sparkle_glow, heuristics)
        for t in enumerate_candidate_trees(sparkle_glow, heuristics,
                                           with_swaps=True, with_lifts=True):
            assert check_well_typed(t).is_empty
            assert is_isomorphic(evaluate(t), n.graph)


class TestDebugMode:
    def test_intermediate_steps_stay_well_typed(self, heuristics):
        cfg = GeneratorConfig(max_nodes=10)
        for seed in range(20):
            g = evaluate(gen_random_tree(cfg, seed=seed + 4500))
            n = normalized(g, heuristics)
            c = canonical_tree(unroll(n), n)
            plan = default_plan(c)
            if check_resolvable(c, plan, n).decomposable:
                t = resolve(c, plan, debug=True)
                assert check_well_typed(t).is_empty


    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs())
    def test_lifted_plans_chain_down_and_match_the_oracle(self, g, heuristics):
        """Every plan of the lifted plan space: each path runs from the
        target down to its position, and the plain resolution agrees with
        the oracle that re-types after every step."""
        n = normalized(g, heuristics)
        assume(n.graph.is_acyclic())
        u = unroll(n)
        c = canonical_tree(u, n)
        for targets in _lifts(_chain_table(c)):
            plan = build_plan(c, targets)
            for y, rt in targets.items():
                positions = sorted([y] + [r for r, t in u.refs.items() if t == y])
                for path, p in zip(plan.paths[y], positions, strict=True):
                    chain = [rt] + [e.child for e in path]
                    assert [e.parent for e in path] == chain[:-1] and chain[-1] == p
            if check_resolvable(c, plan, n).decomposable:
                fast, oracle = resolved(c, plan, False), resolved(c, plan, True)
                if fast != oracle:
                    # the oracle may reject a step early; the plain result
                    # must then fail too, at the latest when evaluated
                    assert "ill-typed after step" in oracle
                    assert isinstance(fast, str) or not verifies(fast, n)


def resolved(tree, plan, debug):
    """The resolved tree, or the text of the ResolutionFailed it raises."""
    try:
        return resolve(tree, plan, debug=debug)
    except ResolutionFailed as exc:
        return str(exc)


def verifies(tree, n):
    try:
        return is_isomorphic(evaluate(tree), n.graph)
    except AmdepError:
        return False


class TestHeavyReentrancy:
    def test_round_trip_under_dense_sharing(self, heuristics):
        cfg = GeneratorConfig(max_nodes=12, reentrancy_prob=0.85, mod_prob=0.5)
        for seed in range(60):
            g = evaluate(gen_random_tree(cfg, seed=seed + 90_000))
            d = decompose(g, heuristics)
            assert isinstance(d, Decomposition), seed
            assert is_isomorphic(evaluate(d.tree), d.normalized.graph)
