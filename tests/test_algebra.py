import json
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from amdep.algebra import (
    AMDepTree,
    AMType,
    DepEdge,
    EMPTY_TYPE,
    SGraph,
    admissible_orders,
    apply,
    canonical_constant_form,
    check_well_typed,
    constant,
    constant_from_canonical,
    evaluate,
    evaluate_with_orders,
    modify,
    skeleton_form,
    term_type,
    type_unify,
)
from amdep.errors import (
    AmdepError,
    MissingSource,
    ModAddsSources,
    NonEmptyModRequest,
    NonEmptyRootType,
    NotWellTyped,
    RequestClash,
    RequestMismatch,
    TypeDepthExceeded,
)
from amdep.generate import GeneratorConfig, gen_random_tree
from amdep.graph import SemanticGraph, is_isomorphic

from conftest import MOD_ATTACH_GRAPH, small_graphs, two_error_tree

T = AMType
# reusable and placeholder names a constant's names may be renamed to
RENAMING_POOL = ["s1", "s2", "s3", "s4", "s5", "ps(a)", "ps(b)", "ps(n7)", "x"]


def typ(spec):
    """Shorthand: {"s": {}} nested dicts."""
    return AMType.from_json(spec)


class TestAMType:
    def test_structural_equality_and_order_independence(self):
        assert typ({"a": {}, "b": {"c": {}}}) == typ({"b": {"c": {}}, "a": {}})
        assert typ({"a": {}}) != typ({"a": {"b": {}}})

    def test_depth_cap(self):
        spec = {}
        for _ in range(11):
            spec = {"s": spec}
        with pytest.raises(TypeDepthExceeded):
            typ(spec)

    def test_str(self):
        assert str(EMPTY_TYPE) == "[]"
        assert str(typ({"s": {"f": {}}, "f": {}})) == "[f, s[f]]"

    def test_json_round_trip(self):
        t = typ({"s": {"f": {}}, "g": {}})
        assert AMType.from_json(t.to_json()) == t


class TestTypeUnify:
    def test_coordination_partial_result(self):
        # merging [s[f]] with [f] keeps both, one shared open slot
        assert type_unify(typ({"s": {"f": {}}}), typ({"f": {}})) == typ({"s": {"f": {}}, "f": {}})

    def test_empty_identity(self):
        t = typ({"a": {"b": {}}})
        assert type_unify(EMPTY_TYPE, t) == t
        assert type_unify(t, EMPTY_TYPE) == t

    def test_clash(self):
        with pytest.raises(RequestClash):
            type_unify(typ({"f": {"s": {}}}), typ({"f": {}}))

    @staticmethod
    def small_types():
        leaf = st.just(EMPTY_TYPE)
        names = st.sampled_from(["a", "b", "c"])

        def build(children):
            return st.dictionaries(names, children, max_size=2).map(AMType)

        return st.recursive(leaf, build, max_leaves=4)

    @given(small_types.__func__(), small_types.__func__(), small_types.__func__())
    @settings(max_examples=150, deadline=None)
    def test_commutative_associative(self, a, b, c):
        try:
            ab = type_unify(a, b)
        except RequestClash:
            with pytest.raises(RequestClash):
                type_unify(b, a)
            return
        assert ab == type_unify(b, a)
        try:
            bc = type_unify(b, c)
            left = type_unify(ab, c)
        except RequestClash:
            return
        assert left == type_unify(a, bc)


@pytest.fixture
def begin_glow():
    # control verb: begin [s, o[s]] applied at o to glow [s]
    begin = constant("begin", "b", [("ARG0", "s"), ("ARG1", "o")],
                     typ({"s": {}, "o": {"s": {}}}))
    glow = constant("glow", "g", [("ARG0", "s")])
    return begin, glow


class TestApplyModify:
    def test_apply_creates_reentrancy(self, begin_glow):
        begin, glow = begin_glow
        result = apply(begin, glow, "o")
        assert result.typ == typ({"s": {}})
        assert result.root == begin.root
        # both subject slots merged into one node
        assert len(result.sources) == 1
        s_node = result.sources["s"]
        incoming = [e for e in result.graph.edges if e.tgt == s_node]
        assert len(incoming) == 2

    def test_apply_leaf_argument(self):
        head = constant("want", "w", [("ARG0", "x")])
        leaf = constant("cat", "c")
        result = apply(head, leaf, "x")
        assert result.typ == EMPTY_TYPE
        assert result.graph.label(result.sources.get("x", head.sources["x"])) == "cat"

    def test_apply_request_mismatch(self, begin_glow):
        begin, _glow = begin_glow
        fairy = constant("fairy", "f")
        with pytest.raises(RequestMismatch):
            apply(begin, fairy, "o")

    def test_apply_missing_source(self, begin_glow):
        begin, glow = begin_glow
        with pytest.raises(MissingSource):
            apply(begin, glow, "zz")

    def test_apply_removes_slot_from_type(self, begin_glow):
        begin, glow = begin_glow
        result = apply(begin, glow, "o")
        assert "o" not in result.typ

    def test_modify_attaches_at_root(self):
        fairy = constant("fairy", "f")
        tiny = constant("tiny", "t", [("mod-of", "m")])
        result = modify(fairy, tiny, "m")
        assert result.typ == EMPTY_TYPE
        assert result.root == "f"
        labels = {result.graph.label(e.src) for e in result.graph.edges
                  if e.label == "mod-of"}
        assert labels == {"tiny"}

    def test_modify_shares_sources(self):
        # modifier keeps an open slot shared with the head (begin' of the
        # relative-clause alternative)
        glow = constant("glow", "g", [("ARG0", "f")])
        beginp = constant("begin", "b", [("ARG0", "f"), ("ARG1", "m")],
                          typ({"f": {}, "m": {}}))
        result = modify(glow, beginp, "m")
        assert result.typ == typ({"f": {}})
        assert result.root == "g"
        # the two f slots merged
        f_node = result.sources["f"]
        assert len([e for e in result.graph.edges if e.tgt == f_node]) == 2

    def test_modify_cannot_add_sources(self):
        head = constant("fairy", "f")
        mod = constant("big", "m", [("mod-of", "m0"), ("ARG0", "x")],
                       typ({"m0": {}, "x": {}}))
        with pytest.raises(ModAddsSources):
            modify(head, mod, "m0")

    def test_modify_nonempty_request(self):
        head = constant("fairy", "f")
        mod = constant("odd", "m", [("mod-of", "m0")], typ({"m0": {"x": {}}}))
        with pytest.raises(NonEmptyModRequest):
            modify(head, mod, "m0")

    def test_modify_request_clash(self):
        # red's leftover source x requests [y], the head's x requests []
        head = constant("see", "h", [("ARG0", "x")])
        red = constant("red", "r", [("mod", "m"), ("ARG1", "x")],
                       typ({"m": {}, "x": {"y": {}}}))
        with pytest.raises(RequestClash) as exc:
            modify(head, red, "m")
        assert str(exc.value) == "source 'x' carries conflicting requests: [] vs [y]"


def coordination_tree():
    """Resolved tree for the coordination figure, with reusable names."""
    and_c = constant("and", "a", [("op1", "s"), ("op2", "g")],
                     typ({"s": {"f": {}}, "g": {"f": {}}}))
    sparkle = constant("sparkle", "s", [("ARG0", "f")])
    glow = constant("glow", "g", [("ARG0", "f")])
    fairy = constant("fairy", "f")
    return AMDepTree(
        {"a": and_c, "s": sparkle, "g": glow, "f": fairy}, "a",
        [("a", "s", "APP", "s"), ("a", "g", "APP", "g"), ("a", "f", "APP", "f")])


class TestEvaluate:
    def test_coordination_yields_one_fairy(self):
        g = evaluate(coordination_tree())
        fairies = [n for n, lbl in g.nodes.items() if lbl == "fairy"]
        assert len(fairies) == 1
        assert len([e for e in g.edges if e.tgt == fairies[0]]) == 2
        expected = evaluate(coordination_tree())
        assert is_isomorphic(g, expected)

    def test_single_constant(self):
        t = AMDepTree({"x": constant("cat", "x")}, "x", [])
        g = evaluate(t)
        assert list(g.nodes.values()) == ["cat"]

    def test_unfilled_source_rejected(self):
        t = AMDepTree({"x": constant("want", "x", [("ARG0", "s")])}, "x", [])
        with pytest.raises(NonEmptyRootType):
            evaluate(t)
        assert check_well_typed(t) == typ({"s": {}})

    def test_order_invariance_by_exhaustion(self):
        # f can only be applied after a coordinate opened the shared slot
        tree = coordination_tree()
        types = {n: term_type(tree, n) for n in tree.nodes}
        orders = admissible_orders(tree, "a", types)
        assert len(orders) >= 2
        first_sources = {o[0].source for o in orders}
        assert "f" not in first_sources
        results = [evaluate_with_orders(tree, {"a": o}).graph for o in orders]
        for r in results[1:]:
            assert is_isomorphic(results[0], r)

    def test_fill_blocked_while_sibling_keeps_slot_open(self):
        # begin [s[f], f] with children seem-chain (type [f]) and fairy:
        # fairy must wait for the chain or the reentrancy is lost
        begin = constant("begin", "b", [("ARG0", "f"), ("ARG1", "s")],
                         typ({"f": {}, "s": {"f": {}}}))
        seem = constant("seem", "m", [("ARG1", "f")])
        fairy = constant("fairy", "f")
        tree = AMDepTree({"b": begin, "m": seem, "f": fairy}, "b",
                         [("b", "m", "APP", "s"), ("b", "f", "APP", "f")])
        assert check_well_typed(tree) == EMPTY_TYPE
        g = evaluate(tree)
        assert len([n for n, lbl in g.nodes.items() if lbl == "fairy"]) == 1

    def test_not_well_typed_reports_node(self):
        head = constant("want", "w", [("ARG0", "s")], typ({"s": {"x": {}}}))
        leaf = constant("cat", "c")
        tree = AMDepTree({"w": head, "c": leaf}, "w", [("w", "c", "APP", "s")])
        with pytest.raises(NotWellTyped) as exc:
            evaluate(tree)
        assert exc.value.node == "w"

    def test_typing_error_before_evaluation_error(self):
        # evaluating without typing first would stop at the cat/dog clash at x
        with pytest.raises(NotWellTyped, match="no admissible child") as exc:
            evaluate(two_error_tree())
        assert exc.value.node == "h"
        with pytest.raises(NonEmptyRootType, match=r"\[y\]"):
            evaluate(two_error_tree(open_root=True))

    def test_modifier_slot_with_a_request_is_not_admissible(self):
        odd = constant("odd", "o", [("mod", "m0")], typ({"m0": {"x": {}}}))
        tree = AMDepTree({"f": constant("fairy", "f"), "o": odd}, "f",
                         [("f", "o", "MOD", "m0")])
        with pytest.raises(NotWellTyped) as exc:
            check_well_typed(tree)
        assert str(exc.value) == ("at node 'f': no admissible child; "
                                  "MOD_m0->o: modifier slot 'm0' has non-empty request")


class TestTermType:
    def test_leaf(self):
        t = coordination_tree()
        assert term_type(t, "f") == EMPTY_TYPE

    def test_open_subtree(self):
        t = coordination_tree()
        assert term_type(t, "g") == typ({"f": {}})

    def test_root(self):
        assert term_type(coordination_tree(), "a") == EMPTY_TYPE


class TestTreeJSON:
    def test_round_trip(self):
        t = coordination_tree()
        t2 = AMDepTree.from_json(json.loads(json.dumps(t.to_json())))
        assert t2 == t
        assert is_isomorphic(evaluate(t2), evaluate(t))

    def test_validation(self):
        with pytest.raises(ValueError):
            AMDepTree({"a": constant("x", "a")}, "a",
                      [("a", "a", "APP", "s")])  # self loop
        c = constant("x", "a", [("ARG0", "p"), ("ARG1", "q")], typ({"p": {}, "q": {}}))
        leaf1, leaf2 = constant("y", "b"), constant("z", "c")
        with pytest.raises(ValueError, match="two APP children"):
            AMDepTree({"a": c, "b": leaf1, "c": leaf2}, "a",
                      [("a", "b", "APP", "p"), ("a", "c", "APP", "p")])


class TestCanonicalForms:
    def test_id_independence(self):
        c1 = constant("glow", "g", [("ARG0", "f")])
        c2 = constant("glow", "zz9", [("ARG0", "f")])
        assert canonical_constant_form(c1) == canonical_constant_form(c2)

    def test_round_trip(self):
        c = constant("begin", "b", [("ARG0", "s"), ("ARG1", "o")],
                     typ({"s": {}, "o": {"s": {}}}))
        form = canonical_constant_form(c)
        c2 = constant_from_canonical(form)
        assert canonical_constant_form(c2) == form

    def test_skeleton_erases_names(self):
        a = constant("begin", "b", [("ARG0", "s1"), ("ARG1", "s2")],
                     typ({"s1": {}, "s2": {"s1": {}}}))
        b = constant("begin", "b", [("ARG0", "s3"), ("ARG1", "s1")],
                     typ({"s3": {}, "s1": {"s3": {}}}))
        assert canonical_constant_form(a) != canonical_constant_form(b)
        assert skeleton_form(a) == skeleton_form(b)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_skeleton_unchanged_by_injective_renaming(self, seed, data):
        tree = gen_random_tree(GeneratorConfig(max_nodes=6), seed=seed)
        for node in sorted(tree.nodes):
            c = tree.constant(node)
            names = sorted(c.typ.all_names())
            new = data.draw(st.lists(st.sampled_from(RENAMING_POOL), min_size=len(names),
                                     max_size=len(names), unique=True))
            renamed = c.rename_sources(dict(zip(names, new)))
            assert skeleton_form(renamed) == skeleton_form(c)

    def test_skeleton_distinguishes_structure(self):
        a = constant("begin", "b", [("ARG0", "x"), ("ARG1", "y")],
                     typ({"x": {}, "y": {"x": {}}}))
        b = constant("begin", "b", [("ARG0", "x"), ("ARG1", "y")],
                     typ({"x": {}, "y": {}}))
        assert skeleton_form(a) != skeleton_form(b)


def test_tree_file_round_trip(tmp_path):
    from amdep.algebra import read_trees, write_trees

    trees = [("c", coordination_tree())]
    path = tmp_path / "trees.json"
    write_trees(trees, path)
    [(tid, t2)] = read_trees(path)
    assert tid == "c" and t2 == coordination_tree()


def test_tree_pickle_round_trip():
    # worker processes receive and return trees by pickle; AMType, nested
    # requests included, and SemanticGraph must survive although they refuse
    # attribute writes
    import pickle

    tree = coordination_tree()
    assert pickle.loads(pickle.dumps(tree)) == tree
    t = typ({"x": {}, "y": {"x": {}}})
    assert pickle.loads(pickle.dumps(t)) == t and hash(pickle.loads(pickle.dumps(t))) == hash(t)
    g = tree.nodes[tree.root].graph
    g2 = pickle.loads(pickle.dumps(g))
    assert g2 == g and g2.out_edges(g2.root) == g.out_edges(g.root)
    for value in (t, g2):
        with pytest.raises(AttributeError, match="immutable"):
            value.root = "x"


def test_order_invariance_on_random_trees():
    from itertools import islice

    from amdep.generate import GeneratorConfig, gen_random_tree
    from amdep.algebra import admissible_orders, evaluate_with_orders, term_type

    cfg = GeneratorConfig(max_nodes=7, reentrancy_prob=0.6, mod_prob=0.5)
    checked = 0
    for seed in range(80):
        tree = gen_random_tree(cfg, seed=seed + 8800)
        if any(len(tree.children(n)) > 6 for n in tree.nodes):
            continue
        types = {n: term_type(tree, n) for n in tree.nodes}
        multi = [n for n in tree.nodes if len(tree.children(n)) >= 2]
        if not multi:
            continue
        node = multi[0]
        orders = admissible_orders(tree, node, types)
        if len(orders) < 2:
            continue
        results = [evaluate_with_orders(tree, {node: o}).graph
                   for o in islice(orders, 24)]
        for r in results[1:]:
            assert is_isomorphic(results[0], r)
        checked += 1
    assert checked >= 10


def test_order_invariance_on_renamed_trees():
    """Confluence on the trees an automaton accepts: decompose random
    graphs, build automata at 3 and 4 sources, and reconstruct enumerated
    runs and the Viterbi run. At every node with several children, every
    admissible order evaluates to the same graph, and there is one."""
    from itertools import islice

    from amdep.algebra import admissible_orders, evaluate_with_orders, term_type
    from amdep.automata import build_automaton, enumerate_runs, reconstruct_tree
    from amdep.decompose import Decomposition, decompose
    from amdep.generate import GeneratorConfig, gen_random_tree
    from amdep.training import viterbi

    cfg = GeneratorConfig(max_nodes=6, reentrancy_prob=0.6, mod_prob=0.5)
    graphs = [SemanticGraph.from_json(MOD_ATTACH_GRAPH)]
    graphs += [evaluate(gen_random_tree(cfg, seed=seed + 8800)) for seed in range(40)]
    checked = 0
    for g in graphs:
        d = decompose(g)
        if not isinstance(d, Decomposition):
            continue
        for sources in (("s1", "s2", "s3"), ("s1", "s2", "s3", "s4")):
            a = build_automaton(d.tree, sources)
            if a.empty:
                continue
            for run in enumerate_runs(a, limit=6) + [viterbi(a)]:
                tree = reconstruct_tree(a, run)
                types = {n: term_type(tree, n) for n in tree.nodes}
                for node in tree.nodes:
                    if not 2 <= len(tree.children(node)) <= 6:
                        continue
                    orders = admissible_orders(tree, node, types)
                    assert orders, node
                    results = [evaluate_with_orders(tree, {node: o}).graph
                               for o in islice(orders, 24)]
                    for r in results[1:]:
                        assert is_isomorphic(results[0], r)
                    checked += len(orders) >= 2
    assert checked >= 200


def test_label_merge_rules():
    from amdep.errors import LabelClash
    from amdep.graph import SemanticGraph

    # merging a labeled argument into an unlabeled slot keeps the label
    head = constant("want", "w", [("ARG0", "x")])
    cat = constant("cat", "c")
    merged = apply(head, cat, "x")
    assert "cat" in merged.graph.nodes.values()

    # a labeled slot must agree with the argument's label
    g = SemanticGraph({"w": "want", "slot": "dog"}, [("w", "slot", "ARG0")], "w")
    labeled_slot = SGraph(g, "w", {"x": "slot"}, typ({"x": {}}))
    with pytest.raises(LabelClash):
        apply(labeled_slot, cat, "x")
    same = SGraph(g, "w", {"x": "slot"}, typ({"x": {}}))
    dog = constant("dog", "d")
    assert "dog" in apply(same, dog, "x").graph.nodes.values()


def _relabeled(c: SGraph, node, label):
    nodes = dict(c.graph.nodes)
    nodes[node] = label
    return SGraph(SemanticGraph(nodes, c.graph.edges, c.root), c.root, dict(c.sources), c.typ)


MUTATED_CFG = GeneratorConfig(max_nodes=6, reentrancy_prob=0.6, mod_prob=0.5)


@st.composite
def mutated_trees(draw):
    """A generated tree with a few op flips, source swaps, dropped leaves,
    relabelled roots or slots and changed requests; mostly ill-typed, open
    or clashing."""
    return _mutated(draw, gen_random_tree(MUTATED_CFG, draw(st.integers(0, 100_000))))


@st.composite
def mutated_trees_and_graphs(draw):
    """A tree of mutated_trees with the graph of the tree it was mutated
    from."""
    tree = gen_random_tree(MUTATED_CFG, draw(st.integers(0, 100_000)))
    return _mutated(draw, tree), evaluate(tree)


def _mutated(draw, tree):
    cfg = MUTATED_CFG
    nodes, edges = dict(tree.nodes), list(tree.edges)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["op", "source", "drop", "label", "slot", "request"]))
        if kind == "drop":
            leaves = [e for e in edges if all(f.parent != e.child for f in edges)]
            if leaves:
                e = draw(st.sampled_from(leaves))
                edges.remove(e)
                del nodes[e.child]
            continue
        if kind in ("op", "source") and edges:
            i = draw(st.integers(0, len(edges) - 1))
            e = edges[i]
            if kind == "op":
                edges[i] = DepEdge(e.parent, e.child, "MOD" if e.op == "APP" else "APP", e.source)
            else:
                edges[i] = DepEdge(e.parent, e.child, e.op, draw(st.sampled_from(cfg.sources)))
            continue
        n = draw(st.sampled_from(sorted(nodes)))
        c = nodes[n]
        if kind == "label":
            nodes[n] = _relabeled(c, c.root, draw(st.sampled_from(["cat", "dog", "want"])))
        elif kind == "slot" and c.sources:
            slot = draw(st.sampled_from(sorted(c.sources.values())))
            nodes[n] = _relabeled(c, slot, draw(st.sampled_from(["cat", "dog"])))
        elif kind == "request" and c.sources:
            name = draw(st.sampled_from(sorted(c.sources)))
            req = draw(st.sampled_from([EMPTY_TYPE, typ({"s1": {}}), typ({"s2": {"s3": {}}})]))
            nodes[n] = c.with_type(c.typ.updated(name, req))
    try:
        return AMDepTree(nodes, tree.root, edges)
    except ValueError:
        assume(False)


def _typed_then_evaluated(tree):
    """The round trip composed by hand: type, check the root, evaluate in
    the greedy order, check labels."""
    root_type = check_well_typed(tree)
    if not root_type.is_empty:
        raise NonEmptyRootType(root_type)
    result = evaluate_with_orders(tree, {})
    for n, lbl in result.graph.nodes.items():
        if lbl is None:
            raise NotWellTyped(None, f"evaluation leaves node {n!r} unlabeled")
    return result.graph


def _outcome(f, tree):
    try:
        return f(tree)
    except AmdepError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(mutated_trees())
def test_evaluate_matches_typed_then_evaluated(tree):
    assert _outcome(evaluate, tree) == _outcome(_typed_then_evaluated, tree)


def _oracle_values(tree, node):
    """Every s-graph the subtree at node evaluates to when each node
    consumes its children in some order, by the public apply and modify
    alone: no typing rule is consulted."""
    from itertools import permutations, product

    kids = tree.children(node)
    found = {}
    for child_values in product(*(_oracle_values(tree, e.child) for e in kids)):
        for order in permutations(range(len(kids))):
            value = tree.constant(node)
            try:
                for i in order:
                    step = apply if kids[i].op == "APP" else modify
                    value = step(value, child_values[i], kids[i].source)
            except AmdepError:
                continue
            found.setdefault(json.dumps(value.to_json(), sort_keys=True), value)
    return list(found.values())


def oracle_accepts(tree, graph):
    """A tree is good when some child order at each node evaluates, leaves
    the root with no open sources and gives a graph isomorphic to graph."""
    from amdep.graph import is_isomorphic_mod_of

    return any(v.typ.is_empty and is_isomorphic_mod_of(v.graph, graph)
               for v in _oracle_values(tree, tree.root))


def _control_tree():
    """begin -APP_o-> glow and begin -APP_s-> fairy, where begin's o
    requests s: only the order o, s fills begin's s slot through glow's."""
    begin = constant("begin", "b", [("ARG0", "s"), ("ARG1", "o")], typ({"s": {}, "o": {"s": {}}}))
    glow = constant("glow", "g", [("ARG0", "s")])
    fairy = constant("fairy", "f")
    return AMDepTree({"b": begin, "g": glow, "f": fairy}, "b",
                     [DepEdge("b", "g", "APP", "o"), DepEdge("b", "f", "APP", "s")])


def test_oracle_on_hand_built_trees():
    g = SemanticGraph({"b": "begin", "g": "glow", "f": "fairy"},
                      [("b", "f", "ARG0"), ("b", "g", "ARG1"), ("g", "f", "ARG0")], "b")
    assert oracle_accepts(_control_tree(), g)
    # an open root, a label clash, and a graph it does not evaluate to
    assert not oracle_accepts(two_error_tree(True), g)
    assert not oracle_accepts(two_error_tree(False), g)
    other = SemanticGraph({"b": "begin", "g": "glow", "f": "elf"},
                          [("b", "f", "ARG0"), ("b", "g", "ARG1"), ("g", "f", "ARG0")], "b")
    assert not oracle_accepts(_control_tree(), other)


def _assert_verdicts_agree(tree, graph):
    from amdep.cli import verify_tree

    if all(len(tree.children(n)) <= 4 for n in tree.nodes):  # else too many orders
        assert (verify_tree(tree, graph) is None) == oracle_accepts(tree, graph)


@settings(max_examples=200, deadline=None)
@given(mutated_trees_and_graphs())
def test_verify_agrees_with_oracle_on_mutated_trees(tree_and_graph):
    _assert_verdicts_agree(*tree_and_graph)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_verify_agrees_with_oracle_on_enumerated_runs(g):
    """Every enumerated run of a small graph's automaton at 3 and 4 sources
    is accepted by verify exactly when the oracle accepts it."""
    assume(_runs_agree(g, limit=20))


def _runs_agree(g, limit):
    """Whether g decomposes; if it does, every run checked agrees."""
    from amdep.automata import build_automaton, enumerate_runs, reconstruct_tree
    from amdep.decompose import Decomposition, decompose

    d = decompose(g)
    if not isinstance(d, Decomposition):
        return False
    for sources in (("s1", "s2", "s3"), ("s1", "s2", "s3", "s4")):
        a = build_automaton(d.tree, sources)
        for run in enumerate_runs(a, limit=limit):
            _assert_verdicts_agree(reconstruct_tree(a, run), g)
    return True


def test_verify_agrees_with_oracle_on_mod_attach_graph():
    # some runs rename a modifier's attach slot and an APP source of the
    # same head to one name
    assert _runs_agree(SemanticGraph.from_json(MOD_ATTACH_GRAPH), limit=None)


def test_colliding_node_ids_renamed_in_merge_order():
    # every constant names its root x: each merged-in node keeps its id or
    # takes the first free x~k, checked in the order the host meets it
    see = constant("see", "x", [("ARG0", "s")])
    tree = AMDepTree(
        {"a": see, "b": constant("boy", "x"), "c": constant("tiny", "x", [("mod", "m")]),
         "d": constant("old", "x", [("mod", "m")]), "e": constant("red", "x", [("mod", "m")])},
        "a", [("a", "b", "APP", "s"), ("b", "c", "MOD", "m"), ("a", "d", "MOD", "m"),
              ("d", "e", "MOD", "m")])
    g = evaluate(tree)
    assert list(g.nodes.items()) == [("x", "see"), ("x@s", "boy"), ("x~1", "tiny"),
                                     ("x~2", "old"), ("x~1~1", "red")]
    assert [(e.src, e.label, e.tgt) for e in g.edges] == [
        ("x", "ARG0", "x@s"), ("x~1", "mod", "x@s"), ("x~1~1", "mod", "x~2"),
        ("x~2", "mod", "x")]
    assert evaluate_with_orders(tree, {}).graph == g


def test_evaluation_errors_name_their_node():
    # a label clash names the tree node, the host's label and then the
    # guest's; a node left unlabeled is named by its id in the result
    g = SemanticGraph({"h": "see", "h@x": "dog"}, [("h", "h@x", "ARG0")], "h")
    head = SGraph(g, "h", {"x": "h@x"}, typ({"x": {}}))
    clash = AMDepTree({"h": head, "c": constant("cat", "c")}, "h", [("h", "c", "APP", "x")])
    with pytest.raises(NotWellTyped) as exc:
        evaluate(clash)
    assert str(exc.value) == "at node 'h': cannot merge nodes labeled 'dog' and 'cat'"
    dangling = SemanticGraph({"t": "tiny", "t@m": None, "t.d": None},
                             [("t", "t@m", "mod"), ("t", "t.d", "ARG9")], "t")
    tiny = SGraph(dangling, "t", {"m": "t@m"}, typ({"m": {}}))
    tree = AMDepTree({"b": constant("boy", "b"), "t": tiny}, "b", [("b", "t", "MOD", "m")])
    with pytest.raises(NotWellTyped) as exc:
        evaluate(tree)
    assert str(exc.value) == "at node None: evaluation leaves node 't.d' unlabeled"


def test_explicit_order_clash_names_its_node():
    # in the reverse order the APP at x comes second, and cat's type [z[w]]
    # clashes with the head's own z: the explicit order names h, as the
    # greedy order names the node it is stuck at
    head = constant("see", "h", [("ARG0", "x"), ("ARG1", "y"), ("ARG2", "z")])
    cat = constant("cat", "c", [("ARG0", "z")], typ({"z": {"w": {}}}))
    tree = AMDepTree({"h": head, "c": cat, "b": constant("boy", "b")}, "h",
                     [("h", "c", "APP", "x"), ("h", "b", "APP", "y")])
    with pytest.raises(NotWellTyped) as exc:
        evaluate_with_orders(tree, {"h": tree.children("h")[::-1]})
    assert exc.value.node == "h" and isinstance(exc.value.__cause__, RequestClash)


@st.composite
def dep_edge_lists(draw):
    """1-6 node ids, a root and a DepEdge list: a random tree over the ids
    with a few edges dropped and a few random ones added, so that trees and
    non-trees of every kind are drawn. "z" is never a node and "BAD" never
    an op."""
    ids = "abcdef"[:draw(st.integers(1, 6))]
    pool = st.sampled_from(ids + "z")
    op = st.sampled_from(["APP", "MOD"] * 4 + ["BAD"])
    source = st.sampled_from(["s1", "s2", "s3"])
    edges = [DepEdge(ids[draw(st.integers(0, i - 1))], ids[i], draw(op), draw(source))
             for i in range(1, len(ids))]
    for _ in range(min(len(edges), draw(st.integers(0, 2)))):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    edges += draw(st.lists(st.builds(DepEdge, pool, pool, op, source), max_size=2))
    root = draw(st.sampled_from(ids[0] + ids + "z"))
    return ids, root, draw(st.permutations(edges))


def _is_tree(ids, root, edges):
    """Brute force: whether edges form a tree over ids rooted at root."""
    if root not in ids or any(e.parent not in ids or e.child not in ids
                              or e.op not in ("APP", "MOD") for e in edges):
        return False
    children = [e.child for e in edges]
    if len(set(children)) != len(children) or root in children:
        return False
    app_slots = [(e.parent, e.source) for e in edges if e.op == "APP"]
    if len(set(app_slots)) != len(app_slots):
        return False
    reached = {root}
    for _ in ids:
        reached |= {e.child for e in edges if e.parent in reached}
    return reached == set(ids)


@settings(max_examples=400, deadline=None)
@given(dep_edge_lists())
def test_tree_validation_matches_brute_force(case):
    ids, root, edges = case
    nodes = {n: constant("x", n) for n in ids}
    if _is_tree(ids, root, edges):
        assert AMDepTree(nodes, root, edges).edges == edges
    else:
        with pytest.raises(ValueError):
            AMDepTree(nodes, root, edges)


def reference_skeleton_form(c):
    """The skeleton as first written: the canonical form of each renaming of
    c's names onto positional names, minimized."""
    names = sorted(c.typ.all_names() | set(c.sources))
    if not names:
        return canonical_constant_form(c)
    slots = [f"_{i}" for i in range(len(names))]
    return min(canonical_constant_form(c.rename_sources(dict(zip(names, perm))))
               for perm in permutations(slots))


SKELETON_NAMES = ["ps(a)", "ps(b)", "ps(n7)", "s1", "s2"]


@st.composite
def skeleton_constants(draw):
    """A labeled root with up to three source slots named by placeholders or
    reusable names, requests nested up to depth 3, up to two anonymous
    nodes and a few edges among the non-root nodes."""
    names = draw(st.lists(st.sampled_from(SKELETON_NAMES), max_size=3, unique=True))

    def request(depth):
        keys = draw(st.lists(st.sampled_from(SKELETON_NAMES), max_size=2, unique=True))
        return {k: request(depth - 1) for k in keys} if depth else {}

    spec = {n: request(draw(st.integers(0, 2))) for n in names}
    nodes = {"r": draw(st.sampled_from(["see", "want"]))}
    sources = {}
    for i, name in enumerate(names):
        nodes[f"m{i}"] = None
        sources[name] = f"m{i}"
    for j in range(draw(st.integers(0, 2))):
        nodes[f"x{j}"] = draw(st.sampled_from([None, "tiny", "boy"]))
    others = sorted(nodes)[:-1]  # every node but "r"
    edges = [("r", n, draw(st.sampled_from(["ARG0", "ARG1", "mod-of"]))) for n in others]
    if len(others) > 1:
        edges += draw(st.lists(st.tuples(st.sampled_from(others), st.sampled_from(others),
                                         st.sampled_from(["op1", "ARG0"])), max_size=2))
    return SGraph(SemanticGraph(nodes, edges, "r"), "r", sources, AMType(spec))


@given(c=skeleton_constants())
@settings(max_examples=150, deadline=None)
def test_skeleton_form_matches_the_renamed_canonical_forms(c):
    assert skeleton_form(c) == reference_skeleton_form(c)


def payload_form(c):
    """The canonical form as first written, a payload dict rendered by
    json.dumps: an oracle that shares no code with the renderer."""
    others = [n for n in c.graph.nodes if n != c.root]
    src_of = {v: k for k, v in c.sources.items()}
    rename = {c.root: "r"}
    anon = 0
    for n in sorted(others, key=lambda n: (src_of.get(n, ""), str(c.graph.nodes[n]))):
        if n in src_of:
            rename[n] = f"s:{src_of[n]}"
        else:
            rename[n] = f"x{anon}"
            anon += 1
    g = c.graph.renamed(rename)
    payload = {
        "root": g.root,
        "nodes": {n: lbl for n, lbl in sorted(g.nodes.items())},
        "edges": [[e.src, e.label, e.tgt] for e in g.edges],
        "sources": {k: rename[v] for k, v in sorted(c.sources.items())},
        "type": c.typ.to_json(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# text that JSON escapes, or sorts apart from its escaped form
ODD_TEXT = st.text(st.sampled_from(list('ab"\\\t\n\x00\x1f\x7fé \U0001F600 ')), max_size=4)
ODD_NAMES = ["ps(a)", "ps(é)", 'ps(q")', "ps(\\)", "s1", "s\t2"]


@st.composite
def odd_text_constants(draw):
    """As skeleton_constants, with node and edge labels drawn from ODD_TEXT,
    slot and anonymous labels also None, and source names that need
    escaping."""
    names = draw(st.lists(st.sampled_from(ODD_NAMES), max_size=3, unique=True))

    def request(depth):
        keys = draw(st.lists(st.sampled_from(ODD_NAMES), max_size=2, unique=True))
        return {k: request(depth - 1) for k in keys} if depth else {}

    spec = {n: request(draw(st.integers(0, 2))) for n in names}
    maybe_text = st.one_of(st.none(), ODD_TEXT)
    nodes = {"r": draw(ODD_TEXT)}
    sources = {}
    for i, name in enumerate(names):
        nodes[f"m{i}"] = draw(maybe_text)
        sources[name] = f"m{i}"
    for j in range(draw(st.integers(0, 3))):
        nodes[f"x{j}"] = draw(maybe_text)
    others = sorted(nodes)[:-1]  # every node but "r"
    edges = [("r", n, draw(ODD_TEXT)) for n in others]
    if len(others) > 1:
        edges += draw(st.lists(st.tuples(st.sampled_from(others), st.sampled_from(others),
                                         ODD_TEXT), max_size=3))
    return SGraph(SemanticGraph(nodes, edges, "r"), "r", sources, AMType(spec))


@given(c=odd_text_constants())
@settings(max_examples=200, deadline=None)
def test_rendered_forms_match_the_json_dumps_payload(c):
    from amdep.algebra import _LeafLayout

    assert canonical_constant_form(c) == payload_form(c)
    ph = tuple(sorted(c.placeholders()))
    layout = _LeafLayout(c, ph)
    for combo in permutations(("s1", "s2", "s3"), len(ph)):
        names = dict(zip(ph, combo))
        try:
            want = payload_form(c.rename_sources(names))
        except (ValueError, TypeError):  # one level of the type would name a source twice
            assert layout.clashes(combo)
            continue
        assert not layout.clashes(combo)
        assert layout.label(names) == want
    names = sorted(c.typ.all_names() | set(c.sources))
    slots = [f"_{i}" for i in range(len(names))]
    assert skeleton_form(c) == min(payload_form(c.rename_sources(dict(zip(names, perm))))
                                   for perm in permutations(slots))


def test_parsed_constant_is_kept_and_equals_a_fresh_parse():
    c = constant('sé"e\\', "a", [("ARG0", "ps(b)"), ("AR\tG1", "s1")])
    form = canonical_constant_form(c)
    kept = constant_from_canonical(form)
    assert constant_from_canonical(form) is kept
    fresh = constant_from_canonical.__wrapped__(form)
    assert fresh is not kept and fresh == kept
    assert canonical_constant_form(kept) == form
