import logging
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from amdep.algebra import AMType, constant, AMDepTree
from amdep.automata import (build_automaton, count_trees, enumerate_runs, read_automaton,
                            write_automaton)
from amdep.decompose import Decomposition, decompose
from amdep.errors import EmptyAutomaton
from amdep.generate import GeneratorConfig, gen_random_tree
from amdep.graph import SemanticGraph
from amdep.training import (
    EventTable,
    JointConfig,
    Scorer,
    constant_entropy,
    discover_events,
    em_fit,
    event_group_key,
    inside,
    joint_fit,
    log_inside_gradient,
    outer_weights,
    random_tree_baseline,
    random_weights_baseline,
    reconstruct_best,
    rule_event_key,
    sample_run,
    score_rules,
    viterbi,
)
from amdep.algebra import evaluate

from conftest import small_graphs

S3 = ("s1", "s2", "s3")


def automaton_for(graph, heuristics, sources=S3):
    d = decompose(graph, heuristics)
    assert isinstance(d, Decomposition)
    a = build_automaton(d.tree, sources)
    a.graph_id = "t"
    return a


@pytest.fixture(scope="module")
def rel_automaton(heuristics):
    g = SemanticGraph({"f": "fairy", "b": "begin", "g": "glow"},
                      [("b", "f", "ARG0"), ("b", "g", "ARG1"), ("g", "f", "ARG0")], "f")
    return automaton_for(g, heuristics)


def run_weight(run, w):
    p = w[run.rule]
    for c in run.children:
        p *= run_weight(c, w)
    return p


def random_instances(heuristics, count, start=0, max_nodes=6, cap=2000):
    cfg = GeneratorConfig(max_nodes=max_nodes)
    out = []
    seed = start
    while len(out) < count:
        seed += 1
        g = evaluate(gen_random_tree(cfg, seed=seed))
        d = decompose(g, heuristics)
        a = build_automaton(d.tree, S3)
        a.graph_id = f"i{seed}"
        if a.empty or count_trees(a) > cap:
            continue
        out.append(a)
    return out


class TestInside:
    def test_unit_weights_count(self, rel_automaton):
        assert inside(rel_automaton).total == count_trees(rel_automaton) == 6

    def test_single_leaf_sum_law(self, heuristics):
        a = automaton_for(SemanticGraph({"x": "cat"}, [], "x"), heuristics)
        assert len(a.rules) == 1
        assert inside(a, {0: 0.7}).total == pytest.approx(0.7, abs=1e-15)

    def test_three_leaf_rules_sum(self, heuristics):
        # one placeholder, |S|=3: three leaf rules at the same address
        g = SemanticGraph({"a": "A", "b": "B"}, [("a", "b", "ARG0")], "a")
        d = decompose(g, heuristics)
        a = build_automaton(d.tree, S3)
        leaf_rids = [r.rid for r in a.rules if not r.children
                     and r.parent.address == "0"]
        assert len(leaf_rids) == 3
        w = {r.rid: 1.0 for r in a.rules}
        for rid, val in zip(leaf_rids, (0.2, 0.3, 0.5)):
            w[rid] = val
        assert inside(a, w).total == pytest.approx(1.0, rel=1e-12)

    def test_brute_force_oracle(self, heuristics):
        rng = random.Random(5)
        for a in random_instances(heuristics, 50, start=4000):
            w = {r.rid: rng.uniform(0.1, 1.0) for r in a.rules}
            total = inside(a, w).total
            bf = math.fsum(run_weight(run, w) for run in enumerate_runs(a))
            assert abs(total - bf) <= 1e-12 * max(bf, 1e-300)

    def test_empty_automaton(self, sparkle_glow, heuristics):
        d = decompose(sparkle_glow, heuristics)
        a = build_automaton(d.tree, ("s1", "s2"))
        assert inside(a).log_total == float("-inf")
        with pytest.raises(EmptyAutomaton):
            outer_weights(a)

    def test_rule_order_invariance(self, rel_automaton):
        import copy

        rng = random.Random(9)
        w = {r.rid: rng.uniform(0.1, 1.0) for r in rel_automaton.rules}
        base = outer_weights(rel_automaton, w)
        shuffled = copy.copy(rel_automaton)
        perm = list(rel_automaton.rules)
        rng.shuffle(perm)
        shuffled.rules = perm
        res = outer_weights(shuffled, w)
        assert res.log_total == pytest.approx(base.log_total, abs=1e-12)
        for r in rel_automaton.rules:
            assert res.alpha(r.rid) == pytest.approx(base.alpha(r.rid), rel=1e-12)


    def test_rule_order_invariance_through_the_constructor(self, rel_automaton, heuristics):
        # the records constructor numbers states and links from the records
        # it is given: permuting them renumbers the rules and must change no
        # log total, no outer weight and no Viterbi run, told apart by its text
        from amdep.automata import TreeAutomaton

        rng = random.Random(9)
        for a in [rel_automaton] + random_instances(heuristics, 8, start=16_000):
            perm = list(range(len(a.rules)))
            rng.shuffle(perm)
            b = TreeAutomaton(a.graph_id, a.sources,
                              [a.rules[i]._replace(rid=k) for k, i in enumerate(perm)],
                              a.finals, a.shape)
            wa = {r.rid: rng.uniform(0.1, 1.0) for r in a.rules}
            wb = {k: wa[i] for k, i in enumerate(perm)}
            base, res = outer_weights(a, wa), outer_weights(b, wb)
            assert res.log_total == pytest.approx(base.log_total, abs=1e-12)
            for k, i in enumerate(perm):
                assert res.alpha(k) == pytest.approx(base.alpha(i), rel=1e-9)
            assert [str(b.rules[k]) for k in viterbi(b, wb).rule_ids()] \
                == [str(a.rules[i]) for i in viterbi(a, wa).rule_ids()]

@given(g=small_graphs(), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_rule_order_invariance_on_permuted_file(heuristics, tmp_path_factory, g, seed):
    # the rule lines of an automaton file carry no ids: shuffling them
    # renumbers the rules and reorders the states, and must change no
    # outer weight and no Viterbi run of any rule, told apart by its text
    d = decompose(g, heuristics)
    if not isinstance(d, Decomposition):
        return
    a = build_automaton(d.tree, S3, graph_id="p")
    if a.empty:
        return
    rng = random.Random(seed)
    path = tmp_path_factory.mktemp("perm") / "a.auto"
    write_automaton(a, path)
    lines = path.read_text().splitlines()
    head = [line for line in lines if line.startswith(("#", "final:"))]
    perm = list(range(len(a.rules)))
    rng.shuffle(perm)
    body = lines[len(head):]
    path.write_text("\n".join(head + [body[i] for i in perm]) + "\n")
    b, _ = read_automaton(path)
    assert [str(r) for r in b.rules] == [str(a.rules[i]) for i in perm]
    wa = {r.rid: rng.uniform(0.1, 1.0) for r in a.rules}
    wb = {k: wa[i] for k, i in enumerate(perm)}
    base, res = outer_weights(a, wa), outer_weights(b, wb)
    assert res.log_total == pytest.approx(base.log_total, abs=1e-12)
    for k, i in enumerate(perm):
        assert res.alpha(k) == pytest.approx(base.alpha(i), rel=1e-9)
    assert [str(b.rules[k]) for k in viterbi(b, wb).rule_ids()] \
        == [str(a.rules[i]) for i in viterbi(a, wa).rule_ids()]


def test_queries_and_training_build_no_rule_records(heuristics, tmp_path):
    # counting, EM, joint training, writing and Viterbi read the index, on
    # built automata and on the same ones read back: Rule records are made
    # only when a.rules is read
    built = random_instances(heuristics, 3, start=15_000)
    for i, a in enumerate(built):
        write_automaton(a, tmp_path / f"{i}.auto")
    reread = [read_automaton(tmp_path / f"{i}.auto")[0] for i in range(len(built))]
    for automata in (built, reread):
        pairs = [(f"g{i}", a) for i, a in enumerate(automata)]
        table = em_fit(pairs, iterations=2)
        scorer = joint_fit(pairs, JointConfig(epochs=2, lr=0.1))
        for i, a in enumerate(automata):
            assert count_trees(a) > 0
            write_automaton(a, tmp_path / f"again{i}.auto", table.rule_weights(a))
            reconstruct_best(a, table)
            reconstruct_best(a, scorer)
            assert "rules" not in vars(a)


def test_em_skip_warning_names_the_first_empty_ids(heuristics, caplog):
    wide = SemanticGraph({"a": "give", "b": "cat", "c": "dog", "d": "bone"},
                         [("a", "b", "ARG0"), ("a", "c", "ARG1"), ("a", "d", "ARG2")], "a")
    empty = automaton_for(wide, heuristics, ("s1", "s2"))
    automata = [(f"e{i}", empty) for i in range(7)] + [("ok", automaton_for(wide, heuristics))]
    with caplog.at_level(logging.WARNING, logger="amdep.training"):
        em_fit(automata, iterations=1)
    assert "EM skipping 7 empty automata: e0, e1, e2, e3, e4 and 2 more" in [
        rec.getMessage() for rec in caplog.records]


class TestOuterWeights:
    def test_single_leaf_alpha_is_one(self, heuristics):
        g = SemanticGraph({"a": "A", "b": "B"}, [("a", "b", "ARG0")], "a")
        d = decompose(g, heuristics)
        a = build_automaton(d.tree, S3)
        leaf_rids = [r.rid for r in a.rules if not r.children
                     and r.parent.address == "0"]
        w = {r.rid: 1.0 for r in a.rules}
        w[leaf_rids[0]] = 0.3
        res = outer_weights(a, w)
        # alpha(r) = total weight of trees using r / c(r): each tree uses the
        # leaf rule once with the rest unit-weighted
        assert res.alpha(leaf_rids[0]) == pytest.approx(1.0, rel=1e-12)

    def test_enumeration_definition(self, heuristics):
        rng = random.Random(11)
        for a in random_instances(heuristics, 20, start=5000):
            w = {r.rid: rng.uniform(0.1, 1.0) for r in a.rules}
            res = outer_weights(a, w)
            runs = enumerate_runs(a)
            for r in a.rules:
                used = math.fsum(run_weight(run, w) for run in runs
                                 if r.rid in run.rule_ids())
                expect = used / w[r.rid]
                if expect > 0:
                    assert abs(res.alpha(r.rid) - expect) <= 1e-10 * expect

    def test_finite_differences(self, rel_automaton):
        rng = random.Random(13)
        w = {r.rid: rng.uniform(0.1, 1.0) for r in rel_automaton.rules}
        res = outer_weights(rel_automaton, w)
        for r in rel_automaton.rules:
            h = 1e-6 * w[r.rid]
            wp, wm = dict(w), dict(w)
            wp[r.rid] += h
            wm[r.rid] -= h
            fd = (inside(rel_automaton, wp).total - inside(rel_automaton, wm).total) / (2 * h)
            assert abs(res.alpha(r.rid) - fd) <= 1e-6 * max(abs(fd), 1e-12)

    def test_posterior_sums_to_one_per_address(self, rel_automaton):
        rng = random.Random(17)
        w = {r.rid: rng.uniform(0.1, 1.0) for r in rel_automaton.rules}
        res = outer_weights(rel_automaton, w)
        by_addr = {}
        for r in rel_automaton.rules:
            post = res.alpha(r.rid) * w[r.rid] / res.total
            assert -1e-12 <= post <= 1 + 1e-12
            by_addr[r.parent.address] = by_addr.get(r.parent.address, 0.0) + post
        for addr, total in by_addr.items():
            assert total == pytest.approx(1.0, rel=1e-9), addr


class TestViterbi:
    def test_unit_weights_lexicographic(self, rel_automaton):
        run = viterbi(rel_automaton)
        assert run.rule_ids() == enumerate_runs(rel_automaton, limit=1)[0].rule_ids()

    def test_dominant_leaf(self, rel_automaton):
        runs = enumerate_runs(rel_automaton)
        target = runs[-1]
        w = {r.rid: 1.0 for r in rel_automaton.rules}
        for rid in target.rule_ids():
            w[rid] = 5.0
        assert viterbi(rel_automaton, w).rule_ids() == target.rule_ids()

    def test_matches_enumeration_max(self, heuristics):
        rng = random.Random(23)
        for a in random_instances(heuristics, 20, start=6000):
            w = {r.rid: rng.uniform(0.1, 1.0) for r in a.rules}
            best = max(enumerate_runs(a), key=lambda run: run_weight(run, w))
            assert run_weight(viterbi(a, w), w) == pytest.approx(
                run_weight(best, w), rel=1e-12)


class TestSampling:
    def test_deterministic(self, rel_automaton):
        assert (random_tree_baseline(rel_automaton, seed=5).rule_ids()
                == random_tree_baseline(rel_automaton, seed=5).rule_ids())

    def test_uniform_chi_square(self, rel_automaton):
        from scipy.stats import chi2

        n = count_trees(rel_automaton)
        assert n <= 24
        draws = 10 * n
        rng = random.Random(99)
        counts = Counter(tuple(sample_run(rel_automaton, rng).rule_ids())
                         for _ in range(draws))
        assert len(counts) == n
        expected = draws / n
        stat = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stat < chi2.ppf(0.99, df=n - 1)

    def test_marginals_match_enumeration(self, heuristics):
        a = random_instances(heuristics, 1, start=7000, cap=24)[0]
        n = count_trees(a)
        rng = random.Random(3)
        counts = Counter(tuple(sample_run(a, rng).rule_ids()) for _ in range(400 * n))
        keys = {tuple(r.rule_ids()) for r in enumerate_runs(a)}
        assert set(counts) <= keys
        for k in keys:
            assert counts[k] > 0


class TestEM:
    def test_single_tree_concentrates(self, heuristics):
        # an automaton with a single accepted tree: after one iteration every
        # used event reaches the maximum of its group
        g = SemanticGraph({"a": "A", "b": "B"}, [("a", "b", "ARG0")], "a")
        d = decompose(g, heuristics)
        a = build_automaton(d.tree, ("s1",))
        assert count_trees(a) == 1
        table = em_fit([("g", a)], iterations=1, seed=0)
        for r in a.rules:
            key = rule_event_key(r)
            group = [k for keys in table.groups.values() for k in keys if key in keys]
            assert table.theta[key] == max(table.theta[k] for k in group)

    def test_log_likelihood_monotone(self, heuristics):
        for corpus_seed in range(20):
            instances = random_instances(heuristics, 4, start=8000 + 50 * corpus_seed)
            table = em_fit([(a.graph_id, a) for a in instances],
                           iterations=8, seed=corpus_seed)
            ll = table.meta["log_likelihood"]
            for before, after in zip(ll, ll[1:]):
                assert after >= before - 1e-9

    def ambiguous_corpus(self, heuristics, n=100):
        """Single-slot predicates over a tiny shared vocabulary with two
        sources: every instance has exactly two source namings."""
        out = []
        for i in range(n):
            pred = ["eat", "see"][i % 2]
            arg = ["cat", "dog"][(i // 2) % 2]
            g = SemanticGraph({"p": pred, "x": arg}, [("p", "x", "ARG0")], "p")
            d = decompose(g, heuristics)
            a = build_automaton(d.tree, ("s1", "s2"))
            a.graph_id = f"amb{i}"
            assert count_trees(a) == 2
            out.append((a.graph_id, a))
        return out

    def naming_consistency(self, corpus, table):
        names = Counter()
        for _tid, a in corpus:
            tree = reconstruct_best(a, {"theta": table.theta, "groups": {},
                                        "meta": {}, "default": table.default})
            [edge] = tree.edges
            names[edge.source] += 1
        return max(names.values()) / sum(names.values())

    def test_symmetry_breaking(self, heuristics):
        corpus = self.ambiguous_corpus(heuristics)
        good = 0
        for seed in range(10):
            table = em_fit(corpus, iterations=25, seed=seed)
            if self.naming_consistency(corpus, table) >= 0.95:
                good += 1
        assert good >= 8

    def test_tied_single_group_is_argmax_noop(self, heuristics):
        # scaling every weight in one group leaves the viterbi argmax alone
        a = random_instances(heuristics, 1, start=9000)[0]
        rng = random.Random(1)
        w = {r.rid: rng.uniform(0.1, 1.0) for r in a.rules}
        run1 = viterbi(a, w)
        run2 = viterbi(a, {rid: 3.7 * val for rid, val in w.items()})
        assert run1.rule_ids() == run2.rule_ids()

    def test_skips_empty_automata(self, sparkle_glow, heuristics):
        d = decompose(sparkle_glow, heuristics)
        empty = build_automaton(d.tree, ("s1", "s2"))
        full = build_automaton(d.tree, S3)
        empty.graph_id, full.graph_id = "e", "f"
        table = em_fit([("e", empty), ("f", full)], iterations=2, seed=0)
        assert table.meta["skipped"] == ["e"]

    def test_all_empty_names_them(self, sparkle_glow, heuristics):
        d = decompose(sparkle_glow, heuristics)
        empty = [(f"e{i}", build_automaton(d.tree, ("s1", "s2"))) for i in range(7)]
        msg = "no usable automata in corpus; empty: e0, e1, e2, e3, e4 and 2 more"
        with pytest.raises(EmptyAutomaton, match=msg):
            em_fit(empty, iterations=1)
        with pytest.raises(EmptyAutomaton, match=msg):
            joint_fit(empty, JointConfig(epochs=1))


class TestEventGroups:
    """discover_events groups a leaf's events by its placeholder constant's
    skeleton; each event's own skeleton (event_group_key) is the oracle."""

    @staticmethod
    def assert_oracle_groups(automata):
        groups = discover_events(automata)
        assert sorted(k for ks in groups.values() for k in ks) == sorted(
            {rule_event_key(r) for _tid, a in automata for r in a.rules})
        for group, keys in groups.items():
            for key in keys:
                assert group == event_group_key(key), key
        return groups

    @given(graphs=st.lists(small_graphs(), min_size=1, max_size=3),
           nsources=st.sampled_from([3, 4, 5]))
    @settings(max_examples=50, deadline=None)
    def test_every_group_equals_per_event_oracle(self, heuristics, graphs, nsources):
        sources = [f"s{i + 1}" for i in range(nsources)]
        decomposed = [d for d in (decompose(g, heuristics) for g in graphs)
                      if isinstance(d, Decomposition)]
        self.assert_oracle_groups([(f"g{i}", build_automaton(d.tree, sources))
                                   for i, d in enumerate(decomposed)])

    def test_constant_with_reusable_names_grouped_per_event(self):
        # begin requests [s1] at its placeholder ps(g): renaming ps(g) to s1
        # merges two names, to s2 keeps them apart, so the two events of one
        # leaf fall into two groups
        glow = constant("glow", "g", [("ARG0", "s1")])
        begin = constant("begin", "b", [("ARG1", "ps(g)")], AMType({"ps(g)": {"s1": {}}}))
        tree = AMDepTree({"b": begin, "g": glow}, "b", [("b", "g", "APP", "ps(g)")])
        a = build_automaton(tree, ("s1", "s2"))
        groups = self.assert_oracle_groups([("t", a)])
        begin_groups = {g for g, keys in groups.items() for k in keys if '"begin"' in k}
        assert len(begin_groups) == 2


class TestBaselines:
    def test_random_weights_deterministic(self, heuristics):
        instances = [(a.graph_id, a) for a in random_instances(heuristics, 3, start=10_000)]
        t1 = random_weights_baseline(instances, seed=4)
        t2 = random_weights_baseline(instances, seed=4)
        assert t1.theta == t2.theta
        assert all(0.1 <= v <= 1.0 for v in t1.theta.values())


class TestScorer:
    def test_zero_params_unit_weights(self, rel_automaton):
        w = score_rules(Scorer(), rel_automaton)
        assert all(v == 1.0 for v in w.values())
        assert inside(rel_automaton, w).total == count_trees(rel_automaton)

    def test_locality_of_parameters(self, rel_automaton):
        s = Scorer()
        key = s.feature_key(rel_automaton.rules[0])
        s.params[key] = 0.9
        w = score_rules(s, rel_automaton)
        for r in rel_automaton.rules:
            if s.feature_key(r) == key:
                assert w[r.rid] == pytest.approx(math.exp(0.9))
            else:
                assert w[r.rid] == 1.0

    def test_weights_positive_finite(self, heuristics):
        rng = random.Random(31)
        for a in random_instances(heuristics, 10, start=11_000):
            s = Scorer()
            for r in a.rules:
                s.params[s.feature_key(r)] = rng.uniform(-2, 2)
            for v in score_rules(s, a).values():
                assert v > 0 and math.isfinite(v)


class TestJointFit:
    def test_gradient_matches_finite_differences(self, heuristics):
        rng = random.Random(37)
        instances = random_instances(heuristics, 10, start=12_000)
        for a in instances[:10]:
            s = Scorer()
            keys = sorted({s.feature_key(r) for r in a.rules})
            for k in keys:
                s.params[k] = rng.uniform(-1, 1)
            ll, grad = log_inside_gradient(s, a)
            for k in rng.sample(keys, min(2, len(keys))):
                h = 1e-5
                sp = Scorer(dict(s.params))
                sp.params[k] += h
                sm = Scorer(dict(s.params))
                sm.params[k] -= h
                fd = (inside(a, score_rules(sp, a)).log_total
                      - inside(a, score_rules(sm, a)).log_total) / (2 * h)
                assert abs(grad.get(k, 0.0) - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_mean_log_inside_improves(self, heuristics):
        instances = [(a.graph_id, a) for a in random_instances(heuristics, 6, start=13_000)]
        scorer = joint_fit(instances, JointConfig(epochs=30, lr=0.05, seed=0))
        hist = scorer.meta["mean_log_inside"]
        violations = sum(1 for x, y in zip(hist, hist[1:]) if y < x - 1e-6)
        assert violations <= 2
        assert hist[-1] > hist[0]

    def test_zero_lr_leaves_parameters(self, heuristics):
        instances = [(a.graph_id, a) for a in random_instances(heuristics, 3, start=14_000)]
        scorer = joint_fit(instances, JointConfig(epochs=3, lr=0.0, seed=0))
        assert scorer.params == {}

    def test_l2_regularized_analytic_optimum(self, heuristics):
        # single instance with two accepted trees: with L2 the objective
        # log I(theta) - l2*|theta|^2 has a finite optimum. By symmetry the
        # posterior usage of a feature is (#trees using it)/2, and the
        # stationarity condition q_k = 2*l2*theta_k has a closed-form root;
        # solve it independently per feature and compare.
        from scipy.optimize import brentq

        g = SemanticGraph({"a": "A", "b": "B"}, [("a", "b", "ARG0")], "a")
        d = decompose(g, heuristics)
        a = build_automaton(d.tree, ("s1", "s2"))
        assert count_trees(a) == 2
        l2 = 0.25
        scorer = joint_fit([("g", a)], JointConfig(epochs=4000, lr=0.05, seed=0, l2=l2))
        s = Scorer()
        runs = enumerate_runs(a)
        rules = {r.rid: r for r in a.rules}
        for key in {s.feature_key(r) for r in a.rules}:
            using = sum(1 for run in runs
                        if any(s.feature_key(rules[rid]) == key
                               for rid in run.rule_ids()))
            q = using / len(runs)
            t_star = brentq(lambda t: q - 2 * l2 * t, 0, 100)
            assert abs(scorer.params[key] - t_star) < 1e-6, key


class TestEntropy:
    def leaf_tree(self, label):
        return AMDepTree({"x": constant(label, "x")}, "x", [])

    def test_identical_constants(self):
        assert constant_entropy([self.leaf_tree("a") for _ in range(5)]) == 0.0

    def test_two_way_split(self):
        trees = [self.leaf_tree("a"), self.leaf_tree("b")]
        assert abs(constant_entropy(trees) - math.log(2)) < 1e-12

    def test_four_way_split(self):
        trees = [self.leaf_tree(x) for x in "abcd"]
        assert abs(constant_entropy(trees) - math.log(4)) < 1e-12


def test_random_weights_viterbi_on_figure(rel_automaton):
    table = random_weights_baseline([("rel", rel_automaton)], seed=12)
    tree = reconstruct_best(rel_automaton, table.to_json())
    # some single consistent assignment: no placeholders anywhere
    for nid in tree.nodes:
        assert not tree.constant(nid).placeholders()
    assert len({e.source for e in tree.edges}) <= 2
