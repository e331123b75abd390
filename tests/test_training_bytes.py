"""Bit-for-bit oracle of the log-domain inside-outside pass, with no float
goldens: the generic pass and the EM and joint training loops that the
binary fast paths replaced are kept below as the reference, verbatim apart
from logging and error reporting, and every result of the package's pass
must equal theirs exactly (``==``, not approx). Both sides call the same
libm, so this holds on any platform, unlike a digest of theta.json."""

import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from amdep.automata import bottom_up, build_automaton
from amdep.decompose import Decomposition, decompose
from amdep.errors import EmptyAutomaton
from amdep.generate import gen_corpus
from amdep.training import (SMOOTHING, JointConfig, Scorer, _log_weights, _normalize_groups,
                            _posteriors, discover_events, em_fit, joint_fit, logsumexp,
                            outer_weights)

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# the reference pass, verbatim


def ref_logsumexp(values):
    m = max(values, default=NEG_INF)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def ref_rule_weights(a, weights):
    n = len(a.rules)
    w = [1.0] * n if weights is None else [weights[rid] for rid in range(n)]
    for x in w:
        if not (x > 0.0) or not math.isfinite(x):
            raise ValueError(f"rule weight must be positive and finite, got {x!r}")
    return w, [math.log(x) for x in w]


def ref_log_inside(a, lw):
    log_in = bottom_up(a, lw, operator.add, ref_logsumexp)
    return log_in, ref_logsumexp([log_in[f] for f in a.accept])


def ref_log_outer(a, lw, log_in):
    log_out: list[list[float]] = [[] for _ in a.state_list]
    for f in a.accept:
        log_out[f] = [0.0]
    log_alpha = [NEG_INF] * len(lw)
    for q in reversed(range(len(a.state_list))):
        out_q = ref_logsumexp(log_out[q])
        for rid in a.state_rules[q]:
            kids = a.children[rid]
            t = out_q
            for k in kids:
                t += log_in[k]
            log_alpha[rid] = t
            for i, k in enumerate(kids):
                contrib = out_q + lw[rid]
                for j, d in enumerate(kids):
                    if j != i:
                        contrib += log_in[d]
                log_out[k].append(contrib)
    return log_alpha


def ref_posteriors(a, w, lw):
    log_in, total = ref_log_inside(a, lw)
    if total == NEG_INF:
        raise EmptyAutomaton("no accepted trees")
    log_alpha = ref_log_outer(a, lw, log_in)
    return total, [math.exp(log_alpha[r.rid] + lw[r.rid] - total) for r in a.rules]


def ref_em_fit(automata, iterations, seed=0, smoothing=SMOOTHING):
    """(theta by event key, log-likelihood history)."""
    usable = [(tid, a) for tid, a in automata if not a.empty]
    groups = discover_events(usable)
    keys = [k for ks in groups.values() for k in ks]
    index = {k: e for e, k in enumerate(keys)}
    members = [[index[k] for k in ks] for ks in groups.values()]
    events = [[index[k] for k in a.event_keys] for _tid, a in usable]  # by rule id
    rng = random.Random(seed)
    theta = [rng.uniform(0.1, 1.0) for _ in keys]
    _normalize_groups(theta, members)
    history = []
    for it in range(iterations):
        counts = [0.0] * len(keys)
        ll = 0.0
        for (_tid, a), by_rid in zip(usable, events):
            w, lw = ref_rule_weights(a, [theta[e] for e in by_rid])
            log_total, posts = ref_posteriors(a, w, lw)
            ll += log_total
            for r, post in zip(a.rules, posts):
                counts[by_rid[r.rid]] += post
        history.append(ll)
        _normalize_groups(counts, members, smoothing)
        theta = counts
    return dict(zip(keys, theta)), history


def ref_log_inside_gradient(scorer, a):
    keys = [scorer.feature_key(r) for r in a.rules]
    weights = {r.rid: math.exp(scorer.params.get(key, 0.0)) for r, key in zip(a.rules, keys)}
    log_total, posts = ref_posteriors(a, *ref_rule_weights(a, weights))
    grad: dict[str, float] = {}
    for key, post in zip(keys, posts):
        grad[key] = grad.get(key, 0.0) + post
    return log_total, grad


def ref_joint_fit(automata, cfg):
    """(params, mean log inside per epoch)."""
    usable = [(tid, a) for tid, a in automata if not a.empty]
    scorer = Scorer()
    rng = random.Random(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        order = list(range(len(usable)))
        rng.shuffle(order)
        batch = cfg.batch or len(usable)
        total_ll = 0.0
        for start in range(0, len(order), batch):
            grad: dict[str, float] = {}
            for idx in order[start:start + batch]:
                ll, g = ref_log_inside_gradient(scorer, usable[idx][1])
                total_ll += ll
                for k, v in g.items():
                    grad[k] = grad.get(k, 0.0) + v
            if cfg.l2:
                for k in set(grad) | set(scorer.params):
                    grad[k] = grad.get(k, 0.0) - 2.0 * cfg.l2 * scorer.params.get(k, 0.0)
            for k, v in grad.items():
                if cfg.lr:
                    scorer.params[k] = scorer.params.get(k, 0.0) + cfg.lr * v
        history.append(total_ll / len(usable))
    return scorer.params, history


# ---------------------------------------------------------------------------
# corpora


@pytest.fixture(scope="module")
def corpus_trees():
    trees = []
    for gid, g, _gold in gen_corpus(20, 0):
        d = decompose(g)
        if isinstance(d, Decomposition):
            trees.append((gid, d.tree))
    return trees


@pytest.fixture(scope="module", params=[3, 5], ids=["3-sources", "5-sources"])
def corpus(request, corpus_trees):
    sources = tuple(f"s{i + 1}" for i in range(request.param))
    automata = [(gid, build_automaton(tree, sources)) for gid, tree in corpus_trees]
    assert sum(not a.empty for _gid, a in automata) >= 10
    return automata


@pytest.fixture(scope="module")
def small_automata(corpus_trees):
    """A few non-empty 3-source automata of different sizes, for Hypothesis."""
    automata = [a for _gid, tree in corpus_trees
                for a in [build_automaton(tree, ("s1", "s2", "s3"))] if not a.empty]
    automata.sort(key=lambda a: len(a.rules))
    return [automata[0], automata[len(automata) // 2], automata[-1]]


def same_floats(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y), (x, y)


# ---------------------------------------------------------------------------
# the package's pass against the reference


def test_em_fit_matches_reference(corpus):
    table = em_fit(corpus, 5)
    theta, history = ref_em_fit(corpus, 5)
    assert list(table.theta) == list(theta)
    same_floats(list(table.theta.values()), list(theta.values()))
    same_floats(table.meta["log_likelihood"], history)


@pytest.mark.parametrize("cfg", [JointConfig(epochs=2), JointConfig(epochs=2, batch=4, l2=0.1)],
                         ids=["full-batch", "batch-4-l2"])
def test_joint_fit_matches_reference(corpus, cfg):
    scorer = joint_fit(corpus, cfg)
    params, history = ref_joint_fit(corpus, cfg)
    assert list(scorer.params) == list(params)
    same_floats(list(scorer.params.values()), list(params.values()))
    same_floats(scorer.meta["mean_log_inside"], history)


def test_outer_weights_match_reference(corpus):
    for _gid, a in corpus:
        if a.empty:
            continue
        res = outer_weights(a)
        lw = [0.0] * len(a.rules)
        log_in, total = ref_log_inside(a, lw)
        same_floats(res.log_inside, log_in)
        same_floats([res.log_total], [total])
        same_floats(res.log_alpha, ref_log_outer(a, lw, log_in))


@settings(max_examples=30, deadline=None)
@given(palette=st.lists(st.floats(1e-9, 1e9), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), which=st.integers(0, 2))
def test_drawn_weights_match_reference(small_automata, palette, seed, which):
    a = small_automata[which]
    rng = random.Random(seed)
    weights = [rng.choice(palette) for _ in a.rules]
    res = outer_weights(a, weights)
    w, lw = ref_rule_weights(a, weights)
    log_in, total = ref_log_inside(a, lw)
    same_floats(res.log_inside, log_in)
    same_floats(res.log_alpha, ref_log_outer(a, lw, log_in))
    got_total, got_posts = _posteriors(a, _log_weights(weights))
    want_total, want_posts = ref_posteriors(a, w, lw)
    same_floats([got_total], [want_total])
    same_floats(got_posts, want_posts)


# ---------------------------------------------------------------------------
# logsumexp's one- and two-term paths against the max/fsum formula

log_values = st.one_of(st.floats(-800.0, 50.0),
                       st.sampled_from([NEG_INF, 0.0, -0.0, 50.0, -745.0, -746.0, -800.0]))


def check_logsumexp(values):
    same_floats([logsumexp(values)], [ref_logsumexp(values)])


@given(st.lists(log_values, min_size=0, max_size=6))
def test_logsumexp_matches_formula(values):
    check_logsumexp(values)


@given(log_values)
def test_logsumexp_one_and_two_equal_terms(x):
    check_logsumexp([x])
    check_logsumexp([x, x])
    check_logsumexp([x, x, x])


@given(st.floats(-55.0, 50.0), st.floats(700.0, 850.0), st.booleans())
def test_logsumexp_gap_beyond_underflow(x, gap, swap):
    values = [x - gap, x] if swap else [x, x - gap]
    check_logsumexp(values)
    check_logsumexp(values + [NEG_INF])
    check_logsumexp([NEG_INF] + values[:1])
