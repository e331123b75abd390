"""Weighted-automaton learning: inside scores, outer weights, Viterbi,
EM over globally tied event weights, sampling baselines, and a log-linear
scorer trained through the outer-weight gradient identity."""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from typing import NamedTuple

from .automata import (Run, TreeAutomaton, bottom_up, leaf_constant, reconstruct_tree,
                       subtree_counts, unfold)
from .errors import AmdepError, EmptyAutomaton, Logger, NonFiniteGradient, first_ids
from .files import exp_is_weight
from .values import canonical_constant_form, constant_from_canonical, skeleton_form

log = Logger("amdep.training")

NEG_INF = float("-inf")
SMOOTHING = 1e-6  # EM's default additive smoothing of expected event counts
UNSEEN = 1e-6  # the weight of an event that an EventTable does not list


def logsumexp(values):
    """log of the sum of exp over a list of floats, each finite or -inf.

    The result depends only on the multiset of the values, since neither
    ``max`` nor ``math.fsum``, which is exactly rounded, depends on their
    order. That also makes the one- and two-term paths exact: fsum of a
    single 1.0 is 1.0, and fsum of two floats is their IEEE sum, so they
    skip fsum and give bit for bit what ``m + log(fsum(exp(v - m)))``
    gives."""
    n = len(values)
    if n == 1:
        return values[0] + 0.0
    if n == 2:
        a, b = values
        if b > a:
            a, b = b, a
        if a == NEG_INF:
            return NEG_INF
        return a + math.log(1.0 + math.exp(b - a))
    m = max(values, default=NEG_INF)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(math.fsum([math.exp(v - m) for v in values]))


# ---------------------------------------------------------------------------
# inside / outside


class InsideOutsideResult(NamedTuple):
    log_inside: list  # log inside score per state, indexed as a.state_list
    log_total: float  # log I
    log_alpha: list | None = None  # log outer weight per rule, indexed by rule id
    lin_total: float | None = None  # linear-domain I when it did not under/overflow

    @property
    def total(self):
        if self.lin_total is not None and self.lin_total > 0.0 \
                and math.isfinite(self.lin_total):
            return self.lin_total
        return math.exp(self.log_total)

    def alpha(self, rid):
        v = self.log_alpha[rid]
        return 0.0 if v == NEG_INF else math.exp(v)


def _rule_weights(a: TreeAutomaton, weights):
    """(weights, log weights) as lists indexed by rule id; weights maps rule
    id -> positive finite weight, unit when None."""
    n = len(a.labels)
    w = [1.0] * n if weights is None else [weights[rid] for rid in range(n)]
    return w, _log_weights(w)


def _log_weights(w):
    """The log of each weight in the list w, which must all be positive and
    finite."""
    for x in w:
        if not (x > 0.0) or not math.isfinite(x):
            raise ValueError(f"rule weight must be positive and finite, got {x!r}")
    return [math.log(x) for x in w]


def _log_inside(a: TreeAutomaton, lw):
    log_in = bottom_up(a, lw, operator.add, logsumexp)
    return log_in, logsumexp([log_in[f] for f in a.accept])


def _log_outer(a: TreeAutomaton, lw, log_in):
    """Top-down pass: the log outer weight of every rule, by rule id.

    Rules have 0 or 2 children (TreeAutomaton checks this). A state's outer
    weight is the logsumexp of the terms its parent rules send it, which may
    be gathered in any order since logsumexp depends only on their multiset;
    each term itself is one left-to-right chain of +: out_q + lw[rid], then
    the sibling's inside score."""
    children = a.children
    log_out: list[list[float]] = [[] for _ in a.state_list]
    for f in a.accept:
        log_out[f] = [0.0]
    log_alpha = [NEG_INF] * len(lw)
    for q in reversed(range(len(a.state_list))):
        out_q = logsumexp(log_out[q])
        for rid in a.state_rules[q]:
            kids = children[rid]
            if not kids:
                log_alpha[rid] = out_q
                continue
            k0, k1 = kids
            in0 = log_in[k0]
            in1 = log_in[k1]
            log_alpha[rid] = out_q + in0 + in1
            base = out_q + lw[rid]
            log_out[k0].append(base + in1)
            log_out[k1].append(base + in0)
    return log_alpha


def _posteriors(a: TreeAutomaton, lw):
    """(log I, posterior of each rule by rule id): the expected number of
    uses of the rule in an accepted tree, alpha(r) * w(r) / I."""
    log_in, total = _log_inside(a, lw)
    if total == NEG_INF:
        raise EmptyAutomaton("no accepted trees")
    log_alpha = _log_outer(a, lw, log_in)
    return total, [math.exp(la + x - total) for la, x in zip(log_alpha, lw)]


def inside(a: TreeAutomaton, weights=None) -> InsideOutsideResult:
    """Single bottom-up pass; log I sums over the final states. The same
    recursion is tracked in the linear domain, which is exact for unit
    weights and tighter at desk scale, with the log values as the
    underflow-safe reference. weights maps rule id -> positive weight (unit
    when None)."""
    if a.empty:
        return InsideOutsideResult([], NEG_INF)
    w, lw = _rule_weights(a, weights)
    log_in, total = _log_inside(a, lw)
    lin_in = bottom_up(a, w, operator.mul, math.fsum)
    lin_total = math.fsum(lin_in[f] for f in a.accept)
    return InsideOutsideResult(log_in, total, lin_total=lin_total)


def outer_weights(a: TreeAutomaton, weights=None) -> InsideOutsideResult:
    """Inside plus the top-down pass: the outer weight of a rule is the total
    weight of accepted trees using it divided by the rule's own weight, and
    equals the partial derivative of the inside total in that weight."""
    res = inside(a, weights)
    if res.log_total == NEG_INF:
        raise EmptyAutomaton("no accepted trees")
    _w, lw = _rule_weights(a, weights)
    return res._replace(log_alpha=_log_outer(a, lw, res.log_inside))


def viterbi(a: TreeAutomaton, weights=None) -> Run:
    """Maximum-weight accepted run; ties broken by the smallest preorder
    rule-id sequence. Candidate runs at one state share the binarized shape
    and start with distinct rule ids, so that order is the order of their
    first rule id: the (max, +) pass keeps best scores and the backtrace
    takes the first rule, in id order, that reaches its state's best."""
    if a.empty:
        raise EmptyAutomaton("no accepted trees")
    _w, lw = _rule_weights(a, weights)
    best = bottom_up(a, lw, operator.add, lambda terms: max(terms, default=NEG_INF))

    def best_rule(q):
        for rid in a.state_rules[q]:
            t = lw[rid]
            for k in a.children[rid]:
                t += best[k]
            if t == best[q]:
                return rid
        raise AssertionError("no rule reaches the state's best score")

    tops = [(-best[f], best_rule(f), f) for f in a.accept if best[f] != NEG_INF]
    if not tops:
        raise EmptyAutomaton("no accepted trees")
    return unfold(a, min(tops)[2], None, lambda q, _ctx: (best_rule(q), (None, None)))


def sample_run(a: TreeAutomaton, rng: random.Random) -> Run:
    """Exact uniform sample over accepted trees: integer subtree counts drive
    a top-down categorical walk."""
    counts = subtree_counts(a)
    grand = sum(counts[f] for f in a.accept)
    if grand == 0:
        raise EmptyAutomaton("no accepted trees")
    pick = rng.randrange(grand)
    for final in a.accept:
        if pick < counts[final]:
            break
        pick -= counts[final]

    def choose(q, idx):
        # run number idx of q, numbering each rule's runs left subrun major
        for rid in a.state_rules[q]:
            kids = a.children[rid]
            n = math.prod([counts[k] for k in kids])
            if idx < n:
                return rid, (divmod(idx, counts[kids[1]]) if kids else ())
            idx -= n
        raise AssertionError("index out of range")

    return unfold(a, final, pick, choose)


# ---------------------------------------------------------------------------
# events and EM


def rule_event_key(rule) -> str:
    """The event key of a Rule record, as TreeAutomaton.event_keys has it."""
    return " ".join(rule.event)  # "const <label>" or "edge <kind> <name>"


def event_group_key(event_key: str) -> str:
    """Normalization group of an event: constants by name-erased skeleton,
    edges by operation kind."""
    if event_key.startswith("edge "):
        return "edge " + event_key.split(" ")[1]
    form = event_key[len("const "):]
    return "skel " + skeleton_form(constant_from_canonical(form))


def _leaf_group(form: str) -> str | None:
    """The group shared by every constant event of a leaf whose placeholder
    constant has canonical form ``form``; None when the constant also
    carries reusable names, whose events are then grouped one by one.

    A leaf rule's constant is the placeholder constant with its placeholders
    renamed injectively to reusable sources. When every name is a
    placeholder, that renaming is injective on all of the constant's names,
    and the skeleton, which minimizes over every bijection of the names onto
    positional slots, is unchanged by it. A reusable name, however, may
    coincide with a placeholder's new name."""
    c = constant_from_canonical(form)
    if c.placeholders() == c.typ.all_names():
        return "skel " + skeleton_form(c)
    return None


class EventTable:
    """Event weights (theta) by event key, with the normalization groups
    they were fitted in, run metadata and the weight of an unseen event."""

    __slots__ = ("theta", "groups", "meta", "default")

    def __init__(self, theta: dict[str, float], groups: dict[str, list[str]], meta: dict,
                 default: float = UNSEEN):
        self.theta = theta
        self.groups = groups
        self.meta = meta
        self.default = default

    def rule_weights(self, a: TreeAutomaton) -> list[float]:
        """The weight of each rule of a, by rule id."""
        return [self.theta.get(k, self.default) for k in a.event_keys]

    def to_json(self):
        return {"theta": dict(sorted(self.theta.items())),
                "groups": {k: sorted(v) for k, v in sorted(self.groups.items())},
                "meta": self.meta, "default": self.default}


def discover_events(automata):
    """Every event of the corpus by normalization group, {group: sorted
    event keys}. An edge event is grouped by its operation kind, a constant
    event by the skeleton of its leaf's placeholder constant (see
    _leaf_group), computed once per distinct placeholder constant."""
    group_of: dict[str, str] = {}  # events recur across rules and graphs
    leaf_group: dict[str, str | None] = {}  # placeholder constant form -> _leaf_group
    for _tid, a in automata:
        for rid, key in enumerate(a.event_keys):
            if key in group_of:
                continue
            if a.children[rid]:
                group_of[key] = event_group_key(key)
                continue
            form = a.shape[a.state_list[a.parents[rid]].address]["const"]
            if form not in leaf_group:
                leaf_group[form] = _leaf_group(form)
            group_of[key] = leaf_group[form] or "skel " + skeleton_form(leaf_constant(a, rid))
    groups: dict[str, list[str]] = {}
    for key, group in group_of.items():
        groups.setdefault(group, []).append(key)
    return {g: sorted(ks) for g, ks in sorted(groups.items())}


def _normalize_groups(theta, members, smoothing=0.0):
    """Normalize the list theta in place within each group of event indices."""
    for group in members:
        total = math.fsum(theta[e] + smoothing for e in group)
        if total <= 0.0:
            log.warning("degenerate normalization group; resetting to uniform")
            for e in group:
                theta[e] = 1.0 / len(group)
        else:
            for e in group:
                theta[e] = (theta[e] + smoothing) / total


def _no_usable_automata(empty_ids):
    msg = "no usable automata in corpus"
    return EmptyAutomaton(f"{msg}; empty: {first_ids(empty_ids)}" if empty_ids else msg)


def em_fit(automata, iterations=25, seed=0, smoothing=SMOOTHING) -> EventTable:
    """Inside-outside EM over globally tied event weights.

    automata: list of (id, TreeAutomaton); empty ones are skipped with a
    report in the metadata. Weights are normalized within each event group,
    so the per-iteration corpus log-likelihood (sum of log inside totals) is
    non-decreasing up to floating point noise.
    """
    usable = [(tid, a) for tid, a in automata if not a.empty]
    skipped = [tid for tid, a in automata if a.empty]
    if skipped:
        log.warning("EM skipping %d empty automata: %s", len(skipped), first_ids(skipped))
    if not usable:
        raise _no_usable_automata(skipped)
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
        if 0.0 in theta:  # unsmoothed counts can underflow, and a weight of 0 has no log
            raise AmdepError(f"EM iteration {it + 1}: the weight of event "
                             f"{keys[theta.index(0.0)]!r} underflowed to 0; "
                             "--smoothing must be above 0")
        log_theta = _log_weights(theta)
        counts = [0.0] * len(keys)
        ll = 0.0
        for (_tid, a), by_rid in zip(usable, events):
            log_total, posts = _posteriors(a, [log_theta[e] for e in by_rid])
            ll += log_total
            for e, post in zip(by_rid, posts):
                counts[e] += post
        history.append(ll)
        if len(history) >= 2 and history[-1] < history[-2] - 1e-9:
            log.warning("EM log-likelihood decreased: %.12f -> %.12f",
                        history[-2], history[-1])
        try:
            _normalize_groups(counts, members, smoothing)
        except OverflowError:  # fsum of an event group's smoothed counts
            raise AmdepError(f"EM iteration {it + 1}: the smoothed counts of an event group "
                             f"sum past the largest float; --smoothing {smoothing!r} "
                             "is too large") from None
        theta = counts
    return EventTable(dict(zip(keys, theta)), groups,
                      meta={"iterations": iterations, "seed": seed,
                            "smoothing": smoothing, "log_likelihood": history,
                            "skipped": skipped})


def random_weights_baseline(automata, seed=0) -> EventTable:
    """One weight per graph constant and edge event, drawn once globally."""
    usable = [(tid, a) for tid, a in automata if not a.empty]
    groups = discover_events(usable)
    rng = random.Random(seed)
    theta = {k: rng.uniform(0.1, 1.0) for keys in sorted(groups.values()) for k in keys}
    return EventTable(theta, groups, meta={"seed": seed, "baseline": "random-weights"})


def random_tree_baseline(a: TreeAutomaton, seed=0) -> Run:
    return sample_run(a, random.Random(seed))


def weights_from_json(obj):
    """The weights of a weights file's JSON object, which follows
    files.WEIGHTS: an EventTable when it has a "theta" key, else a
    Scorer."""
    if "theta" in obj:
        return EventTable(obj["theta"], obj.get("groups", {}), obj.get("meta", {}),
                          obj.get("default", UNSEEN))
    return Scorer(obj["params"], obj.get("meta", {}))


def reconstruct_best(a: TreeAutomaton, weights=None):
    """Viterbi tree under an EventTable or Scorer, or a weights file's JSON
    object (parsed here; parse it once with weights_from_json when scoring
    many automata), unit weights when None."""
    if isinstance(weights, dict):
        weights = weights_from_json(weights)
    w = None if weights is None else weights.rule_weights(a)
    return reconstruct_tree(a, viterbi(a, w))


# ---------------------------------------------------------------------------
# log-linear scorer and joint training


class Scorer:
    """Log-linear scorer with one feature per (anchor labels, event) pair and
    an exponential link: a rule's weight is exp(theta[feature])."""

    __slots__ = ("params", "meta")

    def __init__(self, params: dict[str, float] | None = None, meta: dict | None = None):
        self.params = {} if params is None else params
        self.meta = {} if meta is None else meta

    @staticmethod
    def feature_key(rule) -> str:
        if rule.event[0] == "const":
            return f"n={rule.align[1]}|{rule_event_key(rule)}"
        return f"p={rule.align[1]}|c={rule.align[2]}|{rule_event_key(rule)}"

    @staticmethod
    def feature_keys(a: TreeAutomaton) -> list[str]:
        """feature_key of each rule of a, by rule id, read from its index."""
        align = [a.aligns[s.address] for s in a.state_list]  # by parent state
        return [f"p={align[q][1]}|c={align[q][2]}|{key}" if kids else f"n={align[q][1]}|{key}"
                for key, q, kids in zip(a.event_keys, a.parents, a.children)]

    def rule_weights(self, a: TreeAutomaton) -> dict[int, float]:
        return score_rules(self, a)

    def to_json(self):
        return {"params": dict(sorted(self.params.items())), "meta": self.meta}


def score_rules(scorer: Scorer, a: TreeAutomaton) -> dict[int, float]:
    """Rule weights under the scorer: exp of the feature score, leaf rules
    anchored at the constant's node label, edge rules at the head and
    dependent labels."""
    params = scorer.params
    return {rid: math.exp(params.get(key, 0.0)) for rid, key in enumerate(scorer.feature_keys(a))}


def log_inside_gradient(scorer: Scorer, a: TreeAutomaton, keys=None):
    """(log I, gradient of log I w.r.t. scorer parameters). The gradient of
    log I is the posterior expected feature count: sum over rules of
    alpha(r) * c(r) / I times the rule's feature vector, computed without
    backpropagating through the inside recursion. keys is the feature key of
    each rule by rule id, computed here when None."""
    if keys is None:
        keys = scorer.feature_keys(a)
    # exp then log, as score_rules and inside do: log(exp(x)) is not always x
    params = scorer.params
    lw = _log_weights([math.exp(params.get(key, 0.0)) for key in keys])
    log_total, posts = _posteriors(a, lw)
    grad: dict[str, float] = {}
    for key, post in zip(keys, posts):
        grad[key] = grad.get(key, 0.0) + post
    return log_total, grad


class JointConfig(NamedTuple):
    epochs: int = 10
    lr: float = 0.5
    batch: int = 0  # 0 means full batch
    seed: int = 0
    l2: float = 0.0


def joint_fit(automata, cfg: JointConfig) -> Scorer:
    """Gradient ascent on the summed log inside scores (minus optional L2).
    Deterministic given the config: instances are shuffled per epoch with the
    seeded generator and gradients accumulated in corpus order."""
    usable = [(tid, a) for tid, a in automata if not a.empty]
    if not usable:
        raise _no_usable_automata([tid for tid, _a in automata])
    scorer = Scorer(meta={"epochs": cfg.epochs, "lr": cfg.lr, "batch": cfg.batch,
                          "seed": cfg.seed, "l2": cfg.l2})
    shared: dict[str, str] = {}  # many rules share a feature; keep one string per key
    keys = [[shared.setdefault(k, k) for k in scorer.feature_keys(a)]
            for _tid, a in usable]
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
                ll, g = log_inside_gradient(scorer, usable[idx][1], keys[idx])
                total_ll += ll
                for k, v in g.items():
                    grad[k] = grad.get(k, 0.0) + v
            if cfg.l2:
                for k in set(grad) | set(scorer.params):
                    grad[k] = grad.get(k, 0.0) - 2.0 * cfg.l2 * scorer.params.get(k, 0.0)
            for k, v in grad.items():
                if not math.isfinite(v):
                    raise NonFiniteGradient(f"gradient for {k!r} is {v!r}")
                if cfg.lr:
                    p = scorer.params.get(k, 0.0) + cfg.lr * v
                    if not exp_is_weight(p):
                        raise NonFiniteGradient(
                            f"epoch {epoch + 1}: the parameter of feature {k!r} reached "
                            f"{p!r}, whose exp is not a positive finite weight; "
                            "try a smaller --lr")
                    scorer.params[k] = p
        history.append(total_ll / len(usable))
    scorer.meta["mean_log_inside"] = history
    return scorer


# ---------------------------------------------------------------------------
# statistics


def constant_entropy(trees) -> float:
    """Entropy (nats) of the empirical distribution of graph constants over
    the given trees, constants compared by canonical form."""
    counts = event_histogram(trees)[0]
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no constants")
    return -math.fsum((c / total) * math.log(c / total) for c in counts.values())


def event_histogram(trees):
    """Constant and edge-operation counts over a set of trees."""
    constants = Counter()
    edges = Counter()
    for tree in trees:
        for node in tree.nodes:
            constants[canonical_constant_form(tree.constant(node))] += 1
        for e in tree.edges:
            edges[f"{e.op}_{e.source}"] += 1
    return constants, edges
