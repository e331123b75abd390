"""Graph-to-tree decomposition: unroll a normalized graph into a tree with
reference leaves, build the canonical dependency tree over placeholder
sources, then resolve the reentrancies through the type system."""

from __future__ import annotations

import functools
import random
from collections import deque
from typing import NamedTuple

from .algebra import (
    AMDepTree,
    AMType,
    DepEdge,
    EMPTY_TYPE,
    SGraph,
    canonical_constant_form,
    check_well_typed,
    constant,
    evaluate,
    placeholder,
    placeholder_target,
    ref_placeholder,
    term_type,
    type_unify,
)
from .errors import (AmdepError, InvalidSwapPair, NonEmptyRootType, NotWellTyped, RequestClash,
                     ResolutionFailed)
from .graph import (
    BlobHeuristics,
    Edge,
    NormalizedGraph,
    SemanticGraph,
    is_isomorphic,
    normalize_edges,
    partition_blobs,
)

MAX_UNROLLINGS = 64  # unrollings tried per graph, lazily, best-first


# ---------------------------------------------------------------------------
# unrolling


class UEdge(NamedTuple):
    parent: str  # tree node id
    child: str
    backward: bool  # True for edges traversed against their direction
    graph_edge: Edge


class UnrolledTree(NamedTuple):
    """Tree-shaped expansion of a normalized graph. Real nodes keep their
    graph ids (each occurs once); repeat visits become reference leaves with
    ids ref0, ref1, ... pointing back at a real node."""

    root: str
    labels: dict[str, str]  # real node id -> label
    refs: dict[str, str]  # ref leaf id -> referenced node id
    edges: list[UEdge]

    def merged(self) -> SemanticGraph:
        """Merge every reference leaf into its target; reproduces the
        normalized graph when the unrolling is total."""
        edges = [e.graph_edge for e in self.edges]
        return SemanticGraph(self.labels, edges, self.root)


def _order_key(tie_break):
    if tie_break == "sorted":
        return lambda edge, far: (edge.label, far)
    if tie_break.startswith("seeded:"):
        seed = int(tie_break.split(":", 1)[1])

        def key(edge, far):
            rng = random.Random(f"{seed}|{edge.src}|{edge.tgt}|{edge.label}|{far}")
            return rng.random()

        return key
    raise ValueError(f"unknown tie_break {tie_break!r} (use 'sorted' or 'seeded:K')")


def _entry_targets(g, parents, depth, x, visited):
    """The nodes that a backward entry at x keeps resolvable as boundary
    targets: x, and the end of every directed path from x whose carriers can
    actually fold below x (nodes still unvisited, or already placed in x's
    subtree). The entry into an untraversed component is kept only when each
    boundary target of the component (the target of an edge from it into the
    visited nodes) is among them, since it can then become a reference leaf
    whose resolution survives the new modify edge: that chain is what leaves
    the delayed slot open in x's partial result. One search from x serves
    every target and every component."""

    def under_x(w):
        while depth[w] > depth[x]:
            w = parents[w]
        return w == x

    seen, reached, stack = {x}, {x}, [x]
    while stack:
        for e in g.out_edges(stack.pop()):
            reached.add(e.tgt)
            if e.tgt not in seen and (e.tgt not in visited or under_x(e.tgt)):
                seen.add(e.tgt)
                stack.append(e.tgt)
    return reached


def _run_unroll(n: NormalizedGraph, tie_break, choices, record):
    """Core two-queue traversal. choices/record support enumeration over
    backward entry points: choices[i] overrides the pick at juncture i, and
    record (a list) receives (candidate count, valid count) per juncture."""
    g = n.graph
    okey = _order_key(tie_break)
    labels = {g.root: g.label(g.root)}  # the visited nodes
    unvisited = set(g.nodes) - {g.root}
    refs: dict[str, str] = {}
    edges: list[UEdge] = []
    parents: dict[str, str] = {}
    depth = {g.root: 0}
    fqueue: deque[Edge] = deque()
    bqueue: list[Edge] = []
    comps: dict[str, str] = {}  # unvisited node -> its component's first candidate source
    members: dict[str, set[str]] = {}  # that source -> the component

    def visit(v, via):  # via, the edge that placed v, is its one traversed edge
        fqueue.extend(sorted((e for e in g.out_edges(v) if e != via),
                             key=lambda e: okey(e, e.tgt)))
        bqueue.extend(sorted((e for e in g.in_edges(v) if e != via),
                             key=lambda e: okey(e, e.src)))

    def place(child, parent, edge, backward):
        labels[child] = g.label(child)
        unvisited.discard(child)
        parents[child] = parent
        depth[child] = depth[parent] + 1
        edges.append(UEdge(parent, child, backward, edge))
        visit(child, edge)

    visit(g.root, None)
    while True:
        while fqueue:  # each edge enters once, when its source is visited
            e = fqueue.popleft()
            if e.tgt in unvisited:
                place(e.tgt, e.src, e, False)
            else:
                rid = f"ref{len(refs)}"
                refs[rid] = e.tgt
                edges.append(UEdge(e.src, rid, False, e))
        # with no forward edge pending, the candidates are exactly the edges
        # from an unvisited node into a visited one
        bqueue[:] = [e for e in bqueue if e.src in unvisited]
        if not bqueue:
            break
        targets: dict[str, set[str]] = {}  # a component -> its candidates' targets
        for e in bqueue:  # a component of the unvisited nodes is searched once
            if e.src not in comps:
                members[e.src] = g.component(e.src, unvisited)
                comps.update(dict.fromkeys(members[e.src], e.src))
            targets.setdefault(comps[e.src], set()).add(e.tgt)
        kept = {x: _entry_targets(g, parents, depth, x, labels) for x in {e.tgt for e in bqueue}}
        ranked = [(e, targets[comps[e.src]] <= kept[e.tgt]) for e in bqueue]
        ordered = [e for e, ok in ranked if ok] + [e for e, ok in ranked if not ok]
        j = len(record)
        record.append((len(ordered), sum(1 for _, ok in ranked if ok)))
        pick = ordered[choices[j] if j < len(choices) else 0]
        # nodes placed from here on lie in the pick's component (each forward
        # edge of a placed node ends in it), so only that one is searched again
        for v in members.pop(comps[pick.src]):
            del comps[v]
        place(pick.src, pick.tgt, pick, True)
    return UnrolledTree(g.root, labels, refs, edges)


def unroll(n: NormalizedGraph, tie_break="sorted") -> UnrolledTree:
    """Breadth-first expansion with separate forward and backward queues.
    Forward edges are always drained first; a backward edge is only taken
    when no forward edge is pending, entering an untraversed component at a
    point from which the component's remaining boundary edges stay
    resolvable. It is the first of iter_unrollings."""
    return next(iter_unrollings(n, tie_break))


def iter_unrollings(n: NormalizedGraph, tie_break="sorted", include_invalid=False):
    """Lazily yield unrollings, varying the backward entry choices. Variants
    are explored best-first by the number of deviations from the greedy
    (validity-ranked) picks, so the first yield is exactly
    unroll(n, tie_break) and near-greedy alternatives come early: a child
    deviates once more than its parent and is queued after it, so a FIFO
    queue holds them in that order.

    By default only entries the validity filter accepts are explored (the
    meaningful latent choice); include_invalid widens to every candidate,
    which the completeness harness uses for exhaustive negative proofs.
    """
    seen = set()
    emitted = pops = 0
    queue = deque([[]])
    while queue and emitted < MAX_UNROLLINGS and pops < 8 * MAX_UNROLLINGS:
        choices = queue.popleft()
        pops += 1
        record: list[tuple[int, int]] = []
        tree = _run_unroll(n, tie_break, choices, record)
        key = tuple(sorted(tree.edges))
        if key not in seen:
            seen.add(key)
            emitted += 1
            yield tree
        # children deviate at one juncture at or past the explicit prefix;
        # every choice vector is generated exactly once this way
        for j in range(len(choices), len(record)):
            total, valid = record[j]
            width = total if include_invalid else max(1, valid)
            for alt in range(1, width):
                queue.append(choices + [0] * (j - len(choices)) + [alt])


def enumerate_unrollings(n: NormalizedGraph):
    """All unrollings reachable by varying the valid backward entry choices."""
    return list(iter_unrollings(n, "sorted"))


# ---------------------------------------------------------------------------
# canonical trees


def canonical_constant(n: NormalizedGraph, node) -> SGraph:
    """Single-node constant: the node's label plus one placeholder slot per
    blob edge, every request empty."""
    slots = [(e.label, placeholder(e.tgt)) for e in sorted(n.graph.out_edges(node))]
    return constant(n.graph.label(node), node, slots)


def canonical_tree(u: UnrolledTree, n: NormalizedGraph) -> AMDepTree:
    """Label the unrolled tree with canonical constants; forward edges become
    apply edges on the target's placeholder, backward edges become modify
    edges on the parent's placeholder, and reference leaves become empty
    placeholder constants filling the slot they stand for."""
    nodes: dict[str, SGraph] = {}
    for nid in u.labels:
        nodes[nid] = canonical_constant(n, nid)
    for rid in u.refs:
        nodes[rid] = ref_placeholder(rid)
    edges = []
    for e in u.edges:
        source = placeholder(e.graph_edge.tgt)
        op = "MOD" if e.backward else "APP"
        edges.append(DepEdge(e.parent, e.child, op, source))
    return AMDepTree(nodes, u.root, edges)


def is_ref_node(tree: AMDepTree, node) -> bool:
    c = tree.constant(node)
    return (len(c.graph.nodes) == 1 and c.root_label() is None
            and not c.sources and c.typ.is_empty)


# ---------------------------------------------------------------------------
# resolution plans and Theorem-1 style checking


class ResolutionPlan(NamedTuple):
    targets: dict[str, str]  # node to resolve -> resolution target (ancestor)
    paths: dict[str, list[list[DepEdge]]]  # node -> paths, each from target down


class Violation(NamedTuple):
    node: str
    path: list[DepEdge]
    condition: int  # 1 or 2
    witness: DepEdge

    def to_json(self):
        return {
            "node": self.node,
            "path": [list(e) for e in self.path],
            "condition": self.condition,
            "witness": list(self.witness),
        }


class Theorem1Report(NamedTuple):
    decomposable: bool
    violations: list[Violation]

    def to_json(self):
        return {"decomposable": self.decomposable,
                "violations": [v.to_json() for v in self.violations]}


def _ancestors(tree: AMDepTree, node):
    chain = [node]
    while (e := tree.parent_edge(chain[-1])) is not None:
        chain.append(e.parent)
    return chain  # node first, root last


def _lca(chains):
    """Lowest node on every one of the ancestor chains."""
    common = set(chains[0]).intersection(*chains[1:])
    for n in chains[0]:
        if n in common:
            return n
    raise ValueError("no common ancestor")


def _chain_table(tree: AMDepTree) -> dict[str, list[list[str]]]:
    """Each referenced node -> the ancestor chains of its positions (the node
    and each of its reference leaves), in sorted order."""
    refs: dict[str, list[str]] = {}
    for node in tree.nodes:
        if is_ref_node(tree, node):
            refs.setdefault(placeholder_target(tree.parent_edge(node).source), []).append(node)
    return {y: [_ancestors(tree, p) for p in sorted([y] + leaves)] for y, leaves in refs.items()}


def _plan(tree: AMDepTree, chains, targets=None) -> ResolutionPlan:
    """The plan over a chain table. Every fact of a node's plan is a slice of
    its chains (a node without references has one, its own): the lowest
    common ancestor is the lowest node on all of them, the target must lie on
    them at or above it (without targets, it is the lowest common ancestor),
    and the path to a position is the parent edges of its chain below the
    target, top down."""
    for y in chains:
        if targets is not None and y not in targets:
            raise ValueError(f"plan must cover referenced node {y!r}")
    plan = ResolutionPlan({}, {})
    for y in sorted(chains if targets is None else targets):
        cs = chains.get(y) or [_ancestors(tree, y)]
        lca = _lca(cs)
        rt = lca if targets is None else targets[y]
        if rt not in cs[0][cs[0].index(lca):]:
            raise ValueError(f"target {rt!r} for {y!r} is below the common ancestor {lca!r}")
        plan.targets[y] = rt
        plan.paths[y] = [[tree.parent_edge(n) for n in reversed(c[:c.index(rt)])] for c in cs]
    return plan


def default_plan(tree: AMDepTree) -> ResolutionPlan:
    """Resolve exactly the referenced nodes, each at the lowest common
    ancestor of the node and all its reference leaves."""
    return _plan(tree, _chain_table(tree))


def build_plan(tree: AMDepTree, targets: dict[str, str]) -> ResolutionPlan:
    """Plan with explicit resolution targets (each at least as high as the
    default lowest common ancestor); may include nodes without references."""
    return _plan(tree, _chain_table(tree), targets)


def check_resolvable(tree: AMDepTree, plan: ResolutionPlan,
                     normalized: NormalizedGraph) -> Theorem1Report:
    """Exact per-path evaluation of the two resolvability conditions: the
    bottom-most edge of every resolution path must not be a modify edge, and
    every interior modify edge (not incident to the resolved node) needs a
    directed graph path from its parent to the resolved node."""
    reachable_from = functools.cache(normalized.graph.reachable_from)
    violations = []
    for y in sorted(plan.targets):
        for path in plan.paths[y]:
            if path and path[-1].op == "MOD":
                violations.append(Violation(y, path, 1, path[-1]))
            for e in path:
                if (e.op == "MOD" and e.parent != y and e.child != y
                        and y not in reachable_from(e.parent)):
                    violations.append(Violation(y, path, 2, e))
    return Theorem1Report(not violations, violations)


# ---------------------------------------------------------------------------
# resolution


def _add_request(typ: AMType, slot: str, addition: AMType, node) -> AMType:
    try:
        merged = type_unify(typ.request(slot), addition)
    except RequestClash as exc:
        raise ResolutionFailed(node, f"conflicting requests at {slot!r}: {exc}") from exc
    return typ.updated(slot, merged)


def resolve(tree: AMDepTree, plan: ResolutionPlan, debug=False) -> AMDepTree:
    """Remove every reference leaf, expressing the reentrancies through type
    requests instead, and attach each resolved node at its target.

    Nodes are processed so that a node is only handled once no other pending
    node's resolution path runs through it; within each step the edge order
    is immaterial. The steps edit one unchecked copy of the tree, and read
    the paths off the plan, which stays exact by the invariant stated below;
    a reference leaf's path ends at it. A moving node's subtree is typed on
    the copy, so a tree is checked only once, at the end. With debug=True a
    tree is also built and re-typechecked after every step (the intermediate
    trees, references included, must stay well-typed).
    """
    # A step moves only its own node and deletes only that node's reference
    # leaves, so every other node keeps its input parent edge until its own
    # step.
    t = tree._copy()

    # each path chains down from its target, so its nodes are the target and
    # every edge's child
    path_nodes = {y: {plan.targets[y]}.union(*({e.child for e in p} for p in plan.paths[y]))
                  for y in plan.targets}

    pending = set(plan.targets)
    while pending:
        y = next((y for y in sorted(pending)
                  if not any(y in path_nodes[x] for x in pending if x != y)), None)
        if y is None:
            raise ResolutionFailed(sorted(pending)[0],
                                   "circular resolution paths; no eligible node")
        rt = plan.targets[y]
        # The request recorded along a resolution path is the type of
        # whatever ultimately occupies the merged slot. At or above y that is
        # the subtree of y, which re-attaches by apply at the target; on path
        # segments strictly below y (a reference hanging under y's own
        # modifiers) the slot is instead met by y's root through a modify
        # operation, whose slot request must stay empty.
        if rt == y:
            tt = EMPTY_TYPE
        else:
            try:
                tt = term_type(t, y)
            except NotWellTyped as exc:
                raise ResolutionFailed(y, f"cannot type subtree: {exc}") from exc
        for path in plan.paths[y]:
            below_y = False
            for e in path:
                if e.parent == y:
                    below_y = True
                if e.op == "APP":
                    # the slot rule applies whenever the edge ends at y or at
                    # one of its reference leaves, not merely on the final
                    # path edge (a reference can sit below y itself)
                    value = EMPTY_TYPE if below_y else tt
                    slot, addition = ((placeholder(y), value) if e.child == y or e is path[-1]
                                      else (e.source, AMType({placeholder(y): value})))
                    t.nodes[e.parent] = t.nodes[e.parent].with_type(
                        _add_request(t.nodes[e.parent].typ, slot, addition, y))
                if e.child == y:
                    below_y = True
        if rt != y:
            t._move(y, DepEdge(rt, y, "APP", placeholder(y)))
        for path in plan.paths[y]:
            if path and path[-1].child != y:
                t._move(path[-1].child)
        pending.discard(y)
        if debug:
            try:
                check_well_typed(AMDepTree(t.nodes, t.root, t.edges))
            except NotWellTyped as exc:
                raise ResolutionFailed(y, f"tree ill-typed after step: {exc}") from exc
    return AMDepTree(t.nodes, t.root, t.edges)


# ---------------------------------------------------------------------------
# modify-edge swapping


def modify_swap(tree: AMDepTree, pairs) -> AMDepTree:
    """Swap consecutive modify edges: for each pair (n->m, m->k) the node k
    becomes the modifier of n and m becomes an apply child of k, with m's
    term type recorded as the request at m's slot in k's constant. The swaps
    edit one unchecked copy of the tree, which is checked once, at the end."""
    t = tree._copy()
    used = set()
    for (n, m), (m2, k) in pairs:
        if m2 != m:
            raise InvalidSwapPair(f"pair ({n},{m});({m2},{k}) is not consecutive")
        top, bot = t.parent_edge(m), t.parent_edge(k)
        if top is None or bot is None or top.parent != n or bot.parent != m:
            raise InvalidSwapPair(f"edges ({n},{m}) and ({m},{k}) not found")
        if top.op != "MOD" or top.source != placeholder(n):
            raise InvalidSwapPair(f"edge ({n},{m}) is not MOD_{placeholder(n)}")
        if bot.op != "MOD" or bot.source != placeholder(m):
            raise InvalidSwapPair(f"edge ({m},{k}) is not MOD_{placeholder(m)}")
        if top in used or bot in used:
            raise InvalidSwapPair("edge appears in two pairs")
        used.update((top, bot))
        tt = term_type(t, m)
        if placeholder(n) not in tt.names():
            raise InvalidSwapPair(
                f"term type of {m!r} lacks {placeholder(n)!r}; swap would detach the modifier")
        t._move(k, DepEdge(n, k, "MOD", placeholder(n)))
        t._move(m, DepEdge(k, m, "APP", placeholder(m)))
        t.nodes[k] = t.nodes[k].with_type(_add_request(t.nodes[k].typ, placeholder(m), tt, k))
    return AMDepTree(t.nodes, t.root, t.edges)


def consecutive_mod_pairs(tree: AMDepTree):
    """All candidate swap pairs present in the tree."""
    out = []
    for e in tree.edges:
        if e.op != "MOD" or e.source != placeholder(e.parent):
            continue
        for f in tree.children(e.child):
            if f.op == "MOD" and f.source == placeholder(e.child):
                out.append(((e.parent, e.child), (f.parent, f.child)))
    return out


# ---------------------------------------------------------------------------
# full pipeline


class NonDecomposable(NamedTuple):
    reason: str
    report: Theorem1Report | None = None

    def to_json(self):
        return {"reason": self.reason,
                "report": self.report.to_json() if self.report else None}


class Decomposition(NamedTuple):
    tree: AMDepTree
    normalized: NormalizedGraph


def _normalize(g: SemanticGraph, heuristics: BlobHeuristics | None) -> NormalizedGraph:
    heuristics = heuristics or BlobHeuristics.default_table()
    return normalize_edges(g, partition_blobs(g, heuristics))


def _candidates(n: NormalizedGraph, unrollings, with_swaps=False, with_lifts=False):
    """The one candidate-verify loop: for each unrolling, its canonical tree
    (plus, with_swaps, each single modify-edge swap of it) under its default
    plan (with_lifts, every plan of _lifts), each built from the candidate's
    one chain table, is checked for resolvability, resolved, typed and evaluated against the
    normalized graph. Yields (tree, None) for a candidate that verifies and
    (None, NonDecomposable) with the first check it failed otherwise."""
    for u in unrollings:
        try:
            base = canonical_tree(u, n)
        except ValueError as exc:
            yield None, NonDecomposable(f"no canonical tree: {exc}")
            continue
        variants = [base]
        if with_swaps:
            for pair in consecutive_mod_pairs(base):
                try:
                    variants.append(modify_swap(base, [pair]))
                except (InvalidSwapPair, NotWellTyped):
                    pass  # a pair that cannot swap, or whose swap does not type
        for cand in variants:
            chains = _chain_table(cand)
            plans = ((_plan(cand, chains, targets) for targets in _lifts(chains))
                     if with_lifts else [_plan(cand, chains)])
            for plan in plans:
                report = check_resolvable(cand, plan, n)
                if not report.decomposable:
                    yield None, NonDecomposable("resolution conditions violated", report)
                    continue
                try:
                    t = resolve(cand, plan)
                    why = (None if is_isomorphic(evaluate(t), n.graph)
                           else "resolved tree does not evaluate to the input graph")
                except NonEmptyRootType as exc:
                    why = f"resolved tree has open sources {exc.typ}"
                except AmdepError as exc:
                    why = f"resolution failed: {exc}"
                yield (t, None) if why is None else (None, NonDecomposable(why, report))


def decompose(g: SemanticGraph, heuristics: BlobHeuristics | None = None,
              tie_break="sorted"):
    """Full pipeline: blob partition, edge normalization, unrolling,
    canonical tree, resolvability check, resolution, and a final round-trip
    verification. Returns a Decomposition or a NonDecomposable report.

    Backward entry points into not-yet-traversed components interact
    non-locally with resolvability, so unrollings are tried lazily in
    tie-break order until one verifies; the first candidate almost always
    succeeds and the result is deterministic for a fixed tie_break. When none
    verifies, the report is the first candidate's failure.
    """
    n = _normalize(g, heuristics)
    if not n.graph.is_acyclic():
        return NonDecomposable("normalized graph has a directed cycle")
    first_failure = None
    for t, failure in _candidates(n, iter_unrollings(n, tie_break)):
        if t is not None:
            return Decomposition(t, n)
        first_failure = first_failure or failure
    return first_failure or NonDecomposable("no unrolling found")


def enumerate_candidate_trees(g: SemanticGraph, heuristics=None, tie_break="sorted",
                              with_swaps=True, with_lifts=False, include_invalid_entries=True):
    """Bounded exploration of the decomposition space: every unrolling entry
    choice, optionally every single modify-edge swap and every lifted
    resolution target. Returns the distinct trees that verify (well-typed
    and evaluating to the normalized input), in the order first found."""
    n = _normalize(g, heuristics)
    if not n.graph.is_acyclic():
        return []
    unrollings = iter_unrollings(n, tie_break, include_invalid=include_invalid_entries)
    found = {}
    for t, _failure in _candidates(n, unrollings, with_swaps, with_lifts):
        if t is not None:
            found.setdefault(_tree_key(t), t)
    return list(found.values())


def _lifts(chains):
    """The targets of every plan over a chain table whose targets lie at or
    above the default ones."""
    plans = [{}]
    for y in sorted(chains):
        chain = chains[y][0]
        above = chain[chain.index(_lca(chains[y])):]
        plans = [dict(pl, **{y: a}) for pl in plans for a in above]
    return plans


def _tree_key(t: AMDepTree):
    return (
        tuple(sorted(t.edges)),
        tuple(sorted((nid, canonical_constant_form(c)) for nid, c in t.nodes.items())),
    )
