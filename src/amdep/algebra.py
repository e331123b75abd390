"""The apply/modify graph algebra: the operations apply and modify on
s-graphs, dependency trees and their files, and the one bottom-up pass
(``fold``) that types and evaluates a tree. The values it works on, AM
types, s-graphs and their canonical text, live in ``values`` and are
imported here under the same names.
"""

from __future__ import annotations

from bisect import insort
from typing import NamedTuple

from .errors import (
    LabelClash,
    MissingSource,
    ModAddsSources,
    NonEmptyModRequest,
    NonEmptyRootType,
    NotWellTyped,
    RequestClash,
    RequestMismatch,
)
from .files import TREES_ITEM, read_items, write_json
from .values import (  # some only for the modules that import them from here
    EMPTY_TYPE,
    MAX_TYPE_DEPTH,
    AMType,
    Edge,
    SemanticGraph,
    SGraph,
    _LeafLayout,
    canonical_constant_form,
    constant_from_canonical,
    is_placeholder,
    placeholder,
    placeholder_target,
    skeleton_form,
    type_unify,
)


# ---------------------------------------------------------------------------
# s-graphs


def constant(label, node_id, slots=(), typ=None) -> SGraph:
    """Convenience builder for single-node constants.

    slots: iterable of (edge_label, source_name); slot nodes are unlabeled
    and named after their source. typ defaults to empty requests.
    """
    nodes = {node_id: label}
    edges = []
    sources = {}
    for edge_label, src_name in slots:
        slot_id = sources.get(src_name)
        if slot_id is None:
            slot_id = f"{node_id}@{src_name}"
            nodes[slot_id] = None
            sources[src_name] = slot_id
        edges.append(Edge(node_id, slot_id, edge_label))
    t = typ if typ is not None else AMType({s: EMPTY_TYPE for s in sources})
    return SGraph(SemanticGraph(nodes, edges, node_id), node_id, sources, t)


def ref_placeholder(node_id: str) -> SGraph:
    """Empty-type single unlabeled node; fills a slot without contributing."""
    return SGraph(SemanticGraph({node_id: None}, [], node_id), node_id, {}, EMPTY_TYPE)


def _merge_label(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise LabelClash(a, b)


def apply(head: SGraph, arg: SGraph, source: str) -> SGraph:
    """Plug the root of arg into the named source slot of head. Shared source
    names denote one merged node afterwards; the result keeps head's root."""
    cells = _Cells()
    value = cells.value(head)
    cells.apply(value, cells.value(arg), source)
    return cells.sgraph(value)


def modify(head: SGraph, mod: SGraph, source: str) -> SGraph:
    """Plug head's root into the named slot of the modifier; the modifier's
    remaining sources must already be in head's type and merge by name. The
    result keeps head's root and type."""
    cells = _Cells()
    value = cells.value(head)
    cells.modify(value, cells.value(mod), source)
    return cells.sgraph(value)


class _Value:
    """An s-graph while it is being evaluated: its node ids in node order,
    each with its cell, the cells of its root and sources, and its type.
    A merge changes the host value in place and uses up the guest."""

    __slots__ = ("nodes", "root", "sources", "typ")

    def __init__(self, nodes, root, sources, typ):
        self.nodes = nodes  # node id -> cell
        self.root = root
        self.sources = sources  # source name -> cell
        self.typ = typ


class _Cells:
    """The node cells of one evaluation, where apply and modify merge values
    in place. Every node of every constant is a cell holding a label and a
    union-find parent (Tarjan 1975), and each constant's edges are recorded
    once, as (cell, cell, label). A merge links each mapped guest cell to
    its host cell and gives each other guest cell an id in the host, so no
    graph is built until the end. Every value made here must end up merged
    into the one that is finally turned into a graph."""

    __slots__ = ("parent", "label", "edges")

    def __init__(self):
        self.parent = []
        self.label = []
        self.edges = []

    def value(self, c: SGraph) -> _Value:
        """A fresh value of c, one new cell per node in c's node order."""
        base = len(self.parent)
        cell = {n: base + i for i, n in enumerate(c.graph.nodes)}
        self.parent.extend(cell.values())
        self.label.extend(c.graph.nodes.values())
        self.edges.extend((cell[e.src], cell[e.tgt], e.label) for e in c.graph.edges)
        return _Value(cell, cell[c.root], {k: cell[v] for k, v in c.sources.items()}, c.typ)

    def _merge(self, host: _Value, guest: _Value, mapping):
        """Move guest's nodes into host in guest order. A cell in mapping
        (guest cell -> host cell) merges its label into its host cell; any
        other keeps its id, or takes the first of id~1, id~2... that the
        host does not hold yet."""
        nodes, label, parent = host.nodes, self.label, self.parent
        for n, c in guest.nodes.items():
            tgt = mapping.get(c)
            if tgt is None:
                nid, k = n, 0
                while nid in nodes:
                    k += 1
                    nid = f"{n}~{k}"
                nodes[nid] = c
            else:
                label[tgt] = _merge_label(label[tgt], label[c])
                parent[c] = tgt

    def apply(self, head: _Value, arg: _Value, source, typ=None):
        """apply(head, arg, source) in place on head. typ, the result type,
        is computed here unless the caller has it already."""
        sources = head.sources
        req = head.typ.request(source)
        if req != arg.typ:
            raise RequestMismatch(source, req, arg.typ)
        if typ is None:
            typ = type_unify(head.typ.without(source), arg.typ)
        mapping = {arg.root: sources[source]}
        for name, c in arg.sources.items():
            if name in sources and name != source:
                mapping.setdefault(c, sources[name])
        self._merge(head, arg, mapping)
        head.sources = {
            name: sources[name] if name in sources and name != source
            else mapping.get(arg.sources[name], arg.sources[name])
            for name in typ.names()}
        head.typ = typ

    def modify(self, head: _Value, mod: _Value, source):
        """modify(head, mod, source) in place on head."""
        if not mod.typ.request(source).is_empty:
            raise NonEmptyModRequest(source)
        leftover = [(name, req) for name, req in mod.typ.entries if name != source]
        extra = [name for name, _req in leftover if name not in head.typ]
        if extra:
            raise ModAddsSources(extra)
        mapping = {mod.sources[source]: head.root}
        for name, req in leftover:
            if head.typ.request(name) != req:
                raise RequestClash(name, head.typ.request(name), req)
            mapping.setdefault(mod.sources[name], head.sources[name])
        self._merge(head, mod, mapping)

    def step(self, n, head: _Value, edge: DepEdge, child: _Value, typ: AMType) -> _Value:
        """fold's step at tree node n: merge child into head in place. typ
        is head's type after the step, as typing computed it."""
        if edge.op == "APP":
            self.apply(head, child, edge.source, typ)
        else:
            self.modify(head, child, edge.source)
        return head

    def graph(self, value: _Value) -> SemanticGraph:
        """The graph of value, with each recorded edge between the ids of
        its cells' representatives."""
        parent = self.parent
        name = {c: n for n, c in value.nodes.items()}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        label = self.label
        return SemanticGraph({n: label[c] for n, c in value.nodes.items()},
                             [Edge(name[find(s)], name[find(t)], lbl) for s, t, lbl in self.edges],
                             name[value.root])

    def sgraph(self, value: _Value) -> SGraph:
        graph = self.graph(value)
        name = {c: n for n, c in value.nodes.items()}
        return SGraph(graph, graph.root, {k: name[c] for k, c in value.sources.items()},
                      value.typ)


# ---------------------------------------------------------------------------
# dependency trees

class DepEdge(NamedTuple):
    parent: str
    child: str
    op: str  # "APP" | "MOD"
    source: str


def child_order(e: DepEdge):
    """The order of a node's children: by operation, then source, then id."""
    return e.op, e.source, e.child


class AMDepTree:
    """Tree whose nodes are graph constants and whose edges carry apply or
    modify operations. Node ids are opaque strings. Each edge is kept twice:
    as its child's parent edge, in edge order (the input order), and in its
    parent's child list, in child_order."""

    def __init__(self, nodes: dict[str, SGraph], root: str, edges):
        self.nodes = dict(nodes)
        self.root = root
        self._children: dict[str, list[DepEdge]] = {n: [] for n in self.nodes}
        self._parent: dict[str, DepEdge] = {}
        for e in edges:
            e = e if isinstance(e, DepEdge) else DepEdge(*e)
            if e.parent not in self.nodes or e.child not in self.nodes:
                raise ValueError(f"edge {e} references unknown node")
            if e.op not in ("APP", "MOD"):
                raise ValueError(f"bad operation {e.op!r}")
            self._children[e.parent].append(e)
            if e.child in self._parent:
                raise ValueError(f"node {e.child!r} has two parents")
            self._parent[e.child] = e
        if root not in self.nodes:
            raise ValueError(f"root {root!r} is not a node")
        if root in self._parent:
            raise ValueError("root has a parent")
        # one parent per node and none for the root: a walk from the root
        # meets each node at most once, and misses every node on a cycle
        reach = [root]
        reached = 1
        while reach:
            for e in self._children[reach.pop()]:
                reached += 1
                reach.append(e.child)
        if reached != len(self.nodes):
            raise ValueError("tree is not connected")
        for n, kids in self._children.items():
            pairs = [(e.op, e.source) for e in kids if e.op == "APP"]
            if len(pairs) != len(set(pairs)):
                raise ValueError(f"node {n!r} has two APP children on one source")
            kids.sort(key=child_order)

    @property
    def edges(self) -> list[DepEdge]:
        return list(self._parent.values())

    def parent_edge(self, node):
        return self._parent.get(node)

    def children(self, node):
        return list(self._children[node])

    def constant(self, node) -> SGraph:
        return self.nodes[node]

    def depth_order(self, node=None):
        """Nodes of the subtree at node (default: the root) ordered so
        children precede parents; a subtree's order is the whole tree's
        order restricted to it."""
        order = []
        stack = [(self.root if node is None else node, False)]
        while stack:
            n, done = stack.pop()
            if done:
                order.append(n)
            else:
                stack.append((n, True))
                for e in self._children[n]:
                    stack.append((e.child, False))
        return order

    def _copy(self) -> "AMDepTree":
        """An unchecked copy to edit with _move and by assigning to its
        nodes; AMDepTree(copy.nodes, copy.root, copy.edges) checks it."""
        t = AMDepTree.__new__(AMDepTree)
        t.nodes, t.root, t._parent = dict(self.nodes), self.root, dict(self._parent)
        t._children = {n: list(kids) for n, kids in self._children.items()}
        return t

    def _move(self, node, edge=None):
        """Detach node from its parent and attach it by edge, which goes
        last in edge order; without edge, delete node, a leaf."""
        old = self._parent.pop(node)
        self._children[old.parent].remove(old)
        if edge is None:
            del self.nodes[node], self._children[node]
        else:
            self._parent[node] = edge
            insort(self._children[edge.parent], edge, key=child_order)

    def to_json(self):
        return {
            "root": self.root,
            "nodes": {n: c.to_json() for n, c in sorted(self.nodes.items())},
            "edges": [
                {"parent": e.parent, "child": e.child, "op": e.op, "source": e.source}
                for e in sorted(self.edges)
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "AMDepTree":
        nodes = {n: SGraph.from_json(c) for n, c in obj["nodes"].items()}
        edges = [DepEdge(e["parent"], e["child"], e["op"], e["source"]) for e in obj["edges"]]
        return cls(nodes, obj["root"], edges)

    def __eq__(self, other):
        return (
            isinstance(other, AMDepTree)
            and self.root == other.root
            and self.nodes == other.nodes
            and sorted(self.edges) == sorted(other.edges)
        )


def read_trees(path):
    """Read a trees file into (id, AMDepTree) pairs; a malformed file or item
    raises MalformedInput naming the path and the item's id (or #index)."""
    return read_items(path, TREES_ITEM, lambda item: AMDepTree.from_json(item["tree"]))


def write_trees(trees, path):
    write_json([{"id": tid, "tree": t.to_json()} for tid, t in trees], path)


# ---------------------------------------------------------------------------
# evaluation

# A child filling source α by APP must wait while α is still an open source
# of a sibling whose α slot merges with the head's α slot by name: applying
# it earlier would consume the slot before the sibling's delayed copy can
# merge with it, silently changing the result. An APP sibling merges every
# source of its type that way (type_unify). A MOD sibling merges only its
# leftover sources, those other than the slot it attaches by: that slot
# merges with the head's root (see modify), whatever the head's α slot holds
# at the time. So a modifier attached by α does not block APP at α. Filling
# α first changes none of the modifier's merges, and _inadmissible still
# checks the leftover against the head type when the modifier is consumed.
# With this blocking rule all admissible orders are confluent.


def _inadmissible(head_type, edge, child_type, others):
    """Why the child on edge cannot be consumed next by a head of type
    head_type, or None when it can. others are the (edge, child type) pairs
    of the siblings still pending."""
    source = edge.source
    if edge.op == "APP":
        if source not in head_type:
            return f"head type {head_type} has no source {source!r}"
        if head_type.request(source) != child_type:
            return (f"request at {source!r} is {head_type.request(source)}, "
                    f"child has type {child_type}")
        for other_edge, other_type in others:
            if other_edge.op == "MOD" and other_edge.source == source:
                continue
            if source in other_type.names():
                return f"source {source!r} still open in sibling {other_edge.child!r}"
        return None
    if source not in child_type:
        return f"modifier type {child_type} has no source {source!r}"
    if not child_type.request(source).is_empty:
        return f"modifier slot {source!r} has non-empty request"
    leftover = child_type.without(source)
    for name in leftover.names():
        if name not in head_type:
            return f"modifier would add source {name!r}"
        if head_type.request(name) != leftover.request(name):
            return f"modifier and head disagree on request at {name!r}"
    return None


def _consumed(head_type, edge, child_type):
    """The head's type after consuming the child on edge: APP unifies the
    child's type into it in place of the filled source, MOD leaves it."""
    if edge.op == "APP":
        return type_unify(head_type.without(edge.source), child_type)
    return head_type


def _fold_order(node, head_type, pending):
    """fold's default order, greedy: each step consumes the first child in
    pending (in child_order) that is admissible. Raises NotWellTyped when
    stuck, and RequestClash when an APP clashes, which fold names node in."""
    remaining = list(pending)
    while remaining:
        reasons = []
        for i, (edge, ctype) in enumerate(remaining):
            why = _inadmissible(head_type, edge, ctype, remaining[:i] + remaining[i + 1:])
            if why is None:
                break
            reasons.append(f"{edge.op}_{edge.source}->{edge.child}: {why}")
        else:
            raise NotWellTyped(node, "no admissible child; " + "; ".join(reasons))
        del remaining[i]
        head_type = _consumed(head_type, edge, ctype)
        yield edge, head_type


def fold(tree: AMDepTree, node=None, leaf=None, step=None, order=_fold_order):
    """The one bottom-up pass over the subtree at node (default: the root).

    Each node n consumes its children in the order that order(n,
    head_type, pending) yields, as (edge, head type after it) pairs, where
    pending lists n's children with their term types in child_order; the
    default, _fold_order, is the greedy admissible order. leaf(n) is n's
    starting value and step(n, value, edge, child_value, head_type) the
    value after consuming one child, where head_type is the node's type
    after it; step runs as soon as the child is chosen, so an evaluation
    error surfaces before the search looks at later children. Evaluation
    passes one mutable value per node that step merges each child into
    (see _Cells). An operation error, in typing or in step, is raised as
    NotWellTyped at n. Without leaf and step only types are computed.
    Returns node's (term type, value).
    """
    node = tree.root if node is None else node
    types: dict[str, AMType] = {}
    values = {}
    for n in tree.depth_order(node):
        head = tree.constant(n).typ
        value = leaf(n) if leaf else None
        try:
            for edge, head in order(n, head, [(e, types[e.child]) for e in tree.children(n)]):
                if step:
                    value = step(n, value, edge, values.pop(edge.child), head)
        except (MissingSource, RequestMismatch, NonEmptyModRequest,
                ModAddsSources, RequestClash, LabelClash) as exc:
            raise NotWellTyped(n, str(exc)) from exc
        types[n] = head
        values[n] = value
    return types[node], values[node]


def check_well_typed(tree: AMDepTree) -> AMType:
    """Type-level simulation of evaluation; returns the root term type."""
    return fold(tree)[0]


def term_type(tree: AMDepTree, node: str) -> AMType:
    """Type of the result of evaluating the subtree rooted at node."""
    return fold(tree, node)[0]


def evaluate(tree: AMDepTree) -> SemanticGraph:
    """Type the tree, then evaluate it to a plain graph. The errors, in the
    order they are looked for: the first typing error, an open root type
    (NonEmptyRootType), the first apply/modify error, a node left
    unlabeled. Evaluation replays the child orders and head types typing
    chose, merging every subtree into one mutable value (_Cells), and
    builds one graph at the end."""
    steps = {n: [] for n in tree.nodes}
    typ = fold(tree, step=lambda n, _value, edge, _child, head: steps[n].append((edge, head)))[0]
    if not typ.is_empty:
        raise NonEmptyRootType(typ)
    cells = _Cells()
    value = fold(tree, None, lambda n: cells.value(tree.constant(n)), cells.step,
                 lambda n, _head, _pending: steps[n])[1]
    for n, c in value.nodes.items():
        if cells.label[c] is None:
            raise NotWellTyped(None, f"evaluation leaves node {n!r} unlabeled")
    return cells.graph(value)


def admissible_orders(tree: AMDepTree, node, types):
    """All admissible child consumption orders at one node (for testing the
    order-invariance property). types maps node -> term type."""
    kids = tree.children(node)
    if len(kids) > 8:
        raise ValueError("too many children to enumerate")

    def rec(head_type, remaining):
        if not remaining:
            yield []
            return
        for i, (edge, ctype) in enumerate(remaining):
            others = remaining[:i] + remaining[i + 1:]
            if _inadmissible(head_type, edge, ctype, others) is None:
                for rest in rec(_consumed(head_type, edge, ctype), others):
                    yield [edge] + rest

    pending = [(e, types[e.child]) for e in kids]
    return list(rec(tree.constant(node).typ, pending))


def evaluate_with_orders(tree: AMDepTree, orders: dict[str, list]) -> SGraph:
    """Evaluate with an explicit child order at selected nodes (each must be
    admissible); other nodes fold in the default greedy order."""
    def _given_order(n, head_type, pending):
        """orders[n] where given, typed like _fold_order but unchecked."""
        if n not in orders:
            yield from _fold_order(n, head_type, pending)
            return
        types = {e.child: t for e, t in pending}
        for edge in orders[n]:
            head_type = _consumed(head_type, edge, types[edge.child])
            yield edge, head_type

    cells = _Cells()
    value = fold(tree, None, lambda n: cells.value(tree.constant(n)), cells.step, _given_order)[1]
    return cells.sgraph(value)
