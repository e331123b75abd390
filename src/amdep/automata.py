"""Per-graph bottom-up tree automata over source-name assignments.

A decomposed tree (placeholder sources) is binarized; the automaton's states
pair a node address in the binarized tree with a partial map from placeholder
names to reusable names, and its runs are exactly the consistent renamings
that stay well-typed.
"""

from __future__ import annotations

import json
import logging
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .algebra import (
    AMDepTree,
    DepEdge,
    SGraph,
    canonical_constant_form,
    constant_from_canonical,
    fold,
    placeholder,
    placeholder_target,
)
from .errors import MalformedInput, UnsupportedName, open_input

log = logging.getLogger("amdep.automata")


# ---------------------------------------------------------------------------
# binarization


@dataclass
class BinNode:
    address: str  # "" is the root; child i of pi has address pi + str(i)
    # leaf fields
    const: SGraph | None = None
    tree_node: str | None = None
    # operation fields
    op: str | None = None  # "APP" | "MOD"
    source: str | None = None  # placeholder source of the operation
    dep_parent: str | None = None
    dep_child: str | None = None
    left: "BinNode | None" = None
    right: "BinNode | None" = None

    @property
    def is_leaf(self):
        return self.const is not None

    def walk(self):
        yield self
        if not self.is_leaf:
            yield from self.left.walk()
            yield from self.right.walk()


def binarize(tree: AMDepTree) -> BinNode:
    """Fold each node's constant with its children in the deterministic
    admissible order; the head side is always the left child."""
    _typ, root = fold(
        tree,
        leaf=lambda n: BinNode("", const=tree.constant(n), tree_node=n),
        step=lambda _n, left, edge, right: BinNode(
            "", op=edge.op, source=edge.source, dep_parent=edge.parent,
            dep_child=edge.child, left=left, right=right))
    _assign_addresses(root, "")
    return root


def _assign_addresses(node: BinNode, addr: str):
    node.address = addr
    if not node.is_leaf:
        _assign_addresses(node.left, addr + "0")
        _assign_addresses(node.right, addr + "1")


# ---------------------------------------------------------------------------
# automaton


@dataclass(frozen=True, order=True)
class State:
    address: str
    phi: tuple[tuple[str, str], ...]  # sorted (placeholder -> reusable) pairs

    def __str__(self):
        addr = self.address or "e"
        inside = ",".join(f"{placeholder_target(k)}={v}" for k, v in self.phi)
        return f"{addr}:{{{inside}}}"


@dataclass
class Rule:
    rid: int
    parent: State
    label: str  # canonical constant JSON for leaves, "APP_x"/"MOD_x" for ops
    children: tuple[State, ...]
    event: tuple  # ("const", canonical) | ("edge", kind, reusable source)
    align: tuple  # ("node", node_label) | ("edge", parent_label, child_label)

    def __str__(self):
        kids = ", ".join(str(c) for c in self.children)
        return f"{self.parent} <- {self.label}({kids})"


def rule_event_key(rule) -> str:
    if rule.event[0] == "const":
        return "const " + rule.event[1]
    return f"edge {rule.event[1]} {rule.event[2]}"


class TreeAutomaton:
    """A graph's rules plus the bottom-up index every query runs on, built
    once when the automaton is made; an automaton is immutable after that.

    ``rules`` lists the rules in id order, 0..n-1. ``state_list`` numbers
    the states bottom-up: every child state of a rule has a smaller index
    than the rule's parent, so one pass in index order visits children
    before parents. ``state_rules[q]`` holds the ids of the rules with
    parent state q in ascending order, ``children[rid]`` the child state
    indices of rule rid, and ``accept`` the indices of the final states in
    the order of ``finals``. ``shape`` maps each address of the binarized
    tree to its leaf or operation descriptor (for reconstruction).
    """

    def __init__(self, graph_id: str, sources, rules, finals, shape: dict[str, dict]):
        self.graph_id = graph_id
        self.sources: tuple[str, ...] = tuple(sources)
        self.rules: list[Rule] = list(rules)
        self.finals: list[State] = list(finals)
        self.shape = shape
        if [r.rid for r in self.rules] != list(range(len(self.rules))):
            raise ValueError(f"automaton {graph_id!r}: rule ids are not "
                             f"0..{len(self.rules) - 1} in order")
        seen = dict.fromkeys(s for r in self.rules for s in (r.parent, *r.children))
        self.state_list: list[State] = sorted(seen, key=lambda s: -len(s.address))
        index = {s: i for i, s in enumerate(self.state_list)}
        self.state_rules: list[list[int]] = [[] for _ in self.state_list]
        self.children: list[tuple[int, ...]] = []
        for r in self.rules:
            parent = index[r.parent]
            kids = tuple(index[c] for c in r.children)
            if any(k >= parent for k in kids):
                raise ValueError(f"automaton {graph_id!r}: rule {r.rid} has a child "
                                 "state no deeper than its parent")
            self.state_rules[parent].append(r.rid)
            self.children.append(kids)
        self.accept: list[int] = [index[f] for f in self.finals if f in index]

    @property
    def empty(self) -> bool:
        return not self.finals

    def states(self):
        return set(self.state_list)

    @cached_property
    def event_keys(self) -> list[str]:
        """The event key of each rule, by rule id: EM, its baseline and
        Viterbi share this one list per automaton."""
        return [rule_event_key(r) for r in self.rules]


def bottom_up(a: TreeAutomaton, weights, times, plus):
    """Value of every state (a list by state index) in one bottom-up pass
    over a semiring: ``plus`` over the state's rules, in id order, of the
    rule's weight ``times`` its children's values, left to right. Counting
    is (sum, *) on integers, inside scores (logsumexp, +) on log weights and
    Viterbi (max, +)."""
    value: list = [None] * len(a.state_list)
    children = a.children
    for q, rids in enumerate(a.state_rules):
        terms = []
        for rid in rids:
            t = weights[rid]
            for k in children[rid]:
                t = times(t, value[k])
            terms.append(t)
        value[q] = plus(terms)
    return value


def _alignments(shape):
    """Alignment anchor of the rules at each address of a shape: a leaf's
    constant's root label, or for an operation the root labels of the
    leftmost leaves of its head and dependent sides. Each leaf constant is
    parsed once."""
    label = {addr: constant_from_canonical(d["const"]).root_label()
             for addr, d in shape.items() if d["kind"] == "leaf"}
    depth = max(map(len, shape), default=0)

    def leftmost(addr):
        while addr not in label:
            if len(addr) > depth:
                raise ValueError(f"automaton shape has no leaf below address {addr!r}")
            addr += "0"
        return label[addr]

    return {addr: ("node", label[addr]) if d["kind"] == "leaf"
            else ("edge", leftmost(addr + "0"), leftmost(addr + "1"))
            for addr, d in shape.items()}


def _phi_consistent(phi1, phi2):
    d2 = dict(phi2)
    return all(d2.get(k, v) == v for k, v in phi1)


def build_automaton(tree: AMDepTree, sources, graph_id="") -> TreeAutomaton:
    """One leaf rule per injective assignment of a constant's placeholders
    (nested request names included) to reusable sources; operation rules
    percolate the head-side assignment upward when the two child assignments
    agree on their shared placeholders. A leaf renaming that would give one
    level of the constant's type a name twice, a placeholder renamed onto a
    source name the constant already carries, is skipped with a warning.
    graph_id names the automaton and its warnings."""
    sources = tuple(sources)
    where = f"graph {graph_id}: " if graph_id else ""
    for ch in "(){}=,:# ":
        if any(ch in s for s in sources):
            raise UnsupportedName(f"source name containing {ch!r} unsupported")
    b = binarize(tree)
    rules_at: dict[str, list] = {}
    states_at: dict[str, list] = {}
    shape: dict[str, dict] = {}

    for node in b.walk():
        if not node.is_leaf:
            continue
        ph = sorted(node.const.placeholders())
        if any(ch in node.tree_node for ch in "(){}=,:# "):
            raise UnsupportedName(f"{where}node id {node.tree_node!r} unsupported "
                                  "in automaton files")
        shape[node.address] = {"kind": "leaf", "node": node.tree_node,
                               "const": canonical_constant_form(node.const)}
        lst = []
        clashes = 0
        if len(ph) <= len(sources):
            for combo in permutations(sources, len(ph)):
                phi = tuple(zip(ph, combo))
                try:
                    renamed = node.const.rename_sources(dict(phi))
                except ValueError:  # a placeholder renamed onto a name its level already has
                    clashes += 1
                    continue
                lst.append((State(node.address, phi), canonical_constant_form(renamed), ()))
        rules_at[node.address] = lst
        states_at[node.address] = sorted({st for st, _, _ in lst})
        if clashes:
            log.warning("%sconstant at %s: skipped %d renamings of its placeholders onto "
                        "source names it already carries", where, node.tree_node, clashes)
        elif not lst:
            log.warning("%sconstant at %s has %d placeholders but only %d sources",
                        where, node.tree_node, len(ph), len(sources))

    for node in sorted((n for n in b.walk() if not n.is_leaf),
                       key=lambda n: -len(n.address)):
        shape[node.address] = {"kind": "op", "op": node.op, "source": node.source,
                               "parent": node.dep_parent, "child": node.dep_child}
        lst = []
        for s1 in states_at[node.address + "0"]:
            for s2 in states_at[node.address + "1"]:
                if not _phi_consistent(s1.phi, s2.phi):
                    continue
                phi1, phi2 = dict(s1.phi), dict(s2.phi)
                if node.op == "APP":
                    if node.source not in phi1:
                        continue
                    name = phi1[node.source]
                else:
                    if node.source not in phi2:
                        continue
                    name = phi2[node.source]
                parent = State(node.address, s1.phi)
                lst.append((parent, f"{node.op}_{name}", (s1, s2)))
        rules_at[node.address] = lst
        states_at[node.address] = sorted({st for st, _, _ in lst})

    finals = states_at.get("", [])
    # prune: keep states that reach a final state top-down
    useful: set[State] = set(finals)
    for addr in sorted(rules_at, key=len):
        for parent, _lbl, children in rules_at[addr]:
            if parent in useful:
                useful.update(children)
    rules: list[Rule] = []
    aligns = _alignments(shape)
    for addr in sorted(rules_at):
        for parent, lbl, children in rules_at[addr]:
            if parent not in useful or any(c not in useful for c in children):
                continue
            rules.append(Rule(len(rules), parent, lbl, children, _event(lbl, children),
                              aligns[addr]))
    fa = TreeAutomaton(graph_id, sources, rules, [f for f in finals if f in useful], shape)
    if fa.empty:
        log.warning("%sautomaton accepts no trees (source inventory too small?)", where)
    return fa


def _event(label, children):
    if children:
        kind, name = label.split("_", 1)
        return ("edge", kind, name)
    return ("const", label)


# ---------------------------------------------------------------------------
# counting / enumeration / reconstruction


def subtree_counts(a: TreeAutomaton) -> list[int]:
    """Number of runs below each state: the bottom-up pass over integers."""
    return bottom_up(a, [1] * len(a.rules), operator.mul, sum)


def count_trees(a: TreeAutomaton) -> int:
    """Exact number of accepted trees (unit-weight inside with integers)."""
    counts = subtree_counts(a)
    return sum(counts[f] for f in a.accept)


@dataclass(frozen=True)
class Run:
    rule: int
    children: tuple["Run", ...] = ()

    def rule_ids(self):
        out = [self.rule]
        for c in self.children:
            out.extend(c.rule_ids())
        return out


def enumerate_runs(a: TreeAutomaton, limit=None):
    """Accepted runs in lexicographic order of their preorder rule-id
    sequences, truncated at limit. Runs of one automaton share the binarized
    shape, so comparing same-length sequences rule by rule is total, and
    iterating rules in id order with left subruns outermost yields exactly
    that order."""
    if limit is not None and limit <= 0:
        return []

    def runs_for_rule(rid):
        kids = a.children[rid]
        if not kids:
            yield Run(rid)
            return
        for lc in runs_for(kids[0]):
            for rc in runs_for(kids[1]):
                yield Run(rid, (lc, rc))

    def runs_for(q):
        for rid in a.state_rules[q]:
            yield from runs_for_rule(rid)

    top_rules = sorted(rid for f in a.accept for rid in a.state_rules[f])
    out = []
    for rid in top_rules:
        for run in runs_for_rule(rid):
            out.append(run)
            if limit is not None and len(out) >= limit:
                return out
    return out


def reconstruct_tree(a: TreeAutomaton, run: Run) -> AMDepTree:
    """De-binarize an accepted run into a dependency tree whose constants and
    operations carry the run's reusable source names."""
    nodes: dict[str, SGraph] = {}
    edges: list[DepEdge] = []
    root_of: dict[str, str] = {}  # address -> dep tree node id of head side

    def walk(run_node: Run):
        r = a.rules[run_node.rule]
        addr = r.parent.address
        desc = a.shape[addr]
        if desc["kind"] == "leaf":
            nodes[desc["node"]] = constant_from_canonical(r.label)
            root_of[addr] = desc["node"]
            return desc["node"]
        left = walk(run_node.children[0])
        right = walk(run_node.children[1])
        _edge, kind, name = r.event
        edges.append(DepEdge(left, right, kind, name))
        root_of[addr] = left
        return left

    root = walk(run)
    return AMDepTree(nodes, root, edges)


# ---------------------------------------------------------------------------
# serialization

_STATE_RE = re.compile(r"^(?P<addr>[01]*|e):\{(?P<phi>[^}]*)\}$")


def _parse_state(text: str) -> State:
    m = _STATE_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad state {text!r}")
    addr = "" if m.group("addr") == "e" else m.group("addr")
    phi = []
    if m.group("phi"):
        for part in m.group("phi").split(","):
            k, v = part.split("=", 1)
            phi.append((placeholder(k), v))
    return State(addr, tuple(sorted(phi)))


def write_automaton(a: TreeAutomaton, path, weights=None):
    """Line-oriented text: header comments, final states, then one rule per
    line `<state> <- <label>(<children>) [# weight]`."""
    lines = [f"#! graph {a.graph_id}", f"#! sources {' '.join(a.sources)}",
             f"#! shape {json.dumps(a.shape, sort_keys=True, separators=(',', ':'))}"]
    text = {s: str(s) for s in a.state_list}  # a state recurs in many rules
    for f in a.finals:
        lines.append(f"final: {f}")
    for r in a.rules:
        kids = ", ".join(text[c] for c in r.children)
        line = f"{text[r.parent]} <- {r.label}({kids})"
        if weights is not None:
            line += f" # {weights[r.rid]!r}"
        lines.append(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_automaton(path) -> tuple[TreeAutomaton, dict[int, float] | None]:
    graph_id = ""
    sources: tuple[str, ...] = ()
    shape: dict[str, dict] = {}
    finals = []
    rules = []
    weights: dict[int, float] = {}
    saw_weight = False
    parsed: dict[str, State] = {}  # a state recurs as parent and child of many rules

    def state(text):
        s = parsed.get(text)
        if s is None:
            s = parsed[text] = _parse_state(text)
        return s

    rule_lines = []  # the line of each rule, by rule id
    ln = 0
    try:
        with open_input(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                if line.startswith("#!"):
                    _, key, rest = line.split(" ", 2)
                    if key == "graph":
                        graph_id = rest
                    elif key == "sources":
                        sources = tuple(rest.split())
                    elif key == "shape":
                        shape = json.loads(rest)
                    continue
                if line.startswith("#"):
                    continue
                if line.startswith("final:"):
                    finals.append(state(line[len("final:"):]))
                    continue
                body = line
                if " # " in line:
                    cut = line.rfind(" # ")
                    wtext = line[cut + 3:]
                    try:
                        weight = float(wtext)
                    except ValueError:
                        weight = None  # a label containing " # ", not a weight
                    if weight is not None:
                        body = line[:cut]
                        weights[len(rules)] = weight
                        saw_weight = True
                head, rest = body.split(" <- ", 1)
                parent = state(head)
                if rest.endswith("()"):
                    label, children = rest[:-2], ()
                else:
                    open_idx = rest.index("(")
                    label = rest[:open_idx]
                    inner = rest[open_idx + 1:-1]
                    children = tuple(state(p) for p in inner.split(", "))
                rules.append(Rule(len(rules), parent, label, children, _event(label, children),
                                  ("",)))
                rule_lines.append(ln)
    except ValueError as exc:
        raise MalformedInput(f"{path}, line {ln}: malformed: {exc}") from exc
    try:
        aligns = _alignments(shape)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{path}: shape does not fit the rules: {exc!r}") from exc
    kind = {addr: d["kind"] for addr, d in shape.items()}
    for r, ln in zip(rules, rule_lines):
        addr, kids = r.parent.address, r.children
        if kids:
            fits = (kind.get(addr) == "op" and len(kids) == 2
                    and kids[0].address == addr + "0" and kids[1].address == addr + "1")
        else:
            fits = kind.get(addr) == "leaf"
        if not fits:
            raise MalformedInput(f"{path}, line {ln}: rule at address {addr or 'e'} with "
                                 f"{len(kids)} children does not fit the shape's "
                                 f"{kind.get(addr, 'missing')!r} entry there")
        r.align = aligns[addr]
    return TreeAutomaton(graph_id, sources, rules, finals, shape), (weights if saw_weight else None)
