"""Per-graph bottom-up tree automata over source-name assignments.

A decomposed tree (placeholder sources) is binarized; the automaton's states
pair a node address in the binarized tree with a partial map from placeholder
names to reusable names, and its runs are exactly the consistent renamings
that stay well-typed.

An automaton is its integer index (``TreeAutomaton``). ``build_automaton``
holds each state at an address as the tuple of its names for the placeholders
of the address's leftmost leaf, numbered by their sorted order there; it
renders each leaf's labels from one layout of its constant, joins an
operation's children on their shared placeholders and prunes by flags on
the numbers.
``read_automaton`` parses each distinct state text and leaf constant once
per process, as a corpus's files share most of them. Both number the states
in the order their rules first name them and share one index builder;
``Rule`` records are made only when ``rules`` is read.
"""

from __future__ import annotations

import json
import operator
import re
from functools import cached_property, lru_cache
from itertools import permutations
from typing import TYPE_CHECKING, NamedTuple

from .errors import AmdepError, Logger, MalformedInput, UnsupportedName
from .files import _CHUNK, SHAPE, check, escapes_surrogate, open_input, open_output
from .values import (
    SGraph,
    _LeafLayout,
    _PARSED,
    constant_from_canonical,
    placeholder,
    placeholder_target,
)

if TYPE_CHECKING:
    from .algebra import AMDepTree

log = Logger("amdep.automata")


# ---------------------------------------------------------------------------
# binarization


class BinNode:
    """A node of a binarized tree: a leaf, which holds a constant and its
    tree node, or an operation with its head side left and its dependent
    side right. address is "" at the root; child i of the node at address
    pi has address pi + str(i), set once the whole tree is built."""

    __slots__ = ("address", "const", "tree_node", "op", "source", "dep_parent", "dep_child",
                 "left", "right")

    def __init__(self, address, const=None, tree_node=None, op=None, source=None,
                 dep_parent=None, dep_child=None, left=None, right=None):
        self.address = address
        self.const = const  # leaf fields
        self.tree_node = tree_node
        self.op = op  # operation fields: "APP" | "MOD"
        self.source = source  # placeholder source of the operation
        self.dep_parent = dep_parent
        self.dep_child = dep_child
        self.left = left
        self.right = right

    @property
    def is_leaf(self):
        return self.const is not None

    def walk(self):
        """The nodes in preorder, without nesting a generator per level."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            if not node.is_leaf:
                todo += (node.right, node.left)


def binarize(tree: AMDepTree) -> BinNode:
    """Fold each node's constant with its children in the deterministic
    admissible order; the head side is always the left child."""
    from .algebra import fold

    _typ, root = fold(
        tree,
        leaf=lambda n: BinNode("", const=tree.constant(n), tree_node=n),
        step=lambda _n, left, edge, right, _head: BinNode(
            "", op=edge.op, source=edge.source, dep_parent=edge.parent,
            dep_child=edge.child, left=left, right=right))
    for node in root.walk():  # walk yields a node before its children
        if not node.is_leaf:
            node.left.address, node.right.address = node.address + "0", node.address + "1"
    return root


# ---------------------------------------------------------------------------
# automaton


class State(NamedTuple):
    address: str
    phi: tuple[tuple[str, str], ...]  # sorted (placeholder -> reusable) pairs

    def __str__(self):
        addr = self.address or "e"
        inside = ",".join(f"{placeholder_target(k)}={v}" for k, v in self.phi)
        return f"{addr}:{{{inside}}}"


class Rule(NamedTuple):
    rid: int
    parent: State
    label: str  # canonical constant JSON for leaves, "APP_x"/"MOD_x" for ops
    children: tuple[State, ...]
    event: tuple  # ("const", canonical) | ("edge", kind, reusable source)
    align: tuple  # ("node", node_label) | ("edge", parent_label, child_label)

    def __str__(self):
        kids = ", ".join(str(c) for c in self.children)
        return f"{self.parent} <- {self.label}({kids})"


class TreeAutomaton:
    """A graph's automaton: the bottom-up index every query runs on,
    immutable once made.

    The states are those the rules name, numbered by first appearance over
    each rule's ``(parent, *children)`` in rule-id order, then sorted,
    stably, deepest address first: ``state_list`` in that order is
    bottom-up, every rule's child states before its parent. By rule id,
    ``labels`` holds the label, ``parents`` the parent state index and
    ``children`` the child state indices (none for a leaf, two for an
    operation; any other count is rejected). ``state_rules[q]`` lists the
    ids of the rules with parent q in ascending order, ``accept`` the final
    states in the order of ``finals``, less any that no rule reaches.
    ``shape`` maps each address of the binarized tree to its leaf or
    operation descriptor and ``aligns`` to its rules' alignment. ``rules``
    (``Rule`` records) is made from these when first read, or kept from the
    constructor, which takes records; ``build_automaton`` and
    ``read_automaton`` number their states themselves. All feed ``_index``.
    ``path`` is the file ``read_automaton`` read, which later errors name.
    """

    path = None

    def __init__(self, graph_id: str, sources, rules, finals, shape: dict[str, dict]):
        rules, finals = list(rules), list(finals)
        if [r.rid for r in rules] != list(range(len(rules))):
            raise ValueError(f"automaton {graph_id!r}: rule ids are not "
                             f"0..{len(rules) - 1} in order")
        number: dict[State, int] = {}
        links = [tuple([number.setdefault(s, len(number)) for s in (r.parent, *r.children)])
                 for r in rules]
        self._index(graph_id, sources, finals, shape, list(number), links,
                    [r.label for r in rules], {r.parent.address: r.align for r in rules},
                    [number[f] for f in finals if f in number])
        self.rules = rules

    def _index(self, graph_id, sources, finals, shape, states, links, labels, aligns, accept):
        """Set every field from the numbered states, rule links and reached finals."""
        self.graph_id = graph_id
        self.sources: tuple[str, ...] = tuple(sources)
        self.finals: list[State] = finals
        self.shape = shape
        self.labels: list[str] = labels
        self.aligns: dict[str, tuple] = aligns
        # deepest addresses first; a stable sort keeps first appearance within a depth
        order = sorted(range(len(states)), key=lambda i: -len(states[i].address))
        rank = [0] * len(order)
        for q, i in enumerate(order):
            rank[i] = q
        self.state_list: list[State] = [states[i] for i in order]
        self.state_rules: list[list[int]] = [[] for _ in order]
        self.parents: list[int] = []
        self.children: list[tuple[int, ...]] = []
        for rid, link in enumerate(links):
            parent = rank[link[0]]
            if len(link) == 3:
                kids = (rank[link[1]], rank[link[2]])
                if kids[0] >= parent or kids[1] >= parent:
                    raise ValueError(f"automaton {graph_id!r}: rule {rid} has a child "
                                     "state no deeper than its parent")
            elif len(link) == 1:
                kids = ()
            else:
                raise ValueError(f"automaton {graph_id!r}: rule {rid} has {len(link) - 1} "
                                 "children, not 0 or 2")
            self.state_rules[parent].append(rid)
            self.parents.append(parent)
            self.children.append(kids)
        self.accept: list[int] = [rank[n] for n in accept]

    @property
    def empty(self) -> bool:
        return not self.finals

    def states(self):
        return set(self.state_list)

    @cached_property
    def rules(self) -> list[Rule]:
        """The rules as records, by id."""
        states, aligns = self.state_list, self.aligns
        out = []
        for rid, (label, q, kids) in enumerate(zip(self.labels, self.parents, self.children)):
            kids = tuple([states[k] for k in kids])
            event = ("edge", *label.split("_", 1)) if kids else ("const", label)
            out.append(Rule(rid, states[q], label, kids, event, aligns[states[q].address]))
        return out

    @cached_property
    def event_keys(self) -> list[str]:
        """The event key of each rule, by rule id: EM, its baseline and
        Viterbi share this one list per automaton."""
        return ["edge " + label.replace("_", " ", 1) if kids else "const " + label
                for label, kids in zip(self.labels, self.children)]


def bottom_up(a: TreeAutomaton, weights, times, plus):
    """Value of every state (a list by state index) in one bottom-up pass
    over a semiring: ``plus`` over the state's rules, in id order, of the
    rule's weight ``times`` its children's values, left to right. Counting
    is (sum, *) on integers, inside scores (logsumexp, +) on log weights and
    Viterbi (max, +). Rules have 0 or 2 children. The order of a state's
    terms does not change its value under these ``plus``es: integer sums
    and max are exact, and math.fsum, which logsumexp sums with, is exactly
    rounded, so each depends only on the terms' multiset."""
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


def _alignments(shape, label):
    """Alignment anchor of the rules at each address of a shape: a leaf's
    constant's root label (``label`` maps each leaf address to it), or for
    an operation the root labels of the leftmost leaves of its head and
    dependent sides."""
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


def _renamings(layout: _LeafLayout, ph, sources):
    """A leaf's states and rules: its placeholders' injective assignments to
    sources, sorted, the (state number, label) of each that names no level
    of the constant's type twice, in assignment order, and how many do name
    one twice."""
    renamed = []
    clashes = 0
    for combo in permutations(sources, len(ph)):
        if layout.levels and layout.clashes(combo):
            clashes += 1
            continue
        renamed.append((combo, layout.label(dict(zip(ph, combo)))))
    names = sorted(combo for combo, _lbl in renamed)
    local = {combo: q for q, combo in enumerate(names)}
    return tuple(names), tuple((local[combo], lbl) for combo, lbl in renamed), clashes


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
    keys: dict[str, tuple] = {}  # the placeholders every state at an address assigns
    names: dict[str, list] = {}  # each state's names at an address, sorted: its number there
    rules_at: dict[str, list] = {}  # (parent, label[, left, right]) by those numbers
    shape: dict[str, dict] = {}
    root_label: dict[str, str] = {}

    for node in b.walk():
        if not node.is_leaf:
            continue
        ph = tuple(sorted(node.const.placeholders()))
        if any(ch in node.tree_node for ch in "(){}=,:# "):
            raise UnsupportedName(f"{where}node id {node.tree_node!r} unsupported "
                                  "in automaton files")
        layout = _LeafLayout(node.const, ph)
        shape[node.address] = {"kind": "leaf", "node": node.tree_node, "const": layout.label({})}
        root_label[node.address] = node.const.root_label()
        keys[node.address] = ph
        names[node.address], rules_at[node.address], clashes = _renamings(layout, ph, sources)
        if clashes:
            log.warning("%sconstant at %s: skipped %d renamings of its placeholders onto "
                        "source names it already carries", where, node.tree_node, clashes)
        elif not rules_at[node.address]:
            log.warning("%sconstant at %s has %d placeholders but only %d sources",
                        where, node.tree_node, len(ph), len(sources))

    for node in sorted((n for n in b.walk() if not n.is_leaf),
                       key=lambda n: -len(n.address)):
        addr = node.address
        shape[addr] = {"kind": "op", "op": node.op, "source": node.source,
                       "parent": node.dep_parent, "child": node.dep_child}
        lkeys, rkeys = keys[addr + "0"], keys[addr + "1"]
        left, right = names[addr + "0"], names[addr + "1"]
        shared = [k for k in lkeys if k in rkeys]
        lshared = [lkeys.index(k) for k in shared]
        rshared = [rkeys.index(k) for k in shared]
        matches: dict[tuple, list[int]] = {}
        for j, r in enumerate(right):
            matches.setdefault(tuple([r[i] for i in rshared]), []).append(j)
        keys[addr] = lkeys
        names[addr] = kept = []
        rules_at[addr] = lst = []
        # APP takes its reusable name from the head side, MOD from the modifier
        side = lkeys if node.op == "APP" else rkeys
        if node.source not in side:
            continue
        at = side.index(node.source)
        mod_label = [f"MOD_{r[at]}" for r in right] if node.op == "MOD" else None
        for i, l in enumerate(left):
            js = matches.get(tuple([l[k] for k in lshared]))
            if not js:
                continue
            parent = len(kept)  # the parent state keeps the head side's names
            kept.append(l)
            if mod_label is None:
                lbl = f"APP_{l[at]}"
                lst.extend([(parent, lbl, i, j) for j in js])
            else:
                lst.extend([(parent, mod_label[j], i, j) for j in js])

    # rule ids follow the addresses sorted as strings, where a parent sorts
    # before its children: the same pass prunes, top-down from the finals, the
    # states no final state reaches, and numbers the kept states as a kept
    # rule first names them
    useful = {addr: bytearray(len(v)) for addr, v in names.items()}
    useful[""] = bytearray([1]) * len(names[""])
    number = {addr: [-1] * len(v) for addr, v in names.items()}
    states: list[State] = []

    def state(addr, q):
        at = number[addr]
        if at[q] < 0:
            at[q] = len(states)
            states.append(State(addr, tuple(zip(keys[addr], names[addr][q]))))
        return at[q]

    links, labels = [], []  # (parent, *children) numbers and label, by rule id
    for addr in sorted(rules_at):
        up = useful[addr]
        if shape[addr]["kind"] == "leaf":
            for parent, lbl in rules_at[addr]:
                if up[parent]:
                    links.append((state(addr, parent),))
                    labels.append(lbl)
            continue
        left, right = addr + "0", addr + "1"
        useful_left, useful_right = useful[left], useful[right]
        for parent, lbl, i, j in rules_at[addr]:
            if up[parent]:
                useful_left[i] = useful_right[j] = 1
                links.append((state(addr, parent), state(left, i), state(right, j)))
                labels.append(lbl)
    finals = [State("", tuple(zip(keys[""], combo))) for combo in names[""]]
    fa = TreeAutomaton.__new__(TreeAutomaton)
    fa._index(graph_id, sources, finals, shape, states, links, labels,
              _alignments(shape, root_label), [n for n in number[""] if n >= 0])
    if fa.empty:
        log.warning("%sautomaton accepts no trees (source inventory too small?)", where)
    return fa


# ---------------------------------------------------------------------------
# counting / enumeration / reconstruction


def subtree_counts(a: TreeAutomaton) -> list[int]:
    """Number of runs below each state: the bottom-up pass over integers."""
    return bottom_up(a, [1] * len(a.labels), operator.mul, sum)


def count_trees(a: TreeAutomaton) -> int:
    """Exact number of accepted trees (unit-weight inside with integers)."""
    counts = subtree_counts(a)
    return sum(counts[f] for f in a.accept)


class Run(NamedTuple):
    rule: int
    children: tuple["Run", ...] = ()

    def rule_ids(self):
        """The rule ids in preorder."""
        out = []
        todo = [self]
        while todo:
            run = todo.pop()
            out.append(run.rule)
            todo += reversed(run.children)
        return out


def unfold(a: TreeAutomaton, q: int, ctx, choose) -> Run:
    """The run from state q whose rule at each state is the one that
    ``choose(state, ctx)`` returns with a context for each child state.
    States are visited in preorder on one stack, with no frame per level."""
    order = []
    todo = [(q, ctx)]
    while todo:
        rid, kid_ctx = choose(*todo.pop())
        order.append(rid)
        todo += reversed(list(zip(a.children[rid], kid_ctx)))
    done: list[Run] = []  # a rule's left subrun is on top, its right one below
    for rid in reversed(order):
        done.append(Run(rid, (done.pop(), done.pop())) if a.children[rid] else Run(rid))
    return done[0]


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


# what constant_from_canonical raises on a string that is not a canonical form
_NOT_A_CONSTANT = (ValueError, LookupError, TypeError, AttributeError, RecursionError,
                   AmdepError)


def _named(a: TreeAutomaton) -> str:
    """a as errors name it: its file, when it was read from one, and its id."""
    return f"{a.path}: automaton {a.graph_id!r}" if a.path else f"automaton {a.graph_id!r}"


def leaf_constant(a: TreeAutomaton, rid: int) -> SGraph:
    """The graph constant of leaf rule rid of a, parsed from its label when
    it is needed, not when a is read. A label that is not a canonical
    constant, or holds a lone surrogate, raises MalformedInput naming the
    automaton and the rule."""
    label = a.labels[rid]
    try:
        c = constant_from_canonical(label)
    except _NOT_A_CONSTANT as exc:
        raise MalformedInput(f"{_named(a)}: rule {rid}: label is not a graph constant: "
                             f"{exc!r}") from exc
    if escapes_surrogate(label):
        check(json.loads(label), dict, f"{_named(a)}: rule {rid}: label", surrogates=True)
    return c


def reconstruct_tree(a: TreeAutomaton, run: Run) -> AMDepTree:
    """De-binarize an accepted run into a dependency tree whose constants and
    operations carry the run's reusable source names; an edge joins the
    leftmost leaves below its operation's two sides. Rules that do not give a
    tree, as a corrupt automaton file's may not, raise MalformedInput."""
    from .algebra import AMDepTree, DepEdge

    shape = a.shape
    anchor = _alignments(shape, {k: d["node"] for k, d in shape.items() if d["kind"] == "leaf"})
    nodes: dict[str, SGraph] = {}
    edges = []
    for rid in run.rule_ids():
        addr = a.state_list[a.parents[rid]].address
        if a.children[rid]:
            kind, name = a.labels[rid].split("_", 1)
            # addr + "2" sorts after every address below addr: sorted, the edges are in
            # postorder, so the tree names a corrupt run's deepest bad edge first
            edges.append((addr + "2", DepEdge(anchor[addr][1], anchor[addr][2], kind, name)))
        else:
            nodes[shape[addr]["node"]] = leaf_constant(a, rid)
    root = anchor[a.state_list[a.parents[run.rule]].address][1]
    try:
        return AMDepTree(nodes, root, [e for _key, e in sorted(edges)])
    except ValueError as exc:
        raise MalformedInput(f"{_named(a)}: the run gives no tree: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization

_STATE_RE = re.compile(r"^([01]*|e):\{([^}]*)\}$")  # address, placeholder=name pairs


@lru_cache(maxsize=_PARSED)
def _parse_state(text: str) -> State:
    m = _STATE_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad state {text!r}")
    addr, phi = m.groups()
    return State("" if addr == "e" else addr, _pairs(phi))


@lru_cache(maxsize=_PARSED)
def _pairs(phi: str) -> tuple:
    pairs = [part.split("=", 1) for part in phi.split(",")] if phi else []
    return tuple(sorted([(placeholder(k), v) for k, v in pairs]))


class _Numbers(dict):
    """State text -> number of its state by first appearance in a file."""

    def __init__(self):
        self.states: dict[State, int] = {}

    def __missing__(self, text):
        n = self[text] = self.states.setdefault(_parse_state(text), len(self.states))
        return n


def write_automaton(a: TreeAutomaton, path, weights=None):
    """Line-oriented text: header comments, final states, then one rule per
    line `<state> <- <label>(<children>) [# weight]`. The text reaches the
    file in chunks of _CHUNK lines, never whole, through open_output."""
    lines = [f"#! graph {a.graph_id}", f"#! sources {' '.join(a.sources)}",
             f"#! shape {json.dumps(a.shape, sort_keys=True, separators=(',', ':'))}"]
    text = [str(s) for s in a.state_list]  # a state recurs in many rules
    lines += [f"final: {f}" for f in a.finals]
    with open_output(path) as fh:
        for rid, (label, q, kids) in enumerate(zip(a.labels, a.parents, a.children)):
            if len(lines) >= _CHUNK:  # flushed before a line is added, so never left empty
                fh.write("\n".join(lines) + "\n")
                lines.clear()
            line = f"{text[q]} <- {label}({', '.join([text[k] for k in kids])})"
            if weights is not None:
                line += f" # {weights[rid]!r}"
            lines.append(line)
        fh.write("\n".join(lines) + "\n")


def _first_undecodable(path):
    """The number of the first line of path that is not UTF-8, counting
    lines as text reading does (a line ends at LF, CRLF or CR), and its
    UnicodeDecodeError, whose position is within that line."""
    with open(path, "rb") as fh:  # split at LF, then at CR: a CRLF is never cut in two
        for ln, line in enumerate((line for raw in fh for line in raw.splitlines()), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ln, exc


def read_automaton(path) -> tuple[TreeAutomaton, dict[int, float] | None]:
    """The automaton of a file and its weights (None when no rule has one),
    in one pass over its lines; a line ending in ")" and starting with neither
    "#" nor "f" is a rule without weight and skips the other lines' checks."""
    graph_id = ""
    sources: tuple[str, ...] = ()
    shape: dict[str, dict] = {}
    unpaired = False  # whether the shape may hold a lone surrogate
    finals: list[State] = []
    links, labels, rule_lines = [], [], []  # (parent, *children) numbers, label, line by rule id
    weights: dict[int, float] = {}
    number = _Numbers()
    ln = 0
    try:
        with open_input(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if line[-1:] != ")" or line[0] in "#f":
                    if not line.strip():
                        continue
                    if line.startswith("#!"):
                        _, key, rest = line.split(" ", 2)
                        if key == "graph":
                            graph_id = rest
                        elif key == "sources":
                            sources = tuple(rest.split())
                        elif key == "shape":
                            shape, unpaired = json.loads(rest), escapes_surrogate(rest)
                        continue
                    if line.startswith("#"):
                        continue
                    if line.startswith("final:"):
                        finals.append(_parse_state(line[len("final:"):]))
                        continue
                    if " # " in line:
                        cut = line.rfind(" # ")
                        try:
                            weights[len(links)] = float(line[cut + 3:])
                            line = line[:cut]
                        except ValueError:
                            pass  # a label containing " # ", not a weight
                head, rest = line.split(" <- ", 1)
                parent = number[head]
                if rest.endswith("()"):
                    label, link = rest[:-2], (parent,)
                else:
                    open_idx = rest.index("(")
                    label = rest[:open_idx]
                    link = (parent, *[number[p] for p in rest[open_idx + 1:-1].split(", ")])
                    _kind, _name = label.split("_", 1)  # an operation's label is <kind>_<name>
                links.append(link)
                labels.append(label)
                rule_lines.append(ln)
    except (ValueError, RecursionError) as exc:  # RecursionError: a deeply nested shape
        if isinstance(exc, UnicodeDecodeError):  # ln and its position are the read buffer's
            ln, exc = _first_undecodable(path)
        raise MalformedInput(f"{path}, line {ln}: malformed: {exc}") from exc
    check(shape, SHAPE, f"{path}: shape", surrogates=unpaired)
    try:
        aligns = _alignments(shape, {addr: constant_from_canonical(d["const"]).root_label()
                                     for addr, d in shape.items() if d["kind"] == "leaf"})
    except _NOT_A_CONSTANT as exc:  # a bad constant, or no leaf below an address
        raise MalformedInput(f"{path}: shape does not fit the rules: {exc!r}") from exc
    kind = {addr: d["kind"] for addr, d in shape.items()}
    states = list(number.states)
    addrs = [s.address for s in states]
    for link, ln in zip(links, rule_lines):
        addr = addrs[link[0]]
        if len(link) > 1:
            fits = (kind.get(addr) == "op" and len(link) == 3 and addrs[link[1]] == addr + "0"
                    and addrs[link[2]] == addr + "1")
        else:
            fits = kind.get(addr) == "leaf"
        if not fits:
            raise MalformedInput(f"{path}, line {ln}: rule at address {addr or 'e'} with "
                                 f"{len(link) - 1} children does not fit the shape's "
                                 f"{kind.get(addr, 'missing')!r} entry there")
    a = TreeAutomaton.__new__(TreeAutomaton)
    a._index(graph_id, sources, finals, shape, states, links, labels, aligns,
             [number.states[f] for f in finals if f in number.states])
    a.path = path
    return a, weights or None
