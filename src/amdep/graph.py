"""Corpus graphs: corpus I/O, blob partitions, edge normalization and
exact isomorphism checking. The graph type itself, ``SemanticGraph`` with
its ``Edge``, lives in ``values`` and is imported here under the same name.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import CorpusError, Logger, MalformedInput
from .files import CORPUS_ITEM, open_input, read_items, write_json
from .values import Edge, SemanticGraph

log = Logger("amdep.graph")


# ---------------------------------------------------------------------------
# corpus I/O


def read_corpus(path):
    """Read a JSON corpus file into a list of (id, SemanticGraph) pairs.
    Ids must be distinct and free of '#', which tree ids use to number the
    trees of one graph. A malformed file or graph raises CorpusError naming
    the path and the graph's id."""
    seen = set()

    def build(obj):
        gid = obj["id"]
        if "#" in gid:
            raise CorpusError("id contains '#'")
        if gid in seen:
            raise CorpusError("id repeats an earlier graph's id")
        seen.add(gid)
        return SemanticGraph.from_json(obj).validate()

    return read_items(path, CORPUS_ITEM, build, CorpusError)


def write_corpus(graphs, path):
    """Write (id, SemanticGraph) pairs as corpus JSON. read(write(x)) == x."""
    write_json([{"id": gid, **g.to_json()} for gid, g in graphs], path)


# ---------------------------------------------------------------------------
# blob partition


class BlobHeuristics:
    """Label-based rules assigning each edge to one endpoint's blob.

    Rules are (pattern, side) with side "src" or "tgt". Exact label matches
    win over prefix patterns (ending in "*"); among prefix patterns the
    longest prefix wins; a final "*" row is the mandatory default.
    """

    def __init__(self, rules):
        self.exact = {}
        self.prefixes = []
        self.default = None
        for pattern, side in rules:
            if side not in ("src", "tgt"):
                raise ValueError(f"bad blob rule side {side!r}")
            if pattern == "*":
                self.default = side
            elif pattern.endswith("*"):
                self.prefixes.append((pattern[:-1], side))
            else:
                self.exact[pattern] = side
        if self.default is None:
            raise ValueError("blob heuristics require a '*' default row")
        self.prefixes.sort(key=lambda ps: -len(ps[0]))

    def side(self, label):
        if label in self.exact:
            return self.exact[label]
        for prefix, side in self.prefixes:
            if label.startswith(prefix):
                return side
        return self.default

    @classmethod
    def from_tsv(cls, path):
        """The table of a TSV file of pattern<TAB>src|tgt rows, blank lines
        and # comments skipped; a file that cannot be read or is not such a
        table raises an AmdepError naming it."""
        rules = []
        try:
            with open_input(path) as fh:
                for ln, line in enumerate(fh, 1):
                    line = line.rstrip("\n")
                    if not line.strip() or line.lstrip().startswith("#"):
                        continue
                    parts = line.split("\t")
                    if len(parts) != 2:
                        raise MalformedInput(f"{path}, line {ln}: expected "
                                             "'pattern<TAB>src|tgt'")
                    rules.append((parts[0], parts[1]))
            return cls(rules)
        except ValueError as exc:  # undecodable bytes, a bad side or no default row
            raise MalformedInput(f"{path}: {exc}") from exc

    @classmethod
    def default_table(cls):
        from importlib import resources

        return cls.from_tsv(resources.files("amdep.data") / "blobs.tsv")


class BlobPartition(NamedTuple):
    """Owner map: every edge belongs to the blob of exactly one endpoint."""

    owner: dict[Edge, str]


def partition_blobs(g: SemanticGraph, heuristics: BlobHeuristics) -> BlobPartition:
    owner = {}
    for e in g.edges:
        owner[e] = e.src if heuristics.side(e.label) == "src" else e.tgt
    return BlobPartition(owner)


OF_SUFFIX = "-of"


def flip_label(label):
    return label[: -len(OF_SUFFIX)] if label.endswith(OF_SUFFIX) else label + OF_SUFFIX


class NormalizedGraph(NamedTuple):
    """Graph with every edge pointing away from its blob owner.

    Reversed edges carry a "-of"-suffixed label (the suffix is stripped
    instead of doubled when the original label already ends in "-of").
    """

    graph: SemanticGraph
    partition: BlobPartition


def normalize_edges(g: SemanticGraph, p: BlobPartition) -> NormalizedGraph:
    if set(p.owner) != set(g.edges):
        raise ValueError("partition does not cover exactly the edges of the graph")
    edges = []
    for e in g.edges:
        if p.owner[e] == e.src:
            edges.append(e)
        else:
            if e.label.endswith(OF_SUFFIX):
                log.warning("stripping existing -of suffix while reversing %s", e)
            edges.append(Edge(e.tgt, e.src, flip_label(e.label)))
    ng = SemanticGraph(g.nodes, edges, g.root)
    return NormalizedGraph(ng, BlobPartition({e: e.src for e in ng.edges}))


def of_normal_form(g: SemanticGraph):
    """Orientation-normal edge multiset: every "-of" edge is flipped and
    stripped, so graphs that differ only in edge-reversal convention compare
    equal. Returns (nodes, root, Counter of (src, tgt, label))."""
    counter = Counter()
    for e in g.edges:
        if e.label.endswith(OF_SUFFIX):
            counter[(e.tgt, e.src, e.label[: -len(OF_SUFFIX)])] += 1
        else:
            counter[(e.src, e.tgt, e.label)] += 1
    return dict(g.nodes), g.root, counter


# ---------------------------------------------------------------------------
# isomorphism


def _pair_labels(triples):
    pairs: dict[tuple[str, str], Counter] = {}
    for (s, t, lbl), k in triples.items():
        pairs.setdefault((s, t), Counter())[lbl] += k
    return pairs


def _signature(nodes, pairs):
    """Per-node invariant used to cut the search: label plus sorted multisets
    of incident edge labels by direction."""
    outs: dict[str, list] = {n: [] for n in nodes}
    ins: dict[str, list] = {n: [] for n in nodes}
    for (s, t), cnt in pairs.items():
        for lbl, k in cnt.items():
            outs[s].extend([lbl] * k)
            ins[t].extend([lbl] * k)
    return {n: (nodes[n], tuple(sorted(outs[n])), tuple(sorted(ins[n]))) for n in nodes}


def _adjacency(nodes, pairs):
    """Undirected neighbour sets; a self-loop makes a node its own neighbour."""
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for s, t in pairs:
        adj[s].add(t)
        adj[t].add(s)
    return adj


def _match(nodes1, root1, pairs1, nodes2, root2, pairs2):
    if len(nodes1) != len(nodes2):
        return False
    if sum(sum(c.values()) for c in pairs1.values()) != sum(sum(c.values()) for c in pairs2.values()):
        return False
    sig1 = _signature(nodes1, pairs1)
    sig2 = _signature(nodes2, pairs2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    if sig1[root1] != sig2[root2]:
        return False

    adj1 = _adjacency(nodes1, pairs1)
    adj2 = _adjacency(nodes2, pairs2)

    # order g1 nodes so each (after the root) touches an earlier one
    order = [root1]
    placed = {root1}
    frontier = [root1]
    while frontier:
        n = frontier.pop(0)
        for m in sorted(adj1[n]):
            if m not in placed:
                placed.add(m)
                order.append(m)
                frontier.append(m)
    if len(order) != len(nodes1):  # disconnected: match components by signature fallback
        for n in sorted(nodes1):
            if n not in placed:
                placed.add(n)
                order.append(n)

    by_sig: dict[tuple, list[str]] = {}  # holds every value of sig1
    for m in nodes2:
        by_sig.setdefault(sig2[m], []).append(m)
    mapping: dict[str, str] = {}
    used: set[str] = set()
    empty = Counter()

    def consistent(n, m):
        # Only mapped neighbours can disagree (VF2-style): each must map to
        # a neighbour of m with equal labels both ways, and m may have no
        # other mapped neighbours. n and m are unmapped, so a self-loop is
        # never counted and is compared on its own.
        mapped = 0
        for prev1 in adj1[n]:
            prev2 = mapping.get(prev1)
            if prev2 is None:
                continue
            mapped += 1
            if pairs1.get((n, prev1), empty) != pairs2.get((m, prev2), empty):
                return False
            if pairs1.get((prev1, n), empty) != pairs2.get((prev2, m), empty):
                return False
        if mapped != sum(1 for prev2 in adj2[m] if prev2 in used):
            return False
        return pairs1.get((n, n), empty) == pairs2.get((m, m), empty)

    # backtracking on one stack: entry i iterates the candidates of order[i],
    # the nodes with its signature (root2 alone for the root)
    todo = [iter([root2])]
    while todo:
        n = order[len(todo) - 1]
        if n in mapping:  # back from a dead end below: undo n's match
            used.discard(mapping.pop(n))
        m = next((m for m in todo[-1] if m not in used and consistent(n, m)), None)
        if m is None:
            todo.pop()
            continue
        mapping[n] = m
        used.add(m)
        if len(todo) == len(order):
            return True
        todo.append(iter(by_sig[sig1[order[len(todo)]]]))
    return False


def is_isomorphic(g1: SemanticGraph, g2: SemanticGraph) -> bool:
    """Exact isomorphism of rooted labeled graphs: a node bijection preserving
    the root, node labels, and labeled edges."""
    return _match(dict(g1.nodes), g1.root, _pair_labels(Counter(g1.edges)),
                  dict(g2.nodes), g2.root, _pair_labels(Counter(g2.edges)))


def is_isomorphic_mod_of(g1: SemanticGraph, g2: SemanticGraph) -> bool:
    """Isomorphism after normalizing edge orientation: an edge s -x-of-> t is
    treated as t -x-> s on both sides, so a graph and its blob-normalized
    form compare equal."""
    n1, r1, t1 = of_normal_form(g1)
    n2, r2, t2 = of_normal_form(g2)
    return _match(n1, r1, _pair_labels(t1), n2, r2, _pair_labels(t2))
