"""The values every layer shares: rooted labeled graphs (``Edge``,
``SemanticGraph``), source names and their placeholders, AM types
(``AMType``, ``type_unify``), s-graphs (``SGraph``) and the canonical text
of a graph constant, with its parser. ``graph`` and ``algebra`` build on
these; automata files and training read and write only these, so loading
automata needs neither.

Source names are plain strings. Graph-specific placeholder names have the
form ``ps(<node-id>)``; reusable names are anything else (``s1``, ``s2``...).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .errors import CorpusError, MissingSource, RequestClash, TypeDepthExceeded


# ---------------------------------------------------------------------------
# graphs


class Edge(NamedTuple):
    src: str
    tgt: str
    label: str


class SemanticGraph:
    """Immutable rooted directed graph with labeled nodes and edges.

    Node labels may be None only for fragment graphs used inside constants
    (open argument slots); corpus graphs must be fully labeled.
    """

    __slots__ = ("nodes", "edges", "root", "_out", "_in")

    def __init__(self, nodes, edges, root):
        nodes = dict(nodes)
        edges = tuple(sorted({e if isinstance(e, Edge) else Edge(*e) for e in edges}))
        out: dict[str, list[Edge]] = {n: [] for n in nodes}
        inc: dict[str, list[Edge]] = {n: [] for n in nodes}
        for e in edges:
            if e.src not in nodes:
                raise CorpusError(f"edge {e} uses unknown node {e.src!r}")
            if e.tgt not in nodes:
                raise CorpusError(f"edge {e} uses unknown node {e.tgt!r}")
            out[e.src].append(e)
            inc[e.tgt].append(e)
        if root not in nodes:
            raise CorpusError(f"root {root!r} is not a node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inc)

    def __setattr__(self, name, value):
        raise AttributeError("SemanticGraph is immutable")

    def __reduce__(self):  # pickle through __init__, which __setattr__ leaves alone
        return SemanticGraph, (self.nodes, self.edges, self.root)

    def label(self, node):
        return self.nodes[node]

    def out_edges(self, node):
        return self._out[node]

    def in_edges(self, node):
        return self._in[node]

    def component(self, start, within):
        """The nodes of within reachable from start (itself in within) along
        edges in either direction."""
        comp = {start}
        stack = [start]
        while stack:
            n = stack.pop()
            for e in self._out[n]:
                if e.tgt in within and e.tgt not in comp:
                    comp.add(e.tgt)
                    stack.append(e.tgt)
            for e in self._in[n]:
                if e.src in within and e.src not in comp:
                    comp.add(e.src)
                    stack.append(e.src)
        return comp

    def is_connected(self):
        """Connectivity ignoring edge directions."""
        return len(self.component(self.root, self.nodes)) == len(self.nodes)

    def is_acyclic(self):
        indeg = {n: 0 for n in self.nodes}
        for e in self.edges:
            indeg[e.tgt] += 1
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            n = queue.pop()
            seen += 1
            for e in self._out[n]:
                indeg[e.tgt] -= 1
                if indeg[e.tgt] == 0:
                    queue.append(e.tgt)
        return seen == len(self.nodes)

    def reachable_from(self, node):
        """Set of nodes reachable via directed edges (includes node itself)."""
        seen = {node}
        stack = [node]
        while stack:
            n = stack.pop()
            for e in self._out[n]:
                if e.tgt not in seen:
                    seen.add(e.tgt)
                    stack.append(e.tgt)
        return seen

    def validate(self, require_labels=True):
        if require_labels:
            for n, lbl in self.nodes.items():
                if lbl is None:
                    raise CorpusError(f"node {n!r} has no label")
        if not self.is_connected():
            raise CorpusError("graph is not connected")
        return self

    def renamed(self, mapping):
        """New graph with node ids replaced per mapping (total on nodes)."""
        return SemanticGraph(
            {mapping[n]: lbl for n, lbl in self.nodes.items()},
            [Edge(mapping[e.src], mapping[e.tgt], e.label) for e in self.edges],
            mapping[self.root],
        )

    def __eq__(self, other):
        return (
            isinstance(other, SemanticGraph)
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.root == other.root
        )

    def __repr__(self):
        return f"SemanticGraph({len(self.nodes)} nodes, {len(self.edges)} edges, root={self.root!r})"

    def to_json(self):
        return {
            "nodes": [
                {"id": n, "label": lbl} if lbl is not None else {"id": n}
                for n, lbl in sorted(self.nodes.items())
            ],
            "edges": [{"src": e.src, "tgt": e.tgt, "label": e.label} for e in self.edges],
            "root": self.root,
        }

    @classmethod
    def from_json(cls, obj):
        """The graph of a corpus item or constant that follows files.GRAPH."""
        nodes = {nd["id"]: nd.get("label") for nd in obj["nodes"]}
        if len(nodes) != len(obj["nodes"]):
            raise CorpusError("duplicate node id")
        edges = [Edge(e["src"], e["tgt"], e["label"]) for e in obj["edges"]]
        if len(edges) != len(set(edges)):
            raise CorpusError("duplicate (src, tgt, label) edge")
        return cls(nodes, edges, obj["root"])


# ---------------------------------------------------------------------------
# source names and types


MAX_TYPE_DEPTH = 10


def placeholder(node_id: str) -> str:
    return f"ps({node_id})"


def is_placeholder(name: str) -> bool:
    return name.startswith("ps(") and name.endswith(")")


def placeholder_target(name: str) -> str:
    if not is_placeholder(name):
        raise ValueError(f"{name!r} is not a placeholder source name")
    return name[3:-1]


class AMType:
    """A finite map from source names to request types. Immutable, hashable,
    compared structurally (exact map equality, no subsumption)."""

    __slots__ = ("entries", "_hash", "_depth")

    def __init__(self, requests=()):
        pairs = requests.items() if isinstance(requests, dict) else requests
        entries = tuple(sorted((str(k), v if isinstance(v, AMType) else AMType(v))
                               for k, v in pairs))
        names = [k for k, _ in entries]
        if len(names) != len(set(names)):
            raise ValueError("duplicate source name in type")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash(entries))
        depth = 1 + max([v._depth for _k, v in entries]) if entries else 0
        object.__setattr__(self, "_depth", depth)
        if depth > MAX_TYPE_DEPTH:
            raise TypeDepthExceeded(f"type nesting exceeds {MAX_TYPE_DEPTH}")

    def __setattr__(self, name, value):
        raise AttributeError("AMType is immutable")

    def __reduce__(self):  # pickle through __init__, which __setattr__ leaves alone
        return AMType, (self.entries,)

    def names(self):
        return tuple(k for k, _ in self.entries)

    def __contains__(self, name):
        return any(k == name for k, _ in self.entries)

    def request(self, name) -> "AMType":
        for k, v in self.entries:
            if k == name:
                return v
        raise MissingSource(name)

    def without(self, name) -> "AMType":
        return AMType(tuple((k, v) for k, v in self.entries if k != name))

    def updated(self, name, req: "AMType") -> "AMType":
        rest = tuple((k, v) for k, v in self.entries if k != name)
        return AMType(rest + ((name, req),))

    @property
    def is_empty(self):
        return not self.entries

    def depth(self):
        return self._depth

    def all_names(self):
        """Every source name occurring at any nesting level."""
        out = set()
        for k, v in self.entries:
            out.add(k)
            out |= v.all_names()
        return out

    def rename(self, mapping) -> "AMType":
        return AMType(tuple((mapping.get(k, k), v.rename(mapping)) for k, v in self.entries))

    def __eq__(self, other):
        return isinstance(other, AMType) and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return str(self)

    def __str__(self):
        if not self.entries:
            return "[]"
        parts = []
        for k, v in self.entries:
            parts.append(k if v.is_empty else f"{k}{v}")
        return "[" + ", ".join(parts) + "]"

    def to_json(self):
        return {k: v.to_json() for k, v in self.entries}

    @classmethod
    def from_json(cls, obj) -> "AMType":
        return cls({k: cls.from_json(v) for k, v in obj.items()})


EMPTY_TYPE = AMType()


def type_unify(a: AMType, b: AMType) -> AMType:
    """Union of top-level sources; shared names must carry structurally equal
    requests (checked recursively via structural equality)."""
    out = dict(a.entries)
    for k, v in b.entries:
        if k in out and out[k] != v:
            raise RequestClash(k, out[k], v)
        out[k] = v
    return AMType(out)


# ---------------------------------------------------------------------------
# s-graphs


class SGraph:
    """A graph fragment with a designated root, source-marked nodes and a
    type. Used both as a tree label (graph constant) and as an evaluation
    result. Treated as immutable; equal when all four fields are, and
    unhashable."""

    __slots__ = ("graph", "root", "sources", "typ")

    def __init__(self, graph: SemanticGraph, root: str, sources: dict[str, str], typ: AMType):
        self.graph = graph
        self.root = root
        self.sources = sources  # source name -> node id (injective)
        self.typ = typ
        seen = set()
        for name, node in sources.items():
            if node not in graph.nodes:
                raise ValueError(f"source {name!r} marks unknown node {node!r}")
            if node in seen:
                raise ValueError(f"node {node!r} carries two source names")
            seen.add(node)
        if root in seen and len(graph.nodes) > 1:
            raise ValueError("root cannot carry a source name")
        for name in typ.names():
            if name not in sources:
                raise ValueError(f"top-level source {name!r} of type has no marked node")
        for name in sources:
            if name not in typ:
                raise ValueError(f"marked source {name!r} missing from type")

    def __eq__(self, other):
        if not isinstance(other, SGraph):
            return NotImplemented
        return (self.graph, self.root, self.sources, self.typ) == \
            (other.graph, other.root, other.sources, other.typ)

    def with_type(self, typ: AMType) -> "SGraph":
        return SGraph(self.graph, self.root, dict(self.sources), typ)

    def rename_sources(self, mapping) -> "SGraph":
        return SGraph(
            self.graph,
            self.root,
            {mapping.get(k, k): v for k, v in self.sources.items()},
            self.typ.rename(mapping),
        )

    def placeholders(self):
        """All placeholder names anywhere in the type (nested included)."""
        return {n for n in self.typ.all_names() if is_placeholder(n)}

    def root_label(self):
        return self.graph.label(self.root)

    def to_json(self):
        return {**self.graph.to_json(), "sources": dict(sorted(self.sources.items())),
                "type": self.typ.to_json()}

    @classmethod
    def from_json(cls, obj) -> "SGraph":
        g = SemanticGraph.from_json(obj)
        return cls(g, g.root, dict(obj.get("sources", {})), AMType.from_json(obj.get("type", {})))


# ---------------------------------------------------------------------------
# canonical forms


_ascii = json.encoder.encode_basestring_ascii  # the string encoder json.dumps uses by default
_PARSED = 1 << 16  # distinct texts each parse memo keeps, per process


def canonical_constant_form(c: SGraph) -> str:
    """Canonical, node-id-independent JSON string for a tree label (a
    single labeled node plus unlabeled slot nodes, or a bare placeholder).
    Used for event tying, entropy statistics and golden comparisons."""
    return _LeafLayout(c, ()).label({})


@lru_cache(maxsize=_PARSED)
def constant_from_canonical(form: str) -> SGraph:
    """The constant of a canonical form, parsed once per process for each
    distinct form: callers share the SGraph, which they treat as immutable."""
    obj = json.loads(form)
    g = SemanticGraph(obj["nodes"], [Edge(s, t, lbl) for s, lbl, t in obj["edges"]], obj["root"])
    return SGraph(g, obj["root"], dict(obj["sources"]), AMType.from_json(obj["type"]))


class _LeafLayout:
    """A constant laid out once for every renaming of its source names.
    ``label(names)`` is the canonical form of the constant with its names
    renamed per ``names``: the text ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` gives for its payload, with node ids ``r``
    (root), ``x<i>`` (anonymous nodes, by label) and ``s:<name>`` (marked
    nodes), written directly from labels encoded once. Only the marked ids
    and the names change with a renaming, which must name no level of the
    type twice. ``clashes(combo)`` tells whether ``AMType`` would reject the
    renaming of the placeholders ``ph`` to ``combo`` for naming one level of
    the type twice: a placeholder renamed onto a name its level already
    carries."""

    def __init__(self, c: SGraph, ph):
        nodes = c.graph.nodes
        src_of = {v: k for k, v in c.sources.items()}
        anon = sorted((n for n in nodes if n != c.root and n not in src_of),
                      key=lambda n: str(nodes[n]))
        self.ids = {c.root: "r", **{n: f"x{i}" for i, n in enumerate(anon)}}
        self.text = {n: _ascii(i) for n, i in self.ids.items()}  # each id's JSON text
        self.named = [(n, src_of[n]) for n in nodes if n not in self.ids]
        self.nodes = [(n, "null" if lbl is None else _ascii(lbl)) for n, lbl in nodes.items()]
        self.edges = [(s, t, lbl, _ascii(lbl)) for s, t, lbl in c.graph.edges]
        self.sources = list(c.sources.items())
        self.typ = c.typ
        position = {p: i for i, p in enumerate(ph)}
        self.levels = []  # (placeholder positions, other names) of each level with both
        todo = [c.typ]
        while todo:
            t = todo.pop()
            todo.extend(sub for _k, sub in t.entries)
            at = [position[k] for k, _sub in t.entries if k in position]
            others = {k for k, _sub in t.entries if k not in position}
            if at and others:
                self.levels.append((at, others))

    def clashes(self, combo) -> bool:
        return any(combo[i] in others for at, others in self.levels for i in at)

    def label(self, names) -> str:
        ids = dict(self.ids)
        text = dict(self.text)
        for n, k in self.named:
            ids[n] = i = "s:" + names.get(k, k)
            text[n] = _ascii(i)
        nodes = sorted([(ids[n], n, lbl) for n, lbl in self.nodes])
        edges = sorted([(ids[s], ids[t], lbl, s, t, enc) for s, t, lbl, enc in self.edges])
        sources = sorted([(names.get(k, k), n) for k, n in self.sources])
        return "".join([
            '{"edges":[', ",".join(["[" + text[s] + "," + enc + "," + text[t] + "]"
                                    for _i, _j, _l, s, t, enc in edges]),
            '],"nodes":{', ",".join([text[n] + ":" + lbl for _i, n, lbl in nodes]),
            '},"root":"r","sources":{', ",".join([_ascii(k) + ":" + text[n] for k, n in sources]),
            '},"type":', _type_text(self.typ, names), "}"])


def _type_text(typ, names):
    """The JSON text of typ.to_json() with its names renamed per names."""
    entries = sorted([(names.get(k, k), sub) for k, sub in typ.entries])
    return "{" + ",".join([_ascii(k) + ":" + (_type_text(sub, names) if sub.entries else "{}")
                           for k, sub in entries]) + "}"


def skeleton_form(c: SGraph) -> str:
    """Canonical form with source names erased: identical for any two
    renamings of the same constant. Canonicalized by minimizing over all
    assignments of positional names (constants carry only a handful of
    sources, so the permutation search is cheap), each rendered from one
    layout of c."""
    names = sorted(c.typ.all_names() | set(c.sources))
    layout = _LeafLayout(c, ())
    slots = [f"_{i}" for i in range(len(names))]
    return min(layout.label(dict(zip(names, perm))) for perm in permutations(slots))
