"""Random well-typed dependency trees over reusable sources, used as the
independent oracle for round-trip testing: evaluating a generated tree gives
a graph that is decomposable by construction."""

from __future__ import annotations

import random

from .algebra import AMDepTree, AMType, DepEdge, EMPTY_TYPE, SGraph, constant, evaluate
from .errors import GenerationExhausted, NotWellTyped

_VOCAB = (
    "want", "see", "sleep", "begin", "seem", "try", "persuade", "glow",
    "sparkle", "charm", "cat", "dog", "fairy", "elf", "house", "tree",
    "little", "tiny", "green", "old", "and", "or",
)
_MAX_REQUEST_DEPTH = 3


class GeneratorConfig:
    __slots__ = ("max_nodes", "sources", "max_sources_per_constant", "reentrancy_prob",
                 "mod_prob")

    def __init__(self, max_nodes: int = 12, sources: tuple[str, ...] = ("s1", "s2", "s3"),
                 max_sources_per_constant: int = 3, reentrancy_prob: float = 0.35,
                 mod_prob: float = 0.3):
        if max_sources_per_constant > len(sources):
            raise ValueError("max_sources_per_constant exceeds the source inventory")
        self.max_nodes = max_nodes
        self.sources = sources
        self.max_sources_per_constant = max_sources_per_constant
        self.reentrancy_prob = reentrancy_prob
        self.mod_prob = mod_prob


class _Builder:
    def __init__(self, cfg: GeneratorConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.counter = 0
        self.reserved = 0  # slots committed to children not yet built
        self.nodes: dict[str, SGraph] = {}
        self.edges: list[DepEdge] = []

    def fresh_id(self):
        nid = f"n{self.counter}"
        self.counter += 1
        return nid

    def remaining(self):
        return self.cfg.max_nodes - self.counter - self.reserved

    def build(self, target: AMType) -> str:
        """One tree node whose subtree evaluates to exactly the target type.
        Each node is built by a _node generator, which yields the type of
        each child it needs and is sent back the child's id; a stack of them
        builds the tree in the order a recursion would, without taking a
        Python frame per tree level."""
        stack = [self._node(target)]
        child = None
        while True:
            try:
                need = stack[-1].send(child)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                child = done.value
            else:
                stack.append(self._node(need))
                child = None

    def _node(self, target: AMType):
        cfg, rng = self.cfg, self.rng
        nid = self.fresh_id()
        open_names = list(target.names())
        budgeted = max(0, min(cfg.max_sources_per_constant - len(open_names),
                              self.remaining()))
        free_names = [s for s in cfg.sources if s not in open_names]
        n_fresh = rng.randint(0, min(budgeted, len(free_names))) if budgeted else 0
        fresh = rng.sample(free_names, n_fresh)

        # later slots first, so earlier requests may delay filling them
        fresh_entries: list[tuple[str, AMType]] = []
        for i in range(n_fresh - 1, -1, -1):
            name = fresh[i]
            pool = list(target.entries) + fresh_entries
            req: dict[str, AMType] = {}
            if pool and rng.random() < cfg.reentrancy_prob:
                for k, v in rng.sample(pool, min(len(pool), rng.randint(1, 2))):
                    if v.depth() + 1 < _MAX_REQUEST_DEPTH:
                        req[k] = v
            fresh_entries.insert(0, (name, AMType(req)))

        head_type = AMType(list(target.entries) + fresh_entries)
        slots = []
        for j, name in enumerate(sorted(head_type.names())):
            style = rng.random()
            if style < 0.75:
                lbl = f"ARG{j}"
            elif style < 0.9:
                lbl = f"op{j + 1}"
            else:
                lbl = "mod-of"
            slots.append((lbl, name))
        self.nodes[nid] = constant(rng.choice(_VOCAB), nid, slots, head_type)

        self.reserved += len(fresh_entries)
        for name, req in fresh_entries:
            self.reserved -= 1
            child = yield req
            self.edges.append(DepEdge(nid, child, "APP", name))

        while self.remaining() > 0 and rng.random() < cfg.mod_prob:
            alpha_pool = [s for s in cfg.sources if s not in open_names] or list(cfg.sources)
            alpha = rng.choice(sorted(set(alpha_pool)))
            mod_req: dict[str, AMType] = {alpha: EMPTY_TYPE}
            if open_names and rng.random() < cfg.reentrancy_prob:
                shared = rng.choice(sorted(open_names))
                if shared != alpha:
                    mod_req[shared] = target.request(shared)
            child = yield AMType(mod_req)
            self.edges.append(DepEdge(nid, child, "MOD", alpha))
        return nid


def gen_random_tree(cfg: GeneratorConfig, seed: int) -> AMDepTree:
    """Deterministic per seed; the result is well-typed with an empty root
    type and evaluates successfully (asserted, with bounded retries)."""
    return _tree_and_graph(cfg, seed)[0]


def _tree_and_graph(cfg: GeneratorConfig, seed: int):
    """gen_random_tree's tree together with the connected graph it
    evaluates to."""
    for attempt in range(32):
        rng = random.Random(f"{seed}:{attempt}")
        b = _Builder(cfg, rng)
        root = b.build(EMPTY_TYPE)
        tree = AMDepTree(b.nodes, root, b.edges)
        try:
            g = evaluate(tree)
        except NotWellTyped:
            continue
        if g.is_connected():
            return tree, g
    raise GenerationExhausted(f"no valid tree after 32 attempts (seed={seed})")


def gen_corpus(n: int, seed: int, cfg: GeneratorConfig | None = None):
    """n instances as (id, graph, gold tree) triples."""
    cfg = cfg or GeneratorConfig()
    out = []
    for i in range(n):
        tree, g = _tree_and_graph(cfg, seed=(seed * 1_000_003 + i))
        out.append((f"g{i:04d}", g, tree))
    return out
