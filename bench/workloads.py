"""Benchmark workloads: what each one runs, why it was chosen, and how its
seeded corpus is drawn.

A corpus is drawn from ``gen_corpus`` in generation order until its size is
closest to the workload's target; the sizing runs once per run, before any
timing, and set-up then times only ``gen_corpus`` and writing graphs.json. The target is counted in the unit that
drives the workload's dominant layer, not in graphs: automaton rules for the
two automata workloads, graph nodes for the decomposition workload.
Per-graph cost is heavy-tailed: one 5-source automaton of a 12-node graph
can hold 9,000 rules, a fifth of a 25-graph corpus. Over ten seeds, total
rules of 25 such graphs spread by 28% (interquartile range over median); the
rules target keeps source-blowup within 3.5% and em-corpus within 2.5%.

large-graphs also skips graphs whose automaton would accept no trees: at 3
sources about one 100-node graph in eight is empty, and each empty one would
take a third of the automaton work out of a corpus of three such graphs.
em-corpus keeps them, so the failure accounting is exercised there.
"""

from __future__ import annotations

from dataclasses import dataclass

from amdep.automata import build_automaton
from amdep.decompose import Decomposition, decompose
from amdep.generate import GeneratorConfig, gen_corpus


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    max_nodes: int  # generator's max_nodes per graph
    sources: int  # automaton source count (pipeline --sources)
    unit: str  # "rules" or "nodes": what size_target counts
    size_target: int
    iters: int  # pipeline --iters (EM iterations)
    epochs: int  # train-joint --epochs
    namable_only: bool  # skip graphs whose automaton would accept no trees

    def config(self):
        return GeneratorConfig(max_nodes=self.max_nodes)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="em-corpus",
        why="many small 3-source automata, weights tied across the corpus, re-scored "
            "for 10 EM iterations: training queries and automata loading dominate",
        max_nodes=12, sources=3, unit="rules", size_target=3500,
        iters=10, epochs=3, namable_only=False),
    Workload(
        name="source-blowup",
        why="5 sources make rules per automaton about ten times larger with only 3 EM "
            "iterations: building, writing and reading automata dominate",
        max_nodes=5, sources=5, unit="rules", size_target=6000,
        iters=3, epochs=1, namable_only=False),
    Workload(
        name="large-graphs",
        why="graphs of up to 100 nodes: superlinear decomposition and the isomorphism "
            "check in verify dominate decompose_s and verify_s",
        max_nodes=100, sources=3, unit="nodes", size_target=310,
        iters=1, epochs=1, namable_only=True),
)}


def choose_corpus(w: Workload, seed):
    """Size the corpus once, before any timing: walk ``gen_corpus(n, seed)``
    in generation order, building each graph's automaton as build-automata
    would, until the size is closest to the target. Returns the count to
    pass to ``gen_corpus``, the ids kept and their size. ``gen_corpus`` is
    prefix-stable, so a larger count never changes the graphs already seen."""
    cfg = w.config()
    sources = tuple(f"s{i + 1}" for i in range(w.sources))
    ids, total, used, seen, n = [], 0, 0, 0, 16
    while True:
        for i, (gid, g, _tree) in enumerate(gen_corpus(n, seed, cfg)[seen:], start=seen):
            d = decompose(g)
            a = build_automaton(d.tree, sources) if isinstance(d, Decomposition) else None
            if w.namable_only and (a is None or a.empty):
                continue
            size = len(g.nodes) if w.unit == "nodes" else len(a.rules) if a else 0
            if total + size >= w.size_target:
                if ids and total + size - w.size_target > w.size_target - total:
                    return used, ids, total  # stopping short is closer
                return i + 1, ids + [gid], total + size
            ids.append(gid)
            total += size
            used = i + 1
        seen, n = n, 2 * n
