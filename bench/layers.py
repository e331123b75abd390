"""Traced run: per-layer spans and sizes.

The layers are the package modules: cli, generate, graph, decompose,
algebra, automata and training. The traced run

1. draws the corpus once, with a span around each ``gen_corpus`` call;
2. runs ``amdep pipeline`` once untraced, as the reference for the tracing
   overhead;
3. runs the five pipeline stages as separate commands under ``cli.<stage>``
   spans, and checks they write the same theta.json and best-trees.json as
   the pipeline;
4. calls each module's public functions directly on the same inputs, one
   span per call, and checks that the in-process EM reproduces theta.json.

Spans (name, start, end, parent, workload) are kept in memory and written
once at the end. Nothing under src/ is patched: every span wraps a call made
from here.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from contextlib import contextmanager

from common import (check, check_decomposed, check_em_history, failure_counts,
                    load_json, set_up, sha256)

STAGES = ("decompose", "build_automata", "train_em", "viterbi", "verify")
# functions called once per graph or automaton: calls, busy, p50 and tail
PER_CALL = ("decompose.decompose", "algebra.check_well_typed", "algebra.evaluate",
            "graph.is_isomorphic_mod_of", "automata.build_automaton",
            "automata.write_automaton", "automata.read_automaton", "automata.count_trees",
            "training.inside", "training.outer_weights", "training.log_inside_gradient",
            "training.viterbi", "training.sample_run")
# functions called once per corpus: busy time only
ONCE = ("generate.gen_corpus", "training.discover_events", "training.em_fit")
COUNTS = (("trace.overhead_s", "s"), ("generate.graphs", "count"),
          ("generate.nodes", "count"), ("generate.edges", "count"),
          ("decompose.ok_ratio", "1"), ("verify.ok_ratio", "1"),
          ("automata.rules", "count"), ("automata.states", "count"),
          ("automata.empty_ratio", "1"), ("automata.read_bytes", "B"),
          ("training.events", "count"), ("training.events_per_rule", "1"),
          ("training.em_fit.per_iter_s", "s"), ("failed_ratio", "1"),
          ("failed.nondecomposable", "count"), ("failed.empty_automaton", "count"),
          ("failed.verify_failure", "count"))


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports, in report order."""
    out = [(f"cli.{s}.busy_s", "s") for s in STAGES]
    for fn in PER_CALL:
        out += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s"),
                (f"{fn}.p50_ms", "ms"), (f"{fn}.tail_ms", "ms")]
    out += [(f"{fn}.busy_s", "s") for fn in ONCE]
    return out + list(COUNTS)


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "workload": self.workload,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def summary(self, name):
        """calls, busy seconds, median and tail per call in ms, and the tail's
        percentile: the slowest call with at least ten calls above it, or the
        slowest call when fewer than 21 calls leave no such call above the
        median."""
        d = sorted(self.durations(name))
        n = len(d)
        tail_rank = n - 11 if n > 20 else n - 1
        return {"calls": n, "busy_s": sum(d), "p50_ms": statistics.median(d) * 1e3,
                "tail_ms": d[tail_rank] * 1e3, "tail_pct": 100.0 * (tail_rank + 1) / n}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def run_stages(w, amdep, tracer, graphs, out):
    """The pipeline's stages as separate commands, as cmd_pipeline runs them."""
    out.mkdir()
    auto = out / "automata"
    steps = (
        ("decompose", ("decompose", "--graphs", graphs, "--jobs", 1, "--out",
                       out / "trees.json", "--report", out / "skipped.json"), (0, 2)),
        ("build_automata", ("build-automata", "--trees", out / "trees.json", "--sources",
                            w.sources, "--jobs", 1, "--out", auto), (0, 2)),
        ("train_em", ("train-em", "--automata", auto, "--iters", w.iters, "--seed", 0,
                      "--out", out / "theta.json"), (0,)),
        ("viterbi", ("viterbi", "--automata", auto, "--weights", out / "theta.json",
                     "--out", out / "best-trees.json"), (0, 2)),
        ("verify", ("verify", "--graphs", graphs, "--trees", out / "best-trees.json",
                    "--out", out / "verify.json"), (0,)),
    )
    for stage, args, ok in steps:
        with tracer.span(f"cli.{stage}"):
            amdep(*args, ok=ok)


def call_kernels(w, tracer, graphs, work):
    """Each module's public functions on the workload's inputs; returns
    sizes, ratios and the EM table."""
    from amdep.algebra import check_well_typed, evaluate
    from amdep.automata import build_automaton, count_trees, read_automaton, write_automaton
    from amdep.decompose import Decomposition, decompose
    from amdep.graph import is_isomorphic_mod_of, read_corpus
    from amdep import training

    T = tracer.wrap
    sources = tuple(f"s{i + 1}" for i in range(w.sources))
    corpus = read_corpus(graphs)
    trees = []
    for gid, g in corpus:
        d = T("decompose.decompose", decompose)(g)
        if isinstance(d, Decomposition):
            trees.append((gid, g, d.tree))
    verified = 0
    for gid, g, tree in trees:
        typ = T("algebra.check_well_typed", check_well_typed)(tree)
        result = T("algebra.evaluate", evaluate)(tree)
        verified += typ.is_empty and T("graph.is_isomorphic_mod_of", is_isomorphic_mod_of)(
            result, g)
    (work / "auto").mkdir()
    automata, rules, states, read_bytes = [], 0, 0, 0
    for i, (gid, _g, tree) in enumerate(trees):
        a = T("automata.build_automaton", build_automaton)(tree, sources)
        a.graph_id = gid
        rules += len(a.rules)
        states += len(a.states())
        path = work / "auto" / f"{i}.auto"
        T("automata.write_automaton", write_automaton)(a, path)
        read_bytes += path.stat().st_size
        a, _weights = T("automata.read_automaton", read_automaton)(path)
        T("automata.count_trees", count_trees)(a)
        automata.append((gid, a))
    usable = [(tid, a) for tid, a in automata if not a.empty and a.finals]
    groups = T("training.discover_events", training.discover_events)(usable)
    for _tid, a in usable:
        T("training.inside", training.inside)(a)
        T("training.outer_weights", training.outer_weights)(a)
    table = T("training.em_fit", training.em_fit)(automata, iterations=w.iters, seed=0)
    scorer = training.Scorer()
    for tid, a in usable:
        T("training.log_inside_gradient", training.log_inside_gradient)(scorer, a)
        T("training.viterbi", training.viterbi)(a, table.rule_weights(a))
        T("training.sample_run", training.sample_run)(a, random.Random(f"0:{tid}"))
    events = sum(len(keys) for keys in groups.values())
    return table, {
        "decompose.ok_ratio": len(trees) / len(corpus),
        "verify.ok_ratio": verified / len(trees),
        "automata.rules": rules, "automata.states": states,
        "automata.empty_ratio": (len(automata) - len(usable)) / len(automata),
        "automata.read_bytes": read_bytes,
        "training.events": events, "training.events_per_rule": events / rules,
    }


def traced_run(w, seed, work, amdep, spans_path):
    from amdep.generate import gen_corpus

    tracer = Tracer(w.name)
    with tracer.span("setup"):
        _setup_s, corpus, size, graphs = set_up(
            w, seed, work, repeats=1, gen=tracer.wrap("generate.gen_corpus", gen_corpus))
    ngraphs = len(corpus)
    ref = work / "pipeline"
    pipeline_s, _ = amdep("pipeline", "--graphs", graphs, "--sources", w.sources,
                          "--iters", w.iters, "--seed", 0, "--jobs", 1, "--out", ref,
                          ok=(0, 2))
    stages = work / "stages"
    run_stages(w, amdep, tracer, graphs, stages)
    for name in ("trees.json", "theta.json", "best-trees.json"):
        check(sha256(stages / name) == sha256(ref / name),
              f"stage-by-stage {name} differs from the pipeline's")
    check_decomposed(ngraphs, stages / "trees.json", stages / "skipped.json")
    check_em_history(stages / "theta.json")
    verified, failures = failure_counts(ngraphs, stages)
    with tracer.span("kernels"):
        table, counts = call_kernels(w, tracer, graphs, work)
    check(json.loads(json.dumps(table.to_json())) == load_json(stages / "theta.json"),
          "in-process em_fit differs from train-em's theta.json")
    tracer.write(spans_path)

    values, tail_pct = {}, {}
    for stage in STAGES:
        values[f"cli.{stage}.busy_s"] = sum(tracer.durations(f"cli.{stage}"))
    for fn in PER_CALL:
        s = tracer.summary(fn)
        tail_pct[fn] = s.pop("tail_pct")
        values.update({f"{fn}.{k}": v for k, v in s.items()})
    for fn in ONCE:
        values[f"{fn}.busy_s"] = sum(tracer.durations(fn))
    values.update(counts)
    values["trace.overhead_s"] = sum(values[f"cli.{s}.busy_s"] for s in STAGES) - pipeline_s
    values["generate.graphs"] = ngraphs
    values["generate.nodes"] = sum(len(g.nodes) for _gid, g, _t in corpus)
    values["generate.edges"] = sum(len(g.edges) for _gid, g, _t in corpus)
    values["training.em_fit.per_iter_s"] = (values["training.em_fit.busy_s"]
                                            - values["training.discover_events.busy_s"]
                                            ) / w.iters
    values["failed_ratio"] = 1 - verified / ngraphs
    values.update({f"failed.{k}": v for k, v in failures.items()})
    metrics = {name: (values[name], unit) for name, unit in per_layer_metrics()}
    meta = {"graphs": ngraphs, f"corpus_{w.unit}": size, "pipeline_s": pipeline_s,
            "tail_percentile": tail_pct, "spans": spans_path.name}
    return metrics, meta
