"""Command-line front end: gen, decompose, build-automata, count, train-em,
train-joint, viterbi, verify, stats, pipeline.

Every command with outputs writes a manifest (config snapshot, seeds, and
input/output digests) so runs are reproducible; identical seeds and inputs
give bit-identical outputs. Set AMD_LOG=DEBUG|INFO|WARNING for verbosity.

Each command imports the modules it runs when it runs, so a short command
such as verify does not pay for loading the training code.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .errors import (AmdepError, EmptyAutomaton, Logger, MalformedInput, NonEmptyRootType,
                     defer_log_set_up, first_ids, loaded_logging)
from .files import dump_json, make_output_dir, open_output, write_json, write_manifest

log = Logger("amdep.cli")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARTIAL = 2
# net container allocations between young collections while a command runs (700 by default)
GC_THRESHOLD = 100_000
# The least value of each numeric flag that has one, and why a smaller one
# is refused; main() checks these, and that every float flag is finite,
# before the command runs, so a refused value writes no file.
LEAST = {
    "n": (0, "the number of graphs cannot be negative"),
    "max_nodes": (1, "a graph needs at least one node"),
    "sources": (0, "the number of source names cannot be negative"),
    "iters": (0, "the number of iterations cannot be negative"),
    "epochs": (0, "the number of epochs cannot be negative"),
    "batch": (0, "the batch size cannot be negative"),
    "jobs": (0, "the number of worker processes cannot be negative"),
    "top": (0, "the number of constants shown cannot be negative"),
    "smoothing": (0, "smoothing cannot be negative"),
}


def _load_blobs(path):
    from .graph import BlobHeuristics

    return BlobHeuristics.from_tsv(path) if path else BlobHeuristics.default_table()


def _call_logged(fn, payload):
    """fn(payload), or None and the message of the AmdepError it raised, and
    the log records it emitted, which are kept instead of written."""
    import logging

    class _Records(logging.Handler):
        """Keeps what a worker logs, each message formatted so that it pickles."""

        def __init__(self):
            super().__init__()
            self.records = []

        def emit(self, record):
            record.msg, record.args, record.exc_info = record.getMessage(), None, None
            self.records.append(record)

    root = logging.getLogger()
    handler = _Records()
    saved, root.handlers = root.handlers, [handler]
    try:
        return fn(payload), None, handler.records
    except AmdepError as exc:
        return None, str(exc), handler.records
    finally:
        root.handlers = saved


def _map(fn, payloads, jobs):
    """[fn(p) for p in payloads], in a pool of jobs worker processes when
    jobs > 1; the pool is imported only then, so the CLI starts without it.
    Workers send their log records and AmdepError messages back with their
    results, and they are written and raised in input order, so stderr does
    not depend on jobs. Logging is set up before the pool starts, as the
    first record the parent writes may come from a worker."""
    if jobs <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    logging = loaded_logging()
    results = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for result, error, records in pool.map(partial(_call_logged, fn), payloads):
            for record in records:
                logging.getLogger(record.name).handle(record)
            if error is not None:
                raise AmdepError(error)
            results.append(result)
    return results


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args):
    from .algebra import write_trees
    from .generate import GeneratorConfig, gen_corpus
    from .graph import write_corpus

    cfg = GeneratorConfig(max_nodes=args.max_nodes, sources=_source_names(args.sources),
                          max_sources_per_constant=min(3, args.sources))
    t0 = time.time()
    corpus = gen_corpus(args.n, args.seed, cfg)
    write_corpus([(gid, g) for gid, g, _t in corpus], args.graphs)
    write_trees([(gid, t) for gid, _g, t in corpus], args.trees)
    log.info("generated %d instances in %.2fs", args.n, time.time() - t0)
    write_manifest(args.manifest or args.graphs + ".manifest.json", "gen",
                   {"n": args.n, "seed": args.seed, "max_nodes": args.max_nodes,
                    "sources": args.sources},
                   [], [args.graphs, args.trees], {"instances": args.n})
    return EXIT_OK


def _decompose_one(payload):
    """(id, trees, None) for a graph that decomposes, (id, [], the
    NonDecomposable) for one that does not."""
    from .decompose import Decomposition, NonDecomposable, decompose, enumerate_candidate_trees

    gid, g, heuristics, tie_break, enumerate_all = payload
    if not enumerate_all:
        d = decompose(g, heuristics, tie_break)
        if isinstance(d, Decomposition):
            return gid, [d.tree], None
        return gid, [], d
    trees = enumerate_candidate_trees(g, heuristics, tie_break, with_swaps=False,
                                      include_invalid_entries=False)
    if trees:
        return gid, trees, None
    return gid, [], NonDecomposable("no resolvable unrolling")


def cmd_decompose(args):
    return _decompose(args)[0]


def _decompose(args, outdir=None):
    """decompose; returns the exit code, the corpus, the (id, tree) list and
    the skip list. outdir, the directory of args.out and args.report when
    the pipeline runs it, is made once the graphs are decomposed."""
    from .algebra import write_trees
    from .graph import read_corpus

    corpus = read_corpus(args.graphs)
    heuristics = _load_blobs(args.blobs)
    payloads = [(gid, g, heuristics, args.tie_break, args.enumerate_unrollings)
                for gid, g in corpus]
    t0 = time.time()
    results = _map(_decompose_one, payloads, args.jobs)
    trees = []
    skipped = []
    for gid, found, failure in results:
        if failure is not None:
            skipped.append({"id": gid, **failure.to_json()})
        for k, tree in enumerate(found):
            trees.append((gid if len(found) == 1 else f"{gid}#{k}", tree))
    if outdir is not None:
        make_output_dir(outdir)
    with open_output(args.report) as fh:  # a report that cannot be written leaves no --out
        write_trees(trees, args.out)
        dump_json(skipped, fh)
    if skipped:
        log.warning("%d/%d graphs not decomposable: %s", len(skipped), len(corpus),
                    first_ids(s["id"] for s in skipped))
    log.info("decomposed %d/%d graphs in %.2fs", len(corpus) - len(skipped),
             len(corpus), time.time() - t0)
    write_manifest(args.manifest or args.out + ".manifest.json", "decompose",
                   {"tie_break": args.tie_break, "jobs": args.jobs,
                    "enumerate_unrollings": args.enumerate_unrollings},
                   [args.graphs] + ([args.blobs] if args.blobs else []),
                   [args.out, args.report],
                   {"graphs": len(corpus), "decomposed": len(corpus) - len(skipped),
                    "skipped": len(skipped), "trees": len(trees)})
    return (EXIT_PARTIAL if skipped else EXIT_OK), corpus, trees, skipped


def _source_names(k):
    """The reusable source names s1..sk of --sources k."""
    return tuple(f"s{i + 1}" for i in range(k))


def _build_one(payload):
    from .automata import build_automaton
    from .errors import NotWellTyped

    tid, tree, sources, path = payload
    try:
        return tid, build_automaton(tree, sources, graph_id=tid)
    except NotWellTyped as exc:
        raise AmdepError(f"{path}: item {tid!r}: {exc}") from exc


def _automaton_files(ids):
    """One file name per id: the id with '#' replaced by '_'. When that name
    is already taken (a#0 and a_0 both give a_0), the later id gets the
    first '<name>_<k>' that is neither taken nor any other id's own name.
    An id holding '/' or NUL, which no file name can, is an error."""
    for tid in ids:
        if "/" in tid or "\0" in tid:
            raise AmdepError(f"id {tid!r} cannot name an automaton file: it holds '/' or NUL")
    stems = [tid.replace("#", "_") for tid in ids]
    reserved = set(stems)
    used: set[str] = set()
    names = []
    for stem in stems:
        name, k = stem, 0
        while name in used or (k and name in reserved):
            k += 1
            name = f"{stem}_{k}"
        used.add(name)
        names.append(f"{name}.auto")
    return names


def cmd_build_automata(args):
    return _build_automata(args)[0]


def _build_automata(args, trees=None):
    """build-automata; returns the exit code and the (id, automaton) list.
    trees: the (id, tree) list of args.trees when the caller already holds
    it, as the pipeline does; read from there when None."""
    from .algebra import read_trees
    from .automata import count_trees, write_automaton

    sources = _source_names(args.sources)
    if trees is None:
        trees = read_trees(args.trees)
    results = _map(_build_one, [(tid, t, sources, args.trees) for tid, t in trees], args.jobs)
    outdir = Path(args.out)
    make_output_dir(outdir)
    index = []
    outputs = []
    for (tid, a), fname in zip(results, _automaton_files([tid for tid, _a in results])):
        write_automaton(a, outdir / fname)
        outputs.append(outdir / fname)
        index.append({"id": tid, "file": fname, **_entry_counts(a, count_trees(a))})
    write_json({"sources": list(sources), "automata": index}, outdir / "index.json")
    empty = [tid for tid, a in results if a.empty]
    if empty:
        log.warning("%d/%d automata empty at %d sources: %s", len(empty), len(results),
                    len(sources), first_ids(empty))
    write_manifest(outdir / "manifest.json", "build-automata",
                   {"sources": args.sources, "jobs": args.jobs},
                   [args.trees], [str(p) for p in outputs] + [str(outdir / "index.json")],
                   {"automata": len(index), "empty": len(empty)})
    return (EXIT_PARTIAL if empty else EXIT_OK), results


def _entry_counts(a, trees=None):
    """The fields of an index.json entry that describe automaton a, which
    build-automata writes and loading checks; trees is a's tree count, and
    without it the entry's "trees" field is left out."""
    fields = {"rules": len(a.labels), "states": len(a.state_list), "empty": a.empty}
    if trees is not None:
        fields["trees"] = _decimal(trees)
    return fields


def _decimal(n):
    """str(n) for a tree count n >= 0, also one with more digits than
    Python converts to text by default (4,300), as a deep graph's count can
    have: its digits grow linearly with the graph."""
    try:
        return str(n)
    except ValueError:
        high, low = divmod(n, 10 ** 4000)
        return _decimal(high) + str(low).zfill(4000)


def _read_automata_dir(path, counted=False):
    """The (id, automaton) list of the files path's index.json lists and,
    when counted, the list of their tree counts (else None). An automaton
    whose rule or state count, empty flag or tree count is not the one its
    index entry records, as in a file that lost or gained a line, raises
    MalformedInput naming the file and both values; an entry without those
    keys is not checked against them."""
    from .automata import count_trees, read_automaton
    from .files import INDEX, read_json

    index = Path(path) / "index.json"
    automata = []
    counts = [] if counted else None
    for item in read_json(index, INDEX)["automata"]:
        file = Path(path) / item["file"]
        a = read_automaton(file)[0]
        trees = count_trees(a) if counted or "trees" in item else None
        if counted:
            counts.append(trees)
        found = _entry_counts(a, trees if "trees" in item else None)
        for key, value in found.items():
            if key in item and (type(item[key]), item[key]) != (type(value), value):
                raise MalformedInput(f"{file}: {key} is {json.dumps(value)}, but {index} "
                                     f"records {json.dumps(item[key])}")
        automata.append((item["id"], a))
    return automata, counts


def cmd_count(args):
    automata, counts = _read_automata_dir(args.automata, counted=True)
    for (tid, _a), c in zip(automata, counts):
        print(f"{tid}\t{_decimal(c)}")
    print(f"TOTAL\t{_decimal(sum(counts))}")
    return EXIT_OK


def cmd_train_em(args):
    _train_em(args, _read_automata_dir(args.automata)[0])
    return EXIT_OK


def _train_em(args, automata):
    """train-em on the (id, automaton) list of args.automata; returns the
    EventTable it wrote."""
    from .training import SMOOTHING, em_fit, random_weights_baseline

    smoothing = SMOOTHING if args.smoothing is None else args.smoothing
    if args.iters == 0:
        table = random_weights_baseline(automata, seed=args.seed)
    else:
        table = em_fit(automata, iterations=args.iters, seed=args.seed,
                       smoothing=smoothing)
    write_json(table.to_json(), args.out)
    write_manifest(args.manifest or args.out + ".manifest.json", "train-em",
                   {"iters": args.iters, "seed": args.seed, "smoothing": smoothing},
                   [str(Path(args.automata) / "index.json")], [args.out],
                   {"events": len(table.theta), "instances": len(automata)})
    return table


def cmd_train_joint(args):
    from .training import JointConfig, joint_fit

    automata = _read_automata_dir(args.automata)[0]
    if args.corpus:
        from .graph import read_corpus

        wanted = {gid for gid, _ in read_corpus(args.corpus)}
        automata = [(tid, a) for tid, a in automata if tid.split("#")[0] in wanted]
    cfg = JointConfig(epochs=args.epochs, lr=args.lr, batch=args.batch,
                      seed=args.seed, l2=args.l2)
    scorer = joint_fit(automata, cfg)
    write_json(scorer.to_json(), args.out)
    write_manifest(args.manifest or args.out + ".manifest.json", "train-joint",
                   {"epochs": args.epochs, "lr": args.lr, "batch": args.batch,
                    "seed": args.seed, "l2": args.l2},
                   [str(Path(args.automata) / "index.json")], [args.out],
                   {"params": len(scorer.params), "instances": len(automata)})
    return EXIT_OK


def cmd_viterbi(args):
    from .files import WEIGHTS, read_json
    from .training import weights_from_json

    automata = _read_automata_dir(args.automata)[0]
    weights = weights_from_json(read_json(args.weights, WEIGHTS)) if args.weights else None
    return _viterbi(args, automata, weights)[0]


def _viterbi(args, automata, weights):
    """viterbi on the (id, automaton) list of args.automata under the
    weights of args.weights (None for unit weights); returns the exit code
    and the (id, tree) list."""
    from .algebra import write_trees
    from .automata import reconstruct_tree
    from .training import random_tree_baseline, reconstruct_best

    best = []
    skipped = []
    for tid, a in automata:
        try:
            if args.sample_seed is None:
                tree = reconstruct_best(a, weights)
            else:
                run = random_tree_baseline(a, seed=f"{args.sample_seed}:{tid}")
                tree = reconstruct_tree(a, run)
        except EmptyAutomaton:
            skipped.append(tid)
            continue
        best.append((tid, tree))
    write_trees(best, args.out)
    if skipped:
        log.warning("%d/%d automata empty, no tree: %s", len(skipped), len(automata),
                    first_ids(skipped))
    write_manifest(args.manifest or args.out + ".manifest.json", "viterbi",
                   {"weights": Path(args.weights).name if args.weights else None,
                    "sample_seed": args.sample_seed},
                   [str(Path(args.automata) / "index.json")]
                   + ([args.weights] if args.weights else []),
                   [args.out], {"trees": len(best), "skipped": len(skipped)})
    return (EXIT_PARTIAL if skipped else EXIT_OK), best


def verify_tree(tree, graph):
    """verify's verdict on one tree: None when it evaluates to a graph
    isomorphic to graph, else why not."""
    from .algebra import evaluate
    from .graph import is_isomorphic_mod_of

    try:
        if is_isomorphic_mod_of(evaluate(tree), graph):
            return None
        return "evaluation not isomorphic to graph"
    except NonEmptyRootType as exc:
        return f"open sources {exc.typ}"
    except AmdepError as exc:
        return str(exc)


def cmd_verify(args, corpus=None, trees=None):
    """corpus, trees: the (id, graph) and (id, tree) lists of args.graphs and
    args.trees when the caller already holds them; read when None."""
    from .algebra import read_trees
    from .graph import read_corpus

    corpus = dict(read_corpus(args.graphs) if corpus is None else corpus)
    if trees is None:
        trees = read_trees(args.trees)
    report = []
    for tid, tree in trees:
        gid = tid.split("#")[0]
        error = verify_tree(tree, corpus[gid]) if gid in corpus else "no matching graph"
        report.append({"id": tid, "ok": True} if error is None else {"id": tid, "error": error})
    if args.out:
        write_json(report, args.out)
    failed = [entry["id"] for entry in report if "error" in entry]
    if failed:
        log.warning("%d/%d trees failed verify: %s", len(failed), len(trees), first_ids(failed))
    print(f"verified {len(trees) - len(failed)}/{len(trees)} trees")
    return EXIT_FAIL if failed else EXIT_OK


def cmd_stats(args):
    from .algebra import read_trees
    from .training import constant_entropy, event_histogram

    trees = [t for _tid, t in read_trees(args.trees)]
    if not trees:
        print("constant entropy: n/a (no trees)")
        return EXIT_OK
    h = constant_entropy(trees)
    constants, edges = event_histogram(trees)
    print(f"constant entropy: {h:.6f} nats over {len(constants)} distinct constants")
    print("top constants:")
    for form, cnt in constants.most_common(args.top):
        print(f"  {cnt:6d}  {form}")
    print("edge operations:")
    for op, cnt in sorted(edges.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {cnt:6d}  {op}")
    return EXIT_OK


def cmd_pipeline(args):
    from .training import constant_entropy

    outdir = Path(args.out)
    ns = argparse.Namespace(**vars(args))
    ns.out = str(outdir / "trees.json")
    ns.report = str(outdir / "skipped.json")
    ns.manifest = str(outdir / "decompose.manifest.json")
    code1, corpus, trees, skipped = _decompose(ns, outdir)
    if not trees:
        skipped_ids = first_ids(s["id"] for s in skipped) or "none"
        raise AmdepError(f"no graph decomposed (skipped: {skipped_ids}; reasons in {ns.report})")
    ns2 = argparse.Namespace(trees=str(outdir / "trees.json"), sources=args.sources,
                             out=str(outdir / "automata"), jobs=args.jobs)
    code2, automata = _build_automata(ns2, trees)
    ns3 = argparse.Namespace(automata=str(outdir / "automata"), iters=args.iters,
                             seed=args.seed, smoothing=None,
                             out=str(outdir / "theta.json"),
                             manifest=str(outdir / "theta.manifest.json"))
    table = _train_em(ns3, automata)
    ns4 = argparse.Namespace(automata=str(outdir / "automata"),
                             weights=str(outdir / "theta.json"), sample_seed=None,
                             out=str(outdir / "best-trees.json"),
                             manifest=str(outdir / "viterbi.manifest.json"))
    code4, best = _viterbi(ns4, automata, table)
    ns5 = argparse.Namespace(graphs=args.graphs, trees=str(outdir / "best-trees.json"),
                             out=str(outdir / "verify.json"))
    code5 = cmd_verify(ns5, corpus, best)
    counts = {
        "graphs": len(corpus),
        "decomposed": len(corpus) - len(skipped),
        "skipped_nondecomposable": len(skipped),
        "best_trees": len(best),
        "constant_entropy": constant_entropy([t for _tid, t in best]) if best else None,
    }
    write_manifest(outdir / "manifest.json", "pipeline",
                   {"sources": args.sources, "iters": args.iters, "seed": args.seed,
                    "tie_break": args.tie_break, "jobs": args.jobs},
                   [args.graphs] + ([args.blobs] if args.blobs else []),
                   [str(outdir / "trees.json"), str(outdir / "theta.json"),
                    str(outdir / "best-trees.json")],
                   counts)
    codes = [code1, code2, code4, code5]
    if EXIT_FAIL in codes:
        return EXIT_FAIL
    if EXIT_PARTIAL in codes:
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="amdep", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic corpus with gold trees")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-nodes", type=int, default=12)
    g.add_argument("--sources", type=int, default=3)
    g.add_argument("--graphs", required=True, help="output corpus JSON")
    g.add_argument("--trees", required=True, help="output gold trees JSON")
    g.add_argument("--manifest")
    g.set_defaults(func=cmd_gen, least={"sources": (1, "gen needs at least one source name")})

    d = sub.add_parser("decompose", help="graphs -> dependency trees with placeholders")
    d.add_argument("--graphs", required=True)
    d.add_argument("--blobs", help="blob heuristics TSV (default: built-in table)")
    d.add_argument("--tie-break", default="sorted", help="sorted | seeded:K")
    d.add_argument("--enumerate-unrollings", action="store_true",
                   help="emit every resolvable unrolling, ids suffixed #k")
    d.add_argument("--out", required=True)
    d.add_argument("--report", required=True, help="skipped non-decomposable graphs")
    d.add_argument("--jobs", type=int, default=1)
    d.add_argument("--manifest")
    d.set_defaults(func=cmd_decompose)

    b = sub.add_parser("build-automata", help="trees -> per-graph source-name automata")
    b.add_argument("--trees", required=True)
    b.add_argument("--sources", type=int, default=3)
    b.add_argument("--out", required=True, help="output directory")
    b.add_argument("--jobs", type=int, default=1)
    b.set_defaults(func=cmd_build_automata)

    c = sub.add_parser("count", help="print accepted-tree counts per automaton")
    c.add_argument("--automata", required=True)
    c.set_defaults(func=cmd_count)

    e = sub.add_parser("train-em", help="EM over tied event weights "
                                        "(--iters 0 gives the random-weights baseline)")
    e.add_argument("--automata", required=True)
    e.add_argument("--iters", type=int, default=25)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--smoothing", type=float,
                   help="additive smoothing of expected event counts "
                        "(default: amdep.training.SMOOTHING)")
    e.add_argument("--out", required=True)
    e.add_argument("--manifest")
    e.set_defaults(func=cmd_train_em)

    j = sub.add_parser("train-joint", help="log-linear scorer by gradient ascent on log inside")
    j.add_argument("--automata", required=True)
    j.add_argument("--corpus", help="optional corpus JSON restricting instances")
    j.add_argument("--epochs", type=int, default=10)
    j.add_argument("--lr", type=float, default=0.5)
    j.add_argument("--batch", type=int, default=0, help="0 = full batch")
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--l2", type=float, default=0.0)
    j.add_argument("--out", required=True)
    j.add_argument("--manifest")
    j.set_defaults(func=cmd_train_joint)

    v = sub.add_parser("viterbi", help="best tree per automaton under weights "
                                       "(--sample-seed K samples uniformly instead)")
    v.add_argument("--automata", required=True)
    v.add_argument("--weights", help="theta.json or scorer.json; unit weights if omitted")
    v.add_argument("--sample-seed", type=int, default=None)
    v.add_argument("--out", required=True)
    v.add_argument("--manifest")
    v.set_defaults(func=cmd_viterbi)

    w = sub.add_parser("verify", help="check trees are well-typed and evaluate to their graphs")
    w.add_argument("--graphs", required=True)
    w.add_argument("--trees", required=True)
    w.add_argument("--out", help="optional JSON report")
    w.set_defaults(func=cmd_verify)

    s = sub.add_parser("stats", help="constant entropy and event histograms")
    s.add_argument("--trees", required=True)
    s.add_argument("--top", type=int, default=10)
    s.set_defaults(func=cmd_stats)

    q = sub.add_parser("pipeline", help="decompose, build automata, train EM, viterbi, verify")
    q.add_argument("--graphs", required=True)
    q.add_argument("--blobs")
    q.add_argument("--tie-break", default="sorted")
    q.add_argument("--enumerate-unrollings", action="store_true")
    q.add_argument("--sources", type=int, default=3)
    q.add_argument("--iters", type=int, default=25)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--jobs", type=int, default=1)
    q.add_argument("--out", required=True, help="output directory")
    q.set_defaults(func=cmd_pipeline)
    return p


def _check_flags(args):
    """Raise AmdepError naming the first flag of args that is a float but
    not finite or is below its least value (LEAST, where the command's own
    table overrides it), or a --tie-break that names no order."""
    least = {**LEAST, **getattr(args, "least", {})}
    for dest, value in vars(args).items():
        flag = "--" + dest.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise AmdepError(f"{flag} {value}: not a finite number")
        if dest in least and value is not None and value < least[dest][0]:
            raise AmdepError(f"{flag} {value}: {least[dest][1]}")
    if hasattr(args, "tie_break"):
        from .decompose import _order_key

        try:
            _order_key(args.tie_break)
        except ValueError:
            raise AmdepError(f"--tie-break {args.tie_break}: "
                             "use 'sorted' or 'seeded:K' with an integer K") from None


def _set_up_logging(level="WARNING"):
    """Messages at level and above go to stderr, each prefixed with its level
    and logger name; ValueError if level names no level."""
    import logging

    logging.getLogger().setLevel(level)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    # with AMD_LOG unset the set-up waits for the first message, so a command
    # that writes none does not import logging
    if "AMD_LOG" in os.environ or "logging" in sys.modules:
        defer_log_set_up(None)
        try:
            _set_up_logging(os.environ.get("AMD_LOG", "WARNING"))
        except ValueError as exc:
            print(f"error: AMD_LOG: {exc}", file=sys.stderr)
            return EXIT_FAIL
    else:
        defer_log_set_up(_set_up_logging)
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except AmdepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def run():
    """The amdep command: main() in a process that ends when it returns. A
    command builds tuples and lists that hold no cycles, and the start-up
    heap lives as long as the process, so collecting either frees nothing:
    before main() that heap is frozen and young collections are made rare,
    and after it the heap is frozen again, so the exit does not rescan it."""
    gc.freeze()
    gc.set_threshold(GC_THRESHOLD, *gc.get_threshold()[1:])
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
