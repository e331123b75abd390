#!/usr/bin/env python3
"""Seeded end-to-end benchmark for amdep.

    python3 bench/run.py --workload em-corpus --seed 1 --seconds 40 --trace 0

Run from the repository root. The benchmark draws the workload's corpus from
--seed, then acts as one closed-loop client: it runs the real ``amdep``
commands one at a time, each in its own process with ``--jobs 1``, and
repeats that cycle until --seconds is used up (at least twice, so the
bit-identical rerun can be checked). Every cycle's outputs are checked; a
failed check ends the run with ``"correct": false`` and exit code 1. Between
commands it runs a fixed reference workload (reference.py) and scales every
time by the host speed that it shows.

With --trace 1 it instead runs each pipeline stage as its own command and
calls the package's functions directly on the same inputs, recording one
span per call (see layers.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Run metadata (Python version,
nproc, seed, input sizes) and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from common import (ROOT, Amdep, CheckFailed, check, check_decomposed, check_em_history,
                    failure_counts, load_json, set_up, sha256)

OUT = ROOT / ".bench_out"
MIN_SAMPLE_S = 0.5
# Median wall time of reference.py on the development host (2-core VM,
# Python 3.11.7) when it runs at full speed. Each timed sample is divided by
# the mean wall of the references run just before and after it, and a metric
# is the median of these ratios times REFERENCE_S: seconds as they would read
# on that host at that speed.
REFERENCE_S = 0.135


# ---------------------------------------------------------------------------
# end to end (tracing off)


def check_verify_stdout(stdout, ntrees):
    line = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    check(line == f"verified {ntrees}/{ntrees} trees", f"verify printed {line!r}")


def check_count(stdout, automata_dir):
    """count's per-automaton lines and TOTAL agree with index.json."""
    index = load_json(automata_dir / "index.json")["automata"]
    lines = [ln.split("\t") for ln in stdout.strip().splitlines()]
    check(lines and lines[-1][0] == "TOTAL", "count printed no TOTAL line")
    expected = [(a["id"], int(a["trees"])) for a in index]
    check([(k, int(v)) for k, v in lines[:-1]] == expected,
          "count per-automaton lines differ from index.json")
    check(int(lines[-1][1]) == sum(t for _id, t in expected),
          "count TOTAL differs from the sum of index.json trees")


def check_scorer(scorer_json):
    scorer = load_json(scorer_json)
    values = list(scorer["params"].values()) + scorer["meta"]["mean_log_inside"]
    check(all(math.isfinite(v) for v in values), "train-joint produced non-finite values")


def sizes(run_dir):
    index = load_json(run_dir / "automata" / "index.json")["automata"]
    return {"rules": sum(a["rules"] for a in index),
            "states": sum(a["states"] for a in index),
            "distinct_events": len(load_json(run_dir / "theta.json")["theta"])}


def cycle(w, amdep, graphs, ngraphs, cdir, refs):
    """One pass of every timed command over the corpus; returns each
    command's samples, output digests and failure counts. A command shorter
    than MIN_SAMPLE_S runs again until it has used that long, so short
    commands, whose relative noise is largest, get more samples. The
    reference workload runs after each command; each sample is paired with
    the mean of the references just before and after it, appended to
    ``refs``."""
    cdir.mkdir()
    run = cdir / "run"
    samples = {}

    def timed(metric, *args, ok=(0,)):
        walls = []
        while sum(walls) < MIN_SAMPLE_S:
            wall, out = amdep(*args, ok=ok)
            walls.append(wall)
        refs.append(amdep.reference())
        ref = (refs[-2] + refs[-1]) / 2
        samples[metric] = [(wall, ref) for wall in walls]
        return out

    timed("decompose_s", "decompose", "--graphs", graphs, "--jobs", 1,
          "--out", cdir / "trees.json", "--report", cdir / "skipped.json", ok=(0, 2))
    ntrees = check_decomposed(ngraphs, cdir / "trees.json", cdir / "skipped.json")
    out = timed("verify_s", "verify", "--graphs", graphs, "--trees", cdir / "trees.json")
    check_verify_stdout(out, ntrees)
    timed("pipeline_s", "pipeline", "--graphs", graphs, "--sources", w.sources,
          "--iters", w.iters, "--seed", 0, "--jobs", 1, "--out", run, ok=(0, 2))
    check(sha256(run / "trees.json") == sha256(cdir / "trees.json"),
          "pipeline's decompose output differs from the decompose command's")
    check_em_history(run / "theta.json")
    verified, failures = failure_counts(ngraphs, run)
    out = timed("count_s", "count", "--automata", run / "automata")
    check_count(out, run / "automata")
    timed("train_joint_s", "train-joint", "--automata", run / "automata",
          "--epochs", w.epochs, "--out", cdir / "scorer.json")
    check_scorer(cdir / "scorer.json")
    digests = {name: sha256(path) for name, path in (
        ("theta.json", run / "theta.json"), ("best-trees.json", run / "best-trees.json"),
        ("scorer.json", cdir / "scorer.json"))}
    return {"samples": samples, "digests": digests, "verified": verified,
            "failures": failures, "sizes": sizes(run)}


def end_to_end(w, seed, seconds, t_start, work, amdep):
    refs = [amdep.reference()]
    setup_s, corpus, size, graphs = set_up(w, seed, work, repeats=3, min_s=MIN_SAMPLE_S)
    refs.append(amdep.reference())
    setup_ref = (refs[0] + refs[1]) / 2
    ngraphs = len(corpus)
    cycles, longest = [], 0.0
    # Stop before a cycle that could end past --seconds, counted from the
    # start of main(): cycles vary by up to a fifth, and start-up and clean-up
    # take a fraction of a second. Run at least two, so reruns can be compared.
    while len(cycles) < 2 or time.perf_counter() - t_start + 1.2 * longest <= seconds:
        t = time.perf_counter()
        cdir = work / f"cycle{len(cycles)}"
        cycles.append(cycle(w, amdep, graphs, ngraphs, cdir, refs))
        shutil.rmtree(cdir)
        longest = max(longest, time.perf_counter() - t)
    first = cycles[0]
    for c in cycles[1:]:
        for name, digest in c["digests"].items():
            check(digest == first["digests"][name], f"{name} differs between reruns")
        check(c["failures"] == first["failures"] and c["verified"] == first["verified"],
              f"failure counts differ between reruns: {first['failures']} vs {c['failures']}")
    samples = {name: [x for c in cycles for x in c["samples"][name]]
               for name in first["samples"]}
    metrics = {"setup_s": (setup_s * REFERENCE_S / setup_ref, "s")}
    for name, pairs in samples.items():
        metrics[name] = (statistics.median(wall / ref for wall, ref in pairs) * REFERENCE_S, "s")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    metrics["verified_ratio"] = (first["verified"] / ngraphs, "1")
    meta = {"cycles": len(cycles), "graphs": ngraphs,
            "mean_nodes": statistics.fmean(len(g.nodes) for _gid, g, _t in corpus),
            f"corpus_{w.unit}": size, **first["sizes"],
            "failures": first["failures"], "failed_ratio": 1 - first["verified"] / ngraphs,
            "setup_wall_s": setup_s, "setup_reference_s": setup_ref,
            "stage_samples_s": samples, "reference_walls_s": refs,
            "host_speed": REFERENCE_S / statistics.median(refs),
            "digests": first["digests"]}
    return metrics, meta


# ---------------------------------------------------------------------------


def main(argv=None):
    t_start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "amdep" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/amdep; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    logging.getLogger("amdep").setLevel(logging.ERROR)  # per-graph warnings
    OUT.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    amdep = Amdep(work)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    meta = {"workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    correct = True
    metrics = {}
    try:
        if args.trace:
            from layers import traced_run

            metrics, run_meta = traced_run(w, args.seed, work, amdep, OUT / f"{tag}.spans.jsonl")
        else:
            metrics, run_meta = end_to_end(w, args.seed, args.seconds, t_start, work, amdep)
        meta.update(run_meta)
    except CheckFailed as exc:
        correct = False
        meta["check_failed"] = str(exc)
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {"correct": correct, "attempted": amdep.attempted, "failed": amdep.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps({"meta": meta, "result": result},
                                                indent=1, sort_keys=True) + "\n")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
