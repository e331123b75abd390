"""Pieces both benchmark modes share: the command runner, corpus set-up and
the checks on the program's outputs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
COMMAND_TIMEOUT_S = 60  # the slowest command takes a few seconds
REFERENCE = Path(__file__).resolve().parent / "reference.py"


class CheckFailed(Exception):
    """An output of the program is wrong; the run is not a valid sample."""


def check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class Amdep:
    """Runs ``python -m amdep.cli`` from the checkout's src/ and counts the
    commands attempted and failed; also runs the reference workload."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("AMD_LOG", None)
        self.stdout, self.stderr = work / "stdout.txt", work / "stderr.txt"
        self.attempted = 0
        self.failed = 0

    def __call__(self, *args, ok=(0,)):
        """Run one command; return (wall seconds, stdout text)."""
        self.attempted += 1
        rc, wall = self._run(["-m", "amdep.cli", *map(str, args)])
        if rc not in ok:
            self.failed += 1
            tail = self.stderr.read_text(errors="replace").strip().splitlines()[-1:]
            raise CheckFailed(f"amdep {args[0]} exited {rc}, expected {ok}: {tail}")
        return wall, self.stdout.read_text()

    def reference(self):
        """Run the reference workload (reference.py); return its wall time."""
        rc, wall = self._run([str(REFERENCE)])
        check(rc == 0, f"reference.py exited {rc}")
        return wall

    def _run(self, argv):
        with open(self.stdout, "w") as fo, open(self.stderr, "w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe,
                                    env=self.env)
            # Popen.wait(timeout) polls in steps of up to 50 ms, which would
            # quantize the wall time; a timer kills a hung command instead.
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                rc = proc.wait()
            finally:
                killer.cancel()
            return rc, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up


def set_up(w, seed, work, repeats, min_s=0.0, gen=None):
    """Generate the corpus and write graphs.json, at least ``repeats`` times
    and until the repeats have taken ``min_s`` seconds; return
    the median wall time, the corpus, its size in the workload's unit, and
    the path. The corpus is sized once, untimed, so set-up times only
    ``gen_corpus`` and ``write_corpus``. Every repeat must write the same
    bytes. ``gen`` replaces ``gen_corpus`` (the traced run passes a wrapped
    one)."""
    from amdep.generate import gen_corpus
    from amdep.graph import write_corpus
    from workloads import choose_corpus

    n, ids, size = choose_corpus(w, seed)
    keep = set(ids)
    cfg = w.config()
    graphs = work / "graphs.json"
    times, digests = [], set()
    while len(times) < repeats or sum(times) < min_s:
        t0 = time.perf_counter()
        corpus = [item for item in (gen or gen_corpus)(n, seed, cfg) if item[0] in keep]
        write_corpus([(gid, g) for gid, g, _tree in corpus], graphs)
        times.append(time.perf_counter() - t0)
        digests.add(sha256(graphs))
    check(len(digests) == 1, "corpus generation is not deterministic")
    return statistics.median(times), corpus, size, graphs


# ---------------------------------------------------------------------------
# output checks shared by both modes


def check_decomposed(ngraphs, trees_json, skipped_json):
    trees, skipped = load_json(trees_json), load_json(skipped_json)
    check(len(trees) + len(skipped) == ngraphs,
          f"decompose: {len(trees)} trees + {len(skipped)} skipped != {ngraphs} graphs")
    return len(trees)


def check_em_history(theta_json):
    history = load_json(theta_json)["meta"]["log_likelihood"]
    check(all(math.isfinite(x) for x in history), "EM log-likelihood is not finite")
    for prev, cur in zip(history, history[1:]):
        check(cur >= prev - 1e-9 * max(1.0, abs(prev)),
              f"EM log-likelihood decreased: {prev!r} -> {cur!r}")


def failure_counts(ngraphs, run_dir):
    """Per-reason counts of graphs with no verified output tree. Every tree
    viterbi produced must verify, so the verify-failure count is 0 in any run
    that passes the gate; it is kept so the accounting sums to the corpus."""
    skipped = load_json(run_dir / "skipped.json")
    index = load_json(run_dir / "automata" / "index.json")["automata"]
    report = load_json(run_dir / "verify.json")
    best = load_json(run_dir / "best-trees.json")
    bad = [e["id"] for e in report if not e.get("ok")]
    check(not bad, f"viterbi trees fail verification: {bad[:5]}")
    check(len(report) == len(best), "verify report does not cover every best tree")
    counts = {"nondecomposable": len(skipped),
              "empty_automaton": sum(1 for a in index if a["empty"]),
              "verify_failure": len(bad)}
    verified = len(report) - len(bad)
    check(verified + sum(counts.values()) == ngraphs,
          f"failure accounting: {verified} verified + {counts} != {ngraphs} graphs")
    return verified, counts
