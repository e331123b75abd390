"""Golden digests of what decompose writes.

The digests pin every byte of trees.json and skipped.json from
``amdep decompose`` on three corpora: ``gen --n 40 --seed 1`` at
--max-nodes 12 and 100, and a seeded corpus of 300 random 2-8-node graphs
whose skip report holds every skip reason (directed cycles, Theorem-1
violations, failed resolutions, open sources). Each corpus is decomposed
with and without --enumerate-unrollings, except the 100-node one, which
takes about 19 s to enumerate and so is pinned without it; the random
corpus is also decomposed both ways under --tie-break seeded:7. One more digest
pins the trees enumerate_candidate_trees finds with swaps and lifted
targets on the first 150 random graphs. To record them again after a
deliberate change of the decomposition:

    PYTHONPATH=src python tests/test_decompose_bytes.py > tests/goldens/decompose-digests.json
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from amdep.cli import main
from amdep.decompose import enumerate_candidate_trees
from amdep.graph import BlobHeuristics, SemanticGraph, write_corpus

GOLDEN = Path(__file__).parent / "goldens" / "decompose-digests.json"
EDGE_LABELS = ["ARG0", "ARG1", "ARG2", "op1", "mod", "mod"]
NODE_LABELS = ["want", "go", "boy", "tiny", "see"]


def random_graphs(count=300, seed=0):
    """(id, graph) pairs drawn like conftest.small_graphs, at 2-8 nodes: a
    random spanning tree rooted at v0 plus extra edges, at most one edge per
    node pair, each edge reversed with probability 1/2."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        n = rng.randint(2, 8)
        ids = [f"v{j}" for j in range(n)]
        pairs = [(ids[rng.randrange(j)], ids[j]) for j in range(1, n)]
        extra = [(a, b) for a in ids for b in ids if a < b]
        pairs += rng.sample(extra, rng.randint(0, min(n, len(extra))))
        edges = {}
        for a, b in pairs:
            if (a, b) not in edges:
                src, tgt = (b, a) if rng.random() < 0.5 else (a, b)
                edges[(a, b)] = (src, tgt, rng.choice(EDGE_LABELS))
        labels = {v: rng.choice(NODE_LABELS) for v in ids}
        graphs.append((f"r{i:03d}", SemanticGraph(labels, edges.values(), "v0")))
    return graphs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decompose_digests(root: Path) -> dict:
    """{'<corpus>/<mode>/<file>': sha256} over both files decompose writes,
    plus 'random/candidates' over the enumerated candidate trees."""
    graphs = random_graphs()
    write_corpus(graphs, root / "random.json")
    corpora = {"random": root / "random.json"}
    for max_nodes in (12, 100):
        corpora[f"gen-{max_nodes}"] = path = root / f"gen-{max_nodes}.json"
        main(["gen", "--n", "40", "--seed", "1", "--max-nodes", str(max_nodes),
              "--graphs", str(path), "--trees", str(root / f"gold-{max_nodes}.json")])
    seeded = ["--tie-break", "seeded:7"]
    modes = {"first": [], "all": ["--enumerate-unrollings"],
             "seeded-first": seeded, "seeded-all": [*seeded, "--enumerate-unrollings"]}
    digests = {}
    for name, corpus in corpora.items():
        for mode, flags in modes.items():
            if (name, mode) == ("gen-100", "all") or (mode.startswith("seeded")
                                                      and name != "random"):
                continue
            out = root / name / mode
            out.mkdir(parents=True)
            main(["decompose", "--graphs", str(corpus), *flags,
                  "--out", str(out / "trees.json"), "--report", str(out / "skipped.json")])
            for file in ("trees.json", "skipped.json"):
                digests[f"{name}/{mode}/{file}"] = sha256((out / file).read_bytes())
    heuristics = BlobHeuristics.default_table()
    candidates = [[gid, [t.to_json() for t in enumerate_candidate_trees(
                      g, heuristics, with_swaps=True, with_lifts=True)]]
                  for gid, g in graphs[:150]]
    digests["random/candidates"] = sha256(json.dumps(candidates, sort_keys=True).encode())
    return digests


def test_decompose_bytes_match_golden(tmp_path):
    got = decompose_digests(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    assert {f: d for f, d in got.items() if want[f] != d} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(decompose_digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
