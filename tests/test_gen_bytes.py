"""Golden digests of the corpora gen writes.

The digests pin every byte of graphs.json and gold.json from
``gen --n 20`` at seeds 0, 1 and 101 and --max-nodes 5, 12 and 100. The
graphs are the evaluated gold trees, so this pins the node ids and edges
that evaluation produces. To record them again after a deliberate change of
the generator or of evaluation:

    PYTHONPATH=src python tests/test_gen_bytes.py > tests/goldens/gen-digests.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from amdep.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "gen-digests.json"
SEEDS = (0, 1, 101)
MAX_NODES = (5, 12, 100)


def gen_digests(root: Path) -> dict:
    """{'<seed>/<max_nodes>/<file>': sha256} over both corpus files."""
    digests = {}
    for seed in SEEDS:
        for max_nodes in MAX_NODES:
            out = root / f"{seed}-{max_nodes}"
            out.mkdir()
            main(["gen", "--n", "20", "--seed", str(seed), "--max-nodes", str(max_nodes),
                  "--graphs", str(out / "graphs.json"), "--trees", str(out / "gold.json")])
            for name in ("graphs.json", "gold.json"):
                digests[f"{seed}/{max_nodes}/{name}"] = hashlib.sha256(
                    (out / name).read_bytes()).hexdigest()
    return digests


def test_gen_bytes_match_golden(tmp_path):
    got = gen_digests(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    assert {f: d for f, d in got.items() if want[f] != d} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(gen_digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
