"""Golden digests of the automaton files build-automata writes.

The digests pin every byte of the .auto files and index.json for the
gold and the decomposed trees of gen_corpus(40, 0), at 3 and 5 sources.
Nothing they cover is a float, so they hold on every platform. To record
them again after a deliberate change of the file format or of the build:

    PYTHONPATH=src python tests/test_automaton_bytes.py > tests/goldens/automata-digests.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from amdep.algebra import write_trees
from amdep.cli import main
from amdep.decompose import Decomposition, decompose
from amdep.generate import gen_corpus
from amdep.graph import BlobHeuristics

GOLDEN = Path(__file__).parent / "goldens" / "automata-digests.json"


def automata_digests(root: Path) -> dict:
    """{'<trees>/<k>/<file>': sha256} over every file but the manifest that
    build-automata writes for each tree set and source count."""
    corpus = gen_corpus(40, 0)
    heuristics = BlobHeuristics.default_table()
    tree_sets = {"gold": [(gid, t) for gid, _g, t in corpus],
                 "decomposed": [(gid, d.tree) for gid, g, _t in corpus
                                if isinstance(d := decompose(g, heuristics), Decomposition)]}
    digests = {}
    for name, trees in tree_sets.items():
        write_trees(trees, root / f"{name}.json")
        for k in (3, 5):
            out = root / name / str(k)
            main(["build-automata", "--trees", str(root / f"{name}.json"),
                  "--sources", str(k), "--out", str(out)])
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    digests[f"{name}/{k}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
    return digests


def test_automaton_bytes_match_golden(tmp_path):
    got = automata_digests(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    assert {f: d for f, d in got.items() if want[f] != d} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(automata_digests(Path(tmp)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
