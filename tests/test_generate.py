import os
import subprocess
import sys
from pathlib import Path

import pytest

from amdep.algebra import check_well_typed, evaluate
from amdep.generate import GeneratorConfig, gen_corpus, gen_random_tree


class TestGenerator:
    def test_single_node(self):
        cfg = GeneratorConfig(max_nodes=1)
        t = gen_random_tree(cfg, seed=0)
        assert len(t.nodes) == 1
        assert t.constant(t.root).typ.is_empty

    def test_deterministic(self):
        cfg = GeneratorConfig(max_nodes=10)
        a = gen_random_tree(cfg, seed=7)
        b = gen_random_tree(cfg, seed=7)
        assert a.to_json() == b.to_json()
        assert gen_random_tree(cfg, seed=8).to_json() != a.to_json()

    def test_batch_always_valid(self):
        cfg = GeneratorConfig()
        reentrant = 0
        for seed in range(300):
            t = gen_random_tree(cfg, seed=seed)
            assert check_well_typed(t).is_empty
            g = evaluate(t)
            g.validate(require_labels=True)
            indeg = {}
            for e in g.edges:
                indeg[e.tgt] = indeg.get(e.tgt, 0) + 1
            if any(v > 1 for v in indeg.values()):
                reentrant += 1
        # the corpus exercises reentrancies, not just trees
        assert reentrant > 60

    def test_respects_bounds(self):
        cfg = GeneratorConfig(max_nodes=5, max_sources_per_constant=2,
                              sources=("s1", "s2"))
        for seed in range(50):
            t = gen_random_tree(cfg, seed=seed)
            assert len(t.nodes) <= 5
            for n in t.nodes:
                assert len(t.constant(n).sources) <= 2

    def test_source_bound_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(sources=("s1",), max_sources_per_constant=2)

    def test_corpus_ids_and_content(self):
        corpus = gen_corpus(5, seed=3)
        assert [gid for gid, _g, _t in corpus] == [f"g{i:04d}" for i in range(5)]
        for _gid, g, t in corpus:
            assert evaluate(t) == g


def test_gen_deeper_than_the_recursion_limit(tmp_path):
    """A 2,500-node tree is deeper than Python's default recursion limit:
    gen builds it on a stack of generators and exits 0 without a traceback.
    It runs in its own interpreter, at that default limit."""
    proc = subprocess.run(
        [sys.executable, "-m", "amdep.cli", "gen", "--n", "1", "--seed", "1",
         "--max-nodes", "2500", "--graphs", str(tmp_path / "graphs.json"),
         "--trees", str(tmp_path / "gold.json")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
