import contextlib
import gc
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from amdep.algebra import AMDepTree, AMType, constant, write_trees
from amdep.cli import _decimal, main
from amdep.decompose import decompose
from amdep.graph import SemanticGraph

from conftest import MOD_ATTACH_GRAPH, two_error_tree

GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(__file__).resolve().parents[1] / "src"
ONE_EDGE = {"root": "a", "nodes": [{"id": "a", "label": "see"}, {"id": "b", "label": "boy"}],
            "edges": [{"src": "a", "tgt": "b", "label": "ARG0"}]}
PARALLEL_EDGES = {"id": "twice", "root": "a",
                  "nodes": [{"id": "a", "label": "see"}, {"id": "b", "label": "boy"}],
                  "edges": [{"src": "a", "tgt": "b", "label": "ARG0"},
                            {"src": "a", "tgt": "b", "label": "ARG1"}]}
WIDE = {"id": "wide", "root": "a",
        "nodes": [{"id": "a", "label": "give"}, {"id": "b", "label": "cat"},
                  {"id": "c", "label": "dog"}, {"id": "d", "label": "bone"}],
        "edges": [{"src": "a", "tgt": "b", "label": "ARG0"},
                  {"src": "a", "tgt": "c", "label": "ARG1"},
                  {"src": "a", "tgt": "d", "label": "ARG2"}]}


def same_outputs(dir1, dir2):
    """Every output file of two run directories has the same bytes; the
    manifests agree on everything but their config."""
    files = sorted(p.relative_to(dir1) for p in Path(dir1).rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(dir2) for p in Path(dir2).rglob("*") if p.is_file())
    for f in files:
        a, b = (Path(dir1) / f).read_bytes(), (Path(dir2) / f).read_bytes()
        if f.name.endswith("manifest.json"):
            a, b = ({k: v for k, v in json.loads(m).items() if k != "config"} for m in (a, b))
        assert a == b, f


def run(*argv):
    return main([str(a) for a in argv])


def fresh(*argv, **env):
    """Run a new interpreter with src/ on its path and env added to its
    environment; return the completed process."""
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env})


def one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated corpus plus a full pipeline run."""
    root = tmp_path_factory.mktemp("cli")
    assert run("gen", "--n", 12, "--seed", 3, "--max-nodes", 8,
               "--graphs", root / "graphs.json", "--trees", root / "gold.json") == 0
    assert run("pipeline", "--graphs", root / "graphs.json", "--sources", 3,
               "--iters", 5, "--seed", 1, "--out", root / "run") == 0
    return root


class TestGen:
    def test_deterministic(self, tmp_path):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            assert run("gen", "--n", 5, "--seed", 9,
                       "--graphs", tmp_path / d / "g.json",
                       "--trees", tmp_path / d / "t.json") == 0
        assert (tmp_path / "a/g.json").read_bytes() == (tmp_path / "b/g.json").read_bytes()
        assert (tmp_path / "a/t.json").read_bytes() == (tmp_path / "b/t.json").read_bytes()

    def test_empty(self, tmp_path):
        assert run("gen", "--n", 0, "--graphs", tmp_path / "g.json",
                   "--trees", tmp_path / "t.json") == 0
        assert json.loads((tmp_path / "g.json").read_text()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--sources", 0), ("--sources", -1), ("--n", -2), ("--max-nodes", 0)])
    def test_bad_count_exits_1_naming_it(self, tmp_path, capsys, flag, value):
        argv = {"--n": 3, flag: value}
        assert run("gen", *(x for kv in argv.items() for x in kv),
                   "--graphs", tmp_path / "g.json", "--trees", tmp_path / "t.json") == 1
        assert one_error_line(capsys).startswith(f"error: {flag} {value}: ")
        assert list(tmp_path.iterdir()) == []


class TestDecompose:
    def test_figures(self, tmp_path):
        out = tmp_path / "trees.json"
        report = tmp_path / "skipped.json"
        assert run("decompose", "--graphs", GOLDENS / "figures-graphs.json",
                   "--out", out, "--report", report) == 0
        trees = json.loads(out.read_text())
        assert len(trees) == 3
        assert json.loads(report.read_text()) == []

    def test_nondecomposable_partial_exit(self, tmp_path):
        corpus = json.loads((GOLDENS / "figures-graphs.json").read_text())
        corpus.append({
            "id": "bad-cycle",
            "nodes": [{"id": "a", "label": "A"}, {"id": "b", "label": "B"}],
            "edges": [{"src": "a", "tgt": "b", "label": "ARG0"},
                      {"src": "b", "tgt": "a", "label": "ARG1"}],
            "root": "a"})
        src = tmp_path / "corpus.json"
        src.write_text(json.dumps(corpus))
        code = run("decompose", "--graphs", src, "--out", tmp_path / "t.json",
                   "--report", tmp_path / "skip.json")
        assert code == 2
        skipped = json.loads((tmp_path / "skip.json").read_text())
        assert [s["id"] for s in skipped] == ["bad-cycle"]

    @pytest.mark.parametrize("enumerate_all", [False, True])
    def test_parallel_edges_skipped(self, tmp_path, enumerate_all):
        # two edges a -> b become two APP children of a on one placeholder
        # source, so no canonical tree exists
        graphs = tmp_path / "g.json"
        graphs.write_text(json.dumps([{
            "id": "twice", "root": "a",
            "nodes": [{"id": "a", "label": "see"}, {"id": "b", "label": "boy"}],
            "edges": [{"src": "a", "tgt": "b", "label": "ARG0"},
                      {"src": "a", "tgt": "b", "label": "ARG1"}]}]))
        flags = ["--enumerate-unrollings"] if enumerate_all else []
        assert run("decompose", "--graphs", graphs, *flags, "--out", tmp_path / "t.json",
                   "--report", tmp_path / "s.json") == 2
        [skip] = json.loads((tmp_path / "s.json").read_text())
        assert skip["id"] == "twice" and skip["reason"]
        assert json.loads((tmp_path / "t.json").read_text()) == []

    def test_nondecomposable_summarised_in_one_line(self, tmp_path, caplog):
        corpus = [{**ONE_EDGE, "id": f"one{i}"} for i in range(3)]
        corpus += [{**PARALLEL_EDGES, "id": f"twice{i}"} for i in range(7)]
        (tmp_path / "g.json").write_text(json.dumps(corpus))
        with caplog.at_level(logging.WARNING, logger="amdep.cli"):
            assert run("decompose", "--graphs", tmp_path / "g.json", "--out", tmp_path / "t.json",
                       "--report", tmp_path / "s.json") == 2
        assert [rec.getMessage() for rec in caplog.records if rec.name == "amdep.cli"] == [
            "7/10 graphs not decomposable: twice0, twice1, twice2, twice3, twice4 and 2 more"]

    def test_enumerate_unrollings_variants(self, tmp_path):
        assert run("decompose", "--graphs", GOLDENS / "figures-graphs.json",
                   "--enumerate-unrollings",
                   "--out", tmp_path / "t.json", "--report", tmp_path / "s.json") == 0
        ids = [item["id"] for item in json.loads((tmp_path / "t.json").read_text())]
        assert "fairy-that-begins-to-glow#0" in ids
        assert "fairy-that-begins-to-glow#1" in ids

    def test_pipeline_enumerate_unrollings_decomposes_as_decompose(self, tmp_path):
        assert run("decompose", "--graphs", GOLDENS / "figures-graphs.json",
                   "--enumerate-unrollings",
                   "--out", tmp_path / "t.json", "--report", tmp_path / "s.json") == 0
        assert run("pipeline", "--graphs", GOLDENS / "figures-graphs.json",
                   "--enumerate-unrollings", "--iters", 1, "--out", tmp_path / "run") == 0
        assert (tmp_path / "run/trees.json").read_bytes() == (tmp_path / "t.json").read_bytes()
        assert (tmp_path / "run/skipped.json").read_bytes() == (tmp_path / "s.json").read_bytes()

    def test_jobs_parallel_identical(self, workspace, tmp_path):
        assert run("decompose", "--graphs", workspace / "graphs.json",
                   "--out", tmp_path / "t2.json", "--report", tmp_path / "s2.json",
                   "--jobs", 2) == 0
        assert (tmp_path / "t2.json").read_bytes() == \
            (workspace / "run/trees.json").read_bytes()

    def test_build_automata_jobs_identical(self, workspace, tmp_path):
        assert run("build-automata", "--trees", workspace / "run/trees.json",
                   "--out", tmp_path / "auto", "--jobs", 2) == 0
        same_outputs(tmp_path / "auto", workspace / "run/automata")

    def test_custom_blob_table(self, tmp_path):
        blobs = tmp_path / "blobs.tsv"
        blobs.write_text("ARG*\tsrc\n*\tsrc\n")
        assert run("decompose", "--graphs", GOLDENS / "figures-graphs.json",
                   "--blobs", blobs, "--out", tmp_path / "t.json",
                   "--report", tmp_path / "s.json") in (0, 2)


class TestAutomataCommands:
    def test_build_and_count(self, workspace, capsys):
        idx = json.loads((workspace / "run/automata/index.json").read_text())
        assert idx["sources"] == ["s1", "s2", "s3"]
        assert all(not item["empty"] for item in idx["automata"])
        assert run("count", "--automata", workspace / "run/automata") == 0
        out = capsys.readouterr().out
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        for item in idx["automata"]:
            assert lines[item["id"]] == item["trees"]

    def test_two_sources_skips_wide_constants(self, tmp_path):
        # corpus with a three-slot constant: with two sources the instance is
        # reported empty exactly as slot counting predicts
        corpus = [{
            "id": "wide",
            "nodes": [{"id": "a", "label": "give"}, {"id": "b", "label": "cat"},
                      {"id": "c", "label": "dog"}, {"id": "d", "label": "bone"}],
            "edges": [{"src": "a", "tgt": "b", "label": "ARG0"},
                      {"src": "a", "tgt": "c", "label": "ARG1"},
                      {"src": "a", "tgt": "d", "label": "ARG2"}],
            "root": "a"}]
        src = tmp_path / "c.json"
        src.write_text(json.dumps(corpus))
        assert run("decompose", "--graphs", src, "--out", tmp_path / "t.json",
                   "--report", tmp_path / "s.json") == 0
        code = run("build-automata", "--trees", tmp_path / "t.json",
                   "--sources", 2, "--out", tmp_path / "auto2")
        assert code == 2
        idx = json.loads((tmp_path / "auto2/index.json").read_text())
        assert idx["automata"][0]["empty"] is True
        assert run("build-automata", "--trees", tmp_path / "t.json",
                   "--sources", 3, "--out", tmp_path / "auto3") == 0

    def test_renaming_onto_a_carried_name_skipped(self, tmp_path, caplog):
        # see carries s1 next to its placeholder ps(b): renaming ps(b) to s1
        # would name two slots s1, so that renaming is skipped with a warning
        see = constant("see", "a", [("ARG0", "ps(b)"), ("ARG1", "s1")])
        tree = AMDepTree({"a": see, "b": constant("boy", "b")}, "a",
                         [("a", "b", "APP", "ps(b)")])
        write_trees([("g1", tree)], tmp_path / "t.json")
        with caplog.at_level(logging.WARNING, logger="amdep.automata"):
            assert run("build-automata", "--trees", tmp_path / "t.json", "--sources", 2,
                       "--out", tmp_path / "auto2") == 0
        assert [rec.getMessage() for rec in caplog.records] == [
            "graph g1: constant at a: skipped 1 renamings of its placeholders onto source "
            "names it already carries"]
        [item] = json.loads((tmp_path / "auto2/index.json").read_text())["automata"]
        assert item["trees"] == "1" and not item["empty"]
        assert run("build-automata", "--trees", tmp_path / "t.json", "--sources", 1,
                   "--out", tmp_path / "auto1") == 2
        [item] = json.loads((tmp_path / "auto1/index.json").read_text())["automata"]
        assert item["empty"]

    def test_renaming_onto_a_carried_name_with_its_own_request_skipped(self, tmp_path, caplog):
        # as above, but the carried s1 requests [s2] while ps(b) requests
        # nothing: that renaming is skipped the same way, not a traceback
        see = constant("see", "a", [("ARG0", "ps(b)"), ("ARG1", "s1")],
                       typ=AMType({"ps(b)": {}, "s1": {"s2": {}}}))
        tree = AMDepTree({"a": see, "b": constant("boy", "b")}, "a",
                         [("a", "b", "APP", "ps(b)")])
        write_trees([("g1", tree)], tmp_path / "t.json")
        with caplog.at_level(logging.WARNING, logger="amdep.automata"):
            assert run("build-automata", "--trees", tmp_path / "t.json", "--sources", 2,
                       "--out", tmp_path / "auto2") == 0
        assert [rec.getMessage() for rec in caplog.records] == [
            "graph g1: constant at a: skipped 1 renamings of its placeholders onto source "
            "names it already carries"]
        [item] = json.loads((tmp_path / "auto2/index.json").read_text())["automata"]
        assert item["trees"] == "1"

    def test_empty_automata_summarised_in_one_line(self, tmp_path, caplog):
        corpus = [{**WIDE, "id": f"wide{i}"} if i % 2 else {**ONE_EDGE, "id": f"one{i}"}
                  for i in range(14)]
        (tmp_path / "g.json").write_text(json.dumps(corpus))
        assert run("decompose", "--graphs", tmp_path / "g.json", "--out", tmp_path / "t.json",
                   "--report", tmp_path / "s.json") == 0
        with caplog.at_level(logging.WARNING, logger="amdep.cli"):
            assert run("build-automata", "--trees", tmp_path / "t.json", "--sources", 2,
                       "--out", tmp_path / "auto") == 2
        assert [rec.getMessage() for rec in caplog.records if rec.name == "amdep.cli"] == [
            "7/14 automata empty at 2 sources: wide1, wide3, wide5, wide7, wide9 and 2 more"]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="amdep.cli"):
            assert run("build-automata", "--trees", tmp_path / "t.json", "--sources", 3,
                       "--out", tmp_path / "auto3") == 0
        assert [rec for rec in caplog.records if rec.name == "amdep.cli"] == []

    def test_jobs_same_stderr_when_only_workers_warn(self, tmp_path):
        # decompose skips nothing, so the first warning build-automata writes
        # comes from a worker: it still carries its level and logger name
        corpus = [{**WIDE, "id": f"wide{i}"} if i % 2 else {**ONE_EDGE, "id": f"one{i}"}
                  for i in range(6)]
        (tmp_path / "g.json").write_text(json.dumps(corpus))
        assert run("decompose", "--graphs", tmp_path / "g.json", "--out", tmp_path / "t.json",
                   "--report", tmp_path / "s.json") == 0
        errs = []
        for jobs in (1, 2):
            proc = fresh("-m", "amdep.cli", "build-automata", "--trees", tmp_path / "t.json",
                         "--sources", 2, "--jobs", jobs, "--out", tmp_path / f"auto{jobs}")
            assert proc.returncode == 2, proc.stderr
            errs.append(proc.stderr)
        assert errs[0].startswith("WARNING amdep.automata: graph wide1: ")
        assert errs[1] == errs[0]

    def test_colliding_file_names_kept_apart(self, tmp_path, capsys):
        # a#0 and a_0 both map to a_0.auto: each needs its own file
        assert run("decompose", "--graphs", GOLDENS / "figures-graphs.json",
                   "--out", tmp_path / "t.json", "--report", tmp_path / "s.json") == 0
        trees = json.loads((tmp_path / "t.json").read_text())[:2]
        trees[0]["id"], trees[1]["id"] = "a#0", "a_0"
        (tmp_path / "t2.json").write_text(json.dumps(trees))
        assert run("build-automata", "--trees", tmp_path / "t2.json",
                   "--out", tmp_path / "auto") == 0
        index = json.loads((tmp_path / "auto/index.json").read_text())["automata"]
        assert [item["file"] for item in index] == ["a_0.auto", "a_0_1.auto"]
        assert index[0]["trees"] != index[1]["trees"]
        capsys.readouterr()
        assert run("count", "--automata", tmp_path / "auto") == 0
        lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert lines[:2] == [["a#0", index[0]["trees"]], ["a_0", index[1]["trees"]]]

    def test_missing_index_exits_1(self, tmp_path, capsys):
        (tmp_path / "auto").mkdir()
        assert run("count", "--automata", tmp_path / "auto") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(tmp_path / "auto/index.json") in err[0]


class TestTrainAndViterbi:
    def test_theta_written(self, workspace):
        theta = json.loads((workspace / "run/theta.json").read_text())
        assert theta["theta"] and theta["meta"]["iterations"] == 5
        ll = theta["meta"]["log_likelihood"]
        assert all(b >= a - 1e-9 for a, b in zip(ll, ll[1:]))

    def test_random_weights_baseline_iters_zero(self, workspace, tmp_path):
        assert run("train-em", "--automata", workspace / "run/automata",
                   "--iters", 0, "--seed", 7, "--out", tmp_path / "rw.json") == 0
        table = json.loads((tmp_path / "rw.json").read_text())
        assert all(0.1 <= v <= 1.0 for v in table["theta"].values())

    def test_unsmoothed_underflow_exits_1(self, tmp_path, capsys):
        assert run("gen", "--n", 30, "--seed", 1, "--max-nodes", 12,
                   "--graphs", tmp_path / "g.json", "--trees", tmp_path / "gold.json") == 0
        assert run("pipeline", "--graphs", tmp_path / "g.json", "--out", tmp_path / "run") == 0
        capsys.readouterr()
        assert run("train-em", "--automata", tmp_path / "run/automata", "--iters", 10,
                   "--smoothing", 0, "--out", tmp_path / "theta.json") == 1
        line = one_error_line(capsys)
        assert line.startswith("error: EM iteration ") and "underflowed to 0" in line
        assert line.endswith("--smoothing must be above 0")
        assert not (tmp_path / "theta.json").exists()

    def test_smoothing_past_the_largest_float_exits_1(self, workspace, tmp_path, capsys):
        assert run("train-em", "--automata", workspace / "run/automata",
                   "--smoothing", 1e308, "--out", tmp_path / "theta.json") == 1
        assert one_error_line(capsys) == (
            "error: EM iteration 1: the smoothed counts of an event group sum past the "
            "largest float; --smoothing 1e+308 is too large")
        assert not list(tmp_path.iterdir())  # neither theta.json nor its manifest

    # 50 drives a weight past the largest float, -200 below the least above 0
    @pytest.mark.parametrize("lr", [50, -200])
    def test_train_joint_weight_out_of_range_exits_1(self, workspace, tmp_path, capsys, lr):
        assert run("train-joint", "--automata", workspace / "run/automata", "--epochs", 10,
                   "--lr", lr, "--out", tmp_path / "scorer.json") == 1
        line = one_error_line(capsys)
        assert re.fullmatch(r"error: epoch \d+: the parameter of feature '.+' reached \S+, "
                            r"whose exp is not a positive finite weight; try a smaller --lr",
                            line), line
        assert not list(tmp_path.iterdir())  # neither scorer.json nor its manifest

    def test_train_joint(self, workspace, tmp_path):
        assert run("train-joint", "--automata", workspace / "run/automata",
                   "--epochs", 3, "--lr", 0.2, "--seed", 0,
                   "--out", tmp_path / "scorer.json") == 0
        scorer = json.loads((tmp_path / "scorer.json").read_text())
        assert scorer["params"]
        assert run("viterbi", "--automata", workspace / "run/automata",
                   "--weights", tmp_path / "scorer.json",
                   "--out", tmp_path / "best.json") == 0

    def test_viterbi_sampling_mode(self, workspace, tmp_path):
        assert run("viterbi", "--automata", workspace / "run/automata",
                   "--sample-seed", 5, "--out", tmp_path / "sampled.json") == 0
        assert run("verify", "--graphs", workspace / "graphs.json",
                   "--trees", tmp_path / "sampled.json") == 0

    @pytest.mark.parametrize("mode", [[], ["--sample-seed", 5]])
    def test_empty_automata_summarised_in_one_line(self, tmp_path, caplog, capsys, mode):
        # wide has three arguments: its automaton at 2 sources is empty
        (tmp_path / "g.json").write_text(json.dumps([{**ONE_EDGE, "id": "one"}, WIDE]))
        assert run("decompose", "--graphs", tmp_path / "g.json", "--out", tmp_path / "t.json",
                   "--report", tmp_path / "s.json") == 0
        assert run("build-automata", "--trees", tmp_path / "t.json", "--sources", 2,
                   "--out", tmp_path / "auto") == 2
        capsys.readouterr()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="amdep.cli"):
            assert run("viterbi", "--automata", tmp_path / "auto", *mode,
                       "--out", tmp_path / "best.json") == 2
        assert [rec.getMessage() for rec in caplog.records if rec.name == "amdep.cli"] == [
            "1/2 automata empty, no tree: wide"]
        assert capsys.readouterr().out == ""
        assert [item["id"] for item in json.loads((tmp_path / "best.json").read_text())] == ["one"]


class TestVerify:
    def test_gold_trees_pass(self, workspace):
        assert run("verify", "--graphs", workspace / "graphs.json",
                   "--trees", workspace / "gold.json") == 0

    def test_corrupted_tree_fails(self, workspace, tmp_path):
        trees = json.loads((workspace / "run/best-trees.json").read_text())
        # delete one request annotation: the tree stops type-checking
        def strip_request(obj):
            for c in obj["tree"]["nodes"].values():
                for name, req in c["type"].items():
                    if req:
                        c["type"][name] = {}
                        return True
            return False
        assert any(strip_request(item) for item in trees)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(trees))
        assert run("verify", "--graphs", workspace / "graphs.json",
                   "--trees", bad, "--out", tmp_path / "report.json") == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("error" in item for item in report)

    def test_failures_summarised_in_one_line(self, workspace, tmp_path, caplog, capsys):
        gold = json.loads((workspace / "gold.json").read_text())
        trees = gold + [{"id": "stray", "tree": gold[0]["tree"]}]
        (tmp_path / "t.json").write_text(json.dumps(trees))
        with caplog.at_level(logging.WARNING, logger="amdep.cli"):
            assert run("verify", "--graphs", workspace / "graphs.json",
                       "--trees", tmp_path / "t.json") == 1
        assert [rec.getMessage() for rec in caplog.records if rec.name == "amdep.cli"] == [
            f"1/{len(trees)} trees failed verify: stray"]
        assert capsys.readouterr().out == f"verified {len(gold)}/{len(trees)} trees\n"

    def test_empty_inputs_pass(self, tmp_path):
        (tmp_path / "g.json").write_text("[]")
        (tmp_path / "t.json").write_text("[]")
        assert run("verify", "--graphs", tmp_path / "g.json",
                   "--trees", tmp_path / "t.json") == 0

    def test_item_without_tree_exits_1(self, tmp_path, capsys):
        (tmp_path / "g.json").write_text("[]")
        (tmp_path / "t.json").write_text(json.dumps([{"id": "lonely"}]))
        assert run("verify", "--graphs", tmp_path / "g.json",
                   "--trees", tmp_path / "t.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "'lonely'" in err[0] and "tree" in err[0]

    @pytest.mark.parametrize("open_root, error", [
        (False, "at node 'h': no admissible child; APP_y->o: request at 'y' is [], "
                "child has type [z]"),
        (True, "open sources [y]")])
    def test_typing_reported_before_evaluation(self, tmp_path, open_root, error):
        # the tree's evaluation also fails, on the cat/dog label clash at x
        (tmp_path / "g.json").write_text(json.dumps([{**ONE_EDGE, "id": "two"}]))
        write_trees([("two", two_error_tree(open_root))], tmp_path / "t.json")
        assert run("verify", "--graphs", tmp_path / "g.json", "--trees", tmp_path / "t.json",
                   "--out", tmp_path / "r.json") == 1
        assert json.loads((tmp_path / "r.json").read_text()) == [{"id": "two", "error": error}]


    @staticmethod
    def _one_tree(tmp_path, graph_objs, tree_id):
        """Write graph_objs as the corpus and the decomposition of the last
        one as a trees file holding one tree named tree_id."""
        (tmp_path / "g.json").write_text(json.dumps(graph_objs))
        g = SemanticGraph.from_json(graph_objs[-1])
        write_trees([(tree_id, decompose(g).tree)], tmp_path / "t.json")

    def test_hash_in_graph_id_exits_1(self, tmp_path, capsys):
        # 'g#1' would be read back as variant 1 of graph 'g'
        self._one_tree(tmp_path, [{**ONE_EDGE, "id": "g#1"}], "g#1")
        assert run("verify", "--graphs", tmp_path / "g.json",
                   "--trees", tmp_path / "t.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "'g#1'" in err[0] and "'#'" in err[0]

    def test_repeated_graph_id_exits_1(self, tmp_path, capsys):
        other = {**ONE_EDGE, "nodes": [{"id": "a", "label": "see"}, {"id": "b", "label": "girl"}]}
        self._one_tree(tmp_path, [{**ONE_EDGE, "id": "g"}, {**other, "id": "g"}], "g")
        assert run("verify", "--graphs", tmp_path / "g.json",
                   "--trees", tmp_path / "t.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "'g'" in err[0] and "repeats" in err[0]


class TestStatsAndPipeline:
    def test_stats_output(self, workspace, capsys):
        assert run("stats", "--trees", workspace / "run/best-trees.json") == 0
        out = capsys.readouterr().out
        assert "constant entropy:" in out
        assert "edge operations:" in out

    def test_figure_demo_pipeline(self, tmp_path):
        assert run("pipeline", "--graphs", GOLDENS / "figures-graphs.json",
                   "--sources", 3, "--iters", 3, "--out", tmp_path / "demo") == 0
        manifest = json.loads((tmp_path / "demo/manifest.json").read_text())
        assert manifest["counts"]["graphs"] == 3
        assert manifest["counts"]["decomposed"] == 3
        assert manifest["counts"]["skipped_nondecomposable"] == 0

    def test_pipeline_deterministic(self, workspace, tmp_path):
        assert run("pipeline", "--graphs", workspace / "graphs.json", "--sources", 3,
                   "--iters", 5, "--seed", 1, "--out", tmp_path / "again") == 0
        for name in ("trees.json", "theta.json", "best-trees.json", "manifest.json"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (workspace / "run" / name).read_bytes(), name

    def test_stages_match_standalone_commands(self, workspace, tmp_path):
        """The pipeline hands trees from stage to stage in memory; each stage's
        output equals what the standalone command makes from the files."""
        rundir = workspace / "run"
        assert run("build-automata", "--trees", rundir / "trees.json", "--sources", 3,
                   "--out", tmp_path / "automata") == 0
        assert (tmp_path / "automata/index.json").read_bytes() == \
            (rundir / "automata/index.json").read_bytes()
        assert run("verify", "--graphs", workspace / "graphs.json",
                   "--trees", rundir / "best-trees.json",
                   "--out", tmp_path / "verify.json") == 0
        assert (tmp_path / "verify.json").read_bytes() == (rundir / "verify.json").read_bytes()

    def test_reserved_character_in_node_id_exits_1(self, tmp_path, capsys):
        graphs = tmp_path / "g.json"
        graphs.write_text(json.dumps([{
            "id": "colon", "root": "x:1",
            "nodes": [{"id": "x:1", "label": "want"}, {"id": "b", "label": "boy"}],
            "edges": [{"src": "x:1", "tgt": "b", "label": "ARG0"}]}]))
        assert run("pipeline", "--graphs", graphs, "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "graph colon" in err[0] and "'x:1'" in err[0]

    def test_pipeline_jobs_identical(self, workspace, tmp_path):
        assert run("pipeline", "--graphs", workspace / "graphs.json", "--sources", 3,
                   "--iters", 5, "--seed", 1, "--jobs", 2, "--out", tmp_path / "run") == 0
        same_outputs(tmp_path / "run", workspace / "run")

    @pytest.mark.parametrize("graph, sources, error", [
        (PARALLEL_EDGES, 3, "no graph decomposed (skipped: twice; reasons in "),
        (WIDE, 2, "no usable automata in corpus; empty: wide")])
    def test_pipeline_with_nothing_usable_names_graph(self, tmp_path, capsys, graph, sources,
                                                     error):
        (tmp_path / "g.json").write_text(json.dumps([graph]))
        assert run("pipeline", "--graphs", tmp_path / "g.json", "--sources", sources,
                   "--out", tmp_path / "run") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + error)
        assert (tmp_path / "run/trees.json").is_file()
        assert (tmp_path / "run/skipped.json").is_file()

    def test_mod_attach_graph_verifies(self, tmp_path, capsys):
        # the Viterbi tree renames a modifier's attach slot and an APP source
        # of the same head to one name
        (tmp_path / "g.json").write_text(json.dumps([MOD_ATTACH_GRAPH]))
        assert run("pipeline", "--graphs", tmp_path / "g.json", "--out", tmp_path / "run") == 0
        assert capsys.readouterr().out == "verified 1/1 trees\n"

    def test_pipeline_jobs_same_stderr(self, tmp_path):
        # wide graphs give empty automata at 2 sources, each with two warnings
        # from a worker; 'twice' is skipped by decompose
        corpus = [{**WIDE, "id": f"wide{i}"} if i % 2 else {**ONE_EDGE, "id": f"one{i}"}
                  for i in range(16)]
        (tmp_path / "g.json").write_text(json.dumps(corpus + [PARALLEL_EDGES]))
        errs = []
        for jobs in (1, 2):
            proc = fresh("-m", "amdep.cli", "pipeline", "--graphs", tmp_path / "g.json",
                         "--sources", 2, "--iters", 2, "--jobs", jobs,
                         "--out", tmp_path / f"run{jobs}")
            assert proc.returncode == 2, proc.stderr
            errs.append(proc.stderr)
        assert "graph wide15: automaton accepts no trees" in errs[0]
        assert errs[1] == errs[0]

    def test_manifest_digests_cover_outputs(self, workspace):
        manifest = json.loads((workspace / "run/manifest.json").read_text())
        assert set(manifest["outputs"]) == {"trees.json", "theta.json", "best-trees.json"}
        assert manifest["command"] == "pipeline"


def test_train_joint_corpus_keeps_the_automata_of_its_graphs(workspace, tmp_path):
    # --corpus holding half of the graph ids: only their automata are trained on
    half = json.loads((workspace / "graphs.json").read_text())[::2]
    (tmp_path / "half.json").write_text(json.dumps(half))
    assert run("train-joint", "--automata", workspace / "run/automata", "--corpus",
               tmp_path / "half.json", "--epochs", 1, "--out", tmp_path / "s.json") == 0
    index = json.loads((workspace / "run/automata/index.json").read_text())["automata"]
    kept = sum(e["id"].split("#")[0] in {g["id"] for g in half} for e in index)
    assert 0 < kept < len(index)
    manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
    assert manifest["counts"]["instances"] == kept


def test_stats_on_no_trees(tmp_path, capsys):
    (tmp_path / "none.json").write_text("[]")
    assert run("stats", "--trees", tmp_path / "none.json") == 0
    assert capsys.readouterr().out == "constant entropy: n/a (no trees)\n"

def test_import_does_not_load_process_pool():
    """Only --jobs > 1 needs worker processes; importing the CLI must not pay
    for concurrent.futures.process and multiprocessing."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import amdep.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_does_not_load_dataclasses():
    """The records are NamedTuples or plain classes: importing dataclasses
    would load inspect, ast, dis and tokenize in every command."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import amdep.cli, amdep.decompose, "
            "amdep.automata, amdep.training, amdep.generate; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_commands_build_no_rule_records(workspace, tmp_path, monkeypatch):
    # these commands read the automaton index and never make a Rule record
    import amdep.automata

    def no_rule(*fields):
        raise AssertionError("a Rule record was made")

    monkeypatch.setattr(amdep.automata, "Rule", no_rule)
    auto = workspace / "run/automata"
    assert run("count", "--automata", auto) == 0
    assert run("train-em", "--automata", auto, "--iters", 2, "--out", tmp_path / "t.json") == 0
    assert run("train-joint", "--automata", auto, "--epochs", 2,
               "--out", tmp_path / "s.json") == 0
    for weights in ("t.json", "s.json"):
        assert run("viterbi", "--automata", auto, "--weights", tmp_path / weights,
                   "--out", tmp_path / f"best-{weights}") == 0
    assert run("pipeline", "--graphs", workspace / "graphs.json", "--iters", 2,
               "--out", tmp_path / "run") == 0


def _automata_copy(workspace, tmp_path):
    shutil.copytree(workspace / "run/automata", tmp_path / "auto")
    return tmp_path / "auto"


def _malformed_index(workspace, tmp_path):
    auto = _automata_copy(workspace, tmp_path)
    (auto / "index.json").write_text('{"automata": [{"id": "g"}]}')
    return ["count", "--automata", auto], auto / "index.json"


def _index_lists_missing_file(workspace, tmp_path):
    auto = _automata_copy(workspace, tmp_path)
    first = json.loads((auto / "index.json").read_text())["automata"][0]["file"]
    (auto / first).unlink()
    return ["count", "--automata", auto], auto / first


def _garbage_automaton_line(workspace, tmp_path):
    auto = _automata_copy(workspace, tmp_path)
    first = json.loads((auto / "index.json").read_text())["automata"][0]["file"]
    with open(auto / first, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
    return ["count", "--automata", auto], auto / first


def _misplaced_rule(workspace, tmp_path):
    """A leaf rule moved to its parent's operation address: viterbi would
    reconstruct a tree from it."""
    auto = _automata_copy(workspace, tmp_path)
    first = json.loads((auto / "index.json").read_text())["automata"][0]["file"]
    lines = (auto / first).read_text().splitlines()
    n = next(n for n, line in enumerate(lines)
             if line.endswith("()") and not line.startswith(("e:", "#")))
    addr, rest = lines[n].split(":", 1)
    lines[n] = f"{addr[:-1] or 'e'}:{rest}"
    (auto / first).write_text("\n".join(lines) + "\n")
    return (["viterbi", "--automata", auto, "--out", tmp_path / "best.json"], auto / first)


def _malformed_weights(workspace, tmp_path):
    (tmp_path / "w.json").write_text('{"weights": {}}')
    return (["viterbi", "--automata", workspace / "run/automata", "--weights", tmp_path / "w.json",
             "--out", tmp_path / "best.json"], tmp_path / "w.json")


def _invalid_json_weights(workspace, tmp_path):
    (tmp_path / "w.json").write_text('{"theta": ')
    return (["viterbi", "--automata", workspace / "run/automata", "--weights", tmp_path / "w.json",
             "--out", tmp_path / "best.json"], tmp_path / "w.json")


def _weights(text):
    def case(workspace, tmp_path):
        (tmp_path / "w.json").write_text(text)
        return (["viterbi", "--automata", workspace / "run/automata",
                 "--weights", tmp_path / "w.json", "--out", tmp_path / "best.json"],
                tmp_path / "w.json")
    return case


# each parses as JSON with 'theta' or 'params', but holds no usable weights
BAD_WEIGHTS = {
    "theta not an object": '{"theta": 5}',
    "zero default": '{"theta": {}, "default": 0}',
    "text theta value": '{"theta": {"const x": "0.5"}}',
    "negative theta value": '{"theta": {"const x": -0.5}}',
    "infinite theta value": '{"theta": {"const x": Infinity}}',
    "NaN default": '{"theta": {}, "default": NaN}',
    "groups not an object": '{"theta": {}, "groups": []}',
    "params not an object": '{"params": [1.0]}',
    "boolean param": '{"params": {"n=a|const x": true}}',
    "param whose exp overflows": '{"params": {"n=a|const x": 1000}}',
}


def _blobs(command, text=None):
    """command run with --blobs naming a table holding text (str or bytes),
    or a missing file when text is None."""
    def case(workspace, tmp_path):
        blobs = tmp_path / "blobs.tsv"
        if text is not None:
            blobs.write_bytes(text if isinstance(text, bytes) else text.encode())
        outs = (["--out", tmp_path / "t.json", "--report", tmp_path / "s.json"]
                if command == "decompose" else ["--out", tmp_path / "run"])
        return [command, "--graphs", workspace / "graphs.json", "--blobs", blobs, *outs], blobs
    return case


MISSING = "missing.json"
BAD_INPUTS = {
    "verify --graphs": lambda ws, tmp: (
        ["verify", "--graphs", tmp / MISSING, "--trees", ws / "gold.json"], tmp / MISSING),
    "decompose --graphs": lambda ws, tmp: (
        ["decompose", "--graphs", tmp / MISSING, "--out", tmp / "t.json",
         "--report", tmp / "s.json"], tmp / MISSING),
    "build-automata --trees": lambda ws, tmp: (
        ["build-automata", "--trees", tmp / MISSING, "--out", tmp / "auto"], tmp / MISSING),
    "stats --trees": lambda ws, tmp: (["stats", "--trees", tmp / MISSING], tmp / MISSING),
    "train-joint --corpus": lambda ws, tmp: (
        ["train-joint", "--automata", ws / "run/automata", "--corpus", tmp / MISSING,
         "--out", tmp / "scorer.json"], tmp / MISSING),
    "malformed index": _malformed_index,
    "index lists a missing file": _index_lists_missing_file,
    "garbage automaton line": _garbage_automaton_line,
    "viterbi --weights missing": lambda ws, tmp: (
        ["viterbi", "--automata", ws / "run/automata", "--weights", tmp / MISSING,
         "--out", tmp / "best.json"], tmp / MISSING),
    "viterbi --weights without theta or params": _malformed_weights,
    "viterbi --weights invalid JSON": _invalid_json_weights,
    **{f"viterbi --weights {name}": _weights(text) for name, text in BAD_WEIGHTS.items()},
    "decompose --blobs missing": _blobs("decompose"),
    "pipeline --blobs missing": _blobs("pipeline"),
    "decompose --blobs line without a tab": _blobs("decompose", "ARG* src\n*\tsrc\n"),
    "pipeline --blobs bad side": _blobs("pipeline", "ARG*\tboth\n*\tsrc\n"),
    "decompose --blobs without default row": _blobs("decompose", "ARG*\tsrc\n"),
    "decompose --blobs undecodable": _blobs("decompose", b"ARG*\tsrc\n*\t\xff\n"),
    "misplaced automaton rule": _misplaced_rule,
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_file_exits_1_naming_it(workspace, tmp_path, capsys, case):
    argv, path = BAD_INPUTS[case](workspace, tmp_path)
    assert run(*argv) == 1
    assert str(path) in one_error_line(capsys)


@pytest.mark.parametrize("command", ["build-automata", "pipeline"])
def test_negative_sources_exits_1_naming_it(workspace, tmp_path, capsys, command):
    inputs = (["--trees", workspace / "run/trees.json"] if command == "build-automata"
              else ["--graphs", workspace / "graphs.json"])
    assert run(command, *inputs, "--sources", -1, "--out", tmp_path / "out") == 1
    assert "--sources -1" in one_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_unknown_log_level_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("AMD_LOG", "LOUD")
    assert run("stats", "--trees", GOLDENS / "figures-trees.json") == 1
    line = one_error_line(capsys)
    assert "AMD_LOG" in line and "LOUD" in line


def _argv(workspace, tmp_path, command):
    return {"verify": ["--graphs", workspace / "graphs.json", "--trees", workspace / "gold.json"],
            "count": ["--automata", workspace / "run/automata"],
            "train-joint": ["--automata", workspace / "run/automata", "--epochs", 1,
                            "--out", tmp_path / "scorer.json"],
            "decompose": ["--graphs", workspace / "graphs.json", "--out", tmp_path / "t.json",
                          "--report", tmp_path / "s.json"]}[command]


LOADED_MODULES = ("import sys; from amdep.cli import main; main(sys.argv[1:]); "
                  "print(*sorted(m for m in sys.modules if m.startswith('amdep.')))")


@pytest.mark.parametrize("command, needed, unloaded", [
    ("verify", {"amdep.algebra", "amdep.graph"},
     {"amdep.automata", "amdep.decompose", "amdep.training", "amdep.generate"}),
    ("count", {"amdep.automata"}, {"amdep.decompose", "amdep.training", "amdep.generate"}),
    ("decompose", {"amdep.decompose"}, {"amdep.automata", "amdep.training", "amdep.generate"})])
def test_command_loads_only_its_modules(workspace, tmp_path, command, needed, unloaded):
    proc = fresh("-c", LOADED_MODULES, command, *_argv(workspace, tmp_path, command))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert needed <= loaded
    assert not loaded & unloaded


@pytest.mark.parametrize("command", ["count", "verify", "train-joint", "decompose"])
def test_command_that_writes_no_message_loads_no_logging(workspace, tmp_path, monkeypatch,
                                                        command):
    """logging imports traceback, linecache, tokenize and more: a command
    loads it only for a message it writes."""
    monkeypatch.delenv("AMD_LOG", raising=False)
    code = ("import sys; from amdep.cli import main; code = main(sys.argv[1:]); "
            "print('logging' in sys.modules, 'traceback' in sys.modules); sys.exit(code)")
    proc = fresh("-c", code, command, *_argv(workspace, tmp_path, command))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "False False"


def test_info_written_only_when_amd_log_asks(workspace, tmp_path, monkeypatch):
    monkeypatch.delenv("AMD_LOG", raising=False)
    argv = ("-m", "amdep.cli", "decompose", *_argv(workspace, tmp_path, "decompose"))
    proc = fresh(*argv, AMD_LOG="INFO")
    assert proc.returncode == 0
    assert re.fullmatch(r"INFO amdep\.cli: decomposed 12/12 graphs in \d+\.\d\ds\n",
                        proc.stderr), proc.stderr
    proc = fresh(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")


PACKAGE_NAMES = {
    "algebra": ["AMDepTree", "AMType", "DepEdge", "EMPTY_TYPE", "SGraph", "apply",
                "check_well_typed", "evaluate", "modify", "term_type", "type_unify"],
    "decompose": ["Decomposition", "NonDecomposable", "Theorem1Report", "canonical_tree",
                  "check_resolvable", "decompose", "default_plan", "modify_swap", "resolve",
                  "unroll"],
    "graph": ["BlobHeuristics", "BlobPartition", "Edge", "NormalizedGraph", "SemanticGraph",
              "is_isomorphic", "is_isomorphic_mod_of", "normalize_edges", "partition_blobs",
              "read_corpus", "write_corpus"],
}


def test_package_names_are_their_submodules_objects():
    """Each name amdep exports is its submodule's object, whatever was
    imported first: the submodule amdep.decompose does not replace the
    function amdep.decompose."""
    code = """if True:
        import importlib, json, sys
        import amdep.decompose
        from amdep import decompose
        import amdep
        bad = [f"{mod}.{name}" for mod, names in json.loads(sys.argv[1]).items()
               for name in names
               if getattr(amdep, name) is not getattr(importlib.import_module("amdep." + mod), name)]
        from amdep import training
        print(type(decompose).__name__, type(amdep.decompose).__name__, training.__name__,
              hasattr(amdep, "no_such_name"), len(bad), *bad)
    """
    proc = fresh("-c", code, json.dumps(PACKAGE_NAMES))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["function", "function", "amdep.training", "False", "0"]


def test_duplicate_node_id_exits_1(tmp_path, capsys):
    dup = {"id": "dup", "root": "a", "edges": [],
           "nodes": [{"id": "a", "label": "see"}, {"id": "a", "label": "boy"}]}
    (tmp_path / "g.json").write_text(json.dumps([dup]))
    assert run("decompose", "--graphs", tmp_path / "g.json",
               "--out", tmp_path / "t.json", "--report", tmp_path / "s.json") == 1
    assert one_error_line(capsys) == (
        f"error: {tmp_path / 'g.json'}: item 'dup': duplicate node id")


def _without_line(path, n, copies=0):
    """path with its line n (from 0) written copies times instead of once."""
    lines = path.read_text().splitlines(True)
    n %= len(lines)
    path.write_text("".join(lines[:n] + lines[n:n + 1] * copies + lines[n + 1:]))


def _index_entries(auto):
    return json.loads((auto / "index.json").read_text())["automata"]


def test_automaton_that_lost_its_last_line_exits_1_naming_both_counts(workspace, tmp_path,
                                                                       capsys):
    auto = _automata_copy(workspace, tmp_path)
    entry = next(e for e in _index_entries(auto) if not e["empty"])
    _without_line(auto / entry["file"], -1)
    assert run("count", "--automata", auto) == 1
    assert one_error_line(capsys) == (
        f"error: {auto / entry['file']}: rules is {entry['rules'] - 1}, "
        f"but {auto / 'index.json'} records {entry['rules']}")


def test_index_without_counts_still_loads(workspace, tmp_path, capsys):
    auto = _automata_copy(workspace, tmp_path)
    assert run("count", "--automata", auto) == 0
    counted = capsys.readouterr().out
    entries = [{"id": e["id"], "file": e["file"]} for e in _index_entries(auto)]
    (auto / "index.json").write_text(json.dumps({"automata": entries}))
    assert run("count", "--automata", auto) == 0
    assert capsys.readouterr().out == counted


def test_index_without_tree_counts_is_loaded_without_counting(workspace, tmp_path,
                                                              monkeypatch):
    # only count needs the tree counts when the index records none to check
    auto = _automata_copy(workspace, tmp_path)
    index = json.loads((auto / "index.json").read_text())
    for entry in index["automata"]:
        del entry["trees"]
    (auto / "index.json").write_text(json.dumps(index))
    want = (workspace / "run/theta.json").read_bytes()

    def uncounted(a):
        raise AssertionError("counted the trees of an automaton")

    monkeypatch.setattr("amdep.automata.count_trees", uncounted)
    assert run("train-em", "--automata", auto, "--iters", 5, "--seed", 1,
               "--out", tmp_path / "t.json") == 0
    assert (tmp_path / "t.json").read_bytes() == want


def test_tree_counts_past_the_int_to_str_digit_limit(workspace, tmp_path, monkeypatch,
                                                     capsys):
    # a deep graph's count has more digits than Python converts by default
    # (4,300); build-automata writes such a count and count re-reads it
    monkeypatch.setattr("amdep.automata.count_trees", lambda a: 10 ** 4400 + 12345)
    digits = "1" + "0" * 4395 + "12345"
    assert run("build-automata", "--trees", workspace / "run/trees.json",
               "--out", tmp_path / "auto") == 0
    entries = _index_entries(tmp_path / "auto")
    assert [e["trees"] for e in entries] == [digits] * len(entries)
    assert run("count", "--automata", tmp_path / "auto") == 0
    total = str(len(entries)) + str(12345 * len(entries)).zfill(4400)
    assert capsys.readouterr().out.splitlines() == [
        f"{e['id']}\t{digits}" for e in entries] + [f"TOTAL\t{total}"]


@given(st.one_of(st.integers(0, 10 ** 4299),
                 st.integers(-5, 5).map(lambda d: 10 ** 4000 + d),
                 st.integers(-5, 5).map(lambda d: 10 ** 4299 + d)))
def test_tree_counts_below_the_limit_render_as_str(n):
    assert _decimal(n) == str(n)


@pytest.mark.parametrize("key, value", [("states", 0), ("empty", None), ("trees", "0"),
                                        ("rules", True)])
def test_index_entry_that_disagrees_exits_1(workspace, tmp_path, capsys, key, value):
    auto = _automata_copy(workspace, tmp_path)
    index = json.loads((auto / "index.json").read_text())
    entry = next(e for e in index["automata"] if not e["empty"])
    entry[key] = not entry["empty"] if value is None else value
    (auto / "index.json").write_text(json.dumps(index))
    assert run("train-em", "--automata", auto, "--iters", 1, "--out", tmp_path / "t.json") == 1
    line = one_error_line(capsys)
    assert str(auto / entry["file"]) in line and f"records {json.dumps(entry[key])}" in line


@pytest.fixture(scope="module")
def intact_outputs(workspace, tmp_path_factory):
    """What count, train-em and viterbi give on the workspace's automata."""
    outputs = _line_commands(workspace, workspace / "run/automata",
                             tmp_path_factory.mktemp("intact"))
    assert {code for code, _output in outputs.values()} == {0}
    return outputs


def _line_commands(workspace, auto, out):
    """Exit code and output of count, train-em and viterbi on auto: stdout
    for count, the written file for the others."""
    results = {}
    for name, argv, written in (
            ("count", ["count", "--automata", auto], None),
            ("train-em", ["train-em", "--automata", auto, "--iters", 2, "--out",
                          out / "theta.json"], out / "theta.json"),
            ("viterbi", ["viterbi", "--automata", auto, "--weights",
                         workspace / "run/theta.json", "--out", out / "best.json"],
             out / "best.json")):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(*argv)
        err = stderr.getvalue().splitlines()
        if code == 1:
            assert len(err) == 1 and err[0].startswith("error: "), (name, err)
            results[name] = 1, None
        else:
            results[name] = code, stdout.getvalue() if written is None else written.read_bytes()
    return results


@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_automaton_with_a_line_lost_or_doubled(workspace, intact_outputs, tmp_path_factory,
                                               data):
    # as an interrupted write or a stray edit leaves a file: each command
    # exits 1 with one error line, or gives what the intact file gives
    work = tmp_path_factory.mktemp("lines")
    auto = _automata_copy(workspace, work)
    entry = data.draw(st.sampled_from(_index_entries(auto)))
    nlines = len((auto / entry["file"]).read_text().splitlines())
    _without_line(auto / entry["file"], data.draw(st.integers(0, nlines - 1)),
                  data.draw(st.sampled_from([0, 2])))
    for name, (code, output) in _line_commands(workspace, auto, work).items():
        assert code == 1 or (code, output) == intact_outputs[name], name


@pytest.mark.parametrize("caller", ["default", "collector off, custom threshold, heap frozen"])
@pytest.mark.parametrize("fails", [False, True])
def test_main_restores_gc_state(workspace, tmp_path, caller, fails):
    saved = gc.isenabled(), gc.get_threshold()
    if caller != "default":
        gc.disable()
        gc.set_threshold(500, 5, 5)
        gc.freeze()
    try:
        before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
        auto = tmp_path / "missing" if fails else workspace / "run/automata"
        assert run("count", "--automata", auto) == (1 if fails else 0)
        assert (gc.isenabled(), gc.get_threshold()) == before[:2]
        # a frozen object that dies leaves the count: the caller's frozen heap
        # is neither thawed nor added to
        frozen = gc.get_freeze_count()
        assert frozen == before[2] if caller == "default" else 0 < frozen <= before[2]
    finally:
        if caller != "default":
            gc.unfreeze()
        gc.set_threshold(*saved[1])
        (gc.enable if saved[0] else gc.disable)()


def test_run_leaves_the_ending_process_frozen(workspace):
    # run() is the command's process entry: main(), then its heap frozen
    code = ("import gc, sys; from amdep.cli import run; "
            "sys.argv[1:] = ['count', '--automata', sys.argv[1]]; "
            "print(run(), gc.get_freeze_count() > 0)")
    proc = fresh("-c", code, workspace / "run/automata")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True"
    assert proc.stdout.splitlines()[:-1] == fresh(
        "-m", "amdep.cli", "count", "--automata", workspace / "run/automata").stdout.splitlines()


@pytest.mark.parametrize("command", ["decompose", "pipeline"])
@pytest.mark.parametrize("tie_break", ["bogus", "seeded:x"])
def test_bad_tie_break_exits_1_naming_it(workspace, tmp_path, capsys, command, tie_break):
    outputs = (["--out", tmp_path / "t.json", "--report", tmp_path / "s.json"]
               if command == "decompose" else ["--out", tmp_path / "run"])
    assert run(command, "--graphs", workspace / "graphs.json", "--tie-break", tie_break,
               *outputs) == 1
    assert one_error_line(capsys).startswith(f"error: --tie-break {tie_break}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag, value", [
    ("train-em", "--smoothing", -1), ("train-em", "--smoothing", "nan"),
    ("train-em", "--smoothing", "inf"), ("train-em", "--iters", -1),
    ("pipeline", "--iters", -1), ("train-joint", "--batch", -1),
    ("train-joint", "--epochs", -1), ("train-joint", "--lr", "nan"),
    ("train-joint", "--l2", "inf")])
def test_out_of_range_flag_exits_1_naming_it(workspace, tmp_path, capsys, command, flag,
                                             value):
    inputs = (["--graphs", workspace / "graphs.json"] if command == "pipeline"
              else ["--automata", workspace / "run/automata"])
    assert run(command, *inputs, flag, value, "--out", tmp_path / "out") == 1
    assert one_error_line(capsys).startswith(f"error: {flag} {float(value)}: "
                                             if flag in ("--smoothing", "--lr", "--l2")
                                             else f"error: {flag} {value}: ")
    assert list(tmp_path.iterdir()) == []


def test_ill_typed_tree_names_it_for_every_jobs(workspace, tmp_path):
    # APP and MOD swapped on one edge: no child of that node is admissible;
    # a worker's error is raised at its tree's place, as --jobs 1 raises it
    trees = json.loads((workspace / "run/trees.json").read_text())
    item = next(item for item in trees if item["tree"]["edges"])
    edge = item["tree"]["edges"][0]
    edge["op"] = {"APP": "MOD", "MOD": "APP"}[edge["op"]]
    (tmp_path / "t.json").write_text(json.dumps(trees))
    errs = []
    for jobs in (1, 2):
        proc = fresh("-m", "amdep.cli", "build-automata", "--trees", tmp_path / "t.json",
                     "--jobs", jobs, "--out", tmp_path / f"auto{jobs}")
        assert proc.returncode == 1, proc.stderr
        errs.append(proc.stderr)
    assert errs[0].startswith(f"error: {tmp_path / 't.json'}: item {item['id']!r}: at node ")
    assert len(errs[0].splitlines()) == 1
    assert errs[1] == errs[0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_build_automata_that_exits_1_makes_no_out_dir(workspace, tmp_path, jobs):
    trees = json.loads((workspace / "run/trees.json").read_text())
    edge = next(item for item in trees if item["tree"]["edges"])["tree"]["edges"][0]
    edge["op"] = {"APP": "MOD", "MOD": "APP"}[edge["op"]]
    (tmp_path / "t.json").write_text(json.dumps(trees))
    assert run("build-automata", "--trees", tmp_path / "t.json", "--jobs", jobs,
               "--out", tmp_path / "auto") == 1
    assert not (tmp_path / "auto").exists()


@pytest.mark.parametrize("missing", ["--graphs", "--blobs"])
def test_pipeline_that_exits_1_makes_no_out_dir(workspace, tmp_path, capsys, missing):
    inputs = {"--graphs": workspace / "graphs.json", missing: tmp_path / "missing"}
    assert run("pipeline", *[a for kv in inputs.items() for a in kv],
               "--out", tmp_path / "run") == 1
    assert one_error_line(capsys) == f"error: {tmp_path / 'missing'}: No such file or directory"
    assert list(tmp_path.iterdir()) == []


def test_count_and_train_joint_load_neither_algebra_nor_graph(workspace, tmp_path):
    """count and train-joint read automata through amdep.values alone; the
    graph module is loaded only for train-joint's --corpus."""
    automata = ["--automata", workspace / "run/automata"]
    argvs = {"count": ["count", *automata],
             "train-joint": ["train-joint", *automata, "--out", tmp_path / "s.json"],
             "train-joint --corpus": ["train-joint", *automata, "--corpus",
                                      workspace / "graphs.json", "--out", tmp_path / "c.json"]}
    loaded = {}
    for name, argv in argvs.items():
        proc = fresh("-c", LOADED_MODULES, *argv)
        assert proc.returncode == 0, proc.stderr
        loaded[name] = set(proc.stdout.splitlines()[-1].split())
    for name in ("count", "train-joint"):
        assert {"amdep.automata", "amdep.values"} <= loaded[name], name
        assert not loaded[name] & {"amdep.algebra", "amdep.graph", "amdep.decompose",
                                   "amdep.generate"}, name
    assert "amdep.graph" in loaded["train-joint --corpus"]


@pytest.mark.parametrize("command", ["verify", "decompose", "train-joint", "viterbi"])
def test_output_in_a_missing_directory_exits_1_naming_it(workspace, tmp_path, capsys, command):
    missing = tmp_path / "missing" / "out.json"
    argv = {"verify": ["--graphs", workspace / "graphs.json", "--trees", workspace / "gold.json",
                       "--out", missing],
            "decompose": ["--graphs", workspace / "graphs.json", "--out", tmp_path / "t.json",
                          "--report", missing],
            "train-joint": ["--automata", workspace / "run/automata", "--out", missing],
            "viterbi": ["--automata", workspace / "run/automata", "--out", missing]}[command]
    assert run(command, *argv) == 1
    assert one_error_line(capsys) == f"error: {missing}: No such file or directory"
    assert sorted(p.name for p in tmp_path.iterdir()) in ([], ["t.json"])


def test_unwritable_report_leaves_no_trees_file(workspace, tmp_path, capsys):
    # a --report that cannot be written leaves no new --out, and an old one
    # keeps its bytes
    missing = tmp_path / "missing" / "s.json"
    argv = ["--graphs", workspace / "graphs.json", "--out", tmp_path / "t.json",
            "--report", missing]
    assert run("decompose", *argv) == 1
    assert one_error_line(capsys) == f"error: {missing}: No such file or directory"
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "t.json").write_text("old")
    assert run("decompose", *argv) == 1
    assert one_error_line(capsys) == f"error: {missing}: No such file or directory"
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]
    assert (tmp_path / "t.json").read_text() == "old"


@pytest.mark.parametrize("command", ["build-automata", "pipeline"])
def test_out_dir_that_cannot_be_made_exits_1_naming_it(workspace, tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    inputs = {"build-automata": ["--trees", workspace / "run/trees.json"],
              "pipeline": ["--graphs", workspace / "graphs.json"]}[command]
    assert run(command, *inputs, "--out", tmp_path / "file" / "out") == 1
    assert one_error_line(capsys) == f"error: {tmp_path / 'file' / 'out'}: Not a directory"
