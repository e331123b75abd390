"""The file boundary: every JSON input is checked once against its kind's
schema, so a bad file ends with exit code 1 and one error line naming the
file, the item and the field, never a traceback or silently wrong output."""

import contextlib
import copy
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from amdep.cli import main
from amdep.files import _CHUNK, write_json

CORPUS = [
    {"id": "g1", "root": "a",
     "nodes": [{"id": "a", "label": "see"}, {"id": "b", "label": "boy"}],
     "edges": [{"src": "a", "tgt": "b", "label": "ARG0"}]},
    {"id": "g2", "root": "g",
     "nodes": [{"id": "g", "label": "glow"}, {"id": "f", "label": "fairy"},
               {"id": "t", "label": "tiny"}],
     "edges": [{"src": "g", "tgt": "f", "label": "ARG0"},
               {"src": "f", "tgt": "t", "label": "mod"}]},
]


def run(*argv):
    """(exit code, stdout, stderr) of one command run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


def make_inputs(d, graphs):
    """A valid input for every command in directory d: the corpus graphs,
    its trees, their automata, and EM and joint weights."""
    (d / "graphs.json").write_text(json.dumps(graphs))
    for argv in (["decompose", "--graphs", d / "graphs.json", "--out", d / "trees.json",
                  "--report", d / "skipped.json"],
                 ["build-automata", "--trees", d / "trees.json", "--out", d / "auto"],
                 ["train-em", "--automata", d / "auto", "--iters", 2, "--out", d / "theta.json"],
                 ["train-joint", "--automata", d / "auto", "--epochs", 2,
                  "--out", d / "scorer.json"]):
        assert run(*argv)[0] in (0, 2)
    return d


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """The inputs of CORPUS and of two generated corpora of 3 graphs."""
    dirs = [make_inputs(tmp_path_factory.mktemp("base"), CORPUS)]
    for seed in (1, 2):
        d = tmp_path_factory.mktemp("base")
        assert run("gen", "--n", 3, "--seed", seed, "--max-nodes", 6, "--graphs", d / "g.json",
                   "--trees", d / "gold.json")[0] == 0
        dirs.append(make_inputs(d, json.loads((d / "g.json").read_text())))
    return dirs


@pytest.fixture(scope="module")
def base(bases):
    return bases[0]


# command: (its argv in a directory d holding the inputs, the JSON inputs it
# reads, the checks of the next stage on what it wrote, each (argv, codes));
# "auto/*.auto" stands for the JSON shape line of one automaton file
COMMANDS = {
    "decompose": (
        lambda d: ["decompose", "--graphs", d / "graphs.json", "--out", d / "out.json",
                   "--report", d / "skipped-out.json"],
        ["graphs.json"],
        lambda d: [(["verify", "--graphs", d / "graphs.json", "--trees", d / "out.json"], {0}),
                   (["build-automata", "--trees", d / "out.json", "--out", d / "out"], {0, 2})]),
    "pipeline": (
        lambda d: ["pipeline", "--graphs", d / "graphs.json", "--iters", 2, "--out", d / "run"],
        ["graphs.json"],
        lambda d: [(["count", "--automata", d / "run/automata"], {0}),
                   (["stats", "--trees", d / "run/best-trees.json"], {0})]),
    "build-automata": (
        lambda d: ["build-automata", "--trees", d / "trees.json", "--out", d / "out"],
        ["trees.json"],
        lambda d: [(["count", "--automata", d / "out"], {0})]),
    "verify": (
        lambda d: ["verify", "--graphs", d / "graphs.json", "--trees", d / "trees.json",
                   "--out", d / "verify.json"],
        ["graphs.json", "trees.json"],
        lambda d: []),
    "stats": (lambda d: ["stats", "--trees", d / "trees.json"], ["trees.json"], lambda d: []),
    "count": (lambda d: ["count", "--automata", d / "auto"], ["auto/index.json", "auto/*.auto"],
              lambda d: []),
    "train-em": (
        lambda d: ["train-em", "--automata", d / "auto", "--iters", 2, "--out", d / "out.json"],
        ["auto/index.json", "auto/*.auto"],
        lambda d: [(["viterbi", "--automata", d / "pristine", "--weights", d / "out.json",
                     "--out", d / "best.json"], {0, 2})]),
    "train-joint": (
        lambda d: ["train-joint", "--automata", d / "auto", "--corpus", d / "graphs.json",
                   "--epochs", 2, "--out", d / "out.json"],
        ["auto/index.json", "auto/*.auto", "graphs.json"],
        lambda d: [(["viterbi", "--automata", d / "pristine", "--weights", d / "out.json",
                     "--out", d / "best.json"], {0, 2})]),
    "viterbi": (
        lambda d: ["viterbi", "--automata", d / "auto", "--weights", d / "theta.json",
                   "--out", d / "out.json"],
        ["auto/index.json", "auto/*.auto", "theta.json", "scorer.json"],
        lambda d: [(["stats", "--trees", d / "out.json"], {0})]),
}

# what replaces a value: one of another type, or one of the listed values
OTHER_TYPES = [0, 1.5, "x", None, True, [], {}]
VALUES = {"huge int": 10 ** 400, "big int": 2 ** 63, "NaN": math.nan, "empty string": "",
          "non-ASCII text": "é☃", "lone surrogate": "x\ud800"}
MUTATIONS = ["swap type", "delete", "wrap in list", *VALUES]


def positions(value, path=()):
    """The path of value and of every value nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, sub in items:
        yield from positions(sub, path + (key,))


def mutated(doc, path, mutation, draw):
    """doc with the value at path changed by mutation; None when mutation
    does not apply there."""
    doc = copy.deepcopy(doc)
    if not path:
        return None if mutation == "delete" else mutated([doc], (0,), mutation, draw)[0]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if mutation == "delete":
        del parent[path[-1]]
    elif mutation == "swap type":
        parent[path[-1]] = draw(st.sampled_from([v for v in OTHER_TYPES
                                                 if type(v) is not type(old)]))
    elif mutation == "wrap in list":
        parent[path[-1]] = [old]
    else:
        parent[path[-1]] = VALUES[mutation]
    return doc


def check_command(bases, command, draw):
    """Run command on one of its valid inputs with one JSON value of one input
    mutated: it must exit 0, 1 or 2 without a traceback, with exactly one
    error line on exit 1 (verify also exits 1, with none, when a tree does
    not verify), and on exit 0 the next stage must accept what it wrote."""
    argv, inputs, next_stages = COMMANDS[command]
    base = draw(st.sampled_from(bases))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name in ("graphs.json", "trees.json", "theta.json", "scorer.json"):
            shutil.copy(base / name, d / name)
        for name in ("auto", "pristine"):
            shutil.copytree(base / "auto", d / name)
        target = draw(st.sampled_from(inputs))
        if target == "scorer.json":  # viterbi's weights
            target = "theta.json"
            shutil.copy(base / "scorer.json", d / target)
        if target == "auto/*.auto":  # the JSON shape line of an automaton
            target = draw(st.sampled_from(sorted((d / "auto").glob("*.auto"))))
            lines = target.read_text().splitlines()
            n = next(n for n, line in enumerate(lines) if line.startswith("#! shape "))
            doc = json.loads(lines[n][len("#! shape "):])
        else:
            target = d / target
            doc = json.loads(target.read_text())
        path = draw(st.sampled_from(list(positions(doc))))
        new = mutated(doc, path, draw(st.sampled_from(MUTATIONS)), draw)
        if new is None:
            return
        if target.suffix == ".auto":
            lines[n] = "#! shape " + json.dumps(new)
            target.write_text("\n".join(lines) + "\n")
        else:
            target.write_text(json.dumps(new))
        code, out, err = run(*argv(d))
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 1:
            verdict = command == "verify" and not error_lines(err) and out.startswith("verified")
            assert verdict or len(error_lines(err)) == 1, err
        if code == 0:
            for stage, codes in next_stages(d):
                stage_code, _out, stage_err = run(*stage)
                assert stage_code in codes, (stage, stage_err)


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_mutated_value_never_crashes(bases, command, data):
    check_command(bases, command, data.draw)


# ---------------------------------------------------------------------------
# inputs that crashed or gave silently wrong output before their files were
# checked against a schema


def corpus_with(**changes):
    """A one-graph corpus: see -ARG0-> boy, with changes to its fields."""
    graph = {"id": "g", "root": "a",
             "nodes": [{"id": "a", "label": "see"}, {"id": "b", "label": "boy"}],
             "edges": [{"src": "a", "tgt": "b", "label": "ARG0"}]}
    return [{**graph, **changes}]


DEFECTS = {
    # decompose wrote a trees file its own verify rejected
    "integer node id, one node": (
        corpus_with(nodes=[{"id": 1, "label": "see"}], edges=[], root=1),
        "item 'g': nodes[0].id is int, not a string"),
    "integer node ids, two nodes": (
        corpus_with(nodes=[{"id": 1, "label": "see"}, {"id": 2, "label": "boy"}],
                    edges=[{"src": 1, "tgt": 2, "label": "ARG0"}], root=1),
        "item 'g': nodes[0].id is int, not a string"),
    "integer node label": (
        corpus_with(nodes=[{"id": "a", "label": 5}, {"id": "b", "label": "boy"}]),
        "item 'g': nodes[0].label is int, not a string"),
    "integer edge label": (
        corpus_with(edges=[{"src": "a", "tgt": "b", "label": 5}]),
        "item 'g': edges[0].label is int, not a string"),
}


@pytest.mark.parametrize("case", DEFECTS)
def test_corpus_defect_exits_1_naming_file_item_and_field(tmp_path, case):
    corpus, message = DEFECTS[case]
    (tmp_path / "g.json").write_text(json.dumps(corpus))
    code, _out, err = run("decompose", "--graphs", tmp_path / "g.json",
                          "--out", tmp_path / "t.json", "--report", tmp_path / "s.json")
    assert code == 1 and error_lines(err) == [f"error: {tmp_path / 'g.json'}: {message}"]


@pytest.mark.parametrize("command", ["verify", "build-automata", "stats"])
def test_string_type_exits_1_naming_file_item_and_field(base, tmp_path, command):
    trees = json.loads((base / "trees.json").read_text())
    node = sorted(trees[0]["tree"]["nodes"])[0]
    trees[0]["tree"]["nodes"][node]["type"] = "s1"
    (tmp_path / "t.json").write_text(json.dumps(trees))
    argv = {"verify": ["--graphs", base / "graphs.json", "--trees", tmp_path / "t.json"],
            "build-automata": ["--trees", tmp_path / "t.json", "--out", tmp_path / "auto"],
            "stats": ["--trees", tmp_path / "t.json"]}[command]
    code, _out, err = run(command, *argv)
    assert code == 1 and error_lines(err) == [
        f"error: {tmp_path / 't.json'}: item {trees[0]['id']!r}: "
        f"tree.nodes.{node}.type is str, not an object"]


def test_deeply_nested_type_exits_1_naming_file_and_item(base, tmp_path):
    trees = json.loads((base / "trees.json").read_text())
    typ = {}
    for _ in range(600):  # each level recurses, far beyond the 10 a type may have
        typ = {"s1": typ}
    node = sorted(trees[0]["tree"]["nodes"])[0]
    trees[0]["tree"]["nodes"][node]["type"] = typ
    (tmp_path / "t.json").write_text(json.dumps(trees))
    code, _out, err = run("stats", "--trees", tmp_path / "t.json")
    [line] = error_lines(err)
    assert code == 1 and line.startswith(f"error: {tmp_path / 't.json'}: item {trees[0]['id']!r}: ")


# a leaf label that is not a graph constant, and an operation that is neither
# APP nor MOD: (the change to each rule line, the error after the automaton)
CORRUPT_LABELS = {
    "leaf": (lambda line: line.replace(" <- {", ' <- {"bogus":1', 1) if line.endswith("()")
             else line, "rule "),
    "operation": (lambda line: line.replace(" <- APP_", " <- XXX_").replace(" <- MOD_", " <- XXX_"),
                  "the run gives no tree: bad operation 'XXX'"),
}


@pytest.mark.parametrize("case", CORRUPT_LABELS)
def test_corrupt_automaton_label_exits_1_naming_file_and_automaton(base, tmp_path, case):
    change, message = CORRUPT_LABELS[case]
    shutil.copytree(base / "auto", tmp_path / "auto")
    path = tmp_path / "auto/g1.auto"
    lines = [line if line.startswith(("#", "final:")) else change(line)
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    assert run("count", "--automata", tmp_path / "auto")[0] == 0  # labels are parsed when used
    code, _out, err = run("viterbi", "--automata", tmp_path / "auto", "--out", tmp_path / "b.json")
    [line] = error_lines(err)
    assert code == 1 and line.startswith(f"error: {path}: automaton 'g1': {message}")


# JSON text can escape a lone surrogate, which UTF-8 cannot encode: such a
# string ended in a UnicodeEncodeError traceback when an output held it


@pytest.mark.parametrize("command", ["decompose", "pipeline"])
def test_lone_surrogate_in_a_corpus_exits_1_naming_file_item_and_field(tmp_path, command):
    (tmp_path / "g.json").write_text(json.dumps(corpus_with(
        nodes=[{"id": "a", "label": "see"}, {"id": "b", "label": "b\ud800oy"}])))
    argv = {"decompose": ["--out", tmp_path / "t.json", "--report", tmp_path / "s.json"],
            "pipeline": ["--iters", 1, "--out", tmp_path / "run"]}[command]
    code, _out, err = run(command, "--graphs", tmp_path / "g.json", *argv)
    assert code == 1 and error_lines(err) == [
        f"error: {tmp_path / 'g.json'}: item 'g': nodes[1].label holds the lone "
        "surrogate '\\ud800'"]
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def test_surrogate_pair_in_a_corpus_is_one_character(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps(corpus_with(
        nodes=[{"id": "a", "label": "see"}, {"id": "b", "label": "b\U0001f600oy"}])))
    assert "\\ud83d\\ude00" in (tmp_path / "g.json").read_text()
    code, _out, err = run("pipeline", "--graphs", tmp_path / "g.json", "--iters", 1,
                          "--out", tmp_path / "run")
    assert code == 0, err
    assert "b\U0001f600oy" in (tmp_path / "run/best-trees.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["verify", "build-automata", "stats"])
@pytest.mark.parametrize("where", ["value", "key"])
def test_lone_surrogate_in_trees_exits_1_naming_file_item_and_field(base, tmp_path, command,
                                                                     where):
    trees = json.loads((base / "trees.json").read_text())
    nodes = trees[0]["tree"]["nodes"]
    node = sorted(nodes)[0]
    if where == "value":
        nodes[node]["nodes"][0]["label"] = "x\udc00"
        field = f"tree.nodes.{node}.nodes[0].label"
    else:
        key = node + "\udc00"
        nodes[key] = nodes.pop(node)
        field = f"tree.nodes[{key!r}]"
    (tmp_path / "t.json").write_text(json.dumps(trees))
    argv = {"verify": ["--graphs", base / "graphs.json", "--trees", tmp_path / "t.json",
                       "--out", tmp_path / "v.json"],
            "build-automata": ["--trees", tmp_path / "t.json", "--out", tmp_path / "auto"],
            "stats": ["--trees", tmp_path / "t.json"]}[command]
    code, _out, err = run(command, *argv)
    assert code == 1 and error_lines(err) == [
        f"error: {tmp_path / 't.json'}: item {trees[0]['id']!r}: {field} holds the lone "
        "surrogate '\\udc00'"]
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


# a leaf label, and the shape's node id of the root leaf, as JSON text:
# (the change to the automaton file, the error after the automaton's name)
SURROGATES = {
    "leaf label": (lambda text: text.replace('"nodes":{"r":"', '"nodes":{"r":"\\ud800'),
                   "rule 0: label: nodes.r holds the lone surrogate '\\ud800'"),
    "shape node": (lambda text: text.replace('"node":"a"', '"node":"a\\udbff"'),
                   "shape: [''].node holds the lone surrogate '\\udbff'"),
}


@pytest.mark.parametrize("case", SURROGATES)
def test_lone_surrogate_in_an_automaton_exits_1_naming_file_and_rule(tmp_path, case):
    change, message = SURROGATES[case]
    (tmp_path / "g.json").write_text(json.dumps(corpus_with(nodes=[{"id": "a", "label": "see"}],
                                                            edges=[])))
    assert run("pipeline", "--graphs", tmp_path / "g.json", "--iters", 1,
               "--out", tmp_path / "run")[0] == 0
    path = tmp_path / "run/automata/g.auto"
    text = path.read_text()
    assert change(text) != text
    path.write_text(change(text))
    code, _out, err = run("viterbi", "--automata", tmp_path / "run/automata",
                          "--out", tmp_path / "best.json")
    if case == "shape node":
        message = f"{path}: {message}"
    else:
        message = f"{path}: automaton 'g': {message}"
    assert code == 1 and error_lines(err) == [f"error: {message}"]
    assert not (tmp_path / "best.json").exists()


@pytest.mark.parametrize("tid", ["a/b", "../escaped", "nul\0"])
def test_id_that_cannot_name_a_file_exits_1(base, tmp_path, tid):
    trees = json.loads((base / "trees.json").read_text())[:1]
    trees[0]["id"] = tid
    (tmp_path / "t.json").write_text(json.dumps(trees))
    code, _out, err = run("build-automata", "--trees", tmp_path / "t.json",
                          "--out", tmp_path / "auto")
    assert code == 1 and error_lines(err) == [
        f"error: id {tid!r} cannot name an automaton file: it holds '/' or NUL"]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["auto", "t.json"]


# JSON values: text with escapes, control, non-ASCII and astral characters,
# integers beyond 64 bits, every float json spells specially, tuples, empty
# containers, non-string keys, and lists long enough to cross a write chunk
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀'),
                         st.characters()), max_size=6)
FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308,
                                    math.inf, -math.inf, math.nan]), st.floats())
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**80),
                   st.integers(-2**80, -2**64), FLOATS, TEXT)
JSON_VALUES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(TEXT, kids, max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.floats(allow_nan=False)), kids, max_size=3),
    st.lists(LEAVES, min_size=1, max_size=2).map(lambda xs: xs * (_CHUNK // len(xs) + 1))),
    max_leaves=20)


def outcome(write, path):
    """The bytes write(path) leaves at path, or the type of what it raised."""
    try:
        write(path)
    except Exception as exc:
        return type(exc)
    return path.read_bytes()


def dump(value, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, ensure_ascii=False, indent=1, sort_keys=True)
        fh.write("\n")


# a lone surrogate, which st.characters() can draw, makes both writers raise
@example(value={"\ud800": None})
@given(value=JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_write_json_writes_the_bytes_json_dump_writes(value):
    """Both writers give the same bytes, or both raise the same error; then
    write_json leaves no file behind."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.json", Path(tmp) / "theirs.json"
        got = outcome(lambda p: write_json(value, p), ours)
        assert got == outcome(lambda p: dump(value, p), theirs)
        if not isinstance(got, bytes):
            assert [p.name for p in Path(tmp).iterdir() if p != theirs] == []


def test_write_json_that_fails_leaves_the_old_file(tmp_path):
    # the bad value comes after the first chunks have been written: the old
    # bytes stay, and the temporary file is gone
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        write_json(list(range(3 * _CHUNK)) + [object()], path)
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]
