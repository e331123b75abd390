"""What byte-identical output rests on: the record types that are hashed,
compared and sorted hash, compare and sort exactly as the plain tuples of
their fields, and no output depends on the interpreter's hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from amdep.algebra import DepEdge
from amdep.automata import State
from amdep.cli import main
from amdep.decompose import UEdge
from amdep.graph import Edge

SRC = Path(__file__).resolve().parents[1] / "src"

# few distinct values, so that ties on the first fields are common and the
# later fields decide
names = st.text(alphabet="ab1", max_size=2)
edges = st.builds(Edge, names, names, names)
RECORDS = {
    Edge: edges,
    DepEdge: st.builds(DepEdge, names, names, st.sampled_from(["APP", "MOD"]), names),
    UEdge: st.builds(UEdge, names, names, st.booleans(), edges),
    State: st.builds(State, st.text(alphabet="01", max_size=2),
                     st.lists(st.tuples(names, names), max_size=2).map(tuple)),
}


def plain(value):
    """The plain tuple of a record's fields, records among them made plain too."""
    if type(value) in RECORDS:
        return tuple(plain(getattr(value, f)) for f in type(value).__annotations__)
    return value


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
@given(data=st.data())
def test_records_hash_compare_and_sort_as_field_tuples(record, data):
    rs = data.draw(st.lists(RECORDS[record], max_size=8))
    ps = [plain(r) for r in rs]
    assert [hash(r) for r in rs] == [hash(p) for p in ps]
    for a, pa in zip(rs, ps):
        for b, pb in zip(rs, ps):
            assert (a == b) == (pa == pb)
            assert (a < b) == (pa < pb)
    assert [plain(r) for r in sorted(rs)] == sorted(ps)
    assert len(set(rs)) == len(set(ps))


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    assert main(["gen", "--n", "12", "--graphs", str(tmp_path / "graphs.json"),
                 "--trees", str(tmp_path / "gold.json")]) == 0
    code = ("from amdep.cli import main\n"
            "assert main(['pipeline', '--graphs', '../graphs.json', '--sources', '4',"
            " '--iters', '2', '--out', 'run']) == 0\n"
            "assert main(['decompose', '--graphs', '../graphs.json', '--enumerate-unrollings',"
            " '--out', 'trees.json', '--report', 'skipped.json',"
            " '--manifest', 'manifest.json']) == 0\n")
    outs = []
    for seed in ("0", "1234"):
        out = tmp_path / f"hashseed-{seed}"
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", code], cwd=out, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC),
                                              "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.append({str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
        outs[-1]["stdout", "stderr"] = proc.stdout, proc.stderr
    assert "run/automata/index.json" in outs[0] and "manifest.json" in outs[0]
    assert outs[0].keys() == outs[1].keys()
    assert [f for f in outs[0] if outs[0][f] != outs[1][f]] == []
