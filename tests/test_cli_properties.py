"""Hypothesis properties of the command line on small generated instances.

- `treeflow verify` is sound: whenever it accepts a (possibly mutated)
  result document, the stated value is the optimum that the independent
  cut oracle `dual_value` computes.
- The input boundary is total: `treeflow solve` and `treeflow dual` exit
  0 or 1 on mutated instance documents, never 3.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from treeflow import TerminalPath, dual_value, mu_value, parse_instance, solve
from treeflow.cli import main
from treeflow.documents import format_rational
from treeflow.generator import generate_instance

instances = st.builds(generate_instance, st.integers(0, 10**6), st.integers(3, 12),
                      st.integers(1, 8), st.integers(0, 4), st.integers(2, 5))


def _run(argv):
    """Exit code and standard output of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().strip()


def _per_edge(doc, cuts):
    """The result document with its positions written as per-edge cuts."""
    del doc["positions"]
    doc["certificate"] = [{"tree_arc": list(arc), "cut": sorted(side)} for arc, side in cuts.items()]


def _mutate_result(doc, inst, data):
    paths = doc["paths"]
    kinds = ["weight", "drop-path", "duplicate-path", "swap-ends", "replace-arc", "shift-value"]
    kinds += ["move-vertex", "drop-position"] if "positions" in doc else ["toggle-cut-vertex", "drop-cut",
                                                                          "reverse-arc"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "shift-value":
        shift = data.draw(st.sampled_from([Fraction(-1), Fraction(1), Fraction(1, 2)]))
        doc["value"] = format_rational(Fraction(doc["value"]) + shift)
    elif kind in ("move-vertex", "drop-position"):
        positions = doc["positions"]
        i = data.draw(st.integers(0, len(positions) - 1))
        if kind == "drop-position":
            del positions[i]
        else:
            positions[i][1] = data.draw(st.sampled_from(inst["tree"]["vertices"]))
    elif kind in ("toggle-cut-vertex", "drop-cut", "reverse-arc"):
        cert = doc["certificate"]
        if not cert:
            return
        i = data.draw(st.integers(0, len(cert) - 1))
        if kind == "drop-cut":
            del cert[i]
            return
        if kind == "reverse-arc":  # the cut stays, now keyed by the other arc
            cert[i]["tree_arc"].reverse()
            return
        v = data.draw(st.sampled_from(inst["graph"]["vertices"]))
        cut = cert[i]["cut"]
        if v in cut:
            cut.remove(v)
        else:
            cut.append(v)
    elif paths:
        i = data.draw(st.integers(0, len(paths) - 1))
        p = paths[i]
        if kind == "weight":
            p["weight"] += data.draw(st.sampled_from([-1, 1]))
        elif kind == "drop-path":
            del paths[i]
        elif kind == "duplicate-path":
            paths.append(dict(p, arcs=list(p["arcs"])))
        elif kind == "swap-ends":
            p["from"], p["to"] = p["to"], p["from"]
        else:
            j = data.draw(st.integers(0, len(p["arcs"]) - 1))
            p["arcs"][j] = data.draw(st.sampled_from([a["id"] for a in inst["graph"]["arcs"]]))


def _restate_value(doc, real):
    """Set the stated value to what the mutated paths are worth, as a
    forger would, so acceptance hinges on the flow and the certificate."""
    paths = [TerminalPath(p["from"], p["to"], tuple(p["arcs"]), p["weight"]) for p in doc["paths"]]
    if all(p.source in real.subtrees and p.target in real.subtrees for p in paths):
        doc["value"] = format_rational(mu_value(real, paths))


@settings(max_examples=30, deadline=None)
@given(instances, st.data())
def test_accepted_results_state_the_optimum(inst, data):
    net, real = parse_instance(json.dumps(inst))
    optimum = dual_value(net, real)
    with tempfile.TemporaryDirectory() as tmp:
        inst_file, result_file = Path(tmp) / "instance.json", Path(tmp) / "result.json"
        inst_file.write_text(json.dumps(inst))
        assert _run(["solve", str(inst_file), "--out", str(result_file)])[0] == 0
        solved = result_file.read_text()
        assert _run(["verify", str(inst_file), str(result_file)])[0] == 0
        cuts = solve(net, real).certificate.cuts
        for _variant in range(4):  # verifying is cheap next to solving
            doc = json.loads(solved)
            if data.draw(st.booleans()):  # the per-edge form, as older documents carry it
                _per_edge(doc, cuts)
            for _ in range(data.draw(st.integers(1, 3))):
                _mutate_result(doc, inst, data)
            if data.draw(st.booleans()):
                _restate_value(doc, real)
            result_file.write_text(json.dumps(doc))
            code, _out = _run(["verify", str(inst_file), str(result_file)])
            assert code in (0, 2)
            if code == 0:
                assert Fraction(doc["value"]) == optimum


# DEEP stands for an array nested 200,000 deep, which json.dumps cannot
# write; LONG, as a tree length, makes a value longer than the 4,300 digits
# that str(int) prints
DEEP = "<array nested 200,000 deep>"
LONG = "9" * 4300
_json_leaves = (st.none() | st.booleans() | st.integers(-2, 2**64)
                | st.floats(allow_infinity=True, allow_nan=True)
                | st.sampled_from(["", "x0", "x1", "v0", "1/0", "-1", "3/2", "x0>x1", DEEP, LONG]))
json_values = st.recursive(_json_leaves,
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.sampled_from(["id", "tail", "u", "x0"]), inner,
                                             max_size=3),
                           max_leaves=6)


def _slots(node):
    """Every (container, key) pair of a JSON document."""
    keys = range(len(node)) if isinstance(node, list) else list(node)
    for k in keys:
        yield node, k
        if isinstance(node[k], (list, dict)):
            yield from _slots(node[k])


def _mutate_instance(doc, data):
    node, key = data.draw(st.sampled_from(list(_slots(doc))))
    action = data.draw(st.sampled_from(["replace", "delete", "duplicate", "copy-sibling"]))
    if action == "replace":
        node[key] = data.draw(json_values)
    elif action == "delete":
        del node[key]
    elif action == "duplicate" and isinstance(node, list):
        node.insert(key, json.loads(json.dumps(node[key])))
    elif action == "copy-sibling":
        # reuse a value found elsewhere in the same container (an id, a cap)
        other = data.draw(st.sampled_from(list(range(len(node)) if isinstance(node, list)
                                               else node)))
        node[key] = json.loads(json.dumps(node[other]))


@settings(max_examples=30, deadline=None)
@given(instances, st.data())
def test_mutated_instances_exit_zero_or_one(inst, data):
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_instance(inst, data)
    with tempfile.TemporaryDirectory() as tmp:
        inst_file = Path(tmp) / "instance.json"
        inst_file.write_text(json.dumps(inst).replace(json.dumps(DEEP), "[" * 200_000 + "]" * 200_000))
        solved, value = _run(["solve", str(inst_file)])
        dualized, bound = _run(["dual", str(inst_file)])
    assert solved in (0, 1) and dualized in (0, 1)
    if solved == dualized == 0:
        assert value == bound
