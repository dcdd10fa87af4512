import json

import pytest

import treeflow.cli
import treeflow.generator
from treeflow.cli import main
from treeflow.documents import serialize_instance
from treeflow.errors import ContractViolation
from treeflow.generator import generate_network


# json.dumps writes this string where a test wants an integer literal past
# Python's 4,300-digit int-string limit, which json.dumps cannot write itself
HUGE = "<integer of 4,301 digits>"


def _dumps(doc) -> str:
    return json.dumps(doc).replace(json.dumps(HUGE), "9" * 4301)


@pytest.fixture
def instance_file(tmp_path, e1):
    net, real = e1
    path = tmp_path / "e1.json"
    path.write_text(serialize_instance(net, real))
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "treeflow" in capsys.readouterr().out


def test_solve_prints_value(instance_file, capsys):
    assert main(["solve", str(instance_file)]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_solve_verify_round_trip(tmp_path, instance_file, capsys):
    result = tmp_path / "e1.result.json"
    assert main(["solve", str(instance_file), "--out", str(result)]) == 0
    capsys.readouterr()
    assert main(["verify", str(instance_file), str(result)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    doc = json.loads(result.read_text())
    assert doc["value"] == "6"
    assert {"n", "m", "leaf_count", "recursion_depth", "maxflow_calls", "wall_ms"} \
        <= set(doc["stats"])


def test_verify_rejects_tampered_value(tmp_path, instance_file, capsys):
    result = tmp_path / "r.json"
    main(["solve", str(instance_file), "--out", str(result)])
    doc = json.loads(result.read_text())
    doc["value"] = "7"
    result.write_text(json.dumps(doc))
    assert main(["verify", str(instance_file), str(result)]) == 2


def test_verify_rejects_corrupted_cut(tmp_path, instance_file):
    result = tmp_path / "r.json"
    main(["solve", str(instance_file), "--out", str(result)])
    doc = json.loads(result.read_text())
    for entry in doc["certificate"]:
        entry["cut"] = ["t"] if entry["cut"] == ["s"] else ["s"]
    result.write_text(json.dumps(doc))
    assert main(["verify", str(instance_file), str(result)]) == 2


def test_no_paths_output_matches_value(tmp_path, instance_file, capsys):
    full = tmp_path / "full.json"
    slim = tmp_path / "slim.json"
    main(["solve", str(instance_file), "--out", str(full)])
    main(["solve", str(instance_file), "--no-paths", "--out", str(slim)])
    a = json.loads(full.read_text())
    b = json.loads(slim.read_text())
    assert a["value"] == b["value"]
    assert "paths" in a and "paths" not in b
    # without paths there is nothing to verify
    assert main(["verify", str(instance_file), str(slim)]) == 2


def test_dual_command(instance_file, capsys):
    assert main(["dual", str(instance_file)]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_gen_then_solve(tmp_path, capsys):
    assert main(["gen", "--seed", "5", "--n", "12", "--cycles", "6",
                 "--pairs", "2", "--leaves", "3"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == 0
    value = capsys.readouterr().out.strip()
    assert main(["dual", str(path)]) == 0
    assert capsys.readouterr().out.strip() == value


@pytest.mark.parametrize("n, cycles, pairs, leaves", [
    (5, -1, -2, 2),
    (5, 3, -1, 2),
    (1, 3, 1, 2),
    (5, 3, 1, 1),
])
def test_gen_rejects_out_of_range_sizes(n, cycles, pairs, leaves, capsys):
    assert main(["gen", "--seed", "1", "--n", str(n), "--cycles", str(cycles),
                 "--pairs", str(pairs), "--leaves", str(leaves)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error (invalid-input)" in captured.err


def test_generator_self_check_failure_exits_3(capsys, monkeypatch):
    # arcs from x0 to every other vertex leave the inner vertices among
    # them unbalanced: the generator's own output fails validation, a bug
    def unbalanced(rng, vertices, cycles, pairs, simple_terminals):
        arcs = [(f"x0>{v}", "x0", v) for v in vertices[1:]]
        return arcs, {a: 1 for a, _u, _v in arcs}

    monkeypatch.setattr(treeflow.generator, "superpose_walks", unbalanced)
    with pytest.raises(ContractViolation):
        generate_network(5, 12, 6, 2, 3)
    assert main(["gen", "--seed", "5", "--n", "12", "--cycles", "6",
                 "--pairs", "2", "--leaves", "3"]) == 3
    assert capsys.readouterr().err.startswith("internal error: ContractViolation")


def test_bad_input_exit_code(tmp_path, instance_file, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["solve", str(path)]) == 1
    assert main(["dual", str(tmp_path / 'missing.json')]) == 1
    assert main(["solve", str(instance_file), "--out", str(tmp_path / "no" / "r.json")]) == 1
    assert "error (io-error)" in capsys.readouterr().err


def test_invalid_instance_exit_code(tmp_path, capsys, e1):
    # complex terminal out of balance: rejected as invalid input
    net, real = e1
    from treeflow import Network, Digraph, RealizationTree
    net2 = Network(Digraph.build(["s", "t", "q"],
                                 [("a", "s", "t"), ("b", "t", "q")]),
                   ("s", "t", "q"), {"a": 1, "b": 1})
    real2 = RealizationTree.build(["v1", "v2"], [("v1", "v2", 1, 1)],
                                  {"s": ["v1"], "t": ["v2"], "q": ["v1", "v2"]})
    path = tmp_path / "bad.json"
    path.write_text(serialize_instance(net2, real2))
    assert main(["solve", str(path)]) == 1


def _forge_extra_empty_path(doc):
    doc["paths"].append({"from": "s", "to": "t", "arcs": [], "weight": 100})
    doc["value"] = "306"


def _forge_relabelled_path(doc):
    for p in doc["paths"]:
        if (p["from"], p["to"]) == ("t", "s"):
            p["from"], p["to"] = "s", "t"
    doc["value"] = "9"


def _forge_cancelling_pair(doc):
    doc["paths"] += [{"from": "s", "to": "t", "arcs": ["a1"], "weight": 1},
                     {"from": "t", "to": "s", "arcs": ["a1"], "weight": -1}]
    doc["value"] = "9"


def _forge_list_endpoint(doc):
    doc["paths"][0]["from"] = ["s"]


def _forge_huge_weight(doc):
    doc["paths"][0]["weight"] = HUGE


@pytest.mark.parametrize("forge, code", [
    (_forge_extra_empty_path, 2),
    (_forge_relabelled_path, 2),
    (_forge_cancelling_pair, 2),
    (_forge_list_endpoint, 1),
    (_forge_huge_weight, 1),
])
def test_verify_rejects_forged_results(tmp_path, instance_file, capsys, forge, code):
    result = tmp_path / "r.json"
    assert main(["solve", str(instance_file), "--out", str(result)]) == 0
    doc = json.loads(result.read_text())
    forge(doc)
    result.write_text(_dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(instance_file), str(result)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("verification failed" if code == 2 else "error (malformed-document)")


def _list_vertex(doc):
    doc["graph"]["vertices"].append(["x"])


def _object_arc_id(doc):
    doc["graph"]["arcs"][0]["id"] = {"k": 1}


def _list_terminal(doc):
    doc["terminals"].append(["s"])


def _list_tree_endpoint(doc):
    doc["tree"]["edges"][0]["u"] = ["v1"]


def _boolean_length(doc):
    doc["tree"]["edges"][0]["len_uv"] = True


def _string_subtree(doc):
    doc["subtrees"]["s"] = "v1"


def _huge_capacity(doc):
    doc["graph"]["arcs"][0]["cap"] = HUGE


def _huge_length(doc):
    doc["tree"]["edges"][0]["len_uv"] = HUGE


def _exponent_length(doc):
    doc["tree"]["edges"][0]["len_uv"] = "1e999999999"


def _negative_loop_capacity(doc):
    # the graph drops loops, so only the capacity check sees this arc
    doc["graph"]["arcs"].append({"id": "loop", "tail": "s", "head": "s", "cap": -4})


def _fractional_loop_capacity(doc):
    doc["graph"]["arcs"].append({"id": "loop", "tail": "s", "head": "s", "cap": 1.5})


@pytest.mark.parametrize("corrupt, code", [
    (_list_vertex, "malformed-document"),
    (_object_arc_id, "malformed-document"),
    (_list_terminal, "malformed-document"),
    (_list_tree_endpoint, "malformed-document"),
    (_boolean_length, "bad-rational"),
    (_string_subtree, "malformed-document"),
    (_huge_capacity, "malformed-document"),
    (_huge_length, "malformed-document"),
    (_exponent_length, "bad-rational"),
    (_negative_loop_capacity, "negative-capacity"),
    (_fractional_loop_capacity, "non-integer-capacity"),
])
def test_malformed_instance_is_input_error(tmp_path, instance_file, capsys, corrupt, code):
    doc = json.loads(instance_file.read_text())
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(_dumps(doc))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error ({code})")


@pytest.mark.parametrize("command", ["solve", "dual", "verify"])
def test_deeply_nested_document_is_input_error(tmp_path, instance_file, capsys, command):
    # json.loads gives up on nesting this deep with a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    files = [instance_file, deep] if command == "verify" else [deep]
    assert main([command, *map(str, files)]) == 1
    assert capsys.readouterr().err.startswith("error (malformed-document)")


def _cycle_instance(tmp_path, cap, len_uv="1"):
    """Arcs s->x, x->t and t->s of capacity cap, on one tree edge of
    length len_uv from v1 to v2 and 1 back: the value is cap * (len_uv + 1)."""
    arcs = [("a", "s", "x"), ("b", "x", "t"), ("c", "t", "s")]
    doc = {"graph": {"vertices": ["s", "t", "x"],
                     "arcs": [{"id": a, "tail": u, "head": v, "cap": cap} for a, u, v in arcs]},
           "terminals": ["s", "t"],
           "tree": {"vertices": ["v1", "v2"],
                    "edges": [{"u": "v1", "v": "v2", "len_uv": len_uv, "len_vu": "1"}]},
           "subtrees": {"s": ["v1"], "t": ["v2"]}}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    return path


def test_capacities_summing_past_64_bits_solve_exactly(tmp_path, capsys):
    # every capacity fits in 64 bits; their sum and the value do not
    path = _cycle_instance(tmp_path, 6 * 10**18)
    result = tmp_path / "r.json"
    assert main(["solve", str(path), "--out", str(result)]) == 0
    assert capsys.readouterr().out.strip() == "12000000000000000000"
    assert main(["verify", str(path), str(result)]) == 0
    capsys.readouterr()
    assert main(["dual", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "12000000000000000000"


def test_value_past_the_int_string_limit_is_exact(tmp_path, capsys):
    # a 4,300-digit length gives a 4,301-digit value, longer than str(int)
    # and int(str) convert
    path = _cycle_instance(tmp_path, 3, "9" * 4300)
    value = "3" + "0" * 4300
    result = tmp_path / "r.json"
    assert main(["solve", str(path), "--out", str(result)]) == 0
    assert json.loads(result.read_text())["value"] == value
    assert main(["verify", str(path), str(result)]) == 0
    capsys.readouterr()
    assert main(["dual", str(path)]) == 0
    assert capsys.readouterr().out.strip() == value


def test_capacity_past_64_bits_is_input_error(tmp_path, capsys):
    assert main(["solve", str(_cycle_instance(tmp_path, 2**63))]) == 1
    assert capsys.readouterr().err.startswith("error (capacity-overflow)")


def test_unexpected_exception_exits_3(instance_file, capsys, monkeypatch):
    def broken(net, real):
        raise RuntimeError("boom")

    monkeypatch.setattr(treeflow.cli, "solve", broken)
    assert main(["solve", str(instance_file)]) == 3
    assert capsys.readouterr().err.startswith("internal error: RuntimeError: boom")
