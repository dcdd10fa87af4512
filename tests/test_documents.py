import json
from fractions import Fraction

import pytest

from treeflow import Digraph, InputError, Network, RealizationTree, parse_instance, serialize_instance, solve
from treeflow.documents import (
    format_rational,
    parse_rational,
    parse_result,
    serialize_result,
)
from treeflow.cli import main
from treeflow.generator import generate_instance, generate_network


def test_rational_round_trip():
    for x in [Fraction(0), Fraction(3), Fraction(1, 2), Fraction(-7, 3)]:
        assert parse_rational(format_rational(x)) == x
    assert parse_rational(5) == 5
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("zebra")
    # exponents are rejected before they are converted into huge integers
    for text in ["1e999999999", "1e-999999999"]:
        with pytest.raises(InputError) as exc:
            parse_rational(text)
        assert exc.value.code == "bad-rational"


def test_instance_round_trip(e1):
    net, real = e1
    text = serialize_instance(net, real)
    net2, real2 = parse_instance(text)
    assert net2.terminals == net.terminals
    assert net2.capacity == net.capacity
    assert real2.arc_length == real.arc_length
    assert real2.subtrees == real.subtrees
    assert serialize_instance(net2, real2) == text


def test_instance_round_trip_with_mixed_id_types():
    net = Network(Digraph.build([1, "a"], [(0, 1, "a"), ("back", "a", 1)]), (1, "a"),
                  {0: 2, "back": 1})
    real = RealizationTree.build([2, "v"], [(2, "v", 3, 0)], {1: [2], "a": ["v"]})
    text = serialize_instance(net, real)
    net2, real2 = parse_instance(text)
    assert net2.terminals == net.terminals and net2.capacity == net.capacity
    assert real2.arc_length == real.arc_length
    assert serialize_instance(net2, real2) == text


def test_terminals_sharing_a_subtree_key_are_rejected(tmp_path):
    # 1 and "1" would share the subtree key "1"; a value-1 instance then
    # came back with both terminals on one leaf and solved to 0
    net = Network(Digraph.build([1, "1"], [("a", 1, "1"), ("b", "1", 1)]), (1, "1"),
                  {"a": 1, "b": 1})
    real = RealizationTree.build(["u", "v"], [("u", "v", 1, 0)], {1: ["u"], "1": ["v"]})
    assert solve(net, real).value == 1
    with pytest.raises(InputError) as e:
        serialize_instance(net, real)
    assert e.value.code == "duplicate-terminal"
    doc = {
        "graph": {"vertices": [1, "1"],
                  "arcs": [{"id": "a", "tail": 1, "head": "1", "cap": 1},
                           {"id": "b", "tail": "1", "head": 1, "cap": 1}]},
        "terminals": [1, "1"],
        "tree": {"vertices": ["u", "v"], "edges": [{"u": "u", "v": "v", "len_uv": 1, "len_vu": 0}]},
        "subtrees": {"1": ["u"]},
    }
    with pytest.raises(InputError) as e:
        parse_instance(json.dumps(doc))
    assert e.value.code == "duplicate-terminal"
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1


def test_parse_error_codes():
    with pytest.raises(InputError) as e:
        parse_instance("{not json")
    assert e.value.code == "malformed-document"

    doc = {
        "graph": {"vertices": ["s", "t"], "arcs": [{"id": "a", "tail": "s", "head": "t", "cap": 1}]},
        "terminals": ["s", "t"],
        "tree": {"vertices": ["v1", "v2"], "edges": [{"u": "v1", "v": "v2", "len_uv": 1, "len_vu": 0}]},
        "subtrees": {"s": ["v1"], "t": ["nowhere"]},
    }
    with pytest.raises(InputError) as e:
        parse_instance(json.dumps(doc))
    assert e.value.code == "dangling-reference"

    doc["subtrees"]["t"] = ["v2"]
    doc["graph"]["arcs"][0]["cap"] = -2
    with pytest.raises(InputError) as e:
        parse_instance(json.dumps(doc))
    assert e.value.code == "negative-capacity"

    doc["graph"]["arcs"][0]["cap"] = 1
    doc["subtrees"]["t"] = ["v2", "nope"]
    with pytest.raises(InputError):
        parse_instance(json.dumps(doc))

    # disconnected subtree
    doc2 = {
        "graph": {"vertices": ["s"], "arcs": []},
        "terminals": ["s"],
        "tree": {"vertices": ["a", "b", "c"],
                 "edges": [{"u": "a", "v": "b", "len_uv": 1, "len_vu": 1},
                           {"u": "b", "v": "c", "len_uv": 1, "len_vu": 1}]},
        "subtrees": {"s": ["a", "c"]},
    }
    with pytest.raises(InputError) as e:
        parse_instance(json.dumps(doc2))
    assert e.value.code == "disconnected-subtree"


def test_a_document_with_an_empty_tree_is_an_input_error(tmp_path):
    doc = {
        "graph": {"vertices": ["s", "t"], "arcs": [{"id": "a", "tail": "s", "head": "t", "cap": 1}]},
        "terminals": ["s", "t"],
        "tree": {"vertices": [], "edges": []},
        "subtrees": {"s": [], "t": []},
    }
    with pytest.raises(InputError) as e:
        parse_instance(json.dumps(doc))
    assert e.value.code == "invalid-tree"
    path = tmp_path / "empty-tree.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1  # bad input, not an internal error


def test_result_round_trip(e1):
    net, real = e1
    out = solve(net, real)
    paths = out.multiflow.to_paths(net)
    text = serialize_result(out.value, paths, out.certificate, {"n": 2})
    value, paths2, cert2 = parse_result(text)
    assert value == out.value
    assert [(p.source, p.target, p.arcs, p.weight) for p in paths2] == \
           [(p.source, p.target, p.arcs, p.weight) for p in paths]
    assert cert2.positions == out.certificate.positions
    # a certificate of per-edge cuts, as older results carry, round-trips too
    from treeflow.certify import Certificate
    text = serialize_result(out.value, paths, Certificate(out.certificate.cuts), {"n": 2})
    _value, _paths, cert3 = parse_result(text)
    assert cert3.positions is None
    assert cert3.cuts == out.certificate.cuts == {("v1", "v2"): frozenset(["s"])}


def test_positions_round_trip_in_vertex_id_order_with_mixed_ids():
    # an e1-like instance with int and str ids: the pairs come in vertex id
    # order, and the parsed positions are the solve's and verify
    from treeflow import verify_certificate
    from treeflow.graphs import sort_key

    vertices = [1, 10, "t", "x"]
    net = Network(Digraph.build(vertices, [("a", 1, 10), ("b", 10, "t"), ("c", "t", "x"), ("d", "x", 1)]),
                  (1, "t"), {"a": 2, "b": 2, "c": 1, "d": 1})
    real = RealizationTree.build([0, "w"], [(0, "w", 3, 0)], {1: [0], "t": ["w"]})
    out = solve(net, real)
    paths = out.multiflow.to_paths(net)
    text = serialize_result(out.value, paths, out.certificate, {})
    assert [v for v, _p in json.loads(text)["positions"]] == sorted(vertices, key=sort_key)
    _value, _paths, cert = parse_result(text)
    assert cert.positions == out.certificate.positions
    assert list(cert.positions) == list(out.certificate.positions)
    assert verify_certificate(net, real, paths, cert) is None
    assert out.certificate.cuts == {(0, "w"): frozenset([1])}


def test_certificate_sides_serialize_in_id_order_with_mixed_ids():
    # every side in sort_key order, as sorting each side on its own gives
    from treeflow.certify import Certificate
    from treeflow.graphs import sort_key

    ids = [3, 10, -1, "a", "b10", "b9", (1, 2), ("x",), (1, "y"), "10"]
    cuts = {("u", "v"): frozenset(ids[::2]), ("v", "u"): frozenset(ids[1::2]),
            (2, "w"): frozenset(ids), ("w", 2): frozenset([(1, 2), 3])}
    text = serialize_result(Fraction(7, 2), None, Certificate(cuts), {"n": 10})
    expected = {
        "value": "7/2",
        "certificate": [{"tree_arc": [u, v], "cut": sorted(side, key=sort_key)}
                        for (u, v), side in sorted(cuts.items(),
                                                   key=lambda kv: (str(kv[0][0]), str(kv[0][1])))],
        "stats": {"n": 10},
    }
    assert text == json.dumps(expected, separators=(",", ":")) + "\n"
    # ids sort by type name, then by repr
    assert json.loads(text)["certificate"][0]["cut"] == [-1, 10, 3, "10", "a", "b10", "b9",
                                                         ["x"], [1, "y"], [1, 2]]


def test_generator_determinism_and_validity():
    a = generate_instance(7, 30, 10, 4, 4)
    b = generate_instance(7, 30, 10, 4, 4)
    assert json.dumps(a) == json.dumps(b)
    c = generate_instance(8, 30, 10, 4, 4)
    assert json.dumps(a) != json.dumps(c)


def test_generator_zero_walks_is_trivially_optimal():
    net, real = generate_network(3, 6, 0, 0, 3)
    assert all(c == 0 for c in net.capacity.values())
    out = solve(net, real)
    assert out.value == 0


def test_generated_instances_validate():
    from treeflow import validate_instance
    for seed in range(40):
        net, real = generate_network(seed, 20 + seed, 8, 3, 2 + seed % 6)
        assert validate_instance(net, real) is None
