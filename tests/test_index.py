"""The one-pass numbering of a graph (graphs._number, through
Digraph.build, Network.build and parse_instance) against the three-pass
construction it replaced (tests/reference_index.py), and the pipeline's
promise that no Arc object is made unless a library caller reads one."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from treeflow import (Digraph, InputError, Network, check_feasible, dual_value, free_imf, parse_instance,
                      serialize_instance, serialize_result, solve, verify_certificate)
from treeflow import graphs
from treeflow.cli import main

import reference_index
from test_acceptance import _performance_instance

_vertex_ids = st.one_of(st.integers(0, 6), st.sampled_from(["a", "b", "c", "1", "x0"]))
_arc_ids = st.one_of(st.integers(0, 40), st.text("pq", min_size=1, max_size=3))


@st.composite
def instances(draw):
    """Vertices, arcs, capacities by arc id and terminals of a small graph
    with mixed int and str ids (no two alike as str, so terminals keep
    their own subtree keys), loops, parallel and antiparallel arcs."""
    vertices = draw(st.lists(_vertex_ids, min_size=2, max_size=6, unique_by=str))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=10))
    ends += [(h, t) for t, h in ends[:draw(st.integers(0, 2))]]  # antiparallel
    ends += ends[:draw(st.integers(0, 2))]  # parallel
    ids = draw(st.lists(_arc_ids, min_size=len(ends), max_size=len(ends), unique=True))
    arcs = [(aid, t, h) for aid, (t, h) in zip(ids, ends)]
    caps = {aid: draw(st.integers(0, 5)) for aid in ids}
    terminals = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True))
    return vertices, arcs, caps, terminals


def _document(vertices, arcs, caps, terminals):
    """An instance document of the graph, on a star tree with one leaf per terminal."""
    leaves = [f"l{i}" for i in range(len(terminals))]
    return {
        "graph": {"vertices": list(vertices),
                  "arcs": [{"id": a, "tail": t, "head": h, "cap": caps[a]} for a, t, h in arcs]},
        "terminals": list(terminals),
        "tree": {"vertices": ["c"] + leaves,
                 "edges": [{"u": leaf, "v": "c", "len_uv": "1", "len_vu": "0"} for leaf in leaves]},
        "subtrees": {str(t): [leaf] for t, leaf in zip(terminals, leaves)},
    }


@settings(max_examples=80, deadline=None)
@given(instances())
def test_numbering_matches_the_reference(case):
    vertices, arcs, caps, terminals = case
    vset, kept = reference_index.build(vertices, arcs)
    ref = reference_index.index(vset, kept, caps)
    built = Network(Digraph.build(vertices, arcs), tuple(terminals), caps)
    parsed, _real = parse_instance(json.dumps(_document(vertices, arcs, caps, terminals)))
    for net in (built, parsed):
        g = net.graph.index
        assert net.vertices == vset
        assert (g.ids.vertex_ids, g.ids.number, g.ids.arc_ids, g.ids.arc_number) == \
            (ref.vertex_ids, ref.number, ref.arc_ids, ref.arc_number)
        assert (g.vertices, g.arcs, g.tail, g.head, g.adj, g.live) == \
            (ref.vertices, ref.arcs, ref.tail, ref.head, ref.adj, ref.live)
        assert net.cap == ref.cap
        assert dict(net.capacity) == caps  # loops keep their entries
        assert len(net.graph.arcs) == len(kept)
        assert tuple(net.graph.arcs) == kept
        by_id = net.graph.arcs_by_id()
        assert by_id == {a.id: a for a in kept}
        assert all(by_id[a.id] is a for a in net.graph.arcs)
        for v in list(vertices) + ["absent"]:
            assert net.graph.out_arcs(v) == [a for a in kept if a.tail == v]
            assert net.graph.in_arcs(v) == [a for a in kept if a.head == v]


def _fault(doc, data):
    """Make one fault in a valid instance document."""
    graph, arcs = doc["graph"], doc["graph"]["arcs"]
    kinds = ["no-terminals", "duplicate-terminal", "dangling-terminal", "vertex-not-id", "no-vertices"]
    if arcs:
        kinds += ["arc-not-object", "arc-missing-field", "arc-field-not-id", "dangling-end", "bad-cap"]
    if len(arcs) > 1:
        kinds.append("duplicate-arc")
    kind = data.draw(st.sampled_from(kinds))
    i = data.draw(st.integers(0, len(arcs) - 1)) if arcs else None
    if kind == "no-terminals":
        doc["terminals"] = []
    elif kind == "duplicate-terminal":
        doc["terminals"].append(doc["terminals"][0])
    elif kind == "dangling-terminal":
        doc["terminals"].append("nowhere")
    elif kind == "vertex-not-id":
        graph["vertices"].append(data.draw(st.sampled_from([[], {}])))
    elif kind == "no-vertices":
        del graph["vertices"]
    elif kind == "arc-not-object":
        arcs[i] = data.draw(st.sampled_from([[], "x", None, 3]))
    elif kind == "arc-missing-field":
        del arcs[i][data.draw(st.sampled_from(["id", "tail", "head", "cap"]))]
    elif kind == "arc-field-not-id":
        arcs[i][data.draw(st.sampled_from(["id", "tail", "head"]))] = data.draw(st.sampled_from([[], {}]))
    elif kind == "dangling-end":
        arcs[i][data.draw(st.sampled_from(["tail", "head"]))] = "nowhere"
    elif kind == "bad-cap":  # on a loop too, which the graph drops
        arcs[i]["cap"] = data.draw(st.sampled_from([None, 1.5, True, -1, 2**63, "3"]))
    else:
        j = data.draw(st.integers(0, len(arcs) - 1).filter(lambda j: j != i))
        arcs[i]["id"] = arcs[j]["id"]


def _code(call):
    try:
        call()
    except InputError as exc:
        return exc.code
    return None


@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_single_fault_documents_raise_the_reference_code(case, data):
    doc = _document(*case)
    _fault(doc, data)
    text = json.dumps(doc)
    expected = _code(lambda: reference_index.document_to_instance(json.loads(text)))
    assert expected is not None
    assert _code(lambda: parse_instance(text)) == expected


def test_the_pipeline_builds_no_arc(e1, monkeypatch, tmp_path):
    # parse -> solve -> to_paths -> serialize_result -> verify + feasibility
    # -> dual, and `treeflow solve`, as the bench and the CLI run them, and
    # free_imf with its Eulerian check
    made = []
    init = graphs.Arc.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    texts = [serialize_instance(*e1), serialize_instance(*_performance_instance(8_432, 2000, 2000, 32))]
    monkeypatch.setattr(graphs.Arc, "__init__", counted)
    for text in texts:
        net, real = parse_instance(text)
        out = solve(net, real)
        paths = out.multiflow.to_paths(net)
        m = len(net.graph.arcs)
        assert m == len(net.graph.index.tail) == len(json.loads(text)["graph"]["arcs"])
        serialize_result(out.value, paths, out.certificate, {"m": m})
        assert verify_certificate(net, real, paths, out.certificate) is None
        assert check_feasible(net, out.multiflow) is None
        assert dual_value(net, real) == out.value
        free_imf(net)
        instance = tmp_path / "instance.json"
        instance.write_text(text)
        assert main(["solve", str(instance), "--out", str(tmp_path / "result.json")]) == 0
        assert json.loads((tmp_path / "result.json").read_text())["stats"]["m"] == m
    assert made == []
