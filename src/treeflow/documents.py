"""Reading and writing instances and results as JSON documents.

An instance document has four sections: the directed graph (vertices and
capacitated arcs), the terminal list, the tree (vertices and edges with
two lengths each), and the subtree of every terminal.  Rationals are
written as "p/q" strings so round trips stay exact.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter
from typing import List, Optional, Tuple

from .certify import Certificate
from .errors import InputError
from .graphs import Network, sort_key
from .multiflow import TerminalPath
from .realization import RealizationTree, parse_rational


def format_rational(x: Fraction) -> str:
    # Decimal prints an integer of any length; str(int) stops at the
    # interpreter's int-string limit
    x = Fraction(x)
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def _subtree_keys(terminals) -> List[str]:
    """The "subtrees" key of every terminal: its str form, which must be
    unique, or two terminals (say 1 and "1") would share one subtree."""
    keys = [str(t) for t in terminals]
    first = {}
    for key, t in zip(keys, terminals):
        other = first.setdefault(key, t)
        if other != t:
            raise InputError(f"terminals {other!r} and {t!r} share the subtree key {key!r}",
                             code="duplicate-terminal")
    return keys


def instance_to_document(net: Network, real: RealizationTree) -> dict:
    keys = _subtree_keys(net.terminals)
    g = net.graph.index
    vid = g.ids.vertex_ids  # id order, sorted once per graph
    return {
        "graph": {
            "vertices": list(vid),
            "arcs": [
                {"id": a, "tail": vid[t], "head": vid[h], "cap": c}
                for a, t, h, c in zip(g.ids.arc_ids, g.tail, g.head, net.cap)
            ],
        },
        "terminals": list(net.terminals),
        "tree": {
            "vertices": sorted(real.vertices, key=sort_key),
            "edges": [
                {
                    "u": u,
                    "v": v,
                    "len_uv": format_rational(real.arc_length[(u, v)]),
                    "len_vu": format_rational(real.arc_length[(v, u)]),
                }
                for (u, v) in real.edges()
            ],
        },
        "subtrees": {k: sorted(real.subtrees[t], key=sort_key) for k, t in zip(keys, net.terminals)},
    }


# JSON values usable as vertex, arc and terminal ids: the hashable ones
_ID = (str, int, float, type(None))
_ENDS = itemgetter("id", "tail", "head")
_CAP = itemgetter("cap")


def _expect(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"missing field {key!r} in {where}", code="malformed-document")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"field {key!r} in {where} has the wrong type", code="malformed-document")
    return value


def _expect_ids(doc: dict, key: str, where: str) -> list:
    """A list field whose every entry is an id."""
    values = _expect(doc, key, list, where)
    for x in values:
        if not isinstance(x, _ID):
            raise InputError(f"field {key!r} in {where} holds a non-id value {x!r}",
                             code="malformed-document")
    return values


def document_to_instance(doc: dict) -> Tuple[Network, RealizationTree]:
    """The instance of a document of JSON values.  Its network is checked
    and numbered in one pass over the arcs (Network.build); a KeyError or
    TypeError there, from an arc entry that is no object, lacks a field or
    has a list or object for an id, sends each entry through _expect."""
    graph = _expect(doc, "graph", dict, "document")
    vertices = _expect_ids(graph, "vertices", "graph")
    arcs = _expect(graph, "arcs", list, "graph")
    terminals = _expect_ids(doc, "terminals", "document")
    try:
        net = Network.build(vertices, map(_ENDS, arcs), map(_CAP, arcs), terminals)
    except (KeyError, TypeError):
        for a in arcs:
            for key in ("id", "tail", "head"):
                _expect(a, key, _ID, "arc")
            _expect(a, "cap", None, "arc")
        raise

    tree = _expect(doc, "tree", dict, "document")
    tvertices = _expect_ids(tree, "vertices", "tree")
    edges = []
    for e in _expect(tree, "edges", list, "tree"):
        u = _expect(e, "u", _ID, "tree edge")
        v = _expect(e, "v", _ID, "tree edge")
        edges.append((u, v, parse_rational(_expect(e, "len_uv", None, "tree edge")),
                      parse_rational(_expect(e, "len_vu", None, "tree edge"))))
    subs_doc = _expect(doc, "subtrees", dict, "document")
    subtrees = {}
    for key, t in zip(_subtree_keys(net.terminals), net.terminals):
        if key not in subs_doc:
            raise InputError(f"terminal {t!r} has no subtree", code="missing-subtree")
        subtrees[t] = _expect_ids(subs_doc, key, "subtrees")
    real = RealizationTree.build(tvertices, edges, subtrees)
    return net, real


def parse_instance(text: str) -> Tuple[Network, RealizationTree]:
    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer past the int-string limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}", code="malformed-document")
    return document_to_instance(doc)


def serialize_instance(net: Network, real: RealizationTree) -> str:
    return json.dumps(instance_to_document(net, real), indent=2, sort_keys=False) + "\n"


def result_to_document(value: Fraction, paths: Optional[List[TerminalPath]],
                       cert: Certificate, stats: dict) -> dict:
    """The result document.  A certificate of positions is written as a
    list of [vertex, tree vertex] pairs, not as an object, since ids may be
    ints or strings; the pairs keep the map's order, which is vertex id
    order for a solve's.  A certificate of cuts is written as one entry per
    tree arc with a cut."""
    doc = {"value": format_rational(value)}
    if cert.positions is not None:
        doc["positions"] = list(cert.positions.items())
    else:
        doc["certificate"] = [
            {"tree_arc": [u, v], "cut": sorted(side, key=sort_key)}
            for (u, v), side in sorted(cert.cuts.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
        ]
    doc["stats"] = stats
    if paths is not None:
        doc["paths"] = [
            {"from": p.source, "to": p.target, "arcs": list(p.arcs), "weight": p.weight}
            for p in paths
        ]
    return doc


def document_to_result(doc: dict):
    value = parse_rational(_expect(doc, "value", None, "result"))
    paths = None
    if "paths" in doc:
        paths = []
        for p in _expect(doc, "paths", list, "result"):
            paths.append(TerminalPath(
                _expect(p, "from", _ID, "path"),
                _expect(p, "to", _ID, "path"),
                tuple(_expect_ids(p, "arcs", "path")),
                _expect(p, "weight", int, "path"),
            ))
    if "positions" in doc:
        if "certificate" in doc:
            raise InputError("a result carries positions or per-edge cuts, not both", code="malformed-document")
        positions = {}
        for entry in _expect(doc, "positions", list, "result"):
            if not isinstance(entry, list) or len(entry) != 2 or not all(isinstance(x, _ID) for x in entry):
                raise InputError("a position must be a [vertex, tree vertex] pair of ids",
                                 code="malformed-document")
            if entry[0] in positions:
                raise InputError(f"two positions for vertex {entry[0]!r}", code="malformed-document")
            positions[entry[0]] = entry[1]
        return value, paths, Certificate(positions=positions)
    cuts = {}
    for entry in _expect(doc, "certificate", list, "result"):
        arc = _expect_ids(entry, "tree_arc", "certificate entry")
        if len(arc) != 2:
            raise InputError("tree_arc must have two vertices", code="malformed-document")
        if (arc[0], arc[1]) in cuts:
            raise InputError(f"two certificate entries for tree arc {arc!r}", code="malformed-document")
        cuts[(arc[0], arc[1])] = frozenset(_expect_ids(entry, "cut", "certificate entry"))
    return value, paths, Certificate(cuts)


def parse_result(text: str):
    try:
        doc = json.loads(text)
    # JSONDecodeError, an integer past the int-string limit, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}", code="malformed-document")
    return document_to_result(doc)


def serialize_result(value, paths, cert, stats) -> str:
    # compact separators keep json.dumps on its C encoder
    return json.dumps(result_to_document(value, paths, cert, stats), separators=(",", ":")) + "\n"
