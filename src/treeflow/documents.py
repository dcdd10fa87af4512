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
from typing import List, Optional, Tuple

from .certify import Certificate
from .errors import InputError
from .graphs import Digraph, Network, sort_key
from .multiflow import TerminalPath
from .realization import RealizationTree


def format_rational(x: Fraction) -> str:
    # Decimal prints an integer of any length; str(int) stops at the
    # interpreter's int-string limit
    x = Fraction(x)
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def parse_rational(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    # exponents are rejected unread: "1e999999999" would build a 415 MB integer
    if isinstance(text, str) and "e" not in text.lower():
        # Decimal reads digit strings of any length, where int(str) and
        # Fraction(str) stop at the int-string limit
        num, slash, den = text.partition("/")
        try:
            value = Fraction(Decimal(num))
            return value / Fraction(Decimal(den)) if slash else value
        except (ArithmeticError, ValueError):  # a bad literal, a zero denominator, inf or nan
            pass
    raise InputError(f"bad rational literal {text!r}", code="bad-rational")


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
    return {
        "graph": {
            "vertices": sorted(net.vertices, key=sort_key),
            "arcs": [
                {"id": a.id, "tail": a.tail, "head": a.head, "cap": net.capacity[a.id]}
                for a in net.graph.arcs
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
    graph = _expect(doc, "graph", dict, "document")
    vertices = _expect_ids(graph, "vertices", "graph")
    arcs_doc = _expect(graph, "arcs", list, "graph")
    arcs = []
    caps = {}
    for a in arcs_doc:
        aid = _expect(a, "id", _ID, "arc")
        tail = _expect(a, "tail", _ID, "arc")
        head = _expect(a, "head", _ID, "arc")
        arcs.append((aid, tail, head))
        caps[aid] = _expect(a, "cap", None, "arc")
    terminals = tuple(_expect_ids(doc, "terminals", "document"))
    net = Network(Digraph.build(vertices, arcs), terminals, caps)

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
    for key, t in zip(_subtree_keys(terminals), terminals):
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
    # the sides overlap heavily: rank their union once, then order each
    # side by that rank, which is its sort_key order
    rank = {v: i for i, v in enumerate(sorted(frozenset().union(*cert.cuts.values()), key=sort_key))}
    doc = {
        "value": format_rational(value),
        "certificate": [
            {"tree_arc": [u, v], "cut": sorted(side, key=rank.__getitem__)}
            for (u, v), side in sorted(cert.cuts.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
        ],
        "stats": stats,
    }
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
    cuts = {}
    for entry in _expect(doc, "certificate", list, "result"):
        arc = _expect_ids(entry, "tree_arc", "certificate entry")
        if len(arc) != 2:
            raise InputError("tree_arc must have two vertices", code="malformed-document")
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
