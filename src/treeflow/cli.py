"""Command line front end: solve, verify, dual, gen.

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 internal error (a bug, please report).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .certify import dual_value, verify_result
from .documents import (
    format_rational,
    parse_instance,
    parse_result,
    serialize_result,
)
from .errors import InputError
from .generator import generate_instance
from .solver import solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_BUG = 3


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}", code="io-error")


def _cmd_solve(args) -> int:
    net, real = parse_instance(_read(args.instance))
    out = solve(net, real)
    paths = None if args.no_paths else out.multiflow.to_paths(net)
    stats = {
        "n": len(net.vertices),
        "m": len(net.graph.arcs),
        "leaf_count": len(real.leaves()),
        "recursion_depth": out.stats.recursion_depth,
        "maxflow_calls": out.stats.maxflow_calls,
        "wall_ms": round(out.stats.wall_ms, 3),
    }
    text = serialize_result(out.value, paths, out.certificate, stats)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}", code="io-error")
    print(format_rational(out.value))
    return EXIT_OK


def _cmd_verify(args) -> int:
    net, real = parse_instance(_read(args.instance))
    value, paths, cert = parse_result(_read(args.result))
    issue = verify_result(net, real, value, paths, cert)
    if issue is not None:
        print(f"verification failed: {issue}", file=sys.stderr)
        return EXIT_VERIFY
    print("ok")
    return EXIT_OK


def _cmd_dual(args) -> int:
    net, real = parse_instance(_read(args.instance))
    print(format_rational(dual_value(net, real)))
    return EXIT_OK


def _cmd_gen(args) -> int:
    doc = generate_instance(args.seed, args.n, args.cycles, args.pairs, args.leaves)
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treeflow",
                                 description="maximum tree-distance-weighted integer multiflows "
                                             "with optimality certificates")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance and print its value")
    p.add_argument("instance")
    p.add_argument("--out", help="write the result document here")
    p.add_argument("--no-paths", action="store_true", help="omit the path packing from the output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a result document against its instance")
    p.add_argument("instance")
    p.add_argument("result")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dual", help="print the cut bound (equals the optimum on valid instances)")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("gen", help="write a random valid instance to standard output")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--leaves", type=int, required=True)
    p.set_defaults(func=_cmd_gen)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - anything but bad input is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
