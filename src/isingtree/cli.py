"""Command-line front end: generate corpus graphs, verify the tree
correspondence, export derived graphs.

Exit codes: 0 all reported identities pass, 1 domain error or failed
identity, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import generators
from .correspondence import Chain, verify_main_theorem
from .isoradial import AngleOutOfRangeError, NotIsoradialError
from .maps import MapError, validate_simple_input
from .oracles import TooLargeError
from .serialize import (digraph_to_dot, dumps_digraph, dumps_map,
                        dumps_report, loads_map, map_to_dot)

# export kind -> the Chain attribute it writes
EXPORT_TARGETS = {"primal": "m", "dual": "dual", "quad": "quad",
                  "quadri_tiling": "gq", "extended_double": "dd",
                  "G0": "g0", "G": "g"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MapError, NotIsoradialError, AngleOutOfRangeError,
            TooLargeError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process (eight times the cost of a `parse_args`);
    each `parse_args` starts from a fresh namespace, so nothing leaks."""
    parser = argparse.ArgumentParser(
        prog="isingtree",
        description="Verify the critical Ising / spanning-tree correspondence "
                    "on small isoradial graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a corpus graph as JSON")
    g.add_argument("name", help="cycle | grid | rhombic")
    g.add_argument("params", nargs="*",
                   help="cycle N | grid W H | rhombic W H BETA (BETA a "
                        "fraction of pi, e.g. 1/6)")
    g.add_argument("--out", help="output path (default: stdout)")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="run the full identity chain")
    _graph_source(v)
    v.add_argument("--tolerance", type=float, default=1e-9,
                   help="relative tolerance per identity (default 1e-9)")
    v.add_argument("--root-s", type=int, default=None, metavar="DART",
                   help="outer dart naming the removed dual-boundary black s")
    v.add_argument("--out", help="also write the JSON report to this path")
    v.add_argument("--format", choices=("text", "json"), default="text",
                   help="stdout format (default text)")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="export a derived graph")
    e.add_argument("what", choices=EXPORT_TARGETS)
    _graph_source(e)
    e.add_argument("--format", choices=("dot", "json"), default="dot")
    e.add_argument("--out", help="output path (default: stdout)")
    e.set_defaults(func=cmd_export)
    return parser


def _graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="graph JSON path")
    src.add_argument("--generator", metavar="SPEC",
                     help="inline generator, e.g. cycle:4 or grid:3,3")


def _make_graph(name: str, params: list[str]):
    try:
        if name == "cycle":
            (n,) = params
            return generators.cycle(int(n))
        if name == "grid":
            w, h = params
            return generators.grid(int(w), int(h))
        if name == "rhombic":
            w, h, beta = params
            return generators.rhombic(int(w), int(h), Fraction(beta))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("bad parameters for %r: %s" % (name, exc))
    raise ValueError("unknown generator %r (expected cycle, grid or rhombic)"
                     % name)


def _load(args):
    if args.input is not None:
        with open(args.input) as fh:
            m, exact = loads_map(fh.read())
        validate_simple_input(m)
        return m, exact
    name, _, rest = args.generator.partition(":")
    return _make_graph(name, rest.split(",") if rest else [])


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_generate(args) -> int:
    m, exact = _make_graph(args.name, args.params)
    theta = dict(enumerate(Chain(m, exact).iso.theta))
    _write(dumps_map(m, theta=theta, theta_exact=exact), args.out)
    return 0


def cmd_verify(args) -> int:
    m, exact = _load(args)
    rep = verify_main_theorem(m, theta_exact=exact, tol=args.tolerance,
                              s_dart=args.root_s)
    if args.format == "json":
        sys.stdout.write(dumps_report(rep))
    else:
        for c in rep.checks:
            print("[%s] %-52s rel_err=%.3e" % (
                "ok  " if c.passed else "FAIL", c.name, c.err))
        print("%d/%d identities hold" % (
            sum(c.passed for c in rep.checks), len(rep.checks)))
    if args.out:
        _write(dumps_report(rep), args.out)
    return 0 if rep.passed else 1


def cmd_export(args) -> int:
    chain = Chain(*_load(args))
    target = getattr(chain, EXPORT_TARGETS[args.what])
    theta = exact = None
    if args.what == "primal" and args.format == "json":
        theta, exact = dict(enumerate(chain.iso.theta)), chain.theta_exact
    del chain   # the stages behind the target need not outlive the writers
    if args.what in ("G0", "G"):
        text = (dumps_digraph(target.graph) if args.format == "json"
                else digraph_to_dot(target.graph, name=args.what))
    elif args.format == "json":
        text = dumps_map(target, theta=theta, theta_exact=exact)
    else:
        text = map_to_dot(target, name=args.what)
    _write(text, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
