"""Command-line front end: build, verify, analyze, and pattern conversion."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache

from . import axioms
from .crystal import DEFAULT_CAP, generate, json_chunks
from .errors import CapExceededError, GraphFormatError, ModelError, ParameterError
from .gt import GTPattern, count_bounded_patterns, from_gt, sigma_bound, to_gt, weyl_dimension
from .structure import (
    LOWER,
    UPPER,
    branching_multiplicity,
    principal_lattice,
    skeleton,
    subcrystals,
)
from .support import build_supporting_graph
from .weights import WeightFunction

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _add_model_args(p, require_c=True):
    p.add_argument("--n", type=int, required=require_c, help="number of colors")
    p.add_argument("--c", type=_int_list, required=require_c, help="upper bounds, comma-separated")
    p.add_argument("--d", type=_int_list, default=None,
                   help="lower bounds (default zeros); a negative list as --d=-1,0,-1")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="vertex cap for generation, and for the graph verify --in reads")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared, so no caller changes it.
    ``main`` looks each command's handler up when it runs, so a wrapped
    ``cmd_*`` is the one called."""
    ap = argparse.ArgumentParser(prog="ancrystal", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate a crystal and export it")
    _add_model_args(p)
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("verify", help="run the axiom battery on a graph")
    _add_model_args(p, require_c=False)
    p.add_argument("--in", dest="infile", default=None, help="crystal JSON or edge-list file")
    p.add_argument("--strict-a4", action="store_true", help="also check the derivable half of A4")

    p = sub.add_parser("analyze", help="structural decomposition report")
    _add_model_args(p)
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("gt", help="pattern conversion and counting")
    p.add_argument("--n", type=int, help="number of colors")
    p.add_argument("--c", type=_int_list, help="upper bounds, comma-separated")
    p.add_argument("--count", action="store_true", help="print the bounded-pattern count")
    p.add_argument(
        "--direction", choices=("to-pattern", "from-pattern"), default=None,
        help="convert a function file to a pattern file or back",
    )
    p.add_argument("--in", dest="infile", default=None, help="input JSON file")
    p.add_argument("--out", default=None, help="output file path")
    return ap


def _write(path, chunks):
    """Write the strings of ``chunks`` to ``path`` (stdout for None), each as
    soon as it is made, so that the whole text is never held."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _check_out(path):
    """Before any work, the OSError that writing ``path`` would meet when it
    is empty, names a directory or lies in none (None: stdout)."""
    if path is not None and (
        not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")
    ):
        open(path, "w").close()  # raises, and creates or truncates nothing


def cmd_build(args) -> int:
    _check_out(args.out)
    K = generate(args.n, args.c, args.d, args.cap)
    # every move raises one node by one, from d_k to c_k on each node of G^k
    length = sum(K.bounds.width[v.k - 1] for v in K.graph.nodes)
    principal = principal_lattice(K).size
    print(
        f"vertices={K.num_vertices} edges={K.num_edges} "
        f"length={length} principal={principal}"
    )
    if args.out is not None:
        _write(args.out, K.dot_chunks() if args.format == "dot" else json_chunks(K.to_json()))
    return EXIT_OK


def _read_text(path, error):
    """Contents of a UTF-8 input file; a file that is not UTF-8 raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_json(path, text, error):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: malformed JSON ({exc})") from None


def _load_graph(args):
    if args.infile is not None:
        if (args.n, args.c, args.d) != (None, None, None):  # they would be ignored
            raise ParameterError("verify takes either --in or --n/--c, not both")
        text = _read_text(args.infile, GraphFormatError)
        stripped = text.lstrip()
        if stripped.startswith("{"):
            data = _parse_json(args.infile, text, GraphFormatError)
            return axioms.from_crystal_json(data, args.cap)
        return axioms.from_edge_list_text(text, args.cap)
    if args.n is None or args.c is None:
        raise ParameterError("verify needs either --in or --n/--c")
    K = generate(args.n, args.c, args.d, args.cap)
    return axioms.ColoredDigraph(K.vertex_ids(), K.edges(), K.n)


def cmd_verify(args) -> int:
    g = _load_graph(args)
    verdicts = axioms.verify_graph(g, strict_a4=args.strict_a4, fail_fast=False)
    for v in verdicts:
        print(v)
    return EXIT_OK if axioms.all_pass(verdicts) else EXIT_VERDICT


def cmd_analyze(args) -> int:
    _check_out(args.out)
    K = generate(args.n, args.c, args.d, args.cap)
    lattice = principal_lattice(K)
    skel = skeleton(K)
    upper, lower = subcrystals(K, UPPER), subcrystals(K, LOWER)
    print(
        f"principal={lattice.size} skeleton={len(skel.vertex_ids)} "
        f"upper={len(upper)} lower={len(lower)}"
    )
    if args.out is None:
        return EXIT_OK
    records = upper + lower
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["side", "anchor", "parameter", "size", "principal_vertex"])
        w.writerows(
            [r.side, " ".join(map(str, r.anchor)), " ".join(map(str, r.parameter)),
             r.size, r.principal_vertex]
            for r in records
        )
        chunks = (buf.getvalue(),)
    else:
        report = {
            "n": K.n,
            "c": list(K.bounds.c),
            "d": list(K.bounds.d),
            "principal_lattice_size": lattice.size,
            "skeleton_size": len(skel.vertex_ids),
            "subcrystals": [
                {"side": r.side, "anchor": list(r.anchor), "parameter": list(r.parameter),
                 "size": r.size, "principal_vertex": r.principal_vertex}
                for r in records
            ],
            "branching": [
                {"parameter": list(q), "multiplicity": branching_multiplicity(K.bounds.width, q)}
                for q in sorted({r.parameter for r in upper})
            ],
        }
        chunks = json_chunks(report)
    _write(args.out, chunks)
    return EXIT_OK


def cmd_gt(args) -> int:
    _check_out(args.out)
    if args.count:
        if args.direction is not None or args.infile is not None:  # they would be ignored
            raise ParameterError("gt --count takes no --direction or --in")
        if args.n is None or args.c is None:
            raise ParameterError("gt --count needs --n and --c")
        c = tuple(args.c)
        if args.n < 1 or len(c) != args.n or any(x < 0 for x in c):
            raise ParameterError(
                f"gt --count needs n >= 1 and n nonnegative bounds, got --n {args.n} --c {c}"
            )
        if (size := weyl_dimension(c)) > DEFAULT_CAP:  # before an enumeration of days
            raise CapExceededError(DEFAULT_CAP, size, "crystal")
        _write(args.out, (f"{count_bounded_patterns(args.n, sigma_bound(c))}\n",))
        return EXIT_OK
    if args.direction is None or args.infile is None:
        raise ParameterError("gt needs --count, or --direction with --in")
    if args.direction == "to-pattern" and (args.n, args.c) != (None, None):  # the file gives both
        raise ParameterError("gt --direction to-pattern takes no --n or --c")
    data = _parse_json(args.infile, _read_text(args.infile, ParameterError), ParameterError)
    if args.direction == "to-pattern":
        f = WeightFunction.from_json(data)
        text = json.dumps(to_gt(f).to_json(), indent=2) + "\n"
    else:
        if args.n is None or args.c is None:
            raise ParameterError("gt --direction from-pattern needs --n and --c")
        pattern = GTPattern.from_json(data)
        if pattern.n != args.n:  # before the graph of a wrong n is built
            raise ParameterError(f"pattern has {pattern.n} rows, expected n={args.n}")
        f = from_gt(build_supporting_graph(args.n), pattern, args.c)
        text = json.dumps(f.to_json(), indent=2) + "\n"
    _write(args.out, (text,))
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "build": cmd_build,
        "verify": cmd_verify,
        "analyze": cmd_analyze,
        "gt": cmd_gt,
    }
    try:
        return handlers[args.command](args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (GraphFormatError, ParameterError, OSError) as exc:  # no OSError is a ModelError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
