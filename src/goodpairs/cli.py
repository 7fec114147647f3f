"""Command-line interface.

Exit codes, uniform across subcommands:
  0  success (a pair was found / the input verified / output was written)
  1  certified absence of a good pair
  2  invalid input (parse error or violated precondition), or an input too
     large for memory
  3  undecided (only from ``oracle``: exact-search size cap exceeded)

``decide-sc`` decides in time linear in the root's closed-neighbourhood
restriction and is never undecided; on absence it writes the deficient
requirement component to stderr.

Every pair that ``solve`` and ``decide-sc`` print has passed
`verify_good_pair` first.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import io as gio
from .composition import DEFAULT_MATERIALIZE_ARC_LIMIT, BlobVertex, materialize
from .construct import construct_good_pair
from .digraph import verify_good_pair
from .generate import gen_composition, gen_semicomplete, gen_strong_digraph
from .oracle import DEFAULT_VERTEX_CAP, decide_good_pair_exact, enumerate_out_branchings
from .semicomplete import closed_neighborhood_restriction, decide_semicomplete, shrink_good_pair

EXIT_FOUND = 0
EXIT_ABSENT = 1
EXIT_INVALID = 2
EXIT_UNDECIDED = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_blob_root(text: str) -> BlobVertex:
    try:
        blob, layer = text.split(".")
        return BlobVertex(int(blob), int(layer))
    except ValueError:
        raise gio.FormatError(
            f"--root {text!r}: composition roots are written as i.j (1-based)"
        ) from None


def _write_dot(args: argparse.Namespace, pair, host=None) -> None:
    if getattr(args, "dot", None):
        Path(args.dot).write_text(gio.export_dot(pair=pair, host=host))


def _cmd_compose(args: argparse.Namespace) -> int:
    spec = gio.parse_composition(_read(args.spec))
    print(gio.serialize_digraph(materialize(spec, max_arcs=args.max_arcs)))
    return EXIT_FOUND


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = gio.parse_composition(_read(args.spec))
    root = _parse_blob_root(args.root)
    pair = construct_good_pair(spec, root)
    host = materialize(spec) if args.materialize and args.dot else None
    _write_dot(args, pair, host)
    print(gio.serialize_good_pair(pair))
    return EXIT_FOUND


def _cmd_decide_sc(args: argparse.Namespace) -> int:
    spec = gio.parse_composition(_read(args.spec))
    root = _parse_blob_root(args.root)
    decision = decide_semicomplete(spec, root)
    if decision.found:
        _write_dot(args, decision.pair)
        print(gio.serialize_good_pair(decision.pair))
        return EXIT_FOUND
    print('{"status": "absent"}')
    print(f"absent: {decision.reason}", file=sys.stderr)
    return EXIT_ABSENT


def _cmd_oracle(args: argparse.Namespace) -> int:
    d = gio.parse_digraph(_read(args.digraph))
    if args.enumerate:
        for b in enumerate_out_branchings(d, args.root, limit=args.limit):
            print(gio.serialize_branching(b))
        return EXIT_FOUND
    decision = decide_good_pair_exact(d, args.root, vertex_cap=args.kernel_cap)
    if decision.found:
        _write_dot(args, decision.pair)
        print(gio.serialize_good_pair(decision.pair))
        return EXIT_FOUND
    if decision.absent:
        print('{"status": "absent"}')
        return EXIT_ABSENT
    print(f"undecided: {decision.reason}", file=sys.stderr)
    return EXIT_UNDECIDED


def _cmd_verify(args: argparse.Namespace) -> int:
    d = gio.parse_digraph(_read(args.digraph))
    pair = gio.parse_good_pair(_read(args.pair))
    report = verify_good_pair(d, pair)
    print(json.dumps({"valid": report.ok, "problems": list(report.problems)}))
    return EXIT_FOUND if report.ok else EXIT_INVALID


def _cmd_shrink(args: argparse.Namespace) -> int:
    d = gio.parse_digraph(_read(args.digraph))
    pair = gio.parse_good_pair(_read(args.pair))
    nr = closed_neighborhood_restriction(d, args.root)
    result = shrink_good_pair(d, nr, pair)
    if not result.ok:
        print(f"shrink failed: {result.message}", file=sys.stderr)
        return EXIT_INVALID
    kept, removed = json.dumps(nr.kept.tolist()), json.dumps(nr.removed.tolist())
    pair_text = gio.serialize_good_pair(result.pair)
    print(f'{{"kept": {kept}, "removed": {removed}, "pair": {pair_text}}}')
    return EXIT_FOUND


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "strong":
        print(gio.serialize_digraph(gen_strong_digraph(args.t, args.extra_arcs, args.seed)))
    elif args.family == "semicomplete":
        print(gio.serialize_digraph(gen_semicomplete(args.t, args.bidir_prob, args.seed)))
    else:
        spec = gen_composition(
            args.t,
            (args.blob_min, args.blob_max),
            args.blob_arc_prob,
            args.outer,
            args.seed,
        )
        print(gio.serialize_composition(spec))
    return EXIT_FOUND


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodpairs",
        description="Arc-disjoint out-/in-branching pairs in digraph compositions. "
        "Roots on compositions are 1-based 'i.j' (blob.layer); roots on flat "
        "digraphs are 0-based vertex ids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="materialize a composition spec into a digraph")
    p.add_argument("spec", help="composition JSON file, or - for stdin")
    p.add_argument("--max-arcs", type=int, default=DEFAULT_MATERIALIZE_ARC_LIMIT)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("solve", help="construct a good pair (strong outer, all blobs >= 2)")
    p.add_argument("spec", help="composition JSON file, or - for stdin")
    p.add_argument("--root", required=True, help="root as i.j, 1-based")
    p.add_argument("--dot", metavar="OUT", help="also write a DOT rendering")
    p.add_argument(
        "--materialize",
        action="store_true",
        help="include non-pair arcs of the composition in the --dot output",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decide-sc", help="decide a good pair on a semicomplete composition")
    p.add_argument("spec", help="composition JSON file, or - for stdin")
    p.add_argument("--root", required=True, help="root as i.j, 1-based")
    p.add_argument("--dot", metavar="OUT")
    p.set_defaults(func=_cmd_decide_sc)

    p = sub.add_parser("oracle", help="exact good-pair decision on a flat digraph")
    p.add_argument("digraph", help="digraph JSON file, or - for stdin")
    p.add_argument("--root", type=int, required=True, help="root vertex id, 0-based")
    p.add_argument("--kernel-cap", type=int, default=DEFAULT_VERTEX_CAP)
    p.add_argument(
        "--enumerate",
        action="store_true",
        help='list spanning out-branchings, one {"root", "arcs"} line each, instead of deciding',
    )
    p.add_argument("--limit", type=int, default=None, help="stop after this many branchings")
    p.add_argument("--dot", metavar="OUT")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="verify a good pair against a digraph")
    p.add_argument("digraph")
    p.add_argument("pair")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shrink", help="shrink a pair to the root's closed neighbourhood")
    p.add_argument("digraph")
    p.add_argument("pair")
    p.add_argument("--root", type=int, required=True, help="root vertex id, 0-based")
    p.set_defaults(func=_cmd_shrink)

    p = sub.add_parser("gen", help="seeded instance generators")
    gen_sub = p.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("strong", help="Hamiltonian cycle plus random chords")
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--extra-arcs", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("semicomplete", help="random semicomplete digraph")
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--bidir-prob", type=float, default=0.25)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_gen)
    g = gen_sub.add_parser("composition", help="random composition spec")
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--blob-min", type=int, default=1)
    g.add_argument("--blob-max", type=int, default=3)
    g.add_argument("--blob-arc-prob", type=float, default=0.0)
    g.add_argument("--outer", choices=("strong", "semicomplete"), default="strong")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (gio.FormatError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())
