"""Batch command line front end.

One JSON object per result line on stdout; human-readable summaries and
timings go to stderr so scripted runs can diff stdout byte for byte.
Exit codes: 0 success / property holds, 2 property fails or search found
nothing, 3 indeterminate (budget exhausted), 4 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .arrow import (ArrowInstance, ColoringTable, arrow_holds,
                    induced_host_verify, min_arrow_N)
from .budget import Budget, BudgetExceededError
from .construction import (ExtractionFailure, HostSpec, auto_n1,
                           build_base_host, build_product_host,
                           extract_monochromatic_copy, host_from_json,
                           host_to_json)
from .field import make_field
from .hales_jewett import hj_number
from .space import (SizeCapError, count_subspaces, enumerate_subspaces,
                    full_space, json_expect, json_int)

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_UNKNOWN = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(obj: dict, path: str | None = None) -> None:
    line = json.dumps(obj)
    print(line)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _write_json(path: str, obj) -> None:
    """Write the same bytes as json.dump(obj) plus a newline.

    json.dump runs the pure-Python encoder; json.dumps runs the C one.
    But json.dumps gathers one string object per number before joining
    them, so encoding a whole bundle, or even one of its blocks, at once
    costs far more memory than the text.  Objects and lists of containers
    are therefore written piece by piece, and each row of numbers (or
    other scalar) with one json.dumps call.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _stream_json(fh, obj)
        fh.write("\n")


def _stream_json(fh, obj) -> None:
    if isinstance(obj, list) and obj and isinstance(obj[0], (list, dict)):
        fh.write("[")
        for i, value in enumerate(obj):
            fh.write(", " if i else "")
            _stream_json(fh, value)
        fh.write("]")
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(", " if i else "")
            fh.write(json.dumps(key) + ": ")
            _stream_json(fh, value)
        fh.write("}")
    else:
        fh.write(json.dumps(obj))


def _budget(args) -> Budget:
    return Budget(max_nodes=args.budget_nodes, max_ms=args.budget_ms)


def _add_common(p: argparse.ArgumentParser, out_help: str,
                out_required: bool = False) -> None:
    p.add_argument("--out", required=out_required, help=out_help)
    p.add_argument("--seed", type=int, default=0,
                   help="seed echoed into the summary (reserved for sweeps)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker hint; results are deterministic regardless")
    p.add_argument("--budget-nodes", type=int, default=10 ** 7,
                   help="search node cap (default 10^7)")
    p.add_argument("--budget-ms", type=int, default=60000,
                   help="wall-clock safety cap in ms (default 60000)")


def _space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="field order")
    p.add_argument("--mode", choices=["vector", "affine"], required=True)


def cmd_count(args) -> int:
    formula = count_subspaces(args.N, args.k, args.q, args.mode)
    ambient = full_space(make_field(args.q), args.mode, args.N)
    enumerated = len(enumerate_subspaces(ambient, args.k))
    obj = {
        "command": "count", "q": args.q, "mode": args.mode,
        "N": args.N, "k": args.k,
        "count_formula": formula, "count_enumerated": enumerated,
        "match": formula == enumerated,
    }
    _emit(obj, args.out)
    return EXIT_OK if obj["match"] else EXIT_NEGATIVE


def cmd_enumerate(args) -> int:
    ambient = full_space(make_field(args.q), args.mode, args.N)
    lines = [json.dumps(s.to_json())
             for s in enumerate_subspaces(ambient, args.k)]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def cmd_arrow(args) -> int:
    bud = _budget(args)
    symmetry = not args.no_symmetry
    if args.min_n:
        value = min_arrow_N(args.q, args.mode, args.n, args.k, args.r,
                            args.nmax, budget=bud, symmetry=symmetry)
        _emit({"command": "arrow_min_n", "q": args.q, "mode": args.mode,
               "n": args.n, "k": args.k, "r": args.r, "nmax": args.nmax,
               "value": value, "nodes_explored": bud.nodes}, args.out)
        return EXIT_OK if value is not None else EXIT_NEGATIVE
    if args.N is None:
        raise ValueError("--N is required unless --min-n is given")
    inst = ArrowInstance(args.q, args.mode, args.N, args.n, args.k, args.r)
    res = arrow_holds(inst, budget=bud, symmetry=symmetry)
    _emit({"command": "arrow", **res.to_json()})
    if args.out and res.witness is not None:
        _write_json(args.out, res.witness.to_json())
    return EXIT_OK if res.holds else EXIT_NEGATIVE


def cmd_hj(args) -> int:
    bud = _budget(args)
    value, coloring = hj_number(args.t, args.l, args.nmax, budget=bud)
    witness = None
    if coloring is not None:
        length = value - 1 if value is not None else args.nmax
        witness = {"N": length, "t": args.t, "colors": coloring}
    obj = {"command": "hj", "t": args.t, "l": args.l, "nmax": args.nmax,
           "value": value, "witness": witness, "nodes_explored": bud.nodes}
    _emit(obj)
    if args.out and witness is not None:
        _write_json(args.out, witness)
    return EXIT_OK if value is not None else EXIT_NEGATIVE


def cmd_construct(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = HostSpec.from_json(json.load(fh))
    bud = _budget(args)
    base = build_base_host(spec)
    word_len = spec.word_len
    if word_len is None:
        word_len = auto_n1(spec, base, budget=bud)
        if word_len is None:
            _emit({"command": "construct", "verdict": "unknown",
                   "reason": "word length search found no bound in range"})
            return EXIT_UNKNOWN
    host = build_product_host(base, word_len)
    _write_json(args.out, host_to_json(host))
    _emit({
        "command": "construct", "out": args.out, "word_len": word_len,
        "rank_block_space": base.space.rank, "rank_equalizer": host.space.rank,
        "num_targets": len(base.blocks), "num_covers": len(base.covers),
        "num_cover_k_spaces": len(base.cover_k_spaces),
        "num_members": len(host.members),
    })
    return EXIT_OK


def _load_host(path: str):
    with open(path, encoding="utf-8") as fh:
        return host_from_json(json.load(fh))


def cmd_verify(args) -> int:
    host = _load_host(args.bundle)
    spec = host.spec
    num_colors = args.r if args.r is not None else spec.num_colors
    bud = _budget(args)
    res = induced_host_verify(host.space, host.members, spec.family,
                              num_colors, budget=bud,
                              symmetry=not args.no_symmetry)
    _emit({"command": "verify", "r": num_colors, **res.to_json()})
    if args.out and res.witness is not None:
        _write_json(args.out, res.witness.to_json())
    return EXIT_OK if res.holds else EXIT_NEGATIVE


def _load_coloring(path: str, host) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    json_expect(data, dict, "a coloring file")
    if "constant" in data:
        color = json_int(data["constant"], "constant")
        return {m.key(): color for m in host.members}
    if "entries" in data:
        entries = json_expect(data["entries"], dict, "a coloring's 'entries'")
        return {str(k): json_int(v, "a coloring entry")
                for k, v in entries.items()}
    raise ValueError("coloring file needs an 'entries' map or a 'constant'")


def cmd_extract(args) -> int:
    host = _load_host(args.bundle)
    entries = _load_coloring(args.coloring, host)
    result = extract_monochromatic_copy(host, entries)
    _emit({"command": "extract", **result.to_json()}, args.out)
    return EXIT_NEGATIVE if isinstance(result, ExtractionFailure) else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="qramsey",
                     description="Coloring searches and host constructions "
                                 "for spaces over small finite fields")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("count", help="compare the counting formula with "
                                     "exhaustive enumeration")
    _space_args(p)
    p.add_argument("--N", type=int, required=True, help="ambient rank")
    p.add_argument("--k", type=int, required=True, help="subspace rank")
    _add_common(p, "also write the result line to this file")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list rank-k subspaces, one JSON "
                                         "object per line")
    _space_args(p)
    p.add_argument("--N", type=int, required=True, help="ambient rank")
    p.add_argument("--k", type=int, required=True, help="subspace rank")
    _add_common(p, "also write the listing to this file")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("arrow", help="decide an arrow relation or scan for "
                                     "the minimal host rank")
    _space_args(p)
    p.add_argument("--N", type=int, help="host rank (omit with --min-n)")
    p.add_argument("--n", type=int, required=True, help="target rank")
    p.add_argument("--k", type=int, required=True, help="colored rank")
    p.add_argument("--r", type=int, required=True, help="number of colors")
    p.add_argument("--min-n", action="store_true",
                   help="scan host ranks up to --nmax for the least that holds")
    p.add_argument("--nmax", type=int, default=6,
                   help="largest host rank for --min-n (default 6)")
    p.add_argument("--no-symmetry", action="store_true",
                   help="disable color-symmetry pruning")
    _add_common(p, "write the witness coloring here on failure")
    p.set_defaults(func=cmd_arrow)

    p = sub.add_parser("hj", help="least word length forcing a "
                                  "monochromatic combinatorial line")
    p.add_argument("--t", type=int, required=True, help="alphabet size")
    p.add_argument("--l", type=int, required=True, help="number of colors")
    p.add_argument("--nmax", type=int, required=True,
                   help="largest word length to try")
    _add_common(p, "write the last line-free coloring here")
    p.set_defaults(func=cmd_hj)

    p = sub.add_parser("construct", help="build a host bundle from a spec file")
    p.add_argument("--spec", required=True, help="host spec JSON file")
    _add_common(p, "bundle output file", out_required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check the induced host property of a "
                                      "bundle")
    p.add_argument("--bundle", required=True, help="host bundle JSON file")
    p.add_argument("--r", type=int, help="number of colors "
                                         "(default: the bundle spec's)")
    p.add_argument("--no-symmetry", action="store_true",
                   help="disable color-symmetry pruning")
    _add_common(p, "write the witness coloring here on failure")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extract", help="extract a monochromatic copy from a "
                                       "bundle under a coloring")
    p.add_argument("--bundle", required=True, help="host bundle JSON file")
    p.add_argument("--coloring", required=True,
                   help="coloring JSON file ('entries' map or 'constant')")
    _add_common(p, "also write the result to this file")
    p.set_defaults(func=cmd_extract)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except BudgetExceededError as exc:
        _emit({"command": args.command, "verdict": "unknown",
               "reason": "budget_exceeded", "nodes_explored": exc.nodes})
        code = EXIT_UNKNOWN
    except SizeCapError as exc:
        _emit({"command": args.command, "error": "size_cap",
               "message": str(exc)})
        code = EXIT_NEGATIVE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"qramsey {args.command}: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    wall_ms = int((time.monotonic() - start) * 1000)
    print(f"qramsey {args.command}: exit {code} in {wall_ms} ms "
          f"(workers={args.workers}, seed={args.seed})", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
