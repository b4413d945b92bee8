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
from collections import namedtuple

from .arrow import (ArrowInstance, arrow_holds, induced_host_verify,
                    min_arrow_N)
from .budget import Budget, BudgetExceededError
from .construction import (ExtractionFailure, HostSpec, auto_word_length,
                           build_base_host, build_product_host,
                           bundle_text, extract_monochromatic_copy,
                           host_from_text)
from .field import make_field
from .hales_jewett import hj_number
from .space import (SizeCapError, count_walk, guard_subspace_count,
                    json_expect, json_int, walk_texts)

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
    print(json.dumps(obj))
    if path:
        _write_json(path, obj)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")


def _budget(args) -> Budget:
    return Budget(max_nodes=args.budget_nodes, max_ms=args.budget_ms)


def _guarded_field(args):
    """The field, once the size guard has passed on the space's shape.

    The guard reads the shape alone, so a refused count builds nothing.
    """
    f = make_field(args.q)
    count = guard_subspace_count(f, args.mode, args.N, args.k)
    return f, count


def cmd_count(args) -> int:
    f, formula = _guarded_field(args)
    enumerated = count_walk(f, args.mode, args.N, args.k)
    obj = {
        "command": "count", "q": args.q, "mode": args.mode,
        "N": args.N, "k": args.k,
        "count_formula": formula, "count_enumerated": enumerated,
        "match": formula == enumerated,
    }
    _emit(obj, args.out)
    return EXIT_OK if obj["match"] else EXIT_NEGATIVE


def cmd_enumerate(args) -> int:
    f, _ = _guarded_field(args)
    lines = walk_texts(f, args.mode, args.N, args.k)
    text = "\n".join(lines)
    if lines:
        print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n" if lines else "")
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
        word_len = auto_word_length(len(base.covers), spec.num_colors,
                                    len(base.base_k_spaces), budget=bud)
        if word_len is None:
            _emit({"command": "construct", "verdict": "unknown",
                   "reason": "word length search found no bound in range"})
            return EXIT_UNKNOWN
    host = build_product_host(base, word_len)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(bundle_text(host))
    _emit({
        "command": "construct", "out": args.out, "word_len": word_len,
        "rank_block_space": base.space.rank, "rank_equalizer": host.space.rank,
        "num_targets": len(base.targets), "num_covers": len(base.covers),
        "num_cover_k_spaces": len(base.cover_k_spaces),
        "num_members": len(host.members),
    })
    return EXIT_OK


def _load_host(path: str):
    with open(path, encoding="utf-8") as fh:
        return host_from_text(fh.read())


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
    if "constant" in data and "entries" in data:
        raise ValueError("coloring file holds both a 'constant' and an "
                         "'entries' map; give one")
    if "constant" in data:
        color = json_int(data["constant"], "constant")
        # checked here, as the members' colors are checked by extraction,
        # which an empty family never reaches
        if not 0 <= color < host.spec.num_colors:
            raise ValueError("coloring uses a color outside the spec range")
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


# One command-line flag.  `build_parser` hands each field to argparse's
# add_argument; `read_argv` reads the same fields without argparse.
Option = namedtuple("Option", "flag type default required choices help "
                              "store_true",
                    defaults=(str, None, False, None, None, False))

_SPACE = (Option("--q", int, required=True, help="field order"),
          Option("--mode", choices=("vector", "affine"), required=True))
_RANKS = (Option("--N", int, required=True, help="ambient rank"),
          Option("--k", int, required=True, help="subspace rank"))
# every command's options after its --out
_COMMON = (
    Option("--seed", int, 0,
           help="seed echoed into the summary (reserved for sweeps)"),
    Option("--workers", int, 1,
           help="worker hint; results are deterministic regardless"),
    Option("--budget-nodes", int, 10 ** 7,
           help="search node cap (default 10^7)"),
    Option("--budget-ms", int, 60000,
           help="wall-clock safety cap in ms (default 60000)"),
)
_BUNDLE = Option("--bundle", required=True, help="host bundle JSON file")

# name -> (help line, options, handler), in the order usage lists them
COMMANDS = {
    "count": ("compare the counting formula with exhaustive enumeration",
              (*_SPACE, *_RANKS,
               Option("--out", help="also write the result line to this file"),
               *_COMMON),
              cmd_count),
    "enumerate": ("list rank-k subspaces, one JSON object per line",
                  (*_SPACE, *_RANKS,
                   Option("--out", help="also write the listing to this file"),
                   *_COMMON),
                  cmd_enumerate),
    "arrow": ("decide an arrow relation or scan for the minimal host rank",
              (*_SPACE,
               Option("--N", int, help="host rank (omit with --min-n)"),
               Option("--n", int, required=True, help="target rank"),
               Option("--k", int, required=True, help="colored rank"),
               Option("--r", int, required=True, help="number of colors"),
               Option("--min-n", default=False, store_true=True,
                      help="scan host ranks up to --nmax for the least "
                           "that holds"),
               Option("--nmax", int, 6,
                      help="largest host rank for --min-n (default 6)"),
               Option("--no-symmetry", default=False, store_true=True,
                      help="disable color and structural symmetry pruning"),
               Option("--out", help="write the witness coloring here on "
                                    "failure (with --min-n, the result line)"),
               *_COMMON),
              cmd_arrow),
    "hj": ("least word length forcing a monochromatic combinatorial line",
           (Option("--t", int, required=True, help="alphabet size"),
            Option("--l", int, required=True, help="number of colors"),
            Option("--nmax", int, required=True,
                   help="largest word length to try"),
            Option("--out", help="write the last line-free coloring here"),
            *_COMMON),
           cmd_hj),
    "construct": ("build a host bundle from a spec file",
                  (Option("--spec", required=True, help="host spec JSON file"),
                   Option("--out", required=True, help="bundle output file"),
                   *_COMMON),
                  cmd_construct),
    "verify": ("check the induced host property of a bundle",
               (_BUNDLE,
                Option("--r", int, help="number of colors "
                                        "(default: the bundle spec's)"),
                Option("--no-symmetry", default=False, store_true=True,
                       help="disable color-symmetry pruning"),
                Option("--out",
                       help="write the witness coloring here on failure"),
                *_COMMON),
               cmd_verify),
    "extract": ("extract a monochromatic copy from a bundle under a coloring",
                (_BUNDLE,
                 Option("--coloring", required=True,
                        help="coloring JSON file ('entries' map or "
                             "'constant')"),
                 Option("--out", help="also write the result to this file"),
                 *_COMMON),
                cmd_extract),
}


def build_parser(argv: list[str]) -> _Parser:
    """The argparse parser for argv, built from the option table.

    `main` builds it only for the command lines `read_argv` leaves to
    argparse: help, usage errors and the spellings the table reader does
    not take.  When argv[0] names a command, only that command's
    subparser is built, and the usage line still lists every command
    through the metavar.  Any other argv (-h, none, an unknown word)
    builds every subparser, for the full help and the invalid-choice
    error.
    """
    parser = _Parser(prog="qramsey",
                     description="Coloring searches and host constructions "
                                 "for spaces over small finite fields")
    named = argv[0] if argv and argv[0] in COMMANDS else None
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        metavar="{" + ",".join(COMMANDS) + "}" if named else None)
    for name in [named] if named else COMMANDS:
        help_line, options, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for o in options:
            if o.store_true:
                p.add_argument(o.flag, action="store_true", help=o.help)
            else:
                p.add_argument(o.flag, type=o.type, default=o.default,
                               required=o.required, choices=o.choices,
                               help=o.help)
        p.set_defaults(func=handler)
    return parser


def read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse would return for argv, read off the table.

    It reads argv only when argv[0] names a command and the rest is that
    command's exact long flags, each at most once; each valued flag is
    followed by a token that does not start with "-", converts with the
    flag's type and lies in its choices; and every required flag is
    present.  Any other argv gives None, for argparse to read.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, options, handler = COMMANDS[argv[0]]
    flags = {o.flag: o for o in options}
    values = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        o = flags.get(flag)
        if o is None or flag in values:
            return None
        if o.store_true:
            values[flag] = True
            continue
        token = next(tokens, None)
        if token is None or token.startswith("-"):
            return None
        try:
            value = o.type(token)
        except ValueError:
            return None
        if o.choices is not None and value not in o.choices:
            return None
        values[flag] = value
    if any(o.required and o.flag not in values for o in options):
        return None
    # argparse stores "--budget-nodes" as budget_nodes
    return argparse.Namespace(
        command=argv[0], func=handler,
        **{o.flag[2:].replace("-", "_"): values.get(o.flag, o.default)
           for o in options})


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    A command line `read_argv` takes builds no argparse parser; any
    other goes to `build_parser(argv).parse_args(argv)`, which prints
    help or a usage error and exits as argparse does.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv)
    if args is None:
        args = build_parser(argv).parse_args(argv)
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
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"qramsey {args.command}: {message}", file=sys.stderr)
        code = EXIT_USAGE
    wall_ms = int((time.monotonic() - start) * 1000)
    print(f"qramsey {args.command}: exit {code} in {wall_ms} ms "
          f"(workers={args.workers}, seed={args.seed})", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
