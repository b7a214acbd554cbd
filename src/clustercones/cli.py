"""Command-line surface over the bounded-ratio machinery.

Six subcommands share one notion of context, the cluster structure to
work in, chosen by --type NAME (catalog seed, optionally with frozen
attachments), --gr K N (Grassmannian minors), or --seed-file PATH:

    enumerate   walk the belt and list every cluster variable
    uvars       print the u-variable ratio attached to each variable
    check       decide boundedness of a ratio, with certificate
    cone        extreme rays of the bounded cone on a variable subset
    factor      factor a Grassmannian ratio into primitive ratios
    verify      replay a certificate file or run a golden suite

Exit codes: 0 success, 1 mathematical negative (unbounded ratio, failed
suite, failed replay), 2 usage error. Output is text on a terminal and
JSON otherwise; --format overrides. JSON payloads carry a legend naming
every variable so ratio vectors are self-describing.

Layout. This module holds only the parser and `main`. Each subcommand is
a module of `commands` (`commands.check`, ...) with `run(args) -> int`,
which `main` imports when it dispatches, so a run compiles the one
command it runs; the Grassmannian modules load only on Grassmannian
paths. The plumbing the commands share (`UsageError`, `Context` and its
builders, the JSON readers, `_emit`) lives in `context`. It must not
live here: `python -m clustercones.cli` executes this file as
`__main__`, so a command module that imported from `clustercones.cli`
would load this file a second time, with a second `UsageError` class
that `main` does not catch, and a usage error would end in a traceback
in place of exit code 2.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .cones import NotFullRankError
from .context import UsageError
from .expressions import RatioSyntaxError
from .finite_type import NotFiniteTypeError


def _build_parser() -> argparse.ArgumentParser:
    context = argparse.ArgumentParser(add_help=False)
    context.add_argument(
        "--type", metavar="NAME",
        help="catalog Dynkin type, like A3 or C2",
    )
    context.add_argument(
        "--frozen", type=int, default=0, metavar="N",
        help="number of frozen attachments for --type seeds",
    )
    context.add_argument(
        "--gr", nargs=2, type=int, metavar=("K", "N"),
        help="Grassmannian cluster structure on k x n column minors",
    )
    context.add_argument(
        "--seed-file", metavar="PATH",
        help="JSON seed description (nodes and arrows)",
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("text", "json"),
        help="output format; default is text on a terminal, json otherwise",
    )

    parser = argparse.ArgumentParser(
        prog="clustercones",
        description="bounded Laurent monomials in cluster variables",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "enumerate", parents=[context, output],
        help="walk the belt and list every cluster variable",
    )

    p = sub.add_parser(
        "uvars", parents=[context, output],
        help="print the u-variable ratio attached to each variable",
    )

    p = sub.add_parser(
        "check", parents=[context, output],
        help="decide boundedness of a ratio, with certificate",
    )
    p.add_argument("--ratio", required=True, help="ratio expression")
    p.add_argument(
        "--certificate-out", metavar="PATH",
        help="write a replayable certificate file",
    )

    p = sub.add_parser(
        "cone", parents=[context, output],
        help="extreme rays of the bounded cone on a variable subset",
    )
    p.add_argument(
        "--subset", choices=("pluecker", "deg2", "all"), default="all",
        help="variable subset; pluecker and deg2 need --gr",
    )

    p = sub.add_parser(
        "factor", parents=[context, output],
        help="factor a Grassmannian ratio into primitive ratios",
    )
    p.add_argument("--ratio", required=True, help="ratio expression")

    p = sub.add_parser(
        "verify", parents=[output],
        help="replay a certificate file or run a golden suite",
    )
    p.add_argument(
        "--suite", choices=("gr48", "u-equations", "appendix"),
        help="named golden suite",
    )
    p.add_argument(
        "--certificate", metavar="PATH",
        help="certificate file written by check --certificate-out",
    )
    p.add_argument(
        "--samples", type=int, help="sample point count for gr48",
    )
    p.add_argument(
        "--sample-seed", type=int, help="sampling seed for gr48",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = importlib.import_module(f".commands.{args.subcommand}", __package__)
    try:
        return command.run(args)
    except RatioSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.annotate(), file=sys.stderr)
        return 2
    except (UsageError, NotFiniteTypeError, NotFullRankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
