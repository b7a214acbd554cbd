"""What every subcommand shares: the usage error, the context a command
works in and its builders, the readers of JSON input, and the output.

`cli` imports this module for `UsageError`, and each module of
`commands` imports it for the rest. A Grassmannian context imports
`grassmannian` when it is built, so a catalog or seed-file run never
compiles it.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import cached_property

from .cones import NotFullRankError, build_u_matrix
from .finite_type import (
    BeltError,
    BipartiteBelt,
    DynkinType,
    NotFiniteTypeError,
    catalog_exchange,
)
from .seeds import dump_seed_data, load_seed_file
from .uvars import build_u_variables


class UsageError(Exception):
    """Bad flags or unresolvable input; exits with code 2."""


class Context:
    """A cluster structure plus lazily built u-data for the commands."""

    def __init__(self, label, belt, key, grass=None):
        self.label = label
        self.belt = belt
        self.key = key
        self.grass = grass

    @cached_property
    def uvars(self):
        if self.grass is not None:
            return self.grass.uvars
        return build_u_variables(self.belt)

    @cached_property
    def U(self):
        if self.grass is not None:
            return self.grass.U
        try:
            return build_u_matrix(self.belt, self.uvars)
        except NotFullRankError as exc:
            raise UsageError(
                f"{exc}; attach frozen variables (--frozen) to make "
                "the extended matrix full rank"
            ) from exc

    def legend(self) -> dict:
        belt = self.belt
        return {
            "mutable": [belt.name(id) for id in belt.mutable_ids],
            "frozen": [belt.name(id) for id in belt.frozen_ids],
        }


def _catalog_context(type_name: str, frozen: int) -> Context:
    if not isinstance(type_name, str):
        raise TypeError(f"catalog type {type_name!r} is not a string")
    try:
        dynkin = DynkinType.from_name(type_name)
        exchange = catalog_exchange(dynkin, frozen)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    belt = BipartiteBelt(exchange)
    # sequential aliases over the belt's discovery order, so x4, x5, ...
    # name the non-initial variables; root labels stay available
    belt.rename({id: f"x{i + 1}" for i, id in enumerate(belt.mutable_ids)}
                | {id: f"f{j + 1}" for j, id in enumerate(belt.frozen_ids)})
    label = f"{dynkin.family}{dynkin.rank}"
    if frozen:
        label += f" with {frozen} frozen"
    key = {"kind": "catalog", "type": f"{dynkin.family}{dynkin.rank}",
           "frozen": frozen}
    return Context(label, belt, key)


def _grassmannian_context(k: int, n: int) -> Context:
    from .grassmannian import GrassmannianCluster

    try:
        grass = GrassmannianCluster(k, n)
    except (ValueError, NotFiniteTypeError) as exc:
        raise UsageError(str(exc)) from exc
    key = {"kind": "grassmannian", "k": k, "n": n}
    return Context(f"Gr({k},{n})", grass.belt, key, grass=grass)


def _object(value, what: str) -> dict:
    """value itself if it is a JSON object; TypeError otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} is a {type(value).__name__}, not an object")
    return value


def _seed_context(data: dict, label: str) -> Context:
    """The context of a seed description. The belt re-bases a seed that is
    not bipartite (priming each mutated node's name), and the context key
    holds the base seed it starts from, which certificates replay."""
    try:
        exchange = load_seed_file(_object(data, "seed description"))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad seed description: {exc}") from exc
    try:
        belt = BipartiteBelt(exchange)
    except (NotFiniteTypeError, BeltError, OverflowError) as exc:
        raise UsageError(str(exc)) from exc
    key = {"kind": "seed", "seed": dump_seed_data(belt.exchange)}
    return Context(label, belt, key)


def _context_from_args(args) -> Context:
    picked = [
        flag
        for flag, value in (
            ("--type", args.type),
            ("--gr", args.gr),
            ("--seed-file", args.seed_file),
        )
        if value
    ]
    if len(picked) != 1:
        raise UsageError("pick exactly one of --type, --gr, --seed-file")
    if args.type:
        return _catalog_context(args.type, args.frozen)
    if args.frozen:
        raise UsageError("--frozen only applies to --type contexts")
    if args.gr:
        k, n = args.gr
        return _grassmannian_context(k, n)
    return _seed_context(_read_json(args.seed_file), os.path.basename(args.seed_file))


def _read_json(path: str):
    """The JSON value in the file at path; UsageError if it cannot be
    read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not JSON: {exc}") from exc


def _int(value, what: str) -> int:
    """value itself if it is a JSON integer; TypeError naming what
    otherwise (int() would truncate 1.9, true and "1" to 1)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _exact(value, what: str) -> Fraction:
    """Fraction(value) for a JSON integer or string such as "-1/2";
    TypeError naming what for anything else (Fraction() reads true as 1
    and a float as its binary value)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(
            f"{what} must be an integer or a string, got {json.dumps(value)}")
    return Fraction(value)


def _context_from_key(key: dict) -> Context:
    """The context a certificate names; TypeError, KeyError and
    ValueError mean the key is malformed."""
    kind = _object(key, "context").get("kind")
    if kind == "catalog":
        return _catalog_context(key["type"], _int(key.get("frozen", 0), '"frozen"'))
    if kind == "grassmannian":
        return _grassmannian_context(_int(key["k"], '"k"'), _int(key["n"], '"n"'))
    if kind == "seed":
        return _seed_context(_object(key["seed"], "seed"), "seed file")
    raise UsageError(f"certificate names unknown context kind {kind!r}")


# rendering helpers

def _lambda_text(lam: dict[str, str]) -> str:
    terms = []
    for name in sorted(lam):
        coeff = lam[name]
        terms.append(f"v({name})" if coeff == "1" else f"{coeff} v({name})")
    return " + ".join(terms) if terms else "0"


def _emit(args, payload: dict, text_renderer) -> None:
    fmt = args.format or ("text" if sys.stdout.isatty() else "json")
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_renderer(payload):
            print(line)
