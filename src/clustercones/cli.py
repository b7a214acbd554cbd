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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cached_property

from .cones import (
    Certificate,
    NotFullRankError,
    build_u_matrix,
    membership,
    subset_cone,
    subtraction_free_check,
    verify_certificate,
)
from .expressions import RatioSyntaxError, parse_ratio, render_ratio
from .finite_type import (
    BeltError,
    BipartiteBelt,
    DynkinType,
    NotFiniteTypeError,
    catalog_exchange,
    find_bipartite_seed_path,
    is_bipartite_orientation,
)
from .grassmannian import (
    GrassmannianCluster,
    RatioTableError,
    UnboundedRatioError,
    check_ray_table,
    load_ray_table,
    packaged_table,
    verify_gr48_table,
)
from .laurent import LaurentPolynomial, pack_exponents
from .seeds import ExchangeData, dump_seed_data, load_seed_file
from .uvars import DegenerationRay, build_u_variables, verify_u_equations

U_EQUATION_TYPES = ("A1", "A2", "A3", "C2", "D4")


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
    try:
        exchange = load_seed_file(_object(data, "seed description"))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"bad seed description: {exc}") from exc
    try:
        if not is_bipartite_orientation(exchange.mutable_matrix(), exchange.n):
            path = find_bipartite_seed_path(exchange)
            names = list(exchange.names)
            for k in path:
                exchange = exchange.mutate(k)
                names[k] += "'"
            exchange = ExchangeData(
                exchange.n, exchange.m, exchange.matrix, exchange.weights, names
            )
        belt = BipartiteBelt(exchange)
    except (NotFiniteTypeError, BeltError, OverflowError) as exc:
        raise UsageError(str(exc)) from exc
    key = {"kind": "seed", "seed": dump_seed_data(exchange)}
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
    try:
        with open(args.seed_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.seed_file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.seed_file} is not JSON: {exc}") from exc
    return _seed_context(data, os.path.basename(args.seed_file))


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

def _poly_fraction_text(poly: LaurentPolynomial, names: list[str]) -> str:
    """Clear denominators and print as a reduced fraction.

    The numerator is poly times the monomial of the shift, which adds one
    packed offset to every key."""
    mins = poly.min_exponents()
    shift = [-m if m < 0 else 0 for m in mins]
    offset = pack_exponents(shift) - pack_exponents([0] * poly.nvars)
    num = LaurentPolynomial(poly.nvars, {key + offset: c for key, c in poly._terms.items()})
    num_text = num.serialize(names)
    den_factors = [(names[i], s) for i, s in enumerate(shift) if s]
    if not den_factors:
        return num_text
    if num.n_terms > 1:
        num_text = f"({num_text})"
    den = "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in den_factors)
    if len(den_factors) > 1:
        den = f"({den})"
    return f"{num_text}/{den}"


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


# enumerate

def cmd_enumerate(args) -> int:
    ctx = _context_from_args(args)
    belt = ctx.belt
    size = belt.exchange.size
    initial_names = [belt.name(i) for i in range(size)]
    variables = []
    for id in belt.row_order:
        entry = belt.entries[id]
        row = {"name": belt.name(id), "frozen": entry.frozen}
        if not entry.frozen:
            row["dvector"] = list(belt.dvector(id))
            root = belt.root_label(id)
            if root != row["name"]:
                row["root"] = root
        if belt.symbolic:
            row["expansion"] = _poly_fraction_text(belt.poly(id), initial_names)
        if ctx.grass is not None:
            row["degree"] = ctx.grass.degree[id]
        variables.append(row)
    payload = {
        "command": "enumerate",
        "context": ctx.label,
        "type": f"{belt.dynkin.family}{belt.dynkin.rank}",
        "period": belt.period,
        "seeds": belt.seed_count,
        "legend": ctx.legend(),
        "steps": [
            {"sources": [belt.name(st.cluster_ids[k]) for k in st.sources]}
            for st in belt.steps
        ],
        "variables": variables,
    }
    _emit(args, payload, _text_enumerate)
    return 0


def _text_enumerate(payload):
    mutable = [v for v in payload["variables"] if not v["frozen"]]
    frozen = [v for v in payload["variables"] if v["frozen"]]
    yield (
        f"{payload['context']} (type {payload['type']}): "
        f"belt period {payload['period']}, {payload['seeds']} seeds, "
        f"{len(mutable)} cluster variables + {len(frozen)} frozen"
    )
    width = max(len(v["name"]) for v in payload["variables"])
    for v in payload["variables"]:
        line = f"  {v['name']:<{width}}"
        if "expansion" in v:
            line += f" = {v['expansion']}"
        elif "dvector" in v:
            line += f"  d-vector {tuple(v['dvector'])}"
        if v["frozen"]:
            line += "  (frozen)"
        elif "root" in v:
            line += f"  [{v['root']}]"
        yield line


# uvars

def cmd_uvars(args) -> int:
    ctx = _context_from_args(args)
    belt = ctx.belt
    rows = []
    for u in ctx.uvars:
        rows.append(
            {
                "gamma": belt.name(u.gamma),
                "expression": render_ratio(
                    {belt.name(id): e for id, e in u.vector.items()}
                ),
                "ratio": {
                    belt.name(id): e for id, e in sorted(u.vector.items())
                },
            }
        )
    payload = {
        "command": "uvars",
        "context": ctx.label,
        "legend": ctx.legend(),
        "uvars": rows,
    }
    _emit(args, payload, _text_uvars)
    return 0


def _text_uvars(payload):
    yield f"{payload['context']}: {len(payload['uvars'])} u-variables"
    for row in payload["uvars"]:
        yield f"  v({row['gamma']}) = {row['expression']}"


# check

def cmd_check(args) -> int:
    ctx = _context_from_args(args)
    belt = ctx.belt
    vector = parse_ratio(args.ratio, belt.id_by_name)
    U = ctx.U
    cert = membership(vector, U)
    payload = {
        "command": "check",
        "context": ctx.label,
        "expression": render_ratio(vector, belt.name),
        "legend": ctx.legend(),
        "certificate": cert.to_dict(U),
    }
    if cert.bounded:
        # non-integral lam needs symbolic expansions; large belts run
        # tropical and skip the report
        try:
            report = subtraction_free_check(cert, U)
        except BeltError:
            report = None
        if report is not None:
            payload["subtraction_free"] = report.to_dict(belt)
    if args.certificate_out:
        record = {"context": ctx.key, "certificate": cert.to_dict(U)}
        try:
            with open(args.certificate_out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise UsageError(
                f"cannot write {args.certificate_out}: {exc}"
            ) from exc
        payload["certificate_path"] = args.certificate_out
    _emit(args, payload, _text_check)
    return 0 if cert.bounded else 1


def _text_check(payload):
    cert = payload["certificate"]
    yield f"ratio: {payload['expression']}"
    yield f"verdict: {cert['verdict']}"
    if cert["verdict"] == "not-weight-zero":
        alpha = ", ".join(cert["alpha"])
        yield (
            f"obstruction: weight functional alpha = ({alpha}) "
            f"gives weight {cert['weight']}, not 0"
        )
    if "lambda" in cert:
        yield f"lambda: {_lambda_text(cert['lambda'])}"
        if cert["verdict"] == "bounded":
            yield f"integral: {'yes' if cert['integral'] else 'no'}"
    if "ray" in cert:
        ray = cert["ray"]
        beta = ", ".join(str(b) for b in ray["beta"])
        yield (
            f"degeneration: v({ray['gamma']}) -> 0 along "
            f"x_j = t^beta_j at step {ray['step']} with beta = ({beta})"
        )
        yield f"ratio ~ t^{ray['valuation']} -> infinity as t -> 0"
    if "subtraction_free" in payload:
        report = payload["subtraction_free"]
        verdict = report["subtraction_free"]
        if verdict is True:
            # a chain's factors are lam's entries, each to its power
            chain = sum(int(l) for l in cert["lambda"].values())
            yield f"subtraction-free: yes (telescoping chain of {chain} u-factors)"
        elif verdict is False:
            yield (
                "subtraction-free: no (gap expansion has "
                f"{report['positive_terms']} positive and "
                f"{report['negative_terms']} negative terms)"
            )
        else:
            yield "subtraction-free: inconclusive"
    if "certificate_path" in payload:
        yield f"certificate written to {payload['certificate_path']}"


# cone

def cmd_cone(args) -> int:
    ctx = _context_from_args(args)
    subset_name = args.subset
    if subset_name != "all" and ctx.grass is None:
        raise UsageError(f"--subset {subset_name} needs a --gr context")
    if ctx.grass is not None:
        grass = ctx.grass
        cone = {
            "pluecker": grass.pluecker_cone,
            "deg2": lambda: grass.degree_filtered_cone(2),
            "all": grass.full_cone,
        }[subset_name]()
    else:
        cone = subset_cone(ctx.belt.row_order, ctx.U)
    payload = {
        "command": "cone",
        "context": ctx.label,
        "subset_name": subset_name,
        "legend": ctx.legend(),
        "count": len(cone),
    }
    payload.update(cone.to_dict())
    for ray in payload["rays"]:
        ray["expression"] = render_ratio(ray["ratio"])
    if ctx.grass is not None:
        payload["orbits"] = ctx.grass.ray_orbits(cone)
    _emit(args, payload, _text_cone)
    return 0


def _text_cone(payload):
    yield (
        f"{payload['context']} subset {payload['subset_name']}: "
        f"{payload['count']} extreme rays on {len(payload['subset'])} variables"
    )
    for pos, ray in enumerate(payload["rays"], start=1):
        yield f"  {pos:>3}) {ray['expression']}"
        yield f"       = {_lambda_text(ray['lambda'])}"
    if "orbits" in payload:
        sizes = [len(orbit) for orbit in payload["orbits"]]
        yield f"rotation orbits: {len(sizes)} of sizes {sizes}"


# factor

def cmd_factor(args) -> int:
    ctx = _context_from_args(args)
    if ctx.grass is None:
        raise UsageError("factor needs a --gr context")
    grass = ctx.grass
    vector = parse_ratio(args.ratio, ctx.belt.id_by_name)
    payload = {
        "command": "factor",
        "context": ctx.label,
        "expression": render_ratio(vector, grass.name),
        "legend": ctx.legend(),
    }
    try:
        factors = grass.factor_into_primitives(vector)
    except UnboundedRatioError as exc:
        payload["factors"] = None
        payload["reason"] = str(exc)
        _emit(args, payload, _text_factor)
        return 1
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload["factors"] = [
        {
            "crossing": [f.i, f.j],
            "extra": list(f.extra),
            "expression": render_ratio(
                {grass.name(id): e for id, e in f.vector.items()}
            ),
        }
        for f in factors
    ]
    _emit(args, payload, _text_factor)
    return 0


def _text_factor(payload):
    yield f"ratio: {payload['expression']}"
    if payload["factors"] is None:
        yield f"not factorable: {payload['reason']}"
        return
    yield f"primitive factors: {len(payload['factors'])}"
    for f in payload["factors"]:
        i, j = f["crossing"]
        extra = ", ".join(str(c) for c in f["extra"])
        tail = f"  crossing ({i},{j})"
        if extra:
            tail += f", S = {{{extra}}}"
        yield f"  {f['expression']}{tail}"


# verify

def _certificate_from_dict(data: dict, ctx: Context) -> Certificate:
    """The certificate a file records; TypeError, KeyError, ValueError,
    ZeroDivisionError and OverflowError mean the record is malformed."""
    belt = ctx.belt

    def rid(name: str) -> int:
        id = belt.id_by_name(name)
        if id is None:
            raise UsageError(f"certificate names unknown variable {name!r}")
        return id

    def by_id(field: str) -> dict:
        """The object data[field] keyed by the ids its names resolve to. A
        variable named twice (by its name and its root label, say) is
        refused: one of its two entries would be dropped unread."""
        out = {}
        for name, value in _object(data[field], field).items():
            id = rid(name)
            if id in out:
                raise UsageError(
                    f"certificate {field} names variable {belt.name(id)!r} twice")
            out[id] = value
        return out

    _object(data, "certificate")
    verdict = data["verdict"]
    if verdict not in ("bounded", "unbounded", "not-weight-zero"):
        raise ValueError('"verdict" must be "bounded", "unbounded" or '
                         f'"not-weight-zero", got {json.dumps(verdict)}')
    vector = by_id("ratio")
    lam = None
    if "lambda" in data:
        entries = by_id("lambda")
        lam = tuple(_exact(entries.pop(u.gamma, 0), '"lambda" entry')
                    for u in ctx.U.uvars)
        if entries:
            name = belt.name(next(iter(entries)))
            raise UsageError(
                f"certificate lambda names {name!r}, which has no u-variable")
    alpha = weight = None
    if "alpha" in data:
        if not isinstance(data["alpha"], list):
            raise TypeError('"alpha" must be a list')
        alpha = [_exact(a, '"alpha" entry') for a in data["alpha"]]
    if "weight" in data:
        weight = _exact(data["weight"], '"weight"')
    ray = None
    if "ray" in data:
        rd = _object(data["ray"], "ray")
        # like the ratio's exponents, step, beta and valuation are passed
        # on as read: the replay rejects anything but integers
        ray = DegenerationRay(rid(rd["gamma"]), rd["step"], rd["beta"],
                              rd["valuation"])
    return Certificate(vector, verdict, lam=lam, alpha=alpha, weight=weight,
                       ray=ray)


def _verify_certificate(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.certificate}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.certificate} is not JSON: {exc}") from exc
    try:
        data = _object(data, "certificate file")
        key, record = data["context"], data["certificate"]
        ctx = _context_from_key(key)
        cert = _certificate_from_dict(record, ctx)
    except (KeyError, ValueError, TypeError, ZeroDivisionError,
            OverflowError) as exc:
        raise UsageError(
            f"malformed certificate ({type(exc).__name__}: {exc})"
        ) from exc
    ok = verify_certificate(ctx.U, cert)
    payload = {
        "command": "verify",
        "context": ctx.label,
        "verdict": cert.verdict,
        "replayed": ok,
    }
    _emit(args, payload, _text_verify_certificate)
    return 0 if ok else 1


def _text_verify_certificate(payload):
    yield f"context: {payload['context']}"
    yield f"verdict: {payload['verdict']}"
    yield f"replay: {'ok' if payload['replayed'] else 'FAILED'}"


def _suite_u_equations(args) -> int:
    rows = {}
    ok = True
    for type_name in U_EQUATION_TYPES:
        belt = BipartiteBelt(catalog_exchange(DynkinType.from_name(type_name)))
        results = verify_u_equations(belt)
        good = all(results.values())
        rows[type_name] = {"identities": len(results), "ok": good}
        ok = ok and good
    payload = {"command": "verify", "suite": "u-equations",
               "types": rows, "ok": ok}
    _emit(args, payload, _text_suite_u_equations)
    return 0 if ok else 1


def _text_suite_u_equations(payload):
    for type_name, row in payload["types"].items():
        state = "hold" if row["ok"] else "FAIL"
        yield f"  {type_name}: {row['identities']} u-equations {state}"
    yield "all identities hold" if payload["ok"] else "some identities FAILED"


def _suite_gr48(args) -> int:
    points = args.samples if args.samples is not None else 1000
    if points < 1:
        raise UsageError(f"--samples must be at least 1, got {points}")
    seed = args.sample_seed if args.sample_seed is not None else 97
    report = verify_gr48_table(points=points, seed=seed)
    payload = {"command": "verify", "suite": "gr48", "seed": seed}
    payload.update(report.to_dict())
    payload["ok"] = report.ok and report.strictly_below_one
    _emit(args, payload, _text_suite_gr48)
    return 0 if payload["ok"] else 1


def _text_suite_gr48(payload):
    points = payload["points"]
    yield (
        f"{payload['ratios']} stored ratios, {payload['images']} symmetry "
        f"images, sampled at {points} totally positive "
        f"point{'' if points == 1 else 's'}"
    )
    yield (
        f"weight zero: {payload['weight_zero']}, "
        f"all bounded: {payload['all_bounded']}"
    )
    yield (
        f"max value {payload['max_value']} "
        f"({'strictly below 1' if payload['strictly_below_one'] else 'NOT below 1'})"
    )


def _suite_appendix(args) -> int:
    grass = GrassmannianCluster(3, 8)
    table = load_ray_table(packaged_table("gr38_appendix.txt"))
    sections = {}
    ok = True
    for section, cone in (
        ("pluecker", grass.pluecker_cone()),
        ("degree2", grass.degree_filtered_cone(2)),
    ):
        rows = table[section]
        entry = {"rows": len(rows)}
        try:
            assignment, ray_indices = check_ray_table(grass, rows, cone)
        except RatioTableError as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
            ok = False
            sections[section] = entry
            continue
        orbits = grass.ray_orbits(cone)
        owner = {}
        for pos, orbit in enumerate(orbits):
            for ray in orbit:
                owner[ray] = pos
        entry["ok"] = True
        entry["orbits"] = len(orbits)
        entry["orbits_hit"] = len({owner[r] for r in ray_indices})
        entry["names"] = {
            payload_key: grass.name(id)
            for payload_key, id in sorted(assignment.items())
        }
        sections[section] = entry
    payload = {"command": "verify", "suite": "appendix",
               "sections": sections, "ok": ok}
    _emit(args, payload, _text_suite_appendix)
    return 0 if ok else 1


def _text_suite_appendix(payload):
    for section, entry in payload["sections"].items():
        if not entry["ok"]:
            yield f"  {section}: FAILED ({entry['error']})"
            continue
        yield (
            f"  {section}: {entry['rows']} rows hold, hitting "
            f"{entry['orbits_hit']} of {entry['orbits']} ray orbits"
        )
    yield "tables verified" if payload["ok"] else "tables FAILED"


def cmd_verify(args) -> int:
    if bool(args.suite) == bool(args.certificate):
        raise UsageError("pick exactly one of --suite, --certificate")
    for flag, value in (("--samples", args.samples), ("--sample-seed", args.sample_seed)):
        if value is not None and args.suite != "gr48":
            raise UsageError(f"{flag} only applies to --suite gr48")
    if args.certificate:
        return _verify_certificate(args)
    runner = {
        "u-equations": _suite_u_equations,
        "gr48": _suite_gr48,
        "appendix": _suite_appendix,
    }[args.suite]
    return runner(args)


# entry point

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
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "uvars", parents=[context, output],
        help="print the u-variable ratio attached to each variable",
    )
    p.set_defaults(func=cmd_uvars)

    p = sub.add_parser(
        "check", parents=[context, output],
        help="decide boundedness of a ratio, with certificate",
    )
    p.add_argument("--ratio", required=True, help="ratio expression")
    p.add_argument(
        "--certificate-out", metavar="PATH",
        help="write a replayable certificate file",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "cone", parents=[context, output],
        help="extreme rays of the bounded cone on a variable subset",
    )
    p.add_argument(
        "--subset", choices=("pluecker", "deg2", "all"), default="all",
        help="variable subset; pluecker and deg2 need --gr",
    )
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser(
        "factor", parents=[context, output],
        help="factor a Grassmannian ratio into primitive ratios",
    )
    p.add_argument("--ratio", required=True, help="ratio expression")
    p.set_defaults(func=cmd_factor)

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
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RatioSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(exc.annotate(), file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotFiniteTypeError, NotFullRankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
