"""`verify`: replay a certificate file or run a golden suite."""

from __future__ import annotations

import json

from ..cones import Certificate, verify_certificate
from ..context import (
    Context,
    UsageError,
    _context_from_key,
    _emit,
    _exact,
    _object,
    _read_json,
)
from ..finite_type import BipartiteBelt, DynkinType, catalog_exchange
from ..uvars import DegenerationRay, verify_u_equations

U_EQUATION_TYPES = ("A1", "A2", "A3", "C2", "D4")


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
    powers = None
    if "lambda" in data:
        column = {u.gamma: j for j, u in enumerate(ctx.U.uvars)}
        entries = by_id("lambda")
        pairs = sorted((column[id], e) for id, e in entries.items() if id in column)
        powers = tuple((j, l) for j, e in pairs if (l := _exact(e, '"lambda" entry')))
        stray = next((id for id in entries if id not in column), None)
        if stray is not None:
            raise UsageError(f"certificate lambda names {belt.name(stray)!r}, "
                             "which has no u-variable")
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
    return Certificate(vector, verdict, powers=powers, alpha=alpha,
                       weight=weight, ray=ray)


def _verify_certificate(args) -> int:
    data = _read_json(args.certificate)
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
    from ..grassmannian import verify_gr48_table

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
    from ..grassmannian import (
        GrassmannianCluster,
        RatioTableError,
        check_ray_table,
        load_ray_table,
        packaged_table,
    )

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


def run(args) -> int:
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
