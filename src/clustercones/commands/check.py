"""`check`: decide boundedness of a ratio, with certificate."""

from __future__ import annotations

import json

from ..cones import membership, subtraction_free_check
from ..context import UsageError, _context_from_args, _emit, _lambda_text
from ..expressions import parse_ratio, render_ratio
from ..finite_type import BeltError


def run(args) -> int:
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
        # non-integral lam needs Laurent expansions; belts that do not
        # offer them skip the report
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
        elif report["kind"] == "undecided":
            yield f"subtraction-free: undecided ({report['reason']})"
        else:
            yield "subtraction-free: inconclusive"
    if "certificate_path" in payload:
        yield f"certificate written to {payload['certificate_path']}"
