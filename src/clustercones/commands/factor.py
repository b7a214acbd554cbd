"""`factor`: factor a Grassmannian ratio into primitive ratios."""

from __future__ import annotations

from ..context import UsageError, _context_from_args, _emit
from ..expressions import parse_ratio, render_ratio


def run(args) -> int:
    ctx = _context_from_args(args)
    if ctx.grass is None:
        raise UsageError("factor needs a --gr context")
    from ..grassmannian import UnboundedRatioError

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
            "multiplicity": m,
        }
        for f, m in factors
    ]
    _emit(args, payload, _text_factor)
    return 0


def _text_factor(payload):
    yield f"ratio: {payload['expression']}"
    if payload["factors"] is None:
        yield f"not factorable: {payload['reason']}"
        return
    yield f"primitive factors: {sum(f['multiplicity'] for f in payload['factors'])}"
    for f in payload["factors"]:
        i, j = f["crossing"]
        extra = ", ".join(str(c) for c in f["extra"])
        tail = f"  crossing ({i},{j})"
        if extra:
            tail += f", S = {{{extra}}}"
        yield f"  {f['expression']}{tail}, multiplicity {f['multiplicity']}"
