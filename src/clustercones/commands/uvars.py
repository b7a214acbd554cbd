"""`uvars`: print the u-variable ratio attached to each variable."""

from __future__ import annotations

from ..context import _context_from_args, _emit
from ..expressions import render_ratio


def run(args) -> int:
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
