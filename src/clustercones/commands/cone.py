"""`cone`: extreme rays of the bounded cone on a variable subset."""

from __future__ import annotations

from ..cones import subset_cone
from ..context import UsageError, _context_from_args, _emit, _lambda_text
from ..expressions import render_ratio


def run(args) -> int:
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
