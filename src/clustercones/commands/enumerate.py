"""`enumerate`: walk the belt and list every cluster variable.

A catalog or seed-file context prints each variable's expansion in the
initial cluster as one reduced fraction: the numerator is the expansion
times the monomial that clears its denominators, and the denominator is
that monomial. Both come from `laurent.render` over factor tables built
once per command from the initial names, so a term costs one packed
shift, one unpacking and table lookups. Grassmannian contexts list
degrees in place of expansions.
"""

from __future__ import annotations

from ..context import _context_from_args, _emit
from ..laurent import LaurentPolynomial, factor_texts, render


def _poly_fraction_text(poly: LaurentPolynomial, factors) -> str:
    """poly as a reduced fraction over the names of the tables factors:
    the numerator is poly times the monomial of the shift."""
    shift = [-m if m < 0 else 0 for m in poly.min_exponents()]
    num_text = render(poly, factors, shift)
    den_factors = [factors[i].power(s) for i, s in enumerate(shift) if s]
    if not den_factors:
        return num_text
    if poly.n_terms > 1:
        num_text = f"({num_text})"
    den = "*".join(den_factors)
    if len(den_factors) > 1:
        den = f"({den})"
    return f"{num_text}/{den}"


def run(args) -> int:
    ctx = _context_from_args(args)
    belt = ctx.belt
    factors = factor_texts([belt.name(i) for i in range(belt.exchange.size)])
    # Grassmannian contexts list degrees in place of expansions
    expansions = ctx.grass is None and belt.offers_expansions
    variables = []
    for id in belt.row_order:
        entry = belt.entries[id]
        row = {"name": belt.name(id), "frozen": entry.frozen}
        if not entry.frozen:
            row["dvector"] = list(belt.dvector(id))
            root = belt.root_label(id)
            if root != row["name"]:
                row["root"] = root
        if expansions:
            row["expansion"] = _poly_fraction_text(belt.poly(id), factors)
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
