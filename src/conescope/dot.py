"""Graphviz DOT export of a Cayley ball with sign and component attributes."""

from __future__ import annotations

from .geometry import r_components
from .orders import OrderOracle, Sign

_SIGN_ATTR = {Sign.POSITIVE: "pos", Sign.NEGATIVE: "neg", Sign.IDENTITY: "id"}


def export_dot(oracle: OrderOracle, r: int, radius: int,
               cap: int | None = None, traversal: str = "forward") -> str:
    """One node per ball element (shortlex order), one edge per adjacency.

    Node attributes: label (canonical word), sign in {pos, neg, id}, comp
    (component index at width r for positives, -1 otherwise).
    """
    model = oracle.model
    ball = model.ball(radius, cap=cap, traversal=traversal)
    comp_index = {}
    if radius >= 1 and r >= 1:
        comp_index = r_components(oracle, r, radius, cap=cap,
                                  traversal=traversal).component_index()
    nodes = ball.sorted_elements()
    node_id = {g: i for i, g in enumerate(nodes)}
    gens = model.generators.values()

    lines = ["graph cayley_ball {"]
    for g in nodes:
        sign = _SIGN_ATTR[oracle.sign(g)]
        comp = comp_index.get(g, -1)
        lines.append(f'  n{node_id[g]} [label="{g}", sign={sign}, comp={comp}];')
    seen: set[tuple[int, int]] = set()
    for g in nodes:
        for x in gens:
            h = g * x
            if h not in ball.members:
                continue
            a, b = node_id[g], node_id[h]
            key = (min(a, b), max(a, b))
            if a != b and key not in seen:
                seen.add(key)
                lines.append(f"  n{key[0]} -- n{key[1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
