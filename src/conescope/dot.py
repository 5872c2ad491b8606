"""Graphviz DOT export of a Cayley ball with sign and component attributes."""

from __future__ import annotations

from .geometry import r_components
from .orders import OrderOracle, Sign

_SIGN_ATTR = {Sign.POSITIVE: "pos", Sign.NEGATIVE: "neg", Sign.IDENTITY: "id"}


def export_dot(oracle: OrderOracle, r: int, radius: int) -> str:
    """One node per ball element (shortlex order), one edge per adjacency.

    Node attributes: label (canonical word), sign in {pos, neg, id}, comp
    (component index at width r for positives, -1 otherwise).
    """
    if r < 0:
        raise ValueError("width must be non-negative")
    ball = oracle.model.ball(radius)
    comp_index = {}
    if radius >= 1 and r >= 1:
        components = r_components(oracle, r, radius).components
        comp_index = {g.key: i for i, comp in enumerate(components)
                      for g in comp}

    lines = ["graph cayley_ball {"]
    for i, g in enumerate(ball):
        sign = _SIGN_ATTR[oracle.sign_key(g.key)]
        comp = comp_index.get(g.key, -1)
        lines.append(f'  n{i} [label="{g}", sign={sign}, comp={comp}];')
    # node ids are ranks; an edge is met from both ends, written from the
    # lower, in letter order from the step table (-1: outside the held ball)
    step, width, size = ball.step, ball.width, len(ball)
    for i in range(size):
        for j in step[i * width:(i + 1) * width]:
            if i < j < size:
                lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
