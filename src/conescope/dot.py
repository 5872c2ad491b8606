"""Graphviz DOT export of a Cayley ball with sign and component attributes."""

from __future__ import annotations

from .geometry import _r_classes
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
    if radius >= 1 and r >= 1:  # least: rank -> its class's least rank, or -1
        _, signs, least, _ = _r_classes(oracle, r, (radius,))
    else:
        signs, least = oracle.signs(ball), [-1] * len(ball)
    # a class is numbered at its least rank, in the order of r_components
    text, number = oracle.model.text, {-1: -1}
    lines = ["graph cayley_ball {"]
    for i, (key, sign, top) in enumerate(zip(ball.keys, signs, least)):
        if top == i:
            number[i] = len(number) - 1
        lines.append(f'  n{i} [label="{text(key)}", '
                     f'sign={_SIGN_ATTR[sign]}, comp={number[top]}];')
    # node ids are ranks; an edge is met from both ends, written from the
    # lower, in letter order from the step table (-1: outside the held ball)
    step, width, size = ball.step, ball.width, len(ball)
    for i in range(size):
        for j in step[i * width:(i + 1) * width]:
            if i < j < size:
                lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
