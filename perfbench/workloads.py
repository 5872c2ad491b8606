"""The benchmark's three workloads and the inputs generated for them.

A workload is a list of CLI commands, each with its own JSON config, plus
the automaton files those configs name. The seed drives every sampled input
(the `cofinal-path` pairs, the `dfa-path` words) and the order in which a
round runs the commands; it does not change a workload's cost materially.
`reduced=True` gives the small inputs of the benchmark's own tests; it is
a parameter of build() and run.run() only, not a command-line flag.

Regenerate the inputs of a workload with

    python3 perfbench/workloads.py --workload plane-regular --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

F2 = {"kind": "free", "rank": 2}
Z2 = {"kind": "abelian", "rank": 2}
KLEIN = {"kind": "klein"}
F2XZ = {"kind": "product", "factors": [F2, {"kind": "abelian", "rank": 1}]}

MAGNUS = {"kind": "magnus"}
Z2_IRRATIONAL = {"name": "hyperplane-irrational", "kind": "hyperplane",
                 "weights": [[1, 0], [0, 1]]}  # 1 and sqrt2
Z2_LEX_TIE = {"name": "hyperplane-lex", "kind": "hyperplane",
              "weights": [[1, 0], [0, 0]]}  # ties broken lexicographically
KLEIN_CONE = {"kind": "klein"}
Z_LEADING = {"name": "z-leading", "kind": "lex_pair", "leading_factor": 1,
             "leading": {"kind": "hyperplane", "weights": [[1, 0]]},
             "trailing": MAGNUS}
F2_LEADING = {"name": "f2-leading", "kind": "lex_pair", "leading_factor": 0,
              "leading": MAGNUS,
              "trailing": {"kind": "hyperplane", "weights": [[1, 0]]}}

_SINK = {"a": "sink", "A": "sink", "b": "sink", "B": "sink"}
# the automata shipped as conescope.z2_lex_cone_dfa() and klein_cone_dfa();
# the benchmark's tests confirm the copies agree
Z2_LEX_DFA = {
    "states": ["s0", "sx", "sy+", "sy-", "sink"], "initial": "s0",
    "accepting": ["sx", "sy+", "sy-"], "alphabet": "ab",
    "transitions": {
        "s0": {"a": "sx", "A": "sink", "b": "sy+", "B": "sink"},
        "sx": {"a": "sx", "A": "sink", "b": "sy+", "B": "sy-"},
        "sy+": {"a": "sink", "A": "sink", "b": "sy+", "B": "sink"},
        "sy-": {"a": "sink", "A": "sink", "b": "sink", "B": "sy-"},
        "sink": _SINK},
}
KLEIN_DFA = {
    "states": ["s0", "sb+", "sb-", "sa", "sink"], "initial": "s0",
    "accepting": ["sa", "sb+"], "alphabet": "ab",
    "transitions": {
        "s0": {"a": "sa", "A": "sink", "b": "sb+", "B": "sb-"},
        "sb+": {"a": "sa", "A": "sink", "b": "sb+", "B": "sink"},
        "sb-": {"a": "sa", "A": "sink", "b": "sink", "B": "sb-"},
        "sa": {"a": "sa", "A": "sink", "b": "sink", "B": "sink"},
        "sink": _SINK},
}
DFA_FILES = {"dfa/z2-lex.json": Z2_LEX_DFA, "dfa/klein.json": KLEIN_DFA}

WORKLOADS = ("free-tree", "plane-regular", "product")

# Z^2 balls are refused on the |S|^R estimate far below their real size, so
# plane-regular raises the cap (see the FOUND lines in CHANGES.md)
RAISED_CAP = str(10 ** 30)


@dataclass(frozen=True)
class Command:
    label: str      # unique within the workload; names the config file
    command: str    # the CLI command
    config: dict

    @property
    def config_name(self) -> str:
        return f"{self.label}.json"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    files: dict = field(default_factory=dict)  # automata, by config path
    env: dict = field(default_factory=dict)    # extra CLI environment


def accepted_word(dfa: dict, length: int, rng: random.Random) -> str:
    """A uniformly stepped random word of exactly `length` letters that the
    automaton accepts: each letter keeps acceptance reachable in the
    letters left."""
    rows = dfa["transitions"]
    reach = [set(dfa["accepting"])]  # reach[k]: accept after exactly k more
    for _ in range(length):
        reach.append({s for s, row in rows.items()
                      if any(t in reach[-1] for t in row.values())})
    if dfa["initial"] not in reach[length]:
        raise ValueError(f"no accepted word of length {length}")
    state, out = dfa["initial"], []
    for left in range(length - 1, -1, -1):
        choices = sorted(ch for ch, t in rows[state].items() if t in reach[left])
        ch = rng.choice(choices)
        out.append(ch)
        state = rows[state][ch]
    return "".join(out)


def build(name: str, seed: int, reduced: bool = False) -> Workload:
    """The workload's commands and files for a seed."""
    rng = random.Random(f"{name}:{seed}")

    def size(full, small):
        return small if reduced else full

    if name == "free-tree":
        f2 = {"group": F2, "order": MAGNUS}
        commands = [
            Command("axioms", "axioms", {**f2, "radius": size(6, 3)}),
            Command("ray", "ray", {**f2, "radius": size(7, 4)}),
            Command("components", "components",
                    {**f2, "width": 1, "radius": size(8, 4)}),
            Command("swamp", "swamp",
                    {**f2, "width": 1, "search_radius": size(9, 6)}),
            Command("survey", "survey",
                    {**f2, "width": 1, "radii": size([4, 5, 6, 7], [3, 4])}),
        ]
        workload = Workload(name, tuple(commands))
    elif name == "plane-regular":
        commands = []
        for tag, group, order, axioms_r, ray_n in (
                ("z2-irrational", Z2, Z2_IRRATIONAL, size(18, 4), size(24, 5)),
                ("z2-lex", Z2, Z2_LEX_TIE, size(14, 4), size(18, 5)),
                ("klein", KLEIN, KLEIN_CONE, size(16, 4), size(11, 4))):
            base = {"group": group, "order": order}
            commands += [
                Command(f"{tag}-axioms", "axioms", {**base, "radius": axioms_r}),
                Command(f"{tag}-ray", "ray", {**base, "radius": ray_n}),
                Command(f"{tag}-survey", "survey",
                        {**base, "width": 1,
                         "radii": size([16, 24, 32], [3, 4])}),
            ]
        for tag, group, path in (("z2", Z2, "dfa/z2-lex.json"),
                                 ("klein", KLEIN, "dfa/klein.json")):
            base = {"group": group, "dfa": path}
            word = accepted_word(DFA_FILES[path], size(600, 30), rng)
            commands += [
                Command(f"{tag}-dfa-verify", "dfa-verify",
                        {**base, "radius": size(14, 3)}),
                Command(f"{tag}-dfa-qg", "dfa-qg",
                        {**base, "lambda": 1, "c": 0, "lmax": size(16, 5)}),
                Command(f"{tag}-dfa-path", "dfa-path", {**base, "word": word}),
            ]
        workload = Workload(name, tuple(commands), files=dict(DFA_FILES),
                            env={"CONESCOPE_CAP": RAISED_CAP})
    elif name == "product":
        z_lead = {"group": F2XZ, "order": Z_LEADING}
        f2_lead = {"group": F2XZ, "order": F2_LEADING}
        commands = [
            Command("survey", "survey",
                    {**f2_lead, "width": 1, "radii": size([5, 6, 7], [3, 4])}),
            Command("components", "components",
                    {**z_lead, "width": 1, "radius": size(7, 4)}),
            Command("swamp", "swamp",
                    {**f2_lead, "width": 1, "radius": size(7, 5)}),
            Command("cofinal-path", "cofinal-path",
                    {**z_lead, "pairs": size(1000, 20), "radius": size(6, 3),
                     "seed": rng.randrange(2 ** 31)}),
            Command("axioms", "axioms", {**z_lead, "radius": size(5, 3)}),
            Command("export-dot", "export-dot",
                    {**z_lead, "width": 1, "radius": size(6, 3)}),
        ]
        workload = Workload(name, tuple(commands))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    order = list(workload.commands)
    rng.shuffle(order)
    return Workload(name, tuple(order), workload.files, workload.env)


def write_inputs(workload: Workload, directory: Path) -> None:
    """One config file per command plus the automata they name."""
    for path, data in workload.files.items():
        (directory / path).parent.mkdir(parents=True, exist_ok=True)
        (directory / path).write_text(json.dumps(data, indent=1) + "\n")
    directory.mkdir(parents=True, exist_ok=True)
    for cmd in workload.commands:
        (directory / cmd.config_name).write_text(
            json.dumps(cmd.config, indent=1) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="write a workload's inputs")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args()
    write_inputs(build(args.workload, args.seed), Path(args.out))
