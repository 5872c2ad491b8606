"""Set-up probe: what a fresh process pays before a command runs.

    python3 perfbench/probe.py INPUTS_DIR

Imports conescope and builds the model, order and automaton of every config
in the directory, without running a command. run.py times it from launch to
exit as `setup_s`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(inputs: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import conescope
    if Path(conescope.__file__).resolve().parent != ROOT / "src" / "conescope":
        print(f"perfbench: conescope imported from {conescope.__file__}",
              file=sys.stderr)
        return 4
    for path in sorted(inputs.glob("*.json")):
        config = json.loads(path.read_text())
        model = conescope.model_from_descriptor(config["group"])
        if "order" in config:
            conescope.order_from_descriptor(config["order"], model)
        if "dfa" in config:
            conescope.ConeDfa.from_json(
                json.loads((inputs / config["dfa"]).read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
