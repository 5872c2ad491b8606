"""Every demo runs and prints the bytes pinned in `tests/golden/demos.json`.

The table holds the SHA-256 of each demo's stdout. A change that alters a
demo's output on purpose regenerates it, from the root of the checkout, with

    PYTHONPATH=src python3 tests/test_demos.py > tests/golden/demos.json

and says why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos.json"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) == 5
    assert sorted(json.loads(GOLDEN.read_text())) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == json.loads(GOLDEN.read_text())[demo.stem], (
        f"{demo.name} prints other bytes than tests/golden/demos.json pins:\n"
        + proc.stdout.decode())


if __name__ == "__main__":
    table = {}
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode != 0:
            sys.exit(f"{demo.name} exited {proc.returncode}:\n"
                     + proc.stderr.decode())
        table[demo.stem] = hashlib.sha256(proc.stdout).hexdigest()
    print(json.dumps(table, indent=1, sort_keys=True))
