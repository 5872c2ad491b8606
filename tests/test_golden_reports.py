"""Every report of the benchmark workloads against committed digests.

The three workloads of `perfbench/workloads.py` are built at full size at
seed 1 and reduced at seed 7, and every command runs in-process through
`conescope.cli.main` with the workload's environment. The SHA-256 of each
output file, of stdout and of stderr, and the exit code must equal the
table in `tests/golden/reports.json`. A change that alters a report on
purpose regenerates the table, from the root of the checkout, with

    PYTHONPATH=src python3 tests/test_golden_reports.py > tests/golden/reports.json

and says why; the diff of the table is then the visible change of behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conescope.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
# (workload, seed, reduced)
RUNS = [(name, 1, False) for name in ("free-tree", "plane-regular", "product")]
RUNS += [(name, 7, True) for name in ("free-tree", "plane-regular", "product")]


def _load_workloads():
    """perfbench/workloads.py, read as a module without writing bytecode."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_key(name: str, seed: int, reduced: bool) -> str:
    return f"{name}:seed{seed}" + (":reduced" if reduced else "")


def digest_workload(name: str, seed: int, reduced: bool, directory: Path,
                    mp: pytest.MonkeyPatch) -> dict:
    """label -> {exit, stdout, stderr, files: {name: sha256}} for one round."""
    workload = workloads.build(name, seed, reduced=reduced)
    inputs = directory / "inputs"
    workloads.write_inputs(workload, inputs)
    for var in ("CONESCOPE_CAP", "CONESCOPE_TRAVERSAL"):
        mp.delenv(var, raising=False)
    for var, value in workload.env.items():
        mp.setenv(var, value)
    digests = {}
    for cmd in workload.commands:
        out = directory / "out" / cmd.label
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["--config", str(inputs / cmd.config_name),
                         "--command", cmd.command, "--out", str(out)])
        files = sorted(out.iterdir()) if out.exists() else []
        digests[cmd.label] = {
            "exit": code,
            "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()),
            "files": {f.name: _sha(f.read_bytes()) for f in files},
        }
    return digests


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per command and output that differ."""
    lines = []
    for label in sorted(set(expected) | set(actual)):
        want, got = expected.get(label), actual.get(label)
        if want is None or got is None:
            lines.append(f"{label}: command {'added' if want is None else 'missing'}")
            continue
        for part in ("exit", "stdout", "stderr"):
            if want[part] != got[part]:
                lines.append(f"{label}: {part} differs")
        for fname in sorted(set(want["files"]) | set(got["files"])):
            if want["files"].get(fname) != got["files"].get(fname):
                lines.append(f"{label}: file {fname} differs")
    return lines


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,seed,reduced", RUNS,
                         ids=[run_key(*r) for r in RUNS])
def test_reports_match_golden_digests(name, seed, reduced, golden, tmp_path,
                                      monkeypatch):
    actual = digest_workload(name, seed, reduced, tmp_path, monkeypatch)
    diff = differences(golden[run_key(name, seed, reduced)], actual)
    assert not diff, "reports differ from tests/golden/reports.json:\n" + \
        "\n".join(diff)


if __name__ == "__main__":
    table = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for run in RUNS:
            directory = Path(tmp) / run_key(*run).replace(":", "-")
            table[run_key(*run)] = digest_workload(*run, directory, mp)
    print(json.dumps(table, indent=1, sort_keys=True))
