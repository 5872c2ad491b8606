"""Every report of the benchmark workloads against committed digests.

The three workloads of `perfbench/workloads.py` are built at full size at
seed 1 and reduced at seed 7, and every command runs in-process through
`conescope.cli.main` with the workload's environment. The SHA-256 of each
output file, of stdout and of stderr, and the exit code must equal the
table in `tests/golden/reports.json`. A digest says only that a report
did not change, so every report is also checked for meaning by
`perfbench/checks.py`, with its side outputs and input automata, against
computations written apart from the program. A change that alters a report
on purpose regenerates the table, from the root of the checkout, with

    PYTHONPATH=src python3 tests/test_golden_reports.py > tests/golden/reports.json

and says why; the diff of the table is then the visible change of
behaviour, and the checks say whether the new reports are right.
"""

from __future__ import annotations

import contextlib
import copy
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


def _load_perfbench(name: str):
    """perfbench/<name>.py, read as a module without writing bytecode."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_perfbench("workloads")
checks = _load_perfbench("checks")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_key(name: str, seed: int, reduced: bool) -> str:
    return f"{name}:seed{seed}" + (":reduced" if reduced else "")


def prepare(name: str, seed: int, reduced: bool, directory: Path,
            mp: pytest.MonkeyPatch):
    """The workload, with its inputs written and its environment set."""
    workload = workloads.build(name, seed, reduced=reduced)
    workloads.write_inputs(workload, directory / "inputs")
    mp.delenv("CONESCOPE_CAP", raising=False)
    for var, value in workload.env.items():
        mp.setenv(var, value)
    return workload


def run_command(cmd, directory: Path) -> tuple[int, str, str]:
    """Run one command in-process; its outputs go to out/<label>."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(directory / "inputs" / cmd.config_name),
                     "--command", cmd.command,
                     "--out", str(directory / "out" / cmd.label)])
    return code, stdout.getvalue(), stderr.getvalue()


def read_outputs(out: Path, cmd, workload) -> tuple[dict | None, dict]:
    """The report, and the side outputs and input automata by name, as the
    benchmark hands them to its checks."""
    def read_json(path: Path):
        return json.loads(path.read_text()) if path.exists() else None

    files = dict(workload.files)
    if (out / "certificate.json").exists():
        files["certificate.json"] = read_json(out / "certificate.json")
    if (out / "ball.dot").exists():
        files["ball.dot"] = (out / "ball.dot").read_text()
    return read_json(out / f"{cmd.command}.report.json"), files


def check_command(cmd, code: int, report: dict | None, files: dict) -> list[str]:
    """The problems perfbench/checks.py finds, each naming the command."""
    return [f"{cmd.label}: {problem}"
            for problem in checks.check(cmd.command, cmd.config, code,
                                        report, files)]


def digest_workload(name: str, seed: int, reduced: bool, directory: Path,
                    mp: pytest.MonkeyPatch) -> tuple[dict, list[str]]:
    """label -> {exit, stdout, stderr, files: {name: sha256}} for one round,
    and the problems the checks find in its reports."""
    workload = prepare(name, seed, reduced, directory, mp)
    digests, problems = {}, []
    for cmd in workload.commands:
        code, stdout, stderr = run_command(cmd, directory)
        out = directory / "out" / cmd.label
        files = sorted(out.iterdir()) if out.exists() else []
        digests[cmd.label] = {
            "exit": code,
            "stdout": _sha(stdout.encode()),
            "stderr": _sha(stderr.encode()),
            "files": {f.name: _sha(f.read_bytes()) for f in files},
        }
        problems += check_command(cmd, code, *read_outputs(out, cmd, workload))
    return digests, problems


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
    actual, problems = digest_workload(name, seed, reduced, tmp_path,
                                       monkeypatch)
    diff = differences(golden[run_key(name, seed, reduced)], actual)
    assert not (diff or problems), (
        "reports differ from tests/golden/reports.json:\n" + "\n".join(diff)
        + "\nreports fail perfbench/checks.py:\n" + "\n".join(problems))


def test_checks_reject_a_tampered_report(tmp_path, monkeypatch):
    # the checks are not vacuous: a changed count, a changed side output or
    # a missing one is found, and named by its command
    workload = prepare("free-tree", 7, True, tmp_path, monkeypatch)
    commands = {cmd.label: cmd for cmd in workload.commands}
    runs = {}
    for label in ("axioms", "swamp"):
        code = run_command(commands[label], tmp_path)[0]
        report, files = read_outputs(tmp_path / "out" / label,
                                     commands[label], workload)
        assert check_command(commands[label], code, report, files) == []
        runs[label] = code, report, files

    code, report, files = copy.deepcopy(runs["axioms"])
    report["result"]["checked"] += 2
    problems = check_command(commands["axioms"], code, report, files)
    assert problems and all(p.startswith("axioms: ") for p in problems)

    code, report, files = copy.deepcopy(runs["swamp"])
    files["certificate.json"]["swamp"].pop()
    assert check_command(commands["swamp"], code, report, files)
    del files["certificate.json"]
    assert check_command(commands["swamp"], code, report, files)


if __name__ == "__main__":
    table = {}
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for run in RUNS:
            directory = Path(tmp) / run_key(*run).replace(":", "-")
            table[run_key(*run)], problems = digest_workload(*run, directory, mp)
            for problem in problems:
                print(f"{run_key(*run)} {problem}", file=sys.stderr)
    print(json.dumps(table, indent=1, sort_keys=True))
