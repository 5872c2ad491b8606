"""Benchmark of the conescope CLI: time to verdict, set-up and memory.

    python3 perfbench/run.py --workload free-tree --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is `src/conescope` of that
checkout. A run writes the workload's inputs, then repeats whole rounds
until `--seconds` have passed. A round runs every command of the workload
once, each in a fresh `python3 -m conescope.cli` process, and checks every
report against the computations in checks.py; a command whose exit code or
report is wrong counts as failed.

With `--trace 0` (closed loop, one client, one command at a time) the
end-to-end metrics are, as medians over the run:

* verdict_s: wall time from launching each command to its exit, summed
  over the round;
* setup_s: wall time of a fresh process that imports conescope and builds
  the workload's models, orders and automata (probe.py), four per round;
* peak_rss_mb: the largest peak RSS (MB = 2^20 bytes) of one command
  process in the round, read per child with os.wait4.

Every time is reported at the machine's reference speed: a fixed
pure-Python loop (calibrate) runs before and after each command and each
block of set-up probes, and the measured time is scaled by
CAL_REFERENCE_S / (the loop's mean time around it). On a shared 2-core
VM the machine's speed drifts by +-20% over minutes; the scaling halves
the run-to-run spread. Raw wall times stay in result.json.

With `--trace 1` every command runs under traced.py instead and the
per-layer metrics are printed: counts from one round (they repeat exactly),
times as medians over rounds. The last line of stdout is the result object;
details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

PROBES_PER_ROUND = 4
# calibrate() on the reference machine (2 cores, Python 3.11.7) at its usual
# speed; times are reported at this speed (see "Machine speed" in README.md)
CAL_REFERENCE_S = 0.0127
COMMAND_TIMEOUT_S = 60
PROBE_TIMEOUT_S = 30

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit; "<layer>_calls" is the layer's call count and "<layer>_s"
# its self time, except the values and derived metrics of layer_metrics
PER_LAYER = {
    "groups.ball_calls": "count",
    "groups.ball_elements": "count",
    "groups.ball_s": "s",
    "groups.sort_calls": "count",
    "groups.sort_s": "s",
    "groups.element_eq_calls": "count",
    "groups.multiply_calls": "count",
    "groups.multiply_s": "s",
    "groups.normal_form_calls": "count",
    "groups.word_length_calls": "count",
    "groups.word_length_s": "s",
    "words.shortlex_key_calls": "count",
    "words.shortlex_key_s": "s",
    "words.free_reduce_calls": "count",
    "words.free_reduce_s": "s",
    "orders.sign_calls": "count",
    "orders.sign_evals": "count",
    "orders.sign_hit_ratio": "ratio",
    "orders.sign_eval_s": "s",
    "magnus.leading_term_calls": "count",
    "magnus.leading_term_s": "s",
    "orders.axioms_s": "s",
    "geometry.max_of_ball_calls": "count",
    "geometry.max_of_ball_s": "s",
    "geometry.r_components_s": "s",
    "geometry.swamp_s": "s",
    "geometry.separation_s": "s",
    "geometry.separation_explored": "count",
    "geometry.path_s": "s",
    "automata.reachable_s": "s",
    "automata.reached_elements": "count",
    "automata.language_words": "count",
    "automata.qg_s": "s",
    "automata.verify_s": "s",
    "dot.export_s": "s",
    "cli.run_s": "s",
    "cli.overhead_s": "s",
    "trace.missing_wrappers": "count",
}

_VALUES = ("groups.ball_elements", "geometry.separation_explored",
           "automata.reached_elements", "automata.language_words")


class BenchError(Exception):
    """The benchmark cannot run here (no program, a broken probe)."""


@dataclass
class Outcome:
    label: str
    wall_s: float
    rss_mb: float
    problems: list[str]
    trace: dict | None = field(default=None, repr=False)
    scale: float = 1.0  # CAL_REFERENCE_S / machine speed around the command

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


def child_env(workload: workloads.Workload) -> dict:
    # interpreter settings of the caller (PYTHONDONTWRITEBYTECODE alone makes
    # every start recompile conescope, +40% start time) must not leak in
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("CONESCOPE_", "PYTHON"))}
    env.update(workload.env)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # traced counts must repeat exactly
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with its own resource usage; kill it on timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _read_json(path: Path):
    """The file's JSON, or None when it is missing or not valid JSON."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def read_outputs(out: Path, cmd: workloads.Command,
                 workload: workloads.Workload) -> tuple[dict | None, dict]:
    """A command's report, and its side outputs plus input automata by name."""
    files = dict(workload.files)
    certificate = _read_json(out / "certificate.json")
    if certificate is not None:
        files["certificate.json"] = certificate
    if (out / "ball.dot").exists():
        files["ball.dot"] = (out / "ball.dot").read_text()
    return _read_json(out / f"{cmd.command}.report.json"), files


def run_command(cmd: workloads.Command, workload: workloads.Workload,
                inputs: Path, out_root: Path, env: dict,
                trace: bool) -> Outcome:
    out = out_root / cmd.label
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cli = ["--config", str(inputs / cmd.config_name), "--command", cmd.command,
           "--out", str(out)]
    if trace:
        argv = [sys.executable, str(BENCH / "traced.py"), str(out / "trace.json")]
    else:
        argv = [sys.executable, "-m", "conescope.cli"]
    with open(out / "stdout.txt", "wb") as stdout, \
            open(out / "stderr.txt", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv + cli, cwd=ROOT, env=env,
                                stdout=stdout, stderr=stderr)
        code, usage = _wait(proc, COMMAND_TIMEOUT_S)
        wall = time.perf_counter() - start

    report, files = read_outputs(out, cmd, workload)
    problems = checks.check(cmd.command, cmd.config, code, report, files)
    trace_data = _read_json(out / "trace.json") if trace else None
    if trace and trace_data is None:
        problems.append("no trace written")
    if problems:
        err = (out / "stderr.txt").read_text(errors="replace").strip()
        print(f"perfbench: {cmd.label} failed: {'; '.join(problems)} "
              f"{err[-400:]}", file=sys.stderr)
    return Outcome(cmd.label, wall, usage.ru_maxrss / 1024, problems, trace_data)


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _spin(150_000)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _scale(before: float, after: float) -> float:
    return 2 * CAL_REFERENCE_S / (before + after)


def probe(inputs: Path, env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), str(inputs)],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return wall


def merge_traces(outcomes: list[Outcome]) -> dict:
    """Sum one round's traces over its commands, times at reference speed."""
    layers: dict[str, dict] = {}
    values: dict[str, int] = {}
    missing: set[str] = set()
    for o in outcomes:
        if o.trace is None:
            continue
        missing.update(o.trace["missing"])
        for name, data in o.trace["layers"].items():
            into = layers.setdefault(name, {"calls": 0, "self_s": 0.0,
                                            "total_s": 0.0})
            into["calls"] += data["calls"]
            into["self_s"] += data["self_s"] * o.scale
            into["total_s"] += data["total_s"] * o.scale
        for key, value in o.trace["values"].items():
            values[key] = values.get(key, 0) + value
    return {"layers": layers, "values": values, "missing": sorted(missing),
            "wall_s": sum(o.scaled_s for o in outcomes)}


def layer_metrics(merged: dict) -> dict:
    """The per-layer metrics of one round. A layer whose wrapper found no
    target reads 0 without having been measured; trace.missing_wrappers
    counts such targets, so that 0 cannot pass for a gain."""
    layers, values = merged["layers"], merged["values"]

    def field_of(layer: str, key: str):
        return layers.get(layer, {}).get(key, 0)

    sign_calls = field_of("orders.sign", "calls")
    sign_evals = field_of("orders.sign_eval", "calls")
    run_s = field_of("cli.run", "total_s")
    derived = {
        "orders.sign_evals": sign_evals,
        "orders.sign_hit_ratio": 1 - sign_evals / sign_calls if sign_calls else 0.0,
        "cli.run_s": run_s,
        "cli.overhead_s": merged["wall_s"] - run_s,
        "trace.missing_wrappers": len(merged["missing"]),
    }
    out = {}
    for name in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name in _VALUES:
            out[name] = values.get(name, 0)
        elif name.endswith("_calls"):
            out[name] = field_of(name[:-len("_calls")], "calls")
        else:
            out[name] = field_of(name[:-len("_s")], "self_s")
    return out


def summarize_trace(rounds: list[list[Outcome]]) -> tuple[dict, dict]:
    per_round = [layer_metrics(merge_traces(r)) for r in rounds]
    metrics, unsteady = {}, []
    for name, unit in PER_LAYER.items():
        series = [m[name] for m in per_round]
        if unit == "s":
            metrics[name] = statistics.median(series)
        else:
            metrics[name] = series[0]
            if len(set(series)) != 1:
                unsteady.append(name)
    if unsteady:
        print(f"perfbench: counts differ between rounds: {unsteady}",
              file=sys.stderr)
    missing = merge_traces([o for r in rounds for o in r])["missing"]
    if missing:
        print(f"perfbench: layers not measured, no wrapper target for "
              f"{missing}", file=sys.stderr)
    detail = {"per_round": per_round, "unsteady_counts": unsteady,
              "missing_wrappers": missing,
              "traced_verdict_s": statistics.median(
                  sum(o.scaled_s for o in r) for r in rounds)}
    return metrics, detail


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        reduced: bool = False) -> dict:
    if not (ROOT / "src" / "conescope" / "__init__.py").is_file():
        raise BenchError(f"no program: {ROOT / 'src' / 'conescope'} is missing")
    workload = workloads.build(workload_name, seed, reduced=reduced)
    out_root = OUT / f"{workload_name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(out_root, ignore_errors=True)
    inputs = out_root / "inputs"
    workloads.write_inputs(workload, inputs)
    env = child_env(workload)

    setups: list[float] = []
    raw_setups: list[float] = []
    rounds: list[list[Outcome]] = []
    started = time.perf_counter()
    while True:
        speed = calibrate()
        if not trace:
            block = [probe(inputs, env) for _ in range(PROBES_PER_ROUND)]
            speed, before = calibrate(), speed
            setups += [s * _scale(before, speed) for s in block]
            raw_setups += block
        round_ = []
        for cmd in workload.commands:
            outcome = run_command(cmd, workload, inputs, out_root, env, trace)
            speed, before = calibrate(), speed
            outcome.scale = _scale(before, speed)
            round_.append(outcome)
        rounds.append(round_)
        if time.perf_counter() - started >= seconds:
            break

    outcomes = [o for r in rounds for o in r]
    failed = sum(1 for o in outcomes if o.problems)
    detail = {
        "workload": workload_name, "seed": seed, "trace": trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "rounds": [{o.label: {"wall_s": o.wall_s, "scale": o.scale,
                              "rss_mb": o.rss_mb, "problems": o.problems}
                    for o in r}
                   for r in rounds],
    }
    if trace:
        values, trace_detail = summarize_trace(rounds)
        detail.update(trace_detail)
        units = PER_LAYER
    else:
        values = {
            "verdict_s": statistics.median(sum(o.scaled_s for o in r)
                                           for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(max(o.rss_mb for o in r)
                                             for r in rounds),
        }
        detail["setup_s"] = setups
        detail["raw_setup_s"] = statistics.median(raw_setups)
        detail["raw_verdict_s"] = statistics.median(
            sum(o.wall_s for o in r) for r in rounds)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    detail["result"] = result
    (out_root / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the command it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
