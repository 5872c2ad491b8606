"""The benchmark's own tests: every workload's checks on reduced inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs each workload's commands once on small inputs, confirms the checks
accept the real reports and reject tampered copies, and confirms that the
metric names and units printed by run.py match BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _run_workload(name: str) -> dict:
    """label -> (command, code, report, files) for one reduced round."""
    workload = workloads.build(name, SEED, reduced=True)
    out_root = run.OUT / f"test-{name}"
    inputs = out_root / "inputs"
    workloads.write_inputs(workload, inputs)
    env = run.child_env(workload)
    runs = {}
    for cmd in workload.commands:
        outcome = run.run_command(cmd, workload, inputs, out_root, env, trace=False)
        report, files = run.read_outputs(out_root / cmd.label, cmd, workload)
        runs[cmd.label] = (cmd, report["exit_code"], report, files, outcome)
    return runs


def _cert(mutate):
    """Tamper with a swamp certificate in the report and certificate.json alike."""
    def both(result, files):
        mutate(result)
        mutate(files["certificate.json"])
    return both


class WorkloadChecks(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        for name in workloads.WORKLOADS:
            for label, data in _run_workload(name).items():
                cls.runs[f"{name}/{label}"] = data

    def problems(self, key, mutate=None, code_delta=0):
        cmd, code, report, files, _ = self.runs[key]
        report, files = copy.deepcopy(report), copy.deepcopy(files)
        if mutate is not None:
            mutate(report["result"], files)
        if code_delta:
            report["exit_code"] = code + code_delta
        return checks.check(cmd.command, cmd.config, code + code_delta,
                            report, files)

    def assertRejected(self, key, mutate=None, code_delta=0):
        self.assertTrue(self.problems(key, mutate, code_delta),
                        f"tampered {key} passed its check")

    def test_real_reports_pass(self):
        self.assertEqual(len(self.runs), 5 + 15 + 6)
        for key, (_, _, _, _, outcome) in self.runs.items():
            self.assertEqual(outcome.problems, [], key)

    def test_wrong_exit_code_rejected(self):
        for key in self.runs:
            self.assertRejected(key, code_delta=1)

    def test_missing_report_rejected(self):
        for key, (cmd, code, _, files, _) in self.runs.items():
            self.assertTrue(checks.check(cmd.command, cmd.config, code, None, files))

    def test_axioms_ball_size_from_closed_form(self):
        for key in ("free-tree/axioms", "plane-regular/klein-axioms",
                    "plane-regular/z2-lex-axioms", "product/axioms"):
            self.assertRejected(key, lambda r, f: r.update(checked=r["checked"] + 2))
            self.assertRejected(key, lambda r, f: r.update(passed=False))

    def test_export_dot_nodes_and_signs(self):
        key = "product/export-dot"

        def drop_node(r, f):
            lines = f["ball.dot"].splitlines(keepends=True)
            f["ball.dot"] = r["dot"] = "".join(
                lines[:2] + lines[3:])  # the second node, not the identity
        self.assertRejected(key, drop_node)

        def flip_sign(r, f):
            f["ball.dot"] = r["dot"] = f["ball.dot"].replace("sign=pos", "sign=neg", 1)
        self.assertRejected(key, flip_sign)
        self.assertRejected(key, lambda r, f: f.update({"ball.dot": ""}))

    def test_components_sum_to_half_ball(self):
        for key in ("free-tree/components", "product/components"):
            self.assertRejected(key, lambda r, f: r["sizes"].__setitem__(
                0, r["sizes"][0] - 1))

        def merge(r, f):
            r.update(count=1, sizes=[sum(r["sizes"])],
                     representatives=r["representatives"][:1])
        self.assertRejected("free-tree/components", merge)

    def test_survey_dichotomy(self):
        for key in ("free-tree/survey", "product/survey",
                    "plane-regular/z2-irrational-survey",
                    "plane-regular/klein-survey"):
            self.assertRejected(key, lambda r, f: r.update(
                classification="prieto-consistent"
                if r["classification"] != "prieto-consistent"
                else "hucha-certified"))
        self.assertRejected("plane-regular/z2-lex-survey",
                            lambda r, f: r["counts"].__setitem__(-1, 2))
        self.assertRejected("free-tree/survey", lambda r, f: r.pop("certificate"))

    def test_rays(self):
        for key in ("free-tree/ray", "plane-regular/z2-irrational-ray",
                    "plane-regular/z2-lex-ray", "plane-regular/klein-ray"):
            self.assertRejected(key, lambda r, f: r["maxima"].__setitem__(
                -1, r["maxima"][-1].swapcase()))
            self.assertRejected(key, lambda r, f: r["maxima"].pop())
        self.assertRejected("plane-regular/z2-irrational-ray",
                            lambda r, f: r["maxima"].__setitem__(0, "a"))

    def test_tree_swamp_certificate(self):
        key = "free-tree/swamp"
        self.assertRejected(key, _cert(lambda c: c["swamp"].pop()))
        self.assertRejected(key, _cert(lambda c: c["swamp"].__setitem__(
            0, c["center"] + "aaaa")))
        self.assertRejected(key, _cert(lambda c: c["witnesses"].__setitem__(
            1, c["center"])))
        self.assertRejected(key, _cert(lambda c: c["witnesses"].__setitem__(
            1, c["witnesses"][0])))
        self.assertRejected(key, lambda r, f: r.update(separation="evidence"))
        self.assertRejected(key, lambda r, f: f["certificate.json"].update(r=9))

    def test_column_swamp_certificate(self):
        key = "product/swamp"
        self.assertRejected(key, _cert(lambda c: c["swamp"].pop()))
        self.assertRejected(key, _cert(lambda c: c["swamp"].__setitem__(
            0, c["center"] + "bb")))
        self.assertRejected(key, _cert(lambda c: c.update(center="1")))
        self.assertRejected(key, lambda r, f: r.update(separation="not-separating"))

    def test_cofinal_paths(self):
        key = "product/cofinal-path"

        def swap_ends(r, f):
            p = r["paths"][0]
            p["from"], p["to"] = p["to"], p["from"]
        self.assertRejected(key, swap_ends)

        def jump(r, f):
            p = max(r["paths"], key=lambda p: len(p["points"]))
            del p["points"][1]
        self.assertRejected(key, jump)

        def leave_cone(r, f):
            # detour down the central column to c^-1 and back: one step at a
            # time, same ends, but through negative elements
            p = r["paths"][0]
            free, k = checks.product_form(p["from"])
            down = [checks.fmt(checks.product_word(free, k - j))
                    for j in range(max(k, 0) + 2)]
            p["points"][:1] = down + down[-2::-1]
        self.assertRejected(key, leave_cone)
        self.assertRejected(key, lambda r, f: r["paths"].pop())

    def test_dfa_commands(self):
        for tag in ("z2", "klein"):
            key = f"plane-regular/{tag}-dfa-verify"
            self.assertRejected(key, lambda r, f: r["in_ball"].pop())
            self.assertRejected(key, lambda r, f: r["in_ball"].__setitem__(0, "B"))
            self.assertRejected(f"plane-regular/{tag}-dfa-qg",
                                lambda r, f: r.update({"lambda": "2"}))
            key = f"plane-regular/{tag}-dfa-path"
            self.assertRejected(key, lambda r, f: r.update(bound=1))
            self.assertRejected(key, lambda r, f: r.update(
                points=r["points"][:1] + r["points"][13:]))
            self.assertRejected(key, lambda r, f: r["points"].pop())


class IndependentMath(unittest.TestCase):
    def test_closed_forms_match_enumeration(self):
        for radius in range(5):
            frees = checks.reduced_words(radius)
            self.assertEqual(checks.ball_size(workloads.F2, radius), len(frees))
            product = sum(2 * (radius - len(w)) + 1 for w in frees)
            self.assertEqual(checks.ball_size(workloads.F2XZ, radius), product)
            plane = sum(1 for x in range(-radius, radius + 1)
                        for y in range(-radius, radius + 1)
                        if abs(x) + abs(y) <= radius)
            self.assertEqual(checks.ball_size(workloads.Z2, radius), plane)

    def test_signs_and_maxima(self):
        self.assertEqual(checks.sqrt2_sign(-1, 1), 1)
        self.assertEqual(checks.sqrt2_sign(3, -2), 1)
        self.assertEqual(checks.sqrt2_sign(-3, 2), -1)
        self.assertEqual(checks.plane_maximum(workloads.Z2_IRRATIONAL, 3), "bbb")
        self.assertEqual(checks.plane_maximum(workloads.Z2_LEX_TIE, 3), "aaa")
        self.assertEqual(checks.plane_maximum(workloads.KLEIN_CONE, 3), "aaa")
        self.assertEqual(checks.klein_pair("ab"), (-1, 1))

    def test_magnus_sign_agrees_with_program(self):
        sys.path.insert(0, str(ROOT / "src"))
        import conescope
        for w in checks.reduced_words(5):
            word = conescope.parse_word(w or "1")
            want = {"positive": 1, "negative": -1, "identity": 0}[
                conescope.magnus_sign(word).value]
            self.assertEqual(checks.magnus_sign(w), want, w)

    def test_automata_copies_match_shipped(self):
        sys.path.insert(0, str(ROOT / "src"))
        import conescope
        for data, shipped in ((workloads.Z2_LEX_DFA, conescope.z2_lex_cone_dfa()),
                              (workloads.KLEIN_DFA, conescope.klein_cone_dfa())):
            self.assertEqual(conescope.ConeDfa.from_json(data).to_json(),
                             shipped.to_json())

    def test_seed_drives_sampled_inputs(self):
        a = workloads.build("plane-regular", 1)
        b = workloads.build("plane-regular", 2)
        words = lambda w: [c.config["word"] for c in w.commands if "word" in c.config]
        self.assertNotEqual(words(a), words(b))
        self.assertEqual(words(a), words(workloads.build("plane-regular", 1)))
        self.assertEqual({len(x) for x in words(a) + words(b)}, {600})


class PrintedMetrics(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run("product", SEED, 0, trace, reduced=True)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertEqual((result["correct"], result["failed"]), (True, 0))
            self.assertEqual(result["attempted"], 6)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, {m["name"]: m["unit"] for m in spec[section]})
            if trace:
                self.assertEqual(
                    result["metrics"]["trace.missing_wrappers"]["value"], 0)

    def test_missing_wrapper_is_reported(self):
        trace = {"layers": {}, "values": {}, "missing": ["words.free_reduce"]}
        outcome = run.Outcome("ray", 1.0, 20.0, [], trace)
        metrics = run.layer_metrics(run.merge_traces([outcome, outcome]))
        self.assertEqual(metrics["words.free_reduce_calls"], 0)
        self.assertEqual(metrics["trace.missing_wrappers"], 1)


if __name__ == "__main__":
    unittest.main()
