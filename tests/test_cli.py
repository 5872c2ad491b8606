import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conescope import (NoDeclaredCofinalCenter, NotAccepted, PathNotFound,
                       WitnessNotFound, klein_cone_dfa)
from conescope.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

F2_MAGNUS = {"group": {"kind": "free", "rank": 2}, "order": {"kind": "magnus"}}
F2XZ = {"kind": "product",
        "factors": [{"kind": "free", "rank": 2}, {"kind": "abelian", "rank": 1}]}
F2XZ_Z_LEADING = {
    "group": F2XZ,
    "order": {"kind": "lex_pair", "leading_factor": 1,
              "leading": {"kind": "hyperplane", "weights": [[1, 0]]},
              "trailing": {"kind": "magnus"}},
}
F2XZ_F2_LEADING = {
    "group": F2XZ,
    "order": {"kind": "lex_pair", "leading_factor": 0,
              "leading": {"kind": "magnus"},
              "trailing": {"kind": "hyperplane", "weights": [[1, 0]]}},
}
Z2_IRR = {"group": {"kind": "abelian", "rank": 2},
          "order": {"kind": "hyperplane", "weights": [[1, 0], [0, 1]]}}
Z2_LEX_DFA = {
    "states": ["s0", "sx", "sy+", "sy-", "sink"],
    "initial": "s0",
    "accepting": ["sx", "sy+", "sy-"],
    "alphabet": "ab",
    "transitions": {
        "s0": {"a": "sx", "A": "sink", "b": "sy+", "B": "sink"},
        "sx": {"a": "sx", "A": "sink", "b": "sy+", "B": "sy-"},
        "sy+": {"a": "sink", "A": "sink", "b": "sy+", "B": "sink"},
        "sy-": {"a": "sink", "A": "sink", "b": "sink", "B": "sy-"},
        "sink": {"a": "sink", "A": "sink", "b": "sink", "B": "sink"},
    },
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(tmp_path, config, command, out="out", extra=()):
    cfg = write_config(tmp_path, config)
    return main(["--config", cfg, "--command", command,
                 "--out", str(tmp_path / out), *extra])


def test_ray_pass_exit_zero(tmp_path):
    code = run_cli(tmp_path, {**F2_MAGNUS, "radius": 5}, "ray")
    assert code == 0
    report = json.loads((tmp_path / "out" / "ray.report.json").read_text())
    assert report["result"]["maxima"] == ["a", "aa", "aaa", "aaaa", "aaaaa"]
    assert report["timings"] is None


def test_swamp_certificate_file(tmp_path):
    code = run_cli(tmp_path, {**F2_MAGNUS, "width": 2}, "swamp")
    assert code == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["verdict"] == "certified-tree"
    assert len(cert["swamp"]) == 17


def test_missing_config_exit_3(tmp_path):
    code = main(["--config", str(tmp_path / "absent.json"),
                 "--command", "ray", "--out", str(tmp_path / "out")])
    assert code == 3


def test_unknown_command_exit_3(tmp_path):
    code = run_cli(tmp_path, {**F2_MAGNUS, "radius": 2}, "frobnicate")
    assert code == 3


def test_unknown_config_key_rejected(tmp_path):
    code = run_cli(tmp_path, {**F2_MAGNUS, "radius": 2, "mystery": 1}, "ray")
    assert code == 3


def test_missing_required_parameter(tmp_path):
    code = run_cli(tmp_path, dict(F2_MAGNUS), "ray")
    assert code == 3


def test_usage_error_without_flags():
    assert main([]) == 3


def test_removed_timings_flag_exit_3(tmp_path):
    # report bytes must not depend on the run, so wall times have no flag
    assert run_cli(tmp_path, {**F2_MAGNUS, "radius": 2}, "ray",
                   extra=("--timings",)) == 3
    assert not (tmp_path / "out").exists()


def test_components_and_survey(tmp_path):
    code = run_cli(tmp_path, {**Z2_IRR, "radius": 4, "width": 1}, "components")
    assert code == 0
    report = json.loads((tmp_path / "out" / "components.report.json").read_text())
    assert report["result"]["count"] == 1

    code = run_cli(tmp_path, {**Z2_IRR, "width": 1, "radii": [2, 4, 6]},
                   "survey")
    assert code == 0
    report = json.loads((tmp_path / "out" / "survey.report.json").read_text())
    assert report["result"]["counts"] == [1, 1, 1]
    assert report["result"]["classification"] == "prieto-consistent"


def test_survey_evidence_exit_2(tmp_path):
    config = {**F2XZ_F2_LEADING, "width": 1, "radii": [3, 4]}
    assert run_cli(tmp_path, config, "survey") == 2


# a one-state automaton that accepts every word, and one that accepts a^n,
# n >= 1
ALL_WORDS_DFA = {"states": ["s"], "initial": "s", "accepting": ["s"],
                 "alphabet": "ab",
                 "transitions": {"s": {ch: "s" for ch in "aAbB"}}}
POWERS_OF_A_DFA = {
    "states": ["s0", "s", "sink"], "initial": "s0", "accepting": ["s"],
    "alphabet": "ab",
    "transitions": {"s0": {"a": "s", "A": "sink", "b": "sink", "B": "sink"},
                    "s": {"a": "s", "A": "sink", "b": "sink", "B": "sink"},
                    "sink": {ch: "sink" for ch in "aAbB"}}}
Z2_GROUP = {"kind": "abelian", "rank": 2}
NO_WITNESSES = ("no witnesses within search radius 3; enlarge the horizon "
                "(positives found in 1 branch(es))")
NO_CENTRE = ("oracle lex(magnus,hyperplane) declares no cofinal central "
             "generator")

# outcomes that the golden reports do not reach:
# command, config, exit code, report result, stdout summary
OUTCOMES = {
    "dfa-verify-fail": (
        "dfa-verify", {"group": Z2_GROUP, "dfa": ALL_WORDS_DFA, "radius": 1,
                       "lmax": 2}, 1,
        {"verdict": "FAIL", "in_ball": ["a", "A", "b", "B"], "unresolved": [],
         "counterexamples": [["identity-in", "1"], ["both-in", "a", "A"],
                             ["both-in", "b", "B"]]},
        "cone-dfa R=1 Lmax=2: FAIL (4 in, 0 unresolved, 3 violations)"),
    "dfa-verify-unknown": (
        "dfa-verify", {"group": Z2_GROUP, "dfa": POWERS_OF_A_DFA, "radius": 1,
                       "lmax": 2}, 2,
        {"verdict": "UNKNOWN", "in_ball": ["a"], "unresolved": ["b"],
         "counterexamples": []},
        "cone-dfa R=1 Lmax=2: UNKNOWN (1 in, 1 unresolved, 0 violations)"),
    "dfa-qg-fail": (
        "dfa-qg", {"group": Z2_GROUP, "dfa": ALL_WORDS_DFA, "lmax": 3}, 1,
        {"verdict": "FAIL", "lambda": "1", "c": "0",
         "violation": ["aA", 0, 2, 0]},
        "quasigeodesic lambda=1 c=0: FAIL at word aA prefixes (0,2), "
        "distance 0"),
    "dfa-path-rejected": (
        "dfa-path", {"group": Z2_GROUP, "dfa": POWERS_OF_A_DFA, "word": "b"}, 1,
        {"error": "word b is rejected"}, "dfa-path: word b is rejected"),
    # F1 = Z: every positive lies in the one branch towards a
    "swamp-tree-no-witnesses": (
        "swamp", {"group": {"kind": "free", "rank": 1},
                  "order": {"kind": "magnus"}, "search_radius": 3}, 2,
        {"error": NO_WITNESSES}, f"swamp: {NO_WITNESSES}"),
    "swamp-column-no-witnesses": (
        "swamp", {**F2XZ_F2_LEADING, "width": 1, "radius": 3}, 2,
        {"error": NO_WITNESSES}, f"swamp: {NO_WITNESSES}"),
    "cofinal-path-no-centre": (
        "cofinal-path", {**F2XZ_F2_LEADING, "pair": ["a", "b"]}, 2,
        {"error": NO_CENTRE}, f"cofinal-path: {NO_CENTRE}"),
}


@pytest.mark.parametrize("command,config,code,result,summary",
                         OUTCOMES.values(), ids=OUTCOMES)
def test_outcome_reaches_exit_code(tmp_path, capsys, command, config, code,
                                   result, summary):
    assert run_cli(tmp_path, config, command) == code
    assert capsys.readouterr() == (summary + "\n", "")
    out = tmp_path / "out"
    report = json.loads((out / f"{command}.report.json").read_text())
    assert (report["exit_code"], report["result"]) == (code, result)
    # no certificate.json without a certificate
    assert sorted(f.name for f in out.iterdir()) == [
        f"{command}.report.json", f"{command}.report.txt"]


def test_exit_codes_match_readme_table():
    # every verdict value and outcome error has an exit code, and the README
    # lists it in the row of that code and in no other
    from conescope.cli import EXIT_CODES
    from conescope.geometry import SurveyClass, Verdict
    rows = {}
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    for line in readme.splitlines():
        code, bar, meaning = line.removeprefix("| ").partition(" | ")
        if bar and code.isdigit():
            rows[int(code)] = meaning
    outcomes = [*(v.value for v in Verdict), *(c.value for c in SurveyClass),
                "PASS", "FAIL", "UNKNOWN", "pass", "fail", NotAccepted,
                WitnessNotFound, NoDeclaredCofinalCenter, PathNotFound]
    assert set(EXIT_CODES) == set(outcomes)
    for outcome in outcomes:
        name = f"`{getattr(outcome, '__name__', outcome)}`"
        assert [c for c, row in rows.items() if name in row] == [
            EXIT_CODES[outcome]], name


def test_swamp_column_needs_the_free_factor_to_lead(tmp_path, capsys):
    # the z-leading order is sound; the column construction does not apply
    config = {**F2XZ_Z_LEADING, "width": 1, "radius": 3}
    assert run_cli(tmp_path, config, "swamp") == 3
    assert capsys.readouterr().err == (
        "error: the column swamp needs the free factor to lead the order: "
        "column element 1 is not negative under lex(hyperplane,magnus)\n")


def test_dfa_path_measures_each_gap_once(tmp_path, monkeypatch):
    import conescope as cs
    pairs = []
    distance = cs.FreeAbelian.key_distance

    def counted_distance(self, u, v):
        pairs.append((u, v))
        return distance(self, u, v)
    monkeypatch.setattr(cs.FreeAbelian, "key_distance", counted_distance)
    config = {"group": {"kind": "abelian", "rank": 2}, "dfa": Z2_LEX_DFA,
              "word": "aaaaaaBBBBBB"}
    assert run_cli(tmp_path, config, "dfa-path") == 0
    report = json.loads((tmp_path / "out" / "dfa-path.report.json").read_text())
    points = report["result"]["points"]
    assert len(points) == 13
    assert len(pairs) == len(points) - 1


def test_dfa_verify_and_paths(tmp_path):
    config = {"group": {"kind": "abelian", "rank": 2}, "dfa": Z2_LEX_DFA,
              "radius": 3, "lmax": 12}
    assert run_cli(tmp_path, config, "dfa-verify") == 0

    config = {"group": {"kind": "abelian", "rank": 2}, "dfa": Z2_LEX_DFA,
              "word": "abb"}
    assert run_cli(tmp_path, config, "dfa-path") == 0
    report = json.loads((tmp_path / "out" / "dfa-path.report.json").read_text())
    assert max(report["result"]["gaps"]) <= 11

    config = {"group": {"kind": "abelian", "rank": 2}, "dfa": Z2_LEX_DFA,
              "word": "A"}
    assert run_cli(tmp_path, config, "dfa-path") == 1

    config = {"group": {"kind": "abelian", "rank": 2}, "dfa": Z2_LEX_DFA,
              "lambda": 1, "c": 0, "lmax": 8}
    assert run_cli(tmp_path, config, "dfa-qg") == 0

    config = {**config, "lambda": "3/2", "c": "1/4"}
    assert run_cli(tmp_path, config, "dfa-qg") == 0
    report = json.loads((tmp_path / "out" / "dfa-qg.report.json").read_text())
    assert (report["result"]["lambda"], report["result"]["c"]) == ("3/2", "1/4")


def test_dfa_from_file(tmp_path):
    (tmp_path / "machine.json").write_text(json.dumps(Z2_LEX_DFA))
    config = {"group": {"kind": "abelian", "rank": 2}, "dfa": "machine.json",
              "radius": 2, "lmax": 8}
    assert run_cli(tmp_path, config, "dfa-verify") == 0


# accepts the one word a: a finite language
ONLY_A_DFA = {
    "states": ["s0", "s", "sink"], "initial": "s0", "accepting": ["s"],
    "alphabet": "ab",
    "transitions": {"s0": {"a": "s", "A": "sink", "b": "sink", "B": "sink"},
                    "s": {ch: "sink" for ch in "aAbB"},
                    "sink": {ch: "sink" for ch in "aAbB"}}}


@pytest.mark.parametrize("command,params,verdict", [
    ("dfa-verify", {"radius": 2}, "UNKNOWN"), ("dfa-qg", {}, "PASS")])
def test_automaton_walks_stop_once_nothing_is_live(tmp_path, command, params,
                                                   verdict):
    # past the longest accepted word no state is live, so a huge lmax
    # costs what a small one does
    outcomes = []
    for lmax in (5, 10**8):
        config = {"group": Z2_GROUP, "dfa": ONLY_A_DFA, "lmax": lmax, **params}
        start = time.perf_counter()
        code = run_cli(tmp_path, config, command, out=f"out{lmax}")
        seconds = time.perf_counter() - start
        report = tmp_path / f"out{lmax}" / f"{command}.report.json"
        outcomes.append((code, json.loads(report.read_text())["result"]))
    assert seconds < 1
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]["verdict"] == verdict


@pytest.mark.parametrize("text,reason", [
    (b"{oops", "Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1)"),
    (b"\xff{", "'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte"),
], ids=["not-json", "not-utf8"])
def test_unreadable_json_file_is_named(tmp_path, capsys, text, reason):
    (tmp_path / "machine.json").write_bytes(text)
    config = {"group": {"kind": "abelian", "rank": 2}, "dfa": "machine.json",
              "radius": 2, "lmax": 8}
    assert run_cli(tmp_path, config, "dfa-verify") == 3
    assert capsys.readouterr().err == (
        f"error: DFA file machine.json is not valid JSON: {reason}\n")
    (tmp_path / "cfg.json").write_bytes(text)
    assert main(["--config", str(tmp_path / "cfg.json"), "--command", "ray",
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"error: config {tmp_path / 'cfg.json'} is not valid JSON: {reason}\n")


def test_dfa_path_with_nul_is_named(tmp_path, capsys):
    # open() refuses a NUL in a path with ValueError, not OSError
    config = {"group": {"kind": "abelian", "rank": 2}, "dfa": "a\u0000b.json",
              "radius": 2, "lmax": 8}
    assert run_cli(tmp_path, config, "dfa-verify") == 3
    assert capsys.readouterr().err == (
        "error: cannot read DFA file a\u0000b.json: embedded null byte\n")


def test_cofinal_path_command(tmp_path):
    config = {**F2XZ_Z_LEADING, "pair": ["Ac", "bc"]}
    assert run_cli(tmp_path, config, "cofinal-path") == 0
    report = json.loads((tmp_path / "out" / "cofinal-path.report.json").read_text())
    assert report["result"]["paths"][0]["points"][0] == "Ac"


def test_export_dot_counts(tmp_path):
    code = run_cli(tmp_path, {**F2_MAGNUS, "radius": 2, "width": 1},
                   "export-dot")
    assert code == 0
    dot = (tmp_path / "out" / "ball.dot").read_text()
    assert dot.count("[label=") == 17
    assert dot.count(" -- ") == 16

    code = run_cli(tmp_path, {**Z2_IRR, "radius": 1, "width": 1}, "export-dot")
    assert code == 0
    dot = (tmp_path / "out" / "ball.dot").read_text()
    assert dot.count("[label=") == 5
    assert dot.count(" -- ") == 4

    code = run_cli(tmp_path, {**Z2_IRR, "radius": 0, "width": 1}, "export-dot")
    assert code == 0
    dot = (tmp_path / "out" / "ball.dot").read_text()
    assert dot.count("[label=") == 1
    assert 'label="1", sign=id' in dot


def test_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {**F2_MAGNUS, "radius": 2})
    code = main(["--config", cfg, "--command", "ray",
                 "--out", str(tmp_path / "out"), "--radius", "4"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "ray.report.json").read_text())
    assert len(report["result"]["maxima"]) == 4


def test_flag_forms_agree(tmp_path):
    # `--flag value` and `--flag=value` read alike, a negative number is a
    # value, and no flag may be abbreviated
    cfg = write_config(tmp_path, {**F2_MAGNUS, "radius": 2})
    spaced = ["--config", cfg, "--command", "ray", "--out",
              str(tmp_path / "spaced"), "--radius", "4", "--width", "-1"]
    joined = [f"--config={cfg}", "--command=ray",
              f"--out={tmp_path / 'joined'}", "--radius=4", "--width=-1"]
    assert main(spaced) == main(joined) == 0
    assert ((tmp_path / "spaced" / "ray.report.json").read_bytes()
            == (tmp_path / "joined" / "ray.report.json").read_bytes())


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exit_0(capsys, flag):
    assert main(["--command", "ray", flag]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: conescope ") and err == ""


USAGE_ERRORS = {
    "unknown-flag": ["--config", "c.json", "--command", "ray", "--verbose"],
    "abbreviation": ["--conf", "c.json", "--command", "ray"],
    "single-dash": ["-c", "c.json", "--command", "ray"],
    "positional": ["--config", "c.json", "--command", "ray", "extra"],
    "no-value-at-end": ["--command", "ray", "--config"],
    "flag-as-value": ["--config", "--command", "ray"],
    "radius-not-int": ["--config", "c.json", "--command", "ray",
                       "--radius", "x"],
    "width-not-int": ["--config", "c.json", "--command", "ray",
                      "--width=1.5"],
    "lmax-empty": ["--config", "c.json", "--command", "ray", "--lmax="],
    "no-config": ["--command", "ray"],
    "no-command": ["--config", "c.json"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_exit_3(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == "" and usage.startswith("usage: conescope ")
    assert error.startswith("conescope: error: ")
    assert not (tmp_path / "out").exists()


ONE_SHOT = {
    "pass": ({**F2_MAGNUS, "radius": 5}, "ray", ()),
    "evidence": ({**F2XZ_F2_LEADING, "width": 1, "radii": [3, 4]}, "survey",
                 ()),
    "config-error": (dict(F2_MAGNUS), "ray", ()),
    "usage-error": ({**F2_MAGNUS, "radius": 2}, "ray", ("--radius", "x")),
}


@pytest.mark.parametrize("config,command,extra", ONE_SHOT.values(),
                         ids=ONE_SHOT)
def test_one_shot_process_matches_main(tmp_path, capsys, config, command,
                                       extra):
    # the process leaves without interpreter teardown; with its output
    # piped, hence block-buffered, only the flush before it delivers stdout
    cfg = write_config(tmp_path, config)

    def argv(out):
        return ["--config", cfg, "--command", command,
                "--out", str(tmp_path / out), *extra]
    code = main(argv("main"))
    expected = capsys.readouterr()
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)  # and no PYTHONUNBUFFERED
    proc = subprocess.run([sys.executable, "-m", "conescope.cli",
                           *argv("process")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (expected.out, expected.err)
    if code != 3:
        assert proc.stdout.startswith(command)
    reports = {out: [(f.name, f.read_bytes())
                     for f in sorted((tmp_path / out).glob("*"))]
               for out in ("main", "process")}
    assert reports["main"] == reports["process"]
    assert len(reports["main"]) == (0 if code == 3 else 2)


def test_reports_byte_identical_across_runs_and_hash_seeds(tmp_path):
    # the Klein automaton's state names are strings, so an order that
    # followed string hashes would differ between the seeds
    runs = {"export-dot": write_config(
                tmp_path, {**F2_MAGNUS, "radius": 3, "width": 1}, "dot.json"),
            "dfa-verify": write_config(
                tmp_path, {"group": {"kind": "klein"}, "radius": 4,
                           "dfa": klein_cone_dfa().to_json()}, "dfa.json")}
    blobs = {}
    # two plain runs, each under a random hash seed, and one under a set seed
    for tag, hash_seed in (("r1", None), ("r2", None), ("seed", "12345")):
        outdir = tmp_path / tag
        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        if hash_seed:
            env["PYTHONHASHSEED"] = hash_seed
        for command, cfg in runs.items():
            proc = subprocess.run(
                [sys.executable, "-m", "conescope.cli", "--config", cfg,
                 "--command", command, "--out", str(outdir)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        blobs[tag] = [(outdir / name).read_bytes()
                      for name in ("export-dot.report.json", "ball.dot",
                                   "dfa-verify.report.json")]
    assert blobs["r1"] == blobs["r2"] == blobs["seed"]


def test_cap_env_variable(tmp_path):
    cfg = write_config(tmp_path, {**F2_MAGNUS, "radius": 6})
    env = dict(os.environ)
    env["CONESCOPE_CAP"] = "100"
    proc = subprocess.run(
        [sys.executable, "-m", "conescope.cli", "--config", cfg,
         "--command", "ray", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert "exceeds cap" in proc.stderr


def test_cap_env_variable_reaches_a_lex_pair_product(tmp_path, capsys,
                                                     monkeypatch):
    # a lex_pair order lives on the config's product model; |B(4)| = 313
    # on F2 x Z
    monkeypatch.setenv("CONESCOPE_CAP", "100")
    code = run_cli(tmp_path, {**F2XZ_F2_LEADING, "radius": 4}, "components")
    assert code == 3
    assert "exceeds cap 100" in capsys.readouterr().err


def test_axioms_z2_radius_12_under_default_cap(tmp_path, monkeypatch):
    # 313 elements; the cap counts nodes, not the 4^12 words of length 12
    monkeypatch.delenv("CONESCOPE_CAP", raising=False)
    assert run_cli(tmp_path, {**Z2_IRR, "radius": 12}, "axioms") == 0
    report = json.loads((tmp_path / "out" / "axioms.report.json").read_text())
    assert report["result"]["checked"] == 313


def test_ray_klein_radius_12_under_default_cap(tmp_path, monkeypatch):
    monkeypatch.delenv("CONESCOPE_CAP", raising=False)
    config = {"group": {"kind": "klein"}, "order": {"kind": "klein"},
              "radius": 12}
    assert run_cli(tmp_path, config, "ray") == 0


# pairs of presentations of one ordered group under one alphabet
ISOMORPHIC = {
    "Z2-F1xF1": (
        {"group": Z2_GROUP,
         "order": {"kind": "hyperplane", "weights": [[1, 0], [0, 0]]}},
        {"group": {"kind": "product", "factors": [{"kind": "free", "rank": 1},
                                                  {"kind": "free", "rank": 1}]},
         "order": {"kind": "lex_pair", "leading_factor": 0,
                   "leading": {"kind": "magnus"},
                   "trailing": {"kind": "magnus"}}}),
    "Z3-Z2xZ1": (
        {"group": {"kind": "abelian", "rank": 3},
         "order": {"kind": "hyperplane", "weights": [[1, 0], [0, 0], [0, 0]]}},
        {"group": {"kind": "product", "factors": [Z2_GROUP,
                                                  {"kind": "abelian", "rank": 1}]},
         "order": {"kind": "lex_pair", "leading_factor": 0,
                   "leading": {"kind": "hyperplane", "weights": [[1, 0], [0, 0]]},
                   "trailing": {"kind": "hyperplane", "weights": [[1, 0]]}}}),
}
ISOMORPHIC_RUNS = [
    ("axioms", {"radius": 4}, 0), ("ray", {"radius": 4}, 0),
    ("components", {"radius": 4, "width": 1}, 0),
    ("survey", {"radii": [2, 3, 4], "width": 1}, 0),
    ("survey", {"radii": [2, 3, 4], "width": 2}, 0),
    ("export-dot", {"radius": 3, "width": 1}, 0),
    ("cofinal-path", {"pair": ["a", "b"]}, 2),
]


@pytest.mark.parametrize("pair", ISOMORPHIC.values(), ids=ISOMORPHIC)
def test_isomorphic_presentations_agree(tmp_path, capsys, pair):
    # every report but its inputs, the text summary, stdout and the exit
    # code; the orders share one name, which the reports print
    for n, (command, params, code) in enumerate(ISOMORPHIC_RUNS):
        outcomes = []
        for side, config in enumerate(pair):
            order = {**config["order"], "name": "lex"}
            out = tmp_path / f"{n}-{side}"
            assert run_cli(tmp_path, {**config, "order": order, **params},
                           command, out=out.name) == code
            files = {}
            for f in sorted(out.iterdir()):
                files[f.name] = f.read_text()
                if f.name.endswith(".report.json"):
                    files[f.name] = json.loads(files[f.name])
                    del files[f.name]["inputs"]
            outcomes.append((capsys.readouterr(), files))
        assert outcomes[0] == outcomes[1], command


Z2_DFA = {"group": {"kind": "abelian", "rank": 2}, "dfa": Z2_LEX_DFA}
# every non-trivial element is accepted: a valid automaton, not a cone
PQ_DFA = {"states": ["p", "q"], "initial": "p", "accepting": ["q"],
          "alphabet": "ab",
          "transitions": {s: {ch: "q" for ch in "aAbB"} for s in "pq"}}
ZZ = {"kind": "product",
      "factors": [{"kind": "abelian", "rank": 1}, {"kind": "abelian", "rank": 1}]}
ZZ_LEX = {"kind": "lex_pair", "leading_factor": 1,
          "leading": {"kind": "hyperplane", "weights": [[1, 0]]},
          "trailing": {"kind": "hyperplane", "weights": [[1, 0]]}}

MALFORMED = [
    ("axioms", {**F2_MAGNUS, "radius": -1}),
    ("ray", {**F2_MAGNUS, "radius": -1}),
    ("components", {**F2_MAGNUS, "radius": 3, "width": 0}),
    ("swamp", {**F2_MAGNUS, "width": 1, "search_radius": 2}),
    ("survey", {**F2_MAGNUS, "width": 0, "radii": [2, 3]}),
    ("survey", {**F2_MAGNUS, "radii": ["x"]}),
    ("cofinal-path", {**F2_MAGNUS, "pairs": "x"}),
    ("dfa-verify", {**Z2_DFA, "radius": -1}),
    ("dfa-path", {**Z2_DFA, "word": "xyz"}),
    ("dfa-qg", {**Z2_DFA, "lambda": "x"}),
    ("dfa-qg", {**Z2_DFA, "lambda": 0}),
    ("export-dot", {**F2_MAGNUS, "radius": -1}),
    # a config error, not an "unknown" verdict: "A" is negative here
    ("cofinal-path", {**F2XZ_Z_LEADING, "pair": ["A", "a"]}),
    ("cofinal-path", {**F2XZ_Z_LEADING, "pairs": -3}),
    # "b" is a letter of Z^2 but not of the rank-1 automaton
    ("dfa-path", {"group": {"kind": "abelian", "rank": 2},
                  "dfa": {"states": ["s"], "initial": "s", "accepting": ["s"],
                          "alphabet": "a",
                          "transitions": {"s": {"a": "s", "A": "s"}}},
                  "word": "ab"}),
    # "c" is a letter of the rank-3 automaton but not of Z^2
    ("dfa-verify", {"group": {"kind": "abelian", "rank": 2}, "radius": 1,
                    "dfa": {"states": ["s"], "initial": "s", "accepting": ["s"],
                            "alphabet": "abc",
                            "transitions": {"s": {ch: "s" for ch in "aAbBcC"}}}}),
    # the same on dfa-qg, whose language sample is never normalised
    ("dfa-qg", {"group": {"kind": "abelian", "rank": 2}, "lmax": 2,
                "dfa": {"states": ["s"], "initial": "s", "accepting": ["s"],
                        "alphabet": "abc",
                        "transitions": {"s": {ch: "s" for ch in "aAbBcC"}}}}),
    # a negative cutoff, which a ball of that radius used to refuse
    ("dfa-qg", {**Z2_DFA, "lmax": -1}),
    # a number that is not a JSON integer is refused, never truncated
    ("axioms", {**F2_MAGNUS, "radius": 2.9}),
    ("axioms", {**F2_MAGNUS, "radius": True}),
    ("export-dot", {**F2_MAGNUS, "radius": 2, "width": 1.5}),
    ("survey", {**F2_MAGNUS, "radii": [2.5, 3.7]}),
    ("survey", {**F2_MAGNUS, "radii": [3, True]}),
    ("axioms", {**Z2_IRR, "order": {"kind": "hyperplane",
                                     "weights": [[1.9, 0], [0, 1]]},
                "radius": 2}),
    ("axioms", {**Z2_IRR, "order": {"kind": "hyperplane",
                                     "weights": [[0.5, 0], [0, 0]]},
                "radius": 2}),
    ("axioms", {**Z2_IRR, "order": {"kind": "hyperplane",
                                     "weights": [[1, 0], [True, 1]]},
                "radius": 2}),
    ("ray", {**F2_MAGNUS, "group": {"kind": "free", "rank": 2.0}, "radius": 2}),
    ("ray", {"group": {"kind": "abelian", "rank": True},
             "order": {"kind": "hyperplane", "weights": [[1, 0]]}, "radius": 2}),
    ("components", {**F2XZ_Z_LEADING,
                    "order": {**F2XZ_Z_LEADING["order"], "leading_factor": True},
                    "radius": 2}),
    ("components", {**F2XZ_F2_LEADING,
                    "order": {**F2XZ_F2_LEADING["order"], "leading_factor": 0.5},
                    "radius": 2}),
    # a negative cutoff, even where the empty word is accepted
    ("dfa-verify", {"group": {"kind": "abelian", "rank": 2}, "radius": 2,
                    "lmax": -1,
                    "dfa": {"states": ["s"], "initial": "s", "accepting": ["s"],
                            "alphabet": "ab",
                            "transitions": {"s": {ch: "s" for ch in "aAbB"}}}}),
    # a negative width; width 0 is valid and labels no components
    ("export-dot", {**F2_MAGNUS, "radius": 2, "width": -3}),
    # exact constants are integers or fraction strings, never a bool or float
    ("dfa-qg", {**Z2_DFA, "lambda": True}),
    ("dfa-qg", {**Z2_DFA, "c": 0.1}),
    # transitions that are not a JSON object, on every command that reads a DFA
    *[(command, {**Z2_DFA, "radius": 1, "word": "a",
                 "dfa": {**Z2_LEX_DFA, "transitions": transitions}})
      for command in ("dfa-verify", "dfa-path", "dfa-qg")
      for transitions in ([], 0, None, "x", True)],
    # a descriptor key that its kind does not read; "leading_facter" would
    # otherwise run leading factor 0
    ("ray", {"group": ZZ, "radius": 3,
             "order": {**ZZ_LEX, "leading_facter": 1}}),
    ("ray", {**F2_MAGNUS, "group": {"kind": "free", "rank": 2, "factors": []},
             "radius": 2}),
    ("axioms", {**Z2_IRR, "group": {"kind": "abelian", "rank": 2, "rnak": 3},
                "radius": 2}),
    ("ray", {"group": {"kind": "klein", "rank": 2}, "order": {"kind": "klein"},
             "radius": 2}),
    ("components", {**F2XZ_Z_LEADING, "group": {**F2XZ, "rank": 3},
                    "radius": 2}),
    ("ray", {**F2_MAGNUS, "order": {"kind": "magnus", "weights": [[1, 0]]},
             "radius": 2}),
    ("ray", {**Z2_IRR, "order": {**Z2_IRR["order"], "leading": {}},
             "radius": 2}),
    ("ray", {"group": {"kind": "klein"},
             "order": {"kind": "klein", "name": "k", "flip": True}, "radius": 2}),
    ("components", {**F2XZ_Z_LEADING, "radius": 2,
                    "order": {**F2XZ_Z_LEADING["order"],
                              "trailing": {"kind": "magnus", "wieghts": []}}}),
    # DFA fields of the wrong JSON type: "pq" is no list of the states p and
    # q, and a list of two-letter strings is no transition row
    *[("dfa-verify", {"group": {"kind": "abelian", "rank": 2}, "radius": 2,
                      "dfa": {**PQ_DFA, key: value}})
      for key, value in (("states", "pq"), ("accepting", "q"),
                         ("initial", ["p"]), ("alphabet", ["a", "b"]),
                         ("transitions", {**PQ_DFA["transitions"],
                                          "q": ["aq", "Aq", "bq", "Bq"]}))],
    # an order name that is no string would label the report with it
    ("ray", {**F2_MAGNUS, "order": {"kind": "magnus", "name": 5},
             "radius": 2}),
    ("components", {**F2XZ_Z_LEADING, "radius": 2,
                    "order": {**F2XZ_Z_LEADING["order"],
                              "trailing": {"kind": "magnus", "name": ["m"]}}}),
    # a required descriptor key that is missing
    ("ray", {**F2_MAGNUS, "group": {"kind": "free"}, "radius": 2}),
    ("axioms", {**Z2_IRR, "group": {"kind": "abelian"}, "radius": 2}),
    ("ray", {**Z2_IRR, "order": {"kind": "hyperplane"}, "radius": 2}),
    ("ray", {**Z2_IRR, "order": {"kind": "hyperplane", "weights": None},
             "radius": 2}),
    ("components", {**F2XZ_Z_LEADING, "radius": 2,
                    "order": {"kind": "lex_pair",
                              "trailing": {"kind": "magnus"}}}),
    ("components", {**F2XZ_Z_LEADING, "radius": 2,
                    "group": {"kind": "product"}}),
]


@pytest.mark.parametrize("command,config", MALFORMED,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(MALFORMED)])
def test_malformed_config_exit_3(tmp_path, capsys, command, config):
    assert run_cli(tmp_path, config, command) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_descriptor_key_is_named(tmp_path, capsys):
    config = {"group": ZZ, "radius": 3,
              "order": {**ZZ_LEX, "leading_facter": 1}}
    assert run_cli(tmp_path, config, "ray") == 3
    assert capsys.readouterr().err == (
        "error: bad order descriptor: unknown keys for kind 'lex_pair': "
        "['leading_facter']\n")
    config = {**F2_MAGNUS, "group": {"kind": "free", "rank": 2, "rnak": 2},
              "radius": 2}
    assert run_cli(tmp_path, config, "ray") == 3
    assert capsys.readouterr().err == (
        "error: bad group descriptor: unknown keys for kind 'free': "
        "['rnak']\n")


@pytest.mark.parametrize("config,message", [
    ({**F2_MAGNUS, "group": {"kind": "free"}},
     "bad group descriptor: missing keys for kind 'free': ['rank']"),
    ({**Z2_IRR, "order": {"kind": "lex_pair", "trailing": {"kind": "magnus"}}},
     "bad order descriptor: missing keys for kind 'lex_pair': ['leading']"),
    ({**F2_MAGNUS, "order": {"kind": "magnus", "name": 5}},
     "bad order descriptor: 'name' must be a string, got 5"),
    # no command reads a top-level name
    ({**F2_MAGNUS, "name": "anything"}, "unknown config keys: ['name']"),
], ids=["group-key", "order-key", "name", "top-level-name"])
def test_descriptor_error_names_the_key(tmp_path, capsys, config, message):
    assert run_cli(tmp_path, {**config, "radius": 2}, "ray") == 3
    assert capsys.readouterr().err == f"error: {message}\n"


Z_F2 = {"kind": "product",
        "factors": [{"kind": "abelian", "rank": 1}, {"kind": "free", "rank": 2}]}
# each ball would exceed the cap below, so only a check made before the ball
# is built reports the bad input itself
SWAMP_CHECKED_FIRST = [
    ({**F2_MAGNUS, "width": 30, "search_radius": 5},
     "search radius must exceed r + 1"),
    ({**F2_MAGNUS, "width": -2}, "width must be non-negative"),
    ({"group": Z_F2,
      "order": {"kind": "lex_pair", "leading_factor": 0,
                "leading": {"kind": "hyperplane", "weights": [[1, 0]]},
                "trailing": {"kind": "magnus"}},
      "width": 1, "radius": 30},
     "the column swamp needs a free factor"),
    ({**F2XZ_F2_LEADING, "width": -1, "radius": 30},
     "width must be non-negative"),
]


@pytest.mark.parametrize("config,message", SWAMP_CHECKED_FIRST,
                         ids=["search-radius", "width", "free-factor",
                              "column-width"])
def test_swamp_checks_inputs_before_its_ball(tmp_path, capsys, monkeypatch,
                                             config, message):
    monkeypatch.setenv("CONESCOPE_CAP", "1000")
    assert run_cli(tmp_path, config, "swamp") == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_config_table_covers_every_command():
    from conescope.cli import COMMANDS
    assert {command for command, _ in MALFORMED} == set(COMMANDS)


@pytest.mark.parametrize("out", ["taken", "taken/reports"],
                         ids=["existing-file", "under-a-file"])
def test_unwritable_out_exit_3(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("not a directory\n")
    assert run_cli(tmp_path, {**F2_MAGNUS, "radius": 2}, "ray", out=out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write reports to ")
    assert "Traceback" not in err


def test_negative_cap_refused(tmp_path, capsys, monkeypatch):
    # a cap that is not an integer gets the same message
    for cap in ("-5", "abc", "1.5", ""):
        monkeypatch.setenv("CONESCOPE_CAP", cap)
        assert run_cli(tmp_path, {**F2_MAGNUS, "radius": 2}, "ray") == 3
        assert capsys.readouterr().err == (
            "error: CONESCOPE_CAP must be a non-negative integer\n")
    # a cap of 0 is valid: dfa-path enumerates no ball
    monkeypatch.setenv("CONESCOPE_CAP", "0")
    assert run_cli(tmp_path, {**Z2_DFA, "word": "ab"}, "dfa-path") == 0


def test_non_object_transitions_named(tmp_path, capsys):
    config = {**Z2_DFA, "radius": 1, "dfa": {**Z2_LEX_DFA, "transitions": []}}
    assert run_cli(tmp_path, config, "dfa-verify") == 3
    assert capsys.readouterr().err == ("error: bad DFA description: "
                                       "transitions must be an object of "
                                       "state rows\n")


def test_missing_dfa_keys_named(tmp_path, capsys):
    dfa = {k: v for k, v in Z2_LEX_DFA.items() if k not in ("transitions", "states")}
    config = {**Z2_DFA, "radius": 1, "dfa": dfa}
    assert run_cli(tmp_path, config, "dfa-verify") == 3
    assert capsys.readouterr().err == ("error: bad DFA description: missing "
                                       "keys: ['states', 'transitions']\n")


@pytest.mark.parametrize("command,config", [
    ("components", {**F2_MAGNUS, "radius": -1}),
    ("survey", {**F2_MAGNUS, "radii": [-1, 3]}),
])
def test_negative_radius_named_before_width(tmp_path, capsys, command, config):
    # as every other command names it, not as a width above the radius
    assert run_cli(tmp_path, config, command) == 3
    assert capsys.readouterr().err == "error: radius must be non-negative\n"


GHOST_ROW = {**Z2_LEX_DFA["transitions"], "ghost": {ch: "s0" for ch in "aAbB"}}
EXTRA_LETTER = {**Z2_LEX_DFA["transitions"],
                "s0": {**Z2_LEX_DFA["transitions"]["s0"], "z": "nowhere"}}


@pytest.mark.parametrize("command", ["dfa-verify", "dfa-path", "dfa-qg"])
@pytest.mark.parametrize("dfa,message", [
    ({**Z2_LEX_DFA, "transitions": GHOST_ROW},
     "transition rows ['ghost', 's0', 'sink', 'sx', 'sy+', 'sy-'] are not the "
     "states ['s0', 'sink', 'sx', 'sy+', 'sy-']"),
    ({**Z2_LEX_DFA, "transitions": EXTRA_LETTER},
     "the row of state 's0' reads ['A', 'B', 'a', 'b', 'z'], not the letters "
     "['a', 'A', 'b', 'B']"),
    ({**Z2_LEX_DFA, "initail": "s0"}, "unknown keys: ['initail']"),
], ids=["ghost-row", "extra-letter", "unknown-key"])
def test_dfa_keeps_only_what_it_reads(tmp_path, capsys, command, dfa, message):
    config = {**Z2_DFA, "radius": 1, "word": "a", "dfa": dfa}
    assert run_cli(tmp_path, config, command) == 3
    assert capsys.readouterr().err == f"error: bad DFA description: {message}\n"


@pytest.mark.parametrize("word", [1, True, None, ["a"]])
def test_dfa_path_word_must_be_a_string(tmp_path, capsys, word):
    # str() would read 1 as the empty word "1", true as "True", null as "None"
    config = {**Z2_DFA, "dfa": ALL_WORDS_DFA, "word": word}
    assert run_cli(tmp_path, config, "dfa-path") == 3
    assert capsys.readouterr().err == (
        "error: config key 'word' must be a string\n")


@pytest.mark.parametrize("pair", [[1, "a"], ["a", True], [None, "a"],
                                  [["a"], "a"]])
def test_cofinal_path_pair_must_hold_strings(tmp_path, capsys, pair):
    assert run_cli(tmp_path, {**F2XZ_Z_LEADING, "pair": pair},
                   "cofinal-path") == 3
    assert capsys.readouterr().err == (
        "error: config key 'pair' must be a list of two word strings\n")


def test_cofinal_path_refuses_pair_with_pairs(tmp_path, capsys):
    # one of them would be ignored without a word
    config = {**F2XZ_Z_LEADING, "pair": ["c", "cc"], "pairs": 2}
    assert run_cli(tmp_path, config, "cofinal-path") == 3
    assert capsys.readouterr().err == (
        "error: cofinal-path takes 'pair' or 'pairs', not both\n")
    assert not (tmp_path / "out" / "cofinal-path.report.json").exists()


@pytest.mark.parametrize("command", ["dfa-verify", "dfa-path", "dfa-qg"])
def test_dfa_letters_checked_against_the_group(tmp_path, capsys, command):
    # the Z^2 automaton reads b, which Z has not, even where the word is "a"
    config = {**Z2_DFA, "group": {"kind": "abelian", "rank": 1}, "radius": 1,
              "word": "a"}
    assert run_cli(tmp_path, config, command) == 3
    assert capsys.readouterr().err == (
        "error: letter 2 outside alphabet of rank 1\n")


# a descriptor that is not an object, nested inside a good one
NESTED_BAD = [
    ({**F2XZ_Z_LEADING, "group": {"kind": "product",
                                  "factors": [5, {"kind": "free", "rank": 2}]}},
     "error: bad group descriptor: not an object with a 'kind': 5\n"),
    ({**F2XZ_Z_LEADING, "order": {**F2XZ_Z_LEADING["order"], "leading": 5}},
     "error: bad order descriptor: not an object with a 'kind': 5\n"),
]


@pytest.mark.parametrize("config,line", NESTED_BAD, ids=["group", "order"])
def test_bad_descriptor_named_once(tmp_path, capsys, config, line):
    assert run_cli(tmp_path, {**config, "radius": 2}, "ray") == 3
    assert capsys.readouterr().err == line


def test_all_zero_hyperplane_weights_refused(tmp_path, capsys):
    config = {"group": {"kind": "abelian", "rank": 2}, "radius": 2,
              "order": {"kind": "hyperplane", "weights": [[0, 0], [0, 0]]}}
    assert run_cli(tmp_path, config, "ray") == 3
    assert capsys.readouterr().err == (
        "error: bad order descriptor: hyperplane weights are all zero\n")


def test_export_dot_width_0_labels_no_components(tmp_path):
    assert run_cli(tmp_path, {**F2_MAGNUS, "radius": 2, "width": 0},
                   "export-dot") == 0
    dot = (tmp_path / "out" / "ball.dot").read_text()
    assert dot.count("[label=") == 17
    assert dot.count("comp=-1") == 17


def test_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    from conescope.cli import Runner

    def broken(self):
        raise RuntimeError("boom")
    monkeypatch.setattr(Runner, "cmd_ray", broken)
    assert run_cli(tmp_path, {**F2_MAGNUS, "radius": 2}, "ray") == 4
    assert "RuntimeError: boom" in capsys.readouterr().err


def test_import_leaves_traceback_unloaded():
    # only the exit-4 path of main imports traceback
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, conescope.cli; print('traceback' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


KERNEL_CONFIGS = {
    "f2": F2_MAGNUS,
    "z2": Z2_IRR,
    "klein": {"group": {"kind": "klein"}, "order": {"kind": "klein"}},
    "f2xz-z": F2XZ_Z_LEADING,
    "f2xz-f2": F2XZ_F2_LEADING,
}
KERNEL_PARAMS = {"radius": 3, "width": 1, "radii": [2, 3], "search_radius": 5,
                 "pairs": 5, "seed": 3}
KERNEL_COMMANDS = ("axioms", "ray", "components", "swamp", "survey",
                   "cofinal-path", "export-dot")


# every command on every config, plus a product swamp wide enough to find
# its witnesses and run a real separation search
KERNEL_RUNS = [(name, command, {**base, **KERNEL_PARAMS})
               for name, base in KERNEL_CONFIGS.items()
               for command in KERNEL_COMMANDS]
KERNEL_RUNS.append(("f2xz-f2-r5", "swamp",
                    {**F2XZ_F2_LEADING, **KERNEL_PARAMS, "radius": 5}))
# the shipped automata on their groups, with an accepted word for dfa-path
KERNEL_DFAS = {"z2": (Z2_LEX_DFA, "aaaaaaBBBBBB"),
               "klein": (klein_cone_dfa().to_json(), "BBBBBBaaaaaa")}
KERNEL_RUNS += [(name, command, {**KERNEL_CONFIGS[name], **KERNEL_PARAMS,
                                 "dfa": dfa, "word": word})
                for name, (dfa, word) in KERNEL_DFAS.items()
                for command in ("dfa-verify", "dfa-path", "dfa-qg")]


def _kernel_reports(tmp_path, tag):
    """Exit code and report bytes of each of KERNEL_RUNS."""
    out = {}
    for name, command, config in KERNEL_RUNS:
        cfg = write_config(tmp_path, config, f"{name}-{command}.json")
        outdir = tmp_path / tag / name / command
        code = main(["--config", cfg, "--command", command,
                     "--out", str(outdir)])
        files = sorted(outdir.iterdir()) if outdir.exists() else []
        out[name, command] = (code, {f.name: f.read_bytes() for f in files})
    return out


def test_reports_identical_under_reference_kernel(tmp_path, monkeypatch):
    import conescope as cs
    monkeypatch.delenv("CONESCOPE_CAP", raising=False)
    fast = _kernel_reports(tmp_path, "fast")
    assert {code for code, _ in fast.values()} >= {0, 2}

    # key arithmetic replaced by normalising the concatenated or inverted
    # canonical words; letter steps and key distances fall back to the
    # defaults, which go through mul and inv
    def mul(self, a, b):
        return self.key_of(self.product_word(self.spell(a), self.spell(b)))

    def inv(self, a):
        return self.key_of(self.inverse_word(self.spell(a)))
    for cls in (cs.FreeGroup, cs.FreeAbelian, cs.KleinBottle, cs.DirectProduct):
        monkeypatch.setattr(cls, "mul", mul)
        monkeypatch.setattr(cls, "inv", inv)
        monkeypatch.setattr(cls, "letter_steps", cs.GroupModel.letter_steps)
        monkeypatch.setattr(cls, "key_distance", cs.GroupModel.key_distance)
    reference = _kernel_reports(tmp_path, "reference")
    assert fast == reference
