"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
check is exact (integer arithmetic and structural certificates), so there
are no tolerances to tune.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

import conescope as cs
from conescope.geometry import Verdict, product_column_swamp


def _line(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")
    return ok


@pytest.fixture(scope="module")
def oracles():
    f2 = cs.FreeGroup(2)
    z2 = cs.FreeAbelian(2)
    z1 = cs.FreeAbelian(1)
    klein = cs.KleinBottle()
    magnus = cs.magnus_order(f2)
    irrational = cs.hyperplane_order(z2, cs.sqrt2_weights(),
                                     name="hyperplane-irrational")
    lex_tie = cs.hyperplane_order(z2, [(1, 0), (0, 0)], name="hyperplane-lex")
    klein_o = cs.klein_order(klein)
    z_natural = cs.hyperplane_order(z1, [(1, 0)], name="z-natural")
    f2_leading = cs.lex_pair_sign(magnus, z_natural, leading_factor=0,
                                  name="f2-leading")
    z_leading = cs.lex_pair_sign(z_natural, magnus, leading_factor=1,
                                 name="z-leading")
    return {
        "f2": f2, "z2": z2, "klein": klein,
        "magnus": magnus, "irrational": irrational, "lex_tie": lex_tie,
        "klein_o": klein_o, "f2_leading": f2_leading, "z_leading": z_leading,
    }


def test_criterion_1_order_axioms(oracles):
    started = time.monotonic()
    cases = [(oracles["magnus"], 5, 485),
             (oracles["irrational"], 6, None),
             (oracles["klein_o"], 6, None),
             (oracles["f2_leading"], 4, None),
             (oracles["z_leading"], 4, None)]
    reports = []
    for oracle, radius, expected_count in cases:
        report = cs.verify_order_axioms(oracle, radius)
        reports.append(report)
        if expected_count is not None:
            assert report.checked == expected_count
    elapsed = time.monotonic() - started
    ok = all(r.passed for r in reports) and elapsed < 10.0
    assert _line(1, "order-axioms", ok,
                 f"5 oracles exhaustive, {elapsed:.2f}s < 10s")
    for report in reports:
        assert report.passed, report.summary()
    assert elapsed < 10.0


def test_criterion_2_maxima_ray(oracles):
    cases = [(oracles["magnus"], 5), (oracles["irrational"], 6),
             (oracles["klein_o"], 6), (oracles["f2_leading"], 6),
             (oracles["z_leading"], 6)]
    reports = [cs.verify_maxima_ray(oracle, depth) for oracle, depth in cases]
    ok = all(r.passed for r in reports)
    assert _line(2, "maxima-ray", ok, "geodesic + negative-ball, exact")
    for report in reports:
        assert report.passed, report.summary()


def test_criterion_3_hucha_certificates(oracles):
    magnus, f2 = oracles["magnus"], oracles["f2"]
    expected_sizes = {1: 5, 2: 17, 3: 53}
    ok = True
    details = []
    for r, size in expected_sizes.items():
        cert = cs.tree_swamp_certificate(magnus, r)
        assert cert.verdict is Verdict.CERTIFIED_TREE
        assert len(cert.swamp) == size
        assert len(f2.ball(r)) == size     # BFS cross-check
        result = cs.verify_separation(cert)
        assert result.verdict is Verdict.CERTIFIED_TREE
        paths = cs.sample_tree_paths(cert, 100, seed=2026_03 + r)
        hits = sum(1 for path in paths
                   if any(p in cert.swamp for p in path.points))
        details.append(f"r={r}:|S|={size},paths {hits}/100")
        ok = ok and hits == 100
        assert hits == 100
    assert _line(3, "hucha-free-group", ok, "; ".join(details))


def test_criterion_4_prieto_plane(oracles):
    ok = True
    details = []
    for name in ("irrational", "lex_tie"):
        report = cs.connectivity_survey(oracles[name], 1, [2, 4, 6])
        details.append(f"{name}:{report.counts}")
        ok = ok and report.counts == (1, 1, 1) \
            and report.classification is cs.SurveyClass.PRIETO_CONSISTENT
    assert _line(4, "prieto-plane", ok, "; ".join(details))


def test_criterion_5_product_dichotomy(oracles):
    z_leading = oracles["z_leading"]
    f2_leading = oracles["f2_leading"]

    counts = tuple(cs.r_components(z_leading, 1, R).count for R in (3, 4, 5))

    rng = random.Random(50_2026)
    positives = z_leading.positives(z_leading.model.ball(4))
    path_failures = 0
    for _ in range(50):
        g, h = rng.choice(positives), rng.choice(positives)
        path = cs.cofinal_positive_path(z_leading, g, h)
        if not all(z_leading.is_positive(p) for p in path.points):
            path_failures += 1

    f2_lead_count = cs.r_components(f2_leading, 1, 5).count
    survey = cs.connectivity_survey(f2_leading, 1, [3, 4, 5])
    evidence_ok = (f2_lead_count >= 2 and survey.classification
                   is cs.SurveyClass.DISCONNECTION_EVIDENCE)

    clause_a = counts == (1, 1, 1)
    clause_b = path_failures == 0
    _line(5, "f2xz-dichotomy", clause_a and clause_b and evidence_ok,
          f"z-leading r=1 counts {counts} (stated: (1, 1, 1)); "
          f"cofinal paths {50 - path_failures}/50; "
          f"f2-leading components {f2_lead_count} >= 2 with evidence verdict")

    assert clause_b, "cofinal path positivity failed"
    assert evidence_ok, "f2-leading disconnection evidence failed"
    # The pinned target is a single component at width 1. The computed
    # truth is (3, 7, 18): ball-boundary positives like (a^-1 b a, z^0)
    # are stranded because their only shorter neighbor is negative and
    # every other neighbor leaves the ball; reconnecting z-ladders need
    # width 2, where the counts are (1, 1, 1).
    assert clause_a, (
        f"z-leading r=1 component counts are {counts}, not (1, 1, 1)")


def test_criterion_6_regular_cones(oracles):
    z2, klein = oracles["z2"], oracles["klein"]
    zdfa, kdfa = cs.z2_lex_cone_dfa(), cs.klein_cone_dfa()

    z_report = cs.verify_cone_dfa(zdfa, z2, 4, 16)
    k_report = cs.verify_cone_dfa(kdfa, klein, 4, 16)
    assert z_report.verdict == "PASS" and k_report.verdict == "PASS"

    z_expected = {g for g in z2.ball(4).sorted_elements()
                  if oracles["lex_tie"].is_positive(g)}
    k_expected = {g for g in klein.ball(4).sorted_elements()
                  if oracles["klein_o"].is_positive(g)}
    agree = (set(z_report.in_ball) == z_expected
             and set(k_report.in_ball) == k_expected)

    max_gap = 0
    words_checked = 0
    for dfa, model in ((zdfa, z2), (kdfa, klein)):
        bound = cs.connectivity_radius(dfa)
        sample = cs.language_sample(dfa, model, 8)
        for word in sample.words:
            path = cs.regular_interpolation(dfa, model, word)
            gap = max(path.gaps(), default=0)
            max_gap = max(max_gap, gap)
            words_checked += 1
            assert gap <= bound
    ok = agree and max_gap <= 11
    assert _line(6, "regular-cones", ok,
                 f"both PASS at R=4 Lmax=16, IN-sets agree, "
                 f"{words_checked} interpolations with gaps <= 11")
    assert agree


def test_criterion_7_no_regular_cone_on_f2(oracles):
    f2 = oracles["f2"]
    rng = random.Random(20260808)
    fail_count = 0
    unknown_only = 0
    ever_passed_all = 0
    for _ in range(200):
        dfa = cs.random_dfa(rng, max_states=4)
        verdicts = []
        for radius in (1, 2, 3, 4):
            try:
                report = cs.verify_cone_dfa(dfa, f2, radius, 4 * radius)
            except cs.CapExceeded:
                verdicts.append("BUDGET")
                break
            verdicts.append(report.verdict)
            if report.verdict == "FAIL":
                break
        if "FAIL" in verdicts:
            fail_count += 1
        else:
            unknown_only += 1
        if len(verdicts) == 4 and all(v == "PASS" for v in verdicts):
            ever_passed_all += 1
    ok = ever_passed_all == 0
    assert _line(7, "no-regular-cone-f2", ok,
                 f"200 random DFAs: {fail_count} hard-FAIL, "
                 f"{unknown_only} never classify (thin or empty language), "
                 f"0 PASS at every tested R <= 4; statistical demonstration")
    assert ever_passed_all == 0
    # the overwhelming majority must be refuted outright
    assert fail_count >= 140


def test_criterion_8_quasigeodesic(oracles):
    z2, f2 = oracles["z2"], oracles["f2"]
    zdfa = cs.z2_lex_cone_dfa()
    ok_pass = cs.quasigeodesic_check(zdfa, z2, 1, 0, 8).verdict == "PASS"

    backtrack = cs.ConeDfa(
        states=("s0", "s1", "s2", "sink"), initial="s0",
        accepting=frozenset({"s1"}),
        alphabet=cs.GeneratorAlphabet(2),
        transitions={
            "s0": {"a": "s1", "A": "sink", "b": "sink", "B": "sink"},
            "s1": {"a": "sink", "A": "s2", "b": "sink", "B": "sink"},
            "s2": {"a": "s1", "A": "sink", "b": "sink", "B": "sink"},
            "sink": {"a": "sink", "A": "sink", "b": "sink", "B": "sink"},
        })
    report = cs.quasigeodesic_check(backtrack, f2, 1, 0, 8)
    first_violation_ok = (report.verdict == "FAIL"
                          and report.violation == ("aAa", 0, 2, 0))
    ok = ok_pass and first_violation_ok
    assert _line(8, "quasigeodesic", ok,
                 "lex automaton PASS at (1,0); backtracker fails at the "
                 f"first prefix pair {report.violation}")
    assert ok_pass and first_violation_ok


def test_criterion_9_determinism(tmp_path, oracles):
    config = {
        "group": {"kind": "free", "rank": 2},
        "order": {"kind": "magnus"},
        "radius": 3,
        "width": 1,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    blobs = []
    # two plain runs, each under a random hash seed, and one under a set seed
    for tag, hash_seed in (("one", None), ("two", None), ("seed", "12345")):
        outdir = tmp_path / tag
        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        if hash_seed:
            env["PYTHONHASHSEED"] = hash_seed
        for command in ("components", "export-dot"):
            proc = subprocess.run(
                [sys.executable, "-m", "conescope.cli", "--config", str(cfg),
                 "--command", command, "--out", str(outdir)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        blobs.append(tuple(
            (outdir / name).read_bytes()
            for name in ("components.report.json", "export-dot.report.json",
                         "ball.dot")))
    ok = blobs[0] == blobs[1] == blobs[2]
    assert _line(9, "determinism", ok,
                 "reports byte-identical across two runs and a set hash "
                 "seed")
    assert ok


def test_library_level_determinism():
    """Same partition and DOT from a fresh model and one grown in steps."""
    def oracles():
        return (cs.magnus_order(cs.FreeGroup(2)),
                cs.hyperplane_order(cs.FreeAbelian(2), cs.sqrt2_weights(),
                                    name="hyperplane-irrational"))
    (magnus, irrational), stepped = oracles(), oracles()
    for oracle in stepped:
        for radius in (2, 0, 5):
            oracle.model.ball(radius)
    assert (cs.r_components(magnus, 1, 5)
            == cs.r_components(stepped[0], 1, 5))
    assert (cs.export_dot(irrational, 1, 3)
            == cs.export_dot(stepped[1], 1, 3))
