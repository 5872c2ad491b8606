import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import conescope as cs
from conescope import automata
from conescope.words import GeneratorAlphabet, format_word

from test_groups import bfs_depths


@pytest.fixture(scope="module")
def zdfa():
    return cs.z2_lex_cone_dfa()


@pytest.fixture(scope="module")
def kdfa():
    return cs.klein_cone_dfa()


def all_accepting_f2_dfa():
    return cs.ConeDfa(
        states=("s",), initial="s", accepting=frozenset({"s"}),
        alphabet=GeneratorAlphabet(2),
        transitions={"s": {"a": "s", "A": "s", "b": "s", "B": "s"}})


def backtracking_dfa():
    """Accepts (a a^-1)* a: every longer word backtracks."""
    return cs.ConeDfa(
        states=("s0", "s1", "s2", "sink"), initial="s0",
        accepting=frozenset({"s1"}),
        alphabet=GeneratorAlphabet(2),
        transitions={
            "s0": {"a": "s1", "A": "sink", "b": "sink", "B": "sink"},
            "s1": {"a": "sink", "A": "s2", "b": "sink", "B": "sink"},
            "s2": {"a": "s1", "A": "sink", "b": "sink", "B": "sink"},
            "sink": {"a": "sink", "A": "sink", "b": "sink", "B": "sink"},
        })


# -- construction and runs ------------------------------------------------------

def test_dfa_validation_catches_gaps():
    with pytest.raises(ValueError):
        cs.ConeDfa(states=("s",), initial="s", accepting=frozenset({"s"}),
                   alphabet=GeneratorAlphabet(2),
                   transitions={"s": {"a": "s", "A": "s", "b": "s"}})
    with pytest.raises(ValueError):
        cs.ConeDfa(states=("s",), initial="t", accepting=frozenset(),
                   alphabet=GeneratorAlphabet(1),
                   transitions={"s": {"a": "s", "A": "s"}})


def test_dfa_run_examples(zdfa, z2):
    state, accepted = cs.dfa_run(zdfa, ())
    assert state == "s0" and not accepted
    _, accepted = cs.dfa_run(zdfa, z2.element("a").word)
    assert accepted
    state, accepted = cs.dfa_run(zdfa, z2.element("A").word)
    assert state == "sink" and not accepted
    with pytest.raises(cs.UnknownLetter):
        cs.dfa_run(zdfa, (3,))


def test_dfa_run_empty_word_rule():
    dfa = all_accepting_f2_dfa()
    state, accepted = cs.dfa_run(dfa, ())
    assert state == dfa.initial and accepted


# -- completions ------------------------------------------------------------------

def test_prefix_completion_examples(zdfa):
    assert zdfa.completions["sx"] == ()
    # BFS with the fixed letter order: "x" is the first shortest completion
    assert zdfa.completions["s0"] == (1,)
    assert zdfa.completions["sink"] is None


def test_prefix_completion_length_bound(zdfa, kdfa):
    for dfa in (zdfa, kdfa, backtracking_dfa(), all_accepting_f2_dfa()):
        for state in dfa.states:
            completion = dfa.completions[state]
            if completion is not None:
                assert len(completion) <= dfa.size() - 1


def test_prefix_completion_tie_break_by_letter_order():
    # both b and a complete in one step; the letter order picks a
    dfa = cs.ConeDfa(
        states=("s", "t", "u"), initial="s", accepting=frozenset({"t", "u"}),
        alphabet=GeneratorAlphabet(1),
        transitions={"s": {"a": "t", "A": "u"},
                     "t": {"a": "t", "A": "t"},
                     "u": {"a": "u", "A": "u"}})
    assert dfa.completions["s"] == (1,)


def brute_completion(dfa, state):
    """The first word of length <= |S| - 1, in shortlex order, that leads
    from the state to acceptance, or None."""
    for n in range(dfa.size()):
        for word in itertools.product(dfa.alphabet.letters, repeat=n):
            end = state
            for letter in word:
                end = dfa.table[end][letter]
            if end in dfa.accepting:
                return word
    return None


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6), max_states=st.integers(1, 5),
       rank=st.integers(1, 3))
def test_prefix_completion_matches_brute_force(seed, max_states, rank):
    dfa = cs.random_dfa(random.Random(seed), max_states=max_states, rank=rank)
    for state in dfa.states:
        assert dfa.completions[state] == brute_completion(dfa, state)


# -- connectivity radius -------------------------------------------------------------

def test_connectivity_radius(zdfa, kdfa):
    assert cs.connectivity_radius(zdfa) == 11
    assert cs.connectivity_radius(kdfa) == 11
    assert cs.connectivity_radius(all_accepting_f2_dfa()) == 3


# -- interpolation ----------------------------------------------------------------------

def test_interpolation_single_letter(zdfa, z2):
    path = cs.regular_interpolation(zdfa, z2, z2.element("a").word)
    assert [str(p) for p in path.points] == ["1", "a"]


def test_interpolation_xyy(zdfa, z2):
    path = cs.regular_interpolation(zdfa, z2, (1, 2, 2))
    assert len(path.points) <= 4
    assert path.points[-1] == z2.element("abb")
    assert max(path.gaps()) <= 11


def test_interpolation_rejects(zdfa, z2):
    with pytest.raises(cs.NotAccepted):
        cs.regular_interpolation(zdfa, z2, (-1,))


def test_interpolation_all_accepting_is_prefix_walk(f2):
    dfa = all_accepting_f2_dfa()
    word = (1, 2, -1)
    path = cs.regular_interpolation(dfa, f2, word)
    assert path.points[-1] == f2.element("abA")
    assert max(path.gaps()) <= 3


def test_interpolation_soundness_all_short_words(zdfa, kdfa, z2, klein):
    # every accepted word of length <= 10: gaps within 2|S|+1 and every
    # interior point re-verifies membership in ev(L)
    for dfa, model in ((zdfa, z2), (kdfa, klein)):
        bound = cs.connectivity_radius(dfa)
        sample = cs.language_sample(dfa, model, 10)
        membership = set(sample.evaluations)
        for word in sample.words:
            path = cs.regular_interpolation(dfa, model, word)
            assert max(path.gaps(), default=0) <= bound
            for point in path.points[1:]:
                assert point in membership


def definitional_points(dfa, model, word):
    """Interpolation points straight from the definition: each prefix
    followed by its shortest completion, normalised from scratch."""
    points = [model.identity()]
    state = dfa.initial
    for i in range(len(word) + 1):
        point = model.normal_form(word[:i] + brute_completion(dfa, state))
        if point != points[-1]:
            points.append(point)
        if i < len(word):
            state = dfa.table[state][word[i]]
    return points


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       model=st.sampled_from([cs.FreeAbelian(2), cs.KleinBottle(), cs.FreeGroup(2)]),
       dfa=st.one_of(
           st.sampled_from([cs.z2_lex_cone_dfa(), cs.klein_cone_dfa()]),
           st.integers(0, 10**6).map(
               lambda seed: cs.random_dfa(random.Random(seed), max_states=5))))
def test_interpolation_matches_definition(data, model, dfa):
    # a random walk through live states, then the completion of its end
    live = {s for s in dfa.states if brute_completion(dfa, s) is not None}
    assume(dfa.initial in live)
    word, state = [], dfa.initial
    for choice in data.draw(st.lists(st.integers(0, 3), max_size=40)):
        options = [l for l in dfa.alphabet.letters if dfa.table[state][l] in live]
        if not options:
            break
        word.append(options[choice % len(options)])
        state = dfa.table[state][word[-1]]
    word = tuple(word) + brute_completion(dfa, state)
    path = cs.regular_interpolation(dfa, model, word)
    assert list(path.points) == definitional_points(dfa, model, word)


def test_interpolation_runs_the_word_once(zdfa, monkeypatch):
    model = cs.FreeAbelian(2)  # fresh, so nothing is normalised before
    word = (1,) * 100 + (-2,) * 100
    runs, forms = [], []
    run, normal_form = automata.dfa_run, cs.GroupModel.normal_form

    def counted_run(*args):
        runs.append(args)
        return run(*args)

    def counted_normal_form(self, w):
        forms.append(w)
        return normal_form(self, w)
    monkeypatch.setattr(automata, "dfa_run", counted_run)
    monkeypatch.setattr(cs.GroupModel, "normal_form", counted_normal_form)
    path = cs.regular_interpolation(zdfa, model, word)
    assert len(runs) == 1
    assert len(forms) <= zdfa.size() + 2 * model.alphabet.rank
    assert path.points[-1] == model.element("a" * 100 + "B" * 100)


# -- language samples ----------------------------------------------------------------------

def test_language_sample_matches_brute_force(zdfa, kdfa, z2, klein):
    for dfa, model in ((zdfa, z2), (kdfa, klein)):
        sample = cs.language_sample(dfa, model, 5)
        expected = []
        letters = model.alphabet.letters
        for n in range(6):
            for combo in itertools.product(letters, repeat=n):
                if cs.dfa_run(dfa, combo)[1]:
                    expected.append(combo)
        assert sorted(sample.words) == sorted(expected)


def test_language_sample_evaluations(kdfa, klein):
    sample = cs.language_sample(kdfa, klein, 6)
    for element, words in sample.evaluations.items():
        for word in words:
            assert klein.normal_form(word) == element
            assert cs.dfa_run(kdfa, word)[1]


def test_language_sample_cap(monkeypatch):
    monkeypatch.setattr(automata, "DEFAULT_WORD_CAP", 100)
    with pytest.raises(cs.CapExceeded) as caught:
        cs.language_sample(all_accepting_f2_dfa(), cs.FreeGroup(2), 10)
    # the error names its phase and the count that crossed the cap
    assert (caught.value.reached, caught.value.cap) == (101, 100)
    assert "language enumeration reached 101 nodes" in str(caught.value)


# -- cone verification ------------------------------------------------------------------------

def test_verify_cone_z2_lex(zdfa, z2, hyper_lex):
    report = cs.verify_cone_dfa(zdfa, z2, 3, 12)
    assert report.verdict == "PASS"
    report4 = cs.verify_cone_dfa(zdfa, z2, 4, 16)
    assert report4.verdict == "PASS"
    # IN-set agrees elementwise with the lex hyperplane cone
    expected = {g for g in z2.ball(4).sorted_elements()
                if hyper_lex.is_positive(g)}
    assert set(report4.in_ball) == expected


def test_verify_cone_matches_hyperplane_lex_up_to_radius_5(zdfa, z2, hyper_lex):
    report = cs.verify_cone_dfa(zdfa, z2, 5, 20)
    assert report.verdict == "PASS"
    expected = {g for g in z2.ball(5).sorted_elements()
                if hyper_lex.is_positive(g)}
    assert set(report.in_ball) == expected


def test_verify_cone_klein(kdfa, klein, klein_oracle):
    report = cs.verify_cone_dfa(kdfa, klein, 4, 16)
    assert report.verdict == "PASS"
    expected = {g for g in klein.ball(4).sorted_elements()
                if klein_oracle.is_positive(g)}
    assert set(report.in_ball) == expected


def test_verify_cone_all_accepting_fails(f2):
    report = cs.verify_cone_dfa(all_accepting_f2_dfa(), f2, 1, 4)
    assert report.verdict == "FAIL"
    kinds = {c[0] for c in report.counterexamples}
    assert "both-in" in kinds
    assert "identity-in" in kinds


def test_verify_cone_unknown_when_language_too_thin(z2):
    # accepts only the single word "x": everything else stays unresolved
    dfa = cs.ConeDfa(
        states=("s0", "s1", "sink"), initial="s0",
        accepting=frozenset({"s1"}),
        alphabet=GeneratorAlphabet(2),
        transitions={
            "s0": {"a": "s1", "A": "sink", "b": "sink", "B": "sink"},
            "s1": {"a": "sink", "A": "sink", "b": "sink", "B": "sink"},
            "sink": {"a": "sink", "A": "sink", "b": "sink", "B": "sink"},
        })
    report = cs.verify_cone_dfa(dfa, z2, 2, 8)
    assert report.verdict == "UNKNOWN"
    assert report.unresolved


def test_reachable_evaluations_matches_language_sample(kdfa, klein):
    # the (state, key) walk against enumerating the words and evaluating
    # them: the shipped Klein automaton, and seeded random ones
    cases = [(kdfa, klein, 6)] + [
        (cs.random_dfa(random.Random(seed)), model, lmax) for seed in range(6)
        for model in (cs.FreeGroup(2), cs.FreeAbelian(2), klein)
        for lmax in range(7)]
    for dfa, model, lmax in cases:
        reached = cs.reachable_evaluations(dfa, model, lmax)
        sample = cs.language_sample(dfa, model, lmax)
        assert reached == {g.key for g in sample.evaluations}


def test_verify_cone_calls_reachable_evaluations_once(kdfa, klein, monkeypatch):
    # the benchmark's traced run wraps the module attribute by name
    results = []
    reachable = automata.reachable_evaluations

    def counted(*args):
        results.append(reachable(*args))
        return results[-1]
    monkeypatch.setattr(automata, "reachable_evaluations", counted)
    report = cs.verify_cone_dfa(kdfa, klein, 3)
    assert len(results) == 1
    assert report.in_ball and {g.key for g in report.in_ball} <= results[0]


def test_verify_cone_node_cap(f2, monkeypatch):
    monkeypatch.setattr(automata, "DEFAULT_NODE_CAP", 50)
    with pytest.raises(cs.CapExceeded):
        cs.verify_cone_dfa(all_accepting_f2_dfa(), f2, 2, 8)
    with pytest.raises(cs.CapExceeded) as caught:
        cs.reachable_evaluations(all_accepting_f2_dfa(), f2, 8)
    # the error names its phase and the count that crossed the cap
    assert (caught.value.reached, caught.value.cap) == (51, 50)
    assert "state-element reachability reached 51 nodes" in str(caught.value)


# -- quasigeodesic checks -----------------------------------------------------------------------

def test_quasigeodesic_z2_lex(zdfa, z2):
    report = cs.quasigeodesic_check(zdfa, z2, 1, 0, 8)
    assert report.verdict == "PASS"


def test_quasigeodesic_backtracking_fails(f2):
    report = cs.quasigeodesic_check(backtracking_dfa(), f2, 1, 0, 8)
    assert report.verdict == "FAIL"
    word, i, j, dist = report.violation
    # first violating prefix pair: the a a^-1 backtrack gives distance 0
    assert word == "aAa"
    assert (j - i) > dist


def test_quasigeodesic_klein(kdfa, klein):
    # normal forms b^n a^m are geodesic in the Klein bottle group
    report = cs.quasigeodesic_check(kdfa, klein, 1, 0, 8)
    assert report.verdict == "PASS"


def test_quasigeodesic_loose_constants_pass(f2):
    report = cs.quasigeodesic_check(backtracking_dfa(), f2, 3, 2, 7)
    assert report.verdict == "PASS"


def test_quasigeodesic_normalises_no_sampled_word(zdfa, monkeypatch):
    model = cs.FreeAbelian(2)  # fresh, so nothing is normalised before
    forms = []
    normal_form = cs.GroupModel.normal_form

    def counted_normal_form(self, w):
        forms.append(w)
        return normal_form(self, w)
    monkeypatch.setattr(cs.GroupModel, "normal_form", counted_normal_form)
    report = cs.quasigeodesic_check(zdfa, model, 1, 0, 8)
    assert report.verdict == "PASS"
    # the infixes grow by letter steps, which Z^2 takes on exponents
    assert forms == []


def cubic_quasigeodesic(dfa, model, lam, c, max_length):
    """The reference check: every infix normalised from scratch and compared
    through fractions. Returns (verdict, violation)."""
    lam, c = Fraction(lam), Fraction(c)
    sample = cs.language_sample(dfa, model, max_length)
    depths = bfs_depths(model.ball(max_length))
    for word in sample.words:
        n = len(word)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                dist = depths[model.normal_form(word[i:j])]
                if Fraction(j - i) / lam - c > dist:
                    return "FAIL", (format_word(word), i, j, dist)
    return "PASS", None


QG_CONSTANTS = [(1, 0), (1, 1), (Fraction(3, 2), 0), (Fraction(4, 3), Fraction(1, 2)),
                (2, 1), (3, 2)]


def test_quasigeodesic_matches_cubic_reference_on_shipped(zdfa, kdfa, z2, klein, f2):
    verdicts = set()
    for dfa, model in ((zdfa, z2), (kdfa, klein), (zdfa, f2),
                       (backtracking_dfa(), f2), (all_accepting_f2_dfa(), f2)):
        for lam, c in QG_CONSTANTS:
            report = cs.quasigeodesic_check(dfa, model, lam, c, 6)
            expected = cubic_quasigeodesic(dfa, model, lam, c, 6)
            assert (report.verdict, report.violation) == expected
            verdicts.add(report.verdict)
    assert verdicts == {"PASS", "FAIL"}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6),
       model=st.sampled_from([cs.FreeGroup(2), cs.FreeAbelian(2), cs.KleinBottle()]),
       lam=st.fractions(1, 3, max_denominator=3),
       c=st.fractions(0, 2, max_denominator=3))
def test_quasigeodesic_matches_cubic_reference_on_random_dfas(seed, model, lam, c):
    dfa = cs.random_dfa(random.Random(seed))
    report = cs.quasigeodesic_check(dfa, model, lam, c, 5)
    expected = cubic_quasigeodesic(dfa, model, lam, c, 5)
    assert (report.verdict, report.violation) == expected


def test_klein_normal_forms_are_geodesic(klein):
    # |b^n a^m| = |n| + |m|: cross-check canonical length against BFS
    for g, d in bfs_depths(klein.ball(6)).items():
        assert len(g.word) == d


# -- JSON round trip ------------------------------------------------------------------------------

def test_dfa_json_round_trip(zdfa, kdfa):
    for dfa in (zdfa, kdfa):
        data = json.loads(json.dumps(dfa.to_json()))
        again = cs.ConeDfa.from_json(data)
        assert again.to_json() == dfa.to_json()


def test_dfa_json_rejects_bad_alphabet(zdfa):
    data = zdfa.to_json()
    data["alphabet"] = "xy"
    with pytest.raises(ValueError):
        cs.ConeDfa.from_json(data)


@pytest.mark.parametrize("edit,message", [
    # a row for no state, and an entry for no letter, used to be kept and
    # echoed by to_json
    (lambda d: d["transitions"].update(ghost=dict(d["transitions"]["s0"])),
     "transition rows .* are not the states"),
    (lambda d: d["transitions"]["s0"].update(z="nowhere"),
     r"the row of state 's0' reads \['A', 'B', 'a', 'b', 'z'\]"),
    (lambda d: d["transitions"].pop("sink"),
     "transition rows .* are not the states"),
    (lambda d: d["transitions"]["sx"].pop("B"),
     r"the row of state 'sx' reads \['A', 'a', 'b'\]"),
    (lambda d: d.update(inital="s0"), r"unknown keys: \['inital'\]"),
], ids=["ghost-row", "extra-letter", "missing-row", "missing-letter",
        "unknown-key"])
def test_dfa_json_reads_exactly_the_states_and_letters(zdfa, edit, message):
    data = zdfa.to_json()
    edit(data)
    with pytest.raises(ValueError, match=message):
        cs.ConeDfa.from_json(data)


def test_dfa_keeps_one_letter_table(kdfa):
    # the rows are read into one table keyed by letter; JSON spells them back
    assert not hasattr(kdfa, "transitions")
    assert kdfa.table["s0"] == {1: "sa", -1: "sink", 2: "sb+", -2: "sb-"}
    assert list(kdfa.to_json()["transitions"]["s0"].items()) == \
        [("A", "sink"), ("B", "sb-"), ("a", "sa"), ("b", "sb+")]


# -- random DFA demonstration ------------------------------------------------------------------

def test_random_dfas_never_verify_on_free_group(f2):
    rng = random.Random(20260808)
    passes = 0
    for _ in range(40):
        dfa = cs.random_dfa(rng)
        verdicts = []
        for radius in (1, 2):
            report = cs.verify_cone_dfa(dfa, f2, radius, 4 * radius)
            verdicts.append(report.verdict)
        assert "PASS" not in verdicts or verdicts.count("PASS") < len(verdicts)
        if all(v == "PASS" for v in verdicts):
            passes += 1
    assert passes == 0
