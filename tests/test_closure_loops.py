"""The closure loops of verify_order_axioms and verify_cone_dfa against
Element-level references: whole reports, failure tuples in order."""

import pytest

import conescope as cs
from conescope.words import GeneratorAlphabet

from test_automata import all_accepting_f2_dfa


# -- references: every pair through Element arithmetic --------------------------

def reference_order_axioms(oracle, radius):
    ball = oracle.model.ball(radius)
    partition_failures = []
    identity_failures = []
    closure_failures = []

    signs = {}
    for g in ball.sorted_elements():
        signs[g] = oracle.sign(g)

    identity = oracle.model.identity()
    if signs[identity] is not cs.Sign.IDENTITY:
        identity_failures.append((str(identity), signs[identity].value))

    seen = set()
    for g in ball.sorted_elements():
        if g.is_identity() or g in seen:
            continue
        inv = g.inverse()
        seen.add(g)
        seen.add(inv)
        sg, si = signs[g], signs[inv]
        positives = [s for s in (sg, si) if s is cs.Sign.POSITIVE]
        if len(positives) != 1 or cs.Sign.IDENTITY in (sg, si):
            partition_failures.append((str(g), sg.value, str(inv), si.value))

    positives_list = [g for g in ball.sorted_elements()
                      if signs[g] is cs.Sign.POSITIVE]
    for g in positives_list:
        for h in positives_list:
            product = g * h
            if product in ball.members and signs[product] is not cs.Sign.POSITIVE:
                closure_failures.append((str(g), str(h), str(product),
                                         signs[product].value))

    return cs.AxiomReport(
        oracle_name=oracle.name, radius=radius, checked=len(ball),
        partition_failures=tuple(partition_failures),
        identity_failures=tuple(identity_failures),
        closure_failures=tuple(closure_failures))


def reference_cone_dfa(dfa, model, radius, max_length):
    ball = model.ball(radius)
    reached = cs.reachable_evaluations(dfa, model, max_length)

    counterexamples = []
    identity = model.identity()
    if identity in reached:
        counterexamples.append(("identity-in", str(identity)))

    in_ball = [g for g in ball.sorted_elements()
               if not g.is_identity() and g in reached]
    unresolved = []
    seen = set()
    for g in ball.sorted_elements():
        if g.is_identity() or g in seen:
            continue
        inv = g.inverse()
        seen.add(g)
        seen.add(inv)
        gin, iin = g in reached, inv in reached
        if gin and iin:
            counterexamples.append(("both-in", str(g), str(inv)))
        elif not gin and not iin:
            unresolved.append(g)

    unresolved_products = []
    for g in in_ball:
        for h in in_ball:
            product = g * h
            if product not in ball.members:
                continue
            if product.is_identity():
                continue
            if product.inverse() in reached and product not in reached:
                counterexamples.append(
                    ("product-negative", str(g), str(h), str(product)))
            elif product not in reached:
                unresolved_products.append((str(g), str(h), str(product)))

    if counterexamples:
        verdict = "FAIL"
    elif unresolved or unresolved_products:
        verdict = "UNKNOWN"
    else:
        verdict = "PASS"
    return cs.ConeDfaReport(
        verdict=verdict, radius=radius, max_length=max_length,
        in_ball=tuple(in_ball), unresolved=tuple(unresolved),
        counterexamples=tuple(counterexamples),
        unresolved_products=tuple(unresolved_products))


# -- cases ------------------------------------------------------------------------

def all_positive_f2():
    return cs.OrderOracle(name="all-positive", model=cs.FreeGroup(2),
                          sign_fn=lambda g: cs.Sign.POSITIVE)


def cubic_z2():
    """Antisymmetric on Z^2 (an odd cubic, lex tie-break) but not closed."""
    def sign_fn(g):
        x, y = g.key
        for value in (x ** 3 - 3 * x * y * y + y, x, y):
            if value:
                return cs.Sign.POSITIVE if value > 0 else cs.Sign.NEGATIVE
        return cs.Sign.IDENTITY
    return cs.OrderOracle(name="cubic", model=cs.FreeAbelian(2),
                          sign_fn=sign_fn)


def a_or_aa_dfa():
    """Accepts exactly the words a and AA."""
    sink = {"a": "sink", "A": "sink", "b": "sink", "B": "sink"}
    return cs.ConeDfa(
        states=("s0", "a", "A", "AA", "sink"), initial="s0",
        accepting=frozenset({"a", "AA"}),
        alphabet=GeneratorAlphabet(2),
        transitions={
            "s0": {"a": "a", "A": "A", "b": "sink", "B": "sink"},
            "a": dict(sink),
            "A": {"a": "sink", "A": "AA", "b": "sink", "B": "sink"},
            "AA": dict(sink),
            "sink": dict(sink),
        })


def axiom_cases():
    f2xz = cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1)))
    magnus = cs.magnus_order(f2xz.factors[0])
    z = cs.hyperplane_order(f2xz.factors[1], [(1, 0)], name="z-natural")
    return [
        (all_positive_f2(), 2),
        (cubic_z2(), 3),
        (cs.klein_order(cs.KleinBottle()), 4),
        (cs.lex_pair_sign(magnus, z, leading_factor=0), 3),
        (cs.lex_pair_sign(z, magnus, leading_factor=1), 3),
    ]


def dfa_cases():
    z2 = cs.FreeAbelian(2)
    return [
        (a_or_aa_dfa(), z2, 2, 2),
        (cs.z2_lex_cone_dfa(), z2, 2, 1),
        (cs.z2_lex_cone_dfa(), z2, 3, 2),
        (all_accepting_f2_dfa(), cs.FreeGroup(2), 2, 4),
    ]


@pytest.fixture(scope="module")
def axiom_reports():
    return [(reference_order_axioms(oracle, radius),
             cs.verify_order_axioms(oracle, radius))
            for oracle, radius in axiom_cases()]


@pytest.fixture(scope="module")
def dfa_reports():
    return [(reference_cone_dfa(*case), cs.verify_cone_dfa(*case))
            for case in dfa_cases()]


def test_order_axioms_match_reference(axiom_reports):
    for expected, report in axiom_reports:
        assert report == expected


def test_order_axiom_cases_cover_every_failure_kind(axiom_reports):
    reports = [report for _, report in axiom_reports]
    assert any(r.partition_failures for r in reports)
    assert any(r.identity_failures for r in reports)
    assert any(r.closure_failures for r in reports)
    assert any(r.passed for r in reports)


def test_cone_dfa_matches_reference(dfa_reports):
    for expected, report in dfa_reports:
        assert report == expected


def test_cone_dfa_cases_cover_every_outcome(dfa_reports):
    only_a, lex_short, lex_longer, free = [r for _, r in dfa_reports]
    negatives = [c for c in only_a.counterexamples
                 if c[0] == "product-negative"]
    assert negatives[0] == ("product-negative", "a", "a", "aa")
    assert len(negatives) == 3
    assert len(lex_short.unresolved_products) == 4
    assert len(lex_longer.unresolved_products) == 14
    assert {c[0] for c in free.counterexamples} >= {"identity-in", "both-in"}
    assert {r.verdict for _, r in dfa_reports} == {"FAIL", "UNKNOWN"}
