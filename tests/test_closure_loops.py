"""The closure loops of verify_order_axioms and verify_cone_dfa against
Element-level references over all pairs: whole reports, failure tuples in
order; the shared cone-axiom walk (`inverse_pairs`, `closure_misses`)
against brute-force filters, on free groups and products also at the radii
the workloads walk; the translation walk of Z^2 and the Klein bottle against
the generic walk (`GroupModel.closure_misses`) at large radii."""

import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import conescope as cs
from conescope.words import GeneratorAlphabet

from test_automata import all_accepting_f2_dfa, backtracking_dfa
from test_groups import KERNEL_IDS, KERNEL_MODELS
from test_orders import NEGATED

# the kernel models (F1 among them: a tree whose members have at most two
# steps) but F26, whose B(3) is too wide for the all-pairs reference, with
# Z^1, a rank-5 group and a product whose first factor is not free (its
# geodesics turn on the Klein bottle's grid)
WALK_MODELS, WALK_IDS = map(list, zip(*[
    (model, name) for model, name in zip(KERNEL_MODELS, KERNEL_IDS)
    if name != "F26"]))
WALK_MODELS += [cs.FreeAbelian(1), cs.FreeAbelian(5),
                cs.DirectProduct((cs.KleinBottle(), cs.FreeAbelian(1)))]
WALK_IDS += ["Z", "Z5", "KleinxZ"]


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
        if g.key == oracle.model.one or g in seen:
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
            if product in ball and signs[product] is not cs.Sign.POSITIVE:
                closure_failures.append((str(g), str(h), str(product),
                                         signs[product].value))

    return cs.AxiomReport(
        oracle_name=oracle.name, radius=radius, checked=len(ball),
        partition_failures=tuple(partition_failures),
        identity_failures=tuple(identity_failures),
        closure_failures=tuple(closure_failures))


def reference_cone_dfa(dfa, model, radius, max_length):
    ball = model.ball(radius)
    reached = {cs.Element(model, k)
               for k in cs.reachable_evaluations(dfa, model, max_length)}

    counterexamples = []
    identity = model.identity()
    if identity in reached:
        counterexamples.append(("identity-in", str(identity)))

    in_ball = [g for g in ball.sorted_elements()
               if not g.key == model.one and g in reached]
    unresolved = []
    seen = set()
    for g in ball.sorted_elements():
        if g.key == model.one or g in seen:
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
            if product not in ball:
                continue
            if product.key == model.one:
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
                          sign_fn=lambda key: cs.Sign.POSITIVE)


def cubic_z2():
    """Antisymmetric on Z^2 (an odd cubic, lex tie-break) but not closed."""
    def sign_fn(key):
        x, y = key
        for value in (x ** 3 - 3 * x * y * y + y, x, y):
            if value:
                return cs.Sign.POSITIVE if value > 0 else cs.Sign.NEGATIVE
        return cs.Sign.IDENTITY
    return cs.OrderOracle(name="cubic", model=cs.FreeAbelian(2),
                          sign_fn=sign_fn)


def twisted_klein():
    """Antisymmetric on the Klein bottle but not closed: the cone of
    klein_order with the sign of b^n a^m flipped for odd m and n > 1 (the
    inverse of b^n a^m keeps n when m is odd)."""
    def sign_fn(key):
        n, m = key
        value = (-m if m % 2 and n > 1 else m) or n
        if value:
            return cs.Sign.POSITIVE if value > 0 else cs.Sign.NEGATIVE
        return cs.Sign.IDENTITY
    return cs.OrderOracle(name="twisted-klein", model=cs.KleinBottle(),
                          sign_fn=sign_fn)


def flipped_magnus(model):
    """The Magnus order with the sign of every length-2 word flipped:
    antisymmetric (inversion keeps length) but not closed."""
    def sign_fn(key):
        word = model.spell(key)
        sign = cs.magnus_sign(word)
        return NEGATED[sign] if len(word) == 2 else sign
    return cs.OrderOracle(name="flipped-magnus", model=model, sign_fn=sign_fn)


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
        (twisted_klein(), 4),
        (cs.lex_pair_sign(z, flipped_magnus(f2xz.factors[0]),
                          leading_factor=1), 4),
    ]


def dfa_cases():
    z2 = cs.FreeAbelian(2)
    return [
        (a_or_aa_dfa(), z2, 2, 2),
        (cs.z2_lex_cone_dfa(), z2, 2, 1),
        (cs.z2_lex_cone_dfa(), z2, 3, 2),
        (all_accepting_f2_dfa(), cs.FreeGroup(2), 2, 4),
        (cs.klein_cone_dfa(), cs.KleinBottle(), 4, 3),
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


def test_closure_failures_on_klein_and_product(axiom_reports):
    # the findings a walk that drops pairs would lose
    twisted, flipped = [report for _, report in axiom_reports[-2:]]
    for report in (twisted, flipped):
        assert report.closure_failures
        assert not (report.partition_failures or report.identity_failures)


def test_cone_dfa_cases_cover_every_outcome(dfa_reports):
    only_a, lex_short, lex_longer, free, klein = [r for _, r in dfa_reports]
    negatives = [c for c in only_a.counterexamples
                 if c[0] == "product-negative"]
    assert negatives[0] == ("product-negative", "a", "a", "aa")
    assert len(negatives) == 3
    assert len(lex_short.unresolved_products) == 4
    assert len(lex_longer.unresolved_products) == 14
    assert {c[0] for c in free.counterexamples} >= {"identity-in", "both-in"}
    assert len(klein.unresolved_products) == 40
    assert {r.verdict for _, r in dfa_reports} == {"FAIL", "UNKNOWN"}


# -- the cone-axiom walk ----------------------------------------------------------

@functools.cache
def brute_walk(model, radius):
    """The keys of B(radius) in ball order, each (g, g^-1) rank pair with g
    met first, and each (g, h, gh) rank triple with gh in the ball, over all
    pairs of members."""
    keys = [g.key for g in model.ball(radius)]
    ranks = {k: i for i, k in enumerate(keys)}
    products = [(g, h, ranks[gh]) for g, a in enumerate(keys)
                for h, b in enumerate(keys)
                for gh in [model.mul(a, b)] if gh in ranks]
    pairs = [(g, h) for g, h, gh in products if gh == 0 and 1 <= g <= h]
    return keys, pairs, products


@pytest.mark.parametrize("model", WALK_MODELS, ids=WALK_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_walk_matches_brute_force(model, data):
    radius = data.draw(st.sampled_from([0, 1, 3, 4]))
    keys, pairs, products = brute_walk(model, radius)
    assert model.inverse_pairs(model.ball(radius)) == pairs
    # every non-identity member lies in exactly one pair
    assert Counter(g for pair in pairs for g in pair) == \
        Counter(range(1, len(keys)))

    # a seeded generator: drawing each membership from hypothesis would
    # exceed its entropy budget on F3 B(4) (937 members)
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.floats(0, 1))
    inside = [rnd.random() < density for _ in keys]
    expected = [(g, h, gh) for g, h, gh in products
                if inside[g] and inside[h] and not inside[gh]]
    assert model.closure_misses(model.ball(radius), inside) == expected


@pytest.mark.parametrize("model", WALK_MODELS, ids=WALK_IDS)
def test_walk_reads_the_view_of_a_grown_ball(model):
    """On a model whose held ball was grown past the walked radius, the walk
    of B(3) finds what the brute-force walk finds and names no rank past
    B(3)."""
    keys, pairs, products = brute_walk(model, 3)
    fresh = cs.model_from_descriptor(model.descriptor())
    fresh.ball(4)
    ball = fresh.ball(3)
    assert len(ball) == len(keys)
    rnd = random.Random(3)
    inside = [rnd.random() < 0.5 for _ in keys]
    expected = [(g, h, gh) for g, h, gh in products
                if inside[g] and inside[h] and not inside[gh]]
    misses = fresh.closure_misses(ball, inside)
    assert expected and misses == expected
    assert fresh.inverse_pairs(ball) == pairs
    assert all(rank < len(ball) for triple in misses for rank in triple)


def passing_cone(model):
    """A cone that passes the axioms on the model."""
    if isinstance(model, cs.FreeGroup):
        return cs.magnus_order(model)
    if isinstance(model, cs.KleinBottle):
        return cs.klein_order(model)
    weights = [(1, 0), (0, 1)] + [(0, 0)] * (model.rank - 2)  # 1, sqrt2, 0...
    return cs.hyperplane_order(model, weights)


@pytest.mark.parametrize("model, radius", [
    (cs.FreeAbelian(2), 16), (cs.KleinBottle(), 14)], ids=["Z2", "Klein"])
def test_plane_walks_match_generic_walk(model, radius):
    """At radii where brute force is too slow, the translation walk of Z^2
    and the Klein bottle finds what the generic walk
    (`GroupModel.closure_misses`, its slow reference) finds: on a cone that
    passes the axioms, on random flags and on the cone with some flags
    flipped."""
    ball = model.ball(radius)
    rnd = random.Random(radius)
    cone = [s is cs.Sign.POSITIVE for s in passing_cone(model).signs(ball)]
    broken = [flag != (rnd.random() < 0.02) for flag in cone]
    for inside in (cone, [rnd.random() < 0.5 for _ in cone], broken):
        expected = cs.GroupModel.closure_misses(model, ball, inside)
        assert model.closure_misses(ball, inside) == expected
        assert bool(expected) == (inside is not cone)


@pytest.mark.parametrize("rank", [1, 3, 5])
def test_only_rank_two_shifts_a_plane(monkeypatch, rank):
    """Z^n with n != 2 takes the generic walk: it never calls the plane walk,
    and finds what `GroupModel.closure_misses` finds."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"the plane walk ran on Z^{rank}")
    monkeypatch.setattr(cs.groups, "_translation_misses", refuse)
    model = cs.FreeAbelian(rank)
    ball = model.ball({1: 12, 3: 4, 5: 2}[rank])
    rnd = random.Random(rank)
    inside = [rnd.random() < 0.5 for _ in range(len(ball))]
    misses = model.closure_misses(ball, inside)
    assert misses and misses == cs.GroupModel.closure_misses(model, ball, inside)


def workload_cone(case):
    """The order and radius of the `axioms` walk of the free-tree and product
    workloads, and the radius of the held ball to grow first."""
    if case == "F2xZ":
        f2xz = cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1)))
        z = cs.hyperplane_order(f2xz.factors[1], [(1, 0)], name="z-natural")
        magnus = cs.magnus_order(f2xz.factors[0])
        return cs.lex_pair_sign(z, magnus, leading_factor=1), 5, 5
    return cs.magnus_order(cs.FreeGroup(2)), 6, 8 if case == "F2-grown" else 6


@pytest.mark.parametrize("case", ["F2", "F2xZ", "F2-grown"])
def test_walk_matches_brute_force_at_workload_radii(case):
    """At the radii the workloads walk, the generic walk on free groups and
    products finds exactly the products g h of each pair of inside members
    that land in the ball outside the cone: on a cone that passes the axioms,
    on random flags and on the cone with some flags flipped; once on a held
    ball grown past the walked radius."""
    oracle, radius, grown = workload_cone(case)
    model = oracle.model
    model.ball(grown)
    ball = model.ball(radius)
    keys, ranks, size, mul = ball.keys, ball.ranks, len(ball), model.mul
    rnd = random.Random(radius)
    cone = [s is cs.Sign.POSITIVE for s in oracle.signs(ball)]
    broken = [flag != (rnd.random() < 0.02) for flag in cone]
    for inside in (cone, [rnd.random() < 0.5 for _ in cone], broken):
        members = [g for g, flag in enumerate(inside) if flag]
        expected = [(g, h, gh) for g in members for h in members
                    for gh in [ranks.get(mul(keys[g], keys[h]), size)]
                    if gh < size and not inside[gh]]
        assert model.closure_misses(ball, inside) == expected
        assert bool(expected) == (inside is not cone)


def test_walk_merges_the_predecessors_of_a_member():
    """In F2 x Z at R = 4, h = ac has two predecessors, a and c. For
    g = aaaC, g h = aaaa is in the ball but g a = aaaaC is not, so only the
    path through c keeps g h; for f = Accc, f h = cccc and only the path
    through a keeps it. So h must carry what both of them carry, in
    whichever order it meets them."""
    model = cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1)))
    ball = model.ball(4)
    keys, ranks = ball.keys, ball.ranks
    g, f, h, gh, fh = (ranks[model.element(w).key]
                       for w in ("aaaC", "Accc", "ac", "aaaa", "cccc"))
    inside = [rank in (g, f, h) for rank in range(len(ball))]
    misses = model.closure_misses(ball, inside)
    assert (g, h, gh) in misses and (f, h, fh) in misses
    assert misses == sorted(
        (x, y, z) for x in (g, f, h) for y in (g, f, h)
        for z in [ranks.get(model.mul(keys[x], keys[y]), len(ball))]
        if z < len(ball) and not inside[z])


def test_plane_walks_form_no_landing(monkeypatch, hyper_irr, hyper_lex,
                                     klein_oracle, magnus):
    """`axioms` and `dfa-verify` on Z^2 and the Klein bottle at the radii of
    the plane-regular workload shift one plane and never run the generic
    walk; on F2 the generic walk finds the one unresolved product of an
    automaton whose every word evaluates to a."""
    report = cs.verify_cone_dfa(backtracking_dfa(), magnus.model, 6)
    assert report.verdict == "UNKNOWN"
    assert report.unresolved_products == (("a", "a", "aa"),)

    calls = []

    def generic(*args):
        calls.append(args)
        raise AssertionError("generic walk called")

    monkeypatch.setattr(cs.GroupModel, "closure_misses", generic)
    for oracle, radius in ((hyper_irr, 18), (hyper_lex, 14), (klein_oracle, 16)):
        assert cs.verify_order_axioms(oracle, radius).passed
    for dfa, model in ((cs.z2_lex_cone_dfa(), hyper_lex.model),
                       (cs.klein_cone_dfa(), klein_oracle.model)):
        assert cs.verify_cone_dfa(dfa, model, 14).verdict == "PASS"
    assert calls == []
