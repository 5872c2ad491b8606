import itertools

import pytest

import conescope as cs
from conescope.magnus import deglex_key
from conescope.quadratic import sqrt2_sign
from test_golden_reports import checks

# the sign of g^-1 from the sign of g
NEGATED = {cs.Sign.POSITIVE: cs.Sign.NEGATIVE, cs.Sign.NEGATIVE: cs.Sign.POSITIVE,
           cs.Sign.IDENTITY: cs.Sign.IDENTITY}


# -- exact sqrt(2) arithmetic --------------------------------------------------

def test_sqrt2_sign_cases():
    assert sqrt2_sign(0, 0) == 0
    assert sqrt2_sign(3, 0) == 1
    assert sqrt2_sign(0, -2) == -1
    # -1 + sqrt2 > 0 because 1^2 < 2*1^2
    assert sqrt2_sign(-1, 1) == 1
    # 3 - 2*sqrt2 > 0 because 9 > 8
    assert sqrt2_sign(3, -2) == 1
    # 7 - 5*sqrt2 < 0 because 49 < 50
    assert sqrt2_sign(7, -5) == -1
    assert sqrt2_sign(-3, 2) == -1


def test_quadratic_value_refuses_floats(z2):
    with pytest.raises(TypeError):
        cs.hyperplane_order(z2, [(1.5, 0), (0, 1)])


# -- hyperplane signs ------------------------------------------------------------

def test_hyperplane_sign_examples(z2):
    irrational = cs.hyperplane_order(z2, [(1, 0), (0, 1)])  # (1, sqrt2)
    assert irrational.sign_key((1, 0)) is cs.Sign.POSITIVE
    assert irrational.sign_key((-1, 1)) is cs.Sign.POSITIVE
    assert irrational.sign_key((1, -1)) is cs.Sign.NEGATIVE
    # tie-break: value 0, lex on (0, -3)
    lex = cs.hyperplane_order(z2, [(1, 0), (0, 0)])
    assert lex.sign_key((0, -3)) is cs.Sign.NEGATIVE
    assert lex.sign_key((0, 0)) is cs.Sign.IDENTITY


def test_hyperplane_all_zero_weights(z2):
    # an int weight is the pair (p, 0): the check reads the coerced pairs
    with pytest.raises(cs.AllZeroWeights):
        cs.hyperplane_order(z2, [0, (0, 0)])


def test_hyperplane_order_refuses_all_zero_weights_when_built(z2):
    with pytest.raises(cs.AllZeroWeights):
        cs.hyperplane_order(z2, [(0, 0), (0, 0)])


@pytest.mark.parametrize("weights", [[(1, 0), (0, 1)], [(1, 0), (0, 0)],
                                     [(0, -1), (3, 2)], [(2, -1), (-3, 2)]])
def test_hyperplane_order_matches_hyperplane_sign(z2, weights):
    # the order sums integer parts; the benchmark's checks hold a reference
    # written apart from the program
    order = cs.hyperplane_order(z2, weights)
    for g in z2.ball(6).sorted_elements():
        reference = checks.hyperplane_sign(z2.exponents(g), weights)
        assert order.sign(g) is _sign_of(reference)


def test_irrational_weights_never_tie_on_ball_6(z2):
    # 1*m + sqrt2*n = 0 has no nonzero integer solutions; check on B(6)
    for g in z2.ball(6).sorted_elements():
        m, n = z2.exponents(g)
        if (m, n) == (0, 0):
            continue
        assert sqrt2_sign(m, n) != 0


def test_hyperplane_lex_cone_is_lex_order(hyper_lex, z2):
    for g in z2.ball(4).sorted_elements():
        m, n = z2.exponents(g)
        expected = (cs.Sign.POSITIVE if (m > 0 or (m == 0 and n > 0)) else
                    cs.Sign.NEGATIVE if (m, n) != (0, 0) else cs.Sign.IDENTITY)
        assert hyper_lex.sign(g) is expected


# -- klein cone --------------------------------------------------------------------

def test_klein_cone_examples(klein, klein_oracle):
    assert klein_oracle.sign(klein.element("a")) is cs.Sign.POSITIVE
    assert klein_oracle.sign(klein.element("b")) is cs.Sign.POSITIVE
    # b^-1 a = a * b is a product of the two semigroup generators
    g = klein.element("Ba")
    assert g == klein.element("a") * klein.element("b")
    assert klein_oracle.sign(g) is cs.Sign.POSITIVE
    assert klein_oracle.sign(klein.element("BB")) is cs.Sign.NEGATIVE
    assert klein_oracle.sign(klein.identity()) is cs.Sign.IDENTITY


def test_positives_read_keys_and_check_the_model(built, magnus, klein_oracle,
                                                 z_leading):
    # the members are signed by key; only the positives become Elements
    for oracle, radius in ((magnus, 3), (klein_oracle, 4), (z_leading, 2)):
        ball = oracle.model.ball(radius)
        positives = oracle.positives(ball)
        assert built == [g.key for g in positives]
        assert positives == [g for g in ball if oracle.is_positive(g)]
        built.clear()
    # a ball of an equal model is read, one of another model is refused
    assert magnus.positives(cs.FreeGroup(2).ball(2)) == magnus.positives(
        magnus.model.ball(2))
    with pytest.raises(cs.ModelMismatch):
        magnus.positives(cs.FreeGroup(3).ball(1))
    with pytest.raises(cs.ModelMismatch):
        klein_oracle.positives(cs.FreeAbelian(2).ball(2))


def test_klein_cone_is_generated_semigroup(klein, klein_oracle):
    # every positive in B(4) is a product of a's and b's: check by closure
    ball = klein.ball(4)
    generated = {klein.element("a"), klein.element("b")}
    grew = True
    while grew:
        grew = False
        for g, h in list(itertools.product(generated, repeat=2)):
            p = g * h
            if p in ball and p not in generated:
                generated.add(p)
                grew = True
    positives = set(klein_oracle.positives(ball))
    # generated semigroup inside the ball might miss boundary products;
    # it must at least be contained in the cone and cover radius <= 3
    assert generated <= positives
    small = {g for g in positives if g.length <= 3}
    assert small <= generated


# -- lex pairs ----------------------------------------------------------------------

def test_lex_pair_examples(f2_leading, z_leading):
    P = f2_leading.model
    # F2 leading: (a, z^-5) positive
    g = (P.embed(P.factors[0].element("a"), 0)
         * P.embed(P.factors[1].element("AAAAA"), 1))
    assert f2_leading.sign(g) is cs.Sign.POSITIVE
    # F2 leading: (1, z) positive via the trailing factor
    z = P.embed(P.factors[1].generator(1), 1)
    assert f2_leading.sign(z) is cs.Sign.POSITIVE
    # Z leading: (a^-1, z) positive, leading factor decides
    Q = z_leading.model
    h = (Q.embed(Q.factors[0].element("A"), 0)
         * Q.embed(Q.factors[1].generator(1), 1))
    assert z_leading.sign(h) is cs.Sign.POSITIVE


def test_lex_pair_records_cofinal_center(z_leading, f2_leading):
    assert z_leading.declared_cofinal_central is not None
    z = z_leading.declared_cofinal_central
    assert z == z_leading.model.embed(z_leading.model.factors[1].generator(1), 1)
    # free-leading pair has no cofinal central declaration
    assert f2_leading.declared_cofinal_central is None


def test_non_central_declaration_is_refused():
    # the centrality of a declared cofinal generator is checked once, when
    # the oracle is built, not on every path
    f2 = cs.FreeGroup(2)
    with pytest.raises(cs.BrokenOrderError, match="not central"):
        cs.OrderOracle(name="magnus-a", model=f2,
                       sign_fn=cs.magnus_sign,
                       declared_cofinal_central=f2.generator(1))


def test_lex_pair_model_mismatch(magnus, z_natural):
    pair = cs.lex_pair_sign(magnus, z_natural)
    with pytest.raises(cs.ModelMismatch):
        pair.sign(cs.FreeGroup(2).element("a"))


# -- key signs against word-level references -------------------------------------------

def _sign_of(value):
    return (cs.Sign.POSITIVE if value > 0 else
            cs.Sign.NEGATIVE if value < 0 else cs.Sign.IDENTITY)


def magnus_word_sign(word):
    """The sign of the deglex-least nonconstant term of the full expansion."""
    series = cs.magnus_expand(word, max(len(word), 1))
    terms = [(m, c) for m, c in series.coefficients.items() if m and c]
    if not terms:
        return cs.Sign.IDENTITY
    return _sign_of(min(terms, key=lambda mc: deglex_key(mc[0]))[1])


def exponent_sums(word, rank):
    return tuple(word.count(i) - word.count(-i) for i in range(1, rank + 1))


# lex pair -> (leading oracle, trailing oracle, leading factor)
LEX_PAIRS = {"f2_leading": ("magnus", "z_natural", 0),
             "z_leading": ("z_natural", "magnus", 1)}


def reference_sign(request, name, g):
    """The sign of g from its spelled word, or, for a lex pair, from the
    factor oracles' signs of the projected elements."""
    word = g.word
    if name == "magnus":
        return magnus_word_sign(word)
    if name == "hyper_irr":
        return _sign_of(checks.hyperplane_sign(exponent_sums(word, 2),
                                               cs.sqrt2_weights()))
    if name == "hyper_lex":
        return _sign_of(checks.hyperplane_sign(exponent_sums(word, 2),
                                               [(1, 0), (0, 0)]))
    if name == "klein_oracle":
        m, n = exponent_sums(word, 2)  # the word is b^n a^m, a = letter 1
        return _sign_of(m or n)
    leading, trailing, j = LEX_PAIRS[name]
    sign = request.getfixturevalue(leading).sign(g.model.project(g, j))
    if sign is cs.Sign.IDENTITY:
        sign = request.getfixturevalue(trailing).sign(g.model.project(g, 1 - j))
    return sign


@pytest.mark.parametrize("name, radius", [
    ("magnus", 5), ("hyper_irr", 6), ("hyper_lex", 6), ("klein_oracle", 6),
    ("f2_leading", 4), ("z_leading", 4)])
def test_sign_key_matches_word_reference(request, name, radius):
    # every shipped sign function reads the key; the references read the
    # spelled word, or the projected factor elements of a lex pair
    oracle = request.getfixturevalue(name)
    fresh = cs.OrderOracle(name="fresh", model=oracle.model,
                           sign_fn=oracle.sign_fn)  # an empty cache
    for g in oracle.model.ball(radius):
        expected = reference_sign(request, name, g)
        assert oracle.sign_key(g.key) is expected, g
        assert fresh.sign_key(g.key) is expected, g
        assert oracle.sign(g) is expected, g


# -- whole-ball sign passes --------------------------------------------------------------

@pytest.mark.parametrize("name, radius", [
    ("magnus", 4), ("hyper_irr", 5), ("hyper_lex", 5), ("klein_oracle", 5),
    ("z_leading", 3), ("f2_leading", 3)])
def test_signs_match_sign_key(request, name, radius):
    # one pass of sign_fn in rank order, on a model that holds B(radius): a
    # ball below the held radius, one at it, and one of an equal model
    shipped = request.getfixturevalue(name)
    model = cs.model_from_descriptor(shipped.model.descriptor())
    oracle = cs.OrderOracle(name=name, model=model, sign_fn=shipped.sign_fn)
    held = model.ball(radius)
    equal = cs.model_from_descriptor(model.descriptor())
    balls = [model.ball(radius - 1), held, equal.ball(radius - 1)]
    signs = [oracle.signs(ball) for ball in balls]
    assert not oracle._cache  # the pass goes past the point cache
    for ball, ball_signs in zip(balls, signs):
        assert ball_signs == [oracle.sign_key(k) for k in ball.keys[:len(ball)]]
    assert len(signs[1]) == len(held) > len(signs[0]) == len(signs[2])
    other = cs.KleinBottle() if name != "klein_oracle" else cs.FreeAbelian(2)
    with pytest.raises(cs.ModelMismatch):
        oracle.signs(other.ball(1))


WHOLE_BALL_RUNS = {
    "components": lambda o, R: cs.r_components(o, 1, R),
    "survey": lambda o, R: cs.connectivity_survey(o, 1, [R - 1, R]),
    "export-dot": lambda o, R: cs.export_dot(o, 1, R),
    "export-dot-r0": lambda o, R: cs.export_dot(o, 0, R),
    "axioms": lambda o, R: cs.verify_order_axioms(o, R),
    "positives": lambda o, R: o.positives(o.model.ball(R)),
}


@pytest.mark.parametrize("run", WHOLE_BALL_RUNS)
@pytest.mark.parametrize("config, radius", [
    ({"group": {"kind": "free", "rank": 2}, "order": {"kind": "magnus"}}, 4),
    ({"group": {"kind": "product", "factors": [{"kind": "free", "rank": 2},
                                               {"kind": "abelian", "rank": 1}]},
      "order": {"kind": "lex_pair", "leading_factor": 1,
                "leading": {"kind": "hyperplane", "weights": [[1, 0]]},
                "trailing": {"kind": "magnus"}}}, 3),
], ids=["f2-magnus", "f2xz-z-leading"])
def test_whole_ball_diagnostics_sign_each_member_once(run, config, radius):
    # sign_fn is wrapped after the oracle is built, so `signs` must read it
    # when called; a lex pair's factor oracles are not counted
    model = cs.model_from_descriptor(config["group"])
    oracle = cs.order_from_descriptor(config["order"], model)
    calls = []
    sign_fn = oracle.sign_fn

    def counted(key):
        calls.append(key)
        return sign_fn(key)
    oracle.sign_fn = counted
    WHOLE_BALL_RUNS[run](oracle, radius)
    ball = oracle.model.ball(radius)
    # the ball is signed once; a point query (the survey's tree swamp on F2)
    # misses the cache once per key it signs
    assert calls[:len(ball)] == ball.keys[:len(ball)]
    assert len(calls) == len(ball) + len(oracle._cache)
    tree_swamp = run == "survey" and isinstance(model, cs.FreeGroup)
    assert bool(oracle._cache) == tree_swamp


# -- axiom verification ----------------------------------------------------------------

def test_axioms_pass_for_shipped_oracles(magnus, hyper_irr, klein_oracle):
    report = cs.verify_order_axioms(magnus, 5)
    assert report.passed and report.checked == 485
    assert cs.verify_order_axioms(hyper_irr, 6).passed
    assert cs.verify_order_axioms(klein_oracle, 6).passed


def test_axioms_fail_for_broken_oracle(f2):
    broken = cs.OrderOracle(
        name="broken", model=f2,
        sign_fn=lambda key: cs.Sign.IDENTITY if key == f2.one
        else cs.Sign.POSITIVE)
    report = cs.verify_order_axioms(broken, 1)
    assert not report.passed
    pairs = {(a, b) for a, _, b, _ in report.partition_failures}
    assert ("a", "A") in pairs or ("A", "a") in pairs


def test_axioms_catch_identity_mislabel(f2):
    warped = cs.OrderOracle(
        name="warped", model=f2,
        sign_fn=lambda key: cs.Sign.POSITIVE)
    report = cs.verify_order_axioms(warped, 1)
    assert report.identity_failures


def test_antisymmetry_on_balls(magnus, hyper_irr, klein_oracle, f2_leading,
                               z_leading):
    cases = [(magnus, 4), (hyper_irr, 5), (klein_oracle, 5),
             (f2_leading, 3), (z_leading, 3)]
    for oracle, radius in cases:
        ball = oracle.model.ball(radius)
        for g in ball.sorted_elements():
            if g.key == oracle.model.one:
                continue
            assert oracle.sign(g.inverse()) is NEGATED[oracle.sign(g)]


def test_semigroup_closure_on_balls(klein_oracle, hyper_irr):
    for oracle, radius in ((klein_oracle, 5), (hyper_irr, 5)):
        ball = oracle.model.ball(radius)
        positives = oracle.positives(ball)
        for g in positives:
            for h in positives:
                p = g * h
                if p in ball:
                    assert oracle.sign(p) is cs.Sign.POSITIVE


# -- descriptors ----------------------------------------------------------------------

def test_order_descriptor_round_trip(f2, z2, klein, z_leading):
    z_lead = {"kind": "lex_pair", "leading_factor": 1,
              "leading": {"kind": "hyperplane", "weights": [[1, 0]]},
              "trailing": {"kind": "magnus"}}
    cases = [
        ({"kind": "magnus"}, f2),
        ({"kind": "hyperplane", "weights": [[1, 0], [0, 1]]}, z2),
        ({"kind": "klein"}, klein),
        (z_lead, z_leading.model),
        ({"kind": "lex_pair", "leading": {"kind": "magnus"},
          "trailing": {"kind": "hyperplane", "weights": [[1, 0]]}},
         cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1)))),
        ({**z_lead, "trailing": {**z_lead, "leading_factor": 0,
                                 "leading": {"kind": "magnus"},
                                 "trailing": z_lead["leading"]}},
         cs.DirectProduct((z_leading.model, cs.FreeAbelian(1)))),
    ]
    for descriptor, model in cases:
        oracle = cs.order_from_descriptor(descriptor, model)
        # a lex pair lives on the passed product, so the caller's held ball
        # is the one its diagnostics read
        assert oracle.model is model
        central = oracle.declared_cofinal_central  # where Z leads
        assert (central is None) == (descriptor.get("leading_factor") != 1)
        assert central is None or central.model is model
        ball = model.ball(2)
        # a usable oracle: all signs defined
        for g in ball.sorted_elements():
            oracle.sign(g)


def test_order_descriptor_errors(f2, klein):
    with pytest.raises(ValueError):
        cs.order_from_descriptor({"kind": "dehornoy"}, f2)
    with pytest.raises(cs.ModelMismatch):
        cs.order_from_descriptor({"kind": "klein"}, f2)
    with pytest.raises(ValueError):
        cs.order_from_descriptor({"kind": "hyperplane"}, klein)
