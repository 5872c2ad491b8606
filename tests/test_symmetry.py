"""Orders pulled back along group maps: verdicts that need no reference.

An automorphism sigma that sends each generator to a generator or its
inverse fixes 1 and is an isometry of the Cayley graph, so the pulled-back
cone {g : sigma(g) in P} is a left-order's cone whose r-classes in B(R) are
the sigma^-1-images of P's. Every count, class and certified verdict must
then equal P's, although shortlex order, the step table's letter columns
and the branch letters all change. Witnesses and the number of nodes a
search explores depend on ball order, so only verdicts are compared.

A pullback along any injective homomorphism is again a left-order, so the
pullbacks of Magnus along other maps of F2 must pass the axioms and the ray
and keep the free group's Hucha certificates, with counts of their own.
"""

import itertools

import pytest

import conescope as cs
from conescope.geometry import SurveyClass, Verdict, product_column_swamp


def homomorphism(phi):
    """The map of words that sends each letter x to the word phi[x]."""
    images = {**phi, **{-x: tuple(-y for y in reversed(w)) for x, w in phi.items()}}
    return lambda word: tuple(y for x in word for y in images[x])


def pullback(oracle, phi):
    """oracle's order pulled back along phi, a map of letters to words that
    extends to an injective homomorphism of oracle's group to itself."""
    model, image = oracle.model, homomorphism(phi)
    return cs.OrderOracle(f"{oracle.name}*", model,
                          lambda k: oracle.sign_key(model.key_of(image(model.spell(k)))))


def signed_permutations(letters):
    """Every map of these generators onto themselves up to inverses, as
    letter -> one-letter word."""
    for perm in itertools.permutations(letters):
        for signs in itertools.product((1, -1), repeat=len(letters)):
            yield {x: (s * y,) for x, y, s in zip(letters, perm, signs)}


def relabelings(model):
    """The generator relabelings that are automorphisms of the model."""
    if isinstance(model, cs.KleinBottle):  # a b a^-1 = b^-1 pins each letter
        yield from ({1: (e1,), 2: (2 * e2,)} for e1 in (1, -1) for e2 in (1, -1))
    elif isinstance(model, cs.DirectProduct):  # F2 x Z: sigma on F2, c -> c^+-1
        for sigma in signed_permutations((1, 2)):
            yield from ({**sigma, 3: (3 * e,)} for e in (1, -1))
    else:
        yield from signed_permutations(model.alphabet.letters[::2])


def swamp_verdicts(oracle, r, radius):
    """The swamp's verdict and its separation verdict, or the refusal."""
    try:
        if isinstance(oracle.model, cs.FreeGroup):
            cert = cs.tree_swamp_certificate(oracle, r)
        else:
            cert = product_column_swamp(oracle, r, radius)
    except cs.ConescopeError as error:
        return type(error).__name__
    return cert.verdict, cs.verify_separation(cert, radius=radius).verdict


def verdicts(oracle, radius):
    axioms = cs.verify_order_axioms(oracle, radius)
    out = {
        "axioms": (axioms.passed, axioms.checked),
        "ray": cs.verify_maxima_ray(oracle, radius).passed,
    }
    for r in (1, 2):
        survey = cs.connectivity_survey(oracle, r, (radius - 2, radius - 1, radius))
        out[r] = (cs.r_components(oracle, r, radius).count,
                  survey.counts, survey.classification)
        if not isinstance(oracle.model, (cs.FreeAbelian, cs.KleinBottle)):
            out["swamp", r] = swamp_verdicts(oracle, r, radius)
    return out


@pytest.mark.parametrize("name, radius", [
    ("magnus", 6), ("hyper_irr", 10), ("hyper_lex", 10), ("klein_oracle", 10),
    ("z_leading", 5), ("f2_leading", 5),
])
def test_relabeled_orders_keep_every_verdict(request, name, radius):
    oracle = request.getfixturevalue(name)
    shipped = verdicts(oracle, radius)
    assert shipped["axioms"][0]
    for sigma in relabelings(oracle.model):
        assert verdicts(pullback(oracle, sigma), radius) == shipped, sigma


def test_relabelings_carry_the_maxima_ray(magnus, klein_oracle, z_leading):
    # sigma maps the maxima of the pulled-back order onto the shipped ones
    for oracle in (magnus, klein_oracle, z_leading):
        model = oracle.model
        maxima = cs.verify_maxima_ray(oracle, 5).maxima
        for sigma in relabelings(model):
            image = homomorphism(sigma)
            pulled = cs.verify_maxima_ray(pullback(oracle, sigma), 5).maxima
            assert tuple(model.element(image(g.word)) for g in pulled) == maxima


def test_relabeled_plane_products_keep_their_paths():
    lead = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="lead")
    trail = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="trail")
    zz_lex = cs.lex_pair_sign(lead, trail, leading_factor=0, name="zz-lex")
    M = zz_lex.model
    for sigma in signed_permutations((1, 2)):
        order = pullback(zz_lex, sigma)
        back = homomorphism({abs(y): (x if y > 0 else -x,) for x, (y,) in sigma.items()})
        g, h = (M.element(back(M.element(w).word)) for w in ("b", "aBBBBB"))
        for r in (1, 2, 3):
            path = cs.product_positive_path(order, g, h, r=r)
            assert (path.points[0], path.points[-1]) == (g, h)
            assert all(order.is_positive(p) for p in path.points)
            assert max(path.gaps()) <= r


# maps of F2 that extend to injective homomorphisms; a -> aab is not onto
F2_MAPS = {
    "a->ab": {1: (1, 2), 2: (2,)},
    "a->ba,b->bab": {1: (2, 1), 2: (2, 1, 2)},
    "a->aba,b->ab": {1: (1, 2, 1), 2: (1, 2)},
    "conjugation by b": {1: (-2, 1, 2), 2: (2,)},
    "a->aab": {1: (1, 1, 2), 2: (2,)},
}


@pytest.mark.parametrize("phi", F2_MAPS.values(), ids=F2_MAPS)
def test_magnus_pullbacks_keep_the_hucha_certificates(magnus, phi):
    order = pullback(magnus, phi)
    assert cs.verify_order_axioms(order, 6).passed
    assert cs.verify_maxima_ray(order, 6).passed
    for r in (1, 2, 3):
        survey = cs.connectivity_survey(order, r, (4, 5, 6))
        assert survey.classification is SurveyClass.HUCHA_CERTIFIED
        assert cs.verify_separation(survey.certificate).verdict is Verdict.CERTIFIED_TREE


def test_conjugate_of_magnus_keeps_its_counts(magnus):
    # Magnus is bi-invariant: conjugation by b permutes its cone
    order = pullback(magnus, F2_MAPS["conjugation by b"])
    assert (cs.connectivity_survey(order, 1, (4, 5, 6)).counts
            == cs.connectivity_survey(magnus, 1, (4, 5, 6)).counts == (11, 28, 72))
