import collections
import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import conescope as cs
from conescope import geometry
from conescope.geometry import (
    SwampCertificate, Verdict, _search, product_column_swamp)

from test_cli import F2_MAGNUS, F2XZ_F2_LEADING, run_cli
from test_groups import bfs_depths


def brute_force_components(oracle, r, radius):
    """Independent oracle: pairwise distances + transitive closure by DFS."""
    model = oracle.model
    ball = model.ball(radius)
    positives = oracle.positives(ball)
    adjacency = {g: [] for g in positives}
    for g, h in itertools.combinations(positives, 2):
        if model.distance(g, h) <= r:
            adjacency[g].append(h)
            adjacency[h].append(g)
    seen = set()
    components = []
    for g in positives:
        if g in seen:
            continue
        stack, comp = [g], set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adjacency[cur])
        seen |= comp
        components.append(frozenset(comp))
    return sorted((sorted(c, key=cs.Element.sort_key) for c in components),
                  key=lambda c: c[0].sort_key())


# -- max_of_ball ---------------------------------------------------------------

def test_max_of_ball_examples(f2, magnus, klein_oracle):
    assert str(cs.max_of_ball(magnus, 1)) == "a"
    assert cs.max_of_ball(magnus, 0) == f2.identity()
    assert str(cs.max_of_ball(klein_oracle, 1)) == "a"


def test_max_of_ball_is_maximum(magnus, f2):
    top = cs.max_of_ball(magnus, 3)
    for g in f2.ball(3).sorted_elements():
        if g != top:
            assert magnus.is_positive(g.inverse() * top)


def test_max_of_ball_detects_ties(f2):
    sloppy = cs.OrderOracle(
        name="sloppy", model=f2,
        sign_fn=lambda key: cs.Sign.IDENTITY)
    with pytest.raises(cs.BrokenOrderError):
        cs.max_of_ball(sloppy, 1)


SHIPPED_ORDERS = ["magnus", "hyper_irr", "hyper_lex", "klein_oracle",
                  "z_leading", "f2_leading", "z_natural"]


@pytest.mark.parametrize("name", SHIPPED_ORDERS)
def test_ball_maxima_match_brute_force(request, name):
    # the one maxima scan against the definition: g_n is the member of B(n)
    # that every other member precedes: h < top iff h^-1 top is positive
    oracle = request.getfixturevalue(name)
    depth = 4
    expected = []
    for n in range(depth + 1):
        top = cs.max_of_ball(oracle, n)
        members = oracle.model.ball(n).sorted_elements()
        assert top in members
        assert all(oracle.is_positive(h.inverse() * top)
                   for h in members if h != top)
        expected.append(top)
    assert cs.verify_maxima_ray(oracle, depth).maxima == tuple(expected[1:])


def test_maxima_ray_detects_ties_like_max_of_ball(f2):
    sloppy = cs.OrderOracle(
        name="sloppy", model=f2,
        sign_fn=lambda key: cs.Sign.IDENTITY)
    with pytest.raises(cs.BrokenOrderError) as single:
        cs.max_of_ball(sloppy, 1)
    with pytest.raises(cs.BrokenOrderError) as ray:
        cs.verify_maxima_ray(sloppy, 3)
    assert str(ray.value) == str(single.value)


# -- maxima ray -----------------------------------------------------------------

def test_maxima_ray_magnus(magnus):
    report = cs.verify_maxima_ray(magnus, 5)
    assert report.passed
    assert [str(g) for g in report.maxima] == ["a", "aa", "aaa", "aaaa", "aaaaa"]


def test_maxima_ray_klein(klein_oracle):
    report = cs.verify_maxima_ray(klein_oracle, 6)
    assert report.passed
    assert [g.length for g in report.maxima] == [1, 2, 3, 4, 5, 6]


def test_maxima_ray_vacuous(magnus):
    report = cs.verify_maxima_ray(magnus, 0)
    assert report.passed and report.maxima == ()


def test_maxima_are_built_once(built, magnus, klein_oracle):
    # the maxima stay keys inside the library: the ray builds the maxima it
    # reports, once, and max_of_ball builds its one Element
    for oracle, depth in ((magnus, 5), (klein_oracle, 6)):
        report = cs.verify_maxima_ray(oracle, depth)
        assert report.passed and built == [g.key for g in report.maxima]
        built.clear()
        top = cs.max_of_ball(oracle, depth)
        assert built == [top.key]
        built.clear()


def test_maxima_ray_flags_broken_oracle(f2):
    # reversed identity handling breaks the negativity check
    weird = cs.OrderOracle(
        name="weird", model=f2,
        sign_fn=lambda key: cs.Sign.IDENTITY if key == f2.one
        else (cs.Sign.POSITIVE if f2.key_length(key) % 2 == 0
              else cs.Sign.NEGATIVE))
    report = cs.verify_maxima_ray(weird, 3)
    assert not report.passed


def test_maxima_ray_successor_failures_match_brute_force(f2, z2, klein, f2xz):
    # successor failures are read from d(g_n^-1, g_{n+1}^-1) != 1; the
    # reference tries every generator x for x g_n = g_{n+1}. Random sign
    # functions are no orders, so their rays break.
    failing = 0
    for model, seed in itertools.product((f2, z2, klein, f2xz), range(6)):
        def sign(key, model=model, seed=seed):
            if key == model.one:
                return cs.Sign.IDENTITY
            coin = random.Random(f"{seed} {key}").random() < 0.5
            return cs.Sign.POSITIVE if coin else cs.Sign.NEGATIVE
        oracle = cs.OrderOracle(name="random", model=model, sign_fn=sign)
        report = cs.verify_maxima_ray(oracle, 5)
        maxima = report.maxima
        expected = [(n + 1, str(maxima[n]), str(maxima[n - 1]))
                    for n in range(1, len(maxima))
                    if all(x * maxima[n - 1] != maxima[n]
                           for x in model.generators.values())]
        assert list(report.successor_failures) == expected
        failing += bool(expected)
    assert failing > 0


# -- r-components ------------------------------------------------------------------

def test_components_hyperplane_connected(hyper_irr):
    report = cs.r_components(hyper_irr, 1, 4)
    assert report.count == 1


def test_components_magnus_disconnected(magnus):
    report = cs.r_components(magnus, 1, 6)
    assert report.count >= 2


def test_components_match_brute_force(magnus, hyper_irr, klein_oracle,
                                      z_leading, f2_leading):
    for oracle, r, radius in ((magnus, 1, 4), (magnus, 2, 4),
                              (hyper_irr, 1, 4), (klein_oracle, 1, 4),
                              (z_leading, 1, 3), (f2_leading, 1, 4),
                              (z_leading, 2, 4), (klein_oracle, 2, 4),
                              (hyper_irr, 2, 4)):
        mine = cs.r_components(oracle, r, radius)
        brute = brute_force_components(oracle, r, radius)
        assert [list(c) for c in mine.components] == [list(c) for c in brute]


def test_components_radius_one_bound(magnus, f2):
    report = cs.r_components(magnus, 1, 1)
    # positives in B(1,1) split into at most |X| classes
    assert 1 <= report.count <= len(f2.alphabet)
    sizes = sorted(len(c) for c in report.components)
    assert sum(sizes) == len(magnus.positives(f2.ball(1)))


def test_components_refine_as_r_grows(magnus):
    fine = cs.r_components(magnus, 1, 5)
    coarse = cs.r_components(magnus, 2, 5)
    coarse_index = {g: i for i, comp in enumerate(coarse.components)
                    for g in comp}
    for comp in fine.components:
        targets = {coarse_index[g] for g in comp}
        assert len(targets) == 1


def reference_r_classes(oracle, r, radius):
    """The r-classes of the positives of B(radius) as sorted rank lists, by
    one breadth-first search per class: the slow reference for the one
    union-find pass of r_components and connectivity_survey."""
    ball = oracle.model.ball(radius)
    starts = [i for i, g in enumerate(ball) if oracle.is_positive(g)]
    allowed = set(starts)
    classes = []
    for start in starts:
        if start in allowed:  # each class leaves allowed once found
            reached = _search(ball, r, start, None, allowed)[1]
            allowed.difference_update(reached)
            classes.append(sorted(reached))
    return sorted(classes)


# every model kind with its shipped orders: F2, Z^2, the Klein bottle, F2 x Z
# and Z
CLASS_ORDERS = ["magnus", "hyper_irr", "hyper_lex", "klein_oracle",
                "z_leading", "f2_leading", "z_natural"]
_REFERENCE_CLASSES = {}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name", CLASS_ORDERS)
@settings(max_examples=12, deadline=None)
@given(radii=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_r_classes_match_search_reference(request, name, r, radii):
    # radii r..6, unsorted and repeated; for r >= 2, Ball.near walks beyond
    # B(R) inside the held ball, which the one pass reads as a rank prefix
    oracle = request.getfixturevalue(name)
    radii = [max(R, r) for R in radii]
    for R in radii:
        if (name, r, R) not in _REFERENCE_CLASSES:
            _REFERENCE_CLASSES[name, r, R] = reference_r_classes(oracle, r, R)
    ranks = oracle.model.ball(max(radii)).ranks
    for R in radii:
        report = cs.r_components(oracle, r, R)
        assert [[ranks[g.key] for g in c] for c in report.components] == \
            _REFERENCE_CLASSES[name, r, R]
    survey = cs.connectivity_survey(oracle, r, radii)
    assert survey.counts == tuple(len(_REFERENCE_CLASSES[name, r, R])
                                  for R in sorted(radii))


def test_survey_refuses_widths_as_r_components_does(magnus):
    for r, radii, message in ((0, [3], "r must be >= 1"),
                              (3, [4, 2], "r must not exceed the ball radius"),
                              (1, [-1, 3], "radius must be non-negative")):
        with pytest.raises(ValueError, match=message):
            cs.connectivity_survey(magnus, r, radii)


def test_components_z_leading_boundary_strands(z_leading):
    # the Z-leading cone on F2 x Z leaves isolated positives at the ball
    # boundary at width 1 (their only shorter neighbor is negative); at
    # width 2 the z-direction detour reconnects everything
    counts1 = [cs.r_components(z_leading, 1, R).count for R in (3, 4, 5)]
    assert counts1 == [3, 7, 18]
    counts2 = [cs.r_components(z_leading, 2, R).count for R in (3, 4, 5)]
    assert counts2 == [1, 1, 1]
    stranded = cs.r_components(z_leading, 1, 3).components[1]
    assert [str(g) for g in stranded] == ["Aba"]


# -- tree swamps --------------------------------------------------------------------

def test_tree_swamp_sizes(magnus, f2):
    for r, size in ((1, 5), (2, 17), (3, 53)):
        cert = cs.tree_swamp_certificate(magnus, r)
        assert len(cert.swamp) == size
        assert len(f2.ball(r)) == size
        assert cert.verdict is Verdict.CERTIFIED_TREE
        for s in cert.swamp:
            assert magnus.sign(s) is cs.Sign.NEGATIVE
        u, v = cert.witnesses
        assert magnus.is_positive(u) and magnus.is_positive(v)
        assert f2.distance(cert.center, u) > r
        assert f2.distance(cert.center, v) > r


def test_tree_swamp_degenerate_r0(magnus):
    cert = cs.tree_swamp_certificate(magnus, 0)
    assert len(cert.swamp) == 1
    assert cert.center in cert.swamp


def test_tree_swamp_refuses_on_the_shortlex_least_positive_member(f2):
    # Magnus except at AAA and A, which the maxima never sign, so the center
    # stays AAA; AAA = AAA * 1 comes first by rank in the swamp AAA B(2) and
    # A = AAA * aa fifth, but A is the shortlex-least, and is the one named
    magnus = cs.magnus_order(f2)
    flipped = {f2.element(w).key for w in ("AAA", "A")}
    order = cs.OrderOracle("flipped", f2, lambda k: cs.Sign.POSITIVE if k in flipped
                           else magnus.sign_fn(k))
    with pytest.raises(cs.BrokenOrderError,
                       match="^swamp element A is not negative under flipped$"):
        cs.tree_swamp_certificate(order, 2)
    assert cs.tree_swamp_certificate(magnus, 2).center == f2.element("AAA")


def test_tree_swamp_needs_free_group(klein_oracle):
    with pytest.raises(cs.ModelMismatch):
        cs.tree_swamp_certificate(klein_oracle, 1)


def test_tree_swamp_lazy_scan_matches_full_ball_scan(magnus, f2):
    # reference: the shortlex-first positive center * w per first letter of
    # w, scanning the whole sorted ball of the default horizon r + 8
    for r in (0, 1, 2):
        cert = cs.tree_swamp_certificate(magnus, r)
        center = cs.max_of_ball(magnus, r + 1).inverse()
        horizon = f2.ball(r + 8)
        depths = bfs_depths(horizon)
        witness_by_branch = {}
        for w in horizon.sorted_elements():
            if depths[w] <= r or w.word[0] in witness_by_branch:
                continue
            if magnus.is_positive(center * w):
                witness_by_branch[w.word[0]] = center * w
        ordered = [witness_by_branch[l] for l in f2.alphabet.letters
                   if l in witness_by_branch]
        assert cert.center == center
        assert cert.swamp == {center * b for b in f2.ball(r)}
        assert cert.witnesses == (ordered[0], ordered[1])


def test_column_swamp_scan_matches_full_ball_scan(f2_leading):
    # reference: the first positive per branch at c_F over all of B(R), in
    # ball order with no early stop, the branches then taken in letter order
    model = f2_leading.model
    free = model.factors[0]
    for r, radius in itertools.product((0, 1, 2), (2, 3, 4, 5)):
        center_free = model.project(cs.max_of_ball(f2_leading, r + 1), 0).inverse()
        witness_by_branch = {}
        for g in model.ball(radius).sorted_elements():
            word = (center_free.inverse() * model.project(g, 0)).word
            if len(word) <= r or word[0] in witness_by_branch:
                continue
            if f2_leading.is_positive(g):
                witness_by_branch[word[0]] = g
        ordered = [witness_by_branch[l] for l in free.alphabet.letters
                   if l in witness_by_branch]
        if len(ordered) < 2:
            with pytest.raises(cs.WitnessNotFound):
                product_column_swamp(f2_leading, r, radius)
            continue
        cert = product_column_swamp(f2_leading, r, radius)
        assert model.project(cert.center, 0) == center_free
        assert cert.witnesses == (ordered[0], ordered[1])


def test_column_swamp_refusal_grows_no_larger_ball():
    # the z-leading order fails the column check inside B(r + 1), held for
    # the center, so the refusal comes before B(radius) is grown
    oracle = cs.lex_pair_sign(
        cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="z-natural"),
        cs.magnus_order(cs.FreeGroup(2)), leading_factor=1, name="z-leading")
    r = 1
    with pytest.raises(cs.ModelMismatch, match="column element 1 is not negative"):
        product_column_swamp(oracle, r, 9)
    assert len(oracle.model.ball(0).sizes) - 1 <= r + 1


def test_tree_swamp_witness_scan_honours_cap():
    order = cs.magnus_order(cs.FreeGroup(2))
    order.model.cap = 200
    with pytest.raises(cs.CapExceeded):
        cs.tree_swamp_certificate(order, 1)


def test_tree_swamp_witness_not_found_on_line():
    # the line (rank-1 free group) has a branch with no positives at all
    line = cs.FreeGroup(1)
    order = cs.magnus_order(line, name="line")
    with pytest.raises(cs.WitnessNotFound):
        cs.tree_swamp_certificate(order, 1)


def test_tree_swamp_sampled_paths_all_meet_s(magnus, f2):
    cert = cs.tree_swamp_certificate(magnus, 2)
    paths = cs.sample_tree_paths(cert, 25, seed=99)
    # the seed fixes the paths, as the waypoint pool keeps shortlex order
    assert [len(p) for p in paths[:10]] == [24, 11, 10, 6, 18, 25, 24, 18, 10, 24]
    for path in paths:
        assert path.points[0] == cert.witnesses[0]
        assert path.points[-1] == cert.witnesses[1]
        assert any(p in cert.swamp for p in path.points)


# -- separation verdicts ----------------------------------------------------------------

def test_separation_tree_certificates(magnus, f2):
    for r in (1, 2):
        cert = cs.tree_swamp_certificate(magnus, r)
        result = cs.verify_separation(cert)
        assert result.verdict is Verdict.CERTIFIED_TREE


def test_separation_tree_cut_falls_through_to_the_search(magnus, f2):
    # the cut holds only with both witnesses beyond distance r of the
    # center, in two branches there, and all of c B(r) in S; any other
    # certificate goes to the bounded search
    e = f2.element
    built = cs.tree_swamp_certificate(magnus, 1)
    assert (built.center, built.witnesses) == (e("AA"), (e("a"), e("AAAbaaa")))
    assert built.swamp == {e(w) for w in ("A", "AA", "AAA", "AAb", "AAB")}
    outcomes = [
        ({}, "certified-tree (0 nodes explored)"),
        ({"witnesses": (e("a"), e("b"))},  # one branch at the center
         "not-separating (16 nodes explored) via a -> 1 -> b"),
        ({"swamp": built.swamp - {e("AAB")}}, "evidence (29524 nodes explored)"),
    ]
    for edit, summary in outcomes:
        result = cs.verify_separation(built._replace(**edit))
        assert result.summary() == "separation: " + summary
    for edit in ({"witnesses": (e("A"), e("AAAbaaa"))},  # at distance 1
                 {"r": 0, "witnesses": (e("AA"), e("AAAbaaa"))}):
        with pytest.raises(ValueError, match="witnesses must lie inside the "
                                             "search ball and off S"):
            cs.verify_separation(built._replace(**edit))


def test_separation_not_separating_in_plane(z2, hyper_irr):
    # S = {x} does not 1-disconnect y from x^2: an avoiding path exists
    center = z2.element("a")
    cert = SwampCertificate(
        r=1, center=center, swamp=frozenset({center}),
        witnesses=(z2.element("b"), z2.element("aa")),
        verdict=Verdict.EVIDENCE)
    result = cs.verify_separation(cert, radius=3)
    assert result.verdict is Verdict.NOT_SEPARATING
    path = result.avoiding_path
    assert path.points[0] == z2.element("b")
    assert path.points[-1] == z2.element("aa")
    assert all(p not in cert.swamp for p in path.points)
    path.check()


@pytest.mark.parametrize("radius", [6, 7, 8, 10])
def test_separation_certified_exhaustive_annulus(z2, radius):
    # a full annulus encloses the origin: the search space is finite, and a
    # larger search ball finds the same five enclosed nodes
    ball = z2.ball(radius)
    annulus = frozenset(g for g, d in bfs_depths(ball).items() if d in (2, 3))
    cert = SwampCertificate(
        r=1, center=z2.element("aa"), swamp=annulus,
        witnesses=(z2.element("b"), z2.element("bbbbb")),
        verdict=Verdict.EVIDENCE)
    result = cs.verify_separation(cert, radius=radius)
    assert (result.verdict, result.explored) == (Verdict.CERTIFIED_EXHAUSTIVE, 5)


def test_separation_product_column_evidence(f2_leading):
    cert = product_column_swamp(f2_leading, 1, 5)
    assert all(f2_leading.sign(s) is cs.Sign.NEGATIVE for s in cert.swamp)
    result = cs.verify_separation(cert, radius=5)
    assert result.verdict is Verdict.EVIDENCE


# -- cofinal positive paths ----------------------------------------------------------------

def test_cofinal_path_example(z_leading):
    P = z_leading.model
    g = P.element("Ac")
    h = P.element("bc")
    path = cs.cofinal_positive_path(z_leading, g, h)
    assert path.points[0] == g and path.points[-1] == h
    assert all(z_leading.is_positive(p) for p in path.points)
    assert max(path.gaps(), default=0) <= 1


def test_cofinal_path_single_point(z_leading):
    g = z_leading.model.element("ac")
    path = cs.cofinal_positive_path(z_leading, g, g)
    assert path.points == (g,)


def test_cofinal_path_inside_z_line(z_leading):
    P = z_leading.model
    path = cs.cofinal_positive_path(z_leading, P.element("c"), P.element("ccc"))
    for p in path.points:
        assert P.project(p, 0).key == P.factors[0].one
        assert z_leading.is_positive(p)


def test_cofinal_path_requires_declaration(f2_leading):
    P = f2_leading.model
    with pytest.raises(cs.NoDeclaredCofinalCenter):
        cs.cofinal_positive_path(f2_leading, P.element("a"), P.element("b"))


def test_cofinal_path_rejects_negative_endpoint(z_leading):
    P = z_leading.model
    with pytest.raises(ValueError):
        cs.cofinal_positive_path(z_leading, P.element("C"), P.element("c"))


def test_cofinal_path_random_pairs(z_leading):
    rng = random.Random(4)
    positives = z_leading.positives(z_leading.model.ball(4))
    for _ in range(15):
        g, h = rng.choice(positives), rng.choice(positives)
        path = cs.cofinal_positive_path(z_leading, g, h)
        assert all(z_leading.is_positive(p) for p in path.points)
        assert max(path.gaps(), default=0) <= 1


# -- product positive paths -------------------------------------------------------------------

@pytest.fixture(scope="module")
def zz_lex():
    lead = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="lead")
    trail = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="trail")
    return cs.lex_pair_sign(lead, trail, leading_factor=0, name="zz-lex")


def test_product_path_plane_example(zz_lex):
    M = zz_lex.model
    g = M.element("b")          # (0, 1)
    h = M.element("aBBBBB")     # (1, -5)
    path = cs.product_positive_path(zz_lex, g, h, r=1)
    assert path.points[0] == g and path.points[-1] == h
    for p in path.points:
        m = M.factors[0].exponents(M.project(p, 0))[0]
        n = M.factors[1].exponents(M.project(p, 1))[0]
        assert m > 0 or (m == 0 and n > 0)
    assert max(path.gaps()) <= 1


@pytest.mark.parametrize("r, words", [
    (2, ["b", "ab", "a", "aBB", "aBBBB", "aBBBBB"]),
    (3, ["b", "ab", "a", "aBBB", "aBBBB", "aBBBBB"]),
])
def test_product_path_plane_example_wider(zz_lex, r, words):
    # h's trailing coordinate B^5 climbs through B^5 q for q on the width-r
    # cone path from b to b^5, then the identity and b; the path ends reversed
    M = zz_lex.model
    path = cs.product_positive_path(zz_lex, M.element("b"), M.element("aBBBBB"), r=r)
    assert path.words() == words


# cone-connected factors A, each paired with Z under either factor leading
LEX_FACTORS = {
    "Z": lambda: cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="z"),
    "Z2-irrational": lambda: cs.hyperplane_order(
        cs.FreeAbelian(2), cs.sqrt2_weights(), name="irrational"),
    "Z2-lex": lambda: cs.hyperplane_order(cs.FreeAbelian(2), [(1, 0), (0, 0)],
                                          name="lex"),
    "Klein": lambda: cs.klein_order(cs.KleinBottle()),
}


@pytest.mark.parametrize("leading", [0, 1], ids=["A-leading", "Z-leading"])
@pytest.mark.parametrize("factor", LEX_FACTORS)
def test_product_path_property(factor, leading):
    a, z = LEX_FACTORS[factor](), LEX_FACTORS["Z"]()
    oracle = cs.lex_pair_sign(z, a, 1) if leading else cs.lex_pair_sign(a, z, 0)
    positives = oracle.positives(oracle.model.ball(4))
    rng = random.Random(7)
    for r in (1, 2, 3):
        for _ in range(25):
            g, h = rng.choice(positives), rng.choice(positives)
            path = cs.product_positive_path(oracle, g, h, r=r)
            assert path.points[0] == g and path.points[-1] == h
            assert all(oracle.is_positive(p) for p in path.points)
            assert max(path.gaps(), default=0) <= r
    with pytest.raises(cs.FactorNotConnectedAtScale):
        cs.product_positive_path(oracle, g, h, r=0)


def test_product_path_single_point(zz_lex):
    g = zz_lex.model.element("ab")
    path = cs.product_positive_path(zz_lex, g, g, r=1)
    assert path.points == (g,)


def test_product_path_refuses_disconnected_factor(f2_leading, z_leading):
    for oracle in (f2_leading, z_leading):
        P = oracle.model
        g, h = P.element("ac"), P.element("bc")
        if not (oracle.is_positive(g) and oracle.is_positive(h)):
            continue
        with pytest.raises(cs.FactorNotConnectedAtScale):
            cs.product_positive_path(oracle, g, h, r=1)


def test_product_path_random_pairs(zz_lex):
    rng = random.Random(11)
    positives = zz_lex.positives(zz_lex.model.ball(4))
    for _ in range(15):
        g, h = rng.choice(positives), rng.choice(positives)
        path = cs.product_positive_path(zz_lex, g, h, r=1)
        assert all(zz_lex.is_positive(p) for p in path.points)


# -- one ball per diagnostic ---------------------------------------------------------------

@pytest.fixture
def enumerated(monkeypatch):
    """Counts the elements each model's ball BFS enumerates, the identity
    included, as [(model kind, count)] over distinct models. A grown ball
    enumerates nothing more, so the models counted must be fresh."""
    counts = {}
    grow = cs.GroupModel._grow

    def counting(self, *args):
        before = self._held.sizes[-1]
        grow(self, *args)
        model, count = counts.get(id(self), (self, 1))
        counts[id(self)] = model, count + self._held.sizes[-1] - before
    monkeypatch.setattr(cs.GroupModel, "_grow", counting)
    return lambda: sorted((m.descriptor()["kind"], n) for m, n in counts.values())


def fresh_oracles():
    """The conftest oracles, on models that hold no ball yet."""
    magnus = cs.magnus_order(cs.FreeGroup(2))
    z_natural = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="z-natural")
    return {
        "magnus": magnus,
        "hyper_irr": cs.hyperplane_order(cs.FreeAbelian(2), cs.sqrt2_weights(),
                                         name="hyperplane-irrational"),
        "f2_leading": cs.lex_pair_sign(magnus, z_natural, leading_factor=0,
                                       name="f2-leading"),
        "z_leading": cs.lex_pair_sign(z_natural, magnus, leading_factor=1,
                                      name="z-leading"),
    }


# name -> (run, the one model it enumerates and |B(its largest radius)|);
# |B(R)| is 2R^2 + 2R + 1 on Z^2, 1 + 2(3^R - 1) on F2, and
# sum_i |S_F2(i)| (2(R - i) + 1) on F2 x Z. A tree swamp's witness scan
# reads the held ball, and at width 1 it reaches B_F2(5), |B_F2(5)| = 485
ONE_BALL_RUNS = {
    "ray": (lambda o: cs.verify_maxima_ray(o["hyper_irr"], 6), ("abelian", 85)),
    "components": (lambda o: cs.r_components(o["magnus"], 2, 4), ("free", 161)),
    "survey-prieto": (lambda o: cs.connectivity_survey(o["hyper_irr"], 1,
                                                       [2, 4, 3]),
                      ("abelian", 41)),
    # the counts split, so the survey also builds a tree swamp
    "survey-hucha": (lambda o: cs.connectivity_survey(o["magnus"], 1, [3, 4]),
                     ("free", 485)),
    "export-dot": (lambda o: cs.export_dot(o["z_leading"], 1, 3), ("product", 99)),
    "tree-swamp": (lambda o: cs.tree_swamp_certificate(o["magnus"], 1),
                   ("free", 485)),
    "column-swamp": (lambda o: product_column_swamp(o["f2_leading"], 1, 5),
                     ("product", 959)),
    "column-swamp-wide": (lambda o: product_column_swamp(o["f2_leading"], 4, 3),
                          ("product", 959)),
    # the certificate's ball serves the separation check
    "separation": (lambda o: cs.verify_separation(
        product_column_swamp(o["f2_leading"], 1, 5), radius=5),
        ("product", 959)),
    "cli-swamp-free": (lambda o: run_cli(
        o["tmp_path"], {**F2_MAGNUS, "width": 1}, "swamp"), ("free", 485)),
    "cli-swamp-product": (lambda o: run_cli(
        o["tmp_path"], {**F2XZ_F2_LEADING, "width": 1, "radius": 5}, "swamp"),
        ("product", 959)),
}


@pytest.mark.parametrize("name", ONE_BALL_RUNS)
def test_diagnostic_builds_one_ball(enumerated, name, tmp_path):
    run, expected = ONE_BALL_RUNS[name]
    try:
        result = run({**fresh_oracles(), "tmp_path": tmp_path})
    except cs.WitnessNotFound:
        result = None
    if name == "survey-hucha":
        assert result.classification is cs.SurveyClass.HUCHA_CERTIFIED
    if name == "cli-swamp-free":
        assert result == 0  # certified-tree
    assert enumerated() == [expected]


def test_product_path_builds_one_ball_per_factor(enumerated):
    lead = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="lead")
    trail = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="trail")
    oracle = cs.lex_pair_sign(lead, trail, leading_factor=0, name="zz-lex")
    M = oracle.model
    # both endpoints need a climb: the path uses every per-factor search;
    # the factor radius is max(|a|, |b|, 1) + r + 1 = 7, and |B_Z(7)| = 15
    cs.product_positive_path(oracle, M.element("b"), M.element("aBBBBB"), r=1)
    assert enumerated() == [("abelian", 15), ("abelian", 15)]


# every diagnostic that reads a ball, on balls of more than 4 nodes; "tree"
# and "column" are swamp certificates, and a product path reads the balls
# of its factors
CAPPED_RUNS = {
    "ball": lambda o: o["magnus"].model.ball(1),
    "max_of_ball": lambda o: cs.max_of_ball(o["magnus"], 1),
    "verify_maxima_ray": lambda o: cs.verify_maxima_ray(o["hyper_irr"], 2),
    "r_components": lambda o: cs.r_components(o["magnus"], 1, 2),
    "connectivity_survey": lambda o: cs.connectivity_survey(o["hyper_irr"], 1,
                                                            [1, 2]),
    "tree_swamp_certificate": lambda o: cs.tree_swamp_certificate(o["magnus"], 1),
    "product_column_swamp": lambda o: product_column_swamp(o["f2_leading"], 1, 5),
    "verify_separation-tree": lambda o: cs.verify_separation(o["tree"]),
    "verify_separation-search": lambda o: cs.verify_separation(o["column"],
                                                               radius=5),
    "sample_tree_paths": lambda o: cs.sample_tree_paths(o["tree"], 1, seed=1),
    "product_positive_path": lambda o: cs.product_positive_path(
        o["zz_lex"], o["zz_lex"].model.element("b"),
        o["zz_lex"].model.element("aBBBBB"), r=1),
    "verify_order_axioms": lambda o: cs.verify_order_axioms(o["z_leading"], 1),
    "verify_cone_dfa": lambda o: cs.verify_cone_dfa(
        cs.z2_lex_cone_dfa(), o["hyper_irr"].model, 2),
    "export_dot": lambda o: cs.export_dot(o["z_leading"], 1, 1),
}


@pytest.mark.parametrize("name", CAPPED_RUNS)
def test_diagnostic_reads_the_model_cap(name):
    # fresh models: setting the cap on a shared fixture would leak
    o = fresh_oracles()
    o["tree"] = cs.tree_swamp_certificate(o["magnus"], 1)
    o["column"] = product_column_swamp(o["f2_leading"], 1, 5)
    lead, trail = (cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name=n)
                   for n in ("lead", "trail"))
    o["zz_lex"] = cs.lex_pair_sign(lead, trail, leading_factor=0, name="zz-lex")
    run = CAPPED_RUNS[name]
    run(o)  # passes under the default cap
    for oracle in (v for v in o.values() if isinstance(v, cs.OrderOracle)):
        for model in (oracle.model, *getattr(oracle.model, "factors", ())):
            model.cap = 4
    with pytest.raises(cs.CapExceeded, match="exceeds cap 4$"):
        run(o)


def test_ball_bounded_diagnostics_order_by_rank(zz_lex, monkeypatch):
    # once the ball is grown they read the held ball's ranks, and spell no
    # word to put members in shortlex order
    o = fresh_oracles()
    M = zz_lex.model
    runs = [
        lambda: cs.r_components(o["magnus"], 2, 4),
        lambda: cs.r_components(o["z_leading"], 1, 4),
        lambda: cs.tree_swamp_certificate(o["magnus"], 2),
        lambda: cs.export_dot(o["f2_leading"], 1, 3),
        lambda: cs.verify_separation(product_column_swamp(o["f2_leading"], 1, 5),
                                     radius=5),
        lambda: cs.product_positive_path(zz_lex, M.element("b"),
                                         M.element("aBBBBB"), r=1),
    ]
    grown = [run() for run in runs]
    calls = []
    sort_key = cs.GroupModel.sort_key

    def counted(self, key):
        calls.append(key)
        return sort_key(self, key)
    # Element.sort_key and every spelling sort go through the model
    monkeypatch.setattr(cs.GroupModel, "sort_key", counted)
    assert [run() for run in runs] == grown
    assert calls == []


def reference_search(model, src, dst, nodes, jumps):
    """The key-level search, the slow reference for the rank search: a step
    right-multiplies by each key of B(r) \\ {1} with model.mul, and nodes
    maps the allowed keys to ranks. Returns the path's keys and the parents."""
    parents = {src: None}
    queue = collections.deque([src])
    while queue:
        current = queue.popleft()
        if current == dst:
            path = [current]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            return path[::-1], parents
        neighbors = {}
        for jump in jumps:
            nxt = model.mul(current, jump)
            if nxt in nodes and nxt not in parents:
                neighbors[nodes[nxt]] = nxt
        for rank in sorted(neighbors):
            parents[neighbors[rank]] = current
            queue.append(neighbors[rank])
    return None, parents


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name, radius", [
    ("magnus", 5), ("hyper_irr", 6), ("klein_oracle", 6), ("z_leading", 4),
    ("f2_leading", 4)])
def test_rank_search_matches_key_reference(request, name, radius, r):
    oracle = request.getfixturevalue(name)
    model = oracle.model
    ball = model.ball(radius)
    keys = ball.keys
    jumps = [g.key for g in itertools.islice(model.ball(r), 1, None)]
    positives = [i for i, g in enumerate(ball) if oracle.is_positive(g)]
    # the r-classes of the positives
    nodes = {keys[i]: i for i in positives}
    left, classes = dict(nodes), []
    for key in nodes:
        if key in left:
            reached = reference_search(model, key, None, left, jumps)[1]
            classes.append(sorted(map(left.pop, reached)))
    report = cs.r_components(oracle, r, radius)
    assert [[ball.ranks[g.key] for g in c]
            for c in report.components] == sorted(classes)
    # paths, and every node reached, over random allowed sets
    rng = random.Random(radius * 10 + r)
    for _ in range(8):
        allowed = {i for i in range(len(ball)) if rng.random() < 0.8}
        src, dst = rng.sample(sorted(allowed), 2)
        path, parents = _search(ball, r, src, dst, allowed)
        nodes = {keys[i]: i for i in allowed}
        ref_path, ref_parents = reference_search(
            model, keys[src], keys[dst], nodes, jumps)
        assert (None if path is None else [keys[i] for i in path]) == ref_path
        assert {keys[c]: p if p is None else keys[p]
                for c, p in parents.items()} == ref_parents


def test_r_path_searches_multiply_keys_not_elements(monkeypatch, zz_lex):
    # once the ball is held, the searches step through the step table and
    # form no product: no Element product and no key product (model.mul).
    # The product path's climb and its RPath check form products outside
    # the search.
    o = fresh_oracles()
    M = zz_lex.model
    cert = product_column_swamp(o["f2_leading"], 1, 5)
    runs = {
        "components": lambda: cs.r_components(o["z_leading"], 1, 5),
        "components-width-2": lambda: cs.r_components(o["magnus"], 2, 5),
        "separation": lambda: cs.verify_separation(cert, radius=5),
        "export-dot": lambda: cs.export_dot(o["f2_leading"], 2, 4),
        "product-path": lambda: cs.product_positive_path(
            zz_lex, M.element("b"), M.element("aBBBBB"), r=1),
    }
    grown = {name: run() for name, run in runs.items()}
    calls, searching = [], [False]  # (kind, made inside the search)

    def counting(kind, fn):
        def counted(*args):
            calls.append((kind, searching[0]))
            return fn(*args)
        return counted

    def search(*args):
        searching[0] = True
        try:
            return _search(*args)
        finally:
            searching[0] = False
    monkeypatch.setattr(geometry, "_search", search)
    monkeypatch.setattr(cs.GroupModel, "multiply",
                        counting("multiply", cs.GroupModel.multiply))
    for cls in (cs.FreeGroup, cs.FreeAbelian, cs.KleinBottle, cs.DirectProduct):
        monkeypatch.setattr(cls, "mul", counting("mul", cls.mul))
    for name, run in runs.items():
        calls.clear()
        assert run() == grown[name]
        if name == "product-path":
            assert calls and not any(inside for _, inside in calls)
        else:
            assert calls == []


def test_diagnostics_multiply_keys_not_elements(monkeypatch, zz_lex):
    # once the ball is held, every diagnostic signs keys (sign_key) and
    # multiplies them (model.mul); Elements are built only for what it
    # returns, so no GroupModel.multiply call is made
    o = {**fresh_oracles(), "klein": cs.klein_order(cs.KleinBottle())}
    P, M = o["z_leading"].model, zz_lex.model
    Z2, K = cs.FreeAbelian(2), cs.KleinBottle()
    z2_dfa, klein_dfa = cs.z2_lex_cone_dfa(), cs.klein_cone_dfa()
    tree = cs.tree_swamp_certificate(o["magnus"], 1)
    runs = {
        "axioms": lambda: cs.verify_order_axioms(o["z_leading"], 3),
        "max": lambda: cs.max_of_ball(o["hyper_irr"], 4),
        "ray": lambda: cs.verify_maxima_ray(o["klein"], 5),
        "ray-free": lambda: cs.verify_maxima_ray(o["magnus"], 4),
        "components": lambda: cs.r_components(o["f2_leading"], 1, 4),
        "tree-swamp": lambda: cs.tree_swamp_certificate(o["magnus"], 1).to_json(),
        "column-swamp": lambda: product_column_swamp(
            o["f2_leading"], 1, 5).to_json(),
        "tree-separation": lambda: cs.verify_separation(tree),
        "cofinal": lambda: cs.cofinal_positive_path(
            o["z_leading"], P.element("a"), P.element("c")),
        "product-path": lambda: cs.product_positive_path(
            zz_lex, M.element("b"), M.element("aBBBBB"), r=1),
        "gaps": lambda: cs.RPath(Z2, tuple(g.key for g in Z2.ball(2)), 4).gaps(),
        "export-dot": lambda: cs.export_dot(o["z_leading"], 1, 3),
        "reachable": lambda: cs.reachable_evaluations(klein_dfa, K, 8),
        "dfa-verify": lambda: cs.verify_cone_dfa(z2_dfa, Z2, 3),
        "dfa-path": lambda: cs.regular_interpolation(
            z2_dfa, Z2, cs.parse_word("aaaBBBB", Z2.alphabet)),
        "dfa-qg": lambda: cs.quasigeodesic_check(klein_dfa, K, 2, 0, 6),
    }
    grown = {name: run() for name, run in runs.items()}
    calls = []

    def counted(self, g, h):
        calls.append((g, h))
        return multiply(self, g, h)
    multiply = cs.GroupModel.multiply
    monkeypatch.setattr(cs.GroupModel, "multiply", counted)
    for name, run in runs.items():
        assert run() == grown[name], name
        assert calls == [], name


# -- survey ----------------------------------------------------------------------------------

def test_survey_prieto_consistent(hyper_irr):
    report = cs.connectivity_survey(hyper_irr, 1, [2, 4, 6])
    assert report.counts == (1, 1, 1)
    assert report.classification is cs.SurveyClass.PRIETO_CONSISTENT
    assert "Prieto-consistent" in report.verdict


def test_survey_hucha_certified(magnus):
    report = cs.connectivity_survey(magnus, 1, [4, 5, 6])
    assert all(c >= 2 for c in report.counts)
    assert report.classification is cs.SurveyClass.HUCHA_CERTIFIED
    assert report.certificate is not None
    assert report.certificate.verdict is Verdict.CERTIFIED_TREE
    assert "Hucha-certified" in report.verdict


def test_survey_disconnection_evidence(f2_leading):
    report = cs.connectivity_survey(f2_leading, 1, [3, 4, 5])
    assert report.counts[-1] >= 2
    assert report.classification is cs.SurveyClass.DISCONNECTION_EVIDENCE


# the truth for each shipped cone (coarsely connected or not) against its
# survey class and counts at widths 1 and 2 today
VERDICT_MATRIX = [
    # order, radii, connected, width, class, counts
    # F2: tree swamps cut the cone
    ("magnus", (3, 4, 5), False, 1, "hucha-certified", (5, 11, 28)),
    ("magnus", (3, 4, 5), False, 2, "hucha-certified", (4, 9, 22)),
    # Z^2: half-planes
    ("hyper_irr", (8, 12, 16), True, 1, "prieto-consistent", (1, 1, 1)),
    ("hyper_irr", (8, 12, 16), True, 2, "prieto-consistent", (1, 1, 1)),
    ("hyper_lex", (8, 12, 16), True, 1, "prieto-consistent", (1, 1, 1)),
    ("hyper_lex", (8, 12, 16), True, 2, "prieto-consistent", (1, 1, 1)),
    # Klein bottle: a^2 is central and cofinal
    ("klein_oracle", (3, 4, 5), True, 1, "prieto-consistent", (1, 1, 1)),
    ("klein_oracle", (3, 4, 5), True, 2, "prieto-consistent", (1, 1, 1)),
    # F2 x Z, free factor leading: every r-path crosses a negative column
    ("f2_leading", (3, 4, 5), False, 1, "disconnection-evidence", (4, 10, 27)),
    ("f2_leading", (3, 4, 5), False, 2, "disconnection-evidence", (3, 8, 21)),
    # F2 x Z, Z leading: c is central and cofinal
    ("z_leading", (3, 4, 5), True, 1, "disconnection-evidence", (3, 7, 18)),
    ("z_leading", (3, 4, 5), True, 2, "prieto-consistent", (1, 1, 1)),
]
# the cells whose class is weaker than the truth; collared counts, a
# connection certificate and a certified column swamp are to move them
WEAK_CELLS = {("z_leading", 1), ("f2_leading", 1), ("f2_leading", 2)}


@pytest.mark.parametrize("name,radii,connected,r,klass,counts", VERDICT_MATRIX)
def test_verdict_matrix(request, name, radii, connected, r, klass, counts):
    report = cs.connectivity_survey(request.getfixturevalue(name), r, radii)
    assert (report.classification.value, report.counts) == (klass, counts)
    # no certified class contradicts the truth
    if report.classification is cs.SurveyClass.HUCHA_CERTIFIED:
        assert not connected
        assert cs.verify_separation(report.certificate).verdict \
            is Verdict.CERTIFIED_TREE
    agrees = (cs.SurveyClass.PRIETO_CONSISTENT if connected
              else cs.SurveyClass.HUCHA_CERTIFIED)
    assert (report.classification is not agrees) == ((name, r) in WEAK_CELLS)


# -- RPath invariants --------------------------------------------------------------------------

def test_rpath_validation(f2):
    good = cs.RPath(f2, (f2.key_of((1,)), f2.key_of((1, 2))), 1)
    good.check()
    bad = cs.RPath(f2, (f2.key_of((1,)), f2.key_of((2, 2, 2))), 1)
    with pytest.raises(ValueError, match="gap 4 > r=1 between a and bbb"):
        bad.check()
    with pytest.raises(ValueError):
        cs.RPath(f2, (), 1).check()


def test_paths_build_no_element(built, z_leading, zz_lex, magnus, z2):
    # a path holds keys: each constructor hands over the keys it holds, and
    # an Element is built only when `points` is read
    P, M = z_leading.model, zz_lex.model
    g, h, x, y = P.element("Ac"), P.element("bc"), M.element("b"), M.element("aBBBBB")
    center = z2.element("a")
    plane = SwampCertificate(r=1, center=center, swamp=frozenset({center}),
                             witnesses=(z2.element("b"), z2.element("aa")),
                             verdict=Verdict.EVIDENCE)
    tree, dfa = cs.tree_swamp_certificate(magnus, 2), cs.z2_lex_cone_dfa()
    word = cs.parse_word("aaaBBBB", z2.alphabet)
    built.clear()  # the endpoints and certificates above
    runs = {
        "cofinal": lambda: [cs.cofinal_positive_path(z_leading, g, h)],
        "product": lambda: [cs.product_positive_path(zz_lex, x, y, r=1)],
        "avoiding": lambda: [cs.verify_separation(plane, radius=3).avoiding_path],
        "dfa-path": lambda: [cs.regular_interpolation(dfa, z2, word)],
        "sampled": lambda: cs.sample_tree_paths(tree, 5, seed=99),
    }
    for name, run in runs.items():
        paths = run()
        assert built == [] and paths and None not in paths, name
        for path in paths:
            points = path.points
            assert len(built) == len(path) == len(points) > 1, name
            built.clear()
            # the Element-based reading of the same path
            model = path.model
            assert points == tuple(cs.Element(model, k) for k in path.keys)
            assert path.words() == [str(p) for p in points]
            assert path.gaps() == [model.distance(p, q)
                                   for p, q in zip(points, points[1:])]
            for other in (cs.RPath(copy.copy(model), path.keys, path.r),
                          cs.RPath(model, path.keys, path.r + 1),
                          cs.RPath(model, path.keys[:-1], path.r)):
                assert (path == other) == (
                    (points, path.r) == (other.points, other.r)), name
            built.clear()
