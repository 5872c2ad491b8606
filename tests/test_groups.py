import itertools
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

import conescope as cs
from conescope import groups
from conescope.words import format_word, parse_word, shortlex_key

from test_words import words_strategy


# -- Klein bottle representation oracle --------------------------------------
#
# Faithful affine action on Z^2: a maps (x, y) to (x+1, -y) and b maps
# (x, y) to (x, y+1). A word acts by composing its letters left to right,
# so the whole map is (x, y) -> (x + M, e*y + N) and the triple (M, N, e)
# separates group elements.

_TRIPLES = {1: (1, 0, -1), -1: (-1, 0, -1), 2: (0, 1, 1), -2: (0, -1, 1)}


def klein_triple(word):
    M, N, E = 0, 0, 1
    for letter in word:
        m, n, e = _TRIPLES[letter]
        M, N, E = M + m, E * n + N, E * e
    return (M, N, E)


def test_klein_representation_satisfies_relator():
    # a b a^-1 acts like b^-1
    assert klein_triple((1, 2, -1)) == klein_triple((-2,))


def test_klein_representation_faithful_on_ball_4(klein):
    ball = klein.ball(4)
    triples = {}
    for g in ball.sorted_elements():
        t = klein_triple(g.word)
        assert t not in triples, f"{g} and {triples[t]} collide"
        triples[t] = g


# -- normal forms --------------------------------------------------------------

def test_normal_form_examples(f2, z2, klein):
    # Klein relator: a b a^-1 -> b^-1
    assert str(klein.element("abA")) == "B"
    # commutativity: y x y -> x y^2
    assert str(z2.element("bab")) == "abb"
    # Klein: a b -> b^-1 a, confirmed by the representation oracle
    assert str(klein.element("ab")) == "Ba"
    assert klein_triple(parse_word("ab")) == klein_triple(parse_word("Ba"))
    # free: plain reduction
    assert str(f2.element("abBa")) == "aa"


def test_normal_form_rejects_unknown_letters(f2):
    with pytest.raises(cs.UnknownLetter):
        f2.element("abc")
    with pytest.raises(cs.UnknownLetter):
        f2.normal_form((1, 3))


@settings(max_examples=60)
@given(words_strategy(rank=2, max_size=10))
def test_normal_form_idempotent_all_models(word):
    for model in (cs.FreeGroup(2), cs.FreeAbelian(2), cs.KleinBottle(),
                  cs.DirectProduct((cs.FreeGroup(1), cs.FreeAbelian(1)))):
        canonical = model.normal_form_word(word)
        assert model.normal_form_word(canonical) == canonical


@settings(max_examples=60)
@given(words_strategy(rank=2, max_size=8), words_strategy(rank=2, max_size=8))
def test_klein_normal_form_respects_representation(u, v):
    klein = cs.KleinBottle()
    # equal canonical words iff equal affine maps
    same_nf = klein.normal_form_word(u) == klein.normal_form_word(v)
    same_rep = klein_triple(u) == klein_triple(v)
    assert same_nf == same_rep


# -- multiply / invert ---------------------------------------------------------

def test_multiply_examples(f2, z2, klein):
    a = f2.element("a")
    assert (a * a.inverse()).key == f2.one
    # Klein (a)(b) = b^-1 a, same oracle as the normal form
    prod = klein.element("a") * klein.element("b")
    assert str(prod) == "Ba"
    assert klein_triple(prod.word) == klein_triple((1, 2))
    # abelian exponent addition
    assert str(z2.element("ab") * z2.element("A")) == "b"


def test_multiply_model_mismatch(f2, z2):
    with pytest.raises(cs.ModelMismatch):
        f2.multiply(f2.element("a"), z2.element("a"))
    for g, h in ((f2.element("a"), z2.element("a")),
                 (z2.element("a"), f2.element("a"))):
        with pytest.raises(cs.ModelMismatch):
            f2.distance(g, h)


def test_invert_examples(f2, klein):
    assert str(f2.element("ab").inverse()) == "BA"
    assert f2.identity().inverse() == f2.identity()
    g = klein.element("bba")
    inv = g.inverse()
    # b^2 a inverted: a^-1 b^-2 = b^2 a^-1 in normal form
    assert str(inv) == "bbA"
    assert klein_triple(inv.word) == klein_triple((-1, -2, -2))
    assert (g * inv).key == klein.one


@settings(max_examples=40)
@given(words_strategy(rank=2, max_size=8))
def test_invert_is_involution_and_inverse(word):
    for model in (cs.FreeGroup(2), cs.KleinBottle(), cs.FreeAbelian(2)):
        g = model.normal_form(word)
        assert g.inverse().inverse() == g
        assert (g * g.inverse()).key == model.one
        assert (g.inverse() * g).key == model.one


# -- key arithmetic against the normalise-the-concatenation reference ----------

KERNEL_MODELS = [
    cs.FreeGroup(2), cs.FreeGroup(3), cs.FreeAbelian(2), cs.FreeAbelian(3),
    cs.KleinBottle(), cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1))),
    cs.DirectProduct((cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1))),
                      cs.FreeAbelian(1))),
]
KERNEL_IDS = ["F2", "F3", "Z2", "Z3", "Klein", "F2xZ", "F2xZxZ"]


def canonical_words(model, count):
    """`count` canonical words of `model`, from random words over its alphabet."""
    word = words_strategy(rank=model.alphabet.rank, max_size=12)
    return st.tuples(*[word] * count).map(
        lambda ws: tuple(model.normal_form_word(w) for w in ws))


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
@settings(max_examples=150)
@given(data=st.data())
def test_product_and_inverse_word_match_reference(model, data):
    u, v = data.draw(canonical_words(model, 2))
    g, h = model.element(u), model.element(v)
    assert (g * h).key == model.key_of(model.product_word(u, v))
    assert g.inverse().key == model.key_of(model.inverse_word(u))
    assert (g * h).word == model.product_word(u, v)
    assert g.inverse().word == model.inverse_word(u)


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
@settings(max_examples=150)
@given(data=st.data())
def test_keys_round_trip_through_canonical_words(model, data):
    word = data.draw(words_strategy(rank=model.alphabet.rank, max_size=12))
    key = model.key_of(word)
    # reading a word agrees with multiplying its letters one at a time
    folded = model.one
    for letter in word:
        folded = model.mul(folded, model.key_of((letter,)))
    assert key == folded
    assert model.key_of(model.spell(key)) == key
    # length and distance read only keys; with the ball tests, which compare
    # them with BFS depths, this shows that every canonical word is geodesic
    assert model.key_length(key) == len(model.spell(key))


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_letter_steps_and_key_distance_match_mul(model):
    # the overrides against their defaults: k x by mul, and |u^-1 v|
    keys = [g.key for g in fresh(model).ball(3)]
    assert list(model.letter_steps) == list(model.alphabet.letters)
    for k in keys:
        assert {l: step(k) for l, step in model.letter_steps.items()} == \
            {l: model.mul(k, x.key) for l, x in model.generators.items()}
    for u, v in itertools.product(keys, keys):
        assert model.key_distance(u, v) == \
            model.key_length(model.mul(model.inv(u), v))


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_word_boundary_matches_elements(model):
    # text, sort_key and geodesic are the one place keys turn into words
    ball = fresh(model).ball(3)
    keys = ball.keys[:len(ball)]
    for k in keys:
        g = cs.Element(model, k)
        assert model.text(k) == str(g) == format_word(model.spell(k))
        assert repr(g) == f"<{model.text(k)}>"
        assert model.sort_key(k) == g.sort_key() == \
            shortlex_key(model.spell(k), model.alphabet)
    for u, v in itertools.product(keys[:ball.sizes[2]], keys):
        path = model.geodesic(u, v)
        assert (path[0], path[-1]) == (u, v)
        assert len(path) == model.key_distance(u, v) + 1
        assert all(model.key_distance(a, b) == 1 for a, b in zip(path, path[1:]))


def test_element_is_immutable(f2xz):
    g = f2xz.element("abc")
    for attr in ("key", "model"):
        with pytest.raises(AttributeError):
            setattr(g, attr, getattr(f2xz.identity(), attr))
    assert not hasattr(g, "__dict__")
    assert g == f2xz.element("abc") and hash(g) == hash(g.key)


def test_abelian_keys_are_integer_exponents(z2):
    g = z2.element("aaB")
    assert g.key == z2.exponents(g) == (2, -1)
    assert all(type(e) is int for e in g.key)


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
@settings(max_examples=60)
@given(data=st.data())
def test_element_length_matches_word_length(model, data):
    word = data.draw(words_strategy(rank=model.alphabet.rank, max_size=12))
    assert model.normal_form(word).length == model.word_length(word)


def test_multiply_accepts_equal_models():
    # equal but distinct model objects: the identity test falls back to ==
    g = cs.FreeGroup(2).element("ab")
    h = cs.FreeGroup(2).element("Ba")
    assert str(cs.FreeGroup(2).multiply(g, h)) == "aa"
    assert str(cs.FreeGroup(2).invert(g)) == "BA"
    assert cs.FreeGroup(2).distance(g, h) == 4
    assert cs.magnus_order(cs.FreeGroup(2)).sign(g) is cs.Sign.POSITIVE


def test_invert_model_mismatch(f2, z2):
    with pytest.raises(cs.ModelMismatch):
        f2.invert(z2.element("a"))


def test_alphabet_built_once(f2, z2, klein, f2xz):
    for model in (f2, z2, klein, f2xz):
        assert model.alphabet is model.alphabet


def test_multiplication_associative_on_samples(klein):
    rng = random.Random(7)
    elems = [klein.normal_form(tuple(rng.choice((1, -1, 2, -2))
                                     for _ in range(rng.randint(0, 5))))
             for _ in range(12)]
    for g, h, k in itertools.islice(itertools.product(elems, repeat=3), 400):
        assert (g * h) * k == g * (h * k)


# -- balls ----------------------------------------------------------------------

def bfs_depths(ball):
    """Member -> the BFS sphere that found it, read off the held sizes."""
    sizes = ball.sizes
    return {g: bisect_right(sizes, i) for i, g in enumerate(ball)}


def reference_bfs(model, radius):
    """B(radius) as element -> depth, by a plain BFS over Elements: the
    slow reference for the held ball."""
    depths = {model.identity(): 0}
    frontier = [model.identity()]
    for depth in range(1, radius + 1):
        frontier = [h for h in dict.fromkeys(g * x for g in frontier
                                             for x in model.generators.values())
                    if h not in depths]
        depths.update(dict.fromkeys(frontier, depth))
    return depths


def test_ball_counts_match_closed_forms(f2, z2, klein, f2xz):
    # free: |B(R)| = 1 + 2k((2k-1)^R - 1)/(2k-2), asserted against BFS
    for k in (2, 3):
        model = cs.FreeGroup(k)
        for radius in range(0, 7):
            expected = 1 + 2 * k * ((2 * k - 1) ** radius - 1) // (2 * k - 2)
            assert len(model.ball(radius)) == expected
    # rank-2 abelian: 2R^2 + 2R + 1
    for radius in range(0, 7):
        assert len(z2.ball(radius)) == 2 * radius * radius + 2 * radius + 1
    # Klein: b^n a^m has length |n| + |m|, so the count is that of Z^2
    for radius in range(0, 9):
        assert len(klein.ball(radius)) == 2 * radius * radius + 2 * radius + 1
    # F2 x Z: lengths add, so sphere sizes are the convolution of the
    # factor sphere sizes 1, 4, 12, 36, ... and 1, 2, 2, 2, ...
    def free_sphere(n):
        return 1 if n == 0 else 4 * 3 ** (n - 1)

    def line_sphere(n):
        return 1 if n == 0 else 2

    ball = f2xz.ball(6)
    for radius in range(0, 7):
        expected = sum(free_sphere(i) * line_sphere(radius - i)
                       for i in range(radius + 1))
        assert sum(1 for d in bfs_depths(ball).values() if d == radius) == expected


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_sorted_elements_sorts_once_into_fresh_lists(model):
    ball = model.ball(3)
    first = ball.sorted_elements()
    assert first == sorted(ball, key=cs.Element.sort_key)
    first.reverse()
    first.append(model.identity())
    second = ball.sorted_elements()
    assert second == sorted(ball, key=cs.Element.sort_key)
    assert second is not first
    assert list(ball) == second


def test_ball_examples(f2, z2):
    assert len(f2.ball(1)) == 5
    assert len(f2.ball(2)) == 17
    assert len(z2.ball(2)) == 13


def test_ball_growth_monotone(klein, f2xz):
    for model in (klein, f2xz):
        sizes = [len(model.ball(radius)) for radius in range(5)]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)


def test_ball_distances_are_exact_bfs_depths(f2xz):
    for g, d in bfs_depths(f2xz.ball(4)).items():
        assert g.length == d


def fresh(model):
    """An equal model that holds no ball yet."""
    return cs.model_from_descriptor(model.descriptor())


# radii asked of one model in turn: "forward" grows the held ball in two
# steps, "reverse" (the same requests backwards) grows it at once and cuts
REQUESTS = pytest.mark.parametrize(
    "requests", [(3, 0, 4, 1, 2, 4), (4, 2, 1, 4, 0, 3)],
    ids=["forward", "reverse"])


@REQUESTS
@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_ball_within_matches_fresh_ball(model, requests):
    # a ball within the one the model holds, in any request order, is the
    # ball a fresh model builds: same members, depths and shortlex order
    held = fresh(model)
    for n in requests:
        ball, reference = held.ball(n), fresh(model).ball(n)
        assert ball.radius == n
        assert list(ball) == list(reference)
        assert bfs_depths(ball) == bfs_depths(reference)
        assert ball.sorted_elements() == sorted(reference,
                                                key=cs.Element.sort_key)
    with pytest.raises(ValueError):
        held.ball(-1)


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_ball_within_keeps_sorted_parent_order(model, monkeypatch):
    # BFS discovery order is shortlex order except on the Klein bottle, so
    # growth sorts only there, keying each new member's word once (the
    # identity, sphere 0, is never sorted). Growing in steps and cutting
    # smaller balls keeps every ball a prefix.
    assert model.shortlex_discovery is not isinstance(model, cs.KleinBottle)
    keyed = []

    def counted(word, alphabet):
        keyed.append(word)
        return shortlex_key(word, alphabet)
    held = fresh(model)
    monkeypatch.setattr(groups, "shortlex_key", counted)
    balls = [list(held.ball(n)) for n in (2, 0, 4, 1, 3, 4)]
    monkeypatch.undo()
    largest = list(held.ball(4))
    assert largest == sorted(largest, key=cs.Element.sort_key)
    sorts = isinstance(model, cs.KleinBottle)
    assert (sorted(keyed, key=lambda w: shortlex_key(w, model.alphabet))
            == ([g.word for g in largest[1:]] if sorts else []))
    assert balls == [largest[:len(held.ball(n))] for n in (2, 0, 4, 1, 3, 4)]


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_step_table_matches_mul(model):
    # step[rank * |S| + i] is the rank of g x_i, or -1 exactly where the
    # product leaves the held ball
    ball = fresh(model).ball(4)
    letters = [x.key for x in model.generators.values()]
    width = len(letters)
    assert ball.width == width and len(ball.step) == width * len(ball.keys)
    for rank, g in enumerate(ball.keys):
        for i, x in enumerate(letters):
            h = model.mul(g, x)
            assert ball.step[rank * width + i] == ball.ranks.get(h, -1)
            assert (ball.step[rank * width + i] == -1) == (model.key_length(h) > 4)
    # grown in steps, the table is the same
    stepped = fresh(model)
    for n in (2, 0, 4, 1, 3):
        stepped.ball(n)
    assert stepped.ball(4).step == ball.step


def test_growth_forms_only_the_unknown_steps():
    # a member's steps back into the previous sphere are filled when it is
    # found, so on F2 growth takes one letter step per member beyond the
    # identity: |B(6)| - 1 = 1,456, grown at once or in steps
    for requests in ((6,), (2, 0, 4, 1, 6)):
        model, calls = cs.FreeGroup(2), []
        model.letter_steps = {l: lambda k, f=f: calls.append(1) or f(k)
                              for l, f in model.letter_steps.items()}
        for n in requests:
            model.ball(n)
        assert len(calls) == len(model.ball(6)) - 1 == 1456


@REQUESTS
@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_held_index_matches_sorted_reference_bfs(model, requests):
    # the held ball is the fast path; a plain BFS sorted by sort_key is the
    # reference, after requests in mixed order
    held = fresh(model)
    early = held.ball(1)
    early_members = list(early)
    for n in requests:
        ball = held.ball(n)
        reference = reference_bfs(model, n)
        assert list(ball) == sorted(reference, key=cs.Element.sort_key)
        assert bfs_depths(ball) == reference
        assert all(ball.ranks[g.key] == i for i, g in enumerate(ball))
        sizes = ball.sizes
        for m in range(1, n + 1):
            sphere = ball.keys[sizes[m - 1]:sizes[m]]
            assert all(model.key_length(g) == m for g in sphere)
    # a Ball taken before the growth keeps its length, members and membership
    beyond = held.ball(4).sorted_elements()[len(early_members):]
    assert len(early) == len(early_members) and list(early) == early_members
    assert all(g in early for g in early_members)
    assert not any(g in early for g in beyond)
    # membership keeps the model check of Element equality
    other = cs.Element(cs.FreeGroup(5), early_members[-1].key)
    assert other not in early


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_order_is_shortlex_order(model, data):
    ball = model.ball(3)
    ranks = ball.ranks
    subset = data.draw(st.lists(st.sampled_from(ball.sorted_elements()),
                                unique_by=lambda g: g.key))
    assert (sorted(subset, key=lambda g: ranks[g.key])
            == sorted(subset, key=cs.Element.sort_key))


def test_ball_cap():
    model = cs.FreeGroup(2)
    model.cap = 100
    with pytest.raises(cs.CapExceeded) as err:
        model.ball(4)
    # the guard counts the nodes the BFS holds, stopping at the first over
    assert err.value.reached == 101


def test_ball_cap_holds_for_a_grown_ball():
    model = cs.FreeGroup(2)
    model.ball(4)
    # |B(3)| = 53: a grown ball is refused exactly as a fresh BFS refuses it
    model.cap = 52
    for radius in (3, 4, 5):
        with pytest.raises(cs.CapExceeded) as err:
            model.ball(radius)
        assert (err.value.reached, err.value.cap) == (53, 52)
    model.cap = 53
    assert len(model.ball(3)) == 53


def test_cap_hit_in_mid_growth_keeps_no_partial_sphere():
    # growth appends in place; a sphere cut short by the cap stays past the
    # last member, where no view of a held radius reads
    for model in KERNEL_MODELS:
        check_cap_hit_in_mid_growth(fresh(model), fresh(model).ball(4))


def check_cap_hit_in_mid_growth(model, reference):
    sizes = reference.sizes
    views = {n: model.ball(n) for n in range(3)}
    before = {n: (list(view), len(view)) for n, view in views.items()}
    model.cap = (sizes[3] + sizes[4]) // 2  # B(3) fits, B(4) does not
    with pytest.raises(cs.CapExceeded) as err:
        model.ball(4)
    assert err.value.reached == model.cap + 1
    held = model._held
    assert held.radius == 3 and held.sizes == sizes[:4]
    assert len(held.keys) == sizes[3] < len(held.ranks)
    assert len(held.step) == sizes[3] * held.width
    partial = [k for k in held.ranks if held.ranks[k] >= sizes[3]]
    for n, view in {**views, 3: model.ball(3)}.items():
        if n in before:
            assert (list(view), len(view)) == before[n]
        assert list(view) == list(reference)[:sizes[n]]
        assert not any(cs.Element(model, k) in view for k in partial)
        # every step a view follows stays inside it
        for rank in range(len(view)):
            assert view.near(rank, 1) <= set(range(len(view)))
    model.cap = sizes[4]  # |B(4)| exactly
    assert list(model.ball(4)) == list(reference)
    assert model.ball(4).step == reference.step
    assert model.ball(4).ranks == reference.ranks


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_growth_keeps_one_held_ball(model):
    # growing a sphere at a time extends the held lists and table in place
    model = fresh(model)
    held = model._held
    keys, step = held.keys, held.step
    for k in range(1, 10 if model.alphabet.rank == 2 else 6):  # small balls
        ball = model.ball(k)
        assert model._held is held and held.radius == k
        assert ball.keys is keys and ball.step is step
    assert list(model.ball(k)) == list(fresh(model).ball(k))


def test_growth_builds_no_element(built):
    # the held ball holds keys: an Element is built only when a member is read
    for model, radius in ((cs.FreeGroup(2), 6), (cs.FreeAbelian(2), 12),
                          (cs.KleinBottle(), 12),
                          (cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1))), 5)):
        ball = model.ball(radius)
        assert built == [] and len(ball) > 1
        assert list(ball) == [cs.Element(model, k) for k in ball.keys[:len(ball)]]
        assert len(built) == 2 * len(ball)
        built.clear()


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=KERNEL_IDS)
def test_iteration_reads_keys_in_rank_order(model):
    ball = fresh(model).ball(3)
    members = list(ball)
    assert [g.key for g in members] == ball.keys[:len(ball)]
    assert all(g.model is ball.model for g in members)
    assert [ball.ranks[g.key] for g in members] == list(range(len(ball)))
    assert ball.sorted_elements() == members


def test_membership_compares_models():
    # the key (1, 0) is a in Z^2 and b in the Klein bottle
    z2, klein = cs.FreeAbelian(2), cs.KleinBottle()
    ball = klein.ball(2)
    assert klein.element("b") in ball and (1, 0) in ball.ranks
    assert cs.Element(z2, (1, 0)) not in ball
    assert cs.Element(cs.KleinBottle(), (1, 0)) in ball  # an equal model


# -- distances -------------------------------------------------------------------

def test_distance_examples(f2, klein):
    assert f2.distance(f2.element("a"), f2.element("b")) == 2
    g = f2.element("abA")
    assert f2.distance(g, g) == 0
    assert klein.distance(klein.identity(), klein.element("Ba")) == 2


def test_distance_shortcuts_agree_with_bfs(f2, z2, klein, f2xz):
    for model, radius in ((f2, 4), (z2, 4), (klein, 12), (f2xz, 4)):
        identity = model.identity()
        for g, d in bfs_depths(model.ball(radius)).items():
            assert model.distance(identity, g) == d


def test_distance_symmetry_and_triangle(f2, z2, klein):
    for model in (z2, klein):
        elems = model.ball(3).sorted_elements()
        for g, h in itertools.product(elems, repeat=2):
            assert model.distance(g, h) == model.distance(h, g)
        for g, h, k in itertools.islice(itertools.product(elems, repeat=3), 6000):
            assert model.distance(g, k) <= model.distance(g, h) + model.distance(h, k)
    # free group: spot-check the triangle inequality on ball(3)
    elems = f2.ball(3).sorted_elements()
    rng = random.Random(3)
    for _ in range(2000):
        g, h, k = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert model_distance_triangle(f2, g, h, k)


def model_distance_triangle(model, g, h, k):
    return model.distance(g, k) <= model.distance(g, h) + model.distance(h, k)


NEAR_BALLS = [
    (cs.FreeGroup(2), 5), (cs.FreeGroup(3), 4), (cs.FreeAbelian(2), 8),
    (cs.FreeAbelian(3), 5), (cs.KleinBottle(), 8),
    (cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1))), 4),
    (cs.DirectProduct((cs.KleinBottle(), cs.FreeAbelian(1))), 5),
    (cs.DirectProduct((cs.FreeGroup(2), cs.FreeGroup(2))), 4),
]


@pytest.mark.parametrize("model,radius", NEAR_BALLS, ids=[
    "F2", "F3", "Z2", "Z3", "Klein", "F2xZ", "KleinxZ", "F2xF2"])
def test_near_matches_key_distance(model, radius):
    # Ball.near walks the step table inside the ball; the reference measures
    # every pair of members by key_distance, on a view of a larger held ball
    model = fresh(model)
    model.ball(radius + 1)
    ball = model.ball(radius)
    keys = ball.keys[:len(ball)]
    for g, u in enumerate(keys):
        dist = [model.key_distance(u, v) for v in keys]
        for r in (1, 2, 3):
            assert ball.near(g, r) == {h for h, d in enumerate(dist) if d <= r}


# -- product conventions -----------------------------------------------------------

def test_product_length_is_sum_of_factor_lengths(f2xz):
    g = f2xz.element("abcc")   # (ab, z^2); z prints as "a" in its own factor
    assert g.length == 4
    assert str(f2xz.project(g, 0)) == "ab"
    assert f2xz.project(g, 1).length == 2


def test_product_embed_project_round_trip(f2xz):
    free_part = f2xz.factors[0].element("aB")
    embedded = f2xz.embed(free_part, 0)
    assert f2xz.project(embedded, 0) == free_part
    assert f2xz.project(embedded, 1).key == f2xz.factors[1].one
    z = f2xz.factors[1].generator(1)
    pair = f2xz.embed(free_part, 0) * f2xz.embed(z, 1)
    assert str(pair) == "aBc"


# -- descriptors ---------------------------------------------------------------------

def test_model_descriptor_round_trip(f2, z2, klein, f2xz):
    for model in (f2, z2, klein, f2xz):
        assert cs.model_from_descriptor(model.descriptor()) == model


def test_model_descriptor_rejects_garbage():
    with pytest.raises(ValueError):
        cs.model_from_descriptor({"kind": "dihedral"})
    with pytest.raises(ValueError):
        cs.model_from_descriptor({"kind": "product", "factors": []})
