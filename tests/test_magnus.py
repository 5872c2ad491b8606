import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import conescope as cs
from conescope.magnus import deglex_key, expand_word, leading_term
from conescope.words import free_reduce, inverse_word

from test_orders import NEGATED
from test_words import words_strategy


# naive oracle: multiply letter series as explicit term lists, no dict tricks
def naive_expand(word, degree):
    def letter_terms(letter):
        i = abs(letter)
        if letter > 0:
            return [((), 1), ((i,), 1)]
        return [((i,) * k, (-1) ** k) for k in range(degree + 1)]

    terms = [((), 1)]
    for letter in word:
        out = []
        for m1, c1 in terms:
            for m2, c2 in letter_terms(letter):
                if len(m1) + len(m2) <= degree:
                    out.append((m1 + m2, c1 * c2))
        # collect
        collected = {}
        for m, c in out:
            collected[m] = collected.get(m, 0) + c
        terms = [(m, c) for m, c in collected.items() if c != 0]
    return dict(terms)


def test_expand_single_generator():
    series = cs.magnus_expand((1,), 3)
    assert series.coefficients == {(): 1, (1,): 1}


def test_expand_inverse_generator():
    series = cs.magnus_expand((-1,), 2)
    assert series.coefficients == {(): 1, (1,): -1, (1, 1): 1}


def test_expand_commutator_degree_2():
    # a b a^-1 b^-1 at degree 2: 1 + X1X2 - X2X1
    series = cs.magnus_expand((1, 2, -1, -2), 4)
    degree2 = {m: c for m, c in series.coefficients.items()
               if len(m) == 2 and c != 0}
    assert degree2 == {(1, 2): 1, (2, 1): -1}
    # no surviving degree-1 part
    assert series.coefficient((1,)) == 0
    assert series.coefficient((2,)) == 0


def test_expand_matches_naive_oracle():
    words = [(1,), (-1,), (1, 2), (1, 2, -1, -2), (2, -1, -2, 1),
             (1, 1, -2), (-2, -1, 2, 1)]
    for word in words:
        degree = max(len(word), 1)
        mine = cs.magnus_expand(word, degree).coefficients
        naive = naive_expand(word, degree)
        naive.setdefault((), 1)
        mine = {m: c for m, c in mine.items() if c != 0}
        assert mine == naive


def test_empty_word_is_constant_one():
    series = cs.magnus_expand((), 1)
    assert series.terms() == [((), 1)]


def test_degree_too_small():
    with pytest.raises(cs.DegreeTooSmall):
        cs.magnus_expand((1, 2, 1), 2)


def test_truncation_degree_respected():
    series = cs.magnus_expand((-1, -2), 2)
    assert all(len(m) <= 2 for m in series.coefficients)


@settings(max_examples=80)
@given(words_strategy(rank=2, max_size=6))
def test_injectivity_at_scale(word):
    reduced = free_reduce(word)
    series = cs.magnus_expand(reduced, 6)
    assert (series.terms() == [((), 1)]) == (reduced == ())


def test_deglex_order():
    assert deglex_key((1,)) < deglex_key((2,))
    assert deglex_key((2,)) < deglex_key((1, 1))
    assert deglex_key((1, 2)) < deglex_key((2, 1))


def test_magnus_sign_examples():
    assert cs.magnus_sign(()) is cs.Sign.IDENTITY
    assert cs.magnus_sign((1,)) is cs.Sign.POSITIVE
    assert cs.magnus_sign((-1,)) is cs.Sign.NEGATIVE
    # a^-1 b: leading monomial X1 with coefficient -1, so b < a
    assert cs.magnus_sign((-1, 2)) is cs.Sign.NEGATIVE
    assert cs.magnus_sign((-2, 1)) is cs.Sign.POSITIVE


def test_magnus_sign_agrees_with_full_expansion():
    # the degree-by-degree search must match a single max-degree expansion
    for word in [(1, 2), (-1, 2), (1, 2, -1, -2), (-1, -2, 1, 2),
                 (2, 2, -1), (1, -2, -2, -2)]:
        series = cs.magnus_expand(word, max(len(word), 1))
        candidates = [(m, c) for m, c in series.coefficients.items()
                      if m and c != 0]
        expected = min(candidates, key=lambda mc: deglex_key(mc[0]))
        assert leading_term(word) == expected


@settings(max_examples=60)
@given(words_strategy(rank=2, max_size=6))
def test_magnus_sign_antisymmetric(word):
    from conescope.words import inverse_word
    s = cs.magnus_sign(word)
    assert cs.magnus_sign(inverse_word(word)) is NEGATED[s]


def test_magnus_sign_unreduced_input_matches_reduced():
    # expansion is a homomorphism, so unreduced spellings agree
    assert cs.magnus_sign((1, -1)) is cs.Sign.IDENTITY
    assert cs.magnus_sign((2, 1, -1)) is cs.magnus_sign((2,))


def test_magnus_bi_invariance_on_ball(f2, magnus):
    # conjugation preserves the sign: the order is bi-invariant
    ball = f2.ball(3)
    positives = magnus.positives(ball)
    for g in positives[:20]:
        for h in ball.sorted_elements()[:20]:
            conj = h * g * h.inverse()
            assert magnus.sign(conj) is cs.Sign.POSITIVE


# -- leading_term by degree against iterative deepening -----------------------

def deepening_leading_term(word):
    """Re-expand at degree 1, 2, ... until a nonzero term shows."""
    reduced = free_reduce(word)
    if not reduced:
        return None
    for degree in range(1, len(reduced) + 1):
        coeffs = expand_word(reduced, degree)
        candidates = [(m, c) for m, c in coeffs.items() if m and c != 0]
        if candidates:
            return min(candidates, key=lambda mc: deglex_key(mc[0]))
    raise AssertionError(f"expansion of {reduced} vanished")


def random_reduced_word(rng, rank, max_length):
    letters = [l for i in range(1, rank + 1) for l in (i, -i)]
    word = []
    for _ in range(rng.randint(0, max_length)):
        word.append(rng.choice([l for l in letters
                                if not word or l != -word[-1]]))
    return tuple(word)


def commutator(u, v):
    return free_reduce(u + v + inverse_word(u) + inverse_word(v))


@pytest.mark.parametrize("rank", [2, 3])
def test_leading_term_matches_deepening_on_random_words(rank):
    rng = random.Random(rank)
    words = []
    for _ in range(2000):
        u, v, w = (random_reduced_word(rng, rank, 3) for _ in range(3))
        words.append(random_reduced_word(rng, rank, 14))
        words.append(commutator(u, v))
        words.append(commutator(commutator(u, v), w))
    degrees = collections.Counter()
    for word in words:
        expected = deepening_leading_term(word)
        assert leading_term(word) == expected, word
        if expected is not None:
            degrees[len(expected[0])] += 1
    assert {1, 2, 3, 4} <= set(degrees)


@pytest.mark.parametrize("rank, radius", [(2, 7), (3, 4)])
def test_leading_term_matches_deepening_on_ball(rank, radius):
    for g in cs.FreeGroup(rank).ball(radius):
        assert leading_term(g.word) == deepening_leading_term(g.word)


def test_leading_term_keeps_unreduced_input_and_rank():
    # the letters beyond the rank of the word never enter a monomial
    assert leading_term((3, -3, 1, 2, -1, -2)) == ((1, 2), 1)
    assert leading_term((2, 3, -2, -3)) == ((2, 3), 1)
    assert leading_term((-3, 2, 3, -2)) == ((2, 3), 1)


# -- the order's sign: exponent sums first ------------------------------------------------

@pytest.mark.parametrize("rank, radius", [(2, 7), (3, 5)])
def test_magnus_order_sign_matches_magnus_sign_on_ball(monkeypatch, rank,
                                                       radius):
    # the order decides by the exponent sums and asks `magnus_sign` only
    # for the identity and the words of [F, F]
    import conescope.orders as orders
    model = cs.FreeGroup(rank)
    sign_fn = cs.magnus_order(model).sign_fn
    calls = []
    monkeypatch.setattr(orders, "magnus_sign",
                        lambda word: calls.append(word) or cs.magnus_sign(word))
    keys = [g.key for g in model.ball(radius)]
    words = list(map(model.spell, keys))
    assert [sign_fn(key) for key in keys] == [cs.magnus_sign(word)
                                              for word in words]
    in_commutator = [word for word in words
                     if all(word.count(i) == word.count(-i)
                            for i in range(1, rank + 1))]
    assert calls == in_commutator


@settings(max_examples=200)
@given(words_strategy(rank=3, max_size=14), words_strategy(rank=3, max_size=4),
       words_strategy(rank=3, max_size=4))
def test_magnus_order_sign_matches_magnus_sign_on_drawn_words(word, u, v):
    model = cs.FreeGroup(3)
    sign_fn = cs.magnus_order(model).sign_fn
    for reduced in (free_reduce(word), commutator(u, v),
                    commutator(commutator(u, v), free_reduce(word))):
        assert sign_fn(model.key_of(reduced)) is cs.magnus_sign(reduced), reduced
