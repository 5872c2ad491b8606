import pytest
from hypothesis import given, strategies as st

import conescope as cs
from conescope.words import (
    GeneratorAlphabet,
    format_word,
    free_reduce,
    inverse_word,
    parse_word,
    shortlex_key,
)


def letters_strategy(rank=2):
    return st.sampled_from([i for i in range(1, rank + 1)]
                           + [-i for i in range(1, rank + 1)])


def words_strategy(rank=2, max_size=12):
    return st.lists(letters_strategy(rank), max_size=max_size).map(tuple)


def naive_reduce(word):
    """Repeated single-pair deletion, the brute-force oracle."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


def test_alphabet_order():
    ab = GeneratorAlphabet(2)
    assert ab.letters == (1, -1, 2, -2)
    assert [ab.position(l) for l in ab.letters] == [0, 1, 2, 3]
    with pytest.raises(cs.UnknownLetter):
        ab.position(3)
    with pytest.raises(cs.UnknownLetter):
        ab.position(0)


def test_serialization_basics():
    assert format_word(()) == "1"
    assert format_word((1, -1, 2, -2)) == "aAbB"
    assert parse_word("1") == ()
    assert parse_word("aAbB") == (1, -1, 2, -2)
    with pytest.raises(cs.UnknownLetter):
        parse_word("a!b")
    with pytest.raises(cs.UnknownLetter):
        parse_word("abc", GeneratorAlphabet(2))


@given(words_strategy(rank=3))
def test_serialization_round_trip(word):
    assert parse_word(format_word(word)) == word


def test_free_reduce_examples():
    # a a^-1 -> empty
    assert free_reduce((1, -1)) == ()
    # a b b^-1 a -> a a
    assert free_reduce((1, 2, -2, 1)) == (1, 1)


def test_free_reduce_matches_naive_oracle_200_random():
    import random
    rng = random.Random(1202)
    for _ in range(200):
        n = rng.randint(0, 12)
        word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(n))
        assert free_reduce(word) == naive_reduce(word)


@given(words_strategy())
def test_free_reduce_idempotent_and_matches_oracle(word):
    reduced = free_reduce(word)
    assert reduced == naive_reduce(word)
    assert free_reduce(reduced) == reduced


@given(words_strategy())
def test_inverse_word_round_trip(word):
    assert free_reduce(inverse_word(inverse_word(word))) == free_reduce(word)
    assert free_reduce(word + inverse_word(word)) == ()


def test_shortlex_key_order():
    ab = GeneratorAlphabet(2)
    # length dominates, then the fixed letter order a < A < b < B
    assert shortlex_key((1,), ab) < shortlex_key((1, 1), ab)
    assert shortlex_key((1,), ab) < shortlex_key((-1,), ab)
    assert shortlex_key((-1,), ab) < shortlex_key((2,), ab)
    assert shortlex_key((2,), ab) < shortlex_key((-2,), ab)


@given(st.integers(1, 4).flatmap(
    lambda rank: st.tuples(st.just(rank), words_strategy(rank=rank))))
def test_shortlex_key_matches_position(rank_word):
    rank, word = rank_word
    ab = GeneratorAlphabet(rank)
    assert shortlex_key(word, ab) == (len(word),
                                      tuple(ab.position(l) for l in word))


@given(words_strategy(rank=2), st.sampled_from([0, 3, -3, 7]),
       words_strategy(rank=2))
def test_shortlex_key_rejects_unknown_letter(before, bad, after):
    with pytest.raises(cs.UnknownLetter):
        shortlex_key(before + (bad,) + after, GeneratorAlphabet(2))
