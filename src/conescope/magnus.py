"""Truncated noncommutative power-series expansion of free-group words.

Substituting x_i -> 1 + X_i and x_i^-1 -> 1 - X_i + X_i^2 - ... +- X_i^D
embeds the free group into the units of the integer series ring truncated
at total degree D. The embedding is injective as soon as D >= |w|, which
gives a computable bi-invariant order: compare the lowest (degree, then
lexicographic) monomial of the expansion minus 1.

Monomials are tuples of variable indices, so X_1 X_2 is (1, 2) and the
constant monomial is (). `expand_word` and `magnus_expand` expand a word
as a dict of monomials; they are the reference. The order reads only
`leading_term`, which goes degree by degree. The degree-1 coefficients
are the exponent sums, and every coefficient of degree < d vanishes
exactly when w lies in gamma_d, the d-th term of the lower central series
(Magnus-Karrass-Solitar, ch. 5). So most words are decided by counting
letters, and a word in gamma_2 takes one pass over it per further degree.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import DegreeTooSmall
from .words import Word, free_reduce

Monomial = tuple[int, ...]
Coefficients = dict[Monomial, int]


class MagnusSeries:
    """An integer polynomial in noncommuting variables, truncated by degree."""

    def __init__(self, truncation_degree: int, coefficients: Coefficients):
        for mono in coefficients:
            if len(mono) > truncation_degree:
                raise ValueError(f"monomial {mono} exceeds degree "
                                 f"{truncation_degree}")
        self.truncation_degree = truncation_degree
        self.coefficients = coefficients

    def coefficient(self, mono: Monomial) -> int:
        return self.coefficients.get(mono, 0)

    def terms(self) -> list[tuple[Monomial, int]]:
        nonzero = [(m, c) for m, c in self.coefficients.items() if c != 0]
        return sorted(nonzero, key=lambda mc: deglex_key(mc[0]))


def deglex_key(mono: Monomial) -> tuple:
    """Degree first, then lexicographic on the index sequence."""
    return (len(mono), mono)


def series_product(a: Coefficients, b: Coefficients, degree: int) -> Coefficients:
    out: Coefficients = {}
    for m1, c1 in a.items():
        if c1 == 0:
            continue
        for m2, c2 in b.items():
            if c2 == 0 or len(m1) + len(m2) > degree:
                continue
            mono = m1 + m2
            out[mono] = out.get(mono, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0} or {(): 0}


def generator_series(letter: int, degree: int) -> Coefficients:
    """Expansion of a single letter at the given truncation degree."""
    i = abs(letter)
    if letter > 0:
        coeffs: Coefficients = {(): 1}
        if degree >= 1:
            coeffs[(i,)] = 1
        return coeffs
    # geometric series: (1 + X)^-1 truncated
    return {(i,) * k: (-1) ** k for k in range(degree + 1)}


def expand_word(word: Word, degree: int) -> Coefficients:
    result: Coefficients = {(): 1}
    for letter in word:
        result = series_product(result, generator_series(letter, degree), degree)
    return result


def magnus_expand(word: Word, degree: int) -> MagnusSeries:
    """Expand a reduced word at truncation degree >= |w|.

    The degree bound keeps the expansion injective; shorter truncations are
    refused with DegreeTooSmall.
    """
    if degree < 1:
        raise ValueError("truncation degree must be positive")
    if len(word) > degree:
        raise DegreeTooSmall(f"word of length {len(word)} needs degree >= "
                             f"{len(word)}, got {degree}")
    coeffs = expand_word(word, degree)
    coeffs.setdefault((), 1)
    return MagnusSeries(degree, coeffs)


def leading_term(word: Word) -> tuple[Monomial, int] | None:
    """Deglex-least nonzero monomial of (expansion - 1), or None for identity.

    The degree-1 coefficient of X_i is the exponent sum of x_i. Only when
    every sum is zero does the search go on to degree 2, 3, ...: the
    coefficients of degree <= d are exact in a degree-d truncation, so the
    first degree with a nonzero coefficient holds the deglex minimum.
    """
    reduced = free_reduce(word)
    if not reduced:
        return None
    rank = max(map(abs, reduced))
    for i in range(1, rank + 1):
        total = reduced.count(i) - reduced.count(-i)
        if total:
            return (i,), total
    for degree in range(2, len(reduced) + 1):
        term = _leading_at_degree(reduced, rank, degree)
        if term is not None:
            return term
    raise AssertionError(f"expansion of reduced word {reduced} vanished at "
                         f"degree {len(reduced)}; injectivity violated")


def _leading_at_degree(word: Word, rank: int,
                       degree: int) -> tuple[Monomial, int] | None:
    """Lex-least nonzero degree-`degree` term of the expansion, if any.

    One left-to-right pass over the word keeps every coefficient of degree
    <= `degree` in a flat list: monomial (i_1, ..., i_e) sits at
    start[e] + its base-`rank` number sum (i_j - 1) rank^(e - j), so each
    degree is in lex order. Times (1 + X_i), the coefficient of m X_i gains
    that of m, read before m is updated (degrees high to low); times
    (1 + X_i)^-1 it loses that of m, read after (degrees low to high).
    """
    start = list(accumulate((rank ** e for e in range(degree + 1)), initial=0))
    coeffs = [0] * start[-1]
    coeffs[0] = 1
    for letter in word:
        i = abs(letter) - 1
        sign, degrees = ((1, range(degree, 0, -1)) if letter > 0
                         else (-1, range(1, degree + 1)))
        for e in degrees:
            below, at = start[e - 1], start[e] + i
            for j in range(start[e] - below):
                coeffs[at + j * rank] += sign * coeffs[below + j]
    for n, c in enumerate(coeffs[start[degree]:]):
        if c:
            return tuple(n // rank ** e % rank + 1
                         for e in reversed(range(degree))), c
    return None
