"""Words over a finite symmetric generator alphabet.

A letter is a nonzero signed integer: +i is the i-th generator, -i its
inverse. A word is a tuple of letters. The letter order is fixed once and
for all: x1 < x1^-1 < x2 < x2^-1 < ...  Serialization uses one ascii
letter per generator ("a", "b", ...), uppercase for the inverse, and "1"
for the empty word.
"""

from __future__ import annotations

from functools import cached_property

from .errors import UnknownLetter

Letter = int
Word = tuple[int, ...]

EMPTY: Word = ()

_MAX_RANK = 26


class GeneratorAlphabet:
    """A symmetric alphabet x1, x1^-1, ..., xk, xk^-1 with the fixed order."""

    def __init__(self, rank: int):
        if not 1 <= rank <= _MAX_RANK:
            raise ValueError(f"rank must be in 1..{_MAX_RANK}, got {rank}")
        self.rank = rank

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        out = []
        for i in range(1, self.rank + 1):
            out.append(i)
            out.append(-i)
        return tuple(out)

    @cached_property
    def positions(self) -> dict[Letter, int]:
        """Letter -> index in the fixed order, the table shortlex_key reads."""
        return {letter: self.position(letter) for letter in self.letters}

    def __len__(self) -> int:
        return 2 * self.rank

    def position(self, letter: Letter) -> int:
        """Index of a letter in the fixed order (x1 < x1^-1 < x2 < ...)."""
        self.check_letter(letter)
        return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)

    def check_letter(self, letter: Letter) -> None:
        if not isinstance(letter, int) or letter == 0 or abs(letter) > self.rank:
            raise UnknownLetter(f"letter {letter!r} outside alphabet of rank {self.rank}")

    def check_word(self, word: Word) -> None:
        for letter in word:
            self.check_letter(letter)


def inverse_word(word: Word) -> Word:
    return tuple(-l for l in reversed(word))


def letter_char(letter: Letter) -> str:
    base = chr(ord("a") + abs(letter) - 1)
    return base if letter > 0 else base.upper()


def char_letter(ch: str) -> Letter:
    if len(ch) != 1 or not ch.isalpha() or not ch.isascii():
        raise UnknownLetter(f"invalid word character {ch!r}")
    index = ord(ch.lower()) - ord("a") + 1
    return index if ch.islower() else -index


# letter -> character for every letter of the largest alphabet
_CHARS = {l: letter_char(l) for i in range(1, _MAX_RANK + 1) for l in (i, -i)}


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return "".join(map(_CHARS.__getitem__, word))


def parse_word(text: str, alphabet: GeneratorAlphabet | None = None) -> Word:
    """Inverse of format_word; "1" denotes the empty word."""
    if text == "1" or text == "":
        return EMPTY
    word = tuple(char_letter(ch) for ch in text)
    if alphabet is not None:
        alphabet.check_word(word)
    return word


def shortlex_key(word: Word, alphabet: GeneratorAlphabet) -> tuple:
    """Sort key: length first, then the fixed letter order positionwise."""
    try:
        return (len(word), tuple(map(alphabet.positions.__getitem__, word)))
    except KeyError:
        alphabet.check_word(word)  # raises UnknownLetter
        raise


def free_reduce(word: Word) -> Word:
    """The unique freely reduced form: delete adjacent letter/inverse pairs."""
    stack: list[int] = []
    for letter in word:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)
