"""Group models with exact word arithmetic, normal forms and ball enumeration.

Four model kinds are supported:

* FreeGroup(k): normal form is the freely reduced word.
* FreeAbelian(n): normal form is x1^e1 ... xn^en (sorted exponent blocks).
* KleinBottle: presentation <a, b | a b a^-1 = b^-1>, normal form b^n a^m,
  obtained by pushing every a past the b's with the rewrite a b^e -> b^-e a.
* DirectProduct(m1, m2): disjoint-union alphabet, normal form is the
  concatenation of the factor normal forms, so |(g, h)| = |g| + |h|.

Every element is stored by its canonical word, which makes elements usable
as deterministic dictionary keys. Every normal form is geodesic, so the word
length is the length of the canonical word. For the Klein bottle: each
generator moves |n| + |m| of b^n a^m by at most one, and b^n a^m spells it.
Hence a BFS ball B(R) holds every smaller ball B(n) with the same exact
distances (its members at depth <= n, `Ball.within`), and in shortlex order
B(n) is a prefix of B(R): diagnostics build their largest ball once.

Products and inverses work on canonical words, never on a concatenation to
be normalised again (`product_word`, `inverse_word`):

* FreeGroup: cancel letter/inverse pairs at the junction of u and v only;
  the inverse is the reversed word with every letter negated.
* FreeAbelian: add or negate the exponent vectors read off the blocks.
* KleinBottle: compose (n, m) in closed form,
  b^n1 a^m1 b^n2 a^m2 = b^(n1 + (-1)^m1 n2) a^(m1 + m2), and the inverse
  of b^n a^m is b^(-(-1)^m n) a^(-m).
* DirectProduct: split each word where its first factor's letters end and
  combine the two factor results.

The GroupModel defaults, normal_form_word of the concatenation or of the
inverted word, are the slow reference the tests compare these against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapExceeded, ModelMismatch
from .words import (
    EMPTY,
    GeneratorAlphabet,
    Word,
    concat,
    format_word,
    free_reduce,
    inverse_word,
    parse_word,
    shortlex_key,
)

DEFAULT_CAP = 10**7

# Traversal order for ball BFS; "reverse" flips letter expansion only, the
# returned members must be identical either way.
TRAVERSALS = ("forward", "reverse")


@dataclass(frozen=True)
class Element:
    """A group element held by its canonical (normal form) word."""

    model: "GroupModel"
    word: Word

    def __hash__(self) -> int:
        # hot path in ball BFS; the word alone is a valid hash (equality
        # still compares the model)
        return hash(self.word)

    def __mul__(self, other: "Element") -> "Element":
        return self.model.multiply(self, other)

    def inverse(self) -> "Element":
        return self.model.invert(self)

    def is_identity(self) -> bool:
        return not self.word

    def sort_key(self) -> tuple:
        return shortlex_key(self.word, self.model.alphabet)

    @property
    def length(self) -> int:
        """Word-metric distance from the identity (normal forms are geodesic)."""
        return len(self.word)

    def __str__(self) -> str:
        return format_word(self.word)

    def __repr__(self) -> str:
        return f"<{format_word(self.word)}>"


@dataclass(frozen=True)
class Ball:
    """All elements within a given word-metric radius of the center."""

    center: Element
    radius: int
    members: dict[Element, int] = field(compare=False)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, g: Element) -> bool:
        return g in self.members

    def __iter__(self):
        return iter(self._shortlex)

    def sorted_elements(self) -> list[Element]:
        """The members in shortlex order, as a list the caller may modify."""
        return list(self._shortlex)

    @cached_property
    def _shortlex(self) -> tuple[Element, ...]:
        # the ball never changes, so it is sorted once
        return tuple(sorted(self.members, key=Element.sort_key))

    def within(self, n: int) -> "Ball":
        """B(n): the members at depth <= n of a ball around the identity
        (this ball when n >= radius). There depth is word length, which
        shortlex compares first, so the cut's order is a prefix of this
        ball's, which is sorted once for all its cuts."""
        if n >= self.radius:
            return self
        if n < 0:
            raise ValueError("radius must be non-negative")
        if self.center.word:
            raise ValueError("only a ball around the identity is cut by depth")
        cut = Ball(center=self.center, radius=n,
                   members={g: d for g, d in self.members.items() if d <= n})
        cut.__dict__["_shortlex"] = self._shortlex[:len(cut)]
        return cut

    def translated(self, g: Element) -> "Ball":
        """The ball g * B: left translation preserves word distances."""
        moved = {g * h: d for h, d in self.members.items()}
        return Ball(center=g * self.center, radius=self.radius, members=moved)


class GroupModel:
    """Shared machinery; concrete kinds fill in the normal form."""

    # concrete subclasses define: alphabet, kind, normal_form_word, descriptor

    @property
    def alphabet(self) -> GeneratorAlphabet:
        raise NotImplementedError

    def normal_form_word(self, word: Word) -> Word:
        raise NotImplementedError

    def product_word(self, u: Word, v: Word) -> Word:
        """The canonical word of uv, for canonical words u and v."""
        return self.normal_form_word(concat(u, v))

    def inverse_word(self, u: Word) -> Word:
        """The canonical word of u^-1, for a canonical word u."""
        return self.normal_form_word(inverse_word(u))

    def descriptor(self) -> dict:
        raise NotImplementedError

    # -- elements ---------------------------------------------------------

    def normal_form(self, word: Word) -> Element:
        self.alphabet.check_word(word)
        return Element(self, self.normal_form_word(word))

    def element(self, spec: "Word | str | Element") -> Element:
        if isinstance(spec, Element):
            if spec.model != self:
                raise ModelMismatch(f"element {spec} belongs to a different model")
            return spec
        if isinstance(spec, str):
            spec = parse_word(spec, self.alphabet)
        return self.normal_form(tuple(spec))

    def identity(self) -> Element:
        return Element(self, EMPTY)

    @cached_property
    def generators(self) -> dict[int, Element]:
        """Letter -> the generator or inverse it spells, in the letter order."""
        return {l: self.normal_form((l,)) for l in self.alphabet.letters}

    def generator(self, index: int) -> Element:
        """The index-th generator (1-based) as an element."""
        return self.normal_form((index,))

    def multiply(self, g: Element, h: Element) -> Element:
        if ((g.model is not self and g.model != self)
                or (h.model is not self and h.model != self)):
            raise ModelMismatch("operands belong to different models")
        return Element(self, self.product_word(g.word, h.word))

    def invert(self, g: Element) -> Element:
        if g.model is not self and g.model != self:
            raise ModelMismatch("operand belongs to a different model")
        return Element(self, self.inverse_word(g.word))

    # -- metric -----------------------------------------------------------

    def word_length(self, word: Word) -> int:
        """|w| in the word metric: the canonical word is geodesic."""
        return len(self.normal_form_word(word))

    def distance(self, g: Element, h: Element) -> int:
        """d(g, h) = |g^-1 h|."""
        if ((g.model is not self and g.model != self)
                or (h.model is not self and h.model != self)):
            raise ModelMismatch("operands belong to different models")
        return len(self.product_word(self.inverse_word(g.word), h.word))

    # -- enumeration ------------------------------------------------------

    def ball(self, radius: int, cap: int | None = None,
             traversal: str = "forward") -> Ball:
        """Breadth-first ball around the identity with exact distances.

        Raises CapExceeded as soon as the ball holds more than cap nodes.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if traversal not in TRAVERSALS:
            raise ValueError(f"traversal must be one of {TRAVERSALS}")
        cap = DEFAULT_CAP if cap is None else cap
        letters = self.alphabet.letters
        if traversal == "reverse":
            letters = tuple(reversed(letters))
        gens = [self.generators[l] for l in letters]
        identity = self.identity()
        members: dict[Element, int] = {identity: 0}
        frontier = [identity]
        for depth in range(1, radius + 1):
            extension = []
            for g in frontier:
                for x in gens:
                    h = g * x
                    if h not in members:
                        members[h] = depth
                        extension.append(h)
                        if len(members) > cap:
                            raise CapExceeded(len(members), cap,
                                              what=f"ball of radius {radius}")
            frontier = extension
        return Ball(center=identity, radius=radius, members=members)


@dataclass(frozen=True)
class FreeGroup(GroupModel):
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("free group rank must be >= 1")

    @cached_property
    def alphabet(self) -> GeneratorAlphabet:
        return GeneratorAlphabet(self.rank)

    def normal_form_word(self, word: Word) -> Word:
        return free_reduce(word)

    def product_word(self, u: Word, v: Word) -> Word:
        # u and v are reduced, so only the junction can cancel
        i, n = 0, min(len(u), len(v))
        while i < n and u[-1 - i] == -v[i]:
            i += 1
        return u[:len(u) - i] + v[i:] if i else u + v

    def inverse_word(self, u: Word) -> Word:
        return inverse_word(u)

    def descriptor(self) -> dict:
        return {"kind": "free", "rank": self.rank}


@dataclass(frozen=True)
class FreeAbelian(GroupModel):
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("free abelian rank must be >= 1")

    @cached_property
    def alphabet(self) -> GeneratorAlphabet:
        return GeneratorAlphabet(self.rank)

    def normal_form_word(self, word: Word) -> Word:
        return self._spell(self.exponents_of_word(word))

    def product_word(self, u: Word, v: Word) -> Word:
        # exponent vectors add; the exponent of x_i is the count of x_i
        # minus the count of x_i^-1
        out: Word = EMPTY
        for i in range(1, self.rank + 1):
            out += _power(i, u.count(i) - u.count(-i) + v.count(i) - v.count(-i))
        return out

    def inverse_word(self, u: Word) -> Word:
        # negating every letter negates every exponent and keeps the blocks
        # in generator order
        return tuple(-l for l in u)

    def exponents_of_word(self, word: Word) -> tuple[int, ...]:
        exps = [0] * self.rank
        for letter in word:
            exps[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(exps)

    def exponents(self, g: Element) -> tuple[int, ...]:
        return self.exponents_of_word(g.word)

    def from_exponents(self, exps) -> Element:
        if len(exps) != self.rank:
            raise ValueError(f"expected {self.rank} exponents, got {len(exps)}")
        return Element(self, self._spell(exps))

    @staticmethod
    def _spell(exps) -> Word:
        """The canonical word x1^e1 ... xn^en."""
        out: Word = EMPTY
        for i, e in enumerate(exps, start=1):
            out += _power(i, e)
        return out

    def descriptor(self) -> dict:
        return {"kind": "abelian", "rank": self.rank}


@dataclass(frozen=True)
class KleinBottle(GroupModel):
    """<a, b | a b a^-1 = b^-1> with a = letter 1 and b = letter 2."""

    @cached_property
    def alphabet(self) -> GeneratorAlphabet:
        return GeneratorAlphabet(2)

    def normal_form_word(self, word: Word) -> Word:
        n, m = self.pair_of_word(word)
        return _power(2, n) + _power(1, m)

    def product_word(self, u: Word, v: Word) -> Word:
        # b^n1 a^m1 b^n2 a^m2 = b^(n1 + (-1)^m1 n2) a^(m1 + m2)
        m1 = u.count(1) - u.count(-1)
        n2 = v.count(2) - v.count(-2)
        return (_power(2, u.count(2) - u.count(-2) + (-n2 if m1 % 2 else n2))
                + _power(1, m1 + v.count(1) - v.count(-1)))

    def inverse_word(self, u: Word) -> Word:
        # (b^n a^m)^-1 = b^(-(-1)^m n) a^-m
        n, m = u.count(2) - u.count(-2), u.count(1) - u.count(-1)
        return _power(2, n if m % 2 else -n) + _power(1, -m)

    def pair_of_word(self, word: Word) -> tuple[int, int]:
        """(n, m) with the element equal to b^n a^m."""
        n = m = 0
        for letter in word:
            if abs(letter) == 1:
                m += 1 if letter > 0 else -1
            else:
                # b^n a^m * b^e = b^(n + (-1)^m e) a^m
                e = 1 if letter > 0 else -1
                n += e if m % 2 == 0 else -e
        return n, m

    def pair(self, g: Element) -> tuple[int, int]:
        return self.pair_of_word(g.word)

    def descriptor(self) -> dict:
        return {"kind": "klein"}


@dataclass(frozen=True)
class DirectProduct(GroupModel):
    """A x B over the disjoint union of the factor alphabets."""

    factors: tuple[GroupModel, GroupModel]

    def __post_init__(self):
        if len(self.factors) != 2:
            raise ValueError("DirectProduct takes exactly two factors")

    @cached_property
    def alphabet(self) -> GeneratorAlphabet:
        return GeneratorAlphabet(self.factors[0].alphabet.rank
                                 + self.factors[1].alphabet.rank)

    @cached_property
    def _up(self) -> dict[int, int]:
        """Second-factor letter -> product letter."""
        shift = self.factors[0].alphabet.rank
        return {l: l + shift if l > 0 else l - shift
                for l in self.factors[1].alphabet.letters}

    @cached_property
    def _down(self) -> dict[int, int]:
        """Product letter of the second factor -> that factor's letter."""
        return {v: k for k, v in self._up.items()}

    def split_word(self, word: Word) -> tuple[Word, Word]:
        """Project onto the factors (a homomorphism since factors commute)."""
        down = self._down
        first: list[int] = []
        second: list[int] = []
        for letter in word:
            if letter in down:
                second.append(down[letter])
            else:
                first.append(letter)
        return tuple(first), tuple(second)

    def join_words(self, first: Word, second: Word) -> Word:
        return first + _relabel(second, self._up)

    def normal_form_word(self, word: Word) -> Word:
        first, second = self.split_word(word)
        return self.join_words(self.factors[0].normal_form_word(first),
                               self.factors[1].normal_form_word(second))

    def _first_length(self, word: Word) -> int:
        """How many letters of a canonical word belong to the first factor:
        they form a prefix, and the second factor's letters follow."""
        down = self._down
        k = len(word)
        while k and word[k - 1] in down:
            k -= 1
        return k

    def product_word(self, u: Word, v: Word) -> Word:
        ku, kv = self._first_length(u), self._first_length(v)
        # the second factor multiplies only when both words reach into it
        second = u[ku:]
        if not second:
            second = v[kv:]
        elif kv < len(v):
            down = self._down
            word = self.factors[1].product_word(_relabel(second, down),
                                                _relabel(v[kv:], down))
            second = _relabel(word, self._up)
        return self.factors[0].product_word(u[:ku], v[:kv]) + second

    def inverse_word(self, u: Word) -> Word:
        k = self._first_length(u)
        first = self.factors[0].inverse_word(u[:k])
        if k == len(u):
            return first
        second = self.factors[1].inverse_word(_relabel(u[k:], self._down))
        return self.join_words(first, second)

    def project(self, g: Element, index: int) -> Element:
        k = self._first_length(g.word)
        if index == 0:
            return Element(self.factors[0], g.word[:k])
        return Element(self.factors[1], _relabel(g.word[k:], self._down))

    def embed(self, g: Element, index: int) -> Element:
        """The factor element as (g, 1) or (1, g) in the product."""
        if g.model != self.factors[index]:
            raise ModelMismatch("element does not belong to the requested factor")
        parts = [EMPTY, EMPTY]
        parts[index] = g.word
        return Element(self, self.join_words(parts[0], parts[1]))

    def pair(self, first: Element, second: Element) -> Element:
        if first.model != self.factors[0] or second.model != self.factors[1]:
            raise ModelMismatch("pair components do not match the factor models")
        return Element(self, self.join_words(first.word, second.word))

    def descriptor(self) -> dict:
        return {"kind": "product",
                "factors": [f.descriptor() for f in self.factors]}


def _relabel(word: Word, table: dict[int, int]) -> Word:
    return tuple(map(table.__getitem__, word))


def _power(generator: int, e: int) -> Word:
    """The word x^e for the generator x."""
    return (generator,) * e if e >= 0 else (-generator,) * -e


def model_from_descriptor(data: dict) -> GroupModel:
    """Parse the JSON group descriptor (see module docs)."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"bad group descriptor: {data!r}")
    kind = data["kind"]
    if kind == "free":
        return FreeGroup(int(data["rank"]))
    if kind == "abelian":
        return FreeAbelian(int(data["rank"]))
    if kind == "klein":
        return KleinBottle()
    if kind == "product":
        factors = data.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            raise ValueError("product descriptor needs exactly two factors")
        return DirectProduct((model_from_descriptor(factors[0]),
                              model_from_descriptor(factors[1])))
    raise ValueError(f"unknown group kind {kind!r}")
