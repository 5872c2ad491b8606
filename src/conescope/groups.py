"""Group models with exact arithmetic on model coordinates, and Cayley balls.

Four model kinds are supported. Each holds an element by its key, the
coordinates in which the model computes:

* FreeGroup(k): the freely reduced word as an int: a leading 1, then one
  byte per letter holding its code, its position in the letter order
  (x1, x1^-1, x2, ... -> 0, 1, 2, ...). The code of x^-1 is that of x ^ 1,
  numeric order is shortlex order, and byte tables over `int.to_bytes` give
  `spell`, `text`, `inv` and the exponent sums for every rank up to 26.
  Only FreeGroup reads this layout.
* FreeAbelian(n): the exponent tuple (e1, ..., en); the canonical word is
  x1^e1 ... xn^en (sorted exponent blocks).
* KleinBottle: presentation <a, b | a b a^-1 = b^-1>, key (n, m) for the
  normal form b^n a^m, reached by pushing every a past the b's with the
  rewrite a b^e -> b^-e a. Keys compose in closed form,
  b^n1 a^m1 b^n2 a^m2 = b^(n1 + (-1)^m1 n2) a^(m1 + m2), and the inverse
  of b^n a^m is b^(-(-1)^m n) a^(-m).
* DirectProduct(m1, m2): the pair of factor keys over the disjoint-union
  alphabet; the canonical word is the concatenation of the factor words,
  so |(g, h)| = |g| + |h|.

Each model implements the same key operations: `one`, `key_of` (read any
word), `spell` (write the canonical word), `mul`, `inv` and `key_length`.
Two more have defaults built from these, which the models override with
arithmetic that forms no product: `letter_steps` (letter x -> the map
k -> k x, in letter order: the one way a key is multiplied by a generator
on the right) and `key_distance` (|u^-1 v|). On F_k a letter step with code
c is k >> 8 when the last code is c ^ 1, and k << 8 | c otherwise; the
distance is read off the XOR of the two keys cut to the shorter length.
Products, inverses, distances, lengths and signs compute on keys; words
appear only at the boundary: parsing (`key_of`), and three conversions that
every diagnostic goes through, `text` (the printed word), `sort_key` (its
shortlex key) and `geodesic` (the keys along the canonical word of u^-1 v).

Every normal form is geodesic, so the word length is the length of the
canonical word. For the Klein bottle: each generator moves |n| + |m| of
b^n a^m by at most one, and b^n a^m spells it. Hence a BFS ball B(R) holds
every smaller ball B(n) with the same exact distances, and in shortlex
order B(n) is a prefix of B(R), the concatenation of its sorted spheres.
So each model holds one ball around the identity, the one index of
shortlex order and membership. It holds keys only: the member `keys` in
shortlex order, `ranks` (key -> position), sizes[n] = |B(n)| and the step
table, with the rank of g x at step[rank(g) * |S| + i] for the i-th letter
x, or -1 outside the held ball. `GroupModel.ball(n)` grows it sphere by
sphere as far as n, taking each letter step g x once on keys and appending
in place, and returns B(n), a view of its first sizes[n] members that
copies nothing. Diagnostics read `keys` by rank; a member becomes an
`Element` only when read as one (iteration, `sorted_elements`).

A BFS that runs the frontier in shortlex order and the letters in letter
order finds each sphere in shortlex order when every normal form is the
shortlex-least geodesic (`shortlex_discovery`; Epstein et al., Word
Processing in Groups, ch. 2): on F_k, Z^n and their products, not on the
Klein bottle's b^n a^m, whose spheres are sorted. Every relator has even
length, so no edge joins two members of a sphere. Two members of B(R) at
distance <= r are joined by a path of length <= r inside B(R) (a tree; a
grid, as the Klein bottle is in (n, m) coordinates; in a product, each
factor's length-reducing steps first), so `Ball.near` walks the step table
alone.

The cone-axiom walk `closure_misses` finds each g h with g and h in a
candidate cone and g h in B(R) but not in it. `GroupModel.closure_misses`
walks h over B(R) sphere by sphere along the step table, each h carrying the
ranks of g h for the cone's g, one step read per pair; a child h x in the
next sphere keeps the g h x in B(R) and takes the union of what its
predecessors carry. So g h is found when some geodesic of h keeps every
g h1 (h1 a prefix) in B(R), and on every model some geodesic does: along it
the distance from g h1 to 1 falls, then rises, so it never exceeds
max(|g|, |g h|). On a tree, take the reduced word of h; on Z^n, first the
steps that move a coordinate of g h1 toward 0; on the Klein bottle the same,
since its Cayley graph is the (n, m) grid and left multiplication is an
isometry of the grid; in a product, the falling steps of both factors
first. One geodesic per h is not enough: in F2 x Z at R = 4, g = (a^3, c^-1)
and h = (a, c) give |g a| = 5 but g h = a^4, kept only along c, a c. On
Z^2 and the Klein bottle, left multiplication by g translates the key grid
(on the Klein bottle after n -> -n when g's a-exponent is odd), so these two
shift one plane, 20-40 times faster than the generic walk at R = 14-18,
which is their slow reference; every other model takes the generic walk.
The plane is three ints over B(R), (n, m) at bit (n + R) + W (m + R) with
W = 3R + 1: the cone, the rest of the ball and the mirrored cone (the bit of
(-n, m)). For each g in the cone, rest & (the cone, or on the Klein bottle
with m_g odd the mirror, shifted by n_g + W m_g) has exactly the bits of
the missing g h. No bit aliases: a shifted low digit n + n_g + R lies in
[-R, 3R]; above 2R it stays below W and carries nothing, below 0 it borrows
and lands in [2R + 1, 3R], and no member of B(R) has a low digit there. A
right shift drops only positions below 0, where no member sits.

The GroupModel methods product_word and inverse_word normalise the
concatenation or the inverted word; they are the slow reference the tests
compare the key arithmetic against.
"""

from __future__ import annotations

from array import array
from functools import cached_property, partial
from itertools import count, islice
from operator import add, neg, sub
from typing import Callable

from .errors import CapExceeded, ModelMismatch
from .words import (
    EMPTY,
    GeneratorAlphabet,
    Word,
    format_word,
    free_reduce,
    inverse_word,
    parse_word,
    shortlex_key,
)

DEFAULT_CAP = 10**7

# a key of any model kind: an int on F_k, a tuple on the others
Key = int | tuple


class Element:
    """A group element held by its model's key (see the module docs)."""

    __slots__ = ("model", "key")

    def __init__(self, model: "GroupModel", key: Key):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: "
                             "elements are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: "
                             "elements are immutable")

    def __eq__(self, other: object) -> bool:
        # keys first: the model test is the rare tie-break
        if not isinstance(other, Element):
            return NotImplemented
        return self.key == other.key and (self.model is other.model
                                          or self.model == other.model)

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def word(self) -> Word:
        """The canonical (normal form) word, spelled when read."""
        return self.model.spell(self.key)

    def __mul__(self, other: "Element") -> "Element":
        return self.model.multiply(self, other)

    def inverse(self) -> "Element":
        return self.model.invert(self)

    def sort_key(self) -> tuple:
        return self.model.sort_key(self.key)

    @property
    def length(self) -> int:
        """Word-metric distance from the identity (normal forms are geodesic)."""
        return self.model.key_length(self.key)

    def __str__(self) -> str:
        return self.model.text(self.key)

    def __repr__(self) -> str:
        return f"<{self.model.text(self.key)}>"


class Ball:
    """B(radius) around the identity: the first sizes[radius] `keys`, in
    shortlex order, of elements of `model`. It shares the lists, dict and
    table of the model's held ball (see the module docs), which grows only by
    appending: `keys` and `ranks` may run past the radius, and a step that
    read -1 may come to name a rank beyond it. Each row of `step` has
    `width` = |S| entries."""

    __slots__ = ("model", "radius", "keys", "ranks", "sizes", "step", "width")

    def __init__(self, model: "GroupModel", radius: int, keys: list[Key],
                 ranks: dict[Key, int], sizes: list[int], step: array,
                 width: int):
        self.model, self.radius, self.keys, self.ranks = model, radius, keys, ranks
        self.sizes, self.step, self.width = sizes, step, width

    def __len__(self) -> int:
        return self.sizes[self.radius]

    def __contains__(self, g: Element) -> bool:
        # the model test of Element equality; a rank below len holds g.key
        return (self.ranks.get(g.key, len(self)) < len(self)
                and (g.model is self.model or g.model == self.model))

    def __iter__(self):
        return map(partial(Element, self.model), islice(self.keys, len(self)))

    def sorted_elements(self) -> list[Element]:
        """The members in shortlex order, as a list the caller may modify."""
        return list(self)

    def near(self, rank: int, r: int) -> set[int]:
        """The ranks of the members within distance r of the member of that
        rank, by walks through the step table inside this ball (exact: see
        the module docs)."""
        step, width, size = self.step, self.width, len(self)
        seen = {rank}
        for _ in range(r):
            seen.update([h for g in seen for h in step[g * width:(g + 1) * width]
                         if 0 <= h < size])
        return seen


class GroupModel:
    """Shared machinery; concrete kinds fill in the key operations."""

    # concrete subclasses define: alphabet, descriptor, `params` (the
    # constructor arguments) and the key operations one, key_of, spell, mul,
    # inv and key_length

    def __eq__(self, other: object) -> bool:
        # a model is a value: one kind with equal parameters
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.params == other.params

    def __hash__(self) -> int:
        return hash(self.params)

    @property
    def alphabet(self) -> GeneratorAlphabet:
        raise NotImplementedError

    def normal_form_word(self, word: Word) -> Word:
        return self.spell(self.key_of(word))

    def product_word(self, u: Word, v: Word) -> Word:
        """The canonical word of uv: the slow reference for `mul`."""
        return self.normal_form_word(u + v)

    def inverse_word(self, u: Word) -> Word:
        """The canonical word of u^-1: the slow reference for `inv`."""
        return self.normal_form_word(inverse_word(u))

    def descriptor(self) -> dict:
        raise NotImplementedError

    # -- the word boundary ------------------------------------------------

    def text(self, key: Key) -> str:
        """The canonical word of the key, printed."""
        return format_word(self.spell(key))

    def sort_key(self, key: Key) -> tuple:
        """The shortlex key of the key's canonical word."""
        return shortlex_key(self.spell(key), self.alphabet)

    def geodesic(self, u: Key, v: Key) -> list[Key]:
        """The keys of a 1-path from u to v spelled by the canonical word of
        u^-1 v, one letter step at a time."""
        steps, keys = self.letter_steps, [u]
        for letter in self.spell(self.mul(self.inv(u), v)):
            keys.append(steps[letter](keys[-1]))
        return keys

    # -- elements ---------------------------------------------------------

    def normal_form(self, word: Word) -> Element:
        self.alphabet.check_word(word)
        return Element(self, self.key_of(word))

    def element(self, spec: "Word | str | Element") -> Element:
        if isinstance(spec, Element):
            if spec.model != self:
                raise ModelMismatch(f"element {spec} belongs to a different model")
            return spec
        if isinstance(spec, str):
            spec = parse_word(spec, self.alphabet)
        return self.normal_form(tuple(spec))

    def identity(self) -> Element:
        return Element(self, self.one)

    @cached_property
    def generators(self) -> dict[int, Element]:
        """Letter -> the generator or inverse it spells, in the letter order."""
        return {l: self.normal_form((l,)) for l in self.alphabet.letters}

    @cached_property
    def letter_steps(self) -> dict:
        """Letter x -> the map from a key k to k x, in letter order."""
        return {l: lambda k, x=self.key_of((l,)), mul=self.mul: mul(k, x)
                for l in self.alphabet.letters}

    def generator(self, index: int) -> Element:
        """The index-th generator (1-based) as an element."""
        return self.normal_form((index,))

    def multiply(self, g: Element, h: Element) -> Element:
        if ((g.model is not self and g.model != self)
                or (h.model is not self and h.model != self)):
            raise ModelMismatch("operands belong to different models")
        return Element(self, self.mul(g.key, h.key))

    def invert(self, g: Element) -> Element:
        if g.model is not self and g.model != self:
            raise ModelMismatch("operand belongs to a different model")
        return Element(self, self.inv(g.key))

    # -- metric -----------------------------------------------------------

    def word_length(self, word: Word) -> int:
        """|w| in the word metric: the canonical word is geodesic."""
        return self.key_length(self.key_of(word))

    def distance(self, g: Element, h: Element) -> int:
        """d(g, h) = |g^-1 h|."""
        if ((g.model is not self and g.model != self)
                or (h.model is not self and h.model != self)):
            raise ModelMismatch("operands belong to different models")
        return self.key_distance(g.key, h.key)

    def key_distance(self, u: Key, v: Key) -> int:
        """|u^-1 v|, the word distance between the keys."""
        return self.key_length(self.mul(self.inv(u), v))

    # -- enumeration ------------------------------------------------------

    # BFS discovery order is shortlex order (see the module docs)
    shortlex_discovery = False
    # the most nodes a ball may hold; a model may set its own
    cap = DEFAULT_CAP

    @cached_property
    def _held(self) -> Ball:
        """The largest ball grown; `_grow` extends it in place."""
        width = len(self.alphabet)
        return Ball(self, 0, [self.one], {self.one: 0}, [1],
                    array("i", [-1] * width), width)

    def ball(self, radius: int) -> Ball:
        """B(radius) around the identity, with exact distances.

        The model holds one ball, grown by `_grow`, and B(radius) shares
        its lists: a view of its first |B(radius)| members. Raises
        CapExceeded when B(radius) holds more than `cap` nodes.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        if radius > self._held.radius:
            self._grow(radius)
        held, cap = self._held, self.cap
        if held.sizes[radius] > cap:
            raise CapExceeded(cap + 1, cap, what=f"ball of radius {radius}")
        return Ball(self, radius, held.keys, held.ranks, held.sizes, held.step,
                    held.width)

    def _grow(self, radius: int) -> None:
        """Grow the held ball to the radius by BFS on keys, a sphere at a time.

        Around the identity depth is word length, which shortlex compares
        first, so each new sphere is appended in shortlex order: as found,
        or sorted once (see the module docs). Each letter step h = g x fills
        step[g][x], and step[h][x^-1] once h has its rank, so a member takes
        only its steps into the next sphere. CapExceeded, raised once the
        ball would hold more than `cap` nodes, leaves a sphere part-found:
        its keys sit in `ranks` past the last member, where no view reads,
        and the next growth resumes it in the same discovery order.
        """
        held, steps, cap = self._held, self.letter_steps.values(), self.cap
        keys, ranks, sizes, step, width = (
            held.keys, held.ranks, held.sizes, held.step, held.width)
        resort = not self.shortlex_discovery
        for n in range(len(sizes), radius + 1):
            first, start = sizes[-2] if len(sizes) > 1 else 0, len(keys)
            for g in range(first, start):
                key, row = keys[g], g * width
                for i, letter in enumerate(steps):  # new members ranked as found
                    if step[row + i] < 0:  # else a step back, set when g was found
                        step[row + i] = ranks.setdefault(letter(key), len(ranks))
                if len(ranks) > cap:
                    raise CapExceeded(cap + 1, cap, what=f"ball of radius {radius}")
            found = list(islice(ranks, start, None))  # in discovery order
            keys += sorted(found, key=self.sort_key) if resort else found
            if resort:
                ranks.update(zip(islice(keys, start, None), count(start)))
            sizes.append(len(keys))
            step.extend([-1] * (len(found) * width))
            for j in range(first * width, start * width):
                h = step[j]
                if h >= start:
                    if resort:
                        h = step[j] = ranks[found[h - start]]
                    # the letter of index i ^ 1 is the inverse of letter i
                    step[h * width + (j % width ^ 1)] = j // width
            held.radius = n

    # -- the cone-axiom walk ----------------------------------------------

    def inverse_pairs(self, ball: Ball) -> list[tuple[int, int]]:
        """The ranks (g, h) of each pair h = g^-1 of non-identity members,
        once, in ball order: 1 <= g <= h."""
        ranks, inv = ball.ranks, self.inv
        keys = islice(ball.keys, 1, len(ball))  # rank 0: the identity
        inverses = map(ranks.__getitem__, map(inv, keys))
        return [(g, h) for g, h in zip(count(1), inverses) if g <= h]

    def closure_misses(self, ball: Ball,
                       inside: list[bool]) -> list[tuple[int, int, int]]:
        """The sorted rank triples (g, h, gh) with g and h inside (one flag
        per rank of the ball) and gh in the ball but not inside. The walk
        goes sphere by sphere over the step table; each member h carries the
        ranks of g h for the inside g, which is exact on every model kind (see
        the module docs). Z^2 and the Klein bottle shift one plane, with this
        walk as their slow reference."""
        keys, ranks, sizes, size, width = (
            ball.keys, ball.ranks, ball.sizes, len(ball), ball.width)
        # columns[i][p]: the rank of p x for the i-th letter x, -1 off the ball
        columns = [[c if c < size else -1 for c in ball.step[i:size * width:width]]
                   for i in range(width)]
        mul, inv = self.mul, self.inv
        misses = []
        carried = {0: [g for g, flag in enumerate(inside) if flag]}
        for n in range(ball.radius):
            grown, first = {}, sizes[n]  # the next sphere starts at rank first
            last = n + 1 == ball.radius  # where only a miss is worth keeping
            while carried:  # each list is dropped once its steps are taken
                h, ps = carried.popitem()
                for col in columns:
                    c = col[h]
                    # a step back, or on the last sphere a c outside the cone
                    if c < first or last and not inside[c]:
                        continue
                    qs = [q for q in map(col.__getitem__, ps)
                          if q >= 0 and not (last and inside[q])]
                    if qs:  # c takes what each of its predecessors carries
                        got = grown.get(c)
                        grown[c] = qs if got is None else {*got, *qs}
            for c, qs in grown.items():
                if inside[c]:
                    back = inv(keys[c])
                    misses += [(ranks[mul(keys[q], back)], c, q)
                               for q in qs if not inside[q]]
            carried = grown
        misses.sort()  # the (g, h) rank pairs are distinct
        return misses


class FreeGroup(GroupModel):
    """F_k; the key packs the reduced word into an int (see the module docs).
    No other module reads that layout: it asks for `key_length`,
    `first_letter` and `first_exponent_sum`."""

    one = 1  # the sentinel alone: the empty word
    shortlex_discovery = True

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("free group rank must be >= 1")
        self.rank, self.params = rank, (rank,)

    @cached_property
    def alphabet(self) -> GeneratorAlphabet:
        return GeneratorAlphabet(self.rank)

    def key_of(self, word: Word) -> int:
        codes = self.alphabet.positions  # a letter's code is its position
        try:
            return int.from_bytes(bytes([1, *map(codes.__getitem__,
                                                 free_reduce(word))]), "big")
        except KeyError:
            self.alphabet.check_word(word)  # raises UnknownLetter
            raise

    @staticmethod
    def _codes(key: int) -> bytes:
        """The key's letter codes, one byte each, first letter first."""
        return key.to_bytes(key.bit_length() + 7 >> 3, "big")[1:]

    @cached_property
    def _letter_table(self) -> bytes:
        """The byte table from a letter's code to the letter, a signed byte."""
        return bytes(x & 255 for x in self.alphabet.letters).ljust(256, b"\0")

    @cached_property
    def _char_table(self) -> bytes:
        """The byte table from a letter's code to its character."""
        return format_word(self.alphabet.letters).encode().ljust(256, b"?")

    @cached_property
    def _flip_table(self) -> bytes:
        """The byte table from a letter's code to its inverse's, c -> c ^ 1."""
        return bytes(c ^ 1 for c in range(256))

    def spell(self, key: int) -> Word:
        return tuple(memoryview(self._codes(key).translate(self._letter_table)).cast("b"))

    def text(self, key: int) -> str:
        return self._codes(key).translate(self._char_table).decode() or "1"

    def mul(self, u: int, v: int) -> int:
        # u and v are reduced, so only the junction can cancel; s = 8 |v|
        s = v.bit_length() - 1
        if s and u > 255 and (v >> s - 8 & 255) ^ 1 == u & 255:
            # cancel while v's next letter undoes u's last one, 8 bits a letter
            i, n = 8, min(s, u.bit_length() - 1)
            while i < n and (v >> s - 8 - i & 255) ^ 1 == u >> i & 255:
                i += 8
            return (u >> i) << s - i | v & (1 << s - i) - 1
        return (u - 1 << s) + v

    def inv(self, u: int) -> int:
        # read little-endian, the flipped codes come out reversed; the
        # sentinel, flipped to 0, is the low byte that the shift drops
        s = u.bit_length() - 1
        return int.from_bytes(u.to_bytes((s >> 3) + 1, "big").translate(self._flip_table),
                              "little") >> 8 | 1 << s

    @cached_property
    def letter_steps(self) -> dict:  # append code c, or cancel a last c ^ 1
        # the guard k > 255 keeps the sentinel of the identity from reading
        # as the code 1 of x1^-1
        return {x: lambda k, c=c, b=c ^ 1: k >> 8 if k & 255 == b and k > 255 else k << 8 | c
                for c, x in enumerate(self.alphabet.letters)}

    def key_length(self, key: int) -> int:
        return key.bit_length() >> 3

    def first_letter(self, key: int) -> int:
        """The first letter of a non-identity key's word."""
        return self.alphabet.letters[key >> key.bit_length() - 9 & 255]

    def key_distance(self, u: int, v: int) -> int:
        # u^-1 v cancels exactly the common prefix of the reduced words: with
        # both keys cut to the shorter length, the bytes of their XOR run
        # from the first letter where they differ
        s, t = u.bit_length(), v.bit_length()
        if s < t:
            v >>= t - s
        else:
            u >>= s - t
        return (abs(s - t) >> 3) + ((u ^ v).bit_length() + 7 >> 3 << 1)

    @cached_property
    def first_exponent_sum(self) -> Callable[[int], int]:
        """key -> the exponent sum of the first generator on which the key's
        word has a nonzero one, or 0 when the word lies in [F, F]."""
        tables, from_bytes = [], int.from_bytes
        for even in range(0, 2 * self.rank, 2):  # the codes of x and x^-1
            # read through the table, x sets 2 bits, x^-1 none and any other
            # code 1; table[1] is what the sentinel, read as code 1, sets
            table = bytearray(b"\1" * 256)
            table[even], table[even + 1] = 3, 0
            tables.append((bytes(table), table[1]))

        def first_sum(key: int) -> int:
            n = key.bit_length() >> 3
            data = key.to_bytes(n + 1, "big")
            for table, sentinel in tables:
                total = from_bytes(data.translate(table), "big").bit_count() - n - sentinel
                if total:
                    return total
            return 0
        return first_sum

    def descriptor(self) -> dict:
        return {"kind": "free", "rank": self.rank}


class FreeAbelian(GroupModel):
    shortlex_discovery = True

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("free abelian rank must be >= 1")
        self.rank, self.params = rank, (rank,)

    @cached_property
    def alphabet(self) -> GeneratorAlphabet:
        return GeneratorAlphabet(self.rank)

    @cached_property
    def one(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def key_of(self, word: Word) -> tuple[int, ...]:
        exps = [0] * self.rank
        for letter in word:
            exps[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(exps)

    def spell(self, key: tuple[int, ...]) -> Word:
        out: Word = EMPTY
        for i, e in enumerate(key, start=1):
            out += _power(i, e)
        return out

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(add, a, b))

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(neg, a))

    @cached_property
    def letter_steps(self) -> dict:  # letter +-(i + 1) adds +-1 at index i
        return {e * (i + 1): lambda k, i=i, e=e: k[:i] + (k[i] + e,) + k[i + 1:]
                for i in range(self.rank) for e in (1, -1)}

    def key_length(self, key: tuple[int, ...]) -> int:
        return sum(map(abs, key))

    def key_distance(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        return sum(map(abs, map(sub, u, v)))

    def closure_misses(self, ball: Ball,
                       inside: list[bool]) -> list[tuple[int, int, int]]:
        if self.rank != 2:  # only Z^2 shifts a plane
            return super().closure_misses(ball, inside)
        return _translation_misses(self, ball, inside, reflect=False)

    def exponents(self, g: Element) -> tuple[int, ...]:
        return g.key

    def descriptor(self) -> dict:
        return {"kind": "abelian", "rank": self.rank}


class KleinBottle(GroupModel):
    """<a, b | a b a^-1 = b^-1> with a = letter 1 and b = letter 2."""

    one = (0, 0)
    params = ()

    @cached_property
    def alphabet(self) -> GeneratorAlphabet:
        return GeneratorAlphabet(2)

    def key_of(self, word: Word) -> tuple[int, int]:
        n = m = 0
        for letter in word:
            if abs(letter) == 1:
                m += 1 if letter > 0 else -1
            else:
                # b^n a^m * b^e = b^(n + (-1)^m e) a^m
                e = 1 if letter > 0 else -1
                n += e if m % 2 == 0 else -e
        return n, m

    def spell(self, key: tuple[int, int]) -> Word:
        return _power(2, key[0]) + _power(1, key[1])

    def mul(self, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
        # b^n1 a^m1 b^n2 a^m2 = b^(n1 + (-1)^m1 n2) a^(m1 + m2)
        return u[0] + (-v[0] if u[1] % 2 else v[0]), u[1] + v[1]

    def inv(self, u: tuple[int, int]) -> tuple[int, int]:
        # (b^n a^m)^-1 = b^(-(-1)^m n) a^-m
        return (u[0] if u[1] % 2 else -u[0]), -u[1]

    def key_length(self, key: tuple[int, int]) -> int:
        return abs(key[0]) + abs(key[1])

    def closure_misses(self, ball: Ball,
                       inside: list[bool]) -> list[tuple[int, int, int]]:
        return _translation_misses(self, ball, inside, reflect=True)

    def descriptor(self) -> dict:
        return {"kind": "klein"}


class DirectProduct(GroupModel):
    """A x B over the disjoint union of the factor alphabets."""

    def __init__(self, factors: tuple[GroupModel, GroupModel]):
        if len(factors) != 2:
            raise ValueError("DirectProduct takes exactly two factors")
        self.factors, self.params = factors, (factors,)

    @property
    def shortlex_discovery(self) -> bool:
        # the first factor's letters come first in the letter order
        return all(f.shortlex_discovery for f in self.factors)

    @cached_property
    def alphabet(self) -> GeneratorAlphabet:
        return GeneratorAlphabet(self.factors[0].alphabet.rank
                                 + self.factors[1].alphabet.rank)

    @cached_property
    def one(self) -> tuple:
        return self.factors[0].one, self.factors[1].one

    @cached_property
    def _up(self) -> dict[int, int]:
        """Second-factor letter -> product letter."""
        shift = self.factors[0].alphabet.rank
        return {l: l + shift if l > 0 else l - shift
                for l in self.factors[1].alphabet.letters}

    def key_of(self, word: Word) -> tuple:
        # the projections onto the factors are homomorphisms
        k = self.factors[0].alphabet.rank
        first = tuple(l for l in word if abs(l) <= k)
        second = tuple(l - k if l > 0 else l + k for l in word if abs(l) > k)
        return self.factors[0].key_of(first), self.factors[1].key_of(second)

    def spell(self, key: tuple) -> Word:
        second = tuple(map(self._up.__getitem__, self.factors[1].spell(key[1])))
        return self.factors[0].spell(key[0]) + second

    @cached_property
    def _up_chars(self) -> dict[int, str]:
        """Second-factor character -> product character."""
        letters = self.factors[1].alphabet.letters
        return str.maketrans(format_word(letters),
                             format_word(tuple(map(self._up.__getitem__, letters))))

    def text(self, key: tuple) -> str:
        # the factor words, each printed as "1" when empty
        first = self.factors[0].text(key[0])
        second = self.factors[1].text(key[1]).translate(self._up_chars)
        return second if first == "1" else first if second == "1" else first + second

    def mul(self, u: tuple, v: tuple) -> tuple:
        return (self.factors[0].mul(u[0], v[0]),
                self.factors[1].mul(u[1], v[1]))

    def inv(self, u: tuple) -> tuple:
        return self.factors[0].inv(u[0]), self.factors[1].inv(u[1])

    @cached_property
    def letter_steps(self) -> dict:  # only the letter's own factor steps
        first, second = (f.letter_steps.items() for f in self.factors)
        return {**{l: lambda k, f=f: (f(k[0]), k[1]) for l, f in first},
                **{self._up[l]: lambda k, f=f: (k[0], f(k[1])) for l, f in second}}

    def key_length(self, key: tuple) -> int:
        return (self.factors[0].key_length(key[0])
                + self.factors[1].key_length(key[1]))

    def key_distance(self, u: tuple, v: tuple) -> int:
        return (self.factors[0].key_distance(u[0], v[0])
                + self.factors[1].key_distance(u[1], v[1]))

    def project(self, g: Element, index: int) -> Element:
        return Element(self.factors[index], g.key[index])

    def embed(self, g: Element, index: int) -> Element:
        """The factor element as (g, 1) or (1, g) in the product."""
        if g.model != self.factors[index]:
            raise ModelMismatch("element does not belong to the requested factor")
        parts = [self.factors[0].one, self.factors[1].one]
        parts[index] = g.key
        return Element(self, tuple(parts))

    def descriptor(self) -> dict:
        return {"kind": "product",
                "factors": [f.descriptor() for f in self.factors]}


def _power(generator: int, e: int) -> Word:
    """The word x^e for the generator x."""
    return (generator,) * e if e >= 0 else (-generator,) * -e


def _translation_misses(model: GroupModel, ball: Ball, inside: list[bool],
                        reflect: bool) -> list[tuple[int, int, int]]:
    """`closure_misses` on Z^2 (reflect false) or the Klein bottle (reflect
    true) by shifting one plane, forming no product that lands outside the
    cone (see the module docs)."""
    keys, ranks, radius = ball.keys, ball.ranks, ball.radius
    width = 3 * radius + 1
    origin = radius + width * radius  # the bit of (0, 0)
    members, cone, mirror, rest = [], 0, 0, 0
    for g, (k, flag) in enumerate(zip(keys, inside)):
        b = origin + k[0] + width * k[1]
        if not flag:
            rest |= 1 << b
            continue
        members.append((g, k))
        cone |= 1 << b
        mirror |= 1 << b - 2 * k[0]  # the bit of (-n, m)
    mul, inv = model.mul, model.inv
    misses = []
    for g, key in members:
        shift = key[0] + width * key[1]
        bits = mirror if reflect and key[1] % 2 else cone
        found = rest & (bits << shift if shift >= 0 else bits >> -shift)
        while found:  # each set bit is a product gh outside the cone
            low = found & -found
            found ^= low
            row, column = divmod(low.bit_length() - 1, width)
            gh = (column - radius, row - radius)
            misses.append((g, ranks[mul(inv(key), gh)], ranks[gh]))
    misses.sort()  # the (g, h) rank pairs are distinct
    return misses


def check_descriptor(data, known: dict[str, tuple], what: str,
                     optional: tuple = ()) -> str:
    """The kind of a descriptor object, refusing an unknown kind and any key
    that its kind (`known`: kind -> the keys it reads) does not read or,
    unless `optional`, misses or sets to null."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"not an object with a 'kind': {data!r}")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in known:
        raise ValueError(f"unknown {what} kind {kind!r}")
    unknown = set(data) - {"kind", *known[kind]}
    if unknown:
        raise ValueError(f"unknown keys for kind {kind!r}: {sorted(unknown)}")
    missing = [k for k in known[kind]
               if data.get(k) is None and k not in optional]
    if missing:
        raise ValueError(f"missing keys for kind {kind!r}: {missing}")
    return kind


_GROUP_KEYS = {"free": ("rank",), "abelian": ("rank",), "klein": (),
               "product": ("factors",)}


def model_from_descriptor(data: dict) -> GroupModel:
    """Parse the JSON group descriptor: {"kind": "free"|"abelian", "rank": k},
    {"kind": "klein"} or {"kind": "product", "factors": [d1, d2]}."""
    kind = check_descriptor(data, _GROUP_KEYS, "group")
    if kind in ("free", "abelian"):
        if type(data["rank"]) is not int:  # a bool or float is refused
            raise ValueError(f"rank must be an integer, got {data['rank']!r}")
        return (FreeGroup if kind == "free" else FreeAbelian)(data["rank"])
    if kind == "klein":
        return KleinBottle()
    factors = data.get("factors")  # the kind is "product"
    if not isinstance(factors, list) or len(factors) != 2:
        raise ValueError("product descriptor needs exactly two factors")
    return DirectProduct((model_from_descriptor(factors[0]),
                          model_from_descriptor(factors[1])))
