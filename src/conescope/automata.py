"""Deterministic finite automata over group generators: candidate regular cones.

A ConeDfa reads words over the doubled alphabet (lowercase generator,
uppercase inverse) with a total transition function, one table keyed by
letter. The evaluation set ev(L) of its language is a candidate positive
cone; regular sets are always (2|S|+1)-connected in the Cayley graph,
interpolated through shortest accepting completions of each prefix: one
table per automaton (`ConeDfa.completions`, None for a dead state), which
pruning also reads. The group reads its words by `GroupModel.letter_steps`.

Membership of a group element in ev(L) is only semi-decidable by length
enumeration, so cone verification reports PASS / FAIL / UNKNOWN against a
word-length cutoff.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import cached_property

from .errors import CapExceeded, NotAccepted
from .geometry import RPath
from .groups import Element, GroupModel, Key
from .words import GeneratorAlphabet, Word, format_word, letter_char

DEFAULT_NODE_CAP = 2_000_000
DEFAULT_WORD_CAP = 500_000


class ConeDfa:
    """A total deterministic automaton (states, accepting, initial, alphabet,
    tau): one row per state, each over exactly the alphabet's letters."""

    def __init__(self, states: tuple[str, ...], initial: str,
                 accepting: frozenset[str], alphabet: GeneratorAlphabet,
                 transitions: dict[str, dict[str, str]]):
        if not states:
            raise ValueError("a DFA needs at least one state")
        if len(set(states)) != len(states):
            raise ValueError("duplicate state names")
        if initial not in states:
            raise ValueError(f"initial state {initial!r} unknown")
        if not accepting <= set(states):
            raise ValueError("accepting states must be states")
        if transitions.keys() != set(states):
            raise ValueError(f"transition rows {sorted(transitions)} are not "
                             f"the states {sorted(states)}")
        chars = {letter_char(l): l for l in alphabet.letters}
        self.table: dict[str, dict[int, str]] = {}  # state -> letter -> target
        for state in states:
            row = transitions[state]
            if row.keys() != chars.keys():
                raise ValueError(f"the row of state {state!r} reads "
                                 f"{sorted(row)}, not the letters {list(chars)}")
            for target in row.values():
                if target not in states:
                    raise ValueError(f"transition target {target!r} unknown")
            self.table[state] = {l: row[ch] for ch, l in chars.items()}
        self.states, self.initial, self.accepting = states, initial, accepting
        self.alphabet = alphabet

    @cached_property
    def completions(self) -> dict[str, Word | None]:
        """state -> shortest word to acceptance, ties by the letter order.

        None marks a dead state. Breadth-first backwards from the accepting
        set: in each round, a state takes its first letter (x1 < x1^-1 < ...)
        into the previous round, followed by that target's completion. No
        state repeats, so a completion has fewer than |states| letters.
        """
        table = self.table
        out = {s: () if s in self.accepting else None for s in self.states}
        layer = self.accepting
        while layer:
            found = {}
            for state, row in table.items():
                if out[state] is None:
                    letter = next((l for l, t in row.items() if t in layer), None)
                    if letter is not None:
                        found[state] = (letter,) + out[row[letter]]
            out.update(found)
            layer = found.keys()
        for state, word in out.items():
            if word is not None:
                end = state
                for letter in word:
                    end = table[end][letter]
                assert end in self.accepting and len(word) < self.size()
        return out

    def size(self) -> int:
        return len(self.states)

    def to_json(self) -> dict:
        return {
            "states": list(self.states),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "alphabet": "".join(chr(ord("a") + i)
                                for i in range(self.alphabet.rank)),
            "transitions": {s: dict(sorted(zip(map(letter_char, row), row.values())))
                            for s, row in sorted(self.table.items())},
        }

    @staticmethod
    def from_json(data: dict) -> "ConeDfa":
        fields = ("states", "initial", "accepting", "alphabet", "transitions")
        for what, keys in (("unknown", sorted(set(data) - set(fields))),
                           ("missing", [k for k in fields if k not in data])):
            if keys:
                raise ValueError(f"{what} keys: {keys}")
        for key in ("states", "accepting"):
            if (not isinstance(data[key], list)
                    or not all(isinstance(s, str) for s in data[key])):
                raise ValueError(f"{key} must be a list of strings")
        for key in ("initial", "alphabet"):
            if not isinstance(data[key], str):
                raise ValueError(f"{key} must be a string")
        alphabet = GeneratorAlphabet(len(data["alphabet"]))
        expected = "".join(chr(ord("a") + i) for i in range(alphabet.rank))
        if data["alphabet"] != expected:
            raise ValueError(f"alphabet must be {expected!r}")
        transitions = data["transitions"]
        if (not isinstance(transitions, dict)
                or not all(isinstance(row, dict) for row in transitions.values())):
            raise ValueError("transitions must be an object of state rows")
        return ConeDfa(
            states=tuple(data["states"]),
            initial=data["initial"],
            accepting=frozenset(data["accepting"]),
            alphabet=alphabet,
            transitions=transitions,
        )


def dfa_run(dfa: ConeDfa, word: Word) -> tuple[str, bool]:
    """Fold the transition function left to right; accepted iff final state is."""
    dfa.alphabet.check_word(word)
    table = dfa.table
    state = dfa.initial
    for letter in word:
        state = table[state][letter]
    return state, state in dfa.accepting


def connectivity_radius(dfa: ConeDfa) -> int:
    """The constructive connectivity constant 2|S| + 1 for ev(L)."""
    return 2 * dfa.size() + 1


def regular_interpolation(dfa: ConeDfa, model: GroupModel,
                          word: Word) -> RPath:
    """Interpolate an accepted word through ev(L) with gaps <= 2|S| + 1.

    Each prefix is completed to an accepted word by the shortest completion
    of its state; the evaluations of those completions are at most |S| - 1
    away from the prefix evaluation, so consecutive interpolation points are
    within 2|S| + 1 of each other. One run of the word: the prefix key
    grows one letter step at a time, through live states only (the word is
    accepted), and each live state's completion is read once.
    """
    model.alphabet.check_word(dfa.alphabet.letters)
    _, accepted = dfa_run(dfa, word)
    if not accepted:
        raise NotAccepted(f"word {format_word(word)} is rejected")
    table, mul, steps = dfa.table, model.mul, model.letter_steps
    ends = {s: model.key_of(w) for s, w in dfa.completions.items() if w is not None}
    prefix = model.one
    keys = [prefix]
    state = dfa.initial
    for i in range(len(word) + 1):
        point = mul(prefix, ends[state])
        if point != keys[-1]:
            keys.append(point)
        if i < len(word):
            prefix = steps[word[i]](prefix)
            state = table[state][word[i]]
    path = RPath(model, tuple(keys), connectivity_radius(dfa))
    path.check()
    return path


class LanguageSample:
    """All accepted words up to a length, with their evaluations."""

    def __init__(self, model: GroupModel, max_length: int,
                 words: tuple[Word, ...]):
        self.model, self.max_length, self.words = model, max_length, words

    @cached_property
    def evaluations(self) -> dict[Element, tuple[Word, ...]]:
        """Element -> its sampled words, normalised when first read."""
        out: dict[Element, list[Word]] = {}
        for word in self.words:
            out.setdefault(self.model.normal_form(word), []).append(word)
        return {e: tuple(ws) for e, ws in out.items()}


def language_sample(dfa: ConeDfa, model: GroupModel,
                    max_length: int) -> LanguageSample:
    """Enumerate the accepted words of length <= max_length (dead-state pruned)."""
    if max_length < 0:
        raise ValueError("max_length must be non-negative")
    words: list[Word] = []
    frontier: list[tuple[Word, str]] = [((), dfa.initial)]
    if dfa.initial in dfa.accepting:
        words.append(())
    for _ in range(max_length):
        if not frontier:
            break
        extension: list[tuple[Word, str]] = []
        for word, state in frontier:
            for letter, target in dfa.table[state].items():
                if dfa.completions[target] is None:
                    continue
                grown = word + (letter,)
                if target in dfa.accepting:
                    words.append(grown)
                    if len(words) > DEFAULT_WORD_CAP:
                        raise CapExceeded(len(words), DEFAULT_WORD_CAP,
                                          what="language enumeration")
                extension.append((grown, target))
        frontier = extension
    return LanguageSample(model=model, max_length=max_length,
                          words=tuple(words))


class ConeDfaReport(namedtuple("ConeDfaReport", (
        "verdict radius max_length in_ball unresolved counterexamples "
        "unresolved_products"))):  # verdict: "PASS" | "FAIL" | "UNKNOWN"
    __slots__ = ()

    def summary(self) -> str:
        return (f"cone-dfa R={self.radius} Lmax={self.max_length}: {self.verdict} "
                f"({len(self.in_ball)} in, {len(self.unresolved)} unresolved, "
                f"{len(self.counterexamples)} violations)")


def reachable_evaluations(dfa: ConeDfa, model: GroupModel,
                          max_length: int) -> set[Key]:
    """The keys of the elements of ev(L) hit by accepted words of length
    <= max_length.

    Runs a BFS over (state, key) pairs, which classifies exactly the same
    elements as enumerating the language but without the word blowup.
    Pairs whose state cannot reach acceptance are pruned: they contribute
    nothing to ev(L). At most DEFAULT_NODE_CAP pairs are visited.
    """
    if max_length < 0:
        raise ValueError("max_length must be non-negative")
    model.alphabet.check_word(dfa.alphabet.letters)
    steps, reached = model.letter_steps, set()  # reached: the keys of ev(L)
    if dfa.completions[dfa.initial] is None:
        return reached
    start = (dfa.initial, model.one)
    visited = {start}
    frontier = [start]
    if dfa.initial in dfa.accepting:
        reached.add(model.one)
    for _ in range(max_length):
        if not frontier:
            break
        extension = []
        for state, g in frontier:
            for letter, target in dfa.table[state].items():
                if dfa.completions[target] is None:
                    continue
                h = steps[letter](g)
                pair = (target, h)
                if pair in visited:
                    continue
                visited.add(pair)
                if len(visited) > DEFAULT_NODE_CAP:
                    raise CapExceeded(len(visited), DEFAULT_NODE_CAP,
                                      what="state-element reachability")
                if target in dfa.accepting:
                    reached.add(h)
                extension.append(pair)
        frontier = extension
    return reached


def verify_cone_dfa(dfa: ConeDfa, model: GroupModel, radius: int,
                    max_length: int | None = None) -> ConeDfaReport:
    """Check ev(L) against the cone axioms on B(1, R), up to the length cutoff.

    FAIL on a hard violation: a word evaluating to the identity, both g and
    g^-1 reached, or a product of two reached elements whose inverse is
    reached. UNKNOWN when some element of the ball (or some product) is not
    classified by length max_length; PASS otherwise. Default cutoff 4R.
    The model's cone-axiom walk (`inverse_pairs`, `closure_misses`) finds
    the pairs and products.
    """
    if max_length is None:
        max_length = 4 * radius
    ball = model.ball(radius)
    # the walk runs on ranks
    reached_keys = reachable_evaluations(dfa, model, max_length)
    keys = ball.keys

    def show(rank: int) -> str:
        return model.text(keys[rank])

    counterexamples = []
    if model.one in reached_keys:
        counterexamples.append(("identity-in", show(0)))

    inside = [g in reached_keys for g in keys[:len(ball)]]
    inside[0] = False  # rank 0, the identity, is reported as identity-in
    in_ball = [Element(model, keys[g]) for g, flag in enumerate(inside) if flag]
    unresolved = []
    for g, h in model.inverse_pairs(ball):
        if inside[g] and inside[h]:
            counterexamples.append(("both-in", show(g), show(h)))
        elif not (inside[g] or inside[h]):
            unresolved.append(Element(model, keys[g]))

    unresolved_products = []
    for g, h, gh in model.closure_misses(ball, inside):
        if gh == 0:  # the identity: already reported as both-in
            continue
        if model.inv(keys[gh]) in reached_keys:
            counterexamples.append(
                ("product-negative", show(g), show(h), show(gh)))
        else:
            unresolved_products.append((show(g), show(h), show(gh)))

    if counterexamples:
        verdict = "FAIL"
    elif unresolved or unresolved_products:
        verdict = "UNKNOWN"
    else:
        verdict = "PASS"
    return ConeDfaReport(
        verdict=verdict, radius=radius, max_length=max_length,
        in_ball=tuple(in_ball), unresolved=tuple(unresolved),
        counterexamples=tuple(counterexamples),
        unresolved_products=tuple(unresolved_products))


class QuasigeodesicReport(namedtuple("QuasigeodesicReport",
                                     "verdict lam c max_length violation",
                                     defaults=(None,))):  # verdict: "PASS" | "FAIL"
    __slots__ = ()

    def summary(self) -> str:
        if self.verdict == "PASS":
            return (f"quasigeodesic lambda={self.lam} c={self.c} "
                    f"Lmax={self.max_length}: PASS")
        word, i, j, dist = self.violation
        return (f"quasigeodesic lambda={self.lam} c={self.c}: FAIL at "
                f"word {word} prefixes ({i},{j}), distance {dist}")


def quasigeodesic_check(dfa: ConeDfa, model: GroupModel, lam, c,
                        max_length: int) -> QuasigeodesicReport:
    """Check (j - i)/lambda - c <= d(ev(w_i), ev(w_j)) on all accepted words.

    The distance is the length of the infix w[i:j], grown one letter step
    at a time: every normal form is geodesic. lambda and c are exact
    fractions; as j - i is an integer, the test is
    j - i > floor(lambda (d + c)), one threshold per distance d.
    """
    from fractions import Fraction

    lam = Fraction(lam)
    c = Fraction(c)
    if lam < 1 or c < 0:
        raise ValueError("need lambda >= 1 and c >= 0")
    model.alphabet.check_word(dfa.alphabet.letters)
    sample = language_sample(dfa, model, max_length)
    # an infix is no longer than its word, nor its distance than the infix
    longest = max(map(len, sample.words), default=0)
    limit = [math.floor(lam * (d + c)) for d in range(longest + 1)]
    steps, length = model.letter_steps, model.key_length
    for word in sample.words:
        n = len(word)
        for i in range(n):
            infix = model.one
            for j in range(i + 1, n + 1):
                infix = steps[word[j - 1]](infix)
                dist = length(infix)
                if j - i > limit[dist]:
                    return QuasigeodesicReport(
                        verdict="FAIL", lam=lam, c=c, max_length=max_length,
                        violation=(format_word(word), i, j, dist))
    return QuasigeodesicReport(verdict="PASS", lam=lam, c=c,
                               max_length=max_length)


# -- shipped automata ----------------------------------------------------------

def z2_lex_cone_dfa() -> ConeDfa:
    """The lexicographic cone on Z^2 as normal-form words x^m y^n.

    Accepted: a positive x-run optionally followed by a one-signed y-run,
    or a pure positive y-run. This is exactly the hyperplane cone with
    weights (1, 0) and lexicographic tie-break.
    """
    sink = {"a": "sink", "A": "sink", "b": "sink", "B": "sink"}
    return ConeDfa(
        states=("s0", "sx", "sy+", "sy-", "sink"),
        initial="s0",
        accepting=frozenset({"sx", "sy+", "sy-"}),
        alphabet=GeneratorAlphabet(2),
        transitions={
            "s0": {"a": "sx", "A": "sink", "b": "sy+", "B": "sink"},
            "sx": {"a": "sx", "A": "sink", "b": "sy+", "B": "sy-"},
            "sy+": {"a": "sink", "A": "sink", "b": "sy+", "B": "sink"},
            "sy-": {"a": "sink", "A": "sink", "b": "sink", "B": "sy-"},
            "sink": dict(sink),
        },
    )


def klein_cone_dfa() -> ConeDfa:
    """The Klein bottle cone as normal-form words b^n a^m.

    Accepted: a one-signed b-run followed by a positive a-run, or a pure
    positive b-run; these are exactly the normal forms of the semigroup
    generated by a and b.
    """
    sink = {"a": "sink", "A": "sink", "b": "sink", "B": "sink"}
    return ConeDfa(
        states=("s0", "sb+", "sb-", "sa", "sink"),
        initial="s0",
        accepting=frozenset({"sb+", "sa"}),
        alphabet=GeneratorAlphabet(2),
        transitions={
            "s0": {"a": "sa", "A": "sink", "b": "sb+", "B": "sb-"},
            "sb+": {"a": "sa", "A": "sink", "b": "sb+", "B": "sink"},
            "sb-": {"a": "sa", "A": "sink", "b": "sink", "B": "sb-"},
            "sa": {"a": "sa", "A": "sink", "b": "sink", "B": "sink"},
            "sink": dict(sink),
        },
    )


def random_dfa(rng: random.Random, max_states: int = 4,
               rank: int = 2) -> ConeDfa:
    """A uniformly random total DFA over the doubled alphabet."""
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    alphabet = GeneratorAlphabet(rank)
    chars = [letter_char(l) for l in alphabet.letters]
    transitions = {s: {ch: states[rng.randrange(n)] for ch in chars}
                   for s in states}
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    return ConeDfa(states=states, initial=states[0], accepting=accepting,
                   alphabet=alphabet, transitions=transitions)
