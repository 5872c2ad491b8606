"""Computable left-order oracles: total sign functions realizing positive cones.

An OrderOracle wraps a sign function on the keys of a fixed group model,
key -> {Positive, Negative, Identity}: `signs` reads a whole ball in rank
order, `sign_key` a point through a cache, and `sign(g)`, which checks that
g lives in the model, is the boundary for elements. Shipped constructors:

* magnus_order: bi-invariant order on free groups via the power-series
  expansion compared in deglex monomial order.
* hyperplane_order: free-abelian cones from exact p + q*sqrt(2) weights,
  with lexicographic tie-break on the lattice points of the hyperplane.
* klein_order: the semigroup cone generated by a and b in the Klein
  bottle group (positive iff m > 0, or m = 0 and n > 0, for b^n a^m).
* lex_pair_sign: lexicographic combination along the factors of a direct
  product; when the leading factor is a copy of Z the oracle records the
  declared cofinal central generator.

verify_order_axioms checks the cone axioms exhaustively on a ball.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from operator import mul
from typing import Callable

from .errors import AllZeroWeights, BrokenOrderError, ModelMismatch
from .groups import (
    Ball,
    DirectProduct,
    Element,
    FreeAbelian,
    FreeGroup,
    GroupModel,
    Key,
    KleinBottle,
    check_descriptor,
)
from .magnus import Word, leading_term
from .quadratic import as_quadratic, sqrt2_sign


class Sign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    IDENTITY = "identity"


def _sign_of_int(value: int) -> Sign:
    if value > 0:
        return Sign.POSITIVE
    if value < 0:
        return Sign.NEGATIVE
    return Sign.IDENTITY


class OrderOracle:
    """A total sign function on a group model, hence a positive cone."""

    def __init__(self, name: str, model: GroupModel,
                 sign_fn: Callable[[Key], Sign],
                 declared_cofinal_central: Element | None = None):
        z = declared_cofinal_central
        if z is not None and any(z * x != x * z
                                 for x in model.generators.values()):
            raise BrokenOrderError(f"declared generator {z} is not central")
        self.name, self.model, self.sign_fn = name, model, sign_fn
        self.declared_cofinal_central = z
        self._cache: dict[Key, Sign] = {}

    def sign_key(self, key: Key) -> Sign:
        """The sign of the element with this key in the oracle's model."""
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self.sign_fn(key)
        return cached

    def sign(self, g: Element) -> Sign:
        if g.model is not self.model and g.model != self.model:
            raise ModelMismatch(f"element {g} does not live in {self.name}'s model")
        return self.sign_key(g.key)

    def is_positive(self, g: Element) -> bool:
        return self.sign(g) is Sign.POSITIVE

    def signs(self, ball: Ball) -> list[Sign]:
        """The members' signs by rank: one `sign_fn` pass, past the cache."""
        if ball.model is not self.model and ball.model != self.model:
            raise ModelMismatch(f"ball does not live in {self.name}'s model")
        return list(map(self.sign_fn, ball.keys[:len(ball)]))

    def positives(self, ball: Ball) -> list[Element]:
        return [Element(ball.model, k)
                for k, s in zip(ball.keys, self.signs(ball)) if s is Sign.POSITIVE]


# -- free groups: Magnus order ---------------------------------------------

def magnus_sign(word: Word) -> Sign:
    """Sign of a free-group word under the deglex power-series order."""
    term = leading_term(word)
    if term is None:
        return Sign.IDENTITY
    return _sign_of_int(term[1])


def magnus_order(model: FreeGroup, name: str = "magnus") -> OrderOracle:
    if not isinstance(model, FreeGroup):
        raise ModelMismatch("the Magnus order lives on free groups")
    first_sum, spell = model.first_exponent_sum, model.spell
    positive, negative = Sign.POSITIVE, Sign.NEGATIVE

    def sign_fn(key: int) -> Sign:
        # the exponent sums are the degree-1 coefficients: only a word in
        # [F, F] needs `magnus_sign`
        total = first_sum(key)
        if total:
            return positive if total > 0 else negative
        return magnus_sign(spell(key))
    return OrderOracle(name=name, model=model, sign_fn=sign_fn)


# -- free abelian groups: hyperplane orders --------------------------------

def _hyperplane_sign(vector, ps, qs) -> Sign:
    """Sign of sum(v_i * (p_i + q_i sqrt2)), from the integer sums of the
    v_i p_i and v_i q_i; exact ties fall back to lex on the vector."""
    value_sign = sqrt2_sign(sum(map(mul, vector, ps)), sum(map(mul, vector, qs)))
    if value_sign != 0:
        return _sign_of_int(value_sign)
    for v in vector:
        if v != 0:
            return _sign_of_int(v)
    return Sign.IDENTITY


def hyperplane_order(model: FreeAbelian, weights,
                     name: str = "hyperplane") -> OrderOracle:
    """The hyperplane order; its weights are checked once, here."""
    if not isinstance(model, FreeAbelian):
        raise ModelMismatch("hyperplane orders live on free abelian groups")
    fixed = tuple(as_quadratic(w) for w in weights)
    if len(fixed) != model.rank:
        raise ValueError(f"need {model.rank} weights, got {len(fixed)}")
    if all(w == (0, 0) for w in fixed):
        raise AllZeroWeights("hyperplane weights are all zero")
    ps, qs = zip(*fixed)
    return OrderOracle(
        name=name, model=model,
        sign_fn=lambda key: _hyperplane_sign(key, ps, qs))


def sqrt2_weights() -> list[tuple[int, int]]:
    """The irrational weight row (1, sqrt2) on Z^2 used in the demos."""
    return [(1, 0), (0, 1)]


# -- Klein bottle group -----------------------------------------------------

def klein_cone_sign(key: tuple[int, int]) -> Sign:
    """The cone generated by a and b, on the key (n, m) of b^n a^m:
    positive iff m > 0 or (m = 0, n > 0)."""
    n, m = key
    return _sign_of_int(m or n)


def klein_order(model: KleinBottle | None = None,
                name: str = "klein-cone") -> OrderOracle:
    model = model or KleinBottle()
    if not isinstance(model, KleinBottle):
        raise ModelMismatch("klein order needs the Klein bottle model")
    return OrderOracle(name=name, model=model, sign_fn=klein_cone_sign)


# -- direct products: lexicographic pairs -----------------------------------

def lex_pair_sign(leading: OrderOracle, trailing: OrderOracle,
                  leading_factor: int = 0, name: str | None = None) -> OrderOracle:
    """Combine factor oracles into the lexicographic order on A x B.

    leading_factor says which product coordinate the leading oracle reads
    (0 for the first factor). When the leading factor model is Z, its
    generator is central and cofinal in the product order, and the oracle
    records it for the cofinal path construction.
    """
    if leading_factor not in (0, 1):
        raise ValueError("leading_factor must be 0 or 1")
    factors = (leading.model, trailing.model)
    product = DirectProduct(factors[::-1] if leading_factor else factors)
    return _lex_pair(product, leading, trailing, leading_factor, name)


def _lex_pair(product: DirectProduct, leading: OrderOracle,
              trailing: OrderOracle, leading_factor: int,
              name: str | None) -> OrderOracle:
    """The lex pair order on the product whose factors the oracles read."""
    lead_sign, trail_sign = leading.sign_key, trailing.sign_key

    def sign_fn(key: tuple) -> Sign:
        # a product key is the pair of factor keys
        sign = lead_sign(key[leading_factor])
        if sign is not Sign.IDENTITY:
            return sign
        return trail_sign(key[1 - leading_factor])

    declared = None
    lead_model = leading.model
    if isinstance(lead_model, FreeAbelian) and lead_model.rank == 1:
        declared = product.embed(lead_model.generator(1), leading_factor)
    return OrderOracle(
        name=name or f"lex({leading.name},{trailing.name})",
        model=product,
        sign_fn=sign_fn,
        declared_cofinal_central=declared,
    )


# -- axiom verification ------------------------------------------------------

class AxiomReport(namedtuple("AxiomReport", (
        "oracle_name radius checked partition_failures identity_failures "
        "closure_failures"))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not (self.partition_failures or self.identity_failures
                    or self.closure_failures)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return (f"axioms[{self.oracle_name}] R={self.radius}: {verdict} "
                f"({self.checked} elements, "
                f"{len(self.partition_failures)} partition, "
                f"{len(self.identity_failures)} identity, "
                f"{len(self.closure_failures)} closure failures)")


def verify_order_axioms(oracle: OrderOracle, radius: int) -> AxiomReport:
    """Exhaustive cone axioms on B(1, R).

    (i) for g != 1 exactly one of g, g^-1 is positive (and neither is
    labelled identity), (ii) sign(1) = Identity, (iii) positive pairs with
    |gh| <= R have a positive product. The model's cone-axiom walk
    (`inverse_pairs`, `closure_misses`) finds the pairs and products.
    """
    model, ball = oracle.model, oracle.model.ball(radius)
    # the walk runs on ranks
    signs, keys, positive = oracle.signs(ball), ball.keys, Sign.POSITIVE

    def show(rank: int) -> str:
        return model.text(keys[rank])

    identity_failures = []
    if signs[0] is not Sign.IDENTITY:  # rank 0: the identity
        identity_failures.append((show(0), signs[0].value))
    partition_failures = [
        (show(g), s.value, show(h), t.value)
        for g, h in model.inverse_pairs(ball)
        for s, t in [(signs[g], signs[h])]
        if (s is positive) == (t is positive) or Sign.IDENTITY in (s, t)]
    inside = [s is positive for s in signs]
    closure_failures = [(show(g), show(h), show(gh), signs[gh].value)
                        for g, h, gh in model.closure_misses(ball, inside)]

    return AxiomReport(
        oracle_name=oracle.name, radius=radius, checked=len(ball),
        partition_failures=tuple(partition_failures),
        identity_failures=tuple(identity_failures),
        closure_failures=tuple(closure_failures))


# -- descriptors -------------------------------------------------------------

_ORDER_KEYS = {"magnus": ("name",), "hyperplane": ("name", "weights"),
               "klein": ("name",),
               "lex_pair": ("name", "leading", "trailing", "leading_factor")}


def order_from_descriptor(data: dict, model: GroupModel) -> OrderOracle:
    """Parse the JSON order descriptor against a group model."""
    kind = check_descriptor(data, _ORDER_KEYS, "order",
                            optional=("name", "leading_factor"))
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"'name' must be a string, got {name!r}")
    if kind == "magnus":
        return magnus_order(model, name=name or "magnus")
    if kind == "hyperplane":
        return hyperplane_order(model, data["weights"],
                                name=name or "hyperplane")
    if kind == "klein":
        return klein_order(model, name=name or "klein-cone")
    if not isinstance(model, DirectProduct):  # the kind is "lex_pair"
        raise ModelMismatch("lex_pair order needs a product model")
    leading_factor = data.get("leading_factor", 0)
    if type(leading_factor) is not int or leading_factor not in (0, 1):
        raise ValueError("leading_factor must be 0 or 1")
    lead = order_from_descriptor(data["leading"],
                                 model.factors[leading_factor])
    trail = order_from_descriptor(data["trailing"],
                                  model.factors[1 - leading_factor])
    return _lex_pair(model, lead, trail, leading_factor, name)

