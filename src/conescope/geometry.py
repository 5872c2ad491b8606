"""Geometric diagnostics for positive cones inside Cayley balls.

The operations come in three groups:

* maxima rays: the ball maxima g_n of an order trace a geodesic ray whose
  inverses carry balls B(g_n^-1, n-1) entirely inside the negative cone;
* disconnection: r-components of the positive set within a ball, negative
  swamp certificates (exact on trees, search-bounded elsewhere) whose
  witnesses come from one scan of the model's held ball;
* connection: explicit positive paths through a cofinal central copy of Z
  and through the factors of a direct product.

The r-classes of the positives in every B(R) come from one sign pass and
one union-find pass over the held ball's ranks, in order. One breadth-first
search on ranks serves the paths: S-avoiding paths and paths through
factor cones. Both step through the step table and form no product. An
RPath holds the keys of its points and builds Elements when they are read.

Coarse connectivity of an infinite set is not finitely decidable, so
verdicts are stratified: CertifiedTree (structural proof), CertifiedExhaustive
(complete finite search), Evidence (ball-bounded search), NotSeparating
(explicit avoiding path found).
"""

from __future__ import annotations

import enum
import random
from collections import deque, namedtuple
from functools import cached_property, partial
from itertools import groupby

from .errors import (
    BrokenOrderError,
    FactorNotConnectedAtScale,
    ModelMismatch,
    NoDeclaredCofinalCenter,
    PathNotFound,
    WitnessNotFound,
)
from .groups import Ball, DirectProduct, Element, FreeGroup, GroupModel
from .orders import OrderOracle, Sign


class Verdict(enum.Enum):
    CERTIFIED_TREE = "certified-tree"
    CERTIFIED_EXHAUSTIVE = "certified-exhaustive"
    EVIDENCE = "evidence"
    NOT_SEPARATING = "not-separating"


class RPath:
    """Points of `model` held by their `keys`, consecutive ones at distance <= r."""

    def __init__(self, model: GroupModel, keys: tuple, r: int):
        self.model, self.keys, self.r = model, keys, r

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.keys, self.r, self.model) == (other.keys, other.r, other.model)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def points(self) -> tuple[Element, ...]:
        return tuple(map(partial(Element, self.model), self.keys))

    def check(self) -> None:
        if not self.keys:
            raise ValueError("an r-path needs at least one point")
        for i, d in enumerate(self._gaps):
            if d > self.r:
                a, b = map(self.model.text, self.keys[i:i + 2])
                raise ValueError(f"gap {d} > r={self.r} between {a} and {b}")

    def gaps(self) -> list[int]:
        return list(self._gaps)

    @cached_property
    def _gaps(self) -> tuple[int, ...]:
        # the keys never change, so each gap is measured once
        return tuple(map(self.model.key_distance, self.keys, self.keys[1:]))

    def words(self) -> list[str]:
        return list(map(self.model.text, self.keys))


def _dedupe(points: list) -> list:
    """The points with each run of repeats collapsed to one."""
    return [p for p, _ in groupby(points)]


# -- ball maxima -------------------------------------------------------------

def _ball_maxima(oracle: OrderOracle, n: int) -> list[tuple]:
    """The keys of the maxima g_0, ..., g_n of B(1, 0), ..., B(1, n): B(k) is
    a prefix of B(n), so one running comparison over B(n) gives every g_k."""
    model, ball = oracle.model, oracle.model.ball(n)
    keys, mul, inv, sign = ball.keys, model.mul, model.inv, oracle.sign_key
    best, back = 0, model.one  # the rank of the running maximum, its inverse
    maxima = [best]
    for k in range(1, n + 1):
        for rank in range(ball.sizes[k - 1], ball.sizes[k]):
            s = sign(mul(back, keys[rank]))
            if s is Sign.IDENTITY:  # rank > best: two distinct members tie
                raise BrokenOrderError(
                    f"tie between distinct elements {model.text(keys[best])} "
                    f"and {model.text(keys[rank])}")
            if s is Sign.POSITIVE:
                best, back = rank, inv(keys[rank])
        maxima.append(best)
    return [keys[g] for g in maxima]


def max_of_ball(oracle: OrderOracle, n: int) -> Element:
    """The unique order-maximum of B(1, n), by pairwise sign comparison."""
    return Element(oracle.model, _ball_maxima(oracle, n)[-1])


class RayReport(namedtuple("RayReport", (
        "oracle_name depth maxima length_failures successor_failures "
        "geodesic_failures negativity_failures"))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not (self.length_failures or self.successor_failures
                    or self.geodesic_failures or self.negativity_failures)

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        words = " ".join(str(g) for g in self.maxima)
        return (f"ray[{self.oracle_name}] N={self.depth}: {verdict} "
                f"(maxima: {words or '-'})")


def verify_maxima_ray(oracle: OrderOracle, depth: int) -> RayReport:
    """Compute g_1..g_N and check the maxima-ray properties exactly.

    (i) |g_n| = n and g_{n+1} = x g_n for a generator x, (ii) the inverses
    form a geodesic (d(g_n^-1, g_m^-1) = |n - m|), (iii) every element of
    B(g_n^-1, n - 1) is negative.
    """
    model, sign = oracle.model, oracle.sign_key
    mul, distance, length = model.mul, model.key_distance, model.key_length
    keys = _ball_maxima(oracle, depth)
    maxima = tuple(map(partial(Element, model), keys[1:]))  # g_1, ..., g_N

    length_failures = [(n, str(maxima[n - 1]), length(keys[n]))
                       for n in range(1, depth + 1) if length(keys[n]) != n]

    successor_failures, geodesic_failures = [], []
    inverses = list(map(model.inv, keys))  # g_0 is the identity
    for n in range(depth + 1):
        for m in range(n + 1, depth + 1):
            d = distance(inverses[n], inverses[m])
            if d != m - n:
                geodesic_failures.append((n, m, d))
            # g_m = x g_n for a generator x exactly when d = |g_n g_m^-1| = 1
            if m == n + 1 > 1 and d != 1:
                successor_failures.append((m, str(maxima[n]), str(maxima[n - 1])))

    negativity_failures = []
    for n in range(1, depth + 1):
        center, ball = inverses[n], model.ball(n - 1)
        for b in ball.keys[:len(ball)]:
            s = sign(mul(center, b))
            if s is not Sign.NEGATIVE:
                negativity_failures.append(
                    (n, model.text(mul(center, b)), s.value))

    return RayReport(
        oracle_name=oracle.name,
        depth=depth,
        maxima=maxima,
        length_failures=tuple(length_failures),
        successor_failures=tuple(successor_failures),
        geodesic_failures=tuple(geodesic_failures),
        negativity_failures=tuple(negativity_failures),
    )


# -- r-components ------------------------------------------------------------

class ComponentReport(namedtuple("ComponentReport",
                                 "oracle_name r radius components representatives")):
    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.components)

    def summary(self) -> str:
        sizes = ",".join(str(len(c)) for c in self.components)
        return (f"components[{self.oracle_name}] r={self.r} R={self.radius}: "
                f"{self.count} class(es) of sizes [{sizes}]")


def _search(ball: Ball, r: int, src: int, dst: int | None,
            allowed: set[int]) -> tuple[list[int] | None, dict]:
    """Breadth-first parent-pointer search on ranks of the ball from src to dst.

    The neighbours of a node are the allowed ranks within distance r
    (`Ball.near`), queued in rank order. Returns the path as ranks (None
    when dst is None or unreachable) and the parents, by rank, of every node
    reached: with dst None, the r-class of src.
    """
    parents: dict[int, int | None] = {src: None}
    queue = deque([src])
    while queue:
        current = queue.popleft()
        if current == dst:
            path = [current]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            return path[::-1], parents
        for rank in sorted(ball.near(current, r) & allowed):
            if rank not in parents:
                parents[rank] = current
                queue.append(rank)
    return None, parents


def _r_classes(oracle: OrderOracle, r: int, radii: tuple[int, ...]
               ) -> tuple[Ball, list[Sign], list[int], list[int]]:
    """Union-find over the ranks of B(max radii), in rank order, each
    positive rank joined to those below it in `Ball.near`. Each B(R) is a
    rank prefix joined inside itself (see the groups module docs), so its
    classes are complete at its last rank. Returns B(max radii), its signs,
    each rank's class's least rank (-1 off the cone) and each B(R)'s count."""
    if min(radii) < 0:
        raise ValueError("radius must be non-negative")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > min(radii):
        raise ValueError("r must not exceed the ball radius")
    for R in sorted(radii):  # smallest first: a cap stops at the first beyond it
        ball = oracle.model.ball(R)
    step, width, signs = ball.step, ball.width, oracle.signs(ball)
    root = [-1] * len(signs)  # by rank; -1 outside the cone
    classes, counts = 0, []  # the class count after each rank
    for g, s in enumerate(signs):
        if s is Sign.POSITIVE:
            root[g] = top = g  # top: the root of g's class
            classes += 1
            # the ranks within r; for r = 1, the step row (-1 off the ball)
            near = step[g * width:(g + 1) * width] if r == 1 else ball.near(g, r)
            for h in near:  # root holds the positive ranks below g
                if -1 < h < g and root[h] > -1:
                    while root[h] != h:
                        root[h] = h = root[root[h]]  # halve the path
                    if h != top:  # the larger root joins the smaller
                        root[max(h, top)] = top = min(h, top)
                        classes -= 1
        counts.append(classes)
    for g, top in enumerate(root):  # a root is never above its rank
        if top > -1:
            root[g] = root[top]
    return ball, signs, root, [counts[ball.sizes[R] - 1] for R in radii]


def r_components(oracle: OrderOracle, r: int, radius: int) -> ComponentReport:
    """Partition the positives of B(1, R) into classes joined at distance <= r.

    Only pairs of in-ball positive elements are joined, which is the
    ball-restricted stand-in for coarse connectivity. Output is canonical:
    classes sorted by their shortlex-least representative.
    """
    ball, _, root, _ = _r_classes(oracle, r, (radius,))
    components: dict[int, list[Element]] = {}
    for g, least in enumerate(root):
        if least > -1:
            components.setdefault(least, []).append(Element(ball.model, ball.keys[g]))
    components = list(components.values())
    return ComponentReport(
        oracle_name=oracle.name,
        r=r,
        radius=radius,
        components=tuple(tuple(c) for c in components),
        representatives=tuple(c[0] for c in components),
    )


# -- negative swamps ----------------------------------------------------------

class SwampCertificate(namedtuple("SwampCertificate",
                                  "r center swamp witnesses verdict")):
    """A width-r negative set around a center, with positive witnesses."""
    __slots__ = ()

    def to_json(self) -> dict:
        model = self.center.model
        return {
            "r": self.r,
            "center": str(self.center),
            "swamp": sorted((str(s) for s in self.swamp)),
            "witnesses": [str(w) for w in self.witnesses],
            "verdict": self.verdict.value,
            "group": model.descriptor(),
        }

    def summary(self) -> str:
        u, v = self.witnesses
        return (f"swamp r={self.r}: center {self.center}, |S|={len(self.swamp)}, "
                f"witnesses {u} / {v}, verdict {self.verdict.value}")


def _witnesses(oracle: OrderOracle, candidates, letters,
               horizon: int) -> tuple[Element, Element]:
    """The positive witnesses in two branches of a swamp.

    candidates are (branch letter, key) pairs in scan order; the first
    positive of each branch is kept, and the scan stops once every letter
    has one. Returns the first two in letter order.
    """
    found: dict[int, tuple] = {}
    for branch, g in candidates:
        if branch not in found and oracle.sign_key(g) is Sign.POSITIVE:
            found[branch] = g
            if len(found) == len(letters):
                break
    if len(found) < 2:
        raise WitnessNotFound(horizon, f"positives found in {len(found)} branch(es)")
    return tuple([Element(oracle.model, found[l]) for l in letters
                  if l in found][:2])


def tree_swamp_certificate(oracle: OrderOracle, r: int,
                           search_radius: int | None = None) -> SwampCertificate:
    """The exact free-group swamp: S = g_{r+1}^-1 B(1, r).

    The center is the inverse of the radius-(r+1) ball maximum, so S is a
    full negative ball of radius r around it; removing it cuts the tree.
    Witnesses are positive elements found in two distinct branches at the
    center within the search horizon (default r + 8): in each branch the
    shortlex-first positive beyond distance r, with the branches taken in
    the fixed letter order. The scan reads the held ball beyond B(r), grows
    it only as far as it reaches, and stops once every branch has one.
    """
    model = oracle.model
    if not isinstance(model, FreeGroup):
        raise ModelMismatch("tree swamps are exact only on free groups")
    if r < 0:
        raise ValueError("width must be non-negative")
    if search_radius is None:
        search_radius = r + 8
    if search_radius <= r + 1:
        raise ValueError("search radius must exceed r + 1")

    c, ball = model.inv(_ball_maxima(oracle, r + 1)[-1]), model.ball(r)
    swamp = frozenset(Element(model, model.mul(c, b)) for b in ball.keys[:len(ball)])
    for s in sorted(swamp, key=Element.sort_key):
        if oracle.sign_key(s.key) is not Sign.NEGATIVE:
            raise BrokenOrderError(
                f"swamp element {s} is not negative under {oracle.name}")

    def candidates():
        # the key of a free-group element is its reduced word
        for k in range(r + 1, search_radius + 1):
            ball = model.ball(k)
            for g in ball.keys[ball.sizes[k - 1]:ball.sizes[k]]:
                yield g[0], model.mul(c, g)

    witnesses = _witnesses(oracle, candidates(), model.alphabet.letters,
                           search_radius)
    return SwampCertificate(r, Element(model, c), swamp, witnesses,
                            Verdict.CERTIFIED_TREE)


def product_column_swamp(oracle: OrderOracle, r: int,
                         radius: int) -> SwampCertificate:
    """Negative column swamp in a product with a free first factor.

    The maxima-ray center has the free coordinate c_F carrying a negative
    ball B(c_F, r) in the factor; under a free-leading lexicographic order
    the whole column over that ball stays negative, so the swamp is the
    column intersected with B(1, R). Witnesses are positives whose free
    coordinates hang in two distinct branches at c_F beyond distance r.
    Verdicts stay at Evidence here: the Cayley graph is not a tree.
    """
    model = oracle.model
    if not isinstance(model, DirectProduct):
        raise ModelMismatch("column swamps live on product models")
    free = model.factors[0]
    if not isinstance(free, FreeGroup):
        raise ModelMismatch("the column swamp needs a free factor")
    if r < 0:
        raise ValueError("width must be non-negative")
    center = model.inv(_ball_maxima(oracle, r + 1)[-1])
    back = free.inv(center[0])
    # B(r + 1), held for the center, first: a refusal grows no larger ball
    for R in (min(r + 1, radius), radius):
        ball = model.ball(R)
        members = ball.keys[:len(ball)]
        # the offset c_F^-1 g_F is a reduced word: its length is the distance
        # from c_F and its first letter the branch there
        offsets = [free.mul(back, g[0]) for g in members]
        swamp = [Element(model, g) for g, d in zip(members, offsets) if len(d) <= r]
        for s in swamp:
            if oracle.sign_key(s.key) is not Sign.NEGATIVE:
                raise ModelMismatch(
                    f"the column swamp needs the free factor to lead the order: "
                    f"column element {s} is not negative under {oracle.name}")

    witnesses = _witnesses(oracle, ((d[0], g) for g, d in zip(members, offsets)
                                    if len(d) > r),
                           free.alphabet.letters, radius)
    return SwampCertificate(r, Element(model, center), frozenset(swamp),
                            witnesses, Verdict.EVIDENCE)


class SeparationResult(namedtuple("SeparationResult",
                                  "verdict avoiding_path explored",
                                  defaults=(None, 0))):
    __slots__ = ()

    def summary(self) -> str:
        text = f"separation: {self.verdict.value} ({self.explored} nodes explored)"
        if self.avoiding_path is not None:
            text += " via " + " -> ".join(self.avoiding_path.words())
        return text


def verify_separation(cert: SwampCertificate,
                      radius: int | None = None) -> SeparationResult:
    """Decide whether the swamp separates the witnesses, in the model of the
    certificate's center.

    Free-group model: structural tree-cut argument; any r-path between two
    distinct branches at the center passes within distance r of it, hence
    through S, provided S contains the full radius-r ball at the center.
    Other models: breadth-first search for an S-avoiding r-path inside
    B(1, R) over arbitrary (not only positive) elements. The verdict is
    CertifiedExhaustive only when the reachable region never comes within r
    of the ball boundary, so no path could continue outside; otherwise the
    search is only Evidence.
    """
    model, (u, v) = cert.center.model, cert.witnesses
    swamp = {s.key for s in cert.swamp}
    if isinstance(model, FreeGroup):
        # the offset c^-1 w is a reduced word: its length is the distance
        # from the center and its first letter the branch there
        c, r, ball = cert.center.key, cert.r, model.ball(cert.r)
        du, dv = (model.mul(model.inv(c), w.key) for w in (u, v))
        if (len(du) > r and len(dv) > r and du[0] != dv[0]
                and all(model.mul(c, b) in swamp for b in ball.keys[:len(ball)])):
            return SeparationResult(verdict=Verdict.CERTIFIED_TREE)
        # fall through to the bounded search if the certificate is malformed

    if radius is None:
        radius = max(u.length, v.length, cert.center.length) + cert.r + 1
    ball = model.ball(radius)
    ranks = ball.ranks
    allowed = set(range(len(ball))).difference(ranks.get(s) for s in swamp)
    ends = [ranks.get(u.key), ranks.get(v.key)]
    if not allowed.issuperset(ends):
        raise ValueError("witnesses must lie inside the search ball and off S")
    found, parents = _search(ball, cert.r, ends[0], ends[1], allowed)
    if found is not None:
        path = RPath(model, tuple(ball.keys[i] for i in found), cert.r)
        path.check()
        return SeparationResult(verdict=Verdict.NOT_SEPARATING,
                                avoiding_path=path, explored=len(parents))
    escape_cut = radius - cert.r  # ranks from sizes[escape_cut] lie beyond it
    touched_boundary = (escape_cut < 0
                        or max(parents) >= ball.sizes[escape_cut])
    verdict = Verdict.EVIDENCE if touched_boundary else Verdict.CERTIFIED_EXHAUSTIVE
    return SeparationResult(verdict=verdict, explored=len(parents))


def sample_tree_paths(cert: SwampCertificate, count: int, seed: int) -> list[RPath]:
    """Random r-paths between the witnesses through B(center, R_search).

    Used to probe swamp soundness: every sampled path must meet S. Paths
    are geodesic chains through random waypoints, subsampled every r steps
    (for r = 0 they are full vertex chains).
    """
    rng = random.Random(seed)
    model, c = cert.center.model, cert.center.key
    u, v = (w.key for w in cert.witnesses)
    ball = model.ball(max(model.key_distance(c, u), model.key_distance(c, v)))
    pool = sorted((model.mul(c, b) for b in ball.keys[:len(ball)]),
                  key=model.sort_key)
    step = max(cert.r, 1)
    paths = []
    for _ in range(count):
        waypoints = [u] + [rng.choice(pool) for _ in range(rng.randint(0, 4))] + [v]
        chain: list[tuple] = []  # each leg without its last point
        for a, b in zip(waypoints, waypoints[1:]):
            chain.extend(model.geodesic(a, b)[:-1])
        path = RPath(model, tuple(_dedupe(chain[::step] + [v])), step)
        path.check()
        paths.append(path)
    return paths


# -- positive path constructions ----------------------------------------------

# the largest central power s tried by cofinal_positive_path
_POWER_BUDGET = 10_000


def _check_endpoints(oracle: OrderOracle, g: Element, h: Element) -> None:
    if g.model != oracle.model or h.model != oracle.model:
        raise ModelMismatch("endpoints do not live in the oracle's model")
    if not (oracle.is_positive(g) and oracle.is_positive(h)):
        raise ValueError("both endpoints must be positive")


def _cone_path(oracle: OrderOracle, keys: list[tuple], r: int,
               kind: str) -> RPath:
    """The keys, repeats dropped, as an r-path checked to stay in the cone."""
    path = RPath(oracle.model, tuple(_dedupe(keys)), r)
    path.check()
    for k in path.keys:
        if oracle.sign_key(k) is not Sign.POSITIVE:
            raise BrokenOrderError(
                f"{kind} path left the cone at {path.model.text(k)}")
    return path


def cofinal_positive_path(oracle: OrderOracle, g: Element, h: Element) -> RPath:
    """Join two positives through the declared cofinal central copy of Z.

    Take the geodesic 1-path from g to h, push it up by a central power
    z^s chosen so every translated point is positive, and splice the two
    z-ladders g z^j and h z^j at the ends. All points stay in the cone.
    """
    z = oracle.declared_cofinal_central
    if z is None:
        raise NoDeclaredCofinalCenter(
            f"oracle {oracle.name} declares no cofinal central generator")
    _check_endpoints(oracle, g, h)
    model, sign = oracle.model, oracle.sign_key
    mul, z = model.mul, z.key
    if sign(z) is Sign.NEGATIVE:
        z = model.inv(z)

    base = model.geodesic(g.key, h.key)
    powers, translate = [model.one], base  # z^0, ..., z^s; z^s times base
    while not all(sign(p) is Sign.POSITIVE for p in translate):
        if len(powers) > _POWER_BUDGET:
            raise PathNotFound(f"no positive translate within budget {_POWER_BUDGET}")
        powers.append(mul(powers[-1], z))
        translate = [mul(powers[-1], p) for p in base]

    # z is central, so the ladders g z^j and h z^j are g and h times z^j
    up = [mul(g.key, p) for p in powers]
    down = [mul(h.key, p) for p in reversed(powers)]
    return _cone_path(oracle, up + translate + down, 1, "cofinal")


def product_positive_path(oracle: OrderOracle, g: Element, h: Element,
                          r: int = 1) -> RPath:
    """Three-leg positive path in a direct product whose factor cones connect.

    First both endpoints are normalized so that each coordinate is positive
    in its factor (walking the offending coordinate to the identity through
    the cone costs nothing because the other coordinate keeps the product
    positive), then one leg moves through A x {b1} and one through {a2} x B.
    Refuses with FactorNotConnectedAtScale when a factor cone is not
    r-connected within the working ball, e.g. for a free-group factor.
    """
    model, sign = oracle.model, oracle.sign_key
    if not isinstance(model, DirectProduct):
        raise ModelMismatch("product paths need a DirectProduct model")
    _check_endpoints(oracle, g, h)
    factors = model.factors

    def join(factor: int, a: tuple, other: tuple) -> tuple:
        """The product key with a at the factor and other at the other one."""
        return (a, other) if factor == 0 else (other, a)

    factor_radius = max([f.key_length(p.key[i]) for p in (g, h)
                         for i, f in enumerate(factors)] + [1]) + r + 1

    # one ball per factor serves the gate and every leg: the ranks of the
    # restricted positives a, with (a, 1) or (1, a) positive
    cones = []
    for factor, group in enumerate(factors):
        ball, one = group.ball(factor_radius), factors[1 - factor].one
        positives = [i for i, a in enumerate(ball.keys[:len(ball)])
                     if sign(join(factor, a, one)) is Sign.POSITIVE]
        allowed = set(positives)
        # empirical gate: the restricted cone must form one r-class in the
        # ball, so one search from its first positive reaches all of it
        if not positives or len(_search(ball, r, positives[0], None,
                                        allowed)[1]) != len(allowed):
            raise FactorNotConnectedAtScale(r, factor_radius, factor)
        cones.append((ball.keys[positives[0]], ball, allowed))

    def factor_path(factor: int, src: tuple, dst: tuple) -> list[tuple]:
        """r-path from src to dst through restricted positives."""
        _, ball, allowed = cones[factor]
        ends = [ball.ranks.get(src), ball.ranks.get(dst)]
        if not allowed.issuperset(ends):
            raise FactorNotConnectedAtScale(r, factor_radius, factor)
        # the gate made allowed one r-class, so the search reaches dst
        return [ball.keys[i] for i in _search(ball, r, ends[0], ends[1], allowed)[0]]

    def ladder(factor: int, dst: tuple) -> list[tuple]:
        """[1, p_1, ..., dst] with every point after 1 restricted-positive.

        The gate made the restricted cone one r-class, so its first element
        within r of the identity reaches dst exactly when any element does.
        """
        group = factors[factor]
        if group.key_length(dst) <= r:
            return _dedupe([group.one, dst])
        if group.key_length(cones[factor][0]) > r:
            raise FactorNotConnectedAtScale(r, factor_radius, factor)
        return [group.one] + factor_path(factor, cones[factor][0], dst)

    def normalize(point: tuple) -> list[tuple]:
        """Walk both coordinates into the factor cones; the path ends there."""
        path = [point]
        for factor, group in enumerate(factors):
            a, other = path[-1][factor], path[-1][1 - factor]
            first, ball, allowed = cones[factor]
            if ball.ranks.get(a) in allowed:  # a is restricted-positive
                continue
            # the climb ends at the shortlex-least restricted positive, first
            if group.key_length(first) > max(r, 1):
                raise FactorNotConnectedAtScale(r, max(r, 1), factor)
            climb = [group.mul(a, q) for q in ladder(factor, group.inv(a))]
            path += [join(factor, q, other) for q in climb + [first]]
        return path

    up_g, up_h = normalize(g.key), normalize(h.key)
    (a1, b1), (a2, b2) = up_g[-1], up_h[-1]
    leg_a = [(y, b1) for y in factor_path(0, a1, a2)]
    leg_b = [(a2, z) for z in factor_path(1, b1, b2)]
    return _cone_path(oracle, up_g + leg_a + leg_b + up_h[::-1], r, "product")


# -- survey --------------------------------------------------------------------

class SurveyClass(enum.Enum):
    PRIETO_CONSISTENT = "prieto-consistent"
    HUCHA_CERTIFIED = "hucha-certified"
    DISCONNECTION_EVIDENCE = "disconnection-evidence"


class SurveyReport(namedtuple("SurveyReport", (
        "oracle_name r radii counts stable classification verdict "
        "certificate"), defaults=(None,))):
    __slots__ = ()

    def summary(self) -> str:
        pairs = ", ".join(f"R={R}:{c}" for R, c in zip(self.radii, self.counts))
        return f"survey[{self.oracle_name}] r={self.r}: {pairs} -> {self.verdict}"


def connectivity_survey(oracle: OrderOracle, r: int, radii) -> SurveyReport:
    """Count the r-classes over a ladder of radii and classify the outcome."""
    radii = tuple(sorted(radii))
    if not radii:
        raise ValueError("need at least one radius")
    counts = tuple(_r_classes(oracle, r, radii)[3])
    stable = len(set(counts)) == 1
    certificate = None
    if all(c == 1 for c in counts):
        classification = SurveyClass.PRIETO_CONSISTENT
        verdict = f"Prieto-consistent at (r={r}, R={max(radii)})"
    else:
        if isinstance(oracle.model, FreeGroup):
            try:
                certificate = tree_swamp_certificate(oracle, r)
            except WitnessNotFound:
                certificate = None
        if certificate is not None:
            classification = SurveyClass.HUCHA_CERTIFIED
            verdict = f"Hucha-certified at width {r}"
        else:
            classification = SurveyClass.DISCONNECTION_EVIDENCE
            verdict = (f"disconnection evidence at (r={r}, R={max(radii)}); "
                       f"no structural certificate")
    return SurveyReport(
        oracle_name=oracle.name,
        r=r,
        radii=radii,
        counts=counts,
        stable=stable,
        classification=classification,
        verdict=verdict,
        certificate=certificate,
    )
