"""Checks of conescope reports against computations made apart from the program.

Every check rests on a property the method must have (a closed-form ball
size, the paper's dichotomy, a geometric property of a certificate or a
path) or on an independent computation written here from the definitions:
free reduction, the F2 x Z, Z^2 and Klein bottle normal forms, exact
p + q*sqrt(2) signs and the Magnus expansion. Nothing is compared against a
stored copy of an earlier report.

Words are the report strings: `a`, `b`, `c` for generators, uppercase for
inverses and "1" for the identity. A check returns a list of problems; an
empty list means the report is correct.
"""

from __future__ import annotations

import functools
import random

SHORTLEX_LETTERS = "aAbBcC"


# -- words --------------------------------------------------------------------

def parse(word: str) -> str:
    return "" if word == "1" else word


def fmt(word: str) -> str:
    return word or "1"


def inverse(word: str) -> str:
    return word[::-1].swapcase()


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def shortlex_key(word: str) -> tuple:
    return len(word), tuple(SHORTLEX_LETTERS.index(ch) for ch in word)


def reduced_words(max_length: int, letters: str = "aAbB") -> list[str]:
    """Every freely reduced word of length <= max_length."""
    out = [""]
    frontier = [""]
    for _ in range(max_length):
        frontier = [w + ch for w in frontier for ch in letters
                    if not w or w[-1] != ch.swapcase()]
        out.extend(frontier)
    return out


def free_distance(u: str, v: str) -> int:
    return len(free_reduce(inverse(u) + v))


def branch(center: str, g: str) -> str:
    """First letter of the tree geodesic from center to g ("" if equal)."""
    return free_reduce(inverse(center) + g)[:1]


# -- normal forms -------------------------------------------------------------

def product_form(word: str) -> tuple[str, int]:
    """F2 x Z element as (reduced free word, exponent of the central c)."""
    free = free_reduce("".join(ch for ch in parse(word) if ch in "aAbB"))
    k = parse(word).count("c") - parse(word).count("C")
    return free, k


def product_word(free: str, k: int) -> str:
    return free + ("c" * k if k >= 0 else "C" * -k)


def plane_vector(word: str) -> tuple[int, int]:
    w = parse(word)
    return w.count("a") - w.count("A"), w.count("b") - w.count("B")


def klein_pair(word: str) -> tuple[int, int]:
    """(n, m) with the element equal to b^n a^m, from a b a^-1 = b^-1."""
    n = m = 0
    for ch in parse(word):
        if ch in "aA":
            m += 1 if ch == "a" else -1
        else:
            e = 1 if ch == "b" else -1
            n += e if m % 2 == 0 else -e
    return n, m


def klein_multiply(g: tuple[int, int], h: tuple[int, int]) -> tuple[int, int]:
    return g[0] + (-1) ** (g[1] % 2) * h[0], g[1] + h[1]


def klein_inverse(g: tuple[int, int]) -> tuple[int, int]:
    return -((-1) ** (g[1] % 2)) * g[0], -g[1]


def klein_length(g: tuple[int, int]) -> int:
    # each b^+-1 moves n by one, each a^+-1 moves m by one, b^n a^m attains it
    return abs(g[0]) + abs(g[1])


# -- ball sizes ---------------------------------------------------------------

def ball_size(group: dict, radius: int) -> int:
    kind = group["kind"]
    if kind == "free" and group["rank"] == 2:
        return 2 * 3 ** radius - 1
    if (kind == "abelian" and group["rank"] == 2) or kind == "klein":
        return 2 * radius * radius + 2 * radius + 1
    if kind == "product":
        s = [1] + [4 * 3 ** (i - 1) for i in range(1, radius + 1)]
        t = [1] + [2] * radius
        return sum(s[i] * t[j] for i in range(radius + 1)
                   for j in range(radius + 1 - i))
    raise ValueError(f"no closed form for {group}")


# -- signs --------------------------------------------------------------------

def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def sqrt2_sign(p: int, q: int) -> int:
    """Sign of p + q*sqrt(2) by integer comparison of p^2 and 2 q^2."""
    if _sgn(p) * _sgn(q) >= 0:
        return _sgn(p) or _sgn(q)
    return _sgn(p) if p * p > 2 * q * q else _sgn(q)


def hyperplane_sign(vector, weights) -> int:
    """Sign under weights [[p, q], ...] (p + q*sqrt2); ties go lex on vector."""
    p = sum(v * w[0] for v, w in zip(vector, weights))
    q = sum(v * w[1] for v, w in zip(vector, weights))
    value = sqrt2_sign(p, q)
    if value:
        return value
    return next((_sgn(v) for v in vector if v), 0)


def klein_sign(g: tuple[int, int]) -> int:
    return _sgn(g[1]) or _sgn(g[0])


@functools.lru_cache(maxsize=None)
def magnus_sign(word: str) -> int:
    """Sign of the deglex-least monomial of (Magnus expansion - 1).

    x -> 1 + X and x^-1 -> 1 - X + X^2 - ..., truncated at a degree that
    grows until a nonconstant term survives (coefficients of degree <= d
    are exact at truncation d).
    """
    w = free_reduce(word)
    if not w:
        return 0
    for degree in range(1, len(w) + 1):
        poly = {(): 1}
        for ch in w:
            var = "ab".index(ch.lower()) + 1
            if ch.islower():
                factor = {(): 1, (var,): 1}
            else:
                factor = {(var,) * k: (-1) ** k for k in range(degree + 1)}
            grown: dict[tuple, int] = {}
            for m1, c1 in poly.items():
                for m2, c2 in factor.items():
                    if len(m1) + len(m2) <= degree:
                        grown[m1 + m2] = grown.get(m1 + m2, 0) + c1 * c2
            poly = {m: c for m, c in grown.items() if c}
        terms = sorted((len(m), m, c) for m, c in poly.items() if m)
        if terms:
            return _sgn(terms[0][2])
    raise AssertionError(f"Magnus expansion of {w} vanished")


def z_leading_sign(word: str) -> int:
    """F2 x Z, central Z factor leading, Magnus order on the free factor."""
    free, k = product_form(word)
    return _sgn(k) or magnus_sign(free)


def plane_maximum(order: dict, n: int) -> str:
    """Order-maximum of B(1, n) in Z^2 or the Klein bottle, by exhaustion."""
    points = [(x, y) for x in range(-n, n + 1)
              for y in range(-(n - abs(x)), n - abs(x) + 1)]
    if order["kind"] == "hyperplane":
        def above(g, h):
            return hyperplane_sign((h[0] - g[0], h[1] - g[1]),
                                   order["weights"]) > 0
        best = points[0]
        for g in points[1:]:
            if above(best, g):
                best = g
        x, y = best
        return fmt(("a" if x > 0 else "A") * abs(x)
                   + ("b" if y > 0 else "B") * abs(y))
    best = points[0]  # Klein: points are (n, m) for b^n a^m
    for g in points[1:]:
        if klein_sign(klein_multiply(klein_inverse(best), g)) > 0:
            best = g
    n_b, m_a = best
    return fmt(("b" if n_b > 0 else "B") * abs(n_b)
               + ("a" if m_a > 0 else "A") * abs(m_a))


# -- sampled inputs -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cofinal_pairs(radius: int, seed: int, count: int) -> tuple:
    """The pairs `cofinal-path` is asked for: `count` draws of two positives
    from B(1, radius) of F2 x Z (Z leading) in shortlex order, by
    random.Random(seed).choice, as the CLI's `pairs` key specifies."""
    ball = [product_word(w, k) for w in reduced_words(radius)
            for k in range(-(radius - len(w)), radius - len(w) + 1)]
    positives = sorted((g for g in ball if z_leading_sign(g) > 0),
                       key=shortlex_key)
    rng = random.Random(seed)
    return tuple((fmt(rng.choice(positives)), fmt(rng.choice(positives)))
                 for _ in range(count))


# -- report checks --------------------------------------------------------------

def _expect_exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_axioms(cfg, code, res, files) -> list[str]:
    problems = _expect_exit(code, 0)
    want = ball_size(cfg["group"], cfg["radius"])
    if res.get("checked") != want:
        problems.append(f"checked {res.get('checked')} elements, closed form {want}")
    if res.get("passed") is not True:
        problems.append("axioms not passed")
    for key in ("partition_failures", "identity_failures", "closure_failures"):
        if res.get(key):
            problems.append(f"{key} not empty")
    return problems


def check_ray(cfg, code, res, files) -> list[str]:
    problems = _expect_exit(code, 0)
    n = cfg["radius"]
    if cfg["order"]["kind"] == "magnus":
        want = ["a" * i for i in range(1, n + 1)]
    else:
        want = [plane_maximum(cfg["order"], i) for i in range(1, n + 1)]
    if res.get("maxima") != want:
        problems.append(f"maxima {res.get('maxima')} differ from {want}")
    if res.get("passed") is not True:
        problems.append("ray not passed")
    return problems


def check_components(cfg, code, res, files) -> list[str]:
    problems = _expect_exit(code, 0)
    sizes = res.get("sizes", [])
    half = (ball_size(cfg["group"], cfg["radius"]) - 1) // 2
    if sum(sizes) != half or min(sizes, default=0) < 1:
        problems.append(f"component sizes sum to {sum(sizes)}, not {half}")
    if not res.get("count") == len(sizes) == len(res.get("representatives", [])):
        problems.append("count, sizes and representatives disagree")
    if cfg["group"]["kind"] == "free" and res.get("count", 0) < 2:
        problems.append("free-group cone found connected")
    return problems


def check_survey(cfg, code, res, files) -> list[str]:
    kind = cfg["group"]["kind"]
    problems = []
    if res.get("radii") != sorted(cfg["radii"]):
        problems.append(f"radii {res.get('radii')} differ from the request")
    if kind == "free":
        want_class, want_code = "hucha-certified", 0
        if "certificate" not in res:
            problems.append("hucha verdict without a certificate")
    elif kind == "product":
        want_class, want_code = "disconnection-evidence", 2
    else:
        want_class, want_code = "prieto-consistent", 0
        if any(c != 1 for c in res.get("counts", [None])):
            problems.append(f"counts {res.get('counts')} are not all 1")
    if res.get("classification") != want_class:
        problems.append(f"classification {res.get('classification')}, "
                        f"expected {want_class}")
    return problems + _expect_exit(code, want_code)


def _check_witnesses(center: str, witnesses: list[str], r: int) -> list[str]:
    if len(witnesses) != 2:
        return ["certificate needs two witnesses"]
    problems = []
    for w in witnesses:
        if free_distance(center, w) <= r:
            problems.append(f"witness {w} lies within {r} of the center")
    if branch(center, witnesses[0]) == branch(center, witnesses[1]):
        problems.append("witnesses share a branch at the center")
    return problems


def check_swamp(cfg, code, res, files) -> list[str]:
    r = cfg["width"]
    center = parse(res.get("center", ""))
    swamp = [parse(s) for s in res.get("swamp", [])]
    problems = []
    if len(set(swamp)) != len(swamp):
        problems.append("swamp lists an element twice")
    if files.get("certificate.json") != {k: v for k, v in res.items()
                                         if k not in ("separation", "avoiding_path")}:
        problems.append("certificate.json differs from the report")
    if cfg["group"]["kind"] == "free":
        problems += _expect_exit(code, 0)
        if res.get("verdict") != "certified-tree" \
                or res.get("separation") != "certified-tree":
            problems.append("tree swamp not certified")
        if len(swamp) != 2 * 3 ** r - 1:
            problems.append(f"|S| = {len(swamp)}, expected {2 * 3 ** r - 1}")
        if any(free_distance(center, s) > r for s in swamp):
            problems.append(f"swamp word farther than {r} from the center")
        witnesses = [parse(w) for w in res.get("witnesses", [])]
        return problems + _check_witnesses(center, witnesses, r)
    # column swamp in F2 x Z, free factor leading
    radius = cfg["radius"]
    center_free = product_form(center)[0]
    frees = [product_form(s)[0] for s in swamp]
    if any(free_distance(center_free, f) > r for f in frees):
        problems.append(f"column element farther than {r} from the center column")
    column = 0
    for u in reduced_words(r):
        length = len(free_reduce(center_free + u))
        column += max(0, 2 * (radius - length) + 1)
    if len(swamp) != column:
        problems.append(f"|S| = {len(swamp)}, full column in the ball has {column}")
    if res.get("verdict") != "evidence":
        problems.append(f"column swamp verdict {res.get('verdict')}")
    separation_codes = {"evidence": 2, "certified-exhaustive": 0}
    if res.get("separation") not in separation_codes:
        problems.append(f"separation {res.get('separation')} in the column case")
    else:
        problems += _expect_exit(code, separation_codes[res["separation"]])
    witnesses = [product_form(w)[0] for w in res.get("witnesses", [])]
    return problems + _check_witnesses(center_free, witnesses, r)


def check_cofinal_path(cfg, code, res, files) -> list[str]:
    problems = _expect_exit(code, 0)
    wanted = cofinal_pairs(cfg["radius"], cfg["seed"], cfg["pairs"])
    paths = res.get("paths", [])
    if len(paths) != len(wanted):
        return problems + [f"{len(paths)} paths for {len(wanted)} pairs"]
    for (g, h), path in zip(wanted, paths):
        points = path["points"]
        if (path["from"], path["to"]) != (g, h) or points[0] != g or points[-1] != h:
            problems.append(f"path for ({g}, {h}) runs {points[0]} -> {points[-1]}")
            continue
        forms = [product_form(p) for p in points]
        for (f1, k1), (f2, k2) in zip(forms, forms[1:]):
            if free_distance(f1, f2) + abs(k2 - k1) != 1:
                problems.append(f"path for ({g}, {h}) jumps between "
                                f"{product_word(f1, k1)} and {product_word(f2, k2)}")
                break
        if any(z_leading_sign(p) <= 0 for p in points):
            problems.append(f"path for ({g}, {h}) leaves the positive cone")
    return problems


def check_export_dot(cfg, code, res, files) -> list[str]:
    problems = _expect_exit(code, 0)
    dot = files.get("ball.dot", "")
    if dot != res.get("dot"):
        problems.append("ball.dot differs from the report")
    want = ball_size(cfg["group"], cfg["radius"])
    nodes = dot.count("[label=")
    if nodes != want:
        problems.append(f"{nodes} nodes, closed form {want}")
    if dot.count("sign=id") != 1:
        problems.append(f"{dot.count('sign=id')} identity nodes")
    if dot.count("sign=pos") != dot.count("sign=neg"):
        problems.append("positive and negative node counts differ")
    return problems


def _cone_member(group: dict, word: str) -> tuple[bool, int]:
    """(in the shipped automaton's cone, word length) for Z^2 lex or Klein."""
    if group["kind"] == "klein":
        g = klein_pair(word)
        return klein_sign(g) > 0, klein_length(g)
    x, y = plane_vector(word)
    return (x > 0 or (x == 0 and y > 0)), abs(x) + abs(y)


def check_dfa_verify(cfg, code, res, files) -> list[str]:
    problems = _expect_exit(code, 0)
    radius = cfg["radius"]
    in_ball = res.get("in_ball", [])
    if res.get("verdict") != "PASS":
        problems.append(f"verdict {res.get('verdict')}")
    if len(in_ball) != radius * radius + radius:
        problems.append(f"{len(in_ball)} elements in the ball, "
                        f"expected {radius * radius + radius}")
    for word in in_ball:
        positive, length = _cone_member(cfg["group"], word)
        if not positive or length > radius:
            problems.append(f"{word} is not a positive element of B({radius})")
            break
    return problems


def check_dfa_qg(cfg, code, res, files) -> list[str]:
    problems = _expect_exit(code, 0)
    if (res.get("verdict"), res.get("lambda"), res.get("c")) != ("PASS", "1", "0"):
        problems.append(f"quasigeodesic check {res.get('verdict')} at "
                        f"lambda={res.get('lambda')} c={res.get('c')}")
    return problems


def check_dfa_path(cfg, code, res, files) -> list[str]:
    problems = _expect_exit(code, 0)
    bound = 2 * len(files[cfg["dfa"]]["states"]) + 1
    points = res.get("points", [])
    if res.get("bound") != bound:
        problems.append(f"bound {res.get('bound')}, expected {bound}")
    if cfg["group"]["kind"] == "klein":
        forms = [klein_pair(p) for p in points]
        gaps = [klein_length(klein_multiply(klein_inverse(u), v))
                for u, v in zip(forms, forms[1:])]
        ends = forms[:1] + forms[-1:] == [(0, 0), klein_pair(cfg["word"])]
    else:
        forms = [plane_vector(p) for p in points]
        gaps = [abs(v[0] - u[0]) + abs(v[1] - u[1])
                for u, v in zip(forms, forms[1:])]
        ends = forms[:1] + forms[-1:] == [(0, 0), plane_vector(cfg["word"])]
    if not ends:
        problems.append("path does not run from 1 to the word's value")
    if gaps != res.get("gaps"):
        problems.append("reported gaps differ from the recomputed ones")
    if max(gaps, default=0) > bound:
        problems.append(f"gap {max(gaps)} exceeds {bound}")
    return problems


CHECKS = {
    "axioms": check_axioms,
    "ray": check_ray,
    "components": check_components,
    "survey": check_survey,
    "swamp": check_swamp,
    "cofinal-path": check_cofinal_path,
    "export-dot": check_export_dot,
    "dfa-verify": check_dfa_verify,
    "dfa-qg": check_dfa_qg,
    "dfa-path": check_dfa_path,
}


def check(command: str, cfg: dict, code: int, report: dict | None,
          files: dict) -> list[str]:
    """Problems with one command's report; `files` maps side outputs and
    input automata by name to their contents."""
    if report is None:
        return [f"no report (exit code {code})"]
    if report.get("exit_code") != code:
        return [f"report says exit code {report.get('exit_code')}, process {code}"]
    try:
        return CHECKS[command](cfg, code, report.get("result", {}), files)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]
