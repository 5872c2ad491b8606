"""Exact sign arithmetic for numbers of the form p + q*sqrt(2), p, q integers.

The sign is decided purely by integer comparisons of p^2 against 2 q^2, so
hyperplane evaluations never touch floating point.
"""

from __future__ import annotations


def sqrt2_sign(p: int, q: int) -> int:
    """Sign of p + q*sqrt(2) as -1, 0 or +1."""
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    # opposite signs: compare |p| against |q|*sqrt(2) by squaring;
    # p^2 == 2 q^2 is impossible for nonzero integers (sqrt(2) irrational)
    if p > 0:  # q < 0
        return 1 if p * p > 2 * q * q else -1
    return 1 if 2 * q * q > p * p else -1


def as_quadratic(value) -> tuple[int, int]:
    """The (p, q) pair of an int or a pair of ints; never a float or a bool."""
    if type(value) is int:
        return value, 0
    if (isinstance(value, (tuple, list)) and len(value) == 2
            and all(type(c) is int for c in value)):
        return tuple(value)
    raise TypeError(f"cannot interpret {value!r} as p + q*sqrt(2)")
