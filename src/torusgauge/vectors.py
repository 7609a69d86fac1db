"""Small helpers for rational vectors and matrices.

A rational entry is an int when integral and a Fraction otherwise.  Since
n == Fraction(n), hash(n) == hash(Fraction(n)) and both print alike, the two
forms are interchangeable as values, keys and labels; ints are just faster.
"""

from __future__ import annotations

from fractions import Fraction


def int_if_integral(q):
    """The rational q as an int when integral, else as a Fraction."""
    if q.__class__ is not int:
        q = q if q.__class__ is Fraction else Fraction(q)
        if q.denominator == 1:
            return q.numerator
    return q


def as_vec(v):
    return tuple(map(int_if_integral, v))


def vadd(a, b):
    return tuple(int_if_integral(x + y) for x, y in zip(a, b))


def vsub(a, b):
    return tuple(int_if_integral(x - y) for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vzero(d):
    return (0,) * d


def basis_vec(d, axis):
    """Standard basis vector e_axis (1-based)."""
    return tuple(int(i == axis - 1) for i in range(d))


def det(rows):
    """Exact determinant of a small square rational matrix."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            minor = [
                [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
            ]
            total += sign * rows[0][j] * det(minor)
        sign = -sign
    return total
