"""Small helpers for rational vectors and matrices."""

from __future__ import annotations

from fractions import Fraction


def as_vec(v):
    return tuple(x if x.__class__ is Fraction else Fraction(x) for x in v)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vzero(d):
    return (Fraction(0),) * d


def basis_vec(d, axis):
    """Standard basis vector e_axis (1-based)."""
    return tuple(Fraction(1 if i == axis - 1 else 0) for i in range(d))


def det(rows):
    """Exact determinant of a small square Fraction matrix."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j] != 0:
            minor = [
                [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
            ]
            total += sign * rows[0][j] * det(minor)
        sign = -sign
    return total
