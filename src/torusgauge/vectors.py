"""Small helpers for rational vectors and matrices.

A rational entry is an int when integral and a Fraction otherwise.  Since
n == Fraction(n), hash(n) == hash(Fraction(n)) and both print alike, the two
forms are interchangeable as values, keys and labels; ints are just faster.

Geometry that is built once and read many times (simplices, PL paths) keeps
its points integer-scaled instead: int numerator tuples over one positive
denominator (scale_vecs), so differences, sums and determinants of its
points run in int arithmetic; unscale gives back the rational vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def int_if_integral(q):
    """The rational q as an int when integral, else as a Fraction."""
    if q.__class__ is not int:
        q = q if q.__class__ is Fraction else Fraction(q)
        if q.denominator == 1:
            return q.numerator
    return q


def as_vec(v):
    return tuple(map(int_if_integral, v))


def scale_vecs(vecs):
    """(den, numerators): the rational vectors as int tuples over their least
    common positive denominator."""
    rows = [tuple(map(int_if_integral, v)) for v in vecs]
    den = lcm(*(q.denominator for row in rows for q in row if q.__class__ is not int))
    if den == 1:
        return 1, rows
    return den, [
        tuple(q * den if q.__class__ is int else q.numerator * (den // q.denominator) for q in row)
        for row in rows
    ]


def unscale(v, den):
    """The rational vector v / den of int numerators v, entries ints where integral."""
    if den == 1:
        return v
    return tuple(n // den if not n % den else Fraction(n, den) for n in v)


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
    if n == 3:  # the rule of Sarrus
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * e * i + b * f * g + c * d * h - c * e * g - a * f * h - b * d * i
    # cofactor expansion along the first row
    return sum(
        (-1) ** j * x * det([[r for k, r in enumerate(row) if k != j] for row in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )
