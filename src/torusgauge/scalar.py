"""Two-tier scalars: exact rational combinations of integer powers of pi, or floats.

Tier E stores a finite map {pi exponent -> Fraction}; arithmetic on this tier
never loses precision.  Its float shadow ``val`` is a function of that map
alone, computed on first read, so equal exact values have equal shadows however
they were built.  Tier F stores a float together with an absolute tolerance
that is propagated (conservatively) through arithmetic.  Mixing the tiers
degrades to tier F.  Powers of pi are linearly independent over the rationals,
so tier E zero- and membership-tests are decidable termwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

DEFAULT_TOL = 1e-9
DROP_EPS = 1e-15

_TWO_PI = 2.0 * math.pi


def _shadow(pi):
    """The float shadow of an exact value, summed in increasing powers of pi."""
    return sum((float(q) * math.pi**k for k, q in sorted(pi.items())), 0.0)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Scalar:
    """An exact (rational * pi^m combination) or toleranced-float number."""

    __slots__ = ("pi", "_val", "tol")

    def __init__(self, pi, val, tol):
        # pi: dict[int, Fraction] (tier E, canonical: no zero entries) or None (tier F)
        # _val: the tier-F float; on tier E None until val first computes _shadow(pi)
        self.pi = pi
        self._val = val
        self.tol = tol

    @property
    def val(self):
        v = self._val
        if v is None:
            v = self._val = _shadow(self.pi)
        return v

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(q, pi_pow=0):
        q = _as_fraction(q)
        if q == 0:
            return Scalar({}, 0.0, 0.0)
        return Scalar({pi_pow: q}, None, 0.0)

    @staticmethod
    def approx(v, tol=DEFAULT_TOL):
        return Scalar(None, float(v), tol)

    @staticmethod
    def zero():
        return Scalar({}, 0.0, 0.0)

    @staticmethod
    def one():
        return Scalar.exact(1)

    @staticmethod
    def coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.exact(x)
        if isinstance(x, float):
            return Scalar.approx(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as Scalar")

    # -- predicates --------------------------------------------------------

    @property
    def is_exact(self):
        return self.pi is not None

    def is_zero(self):
        """Structural zero: exact 0, or a float below the canonical drop threshold."""
        if self.is_exact:
            return not self.pi
        return abs(self.val) < DROP_EPS

    def is_rational(self):
        return self.is_exact and all(k == 0 for k in self.pi)

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("scalar is not a pure rational")
        return self.pi.get(0, Fraction(0))

    def equals(self, other, tol=0.0):
        d = self - Scalar.coerce(other)
        if d.is_exact:
            return not d.pi
        return abs(d.val) <= max(d.tol, tol)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = Scalar.coerce(other)
        if self.is_exact and other.is_exact:
            pi = dict(self.pi)
            for k, q in other.pi.items():
                r = pi.get(k, Fraction(0)) + q
                if r == 0:
                    pi.pop(k, None)
                else:
                    pi[k] = r
            return Scalar(pi, None, 0.0)
        return Scalar(None, self.val + other.val, self.tol + other.tol)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        if self.is_exact:
            return Scalar({k: -q for k, q in self.pi.items()}, None, 0.0)
        return Scalar(None, -self.val, self.tol)

    def __sub__(self, other):
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other):
        other = Scalar.coerce(other)
        if self.is_exact and other.is_exact:
            pi = {}
            for k1, q1 in self.pi.items():
                for k2, q2 in other.pi.items():
                    k = k1 + k2
                    r = pi.get(k, Fraction(0)) + q1 * q2
                    if r == 0:
                        pi.pop(k, None)
                    else:
                        pi[k] = r
            return Scalar(pi, None, 0.0)
        tol = abs(self.val) * other.tol + abs(other.val) * self.tol + self.tol * other.tol
        return Scalar(None, self.val * other.val, tol)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.is_exact and other.is_exact and len(other.pi) == 1:
            ((m, q),) = other.pi.items()
            pi = {k - m: r / q for k, r in self.pi.items()}
            return Scalar(pi, None, 0.0)
        tol = (self.tol + abs(self.val / other.val) * other.tol) / abs(other.val)
        return Scalar(None, self.val / other.val, tol)

    def __float__(self):
        return self.val

    # -- torus phase helpers -------------------------------------------------

    def in_two_pi_Z(self, tol=DEFAULT_TOL):
        """Whether the value lies in 2*pi*Z (exactly on tier E, within tol on tier F)."""
        if self.is_exact:
            if not self.pi:
                return True
            if set(self.pi) != {1}:
                return False
            q = self.pi[1]
            return q.denominator == 1 and q.numerator % 2 == 0
        k = round(self.val / _TWO_PI)
        return abs(self.val - _TWO_PI * k) <= max(self.tol, tol)

    def mod_two_pi(self):
        """Representative of the value mod 2*pi in [0, 2*pi); exactness is preserved."""
        n = math.floor(self.val / _TWO_PI)
        shifted = self - Scalar.exact(2 * n, 1)
        # float-boundary guard
        while shifted.val >= _TWO_PI:
            shifted = shifted - Scalar.exact(2, 1)
        while shifted.val < 0.0:
            shifted = shifted + Scalar.exact(2, 1)
        return shifted

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if not self.is_exact:
            return f"{self.val!r}(tol={self.tol:.2g})"
        if not self.pi:
            return "0"
        parts = []
        for m in sorted(self.pi):
            q = self.pi[m]
            if m == 0:
                parts.append(str(q))
            else:
                p = "pi" if m == 1 else f"pi^{m}"
                if q == 1:
                    parts.append(p)
                elif q == -1:
                    parts.append(f"-{p}")
                else:
                    parts.append(f"{q}*{p}")
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out


# Exact values of cos(2*pi*t) and sin(2*pi*t) at the rational arguments where
# the value is itself rational (Niven): denominators 1, 2, 3, 4, 6 for cos and
# 1, 2, 4, 12 for sin, normalized to t in [0, 1).

_COS_TABLE = {
    Fraction(0): Fraction(1),
    Fraction(1, 2): Fraction(-1),
    Fraction(1, 4): Fraction(0),
    Fraction(3, 4): Fraction(0),
    Fraction(1, 3): Fraction(-1, 2),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(5, 6): Fraction(1, 2),
}


# intrinsic tolerance of a numerically evaluated trig constant
_TRIG_EPS = 1e-14


def cos2pi(t):
    """cos(2*pi*t) for rational t, exact when the value is rational."""
    t = _as_fraction(t) % 1
    q = _COS_TABLE.get(t)
    if q is not None:
        return Scalar.exact(q)
    return Scalar.approx(math.cos(_TWO_PI * float(t)), _TRIG_EPS)


def sin2pi(t):
    """sin(2*pi*t) for rational t, exact when the value is rational."""
    t = _as_fraction(t) % 1
    q = _COS_TABLE.get((Fraction(1, 4) - t) % 1)
    if q is not None:
        return Scalar.exact(q)
    return Scalar.approx(math.sin(_TWO_PI * float(t)), _TRIG_EPS)
