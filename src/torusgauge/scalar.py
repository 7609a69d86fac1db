"""Two-tier scalars: exact rational combinations of integer powers of pi, or floats.

Tier E stores integer numerators keyed by pi exponent over one shared positive
denominator, in lowest terms: the value is sum(num[k] * pi**k) / den with no
zero numerator and gcd(den, *num.values()) == 1.  Its arithmetic is plain int
arithmetic with gcd reductions (Knuth, TAOCP vol. 2, sec. 4.5.1), so it never
loses precision and builds no Fraction.  ``pi`` presents the same value as a
map {pi exponent -> Fraction}.  The float shadow ``val`` is a function of the
value alone, computed on first read, so equal exact values have equal shadows
however they were built.  Tier F stores a float together with an absolute
tolerance that is propagated (conservatively) through arithmetic.  Mixing the
tiers degrades to tier F.  Powers of pi are linearly independent over the
rationals, so tier E zero- and membership-tests are decidable termwise.
cos2pi and sin2pi, where a rational phase becomes a value, look its int
residue mod 1 up in one Niven table keyed by int pairs.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import gcd

from .errors import SizeLimitError

DEFAULT_TOL = 1e-9
DROP_EPS = 1e-15

_TWO_PI = 2.0 * math.pi


def _reduced(num, den):
    """The exact Scalar num / den, brought to lowest terms; num holds no zeros."""
    if not num:
        return Scalar(num, 1, 0.0, 0.0)
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: n // g for k, n in num.items()}
            den //= g
    return Scalar(num, den, None, 0.0)


class Scalar:
    """An exact (rational * pi^m combination) or toleranced-float number."""

    __slots__ = ("num", "den", "_val", "tol")

    def __init__(self, num, den, val, tol):
        # num: dict[int, int] pi exponent -> numerator, no zero entries (tier E),
        #      or None (tier F)
        # den: the tier-E denominator, an int > 0 with gcd(den, *num.values()) == 1;
        #      1 on tier F
        # _val: the tier-F float; on tier E None until val first computes the shadow
        self.num = num
        self.den = den
        self._val = val
        self.tol = tol

    @property
    def val(self):
        v = self._val
        if v is None:
            # n / den is correctly rounded, so this equals float(Fraction(n, den))
            den = self.den
            try:
                v = self._val = sum(
                    (n / den * math.pi**k for k, n in sorted(self.num.items())), 0.0
                )
            except OverflowError:
                raise SizeLimitError("an exact number is too large for a float") from None
        return v

    @property
    def pi(self):
        """The exact value as {pi exponent: Fraction}, or None on tier F."""
        if self.num is None:
            return None
        den = self.den
        return {k: Fraction(n, den) for k, n in self.num.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(q, pi_pow=0):
        if isinstance(q, int):
            n, d = int(q), 1
        elif isinstance(q, Fraction):
            n, d = q.numerator, q.denominator
        else:
            raise TypeError(f"expected int or Fraction, got {type(q).__name__}")
        if n == 0:
            return Scalar({}, 1, 0.0, 0.0)
        return Scalar({pi_pow: n}, d, None, 0.0)

    @staticmethod
    def approx(v, tol=DEFAULT_TOL):
        return Scalar(None, 1, float(v), tol)

    @staticmethod
    def zero():
        return Scalar({}, 1, 0.0, 0.0)

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
        return self.num is not None

    def is_zero(self):
        """Structural zero: exact 0, or a float below the canonical drop threshold."""
        if self.num is not None:
            return not self.num
        return abs(self._val) < DROP_EPS

    def is_rational(self):
        return self.num is not None and all(k == 0 for k in self.num)

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("scalar is not a pure rational")
        return Fraction(self.num.get(0, 0), self.den)

    def equals(self, other, tol=0.0):
        d = self - Scalar.coerce(other)
        if d.num is not None:
            return not d.num
        return abs(d.val) <= max(d.tol, tol)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        a, b = self.num, other.num
        if a is None or b is None:
            return Scalar(None, 1, self.val + other.val, self.tol + other.tol)
        den, d2 = self.den, other.den
        if den == d2:
            num, s2 = dict(a), 1
        else:
            # bring both to the denominator lcm(den, d2)
            g = gcd(den, d2)
            s1, s2 = d2 // g, den // g
            num, den = {k: n * s1 for k, n in a.items()}, den * s1
        for k, n in b.items():
            r = num.get(k, 0) + n * s2
            if r:
                num[k] = r
            else:
                del num[k]
        return _reduced(num, den)

    def __neg__(self):
        if self.num is not None:
            return Scalar({k: -n for k, n in self.num.items()}, self.den, None, 0.0)
        return Scalar(None, 1, -self._val, self.tol)

    def __sub__(self, other):
        return self + (-Scalar.coerce(other))

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        a, b = self.num, other.num
        if a is None or b is None:
            sv, ov = self.val, other.val
            tol = abs(sv) * other.tol + abs(ov) * self.tol + self.tol * other.tol
            return Scalar(None, 1, sv * ov, tol)
        num = {}
        for k1, x in a.items():
            for k2, y in b.items():
                k = k1 + k2
                r = num.get(k, 0) + x * y
                if r:
                    num[k] = r
                else:
                    del num[k]
        return _reduced(num, self.den * other.den)

    def scaled(self, n, d, s=0):
        """self * n / d * pi**s for ints n, s and d > 0: the same value, and on
        tier F the same float and tolerance, as self * Scalar.exact(Fraction(n, d), s)."""
        if not n:
            return Scalar({}, 1, 0.0, 0.0)
        a = self.num
        if a is None:
            try:
                q = n / d * math.pi**s if s else n / d
            except OverflowError:
                raise SizeLimitError("an exact number is too large for a float") from None
            return Scalar(None, 1, self._val * q, abs(q) * self.tol)
        return _reduced({k + s: x * n for k, x in a.items()}, self.den * d)

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        a, b = self.num, other.num
        if a is not None and b is not None and len(b) == 1:
            # self / (y/e * pi^m) = self * e/y * pi^-m, the sign of y moved into e
            ((m, y),) = b.items()
            e = other.den
            if y < 0:
                y, e = -y, -e
            return _reduced({k - m: n * e for k, n in a.items()}, self.den * y)
        sv, ov = self.val, other.val
        tol = (self.tol + abs(sv / ov) * other.tol) / abs(ov)
        return Scalar(None, 1, sv / ov, tol)

    # -- torus phase helpers -------------------------------------------------

    def in_two_pi_Z(self):
        """Whether the value lies in 2*pi*Z (exactly on tier E, within DEFAULT_TOL on tier F)."""
        num = self.num
        if num is not None:
            if not num:
                return True
            if len(num) != 1 or 1 not in num:
                return False
            return self.den == 1 and num[1] % 2 == 0
        k = round(self.val / _TWO_PI)
        return abs(self.val - _TWO_PI * k) <= max(self.tol, DEFAULT_TOL)

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
        if self.num is None:
            return f"{self.val!r}(tol={self.tol:.2g})"
        if not self.num:
            return "0"
        den = self.den
        parts = []
        for m, n in sorted(self.num.items()):
            g = gcd(n, den)
            q = rational_str(n // g)
            if den != g:
                q += "/" + rational_str(den // g)
            if m == 0:
                parts.append(q)
            else:
                p = "pi" if m == 1 else f"pi^{m}"
                if q == "1":
                    parts.append(p)
                elif q == "-1":
                    parts.append(f"-{p}")
                else:
                    parts.append(f"{q}*{p}")
        out = parts[0]
        for p in parts[1:]:
            out += f" + {p}" if not p.startswith("-") else f" - {p[1:]}"
        return out


def rational_str(q):
    """str(q) for an int; SizeLimitError past the interpreter's digit limit."""
    try:
        return str(q)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise SizeLimitError(f"a number in the result exceeds {limit} digits") from None


# The exact values of cos(2*pi*t) at the rational t where the value is itself
# rational (I. Niven, Irrational Numbers, 1956), keyed by the int residue
# (n, q) of t = n/q mod 1 in lowest terms: denominators 1, 2, 3, 4 and 6,
# where 2 cos(2*pi*t) is an int.  sin(2*pi*t) is cos(2*pi*(1/4 - t)).
_NIVEN = {
    key: Scalar.exact(Fraction(twice, 2))
    for key, twice in {(0, 1): 2, (1, 2): -2, (1, 3): -1, (2, 3): -1,
                       (1, 4): 0, (3, 4): 0, (1, 6): 1, (5, 6): 1}.items()
}


# intrinsic tolerance of a numerically evaluated trig constant
_TRIG_EPS = 1e-14


def _residue(t):
    """(n, q) with t = n/q mod 1, 0 <= n < q, in lowest terms; t an int or a Fraction."""
    if not isinstance(t, (int, Fraction)):
        raise TypeError(f"expected int or Fraction, got {type(t).__name__}")
    q = t.denominator
    return t.numerator % q, q


def cos2pi(t):
    """cos(2*pi*t) for rational t, exact when the value is rational."""
    n, q = _residue(t)
    c = _NIVEN.get((n, q))
    if c is not None:
        return c
    # n / q is correctly rounded, so this is float(t % 1)
    return Scalar.approx(math.cos(_TWO_PI * (n / q)), _TRIG_EPS)


def sin2pi(t):
    """sin(2*pi*t) for rational t, exact when the value is rational."""
    n, q = _residue(t)
    # 1/4 - t = (q - 4n) / 4q mod 1, brought to lowest terms
    m, r = (q - 4 * n) % (4 * q), 4 * q
    g = gcd(m, r)
    c = _NIVEN.get((m // g, r // g))
    if c is not None:
        return c
    return Scalar.approx(math.sin(_TWO_PI * (n / q)), _TRIG_EPS)
