"""Exact algebra of polynomial-times-trigonometric functions on R^d.

A PolyTrig is a finite sum of terms

    c * x^alpha * {1, cos, sin}(2*pi*q.x)

with two-tier coefficients c (see scalar.Scalar), integer monomial exponents
alpha and integer frequency vectors q, stored in a dict keyed by
(alpha, mode, q).  Every PolyTrig is canonical: its keys hold only ints and a
trig term's first nonzero frequency is positive, so the basis functions are
linearly independent and zero tests are termwise.  The constructors accept
integer frequencies only (FrequencyError otherwise).

A trig factor cos or sin(2*pi*(q.x + p)) with a rational frequency or phase
lives only where it is made, in scaled keys (alpha, mode, F, P): the ints
F = D*q and P = D*p over one D, a multiple of 4, so key arithmetic builds and
hashes no Fraction.  Pullbacks, translations, the integration kernel and
PolyTrig.trig at a phase (the parser's trig atoms) make such factors, and
_reduce_scaled brings each to its reduced form.  _expand_into is the one
exit from scaled keys: it divides each frequency back to ints
(FrequencyError off the integer lattice) and expands each phase P/D into
coefficients with cos2pi and sin2pi, which read it as an int residue.

The ring is closed under +, *, partial derivatives, translation by rational
vectors, antidifferentiation in one variable and pullback along affine maps
with rational linear part whose pulled frequencies are integral.  All
values are immutable after construction and safe to share across threads.

Composition has one routine: _Acc.add(f, k, rows) puts k * (f o rows) into
canonical keys, rows being the _Rows of an affine map, and expands the
phases the map leaves once, at the end.  Translation (rows from
_Rows.shift), substitution, Form arithmetic and point values all run
through it: value_at(f, p) is f composed with the constant map onto the
point p.  shifted_sum(d, parts) adds k * f(x - v) for each part (k, f, v)
into one accumulator, so a signed sum of shifted functions, such as the
slack of a cocycle identity, builds no intermediate PolyTrig;
translate(f, v) is the one-part sum.

A U(1)-valued function exp(i*theta) is carried as its exponent theta, a
PolyTrig: products of phases are sums of exponents, and two phases agree when
their exponent slack is a constant in 2*pi*Z.  constant_mod_free extracts that
constant; reports.phase_item decides the verdict.
"""

from __future__ import annotations

import math as _math
from fractions import Fraction
from operator import mul

from .errors import DimensionError, FrequencyError
from .scalar import DEFAULT_TOL, Scalar, cos2pi, sin2pi
from .vectors import int_if_integral, scale_vecs, unscale

MODE_NONE = 0
MODE_COS = 1
MODE_SIN = 2

_HALF_SCALAR = Scalar.exact(Fraction(1, 2))


class _Acc:
    """Accumulator of canonical terms, keyed (alpha, mode, freq).

    put() canonicalises one term: a polynomial term's key is
    (alpha, MODE_NONE, (0,)*d), a trig term has its first nonzero int
    frequency positive, and a wave with no frequency is folded into a
    constant by _expand_into.  add() puts a canonical function composed with
    an affine map; done() makes the PolyTrig.  Ring ops whose output keys are
    canonical by construction (sums, scalings, products with a polynomial
    factor, derivatives) add coefficients with _merge directly.
    """

    __slots__ = ("d", "terms", "zero_freq")

    def __init__(self, d):
        self.d = d
        self.terms = {}
        self.zero_freq = (0,) * d

    def put(self, alpha, mode, freq, coeff):
        """Add coeff * x^alpha * {1, cos, sin}(2*pi*freq.x), freq an int
        vector; a zero coeff leaves the terms as they are (see _merge)."""
        if mode == MODE_NONE:
            _merge(self.terms, (alpha, MODE_NONE, self.zero_freq), coeff)
        elif any(freq):
            mode, freq, _, neg = _reduce_scaled(mode, freq, 0, 1)
            _merge(self.terms, (alpha, mode, freq), -coeff if neg else coeff)
        else:
            _expand_into(self, (((alpha, mode, freq, 0), coeff),), 1)

    def add(self, f, k=1, rows=None):
        """Put k * (f o rows) into this accumulator, for a rational k and the
        _Rows of an affine map from R^self.d to R^f.dim, or None for the
        identity.

        Each term's monomial is pulled back by rows.product and its trig
        factor by rows.frequency, to a scaled key over rows.pden reduced by
        _reduce_scaled.  A polynomial term is merged at once (its key is
        canonical), and so is a wave left at phase 0 or with no frequency,
        through _expand_into; the waves at a nonzero reduced phase are summed
        in scaled keys first and expanded once, at the end.
        """
        dim = self.d if rows is None else len(rows.trans)
        if f.dim != dim:
            raise DimensionError(f"dimension mismatch: {dim} vs {f.dim}")
        if not k:
            return
        kn, kd = k.numerator, k.denominator
        out = self.terms
        if rows is None:
            for key, c in f.terms.items():
                _merge(out, key, c if k == 1 else -c if k == -1 else c.scaled(kn, kd))
            return
        zeros, zero_freq, pden = rows.zeros, self.zero_freq, rows.pden
        phased = {}
        for (alpha, mode, freq), c in f.terms.items():
            if any(alpha):
                poly, den = rows.product(alpha)
                den *= kd
                terms = [(beta, c.scaled(n * kn, den)) for beta, n in poly.items()]
            else:
                terms = ((zeros, c if k == 1 else -c if k == -1 else c.scaled(kn, kd)),)
            if mode == MODE_NONE:
                for beta, cb in terms:
                    _merge(out, (beta, MODE_NONE, zero_freq), cb)
                continue
            F, P = rows.frequency(freq)
            if any(F):
                mode, F, P, neg = _reduce_scaled(mode, F, P, pden)
                if neg:
                    terms = [(beta, -cb) for beta, cb in terms]
                if P:
                    for beta, cb in terms:
                        _merge(phased, (beta, mode, F, P), cb)
                    continue
            _expand_into(self, [((beta, mode, F, P), cb) for beta, cb in terms], pden)
        if phased:
            _expand_into(self, phased.items(), pden)

    def done(self):
        return PolyTrig(self.d, self.terms)


def _merge(terms, key, coeff):
    """Add coeff at key of the terms {key: Scalar}; a zero coefficient or sum leaves
    no term, so a tier-F zero never turns an exact coefficient into a float."""
    if coeff.is_zero():
        return
    prev = terms.get(key)
    if prev is None:
        terms[key] = coeff
        return
    tot = prev + coeff
    if tot.is_zero():
        del terms[key]
    else:
        terms[key] = tot


def _reduce_scaled(mode, freq, phase, den):
    """The reduced (mode, freq, phase) of a trig factor with nonzero freq and
    the int phase phase / den, den a multiple of 4 (or 1 for a canonical key,
    whose phase is 0), and whether its coefficient changes sign: the first
    nonzero frequency is made positive and the phase brought into
    [0, den/4), mod den, then by den/2 (a sign) and den/4 (cos <-> sin)."""
    neg = False
    for f in freq:
        if f != 0:
            if f < 0:
                freq = tuple(-x for x in freq)
                phase = -phase
                neg = mode == MODE_SIN
            break
    phase %= den
    if 2 * phase >= den:
        phase -= den >> 1
        neg = not neg
    if 4 * phase >= den:
        phase -= den >> 2
        if mode == MODE_COS:
            mode = MODE_SIN
            neg = not neg
        else:
            mode = MODE_COS
    return mode, freq, phase, neg


class PolyTrig:
    """Immutable exact function R^d -> R in the polynomial-trig ring."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms):
        self.dim = dim
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(d):
        return PolyTrig(d, {})

    @staticmethod
    def const(d, c):
        acc = _Acc(d)
        acc.put((0,) * d, MODE_NONE, acc.zero_freq, Scalar.coerce(c))
        return acc.done()

    @staticmethod
    def var(d, axis):
        """The coordinate function x_axis (1-based axis)."""
        if not 1 <= axis <= d:
            raise DimensionError(f"axis {axis} out of range for dimension {d}")
        alpha = tuple(1 if i == axis - 1 else 0 for i in range(d))
        acc = _Acc(d)
        acc.put(alpha, MODE_NONE, acc.zero_freq, Scalar.exact(1))
        return acc.done()

    @staticmethod
    def monomial(d, alpha, c=1):
        acc = _Acc(d)
        acc.put(tuple(alpha), MODE_NONE, acc.zero_freq, Scalar.coerce(c))
        return acc.done()

    @staticmethod
    def trig(d, mode, freq, c=1, phase=0):
        """c * cos or sin(2*pi*(freq.x + phase)), FrequencyError unless freq is
        integral; a rational phase p/q != 0 is one scaled key over 4q."""
        if len(freq) != d:
            raise DimensionError("frequency vector has wrong length")
        freq = tuple(map(int_if_integral, freq))
        if Fraction in map(type, freq):
            raise FrequencyError(f"trig frequency {freq} is not an integer vector")
        acc, c, zeros = _Acc(d), Scalar.coerce(c), (0,) * d
        phase = int_if_integral(phase)
        if not phase:
            acc.put(zeros, mode, freq, c)
        else:
            den = 4 * phase.denominator
            F, P = tuple([den * f for f in freq]), 4 * phase.numerator
            if any(F):
                mode, F, P, neg = _reduce_scaled(mode, F, P, den)
                c = -c if neg else c
            _expand_into(acc, (((zeros, mode, F, P), c),), den)
        return acc.done()

    @staticmethod
    def cos_freq(d, freq, c=1):
        return PolyTrig.trig(d, MODE_COS, freq, c)

    @staticmethod
    def sin_freq(d, freq, c=1):
        return PolyTrig.trig(d, MODE_SIN, freq, c)

    # -- structure ---------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _axis(self, axis):
        """The 0-based index of the 1-based axis; DimensionError out of range."""
        if not 1 <= axis <= self.dim:
            raise DimensionError(f"axis {axis} out of range for dimension {self.dim}")
        return axis - 1

    def is_zero(self, tol=0.0):
        """Zero test; tier-F coefficients are compared against max(own tol, tol)."""
        for c in self.terms.values():
            if c.is_exact:
                return False
            if abs(c.val) > max(c.tol, tol):
                return False
        return True

    def equals(self, other, tol=0.0):
        return (self - other).is_zero(tol)

    def __eq__(self, other):
        if not isinstance(other, PolyTrig) or self.dim != other.dim:
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        for k, c in self.terms.items():
            o = other.terms[k]
            if c.is_exact != o.is_exact:
                return False
            if c.is_exact:
                # both in lowest terms, so equal values have equal num and den
                if c.num != o.num or c.den != o.den:
                    return False
            elif c.val != o.val:
                return False
        return True

    def constant_term(self):
        zeros = (0,) * self.dim
        return self.terms.get((zeros, MODE_NONE, zeros), Scalar.zero())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = PolyTrig.const(self.dim, other)
        self._check_dim(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _merge(terms, key, c)
        return PolyTrig(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyTrig(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = PolyTrig.const(self.dim, other)
        return self + (-other)

    def scale(self, c):
        c = Scalar.coerce(c)
        if c.is_zero():
            return PolyTrig.zero(self.dim)
        terms = {}
        for key, q in self.terms.items():
            q = q * c
            if not q.is_zero():
                terms[key] = q
        return PolyTrig(self.dim, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        self._check_dim(other)
        acc = _Acc(self.dim)
        terms = acc.terms
        for (a1, m1, q1), c1 in self.terms.items():
            for (a2, m2, q2), c2 in other.terms.items():
                alpha = tuple(x + y for x, y in zip(a1, a2))
                c = c1 * c2
                if m1 == MODE_NONE:
                    _merge(terms, (alpha, m2, q2), c)
                elif m2 == MODE_NONE:
                    _merge(terms, (alpha, m1, q1), c)
                else:
                    qd = tuple(x - y for x, y in zip(q1, q2))
                    qs = tuple(x + y for x, y in zip(q1, q2))
                    ch = c * _HALF_SCALAR
                    if m1 == MODE_COS and m2 == MODE_COS:
                        acc.put(alpha, MODE_COS, qd, ch)
                        acc.put(alpha, MODE_COS, qs, ch)
                    elif m1 == MODE_SIN and m2 == MODE_SIN:
                        acc.put(alpha, MODE_COS, qd, ch)
                        acc.put(alpha, MODE_COS, qs, -ch)
                    elif m1 == MODE_SIN and m2 == MODE_COS:
                        acc.put(alpha, MODE_SIN, qd, ch)
                        acc.put(alpha, MODE_SIN, qs, ch)
                    else:
                        acc.put(alpha, MODE_SIN, qd, -ch)
                        acc.put(alpha, MODE_SIN, qs, ch)
        return acc.done()

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def partial(self, axis):
        """d/dx_axis, axis 1-based."""
        a = self._axis(axis)
        terms = {}
        for (alpha, mode, freq), c in self.terms.items():
            if alpha[a] > 0:
                _merge(terms, (_with(alpha, a, alpha[a] - 1), mode, freq), c * alpha[a])
            if mode == MODE_COS and freq[a] != 0:
                _merge(terms, (alpha, MODE_SIN, freq), c * Scalar.exact(-2 * freq[a], 1))
            elif mode == MODE_SIN and freq[a] != 0:
                _merge(terms, (alpha, MODE_COS, freq), c * Scalar.exact(2 * freq[a], 1))
        return PolyTrig(self.dim, terms)

    def antiderivative(self, axis, coeffs=None, const=0):
        """Integral of self in x_axis from 0 to an upper limit.

        With coeffs None the limit is x_axis itself: the F with
        dF/dx_axis = self and F = 0 at x_axis = 0, one _axis_pass.
        Otherwise the limit is x_axis -> x_b or x_axis -> r in the shapes
        substitute takes, and the result is F substituted there.
        """
        a = self._axis(axis)
        terms = {(i, 0, *key, 0): (1, 1) for i, key in enumerate(self.terms)}
        F = _from_int_terms(self.dim, list(self.terms.values()), 1, _axis_pass(terms, 1, a, a))
        return F if coeffs is None else F.substitute(axis, coeffs, const)

    def substitute(self, axis, coeffs, const):
        """Replace x_axis by another variable or by a rational constant; keeps dim.

        Two shapes are accepted (axes 1-based):
        - coeffs == {b: 1} and const == 0, with b != axis: x_axis -> x_b;
        - coeffs == {} and const an int or Fraction r: x_axis -> r.
        Any other shape raises ValueError.  The result is the pullback along
        the substitution, whose frequencies stay integral.
        """
        a, d = self._axis(axis), self.dim
        lin = [[int(i == j) for j in range(d)] for i in range(d)]
        trans = [0] * d
        if coeffs:
            if len(coeffs) != 1 or const != 0:
                raise ValueError("substitute takes x_axis -> x_b or x_axis -> constant")
            ((b, k),) = coeffs.items()
            if k != 1 or b == axis or not 1 <= b <= d:
                raise ValueError(f"cannot substitute x{axis} -> {k}*x{b}")
            lin[a] = [int(j == b - 1) for j in range(d)]
        elif isinstance(const, (int, Fraction)):
            lin[a] = [0] * d
            trans[a] = const
        else:
            raise ValueError(f"substitution constant must be rational, got {const!r}")
        return self._pullback(lin, trans, d)

    # -- pullback ----------------------------------------------------------

    def _pullback(self, lin, trans, in_dim):
        """f(L y + t), canonical; lin has shape (self.dim, in_dim), lin and
        trans are rational.  FrequencyError if a pulled frequency L^T q is
        off the integer lattice."""
        acc = _Acc(in_dim)
        acc.add(self, 1, _Rows.rational(lin, trans, in_dim))
        return acc.done()

    def expand_phases(self):
        """self: every PolyTrig is canonical, with no phase left to expand."""
        return self

    # -- evaluation --------------------------------------------------------

    def eval_float(self, point):
        if len(point) != self.dim:
            raise DimensionError("evaluation point has wrong length")
        tot = 0.0
        for (alpha, mode, freq), c in self.terms.items():
            v = c.val
            for xi, e in zip(point, alpha):
                if e:
                    v *= float(xi) ** e
            if mode != MODE_NONE:
                arg = 2.0 * _math.pi * sum(f * float(xi) for f, xi in zip(freq, point))
                v *= _math.cos(arg) if mode == MODE_COS else _math.sin(arg)
            tot += v
        return tot

    # -- rendering ---------------------------------------------------------

    def _term_str(self, key):
        alpha, mode, freq = key
        parts = []
        for i, e in enumerate(alpha):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        if mode != MODE_NONE:
            arg = ""
            for i, f in enumerate(freq):
                if f == 0:
                    continue
                mag = abs(f)
                piece = f"x{i + 1}" if mag == 1 else f"{mag}*x{i + 1}"
                if not arg:
                    arg = piece if f > 0 else f"-{piece}"
                else:
                    arg += f" + {piece}" if f > 0 else f" - {piece}"
            name = "cos" if mode == MODE_COS else "sin"
            parts.append(f"{name}(2*pi*({arg}))")
        return parts

    @staticmethod
    def _coeff_str(c):
        """The coefficient's text and whether it is a parenthesised sum."""
        if not c.is_exact:
            return repr(c.val), False
        if len(c.num) > 1:
            return f"({c})", True
        return str(c), False

    def __str__(self):
        if not self.terms:
            return "0"
        out = []
        for key in sorted(self.terms):
            c = self.terms[key]
            cs, wrapped = self._coeff_str(c)
            factors = self._term_str(key)
            neg = cs.startswith("-") and not wrapped
            if neg:
                cs = cs[1:]
            if factors and cs == "1":
                body = "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            out.append(("- " if neg else "+ ") + body)
        s = " ".join(out)
        if s.startswith("+ "):
            s = s[2:]
        elif s.startswith("- "):
            s = "-" + s[2:]
        return s

    __repr__ = __str__


def _expand_into(acc, terms, den):
    """Merge the scaled terms ((alpha, mode, F, P), c) over den into the
    canonical acc, in their order: the one exit from scaled keys.  Each
    frequency is divided back to ints (FrequencyError off the integer
    lattice) and each phase p = P / den expanded away,
    cos(a + 2*pi*p) = cos(a) cos(2*pi*p) - sin(a) sin(2*pi*p), and likewise
    sin; a wave with no frequency is folded into the constant cos or
    sin(2*pi*p).  A zero coefficient is skipped before its phase is
    evaluated, and _merge leaves no term for a zero product."""
    out, zero_freq = acc.terms, acc.zero_freq
    for (alpha, mode, F, P), c in terms:
        if c.is_zero():
            continue
        if mode == MODE_NONE:
            _merge(out, (alpha, MODE_NONE, zero_freq), c)
            continue
        if not any(F):
            if P:
                p = Fraction(P, den)
                c = c * (cos2pi(p) if mode == MODE_COS else sin2pi(p))
            elif mode == MODE_SIN:
                continue
            _merge(out, (alpha, MODE_NONE, zero_freq), c)
            continue
        if any(f % den for f in F):
            raise FrequencyError(f"trig frequency {unscale(F, den)} is not an integer vector")
        freq = tuple([f // den for f in F])
        if not P:
            _merge(out, (alpha, mode, freq), c)
            continue
        p = Fraction(P, den)
        cd, sd = cos2pi(p), sin2pi(p)
        if mode == MODE_COS:
            _merge(out, (alpha, MODE_COS, freq), c * cd)
            _merge(out, (alpha, MODE_SIN, freq), -(c * sd))
        else:
            _merge(out, (alpha, MODE_SIN, freq), c * cd)
            _merge(out, (alpha, MODE_COS, freq), c * sd)


def _with(t, i, v):
    """The tuple t with entry i set to v."""
    t = list(t)
    t[i] = v
    return tuple(t)


def _moved(t, a, b):
    """The tuple t with entry a moved onto entry b, or dropped for b None."""
    t = list(t)
    v, t[a] = t[a], 0
    if b is not None:
        t[b] += v
    return tuple(t)


def _axis_pass(terms, den, a, b):
    """The integral in x_a (0-based) from 0 to a limit of int terms, as new
    int terms: the limit is x_b, so b == a gives the antiderivative, or 1
    for b None.  An int term (i, s, alpha, mode, F, P): (n, m), m > 0, is
    n / m * pi**s times the caller's i-th coefficient, at a key scaled over
    den (see _reduce_scaled; den 1 and P 0 for a canonical key).  A term with no trig
    dependence on x_a integrates by its power, any other by parts, less the
    last step's value at x_a = 0; each step divides by w = 2*pi*F_a/den: a
    multiply by den / (2*F_a), F_a's sign moved into the numerator, and s - 1.
    At the limit x_a's exponent and frequency move onto x_b, or x_a^e becomes
    1 and P takes F_a.  A wave left with no frequency has phase 0 here.
    """
    out = {}

    def put(i, s, alpha, mode, freq, phase, n, m):
        if mode != MODE_NONE:
            if any(freq):
                mode, freq, phase, neg = _reduce_scaled(mode, freq, phase, den)
                n = -n if neg else n
            elif mode == MODE_SIN:
                return
            else:
                mode = MODE_NONE
        _merge_pair(out, (i, s, alpha, mode, freq, phase), n, m)

    def at(i, s, alpha, mode, freq, phase, n, m):
        if b is None:
            phase += freq[a]
        put(i, s, _moved(alpha, a, b), mode, _moved(freq, a, b), phase, n, m)

    for (i, s, alpha, mode, freq, phase), (n, m) in terms.items():
        f = freq[a]
        if not f:
            e = alpha[a] + 1
            at(i, s, _with(alpha, a, e), mode, freq, phase, n, m * e)
            continue
        wn, wd = (den, 2 * f) if f > 0 else (-den, -2 * f)
        e = alpha[a]
        while True:
            # this step's term is +-k / w, and the next k is -term * e
            s, n, m = s - 1, n * wn, m * wd
            if mode == MODE_COS:
                mode = MODE_SIN
            else:
                mode, n = MODE_COS, -n
            al = _with(alpha, a, e)
            at(i, s, al, mode, freq, phase, n, m)
            if not e:
                put(i, s, al, mode, _with(freq, a, 0), phase, -n, m)
                break
            n, e = -n * e, e - 1
    return out


def _merge_pair(terms, key, n, m):
    """Add n / m, m > 0, at key of the int terms {key: (n, m)}; a sum is
    brought to lowest terms, and a zero one leaves no term."""
    prev = terms.get(key)
    if prev is not None:
        pn, pm = prev
        n, m = pn * m + n * pm, pm * m
        if not n:
            del terms[key]
            return
        g = _math.gcd(n, m)
        n, m = n // g, m // g
    if n:
        terms[key] = (n, m)


def _from_int_terms(d, coeffs, den, *int_terms):
    """The PolyTrig on R^d of int terms over den (see _axis_pass): one Scalar
    per scaled key, the sum of coeffs[i] * n / m * pi**s over the int terms
    (i, s, alpha, mode, F, P): (n, m) at (alpha, mode, F, P) cut to d axes,
    in the order of the terms, then expanded by _expand_into, unless no wave
    is among them: then each key maps one to one onto its canonical key."""
    scaled = {}
    waves = MODE_NONE
    for terms in int_terms:
        for (i, s, alpha, mode, F, P), (n, m) in terms.items():
            waves |= mode
            _merge(scaled, (alpha[:d], mode, F[:d], P), coeffs[i].scaled(n, m, s))
    if not waves:
        zero_freq = (0,) * d
        return PolyTrig(d, {(key[0], MODE_NONE, zero_freq): c for key, c in scaled.items()})
    acc = _Acc(d)
    _expand_into(acc, scaled.items(), den)
    return acc.done()


class _Rows:
    """The rows x_i = (sum_j lin[i][j] y_j + trans[i]) / den of a rational affine map.

    lin and trans hold ints over the one positive int den.  Row i is an int
    polynomial in y (a dict exponent tuple -> int) over its own denominator
    D_i, den in lowest terms against the row, so its e-th power is an int
    polynomial over D_i**e.  Powers are built once each, by repeated
    multiplication with the row; a translation's row involves one variable,
    so its powers are binomial expansions instead, linear in the degree.
    The products prod_i row_i**alpha_i and the pulled frequencies, scaled
    over pden = 4 den, are kept per monomial and per frequency: one _Rows
    serves every term of every function pulled back along the same map.
    lin None stands for den times the identity plus the int columns cols, on
    R^(len(trans) + len(cols)): the rows of a kernel cell, whose columns are
    its edges, or of a translation, with none.
    """

    __slots__ = ("lin", "trans", "den", "pden", "in_dim", "zeros", "cols", "_powers", "_products", "_freqs")

    def __init__(self, lin, trans, in_dim, den, cols=()):
        if lin is not None and len(trans) != len(lin):
            raise DimensionError("translation length does not match linear part")
        self.lin = lin
        self.trans = trans
        self.den = den
        self.pden = 4 * den
        self.in_dim = in_dim
        self.zeros = (0,) * in_dim
        self.cols = cols
        self._powers = {}
        self._products = {}
        self._freqs = {}

    @staticmethod
    def rational(lin, trans, in_dim):
        """The rows of y -> lin y + trans for lin and trans of ints and Fractions."""
        den, scaled = scale_vecs([*lin, trans])
        return _Rows(scaled[:-1], scaled[-1], in_dim, den)

    @staticmethod
    def shift(d, v):
        """The rows of x -> x - v on R^d for a rational vector v, or None (the
        identity) when v is None or zero."""
        if v is None:
            return None
        if len(v) != d:
            raise DimensionError(f"shift of length {len(v)} for a function on R^{d}")
        t = [-_rational(x) for x in v]
        if not any(t):
            return None
        den, (t,) = scale_vecs([t])
        return _Rows(None, t, d, den)

    def _row(self, i):
        """Row i as (int polynomial, denominator)."""
        t, den, zeros = self.trans[i], self.den, self.zeros
        if self.lin is None:
            row = [(i, den), *((j, e[i]) for j, e in enumerate(self.cols, len(self.trans)))]
        else:
            row = list(enumerate(self.lin[i]))
        g = _math.gcd(den, t, *(v for _, v in row))
        poly = {zeros[:j] + (1,) + zeros[j + 1 :]: v // g for j, v in row if v}
        if t:
            poly[zeros] = t // g
        return poly, den // g

    def _power(self, i, e):
        powers = self._powers.get(i)
        if powers is None:
            powers = self._powers[i] = [({self.zeros: 1}, 1), self._row(i)]
        row, den = powers[1]
        while len(powers) <= e:
            p, d = powers[-1]
            powers.append((_poly_mul(p, row), d * den))
        return powers[e]

    def product(self, alpha):
        """prod_i row_i**alpha_i as (int polynomial in y, positive denominator)."""
        out = self._products.get(alpha)
        if out is None and self.lin is None and not self.cols:
            out = self._products[alpha] = self._binomial_product(alpha)
        elif out is None:
            poly, den = None, 1
            for i, e in enumerate(alpha):
                if e:
                    p, d = self._power(i, e)
                    poly = p if poly is None else _poly_mul(poly, p)
                    den *= d
            out = self._products[alpha] = ({self.zeros: 1} if poly is None else poly, den)
        return out

    def _binomial_product(self, alpha):
        """product for the rows of a translation, row i = (A y_i + B) / A in
        lowest terms: each power expands by the binomial theorem, and the
        rows, one per axis, multiply as a tensor product.  Keys come in
        descending power per axis, axes outer to inner, as repeated
        multiplication leaves them."""
        terms, den = [(self.zeros, 1)], 1
        for i, e in enumerate(alpha):
            if not e:
                continue
            t = self.trans[i]
            g = _math.gcd(self.den, t)
            A, B = self.den // g, t // g
            # C(e, k) A^k B^(e-k) from k = e down, each from the one before
            c = A**e
            den *= c
            powers = [(e, c)]
            if B:
                for k in range(e, 0, -1):
                    c = c * k * B // ((e - k + 1) * A)
                    powers.append((k - 1, c))
            terms = [(key[:i] + (k,) + key[i + 1 :], x * y) for key, x in terms for k, y in powers]
        return dict(terms), den

    def frequency(self, freq):
        """The wave q.(L y + t) pulled from the int frequency q, as scaled ints
        (F, P) over pden: F = 4 L^T q (for lin None pden q, then 4 q.c per
        column c) and P = 4 q.t."""
        got = self._freqs.get(freq)
        if got is None:
            lin = self.lin
            if lin is None:
                F = [self.pden * f for f in freq] + [4 * sum(map(mul, freq, c)) for c in self.cols]
            else:
                F = [4 * sum(f * row[j] for f, row in zip(freq, lin) if f) for j in range(self.in_dim)]
            P = 4 * sum(f * t for f, t in zip(freq, self.trans) if f)
            got = self._freqs[freq] = (tuple(F), P)
        return got


def _poly_mul(p, q):
    """Product of two int polynomials {exponent tuple: int}, zero terms dropped."""
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple([i + j for i, j in zip(a, b)])
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _rational(t):
    if isinstance(t, Scalar):
        if not t.is_rational():
            raise ValueError(f"translation must be rational, got {t}")
        return int_if_integral(t.rational_value())
    if isinstance(t, (int, Fraction)):
        return int_if_integral(t)
    raise ValueError(f"translation must be rational, got {t!r}")


def value_at(f, point):
    """The Scalar f(point) at a rational point: f composed with the constant
    map R^0 -> R^d onto the point, whose only term is the constant one."""
    return f._pullback([()] * f.dim, point, 0).constant_term()


def shifted_sum(d, parts):
    """The sum of k * f(x - shift) over the parts (k, f, shift), built in one
    accumulator: k an int, f a PolyTrig on R^d, shift a rational vector or
    None for no shift (see _Acc.add and _Rows.shift)."""
    acc = _Acc(d)
    for k, f, shift in parts:
        acc.add(f, k, _Rows.shift(d, shift))
    return acc.done()


def translate(f, v):
    """The shifted function x -> f(x - v), the one-part shifted_sum; frequencies are unchanged."""
    return shifted_sum(f.dim, ((1, f, v),))


def constant_mod_free(f):
    """The constant value of f, or None if f is nonconstant beyond DEFAULT_TOL."""
    const = Scalar.zero()
    for (alpha, mode, _freq), c in f.terms.items():
        if mode == MODE_NONE and all(a == 0 for a in alpha):
            const = const + c
            continue
        if c.is_exact or abs(c.val) > max(c.tol, DEFAULT_TOL):
            return None
    return const
