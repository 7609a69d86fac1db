"""Parser for the expression grammar used in configs and fixtures.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' exponent)*
    atom   := number | 'pi' | var | 'cos(' expr ')' | 'sin(' expr ')'
              | 'exp2pii(' expr ')' | '(' expr ')'
    var    := 'x' uint

Numbers are integers, rationals p/q, or decimal/scientific literals; decimal
literals are read exactly as rationals.  Exponents are unsigned except on
'pi', where a negative exponent is allowed (antiderivatives produce 1/(2*pi)
coefficients); an exponent above MAX_COUNT is a syntax error.  Arguments of
cos/sin/exp2pii must be affine with integer frequencies: 2*pi*(k.x + c) with
k in Z^d.  exp2pii is expanded through a complex intermediate, and only
there: a real value carries no imaginary part.  The overall expression must
be real-valued.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import (
    DimensionError,
    ExprSyntaxError,
    FrequencyError,
    NonRealExpressionError,
)
from .polytrig import MODE_COS, MODE_NONE, MODE_SIN, PolyTrig
from .scalar import Scalar

# Work bound on config counts: the largest `samples`, `equivalence_samples`
# or `range`, the largest number of operator pairs (sum of N**4 over
# `flux_list`) that `operators` checks, and the largest exponent after '^' in
# an expression.  A config over it is a config error.
MAX_COUNT = 10_000

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?)
  | (?P<var>x\d+)
  | (?P<name>pi|cos|sin|exp2pii)
  | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            word = re.match(r"[A-Za-z]+", text[pos:])
            if word:
                raise ExprSyntaxError(
                    f"unknown name {word.group()!r}", pos + word.end()
                )
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_RATIONAL_RE = re.compile(r"[-+]?(\d+)(?:\.(\d+))?(?:[eE]([-+]?\d+))?(?:/(\d+))?")


def read_rational(text):
    """The exact rational a literal denotes; ValueError if it is not one.

    A literal is an integer, p/q, or a decimal or scientific number, with an
    optional sign.  Its digit count plus its decimal exponent may not exceed
    sys.get_int_max_str_digits(): that is checked before the Fraction is
    built, since 10**e alone costs seconds for e in the millions, and a value
    past that limit could not be printed.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text[:40]!r}")
    whole, frac, exp, den = m.groups()
    if den is not None and (frac or exp):
        raise ValueError("rational literal must have integer parts")
    if den is not None and not int(den):
        raise ValueError(f"zero denominator in {text[:40]!r}")
    limit = sys.get_int_max_str_digits()
    size = len(whole) + len(frac or "") + len(den or "") + abs(int(exp or 0))
    if limit and size > limit:
        raise ValueError(f"literal {text[:40]!r} exceeds {limit} digits")
    return Fraction(text)


def _parse_number(text, pos):
    try:
        return read_rational(text)
    except ValueError as exc:
        raise ExprSyntaxError(str(exc), pos) from None


class _Complex:
    """Pair of real PolyTrigs standing for re + i*im; im is None for a real value.

    A real operand costs one real operation, so only exp2pii pays for complex
    arithmetic.
    """

    __slots__ = ("re", "im")

    def __init__(self, re_, im_=None):
        self.re = re_
        self.im = im_

    def is_real(self):
        return self.im is None or self.im.is_zero()

    def __add__(self, o):
        if o.im is None:
            return _Complex(self.re + o.re, self.im)
        if self.im is None:
            return _Complex(self.re + o.re, o.im)
        return _Complex(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        if o.im is None:
            return _Complex(self.re - o.re, self.im)
        if self.im is None:
            return _Complex(self.re - o.re, -o.im)
        return _Complex(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return _Complex(-self.re, None if self.im is None else -self.im)

    def __mul__(self, o):
        if o.im is None:
            return _Complex(
                self.re * o.re, None if self.im is None else self.im * o.re
            )
        if self.im is None:
            return _Complex(self.re * o.re, self.re * o.im)
        return _Complex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def __pow__(self, n):
        if n == 0:
            return _Complex(PolyTrig.const(self.re.dim, 1))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def freq_and_const(arg, d, two_pi_scaled, pos=0):
    """Split an affine argument into (k, c) with k integral.

    For cos/sin the argument reads 2*pi*(k.x) + c; for exp2pii it reads
    k.x + c directly.  Raises FrequencyError on any other shape; pos is the
    parser offset quoted in its message.
    """
    freq = [0] * d
    const = Scalar.zero()
    for (alpha, mode, _f, _p), c in arg.terms.items():
        if mode != MODE_NONE:
            raise FrequencyError(
                f"trig argument must be affine in the variables (offset {pos})"
            )
        nz = [i for i, e in enumerate(alpha) if e]
        if not nz:
            const = const + c
            continue
        if len(nz) > 1 or alpha[nz[0]] != 1:
            raise FrequencyError(
                f"trig argument must be affine in the variables (offset {pos})"
            )
        j = nz[0]
        pi = c.pi  # None on tier F
        if two_pi_scaled:
            ok = pi is not None and set(pi) == {1}
            k = pi[1] / 2 if ok else None
        else:
            ok = pi is not None and set(pi) <= {0}
            k = pi.get(0, Fraction(0)) if ok else None
        if not ok or k.denominator != 1:
            raise FrequencyError(f"frequency on x{j + 1} is not an integer")
        freq[j] = int(k)
    return tuple(freq), const


def _trig_from(d, mode, freq, const):
    """cos/sin(2*pi*(freq.x) + const) as a real PolyTrig."""
    phase = const / Scalar.exact(2, 1)
    if phase.is_rational():
        return PolyTrig.trig(d, mode, freq, phase.rational_value()).expand_phases()
    ang = float(const)
    c = Scalar.approx(math.cos(ang), const.tol)
    s = Scalar.approx(math.sin(ang), const.tol)
    if mode == MODE_COS:
        return PolyTrig.cos_freq(d, freq, c) - PolyTrig.sin_freq(d, freq, s)
    return PolyTrig.sin_freq(d, freq, c) + PolyTrig.cos_freq(d, freq, s)


class _Parser:
    def __init__(self, text, d):
        self.text = text
        self.d = d
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        v = self.expr()
        kind, _val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        if not v.is_real():
            raise NonRealExpressionError(
                "expression has an imaginary part; combine exp2pii conjugates"
            )
        return v.re.expand_phases()

    def expr(self):
        kind, val, _pos = self.peek()
        neg = False
        if kind == "op" and val == "-":
            self.next()
            neg = True
        v = self.term()
        if neg:
            v = -v
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                v = v + rhs if val == "+" else v - rhs
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                v = v * self.factor()
            else:
                return v

    def factor(self):
        v, is_pi = self.atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                kind2, val2, pos2 = self.next()
                negexp = False
                if kind2 == "op" and val2 == "-":
                    negexp = True
                    kind2, val2, pos2 = self.next()
                if kind2 != "num" or not val2.isdigit():
                    raise ExprSyntaxError("expected an integer exponent", pos2)
                n = int(val2)
                if n > MAX_COUNT:
                    raise ExprSyntaxError(
                        f"exponent {val2[:40]} exceeds {MAX_COUNT}", pos2
                    )
                if negexp:
                    if not is_pi:
                        raise ExprSyntaxError(
                            "negative exponents are only allowed on pi", pos
                        )
                    v = _Complex(
                        PolyTrig.const(self.d, Scalar.exact(1, -n))
                    )
                else:
                    v = v**n
                is_pi = False
            else:
                return v

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return _Complex(PolyTrig.const(self.d, _parse_number(val, pos))), False
        if kind == "var":
            idx = int(val[1:])
            if not 1 <= idx <= self.d:
                raise DimensionError(
                    f"variable {val} exceeds dimension {self.d}"
                )
            return _Complex(PolyTrig.var(self.d, idx)), False
        if kind == "name" and val == "pi":
            return _Complex(PolyTrig.const(self.d, Scalar.exact(1, 1))), True
        if kind == "name":
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            if not arg.is_real():
                raise NonRealExpressionError("trig argument must be real")
            if val in ("cos", "sin"):
                freq, const = freq_and_const(arg.re, self.d, True, pos)
                mode = MODE_COS if val == "cos" else MODE_SIN
                return _Complex(_trig_from(self.d, mode, freq, const)), False
            # exp2pii(u) = cos(2*pi*u) + i*sin(2*pi*u) with u = k.x + c
            freq, const = freq_and_const(arg.re, self.d, False, pos)
            two_pi_const = const * Scalar.exact(2, 1)
            re_ = _trig_from(self.d, MODE_COS, freq, two_pi_const)
            im_ = _trig_from(self.d, MODE_SIN, freq, two_pi_const)
            return _Complex(re_, im_), False
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v, False
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse_expr(text, d):
    """Parse an expression into a canonical real PolyTrig of dimension d."""
    if d < 1:
        raise DimensionError("dimension must be positive")
    return _Parser(text, d).parse()


def print_expr(f):
    """Canonical string form; parse_expr(print_expr(f), f.dim) round-trips."""
    return str(f)
