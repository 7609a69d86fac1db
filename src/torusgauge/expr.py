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
coefficients); an exponent above MAX_COUNT is a syntax error, and so are a
term whose degree in a variable exceeds MAX_COUNT however it got there
(x1^100^100, (x1^100)^100, x1^6000*x1^6000) and a power of a number past the
digit limit (3^10000^300).  Arguments of cos/sin/exp2pii must be affine with
integer frequencies and a rational phase: 2*pi*(k.x + c) with k in Z^d and c
rational (for exp2pii, k.x + c), else FrequencyError.  exp2pii is expanded
through a complex intermediate, and only there: a real value carries no
imaginary part.  The overall expression must be real-valued.

The text is tokenized whole, then read in one pass (_Reader); the value is
the PolyTrig that evaluating the grammar tree with PolyTrig ring ops, left to
right, gives, down to the dict order of its terms.
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
from .polytrig import MODE_COS, MODE_NONE, MODE_SIN, PolyTrig, _Acc
from .scalar import Scalar

# Work bound on config counts: the largest `samples`, `equivalence_samples`
# or `range`, the largest number of operator pairs (sum of N**4 over
# `flux_list`) that `operators` checks, and the largest exponent after '^' and
# degree in a variable of a term in an expression.  A config over it is a
# config error.
MAX_COUNT = 10_000
_LOG10_2 = math.log10(2)

# One token per match, after optional whitespace: a number, a variable, a
# name or an operator, or else any other non-space character, which is an
# error.  Trailing whitespace matches nothing.
_TOKEN_RE = re.compile(
    r"""
    (\s*)
    (?: (\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?)
      | (x\d+)
      | (pi|cos|sin|exp2pii|[-+*^()])
      | (\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(text):
    """(kind, text, offset) per token, then ("end", "", len(text)).

    kind is "num" or "var", or the text itself for a name or an operator.  The
    whole text is scanned before any of it is read, so a character no token
    starts with is reported first, wherever it is.
    """
    tokens = []
    pos = 0
    for ws, num, var, sym, bad in _TOKEN_RE.findall(text):
        pos += len(ws)
        if num:
            tokens.append(("num", num, pos))
            pos += len(num)
        elif var:
            tokens.append(("var", var, pos))
            pos += len(var)
        elif sym:
            tokens.append((sym, sym, pos))
            pos += len(sym)
        else:
            word = re.match(r"[A-Za-z]+", text[pos:])
            if word:
                raise ExprSyntaxError(f"unknown name {word.group()!r}", pos + word.end())
            raise ExprSyntaxError(f"unexpected character {bad!r}", pos)
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
    _check_digits(text, len(whole) + len(frac or "") + len(den or "") + abs(int(exp or 0)))
    return Fraction(text)


def _check_digits(text, size, pos=None):
    """Refuse a number of size digits past the limit: ValueError, or ExprSyntaxError at pos."""
    limit = sys.get_int_max_str_digits()
    if limit and size > limit:
        msg = f"literal {text[:40]!r} exceeds {limit} digits"
        raise ValueError(msg) if pos is None else ExprSyntaxError(msg, pos)


def _number(text, pos):
    """A number token's value: an int for a literal of digits only, else read_rational's."""
    try:
        if text.isdigit():
            _check_digits(text, len(text))
            return int(text)
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

    def scaled(self, c, alpha):
        """c * x^alpha * self for an exact c."""
        return _Complex(
            _scaled(self.re, c, alpha), None if self.im is None else _scaled(self.im, c, alpha)
        )

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


def _freq_and_const(arg, d, two_pi_scaled, pos):
    """Split an affine argument into (k, c) with k integral.

    For cos/sin the argument reads 2*pi*(k.x) + c; for exp2pii it reads
    k.x + c directly.  Raises FrequencyError on any other shape; pos is the
    parser offset quoted in its message.
    """
    freq = [0] * d
    const = Scalar.zero()
    for (alpha, mode, _freq), c in arg.terms.items():
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
        # c is 2*pi*k (or k) with k an integer; lowest terms make that den == 1
        num = c.num  # None on tier F
        m = 1 if two_pi_scaled else 0
        if num is None or len(num) != 1 or m not in num or c.den != 1 or num[m] % (m + 1):
            raise FrequencyError(f"frequency on x{j + 1} is not an integer")
        freq[j] = num[m] // (m + 1)
    return tuple(freq), const


_WAVES = {MODE_COS: PolyTrig.cos_freq(1, (1,)), MODE_SIN: PolyTrig.sin_freq(1, (1,))}


def _trig_from(d, mode, freq, const, pos):
    """cos/sin(2*pi*(freq.x) + const) as a real PolyTrig: the wave
    cos/sin(2*pi*u) pulled back along u = freq.x + const / (2*pi).
    const must be a rational multiple of pi; FrequencyError otherwise,
    quoting the parser offset pos.
    """
    num = const.num
    if num is None or not set(num) <= {1}:
        raise FrequencyError(f"trig phase must be a rational multiple of pi (offset {pos})")
    return _WAVES[mode]._pullback([freq], [Fraction(num.get(1, 0), 2 * const.den)], d)


def _scaled(f, c, alpha):
    """c * x^alpha * f, terms in f's order: what PolyTrig.__mul__ gives for the
    one-term factor c * x^alpha, whose monomial shifts the keys of f apart."""
    terms = {}
    for (a, mode, freq), v in f.terms.items():
        v = c * v
        if not v.is_zero():
            terms[(tuple([i + j for i, j in zip(a, alpha)]), mode, freq)] = v
    return PolyTrig(f.dim, terms)


def _degrees(f):
    """The largest exponent of each variable over the terms of a _Complex."""
    out = [0] * f.re.dim
    for part in (f.re, f.im):
        if part is not None:
            for alpha, _mode, _freq in part.terms:
                for i, e in enumerate(alpha):
                    if e > out[i]:
                        out[i] = e
    return out


def _check_power_digits(f, n, pos):
    """Refuse f**n if a coefficient c**n of f would pass the digit limit, by
    the bound that a literal's power takes: c = p/q has at least
    (bit_length - 1) * n * log10(2) digits in p**n or q**n."""
    for part in (f.re, f.im):
        if part is None:
            continue
        for c in part.terms.values():
            if c.is_exact:
                bits = max(c.den.bit_length(), *(abs(x).bit_length() for x in c.num.values()))
                _check_digits(f"(...)^{n}", (bits - 1) * n * _LOG10_2, pos)


def _check_degrees(degrees, pos):
    for i, e in enumerate(degrees):
        if e > MAX_COUNT:
            raise ExprSyntaxError(f"degree {e} in x{i + 1} exceeds {MAX_COUNT}", pos)


class _Reader:
    """One pass over the tokens of an expression.

    The value of an expression is the same PolyTrig, with the same terms in
    the same order, as evaluating its grammar tree with PolyTrig ring ops
    left to right.  To get there with less work, a term folds its plain
    factors (numbers, pi and variables, with their powers) into one exact
    coefficient and one monomial; only a parenthesised expression or a
    trig atom is a PolyTrig, multiplied in with PolyTrig.__mul__ when the
    term already holds one.  A plain factor after such a factor shifts its
    terms (_scaled).  A sum merges all its terms into one accumulator.
    """

    __slots__ = ("tokens", "i", "d")

    def __init__(self, text, d):
        self.tokens = _tokenize(text)
        self.i = 0
        self.d = d

    def expect(self, op):
        kind, _val, pos = self.tokens[self.i]
        if kind != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.i += 1

    def parse(self):
        v = self.expr()
        kind, _val, pos = self.tokens[self.i]
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        if not v.is_real():
            raise NonRealExpressionError(
                "expression has an imaginary part; combine exp2pii conjugates"
            )
        return v.re

    def expr(self):
        """expr := ['-'] term (('+'|'-') term)*, all terms merged into one sum."""
        tokens = self.tokens
        d = self.d
        re_ = _Acc(d)
        im = None
        neg = tokens[self.i][0] == "-"
        if neg:
            self.i += 1
        while True:
            q, pip, alpha, v = self.term()
            if v is None:
                if q:
                    alpha = (0,) * d if alpha is None else tuple(alpha)
                    re_.put(alpha, MODE_NONE, re_.zero_freq, Scalar.exact(-q if neg else q, pip))
            else:
                re_.add(v.re, -1 if neg else 1)
                if v.im is not None:
                    if im is None:
                        im = _Acc(d)
                    im.add(v.im, -1 if neg else 1)
            kind = tokens[self.i][0]
            if kind != "+" and kind != "-":
                return _Complex(re_.done(), None if im is None else im.done())
            neg = kind == "-"
            self.i += 1

    def term(self):
        """term := factor ('*' factor)*, as (q, pip, alpha, v).

        While v is None the term is q * pi^pip * x^alpha (alpha None for no
        variable); once a factor is a PolyTrig, v holds the product so far.
        """
        tokens = self.tokens
        q, pip, alpha, v = 1, 0, None, None
        vdeg = None  # the degree of v in each variable, checked before v grows
        while True:
            kind, val, pos = tokens[self.i]
            self.i += 1
            if kind == "num" or kind == "var" or kind == "pi":
                fq, fpi, axis, e = 1, 0, -1, 1
                if kind == "num":
                    fq = _number(val, pos)
                elif kind == "pi":
                    fpi = 1
                else:
                    axis = int(val[1:]) - 1
                    if not 0 <= axis < self.d:
                        raise DimensionError(f"variable {val} exceeds dimension {self.d}")
                on_pi = kind == "pi"  # a bare pi: a negative exponent may follow
                while tokens[self.i][0] == "^":
                    n, negexp = self.exponent(on_pi)
                    if negexp:
                        fpi = -n
                    else:
                        # fq**n has at least (bit_length - 1) * n * log10(2) digits
                        bits = max(fq.numerator.bit_length(), fq.denominator.bit_length()) - 1
                        _check_digits(f"{val}^...^{n}", bits * n * _LOG10_2, pos)
                        fq, fpi, e = fq**n, fpi * n, e * n
                    on_pi = False
                if v is None:
                    if kind == "num":
                        q *= fq
                    pip += fpi
                    if axis >= 0:
                        if alpha is None:
                            alpha = [0] * self.d
                        alpha[axis] += e
                        if alpha[axis] > MAX_COUNT:
                            _check_degrees(alpha, pos)
                else:
                    mono = [0] * self.d
                    if axis >= 0:
                        mono[axis] = e
                        vdeg[axis] += e
                        _check_degrees(vdeg, pos)
                    v = v.scaled(Scalar.exact(fq, fpi), mono)
            else:
                f = self.atom(kind, val, pos)
                fdeg = _degrees(f)
                while tokens[self.i][0] == "^":
                    n, _ = self.exponent(False)
                    fdeg = [e * n for e in fdeg]
                    _check_degrees(fdeg, pos)
                    if not any(fdeg):
                        # no degree bound applies: bound each coefficient's digits as a literal's
                        _check_power_digits(f, n, pos)
                    f = f**n
                if v is not None:
                    # the degree of a product of nonzero functions is the sum
                    vdeg = [a + b for a, b in zip(vdeg, fdeg)]
                    _check_degrees(vdeg, pos)
                    v = v * f
                elif not q:
                    v, vdeg = _Complex(PolyTrig.zero(self.d)), [0] * self.d
                elif q == 1 and not pip and alpha is None:
                    v, vdeg = f, fdeg
                else:
                    mono = alpha or [0] * self.d
                    vdeg = [a + b for a, b in zip(mono, fdeg)]
                    _check_degrees(vdeg, pos)
                    v = f.scaled(Scalar.exact(q, pip), mono)
            if tokens[self.i][0] != "*":
                return q, pip, alpha, v
            self.i += 1

    def exponent(self, on_pi):
        """Read '^' [-] digits; (n, negative).  A negative exponent only follows pi."""
        pos = self.tokens[self.i][2]
        kind, val, pos2 = self.tokens[self.i + 1]
        self.i += 2
        negexp = kind == "-"
        if negexp:
            kind, val, pos2 = self.tokens[self.i]
            self.i += 1
        if kind != "num" or not val.isdigit():
            raise ExprSyntaxError("expected an integer exponent", pos2)
        n = int(val)
        if n > MAX_COUNT:
            raise ExprSyntaxError(f"exponent {val[:40]} exceeds {MAX_COUNT}", pos2)
        if negexp and not on_pi:
            raise ExprSyntaxError("negative exponents are only allowed on pi", pos)
        return n, negexp

    def atom(self, kind, val, pos):
        """A parenthesised expression or a trig atom, as a _Complex."""
        if kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        if kind != "cos" and kind != "sin" and kind != "exp2pii":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        self.expect("(")
        arg = self.expr()
        self.expect(")")
        if not arg.is_real():
            raise NonRealExpressionError("trig argument must be real")
        d = self.d
        if kind != "exp2pii":
            freq, const = _freq_and_const(arg.re, d, True, pos)
            mode = MODE_COS if kind == "cos" else MODE_SIN
            return _Complex(_trig_from(d, mode, freq, const, pos))
        # exp2pii(u) = cos(2*pi*u) + i*sin(2*pi*u) with u = k.x + c
        freq, const = _freq_and_const(arg.re, d, False, pos)
        two_pi_const = const * Scalar.exact(2, 1)
        return _Complex(
            _trig_from(d, MODE_COS, freq, two_pi_const, pos),
            _trig_from(d, MODE_SIN, freq, two_pi_const, pos),
        )


def parse_expr(text, d):
    """Parse an expression into a canonical real PolyTrig of dimension d."""
    if d < 1:
        raise DimensionError("dimension must be positive")
    return _Reader(text, d).parse()


def print_expr(f):
    """Canonical string form; parse_expr(print_expr(f), f.dim) round-trips."""
    return str(f)
