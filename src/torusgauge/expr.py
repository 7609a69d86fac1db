"""Parser for the expression grammar used in configs and fixtures.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' exponent)*
    atom   := number | 'pi' | var | 'cos(' expr ')' | 'sin(' expr ')'
              | 'exp2pii(' expr ')' | '(' expr ')'
    var    := 'x' uint

Numbers are integers, rationals p/q, or decimal/scientific literals; decimal
literals are read exactly as rationals, into ints from the digit groups the
literal's match already holds.  Exponents are unsigned except on 'pi', where
a negative exponent is allowed (antiderivatives produce 1/(2*pi)
coefficients); an exponent above MAX_COUNT is a syntax error, and so are a
term whose degree in a variable exceeds MAX_COUNT however it got there
(x1^100^100, (x1^100)^100, x1^6000*x1^6000) and a power of a number past the
digit limit (3^10000^300).  Arguments of cos/sin/exp2pii must be affine with
integer frequencies and a rational phase: 2*pi*(k.x + c) with k in Z^d and c
rational (for exp2pii, k.x + c), else FrequencyError.  An argument's terms
are merged into one dict, which is read into the int vector k and the
rational c with no PolyTrig built for it, and the atom is one PolyTrig.trig
call at k and c; a plain coefficient written before it (3/2*pi*cos(...))
scales its terms as they are merged into the sum.  exp2pii is expanded through a complex
intermediate, and only there: a real value carries no imaginary part.  The
overall expression must be real-valued.

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
from .polytrig import MODE_COS, MODE_NONE, MODE_SIN, PolyTrig, _merge
from .scalar import Scalar

# Work bound on config counts: the largest `samples`, `equivalence_samples`
# or `range`, the largest number of operator pairs (sum of N**4 over
# `flux_list`) that `operators` checks, and the largest exponent after '^' and
# degree in a variable of a term in an expression.  A config over it is a
# config error.
MAX_COUNT = 10_000
_LOG10_2 = math.log10(2)
# the interpreter sets no digit limit below this many digits
_SAFE_DIGITS = sys.int_info.str_digits_check_threshold

# One token per match, after optional whitespace: an operator or a name, a
# number, a variable, or else any other non-space character, which is an
# error.  Trailing whitespace matches nothing.
_TOKEN_RE = re.compile(
    r"\s*([-+*^()]|pi|cos|sin|exp2pii|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?|x\d+|\S)"
)
_NAMES = frozenset(("-", "+", "*", "^", "(", ")", "pi", "cos", "sin", "exp2pii"))


def _tokenize(text):
    """(kinds, texts) of the tokens, then "end" and "".

    A kind is "num" or "var", or the text itself for a name or an operator.
    The whole text is scanned before any of it is read, so a character no
    token starts with is reported first, wherever it is.  Offsets are not
    kept: _offsets finds them again for an error message.
    """
    texts = _TOKEN_RE.findall(text)
    # a number starts with a digit (re's \d is str.isdecimal), a variable is
    # the only other token of more than one character
    kinds = [t if t in _NAMES else "num" if t[0].isdecimal() else "var" if len(t) > 1 else ""
             for t in texts]
    if "" in kinds:
        pos = _offsets(text)[kinds.index("")]
        word = re.match(r"[A-Za-z]+", text[pos:])
        if word:
            raise ExprSyntaxError(f"unknown name {word.group()!r}", pos + word.end())
        raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
    kinds.append("end")
    texts.append("")
    return kinds, texts


def _offsets(text):
    """The offset of each token of text, then len(text)."""
    return [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]


_RATIONAL_RE = re.compile(r"[-+]?(\d+)(?:\.(\d+))?(?:[eE]([-+]?\d+))?(?:/(\d+))?")


def _literal(text):
    """(n, m), m > 0 and not reduced, with n / m the rational a literal
    denotes; ValueError if it is not one (see read_rational)."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {text[:40]!r}")
    whole, frac, exp, den = m.groups()
    if den is not None and (frac or exp):
        raise ValueError("rational literal must have integer parts")
    if den is not None and not int(den):
        raise ValueError(f"zero denominator in {text[:40]!r}")
    e = int(exp or 0)
    msg = _digit_limit(text, len(whole) + len(frac or "") + len(den or "") + abs(e))
    if msg:
        raise ValueError(msg)
    n = int(whole + frac) if frac else int(whole)
    if text[0] == "-":
        n = -n
    if den is not None:
        return n, int(den)
    if frac:
        e -= len(frac)
    return (n * 10**e, 1) if e >= 0 else (n, 10**-e)


def read_rational(text):
    """The exact rational a literal denotes; ValueError if it is not one.

    A literal is an integer, p/q, or a decimal or scientific number, with an
    optional sign.  Its digit count plus its decimal exponent may not exceed
    sys.get_int_max_str_digits(): that is checked before any int of it is
    built, since 10**e alone costs seconds for e in the millions, and a value
    past that limit could not be printed.  The value is built from the digit
    groups of the literal's match, not parsed a second time.
    """
    n, m = _literal(text)
    return Fraction(n, m)


def _digit_limit(text, size):
    """The message refusing a number of size digits past the limit, or None."""
    limit = sys.get_int_max_str_digits()
    if limit and size > limit:
        return f"literal {text[:40]!r} exceeds {limit} digits"
    return None


def _coefficient(n, m, pip):
    """The exact Scalar n / m * pi^pip, m > 0."""
    return Scalar.exact(n, pip) if m == 1 else Scalar.exact(Fraction(n, m), pip)


class _Complex:
    """re + i*im on R^d, each part a dict of canonical terms
    {(alpha, mode, freq): Scalar} as a PolyTrig holds them; im is None for a
    real value.

    A real operand costs one real operation, so only exp2pii pays for complex
    arithmetic.  A product wraps the parts in PolyTrigs and uses their ring ops.
    """

    __slots__ = ("d", "re", "im")

    def __init__(self, d, re_, im_=None):
        self.d = d
        self.re = re_
        self.im = im_

    def is_real(self):
        return self.im is None or PolyTrig(self.d, self.im).is_zero()

    def scaled(self, n, m, pip, alpha):
        """n / m * pi^pip * x^alpha * self (see _scaled_into); self for 1."""
        if n == m and not pip and alpha is None:
            return self
        return _Complex(
            self.d,
            _scaled_into({}, self.re, n, m, pip, alpha),
            None if self.im is None else _scaled_into({}, self.im, n, m, pip, alpha),
        )

    def __mul__(self, o):
        d = self.d
        a, b = PolyTrig(d, self.re), PolyTrig(d, o.re)
        if o.im is None:
            return _Complex(d, (a * b).terms,
                            None if self.im is None else (PolyTrig(d, self.im) * b).terms)
        c = PolyTrig(d, o.im)
        if self.im is None:
            return _Complex(d, (a * b).terms, (a * c).terms)
        e = PolyTrig(d, self.im)
        return _Complex(d, (a * b - e * c).terms, (a * c + e * b).terms)

    def __pow__(self, n):
        if n == 0:
            return _Complex(self.d, PolyTrig.const(self.d, 1).terms)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


def _scaled_into(out, terms, n, m, pip, alpha):
    """Merge n / m * pi^pip * x^alpha * terms into the terms out, in the order
    of terms, and return out: what PolyTrig.__mul__ gives for that one-term
    factor, whose monomial shifts the keys apart (alpha None for none).  A
    factor of 1 or -1 leaves each coefficient or negates it; an exact one is
    scaled in ints, and a float one multiplied by the exact Scalar, which
    raises SizeLimitError where that factor overflows a float."""
    one = not pip and (n == m or n == -m)
    for (a, mode, freq), v in terms.items():
        if one:
            if n < 0:
                v = -v
        elif v.num is not None:
            v = v.scaled(n, m, pip)
        else:
            v = _coefficient(n, m, pip) * v
        if alpha is not None:
            a = tuple([i + j for i, j in zip(a, alpha)])
        _merge(out, (a, mode, freq), v)
    return out


def _atom(d, kind, freq, phase):
    """cos, sin or exp2pii of the wave 2*pi*(freq.x + phase), as a _Complex
    of PolyTrig.trig terms."""
    if kind == "exp2pii":
        # exp2pii(u) = cos(2*pi*u) + i*sin(2*pi*u)
        return _Complex(d, PolyTrig.trig(d, MODE_COS, freq, 1, phase).terms,
                        PolyTrig.trig(d, MODE_SIN, freq, 1, phase).terms)
    mode = MODE_COS if kind == "cos" else MODE_SIN
    return _Complex(d, PolyTrig.trig(d, mode, freq, 1, phase).terms)


def _degrees(f):
    """The largest exponent of each variable over the terms of a _Complex."""
    alphas = [alpha for part in (f.re, f.im) if part for alpha, _mode, _freq in part]
    return [max(es) for es in zip(*alphas)] if alphas else [0] * f.d


def _power_digit_limit(f, n):
    """The message refusing f**n if a coefficient c**n of f would pass the
    digit limit, by the bound that a literal's power takes: c = p/q has at
    least (bit_length - 1) * n * log10(2) digits in p**n or q**n; or None."""
    for part in (f.re, f.im):
        if part is None:
            continue
        for c in part.values():
            if c.is_exact:
                bits = max(c.den.bit_length(), *(abs(x).bit_length() for x in c.num.values()))
                msg = _digit_limit(f"(...)^{n}", (bits - 1) * n * _LOG10_2)
                if msg:
                    return msg
    return None


class _Reader:
    """One pass over the tokens of an expression.

    The value of an expression is the same PolyTrig, with the same terms in
    the same order, as evaluating its grammar tree with PolyTrig ring ops
    left to right.  To get there with less work, a term folds its plain
    factors (numbers, pi and variables, with their powers) into ints n / m,
    a power of pi and one monomial; only a parenthesised expression or a
    trig atom is a _Complex, multiplied in with PolyTrig.__mul__ when the
    term already holds one.  The plain factors read since the _Complex last
    changed multiply it at the next '*', before the next factor is read, as
    the tree's product would, or else as the term is merged into its sum, so
    the 2*pi of 2*pi*(k.x) and the 3/2*pi of 3/2*pi*cos(...) scale no copy.
    A sum merges its terms into one dict of canonical terms,
    a PolyTrig only at the end of the text, and a trig argument is read from
    that dict (wave).  Token offsets are found only for an error message
    (at).
    """

    __slots__ = ("text", "kinds", "texts", "i", "d", "zeros")

    def __init__(self, text, d):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.i = 0
        self.d = d
        self.zeros = (0,) * d

    def at(self, i):
        """The offset of token i."""
        return _offsets(self.text)[i]

    def expect(self, op):
        if self.kinds[self.i] != op:
            raise ExprSyntaxError(f"expected {op!r}", self.at(self.i))
        self.i += 1

    def check_degrees(self, degrees, i):
        for axis, e in enumerate(degrees):
            if e > MAX_COUNT:
                raise ExprSyntaxError(f"degree {e} in x{axis + 1} exceeds {MAX_COUNT}", self.at(i))

    def parse(self):
        v = self.expr()
        if self.kinds[self.i] != "end":
            raise ExprSyntaxError("trailing input", self.at(self.i))
        if not v.is_real():
            raise NonRealExpressionError(
                "expression has an imaginary part; combine exp2pii conjugates"
            )
        return PolyTrig(self.d, v.re)

    def expr(self):
        """expr := ['-'] term (('+'|'-') term)*, all terms merged into one sum."""
        kinds = self.kinds
        zeros = self.zeros
        re_ = {}
        im = None
        neg = kinds[self.i] == "-"
        if neg:
            self.i += 1
        while True:
            n, m, pip, alpha, v = self.term()
            if neg:
                n = -n
            if v is None:
                if n:
                    alpha = zeros if alpha is None else tuple(alpha)
                    _merge(re_, (alpha, MODE_NONE, zeros), _coefficient(n, m, pip))
            else:
                _scaled_into(re_, v.re, n, m, pip, alpha)
                if v.im is not None:
                    im = _scaled_into({} if im is None else im, v.im, n, m, pip, alpha)
            kind = kinds[self.i]
            if kind != "+" and kind != "-":
                return _Complex(self.d, re_, im)
            neg = kind == "-"
            self.i += 1

    def term(self):
        """term := factor ('*' factor)*, as (n, m, pip, alpha, v).

        While v is None the term is n / m * pi^pip * x^alpha (alpha None for
        no variable).  Once a factor is a _Complex, v holds the product so
        far, and n / m * pi^pip * x^alpha is the plain factor read since v
        last changed, which multiplies it still.
        """
        kinds, texts, d = self.kinds, self.texts, self.d
        n, m, pip, alpha, v = 1, 1, 0, None, None
        vdeg = None  # the degree of v in each variable, checked before v grows
        while True:
            i = self.i
            kind = kinds[i]
            self.i += 1
            if kind == "num" or kind == "var" or kind == "pi":
                fn, fm, fpi, axis, e = 1, 1, 0, -1, 1
                if kind == "num":
                    t = texts[i]
                    # a short literal of digits only is an int under any digit limit
                    fn, fm = (int(t), 1) if len(t) < _SAFE_DIGITS and t.isdigit() else self.number(i)
                elif kind == "pi":
                    fpi = 1
                else:
                    axis = int(texts[i][1:]) - 1
                    if not 0 <= axis < d:
                        raise DimensionError(f"variable {texts[i]} exceeds dimension {d}")
                on_pi = kind == "pi"  # a bare pi: a negative exponent may follow
                while kinds[self.i] == "^":
                    k, negexp = self.exponent(on_pi)
                    if negexp:
                        fpi = -k
                    else:
                        # (fn/fm)**k has at least (bit_length - 1) * k * log10(2) digits
                        bits = max(fn.bit_length(), fm.bit_length()) - 1
                        msg = _digit_limit(f"{texts[i]}^...^{k}", bits * k * _LOG10_2)
                        if msg:
                            raise ExprSyntaxError(msg, self.at(i))
                        fn, fm, fpi, e = fn**k, fm**k, fpi * k, e * k
                    on_pi = False
                n, m, pip = n * fn, m * fm, pip + fpi
                if axis >= 0:
                    if alpha is None:
                        alpha = [0] * d
                    alpha[axis] += e
                    deg = alpha
                    if v is not None:
                        deg = vdeg
                        deg[axis] += e
                    if deg[axis] > MAX_COUNT:
                        self.check_degrees(deg, i)
            else:
                if kind == "(":
                    f = self.expr()
                    self.expect(")")
                    fdeg = _degrees(f)
                elif kind == "cos" or kind == "sin" or kind == "exp2pii":
                    freq, phase = self.wave(kind == "exp2pii", i)
                    f, fdeg = _atom(d, kind, freq, phase), [0] * d
                else:
                    raise ExprSyntaxError(f"unexpected token {texts[i]!r}", self.at(i))
                while kinds[self.i] == "^":
                    k, _ = self.exponent(False)
                    fdeg = [e * k for e in fdeg]
                    self.check_degrees(fdeg, i)
                    if not any(fdeg):
                        # no degree bound applies: bound each coefficient's digits as a literal's
                        msg = _power_digit_limit(f, k)
                        if msg:
                            raise ExprSyntaxError(msg, self.at(i))
                    f = f**k
                if v is not None:
                    # the degree of a product of nonzero functions is the sum
                    vdeg = [a + b for a, b in zip(vdeg, fdeg)]
                    self.check_degrees(vdeg, i)
                    v = v * f
                elif not n:
                    v, vdeg = _Complex(d, {}), [0] * d
                    n, m, pip, alpha = 1, 1, 0, None
                else:
                    v, vdeg = f, fdeg
                    if alpha is not None:
                        vdeg = [a + b for a, b in zip(alpha, fdeg)]
                        self.check_degrees(vdeg, i)
            if kinds[self.i] != "*":
                return n, m, pip, alpha, v
            self.i += 1
            if v is not None:
                v = v.scaled(n, m, pip, alpha)
                n, m, pip, alpha = 1, 1, 0, None

    def number(self, i):
        """Number token i as ints (n, m) in lowest terms, m > 0."""
        try:
            n, m = _literal(self.texts[i])
        except ValueError as exc:
            raise ExprSyntaxError(str(exc), self.at(i)) from None
        g = math.gcd(n, m)
        return n // g, m // g

    def exponent(self, on_pi):
        """Read '^' [-] digits; (n, negative).  A negative exponent only follows pi."""
        caret = self.i
        j = caret + 1
        negexp = self.kinds[j] == "-"
        if negexp:
            j += 1
        self.i = j + 1
        val = self.texts[j]
        if self.kinds[j] != "num" or not val.isdigit():
            raise ExprSyntaxError("expected an integer exponent", self.at(j))
        n = int(val)
        if n > MAX_COUNT:
            raise ExprSyntaxError(f"exponent {val[:40]} exceeds {MAX_COUNT}", self.at(j))
        if negexp and not on_pi:
            raise ExprSyntaxError("negative exponents are only allowed on pi", self.at(caret))
        return n, negexp

    def wave(self, exp2pii, i):
        """Read '(' expr ')' after the trig name at token i into (k, p), the
        int frequency vector and the rational phase of the wave
        2*pi*(k.x + p).

        The argument must read 2*pi*(k.x) + c with c a rational multiple of
        pi, p = c / (2*pi), or for exp2pii k.x + p.  Its merged terms are read
        in order, and FrequencyError names the first that is not affine or
        whose frequency is not an integer; then the phase is checked.
        """
        self.expect("(")
        arg = self.expr()
        self.expect(")")
        if not arg.is_real():
            raise NonRealExpressionError("trig argument must be real")
        s = 0 if exp2pii else 1  # the power of pi in a frequency and in the phase
        freq = [0] * self.d
        const = None
        for (alpha, mode, _freq), c in arg.re.items():
            deg = sum(alpha)
            if mode != MODE_NONE or deg > 1:
                raise FrequencyError(
                    f"trig argument must be affine in the variables (offset {self.at(i)})"
                )
            if not deg:
                const = c
                continue
            j = alpha.index(1)
            # c is 2*pi*k (or k) with k an integer; lowest terms make that den == 1
            num = c.num  # None on tier F
            if num is None or len(num) != 1 or s not in num or c.den != 1 or num[s] % (s + 1):
                raise FrequencyError(f"frequency on x{j + 1} is not an integer")
            freq[j] = num[s] // (s + 1)
        if const is None:
            return freq, 0
        num = const.num
        if num is None or len(num) != 1 or s not in num:
            raise FrequencyError(
                f"trig phase must be a rational multiple of pi (offset {self.at(i)})"
            )
        return freq, Fraction(num[s], (s + 1) * const.den)


def parse_expr(text, d):
    """Parse an expression into a canonical real PolyTrig of dimension d."""
    if d < 1:
        raise DimensionError("dimension must be positive")
    return _Reader(text, d).parse()


def print_expr(f):
    """Canonical string form; parse_expr(print_expr(f), f.dim) round-trips."""
    return str(f)
