"""The expression reader against PolyTrig ring ops on seeded random trees.

Each tree is printed in the grammar and parsed.  The same tree is evaluated
left to right with PolyTrig's own constructors (a trig atom at a phase is
tests_util.trig_term, a wave composed with an affine map), +, -, * and repeated products for powers.  The two
must agree term for term: the same keys in the same dict order, and the same coefficients, float-tier values and tolerances included
(later float sums follow that order).  Every tree holds a leading minus, a
product of sums, a power of a sum, pi^-n, a decimal and a p/q literal, a
cos or sin atom and a conjugate exp2pii pair; its remaining terms are random.
"""

import random
from fractions import Fraction

from torusgauge.expr import _Reader, parse_expr
from torusgauge.polytrig import MODE_COS, MODE_SIN, PolyTrig
from torusgauge.scalar import Scalar
from tests_util import trig_term

TREES = 150
DECIMALS = ("0.5", "0.25", "1.5", "2.5e-1", "1e-2", "0.125")
PHASES = (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(2, 7),
          Fraction(-1, 6), Fraction(1, 12))


class Tree:
    """A node: its text in the grammar and its value by ring ops."""

    def __init__(self, text, value):
        self.text = text
        self.value = value


def power(f, n, d):
    if n == 0:
        return PolyTrig.const(d, 1)
    out = f
    for _ in range(n - 1):
        out = out * f
    return out


def number(r, d, kind=None):
    kind = kind or r.choice(("int", "int", "decimal", "ratio"))
    if kind == "int":
        text = str(r.randint(0, 9))
    elif kind == "decimal":
        text = r.choice(DECIMALS)
    else:
        text = f"{r.randint(1, 9)}/{r.randint(2, 9)}"
    return Tree(text, PolyTrig.const(d, Fraction(text)))


def pi_power(r, d, negative=False):
    n = r.randint(1, 3)
    if negative:
        return Tree(f"pi^-{n}", PolyTrig.const(d, Scalar.exact(1, -n)))
    pi = PolyTrig.const(d, Scalar.exact(1, 1))
    return Tree("pi" if n == 1 else f"pi^{n}", power(pi, n, d))


def variable(r, d):
    i, n = r.randint(1, d), r.randint(0, 2)
    x = PolyTrig.var(d, i)
    return Tree(f"x{i}" if n == 1 else f"x{i}^{n}", power(x, n, d))


def affine(freq, phase):
    """k.x + c in the grammar, ints k and a rational c."""
    pieces = [(k, f"x{i + 1}" if abs(k) == 1 else f"{abs(k)}*x{i + 1}")
              for i, k in enumerate(freq) if k]
    if phase or not pieces:
        pieces.append((phase, str(abs(phase))))
    out = ""
    for k, piece in pieces:
        if out:
            out += (" - " if k < 0 else " + ") + piece
        else:
            out = ("-" if k < 0 else "") + piece
    return out


def trig(r, d):
    freq = tuple(r.randint(-2, 2) for _ in range(d))
    phase = r.choice(PHASES)
    mode = r.choice((MODE_COS, MODE_SIN))
    name = "cos" if mode == MODE_COS else "sin"
    value = trig_term(d, mode, freq, phase).expand_phases()
    return Tree(f"{name}(2*pi*({affine(freq, phase)}))", value)


def exp_pair(r, d):
    """exp2pii(u) + exp2pii(-u) = 2*cos(2*pi*u), real through complex intermediates."""
    freq = tuple(r.randint(-2, 2) for _ in range(d))
    phase = r.choice(PHASES)
    neg = tuple(-k for k in freq)
    value = (trig_term(d, MODE_COS, freq, phase).expand_phases()
             + trig_term(d, MODE_COS, neg, -phase).expand_phases())
    return Tree(f"(exp2pii({affine(freq, phase)}) + exp2pii({affine(neg, -phase)}))", value)


def paren(r, d, depth, n=1):
    inner = expression(r, d, depth - 1)
    text = f"({inner.text})" + ("" if n == 1 else f"^{n}")
    return Tree(text, power(inner.value, n, d))


def factor(r, d, depth):
    pick = r.random()
    if depth > 0 and pick < 0.15:
        return paren(r, d, depth, r.choice((1, 1, 2, 0)))
    if pick < 0.3:
        return trig(r, d)
    if pick < 0.35:
        return exp_pair(r, d)
    if pick < 0.55:
        return number(r, d)
    if pick < 0.7:
        return pi_power(r, d, negative=r.random() < 0.3)
    return variable(r, d)


def product(factors):
    value = factors[0].value
    for f in factors[1:]:
        value = value * f.value
    return Tree("*".join(f.text for f in factors), value)


def expression(r, d, depth, terms=None, lead=None):
    terms = terms or [
        product([factor(r, d, depth) for _ in range(r.randint(1, 3))])
        for _ in range(r.randint(1, 3))
    ]
    lead = r.random() < 0.3 if lead is None else lead
    text = ("-" if lead else "") + terms[0].text
    value = -terms[0].value if lead else terms[0].value
    for t in terms[1:]:
        if r.random() < 0.5:
            text, value = f"{text} - {t.text}", value - t.value
        else:
            text, value = f"{text} + {t.text}", value + t.value
    return Tree(text, value)


def tree(r, d):
    """A random tree holding every required construct, in a random order."""
    units = [
        [paren(r, d, 1), paren(r, d, 1)],  # a product of sums
        [paren(r, d, 1, 2)],
        [pi_power(r, d, negative=True)],
        [number(r, d, "decimal")],
        [number(r, d, "ratio")],
        [trig(r, d)],
        [exp_pair(r, d)],
    ]
    r.shuffle(units)
    cut = r.randint(1, len(units) - 1)
    terms = [product(sum(units[:cut], [])), product(sum(units[cut:], []))]
    terms += [product([factor(r, d, 2) for _ in range(r.randint(1, 3))])
              for _ in range(r.randint(0, 2))]
    r.shuffle(terms)
    return expression(r, d, 2, terms, lead=True)


def same(got, want):
    """Equal keys in equal order, and bit-equal coefficients."""
    if got.dim != want.dim or list(got.terms) != list(want.terms):
        return False
    for key, c in got.terms.items():
        o = want.terms[key]
        if (c.num, c.den) != (o.num, o.den) or (c.num is None and (c.val, c.tol) != (o.val, o.tol)):
            return False
    return True


def test_reader_matches_ring_ops_on_random_trees():
    r = random.Random(1401)
    floats = 0
    for i in range(TREES):
        d = r.choice((1, 2, 3))
        t = tree(r, d)
        got = parse_expr(t.text, d)
        assert same(got, t.value), (i, t.text, str(got), str(t.value))
        floats += any(not c.is_exact for c in got.terms.values())
    assert floats > TREES // 4  # the float tier is exercised too


def test_trig_atoms_match_the_pulled_back_wave():
    # cos/sin(2*pi*(k.x) + c*pi) and exp2pii(k.x + c/2) are one
    # PolyTrig.trig term at the phase c/2: keys, dict order and coefficients
    # as the wave cos or sin(2*pi*u) composed with u = k.x + c/2
    r = random.Random(2707)
    floats = 0
    for i in range(400):
        d = r.choice((1, 2, 3))
        freq = (0,) * d if i % 10 == 0 else tuple(r.randint(-3, 3) for _ in range(d))
        q = r.randint(1, 12)
        c = Fraction(r.randint(-3 * q, 3 * q), q)
        pi_part = "" if not c else f" {'-' if c < 0 else '+'} {abs(c)}*pi"
        for name, mode in (("cos", MODE_COS), ("sin", MODE_SIN)):
            got = parse_expr(f"{name}(2*pi*({affine(freq, 0)}){pi_part})", d)
            assert same(got, trig_term(d, mode, freq, c / 2)), (name, freq, c)
            floats += any(not v.is_exact for v in got.terms.values())
        got = _Reader(f"exp2pii({affine(freq, c / 2)})", d).expr()
        # the reader's value holds the real and imaginary terms as dicts
        assert same(PolyTrig(d, got.re), trig_term(d, MODE_COS, freq, c / 2)), ("exp2pii", freq, c)
        assert same(PolyTrig(d, got.im), trig_term(d, MODE_SIN, freq, c / 2)), ("exp2pii", freq, c)
    assert floats > 100  # phases off the Niven table are met too


def split_sum(r, freq, phase):
    """2*pi*(k.x + p) as a sum of terms: each frequency split in two, in the
    shapes 2*pi*x_i and pi*x_i*2, and the phase a term 2*pi*p, shuffled."""
    parts = []
    for i, k in enumerate(freq):
        if k:
            a = r.randint(-3, 3)
            parts += [(a, f"2*pi*x{i + 1}"), (k - a, f"pi*x{i + 1}*2")]
    if phase:
        parts.append((1 if phase > 0 else -1, f"2*pi*{abs(phase)}"))
    r.shuffle(parts)
    text = ""
    for n, body in parts or [(0, "x1")]:
        piece = f"{abs(n)}*{body}"
        if not text:
            text = f"-{piece}" if n < 0 else piece
        else:
            text += f" - {piece}" if n < 0 else f" + {piece}"
    return text


def test_trig_arguments_in_every_shape_read_alike():
    # one wave 2*pi*(k.x + p) written with its coefficients inside the parens,
    # with the factor 2*pi after the paren or around it, and as a split sum,
    # is one PolyTrig.trig term at k and p; a conjugate exp2pii pair at the
    # rational constant p, with a coefficient, is c*cos + c*cos by ring ops
    r = random.Random(2811)
    for i in range(150):
        d = r.choice((1, 2, 3))
        freq = tuple(r.randint(-3, 3) for _ in range(d))
        q = r.randint(1, 12)
        phase = Fraction(r.randint(-2 * q, 2 * q), q)
        inner = affine(freq, phase)
        shapes = [f"2*pi*({inner})", f"({inner})*2*pi", f"pi*({inner})*2", f"2*({inner})*pi",
                  split_sum(r, freq, phase)]
        for name, mode in (("cos", MODE_COS), ("sin", MODE_SIN)):
            want = trig_term(d, mode, freq, phase)
            for arg in shapes:
                assert same(parse_expr(f"{name}({arg})", d), want), (i, name, arg)
        c = r.choice((1, 3, Fraction(3, 2), Fraction(-2, 5)))
        neg = tuple(-k for k in freq)
        pair = (f"exp2pii({inner})", f"exp2pii({affine(neg, -phase)})")
        if c == 1:
            text = f"{pair[0]} + {pair[1]}"
        else:
            sign = "-" if c < 0 else "+"
            text = f"{sign}{abs(c)}*{pair[0]} {sign} {abs(c)}*{pair[1]}".lstrip("+")
        cc = PolyTrig.const(d, c)
        want = cc * trig_term(d, MODE_COS, freq, phase) + cc * trig_term(d, MODE_COS, neg, -phase)
        assert same(parse_expr(text, d), want), (i, text)
