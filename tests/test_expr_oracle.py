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

from torusgauge.expr import parse_expr
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
