"""polytrig.shifted_sum against independent oracles: sympy, and values at points.

Each case sums 1 to 4 parts k * f(x - v) on R^d, d = 1..3, with int scales k
in -2..2, random functions with trig terms (some multiplied out, so that
polynomial-times-trig terms meet under a shift) and shifts with
denominators 1 to 7, some parts unshifted.  On the exact tier the sympy
oracle writes each f as an expression (test_kernel_oracle._function),
substitutes x - v for x, and expands the sum with expand_trig; the result of
shifted_sum, written the same way, must differ from it by an expression that
simplifies to 0.  Where the phases of denominators 5 and 7 reach the float
tier, values at random points are checked against the parts evaluated at the
shifted points; that check runs on every case and shares no code with
shifted_sum.  Every result must also be canonical: int frequencies, the first
nonzero one positive, and every phase 0.
"""

import math
import random
from fractions import Fraction

from torusgauge.polytrig import MODE_NONE, shifted_sum
from torusgauge.sampling import rand_polytrig
from test_kernel_oracle import X, _function, _rational, sympy  # skips this module without sympy
from tests_util import is_exact

CASES = 200


def _function_of(r, d):
    f = rand_polytrig(r, d, n_terms=r.randint(1, 4))
    if r.random() < 0.4:
        f = f * rand_polytrig(r, d, n_terms=2, max_deg=1)
    return f


def _shift(r, d):
    if r.random() < 0.15:
        return None
    return tuple(Fraction(r.randint(-6, 6), r.randint(1, 7)) for _ in range(d))


def _case(r):
    d = r.randint(1, 3)
    parts = [(r.randint(-2, 2), _function_of(r, d), _shift(r, d)) for _ in range(r.randint(1, 4))]
    return d, parts


def _sympy_sum(d, parts):
    out = sympy.Integer(0)
    for k, f, v in parts:
        e = _function(f)
        if v is not None:
            e = e.xreplace({X[i]: X[i] - _rational(v[i]) for i in range(d)})
        out += k * e
    return out


def _value(d, parts, x):
    tot = 0.0
    for k, f, v in parts:
        y = x if v is None else [a - float(b) for a, b in zip(x, v)]
        tot += k * f.eval_float(y)
    return tot


def _assert_canonical(f):
    for _alpha, mode, freq, phase in f.terms:
        assert type(phase) is int and phase == 0, f
        assert all(type(q) is int for q in freq), f
        if mode != MODE_NONE:
            assert next(q for q in freq if q) > 0, f


def test_shifted_sum_matches_sympy_and_values_at_points():
    r = random.Random(20261019)
    tiers = {"exact": 0, "float": 0}
    for case in range(CASES):
        d, parts = _case(r)
        got = shifted_sum(d, parts)
        _assert_canonical(got)
        if is_exact(got):
            tiers["exact"] += 1
            # expand distributes each argument, so expand_trig meets sums of 2*pi*x_i terms
            diff = sympy.expand(_function(got) - _sympy_sum(d, parts))
            diff = sympy.expand(sympy.expand_trig(diff))
            assert diff == 0 or sympy.simplify(diff) == 0, (case, parts)
        else:
            tiers["float"] += 1
        for _ in range(2):
            x = [r.uniform(-2, 2) for _ in range(d)]
            want_x = _value(d, parts, x)
            assert math.isclose(got.eval_float(x), want_x, rel_tol=1e-9, abs_tol=1e-9), (case, x)
    # both tiers are exercised
    assert tiers["exact"] >= 40 and tiers["float"] >= 40, tiers

