"""polytrig.shifted_sum against the general pullback.

Each case sums 1 to 4 parts k * f(x - v) on R^d, d = 1..3, with int scales k
in -2..2, random functions with trig terms (some multiplied out, so that
polynomial-times-trig terms meet under a shift) and shifts with
denominators 1 to 7, some parts unshifted.  The oracle builds each part on
its own, as pullback_fn(f, AffineMap(identity, -v)).scale(k), and adds them
with +.  Exact results must be equal as PolyTrigs; where the phases of
denominators 5 and 7 reach the float tier, coefficients must agree within
DEFAULT_TOL.  translate, the one-part sum with k = 1, must keep the
pullback's floats exactly on each shifted part.  Values at random points are
checked against the parts evaluated at the shifted points, which shares no
code with either side.
"""

import math
import random
from fractions import Fraction

from torusgauge.polytrig import AffineMap, PolyTrig, pullback_fn, shifted_sum, translate
from torusgauge.sampling import rand_polytrig
from torusgauge.scalar import DEFAULT_TOL

CASES = 200


def _function(r, d):
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
    parts = [(r.randint(-2, 2), _function(r, d), _shift(r, d)) for _ in range(r.randint(1, 4))]
    return d, parts


def _oracle_part(d, k, f, v):
    if v is not None:
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        f = pullback_fn(f, AffineMap(ident, [-x for x in v]))
    return f.scale(k)


def _value(d, parts, x):
    tot = 0.0
    for k, f, v in parts:
        y = x if v is None else [a - float(b) for a, b in zip(x, v)]
        tot += k * f.eval_float(y)
    return tot


def test_shifted_sum_matches_the_pullback_oracle():
    r = random.Random(20261019)
    tiers = {"exact": 0, "float": 0}
    for case in range(CASES):
        d, parts = _case(r)
        got = shifted_sum(d, parts)
        want = PolyTrig.zero(d)
        for k, f, v in parts:
            want = want + _oracle_part(d, k, f, v)
        if want.is_exact():
            tiers["exact"] += 1
            assert got == want, (case, parts)
        else:
            tiers["float"] += 1
            assert got.equals(want, DEFAULT_TOL), (case, parts)
        for _, f, v in parts:
            if v is not None:
                assert translate(f, v) == _oracle_part(d, 1, f, v), (case, f, v)
        for _ in range(2):
            x = [r.uniform(-2, 2) for _ in range(d)]
            want_x = _value(d, parts, x)
            assert math.isclose(got.eval_float(x), want_x, rel_tol=1e-9, abs_tol=1e-9), (case, x)
    # both tiers are exercised
    assert tiers["exact"] >= 40 and tiers["float"] >= 40, tiers
