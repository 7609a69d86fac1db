import math
import random
import sys
from fractions import Fraction

import pytest

from torusgauge.errors import SizeLimitError
from torusgauge.expr import parse_expr
from torusgauge.polytrig import translate
from torusgauge.sampling import rand_scalar
from torusgauge.scalar import Scalar, cos2pi, sin2pi
from tests_util import code_calls


def test_exact_arithmetic_is_exact():
    a = Scalar.exact(Fraction(1, 3), 1)  # pi/3
    b = Scalar.exact(Fraction(2, 3), 1)  # 2*pi/3
    s = a + b
    assert s.is_exact and s.pi == {1: Fraction(1)}
    p = a * b
    assert p.pi == {2: Fraction(2, 9)}
    assert (a - a).is_zero()


def test_mixed_tier_degrades():
    a = Scalar.exact(1, 1)
    f = Scalar.approx(0.5, 1e-9)
    out = a * f
    assert not out.is_exact
    assert abs(out.val - math.pi / 2) < 1e-12
    assert out.tol > 0


def test_repeated_exact_ops_accumulate_no_error():
    x = Scalar.exact(Fraction(1, 7))
    acc = Scalar.zero()
    for _ in range(700):
        acc = acc + x
    assert acc.pi == {0: Fraction(100)}


def test_division_by_pi_multiple():
    a = Scalar.exact(3, 2)  # 3*pi^2
    b = Scalar.exact(2, 1)  # 2*pi
    q = a / b
    assert q.pi == {1: Fraction(3, 2)}


def test_two_pi_membership():
    assert Scalar.exact(4, 1).in_two_pi_Z()
    assert not Scalar.exact(3, 1).in_two_pi_Z()
    assert not Scalar.exact(2, 2).in_two_pi_Z()  # 2*pi^2
    assert Scalar.zero().in_two_pi_Z()
    assert Scalar.approx(4 * math.pi + 1e-12).in_two_pi_Z()
    assert not Scalar.approx(4 * math.pi + 1e-3).in_two_pi_Z()


def test_mod_two_pi_stays_exact():
    r = Scalar.exact(7, 1).mod_two_pi()  # 7*pi -> pi
    assert r.pi == {1: Fraction(1)}
    r2 = Scalar.exact(-1, 1).mod_two_pi()
    assert r2.pi == {1: Fraction(1)}


def test_mod_two_pi_of_two_pi_multiples_is_zero():
    # the float shadow is a function of the value, so 2*k*pi reduces to 0 for every k
    for k in range(1, 61):
        assert str(Scalar.exact(2 * k, 1).mod_two_pi()) == "0", k


def test_float_shadow_depends_only_on_the_value():
    summed = Scalar.exact(Fraction(1, 3), 1) + Scalar.exact(Fraction(4, 3), 1)
    multiplied = Scalar.exact(Fraction(5, 3)) * Scalar.exact(1, 1)
    assert summed.pi == multiplied.pi
    assert summed.val == multiplied.val == float(Fraction(5, 3)) * math.pi


def test_trig_tables():
    assert cos2pi(Fraction(1, 3)).pi == {0: Fraction(-1, 2)}
    assert sin2pi(Fraction(1, 12)).pi == {0: Fraction(1, 2)}
    assert cos2pi(Fraction(1, 4)).is_zero()
    # denominator 5 has no rational value: numeric tier
    v = cos2pi(Fraction(1, 5))
    assert not v.is_exact
    assert abs(v.val - math.cos(2 * math.pi / 5)) < 1e-15


def test_str_rendering():
    assert str(Scalar.exact(Fraction(3, 2), 2)) == "3/2*pi^2"
    assert str(Scalar.exact(1, 1)) == "pi"
    assert str(Scalar.zero()) == "0"


# -- the exact tier against a reference model ------------------------------
#
# The model of an exact scalar is its value as {pi exponent: Fraction}, with
# no zero entries; the model operations are Fraction arithmetic on those maps.


def _model_add(a, b):
    out = dict(a)
    for k, q in b.items():
        out[k] = out.get(k, 0) + q
    return {k: q for k, q in out.items() if q}


def _model_mul(a, b):
    out = {}
    for k1, q1 in a.items():
        for k2, q2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + q1 * q2
    return {k: q for k, q in out.items() if q}


def _model_shadow(m):
    return sum((float(q) * math.pi**k for k, q in sorted(m.items())), 0.0)


def _model_str(m):
    if not m:
        return "0"
    parts = []
    for k in sorted(m):
        q = m[k]
        if k == 0:
            parts.append(str(q))
        else:
            p = "pi" if k == 1 else f"pi^{k}"
            parts.append(p if q == 1 else f"-{p}" if q == -1 else f"{q}*{p}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _model_in_two_pi_z(m):
    return not m or (set(m) == {1} and m[1].denominator == 1 and m[1].numerator % 2 == 0)


def _model_mod_two_pi(m):
    two_pi = 2.0 * math.pi
    n = math.floor(_model_shadow(m) / two_pi)
    m = _model_add(m, {1: Fraction(-2 * n)})
    while _model_shadow(m) >= two_pi:
        m = _model_add(m, {1: Fraction(-2)})
    while _model_shadow(m) < 0.0:
        m = _model_add(m, {1: Fraction(2)})
    return m


def _rand_model(rnd, terms=None):
    kind = rnd.random()
    if kind < 0.08:
        return {}
    if kind < 0.2:
        # small multiples of pi, so that 2*pi*Z membership is hit
        return {1: Fraction(rnd.randint(-6, 6) or 2, rnd.choice((1, 1, 2)))}
    ks = rnd.sample(range(-2, 4), terms or rnd.randint(1, 3))
    return {
        k: Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 10**6), rnd.randint(1, 10**6))
        for k in ks
    }


def _build(m):
    s = Scalar.zero()
    for k, q in m.items():
        s = s + Scalar.exact(q, k)
    return s


def _check(s, m):
    assert s.is_exact and s.pi == m
    assert s.den > 0 and 0 not in s.num.values()
    assert all(type(n) is int for n in s.num.values()) and type(s.den) is int
    assert math.gcd(s.den, *s.num.values()) == 1
    assert s.val == _model_shadow(m)
    assert str(s) == _model_str(m)
    assert s.in_two_pi_Z() == _model_in_two_pi_z(m)
    assert s.is_zero() == (not m)


def test_exact_tier_matches_fraction_model():
    rnd = random.Random(20260)
    for _ in range(400):
        ma, mb, mc = _rand_model(rnd), _rand_model(rnd), _rand_model(rnd, terms=1)
        a, b, c = _build(ma), _build(mb), _build(mc)
        for s, m in ((a, ma), (b, mb)):
            _check(s, m)
            _check(-s, {k: -q for k, q in m.items()})
            _check(s.mod_two_pi(), _model_mod_two_pi(m))
        _check(a + b, _model_add(ma, mb))
        _check(a - b, _model_add(ma, {k: -q for k, q in mb.items()}))
        _check(a * b, _model_mul(ma, mb))
        if mc:
            ((m, q),) = mc.items()
            _check(a / c, {k - m: r / q for k, r in ma.items()})
            _check(a / q, {k: r / q for k, r in ma.items()})
        assert a.equals(b) == (ma == mb)
        assert (a + b).equals(b + a)


def test_exact_arithmetic_builds_no_fraction():
    import fractions

    rnd = random.Random(7)
    triples = [
        (_build(_rand_model(rnd)), _build(_rand_model(rnd)), _build(_rand_model(rnd, terms=1)))
        for _ in range(50)
    ]
    triples = [(a, b, c) for a, b, c in triples if not c.is_zero()]
    calls = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        for a, b, c in triples:
            s = (a + b) * a - b / c
            s = -s * 3 + s / 7
            s.is_zero(), s.equals(a), s.in_two_pi_Z()
            s.mod_two_pi().val
    finally:
        sys.setprofile(None)
    assert not calls, sorted(set(calls))


def _same(a, b):
    """Equal Scalars, structurally: the exact value, or tier F's float and tolerance."""
    return (a.num, a.den, a.val, a.tol) == (b.num, b.den, b.val, b.tol)


def test_scaled_with_a_pi_shift_is_the_product():
    rnd = random.Random(26)
    values = [
        Scalar.exact(Fraction(3, 4), 1),  # one pi power
        Scalar.exact(Fraction(-5, 6), 2) + Scalar.exact(Fraction(1, 3)) + Scalar.exact(7, -1),
        Scalar.approx(0.3, 1e-12),  # tier F
        Scalar.approx(-2.5e3, 1e-9),
    ]
    for c in values:
        for n in (0, 1, -1, 6, -35, 1024):
            for d in (1, 2, 35, 96):
                for s in (0, 1, -1, -4, 3):
                    got, want = c.scaled(n, d, s), c * Scalar.exact(Fraction(n, d), s)
                    if n:
                        assert _same(got, want), (c, n, d, s)
                    else:
                        assert got.is_exact and got.is_zero() and got.equals(want)
    # random exact values with several pi powers
    for _ in range(100):
        c = _build(_rand_model(rnd))
        n, d, s = rnd.randint(-50, 50), rnd.randint(1, 60), rnd.randint(-4, 4)
        assert _same(c.scaled(n, d, s), c * Scalar.exact(Fraction(n, d), s))
    assert Scalar.exact(2, 1).scaled(3, 4, -2).pi == {-1: Fraction(3, 2)}


# The Fraction-keyed Niven table that cos2pi and sin2pi read before they took
# the int residue of their argument, kept as their reference.
_REFERENCE_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 2): Fraction(-1),
    Fraction(1, 4): Fraction(0),
    Fraction(3, 4): Fraction(0),
    Fraction(1, 3): Fraction(-1, 2),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(5, 6): Fraction(1, 2),
}


def _reference_cos2pi(t):
    t = Fraction(t) % 1
    q = _REFERENCE_COS.get(t)
    if q is not None:
        return Scalar.exact(q)
    return Scalar.approx(math.cos(2.0 * math.pi * float(t)), 1e-14)


def _reference_sin2pi(t):
    t = Fraction(t) % 1
    q = _REFERENCE_COS.get((Fraction(1, 4) - t) % 1)
    if q is not None:
        return Scalar.exact(q)
    return Scalar.approx(math.sin(2.0 * math.pi * float(t)), 1e-14)


def test_trig_values_match_the_fraction_table():
    # the same tier, num/den, and bit for bit the same val and tol
    args = [Fraction(n, q) for q in range(1, 241) for n in range(-2 * q, 2 * q)]
    args += list(range(-5, 6))
    exact = 0
    for t in args:
        for got, want in ((cos2pi(t), _reference_cos2pi(t)), (sin2pi(t), _reference_sin2pi(t))):
            assert (got.num, got.den, got.val, got.tol) == (want.num, want.den, want.val, want.tol), t
            exact += got.is_exact
    assert exact > 1000  # every Niven value is met at many arguments


def test_trig_values_refuse_a_non_rational_argument():
    for t in (0.25, "1/4", Scalar.exact(1)):
        for fn in (cos2pi, sin2pi):
            with pytest.raises(TypeError):
                fn(t)


def test_a_float_scaled_past_the_float_range_is_a_size_limit():
    with pytest.raises(SizeLimitError):
        Scalar.approx(0.5).scaled(10**400, 3, 1)
    # (x1 - 1)^1500 has binomial coefficients past the float range
    with pytest.raises(SizeLimitError):
        translate(parse_expr("cos(2*pi*(x2 + 1/5))*x1^1500", 2), (1, 0))


def test_rand_scalar_is_the_drawn_fraction():
    got_rnd, want_rnd = random.Random(31), random.Random(31)
    for _ in range(300):
        got = rand_scalar(got_rnd)
        n, q, s = want_rnd.randint(-3, 3), want_rnd.choice((1, 2)), want_rnd.choice((0, 1))
        assert _same(got, Scalar.exact(Fraction(n, q), s)), (n, q, s)


def test_rand_scalar_builds_no_fraction():
    import fractions

    rnd = random.Random(32)
    with code_calls() as calls:
        for _ in range(100):
            rand_scalar(rnd)
    assert not [code.co_name for code in calls if code.co_filename == fractions.__file__]
