import math
from fractions import Fraction

from torusgauge.scalar import Scalar, cos2pi, sin2pi


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
