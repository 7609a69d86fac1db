from fractions import Fraction

import pytest

from torusgauge.cohomology import GroupCochain, cochain0, lattice_coboundary, linear_cochain
from torusgauge.forms import Form
from torusgauge.magnetic import LineData, translation_section
from torusgauge.polytrig import PolyTrig, shifted_sum, translate
from torusgauge.sampling import rand_gerbe_data, rand_line_data, rand_polytrig, rng
from torusgauge.scalar import Scalar
from tests_util import (
    coboundary,
    cocycle_law,
    is_cocycle,
    phase_is_one,
    rational_vec2,
    rational_vec3,
)

# The algebraic laws below run against the exponent-valued oracle in
# tests_util; the checker's boundary chains are compared with it in
# test_chain_oracle.py.


def linear_character(d, axis):
    """c(v) = exp(2*pi*i*v_axis*x_axis): a handy nontrivial 1-cochain."""

    def ev(args):
        (v,) = args
        alpha = tuple(1 if i == axis - 1 else 0 for i in range(d))
        return PolyTrig.monomial(d, alpha, Scalar.exact(2 * v[axis - 1], 1))

    return GroupCochain(1, d, ev)


def test_degree_zero_coboundary_definition(rnd):
    h = PolyTrig.cos_freq(2, (1, 0))
    b = GroupCochain(0, 2, lambda args: h)
    db = coboundary(b)
    for _ in range(5):
        v = rational_vec2(rnd)
        got = db(v)
        want = translate(h, v) - h
        assert phase_is_one(got - want)


def test_coboundary_of_constant_one_is_one(rnd):
    one = GroupCochain(1, 2, lambda args: PolyTrig.zero(2))
    d_one = coboundary(one)
    for _ in range(5):
        assert phase_is_one(d_one(rational_vec2(rnd), rational_vec2(rnd)))


def test_delta_squared_is_one(rnd):
    c = linear_character(2, 1)
    dd = coboundary(coboundary(c))
    for _ in range(8):
        args = tuple(rational_vec2(rnd) for _ in range(3))
        assert phase_is_one(dd(*args))


def test_delta_squared_degree_zero(rnd):
    b = GroupCochain(0, 2, lambda args: PolyTrig.sin_freq(2, (0, 1)))
    dd = coboundary(coboundary(b))
    for _ in range(5):
        assert phase_is_one(dd(rational_vec2(rnd), rational_vec2(rnd)))


def test_normalization_preserved_by_delta(rnd):
    c = linear_character(2, 2)
    dc = coboundary(c)
    z = (Fraction(0), Fraction(0))
    v = rational_vec2(rnd)
    assert phase_is_one(dc(z, v)) and phase_is_one(dc(v, z))


def test_magnetic_two_cocycle_is_cocycle(landau1, rnd):
    samples = [tuple(rational_vec2(rnd) for _ in range(3)) for _ in range(25)]
    assert cocycle_law(landau1, samples).passed


def test_associator_is_three_cocycle(gerbe_m2, rnd):
    samples = [tuple(rational_vec3(rnd) for _ in range(4)) for _ in range(15)]
    assert cocycle_law(gerbe_m2, samples).passed


def test_broken_equivariance_fails(rnd):
    # c(v, v', v'') = exp(i x1 v1 v'1 v''1) is not a cocycle
    def ev(args):
        v, vp, vpp = args
        coeff = Scalar.exact(v[0] * vp[0] * vpp[0])
        return PolyTrig.monomial(2, (1, 0), coeff)

    c = GroupCochain(3, 2, ev)
    samples = [
        ((1, 0), (1, 0), (1, 0), (1, 0)),
        (
            (Fraction(1, 2), Fraction(0)),
            (Fraction(1, 3), Fraction(0)),
            (1, 0),
            (1, 0),
        ),
    ]
    assert not is_cocycle(c, samples).passed


def test_constant_cochain_is_cocycle(rnd):
    one = GroupCochain(2, 2, lambda args: PolyTrig.zero(2))
    samples = [tuple(rational_vec2(rnd) for _ in range(3)) for _ in range(5)]
    assert is_cocycle(one, samples).passed


# ---------------------------------------------------------------------------
# coboundary relations: equivariant trivialization obstruction at desk scale


def flat_line_with_connection(alpha):
    """Trivial bundle (all f_i = 1) with the closed connection alpha dx1."""
    A = Form.one_form(2, {1: PolyTrig.const(2, alpha)})
    return LineData(2, {}, A)


def test_obstruction_cocycle_of_trivial_bundle(rnd):
    # A = 2*pi dx1: the section cochain is a coboundary of exp(2*pi*i*x1)
    line = flat_line_with_connection(Scalar.exact(2, 1))

    def lam(args):
        (v,) = args
        return translation_section(line, v)

    c = GroupCochain(1, 2, lam)
    pair_samples = [
        (rational_vec2(rnd), rational_vec2(rnd)) for _ in range(10)
    ]
    assert is_cocycle(c, pair_samples).passed
    witness = PolyTrig.monomial(2, (1, 0), Scalar.exact(2, 1))
    db = coboundary(GroupCochain(0, 2, lambda args: witness))
    for _ in range(10):
        v = rational_vec2(rnd)
        assert phase_is_one(c(v) - db(v))


def test_obstructed_cochain_is_not_that_coboundary(rnd):
    # A = pi dx1 is flat but not equivariantly trivial against the same witness
    line = flat_line_with_connection(Scalar.exact(1, 1))

    def lam(args):
        (v,) = args
        return translation_section(line, v)

    c = GroupCochain(1, 2, lam)
    witness = PolyTrig.monomial(2, (1, 0), Scalar.exact(2, 1))
    db = coboundary(GroupCochain(0, 2, lambda args: witness))
    samples = [(Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(0))]
    assert not all(phase_is_one(c(v) - db(v)) for v in samples)


def test_wrong_arity_call():
    c = GroupCochain(2, 2, lambda args: PolyTrig.zero(2))
    with pytest.raises(ValueError):
        c((1, 0))


def _lattice_cochains(rnd):
    """(name, d, degree, kappa): seeded random cochains on Z^d as parts functions."""
    d = rnd.choice((2, 3))
    return [
        ("function", d, 0, cochain0(rand_polytrig(rnd, d))),
        ("linear", d, 1, linear_cochain({a: rand_polytrig(rnd, d) for a in range(1, d + 1)})),
        ("line phi", 2, 1, rand_line_data(rnd).phi_parts),
        ("gerbe phi", 3, 2, rand_gerbe_data(rnd).phi_parts),
    ]


@pytest.mark.parametrize("seed", range(16))
def test_lattice_coboundary_squares_to_zero(seed):
    rnd = rng(seed)
    for name, d, degree, kappa in _lattice_cochains(rnd):

        def d_kappa(args, k=1, shift=None):
            return [(k, shifted_sum(d, lattice_coboundary(kappa, args)), shift)]

        args = tuple(
            tuple(rnd.randint(-2, 2) for _ in range(d)) for _ in range(degree + 2)
        )
        assert shifted_sum(d, lattice_coboundary(d_kappa, args)) == PolyTrig.zero(d), (name, args)
