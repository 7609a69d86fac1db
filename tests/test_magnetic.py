import itertools
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest

from torusgauge import cli, magnetic
from torusgauge.cli import load_scenario, run
from torusgauge.errors import PathError, TorusGaugeError
from torusgauge.expr import parse_expr
from torusgauge.forms import Form, PLPath, integrate_path
from torusgauge.magnetic import (
    LineData,
    PathSymmetry,
    check_connection,
    check_line_cocycle,
    check_section_membership,
    equivalence_gauge,
    holonomy_exponent,
    landau_line,
    lift_equivalence_check,
    lift_product,
    translation_section,
    two_cocycle,
)
from torusgauge.polytrig import PolyTrig, _Rows, constant_mod_free, translate
from torusgauge.sampling import rand_based_path, rand_path_pair, rand_periodic_gauge, rand_vector, rng
from torusgauge.scalar import Scalar

from tests_util import (
    is_exact,
    kernel_calls,
    lift_product_gauge,
    phase_descends,
    phase_is_one,
    projective_relation,
)

F2 = lambda s: parse_expr(s, 2)
DATA = Path(__file__).resolve().parent / "data"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

ALL_PAIRS_2 = [
    (i, j)
    for i in itertools.product(range(-2, 3), repeat=2)
    for j in itertools.product(range(-2, 3), repeat=2)
]


# ---------------------------------------------------------------------------
# cocycle checks


def test_landau_cocycle_passes(landau1):
    assert check_line_cocycle(landau1, ALL_PAIRS_2).passed


def test_landau_cocycle_slack_value(landau1):
    # direct algebra: phi_i(x) + phi_j(x+i) - phi_{i+j}(x) = 2 pi N j2 i1
    i, j = (2, 1), (-1, 2)
    slack = (
        landau1.phi(i)
        + translate(landau1.phi(j), [-x for x in i])
        - landau1.phi((1, 3))
    )
    r = constant_mod_free(slack)
    assert r is not None and r.in_two_pi_Z()


def test_zero_cocycle_passes():
    line = LineData(2, {})
    assert check_line_cocycle(line, ALL_PAIRS_2[:40]).passed


def test_half_flux_cocycle_fails():
    line = LineData(2, {2: F2("pi*x1")})
    rep = check_line_cocycle(line, [((0, 1), (1, 0))])
    assert not rep.passed


def test_word_synthesis_consistency(landau2):
    # any two synthesis orders differ by an element of 2 pi Z
    i = (2, -1)
    j = (-1, 2)
    direct = landau2.phi(tuple(a + b for a, b in zip(i, j)))
    composed = landau2.phi(i) + translate(landau2.phi(j), [-x for x in i])
    r = constant_mod_free(direct - composed)
    assert r is not None and r.in_two_pi_Z()


# ---------------------------------------------------------------------------
# connection


def test_landau_connection_passes(landau1):
    rep, B = check_connection(landau1)
    assert rep.passed
    assert B.equals(Form.two_form(2, {(1, 2): F2("2*pi")}))


def test_zero_connection():
    line = LineData(2, {}, Form.zero(2, 1))
    rep, B = check_connection(line)
    assert rep.passed and B.is_zero()


def test_constant_shift_is_gauge_freedom(landau1):
    shifted = LineData(
        2,
        landau1.generators,
        landau1.connection + Form.one_form(2, {1: F2("1")}),
    )
    rep, _ = check_connection(shifted)
    assert rep.passed
    assert any("gauge freedom" in n for n in rep.notes)


def test_wrong_connection_fails(landau1):
    bad = LineData(2, landau1.generators, Form.one_form(2, {1: F2("-2*pi*x1")}))
    rep, _ = check_connection(bad)
    assert not rep.passed


def test_missing_connection_raises():
    line = LineData(2, {})
    with pytest.raises(TorusGaugeError):
        translation_section(line, (Fraction(1, 2), Fraction(0)))


# ---------------------------------------------------------------------------
# sections


def landau_section_exponent(N, v):
    term = PolyTrig.monomial(2, (0, 1), Scalar.exact(2 * Fraction(N) * v[0], 1))
    const = PolyTrig.const(2, Scalar.exact(-Fraction(N) * v[0] * v[1], 1))
    return term + const


@pytest.mark.parametrize("N", [1, 2, 3])
def test_section_exponent_closed_form(N):
    line = landau_line(N)
    v = (Fraction(1, 2), Fraction(1, 3))
    got = translation_section(line, v)
    assert got == landau_section_exponent(N, v)


def test_section_at_zero_is_one(landau1):
    s = translation_section(landau1, (0, 0))
    assert phase_is_one(s)


def test_section_of_flat_connection_is_one():
    line = LineData(2, {}, Form.zero(2, 1))
    assert phase_is_one(translation_section(line, (Fraction(1, 3), Fraction(1, 7))))


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("v", [(Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(1, 3))])
def test_section_membership(N, v):
    assert check_section_membership(landau_line(N), v)[0].passed


def test_section_membership_trivial_v(landau1):
    assert check_section_membership(landau1, (0, 0))[0].passed


def test_corrupted_connection_fails_membership(landau1):
    bad = LineData(2, landau1.generators, Form.one_form(2, {1: F2("-2*pi*x2 + x2^2")}))
    rep, _ = check_section_membership(bad, (Fraction(1, 2), Fraction(1, 5)))
    assert not rep.passed


# ---------------------------------------------------------------------------
# twisting two-cocycle


def test_two_cocycle_constant_value(landau2):
    v = (Fraction(1, 2), Fraction(0))
    vp = (Fraction(0), Fraction(1, 2))
    c = two_cocycle(landau2, v, vp)
    r = constant_mod_free(c)
    # -pi N (v'1 v2 - v'2 v1) = -pi*2*(0 - 1/4) = pi/2
    assert r is not None and r.pi == {1: Fraction(1, 2)}


def test_two_cocycle_degenerate(landau1):
    v = (Fraction(1, 3), Fraction(2, 5))
    assert phase_is_one(two_cocycle(landau1, v, v))


def test_two_cocycle_flat():
    line = LineData(2, {}, Form.zero(2, 1))
    assert phase_is_one(two_cocycle(line, (1, 0), (Fraction(1, 2), Fraction(1, 2))))


def test_two_cocycle_descends(landau2, rnd):
    from tests_util import rational_vec2

    for _ in range(5):
        v, vp = rational_vec2(rnd), rational_vec2(rnd)
        c = two_cocycle(landau2, v, vp)
        assert phase_descends(c)


def test_projective_relation_random(landau1, rnd):
    from tests_util import rational_vec2

    for _ in range(20):
        v, vp = rational_vec2(rnd), rational_vec2(rnd)
        rep, _ = projective_relation(landau1, v, vp)
        assert rep.passed


def test_projective_relation_trivial_vp(landau1):
    rep, c = projective_relation(landau1, (Fraction(1, 2), Fraction(1, 3)), (0, 0))
    assert rep.passed and phase_is_one(c)


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_unit_cell(landau2):
    square = PLPath([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    r = holonomy_exponent(landau2, square)
    assert r.pi == {1: Fraction(4)}  # 2 pi N


def test_holonomy_half_cell(landau1):
    h = Fraction(1, 2)
    square = PLPath([(0, 0), (h, 0), (h, h), (0, h), (0, 0)])
    r = holonomy_exponent(landau1, square)
    assert r.pi == {1: Fraction(1, 2)}  # 2 pi N / 4


def test_holonomy_constant_connection_trivial():
    line = LineData(2, {}, Form.one_form(2, {1: F2("3"), 2: F2("-2")}))
    tri = PLPath([(0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 3)), (0, 0)])
    assert holonomy_exponent(line, tri).is_zero()


def test_holonomy_open_path_rejected(landau1):
    with pytest.raises(PathError):
        holonomy_exponent(landau1, PLPath([(0, 0), (1, 0)]))


def test_holonomy_winding_loop(landau1):
    # straight lift 0 -> e2 closes on the torus through the transition phase
    lift = PLPath([(0, 0), (0, 1)])
    r = holonomy_exponent(landau1, lift, on_torus=True)
    assert r.is_zero()
    with pytest.raises(PathError):
        holonomy_exponent(landau1, PLPath([(0, 0), (Fraction(1, 2), 0)]), on_torus=True)


def test_winding_holonomy_lift_invariance(landau2):
    # translating the lift by a lattice vector describes the same torus loop,
    # so the holonomy must not change mod 2*pi
    base = PLPath([(0, 0), (Fraction(1, 3), Fraction(1, 2)), (1, 1)])
    r1 = holonomy_exponent(landau2, base, on_torus=True)
    for e in [(1, 0), (0, 1), (2, -1)]:
        r2 = holonomy_exponent(landau2, PLPath([tuple(map(add, w, e)) for w in base.vertices]), on_torus=True)
        assert (r1 - r2).in_two_pi_Z()


# ---------------------------------------------------------------------------
# path symmetries (the extension product)


def test_lift_product_straight_paths(landau1):
    u, w = (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))
    a = PathSymmetry(PLPath([(0, 0), u]), PolyTrig.zero(2))
    b = PathSymmetry(PLPath([(0, 0), w]), PolyTrig.zero(2))
    got = lift_product(a, b, landau1).gauge
    r = constant_mod_free(got)
    # pi N (u1 w2 - u2 w1) = pi/4; sign pinned by the operator product
    assert r is not None and r.pi == {1: Fraction(1, 4)}


def test_lift_product_matches_two_cocycle(landau2, rnd):
    # straight-path lifts reproduce the magnetic translation algebra
    from tests_util import rational_vec2

    for _ in range(10):
        u, w = rational_vec2(rnd), rational_vec2(rnd)
        a = PathSymmetry(PLPath([(0, 0), u]), PolyTrig.zero(2))
        b = PathSymmetry(PLPath([(0, 0), w]), PolyTrig.zero(2))
        prod = lift_product(a, b, landau2)
        c = two_cocycle(landau2, u, w)
        # the product path is again the straight path to u+w, so the gauge
        # part must be exactly the twisting phase
        assert phase_is_one(prod.gauge - c)


def test_unit_laws(landau1, rnd):
    unit = PathSymmetry.unit(2)
    for _ in range(5):
        a = PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
        left = lift_product(unit, a, landau1)
        right = lift_product(a, unit, landau1)
        assert phase_is_one(left.gauge - a.gauge)
        assert phase_is_one(right.gauge - a.gauge)
        assert left.path.vertices[-1] == a.path.vertices[-1]


def test_unit_law_products_integrate_nothing_new(landau1, rnd):
    unit = PathSymmetry.unit(2)
    a = PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
    integrate_path(landau1.require_connection(), a.path)
    with kernel_calls() as calls:
        right = lift_product(a, unit, landau1)
        left = lift_product(unit, a, landau1)
    assert calls[0] == 0
    assert right.path is a.path and left.path is a.path
    assert phase_is_one(right.gauge - a.gauge) and phase_is_one(left.gauge - a.gauge)


def test_associativity_exact(landau1, rnd):
    for _ in range(15):
        x, y, z = (
            PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
            for _ in range(3)
        )
        lhs = lift_product(lift_product(x, y, landau1), z, landau1)
        rhs = lift_product(x, lift_product(y, z, landau1), landau1)
        assert lhs.path.vertices == rhs.path.vertices
        assert phase_is_one(lhs.gauge - rhs.gauge)


def test_endpoint_is_homomorphism(landau1, rnd):
    a = PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
    b = PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
    p = lift_product(a, b, landau1)
    end = lambda s: s.path.vertices[-1]
    assert end(p) == tuple(x + y for x, y in zip(end(a), end(b)))


def test_path_symmetry_requires_base_point():
    with pytest.raises(PathError):
        PathSymmetry(PLPath([(1, 0), (0, 0)]), PolyTrig.zero(2))


def test_equivalence_check(landau1, rnd):
    end = (Fraction(1, 2), Fraction(1, 3))
    gamma = PLPath([(0, 0), end])
    alpha = PLPath([(0, 0), (Fraction(0), Fraction(1, 2)), end])
    probe = PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
    rep = lift_equivalence_check(landau1, gamma, alpha, rand_periodic_gauge(rnd, 2), probe)
    assert rep.passed


def test_equivalence_same_path_trivial(landau1, rnd):
    gamma = PLPath([(0, 0), (Fraction(1, 2), 0)])
    h = equivalence_gauge(landau1, gamma, gamma)
    assert phase_is_one(h)


def test_corrupted_equivalence_gauge_fails(landau1, rnd):
    end = (Fraction(1, 2), Fraction(1, 3))
    gamma = PLPath([(0, 0), end])
    alpha = PLPath([(0, 0), (Fraction(1, 2), Fraction(1, 2)), end])
    h = equivalence_gauge(landau1, gamma, alpha)
    assert not phase_is_one(h)  # the loop has nonzero flux, so corruption matters
    phi = rand_periodic_gauge(rnd, 2)
    probe = PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
    a1 = PathSymmetry(gamma, phi)
    bad = PathSymmetry(alpha, -h + phi)  # wrong sign
    p1 = lift_product(a1, probe, landau1)
    p2 = lift_product(bad, probe, landau1)
    slack = p1.invariant_exponent(landau1) - p2.invariant_exponent(landau1)
    r = constant_mod_free(slack)
    assert r is None or not r.in_two_pi_Z()


def test_drawn_paths_are_the_rational_constructions():
    # the paths are drawn as int numerators and denominators; the same draws
    # as rational vertices give the same paths and leave rnd in the same state
    for seed in range(30):
        for d in (1, 2, 3):
            new, old = rng(seed), rng(seed)
            got = rand_based_path(new, d)
            want = PLPath([(0,) * d, rand_vector(old, d, 2, (1, 2, 3)), rand_vector(old, d, 2, (1, 2, 3))])
            assert (got._points, got._den) == (want._points, want._den)
            assert new.getstate() == old.getstate()
            gamma, alpha = rand_path_pair(new, d)
            end, mid = rand_vector(old, d, 2, (1, 2)), rand_vector(old, d, 2, (1, 2))
            for got, want in ((gamma, PLPath([(0,) * d, end])), (alpha, PLPath([(0,) * d, mid, end]))):
                assert (got._points, got._den) == (want._points, want._den)
            assert new.getstate() == old.getstate()


def test_lift_product_gauge_is_the_rational_shift_sum(landau1, rnd):
    # one translation read off the right path's int endpoint gives the
    # gauge of the five-part shifted_sum with rational vneg(end) shifts,
    # float-tier coefficients included: the endpoints in sixths put waves at
    # sixth-turn phases
    sixths = [
        PLPath([(0, 0), (Fraction(1, 6), Fraction(-1, 3))]),
        PLPath([(0, 0), (Fraction(1, 2), 0), (Fraction(2, 3), Fraction(5, 6))]),
    ]
    wave = F2("cos(2*pi*x1) + 3*sin(2*pi*(x1 - x2))")
    floats = 0
    for line in (landau1, load_scenario(DATA / "tier_f_line.json").data):
        for _ in range(8):
            a = PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
            b = PathSymmetry(rand_based_path(rnd, 2), rand_periodic_gauge(rnd, 2))
            pairs = [(a, b), (b, a)]
            pairs += [(PathSymmetry(a.path, wave), PathSymmetry(p, b.gauge)) for p in sixths]
            for x, y in pairs:
                got = lift_product(x, y, line).gauge
                assert got == lift_product_gauge(x, y, line)
                floats += not is_exact(got)
    assert floats


def test_sym_product_hashes_no_fraction_and_translates_once(monkeypatch, capsys):
    # Paths stay int points over one denominator from the draw to the
    # translation: they key and compare by those ints, and each product
    # translates both shifted parts along one _Rows of the right path's int
    # endpoint, so the command hashes no Fraction.  Path ends are compared in
    # ints too: the Fractions left are the phases of _expand_into.
    hashes = [0]
    fractions = []  # Fractions made per config
    fraction_new = Fraction.__new__
    made = []  # translation _Rows built per lift_product call
    inside = [False]
    fraction_hash = Fraction.__hash__
    init = _Rows.__init__
    product = magnetic.lift_product

    def hashing(self):
        hashes[0] += 1
        return fraction_hash(self)

    def rows(self, lin, trans, in_dim, den, cols=()):
        if inside[0] and lin is None and not cols:
            made[-1] += 1
        init(self, lin, trans, in_dim, den, cols)

    def making(cls, *args, **kwargs):
        fractions[-1] += 1
        return fraction_new(cls, *args, **kwargs)

    def counted(*args):
        made.append(0)
        inside[0] = True
        try:
            return product(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Fraction, "__hash__", hashing)
    monkeypatch.setattr(Fraction, "__new__", making)
    monkeypatch.setattr(_Rows, "__init__", rows)
    monkeypatch.setattr(magnetic, "lift_product", counted)
    monkeypatch.setattr(cli, "lift_product", counted)
    for config in (SCENARIOS / "landau_n1.json", DATA / "tier_f_line.json"):
        fractions.append(0)
        assert run(["sym-product", "--config", str(config), "--seed", "0"]) == 0
    capsys.readouterr()
    assert hashes[0] == 0
    assert fractions == [68, 14]
    assert made and max(made) == 1, made


# ---------------------------------------------------------------------------
# randomized conforming data: the projective relation is a theorem


def test_projective_relation_on_random_conforming_data(rnd):
    from torusgauge.sampling import rand_line_data

    pairs = [
        (i, j)
        for i in itertools.product(range(-1, 2), repeat=2)
        for j in itertools.product(range(-1, 2), repeat=2)
    ]
    for _ in range(5):
        line = rand_line_data(rnd)
        assert check_line_cocycle(line, pairs).passed
        rep, _B = check_connection(line)
        assert rep.passed
        from tests_util import rational_vec2

        for _ in range(4):
            v, vp = rational_vec2(rnd), rational_vec2(rnd)
            assert check_section_membership(line, v)[0].passed
            r2, _c = projective_relation(line, v, vp)
            assert r2.passed
