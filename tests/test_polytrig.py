import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from torusgauge.errors import (
    DimensionError,
    ExprSyntaxError,
    FrequencyError,
    NonRealExpressionError,
)
from torusgauge.expr import parse_expr, print_expr
from torusgauge.forms import integrate_simplex
from torusgauge.polytrig import (
    MODE_COS,
    MODE_NONE,
    MODE_SIN,
    PolyTrig,
    constant_mod_free,
    translate,
    value_at,
    _Acc,
    _expand_into,
    _merge,
    _reduce_scaled,
)
from torusgauge.reports import CheckReport, phase_item
from torusgauge.sampling import rand_form, rand_polytrig, rand_simplex, rng
from torusgauge.scalar import DEFAULT_TOL, DROP_EPS, Scalar, cos2pi, sin2pi
from tests_util import assert_int_key, is_exact, phase_descends, phase_is_one, rand_polytrig_by_add, trig_term

# ---------------------------------------------------------------------------
# parsing


def test_parse_single_term_literal():
    f = parse_expr("2*pi*3*x1", 2)
    assert len(f.terms) == 1
    ((alpha, mode, freq),) = f.terms
    assert alpha == (1, 0) and mode == 0
    assert f.terms[(alpha, mode, freq)].pi == {1: Fraction(6)}


def test_parse_euler_expansion():
    # in the complex-exponential basis this is (1/2) x2 e^{+-2 pi i x1}
    f = parse_expr("x2*cos(2*pi*x1)", 2)
    assert len(f.terms) == 1
    g = parse_expr("x2*(exp2pii(x1) + exp2pii(-1*x1))", 2)
    assert g == f + f


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as ei:
        parse_expr("exp是", 1)
    assert ei.value.position == 3


def test_parse_dimension_and_frequency_errors():
    with pytest.raises(DimensionError):
        parse_expr("x3", 2)
    with pytest.raises(FrequencyError):
        parse_expr("cos(pi*x1)", 1)  # frequency 1/2
    with pytest.raises(FrequencyError):
        parse_expr("cos(2*pi*x1 + 1)", 1)  # phase 1/(2*pi)
    assert parse_expr("cos(2*pi*x1 + pi)", 1) == -parse_expr("cos(2*pi*x1)", 1)
    assert parse_expr("cos(2*pi*(x1 + 1/5))", 1) == parse_expr("cos(2*pi*x1 + 2/5*pi)", 1)
    with pytest.raises(NonRealExpressionError):
        parse_expr("exp2pii(x1)", 1)


def test_parse_rational_and_decimal_numbers():
    assert parse_expr("1/3*x1", 1) == PolyTrig.monomial(1, (1,), Fraction(1, 3))
    assert parse_expr("0.5*x1", 1) == PolyTrig.monomial(1, (1,), Fraction(1, 2))


def test_roundtrip_on_random_canonical_forms():
    r = rng(101)
    for _ in range(40):
        f = rand_polytrig(r, 2, n_terms=3)
        assert parse_expr(print_expr(f), 2) == f
    for _ in range(20):
        f = rand_polytrig(r, 3, n_terms=2)
        assert parse_expr(print_expr(f), 3) == f


def test_unit_pi_coefficients_print_as_scalars_do():
    assert str(parse_expr("-pi*x1", 2)) == "-pi*x1"
    assert str(parse_expr("pi*x1 - pi^2*x2", 2)) == "-pi^2*x2 + pi*x1"
    assert str(parse_expr("(1 - pi)*x1", 2)) == "(1 - pi)*x1"


def test_roundtrip_negative_pi_powers():
    f = parse_expr("cos(2*pi*x1)", 1).antiderivative(1)
    assert parse_expr(print_expr(f), 1) == f


# ---------------------------------------------------------------------------
# arithmetic


def test_additive_inverse_and_products():
    x1 = PolyTrig.var(2, 1)
    assert (x1 + (-x1)).terms == {}
    assert (x1 * x1) == PolyTrig.monomial(2, (2, 0))
    e = parse_expr("exp2pii(x1)*exp2pii(-1*x1)", 2)
    assert e == PolyTrig.const(2, 1)


def test_ring_axioms_on_random_exact_triples():
    r = rng(7)
    for _ in range(25):
        a, b, c = (rand_polytrig(r, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_product_against_pointwise_values():
    r = rng(8)
    pts = [(0.3, 0.7), (1.25, -0.4)]
    for _ in range(10):
        a, b = rand_polytrig(r, 2), rand_polytrig(r, 2)
        ab = a * b
        for p in pts:
            assert math.isclose(
                ab.eval_float(p), a.eval_float(p) * b.eval_float(p), abs_tol=1e-9
            )


# ---------------------------------------------------------------------------
# partial derivatives (finite-difference oracle)


def test_partial_basic_examples():
    f = parse_expr("2*pi*5*x2*x1", 2)
    assert f.partial(1) == parse_expr("2*pi*5*x2", 2)
    g = parse_expr("cos(2*pi*x1)", 2)
    assert g.partial(1) == parse_expr("-2*pi*sin(2*pi*x1)", 2)
    assert parse_expr("x1", 2).partial(2).terms == {}


def test_partial_matches_finite_differences():
    r = rng(9)
    h = 1e-6
    for _ in range(10):
        f = rand_polytrig(r, 2)
        for axis in (1, 2):
            df = f.partial(axis)
            for p in [(0.37, 0.81), (-0.9, 0.13)]:
                q = list(p)
                q[axis - 1] += h
                m = list(p)
                m[axis - 1] -= h
                fd = (f.eval_float(q) - f.eval_float(m)) / (2 * h)
                assert math.isclose(df.eval_float(p), fd, abs_tol=5e-5, rel_tol=1e-4)


def test_mixed_partials_commute_exactly():
    r = rng(10)
    for _ in range(15):
        f = rand_polytrig(r, 3)
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            assert f.partial(a).partial(b) == f.partial(b).partial(a)


# ---------------------------------------------------------------------------
# pullbacks


def test_translation_examples():
    f = PolyTrig.var(2, 1)
    assert translate(f, (-1, 0)) == f + PolyTrig.const(2, 1)
    g = parse_expr("cos(2*pi*x1)", 2)
    assert translate(g, (1, 0)) == g  # integer translation invariance


def test_line_parametrization_substitution():
    # x1 restricted to t -> x - v + t v in the 1d parameter
    f = PolyTrig.var(2, 1)
    v = (Fraction(1, 2), Fraction(1, 3))
    out = f._pullback([[v[0]], [v[1]]], [2 - v[0], 0], 1)
    assert out == PolyTrig.monomial(1, (1,), Fraction(1, 2)) + PolyTrig.const(
        1, Fraction(3, 2)
    )


def test_pullback_functoriality_exact():
    r = rng(11)
    lin1, trans1 = [[1, 2], [0, 1]], [Fraction(1, 2), Fraction(-1)]
    lin2, trans2 = [[1, 0], [3, 1]], [Fraction(2), Fraction(1, 3)]
    # m1 after m2: y -> L1 (L2 y + t2) + t1
    lin12, trans12 = [[7, 2], [3, 1]], [Fraction(19, 6), Fraction(-2, 3)]
    for _ in range(10):
        f = rand_polytrig(r, 2, freq_step=1, n_terms=2, max_deg=2)
        lhs = f._pullback(lin1, trans1, 2)._pullback(lin2, trans2, 2)
        rhs = f._pullback(lin12, trans12, 2)
        assert lhs == rhs


def _rand_phased_polytrig(r, d):
    """Polynomial and trig terms with integer frequencies and rational phases."""
    f = PolyTrig.zero(d)
    for n in range(4):
        alpha = tuple(r.randint(0, 2) for _ in range(d))
        c = Scalar.exact(Fraction(r.randint(-9, 9), r.randint(1, 5)), r.randint(0, 1))
        poly = PolyTrig.monomial(d, alpha, c)
        if n % 2:
            f = f + poly
            continue
        freq = [r.randint(-2, 2) for _ in range(d)]
        phase = Fraction(r.randint(-5, 5), r.choice((1, 3, 4, 5, 7)))
        f = f + poly * trig_term(d, 1 + n % 4 // 2, freq, phase)
    return f


def test_pullback_matches_composition_pointwise():
    r = random.Random(41)
    for _ in range(40):
        out_dim, in_dim = r.randint(1, 3), r.randint(1, 3)
        f = _rand_phased_polytrig(r, out_dim)
        lin = [[r.randint(-2, 2) for _ in range(in_dim)] for _ in range(out_dim)]
        trans = [Fraction(r.randint(-7, 7), r.randint(1, 6)) for _ in range(out_dim)]
        g = f._pullback(lin, trans, in_dim)
        for _ in range(3):
            y = [r.uniform(-1.5, 1.5) for _ in range(in_dim)]
            x = [sum(l * yj for l, yj in zip(row, y)) + float(t) for row, t in zip(lin, trans)]
            assert math.isclose(g.eval_float(y), f.eval_float(x), rel_tol=1e-9, abs_tol=1e-9)


def test_identity_map_acts_trivially():
    r = rng(12)
    for _ in range(5):
        f = rand_polytrig(r, 2)
        assert f._pullback([[1, 0], [0, 1]], (0, 0), 2) == f


def test_noninteger_shift_of_trig_degrades_to_floats():
    g = parse_expr("sin(2*pi*x1)", 1)
    out = translate(g, (Fraction(1, 5),))
    assert not is_exact(out)
    # values still agree
    for x in (0.2, 0.9):
        assert math.isclose(
            out.eval_float((x,)),
            math.sin(2 * math.pi * (x - 0.2)),
            abs_tol=1e-12,
        )


# ---------------------------------------------------------------------------
# antiderivatives


def test_antiderivative_examples():
    one = PolyTrig.const(1, 1)
    assert one.antiderivative(1) == PolyTrig.var(1, 1)
    t = PolyTrig.var(1, 1)
    assert t.antiderivative(1) == PolyTrig.monomial(1, (2,), Fraction(1, 2))
    # real form of (e^{2 pi i t} - 1)/(2 pi i): both components
    c = parse_expr("cos(2*pi*x1)", 1).antiderivative(1)
    assert c == parse_expr("1/2*pi^-1*sin(2*pi*x1)", 1)
    s = parse_expr("sin(2*pi*x1)", 1).antiderivative(1)
    assert s == parse_expr("1/2*pi^-1 - 1/2*pi^-1*cos(2*pi*x1)", 1)


def test_antiderivative_then_partial_recovers_exactly():
    r = rng(13)
    for _ in range(20):
        f = rand_polytrig(r, 1, n_terms=3, max_deg=3)
        F = f.antiderivative(1)
        assert F.partial(1) == f
        assert F.substitute(1, {}, Fraction(0)).terms == {}


def test_antiderivative_quadrature_oracle():
    r = rng(14)
    for _ in range(8):
        f = rand_polytrig(r, 1, n_terms=2)
        F = f.antiderivative(1)
        # Simpson oracle for int_0^b f
        for b in (0.5, 1.0):
            n = 400
            h = b / n
            s = f.eval_float((0.0,)) + f.eval_float((b,))
            for i in range(1, n):
                s += f.eval_float((i * h,)) * (4 if i % 2 else 2)
            assert math.isclose(F.eval_float((b,)), s * h / 3, abs_tol=1e-8)


# ---------------------------------------------------------------------------
# constants mod 2*pi and U(1) phases as exponents


def test_constant_mod_examples():
    r = constant_mod_free(parse_expr("4*pi", 2))
    assert r is not None and r.mod_two_pi().is_zero()
    # landau-type slack constant: 2*pi*N*j2*i1 with integers
    s = constant_mod_free(parse_expr("2*pi*3*2", 2))
    assert s is not None and s.mod_two_pi().is_zero()
    assert constant_mod_free(parse_expr("x1", 2)) is None


def test_u1_equality_mod_2pi():
    f = parse_expr("2*pi*x1", 1)
    g = parse_expr("2*pi*x1 + 4*pi", 1)
    h = parse_expr("2*pi*x1 + pi", 1)
    assert phase_is_one(f - g)
    assert not phase_is_one(f - h)


def test_u1_periodicity():
    assert phase_descends(parse_expr("2*pi*3*x1", 2))
    assert phase_descends(parse_expr("cos(2*pi*x2)", 2))
    assert not phase_descends(parse_expr("pi*x1", 2))


# ---------------------------------------------------------------------------
# limit substitution


def _substitution_pullback(f, axis, coeffs, const):
    """Reference: x_axis -> sum(coeffs[j] x_j) + const as a generic affine pullback."""
    rows = [
        tuple(
            Fraction(coeffs.get(j + 1, 0) if i == axis - 1 else int(i == j))
            for j in range(f.dim)
        )
        for i in range(f.dim)
    ]
    trans = [Fraction(0)] * f.dim
    trans[axis - 1] = Fraction(const)
    return f._pullback(tuple(rows), tuple(trans), f.dim)


def _rand_rational_polytrig(r, d):
    """Terms with integer frequencies and rational phases, exact coefficients
    built as sums (so their float shadows are not recomputed from pi) and one
    tier-F one."""
    f = PolyTrig.zero(d)
    for n in range(5):
        alpha = tuple(r.randint(0, 2) for _ in range(d))
        if n == 0:
            c = Scalar.approx(r.uniform(-3, 3), 1e-12)
        else:
            c = Scalar.exact(Fraction(r.randint(-9, 9), r.randint(1, 7)), r.randint(-1, 1))
            c = c + Scalar.exact(Fraction(r.randint(1, 9), r.randint(1, 7)), r.randint(0, 2))
        if n % 3 == 2:
            f = f + PolyTrig.monomial(d, alpha, c)
            continue
        freq = [r.randint(-3, 3) for _ in range(d)]
        phase = Fraction(r.randint(-5, 5), r.choice((1, 3, 4, 5, 6)))
        f = f + PolyTrig.monomial(d, alpha) * trig_term(d, 1 + n % 2, freq, phase, c)
    return f


def test_substitute_matches_affine_pullback():
    r = random.Random(31)
    for d in (2, 3):
        for _ in range(40):
            f = _rand_rational_polytrig(r, d)
            a = r.randint(1, d)
            b = r.choice([j for j in range(1, d + 1) if j != a])
            for coeffs, const in (
                ({b: Fraction(1)}, Fraction(0)),
                ({}, Fraction(0)),
                ({}, Fraction(1)),
                ({}, Fraction(1, 3)),
            ):
                got = f.substitute(a, coeffs, const)
                want = _substitution_pullback(f, a, coeffs, const)
                assert got.terms.keys() == want.terms.keys()
                for key, c in got.terms.items():
                    w = want.terms[key]
                    assert (c.pi, c.val, c.tol) == (w.pi, w.val, w.tol), (key, coeffs, const)


def test_antiderivative_to_a_limit_is_antiderivative_then_substitute():
    r = random.Random(37)
    exact_cases = 0
    for d in (1, 2, 3):
        for _ in range(30):
            f = _rand_rational_polytrig(r, d) + _rand_phased_polytrig(r, d)
            exact = PolyTrig(d, {k: c for k, c in f.terms.items() if c.is_exact})
            for axis in range(1, d + 1):
                F = exact.antiderivative(axis)
                assert F.partial(axis) == exact
                assert F.substitute(axis, {}, 0).is_zero(1e-12)
                limits = [({}, Fraction(1)), ({}, Fraction(-2, 3))]
                limits += [({b: 1}, 0) for b in range(1, d + 1) if b != axis]
                for coeffs, const in limits:
                    want = F.substitute(axis, coeffs, const)
                    got = exact.antiderivative(axis, coeffs, const)
                    if is_exact(want):
                        assert got == want
                        exact_cases += 1
                    else:
                        # a trig term at a rational phase folded into a float
                        # coefficient, and the two sum in different orders
                        assert got.equals(want, 1e-12)
                    got = f.antiderivative(axis, coeffs, const)
                    assert got.equals(f.antiderivative(axis).substitute(axis, coeffs, const), 1e-12)
    assert exact_cases > 100
    with pytest.raises(ValueError):
        PolyTrig.var(2, 1).antiderivative(1, {1: 1}, 0)


def test_substitute_rejects_other_shapes():
    f = parse_expr("x1*x2 + cos(2*pi*(x1 - x2))", 2)
    for axis, coeffs, const in (
        (1, {2: Fraction(2)}, Fraction(0)),
        (1, {2: Fraction(1)}, Fraction(1)),
        (1, {1: Fraction(1)}, Fraction(0)),
        (1, {2: Fraction(1), 1: Fraction(1)}, Fraction(0)),
        (1, {}, Scalar.exact(1, 1)),
        (1, {}, 0.5),
    ):
        with pytest.raises(ValueError):
            f.substitute(axis, coeffs, const)
    with pytest.raises(DimensionError):
        f.substitute(3, {}, Fraction(0))


# ---------------------------------------------------------------------------
# canonical term keys


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _scenario_exprs():
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text())
        d = doc["dimension"]
        texts = list(doc["cocycle"].values())
        for comps in (doc.get("connection", {}), doc.get("curving", {})):
            for v in comps.values():
                texts.extend(v.values() if isinstance(v, dict) else [v])
        for text in texts:
            yield parse_expr(text, d)


def test_rand_polytrig_matches_its_term_by_term_sum():
    # one accumulator instead of one __add__ per term: the same draws give
    # the same function, down to the order of its terms
    shapes = [(1, {"n_terms": 3, "max_deg": 3}), (2, {}), (3, {"freq_step": 2, "n_terms": 4})]
    for seed in range(25):
        for d, kwargs in shapes:
            a, b = rng(seed), rng(seed)
            got, want = rand_polytrig(a, d, **kwargs), rand_polytrig_by_add(b, d, **kwargs)
            assert got == want and list(got.terms) == list(want.terms)
            assert a.random() == b.random()


def _public_results():
    yield from _scenario_exprs()
    r = rng(23)
    for d in (1, 2, 3):
        for step in (1, 2):
            f = rand_polytrig(r, d, freq_step=step, n_terms=4)
            yield f
            for dens in ((1, 2, 3), (5,), (7,)):
                yield translate(f, [Fraction(r.randint(-5, 5), r.choice(dens)) for _ in range(d)])
            lin = [[Fraction(r.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
            trans = [Fraction(r.randint(-7, 7), r.randint(1, 6)) for _ in range(d)]
            yield f._pullback(lin, trans, d)
            # value_at composes with the constant map onto the point
            yield f._pullback([()] * d, [Fraction(r.randint(-7, 7), r.randint(1, 7)) for _ in range(d)], 0)
            for axis in range(1, d + 1):
                limits = [({}, Fraction(1, 3)), ({}, Fraction(-2, 3))]
                limits += [({b: 1}, 0) for b in range(1, d + 1) if b != axis]
                yield f.antiderivative(axis)
                for coeffs, const in limits:
                    yield f.substitute(axis, coeffs, const)
                    yield f.antiderivative(axis, coeffs, const)
        for degree in range(d):
            yield from rand_form(r, d, degree).d().comps.values()
    for k in (1, 2, 3):
        for den in (2, 3, 5, 7):
            omega = rand_form(r, 3, k)
            yield integrate_simplex(omega, rand_simplex(r, 3, k, den=den))


def test_public_results_have_int_only_keys():
    seen = 0
    for f in _public_results():
        for key in f.terms:
            assert_int_key(key)
            seen += 1
    assert seen > 100


def test_public_constructors_make_canonical_keys():
    # every key is (alpha, mode, freq) of ints; a float or Fraction frequency
    # is read as the integer it is
    made = [
        PolyTrig.zero(2),
        PolyTrig.const(2, Fraction(3, 4)),
        PolyTrig.var(2, 1),
        PolyTrig.monomial(2, (1, 2), Fraction(-1, 3)),
        PolyTrig.trig(2, MODE_COS, (Fraction(2), -1)),
        PolyTrig.trig(2, MODE_SIN, (-1.0, 0), Fraction(1, 5)),
        PolyTrig.cos_freq(2, (0, Fraction(-3))),
        PolyTrig.sin_freq(2, (-2, 1), 3),
    ]
    for f in made:
        for key in f.terms:
            assert_int_key(key)
    # a frequency off the integer lattice makes no canonical value
    for make in (PolyTrig.cos_freq, PolyTrig.sin_freq, lambda d, q: PolyTrig.trig(d, MODE_SIN, q)):
        for bad in ((Fraction(1, 2), 0), (0, 0.5)):
            with pytest.raises(FrequencyError):
                make(2, bad)


def test_mixed_int_and_fraction_keys_meet():
    a = PolyTrig.trig(2, MODE_COS, (Fraction(2), 1)) + PolyTrig.trig(2, MODE_COS, (2, 1))
    assert len(a.terms) == 1
    assert not (PolyTrig.trig(2, MODE_COS, (Fraction(1), 0)) - PolyTrig.cos_freq(2, (1, 0))).terms
    f = PolyTrig.const(2, 5) + PolyTrig.cos_freq(2, (1, 0))
    assert f.constant_term().pi == {0: 5}
    g = PolyTrig.var(2, 1).substitute(1, {}, Fraction(3))
    assert g.terms[((0, 0), MODE_NONE, (Fraction(0), Fraction(0)))].pi == {0: 3}
    # a frequency off the integer lattice makes no value, internal or public
    with pytest.raises(FrequencyError):
        trig_term(2, MODE_COS, (Fraction(1, 2), 1), 0)


def test_pullback_off_the_integer_lattice_raises():
    # x -> y/2 pulls cos(2*pi*x) back to cos(pi*y): no canonical key holds it,
    # whether the pulled phase is 0 or not
    for shift in (0, Fraction(1, 3)):
        with pytest.raises(FrequencyError):
            PolyTrig.cos_freq(1, (1,))._pullback([[Fraction(1, 2)]], [shift], 1)
    with pytest.raises(FrequencyError):
        parse_expr("x2*sin(2*pi*(x1 + x2))", 2)._pullback([[1, 0], [0, Fraction(2, 3)]], [0, 0], 2)
    # a rational linear part whose pulled frequencies are integral is fine
    g = PolyTrig.cos_freq(2, (3, 0))._pullback([[Fraction(1, 3), 0], [0, 1]], [0, 0], 2)
    assert g == PolyTrig.cos_freq(2, (1, 0))


# ---------------------------------------------------------------------------
# canonical keys: put canonicalises, ring ops on canonical operands merge


def _scalar_id(c):
    return (tuple(sorted(c.num.items())), c.den) if c.is_exact else (c.val, c.tol)


def _items(f):
    return [(k, _scalar_id(c)) for k, c in f.terms.items()]


def _put_all(d, pairs):
    """A PolyTrig from (key, coefficient) pairs, each put through one fresh _Acc."""
    acc = _Acc(d)
    for (alpha, mode, freq), c in pairs:
        acc.put(alpha, mode, freq, c)
    return acc.done()


def _assert_canonical(f):
    # every key is already what put makes of it, in the same order
    assert _items(f) == _items(_put_all(f.dim, f.terms.items())), f


def _merge_operands(r, d):
    """Random operands in dimension d: rational phases expanded, pullbacks
    along affine maps with integer linear part and rational translation,
    non-integral shifts of trig terms (tier-F coefficients) and polynomials."""
    f = _rand_rational_polytrig(r, d)
    lin = [[r.randint(-3, 3) for _ in range(d)] for _ in range(d)]
    trans = [Fraction(r.randint(-7, 7), r.choice((1, 5, 7, 12))) for _ in range(d)]
    yield f
    yield f._pullback(lin, trans, d)
    yield translate(rand_polytrig(r, d, n_terms=4), [Fraction(r.randint(1, 6), 7)] * d)
    yield rand_polytrig(r, d, n_terms=4)
    yield PolyTrig.monomial(d, [r.randint(0, 2) for _ in range(d)], Scalar.approx(r.uniform(-2, 2)))
    # tier-F coefficients whose products fall below the drop threshold
    tiny = Scalar.approx(r.uniform(1e-9, 2e-8))
    tiny_poly = PolyTrig.monomial(d, [r.randint(0, 1) for _ in range(d)], tiny)
    yield tiny_poly
    yield tiny_poly + PolyTrig.cos_freq(d, [1] + [r.randint(-1, 1) for _ in range(d - 1)], tiny)


def test_merging_ops_match_putting_every_term():
    r = random.Random(53)
    for _ in range(20):
        d = r.randint(1, 3)
        ops = list(_merge_operands(r, d))
        polys = [g for g in ops if all(m == MODE_NONE for (_, m, _) in g.terms)]
        for a in ops:
            _assert_canonical(a)
            for b in ops:
                assert _items(a + b) == _items(_put_all(d, [*a.terms.items(), *b.terms.items()]))
                neg_b = [(k, -c) for k, c in b.terms.items()]
                assert _items(a - b) == _items(_put_all(d, [*a.terms.items(), *neg_b]))
            for c in (Scalar.exact(Fraction(-3, 7), 1), Scalar.approx(0.3), Scalar.approx(1e-8)):
                scaled = [(k, q * c) for k, q in a.terms.items()]
                assert _items(a.scale(c)) == _items(_put_all(d, scaled))
            for p in polys:
                _assert_canonical(a * p)
                _assert_canonical(p * a)
            for axis in range(1, d + 1):
                _assert_canonical(a.partial(axis))
            _assert_canonical(a.expand_phases())


def _reference_reduction(mode, freq, phase, sign):
    """The key put makes of sign * trig(freq, phase), reduced in Fraction arithmetic."""
    if freq[0] < 0:
        freq, phase = tuple(-x for x in freq), -phase
        if mode == MODE_SIN:
            sign = -sign
    phase = Fraction(phase) % 1
    if phase >= Fraction(1, 2):
        phase -= Fraction(1, 2)
        sign = -sign
    if phase >= Fraction(1, 4):
        phase -= Fraction(1, 4)
        if mode == MODE_COS:
            mode, sign = MODE_SIN, -sign
        else:
            mode = MODE_COS
    return (mode, freq, phase), sign


def _reference_value(d, key, sign):
    """sign * trig(freq, phase) at the reference key, its phase expanded by
    cos(a + 2*pi*p) = cos(a) cos(2*pi*p) - sin(a) sin(2*pi*p) and likewise sin."""
    mode, freq, phase = key
    other = MODE_SIN if mode == MODE_COS else MODE_COS
    c, s = Scalar.exact(sign) * cos2pi(phase), Scalar.exact(sign) * sin2pi(phase)
    return PolyTrig.trig(d, mode, freq, c) + PolyTrig.trig(d, other, freq, -s if mode == MODE_COS else s)


def test_scaled_reduction_matches_fraction_reduction():
    # a scaled key (ints F and P over den) reduces as the reference does on
    # (mode, F / den, P / den): the key stays ints, the phase in [0, den/4).
    # Its one exit, _expand_into, gives the reference's value, or a
    # FrequencyError where F / den is off the integer lattice.  3,000 random
    # frequencies, mostly off the lattice, then 1,500 on it.
    draws, lattice = random.Random(59), random.Random(61)
    one = Scalar.exact(1)
    exits = 0
    for n in range(4500):
        r = draws if n < 3000 else lattice
        den = 4 * r.randint(1, 105)
        if r is draws:
            freq = [r.randint(-3 * den, 3 * den) for _ in range(r.randint(1, 3))]
        else:
            freq = [den * r.randint(-3, 3) for _ in range(r.randint(1, 3))]
        freq[0] = freq[0] or den
        phase = r.randint(-3 * den, 3 * den)
        mode = r.choice((MODE_COS, MODE_SIN))
        d = len(freq)
        want_key, want_sign = _reference_reduction(
            mode, tuple(Fraction(f, den) for f in freq), Fraction(phase, den), 1
        )
        m, f, ph, neg = _reduce_scaled(mode, tuple(freq), phase, den)
        assert all(type(x) is int for x in (*f, ph)) and 0 <= ph < den // 4
        assert (m, tuple(Fraction(x, den) for x in f), Fraction(ph, den)) == want_key
        assert (-1 if neg else 1) == want_sign
        acc = _Acc(d)
        term = (((0,) * d, m, f, ph), -one if neg else one)
        if any(x % den for x in f):
            with pytest.raises(FrequencyError):
                _expand_into(acc, [term], den)
            continue
        _expand_into(acc, [term], den)
        assert acc.done() == _reference_value(d, want_key, want_sign)
        exits += 1
    assert exits > 1500


def test_a_zero_wave_leaves_an_exact_coefficient_exact():
    # A tier-F wave that vanishes where it is folded into a constant (no
    # frequency left, sin or cos of the phase exactly 0), or a tier-F
    # product below DROP_EPS, leaves no term: the exact constant it meets
    # stays exact.
    third = Fraction(1, 3)
    c = cos2pi(Fraction(1, 5))
    assert not c.is_exact
    f = PolyTrig.const(1, third) + PolyTrig.trig(1, MODE_SIN, (1,), c)
    for x in (0, Fraction(1, 2), 1):
        v = value_at(f, (x,))
        assert v.is_exact and v.rational_value() == third, x
    g = PolyTrig.const(1, third) + PolyTrig.trig(1, MODE_COS, (1,), c)
    v = value_at(g, (Fraction(1, 4),))
    assert v.is_exact and v.rational_value() == third
    h = PolyTrig.const(2, third) + PolyTrig.trig(2, MODE_SIN, (1, 0), c)
    for x in (0, 1):
        s = h.substitute(1, {}, x)
        assert s == PolyTrig.const(2, third), x
    tiny = PolyTrig.const(1, third) + PolyTrig.trig(1, MODE_COS, (1,), Scalar.approx(1e-8))
    sq = (tiny * tiny).constant_term()
    assert sq.is_exact and sq.rational_value() == third * third


def test_float_tier_sums_below_drop_eps_leave_no_term():
    # Two thresholds decide a float cancellation.  A tier-F coefficient sum
    # below scalar.DROP_EPS is dropped as zero where terms merge, before any
    # check sees it; a larger one stays a term, and phase_item forgives it
    # up to DEFAULT_TOL.
    assert (DROP_EPS, DEFAULT_TOL) == (1e-15, 1e-9)
    x1 = ((1, 0), MODE_NONE, (0, 0))
    for rest, kept in ((8e-16, False), (1e-12, True)):
        terms = {}
        _merge(terms, x1, Scalar.approx(0.5))
        _merge(terms, x1, Scalar.approx(rest - 0.5))
        slack = PolyTrig(2, terms)
        assert list(slack.terms) == ([x1] if kept else []), rest
        if kept:
            assert abs(slack.terms[x1].val - rest) < DROP_EPS
        report = CheckReport("float_drop")
        assert phase_item(report, "x1", slack), rest
        assert report.items[0].residue == "0"
