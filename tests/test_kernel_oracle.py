"""The integration kernel against an independent oracle: sympy's exact integrals.

The oracle parametrises a simplex by its vertices over the standard simplex
{s_j >= 0, s_1 + ... + s_k <= 1} and a box by its corner and edges over the
unit cube, pulls each component back with the minors of sympy's own Jacobian,
and integrates iterated in sympy.  Nothing of the kernel's own parametrisation,
moments or antiderivative passes is used.  Every kernel integral is a
function of the base point x; at a concrete base p it is that function's
value at p, and the oracle integrates over the cell placed at p.  A unit cube
is integrated by flux as the chain of its Freudenthal simplices.
"""

import functools
import inspect
import random
import textwrap
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import add

import pytest

from torusgauge import forms, polytrig
from torusgauge.forms import AffineSimplex, Form, integrate_chain, integrate_simplex
from torusgauge.gerbes import _integrate_unit_cube
from torusgauge.polytrig import MODE_COS, MODE_NONE, MODE_SIN, PolyTrig, value_at
from torusgauge.scalar import Scalar
from torusgauge.vectors import basis_vec, det, vzero
from tests_util import assert_int_key, vsub

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1:5")
S = sympy.symbols("s1:4")


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def _scalar(c):
    return sum(sympy.Rational(n, c.den) * sympy.pi**m for m, n in c.num.items())


def _function(f):
    out = sympy.Integer(0)
    for key, c in f.terms.items():
        assert_int_key(key)
        alpha, mode, freq = key
        term = _scalar(c) * prod(x**a for x, a in zip(X, alpha))
        if mode != MODE_NONE:
            arg = 2 * sympy.pi * sum(q * x for q, x in zip(freq, X))
            term *= sympy.cos(arg) if mode == MODE_COS else sympy.sin(arg)
        out += term
    return out


def _oracle(omega, corner, frame, simplex, symbolic):
    """Integral of omega over corner + sum_j s_j frame[j], s on the standard simplex or the cube."""
    d, k = omega.dim, len(frame)
    point = [
        (X[i] if symbolic else 0) + _rational(corner[i])
        + sum(S[j] * _rational(frame[j][i]) for j in range(k))
        for i in range(d)
    ]
    jac = sympy.Matrix(d, k, lambda i, j: sympy.diff(point[i], S[j]))
    integrand = sympy.Integer(0)
    for I, f in omega.comps.items():
        minor = jac.extract(list(I), list(range(k))).det() if k else 1
        at = _function(f).subs({X[i]: point[i] for i in range(d)}, simultaneous=True)
        integrand += minor * at
    out = sympy.expand(integrand)
    for j in reversed(range(k)):
        upper = 1 - sum(S[:j]) if simplex else 1
        out = sympy.expand(sympy.integrate(out, (S[j], 0, upper)))
    return out


def _result(value):
    return _function(value) if isinstance(value, PolyTrig) else _scalar(value)


def _vector(r, d, dens=(1, 2, 3)):
    return tuple(Fraction(r.randint(-2, 2), r.choice(dens)) for _ in range(d))


def _poly_form(r, d, k):
    comps = {}
    for idx in combinations(range(1, d + 1), k):
        f = PolyTrig.zero(d)
        for _ in range(r.randint(1, 3)):
            alpha = [0] * d
            for _ in range(r.randint(0, 2)):
                alpha[r.randrange(d)] += 1
            c = Scalar.exact(Fraction(r.randint(-5, 5), r.randint(1, 4)), r.randint(0, 1))
            f = f + PolyTrig.monomial(d, alpha, c)
        comps[tuple(i - 1 for i in idx)] = f
    return Form(d, k, comps)


def _trig_form(r, d, k):
    """A k-form whose components are sums of x_a^n x_b^m times cos or sin of
    2*pi*q*x_a, q a nonzero integer: terms whose integrals over a cube are
    mostly nonzero."""
    comps = {}
    for idx in combinations(range(d), k):
        f = PolyTrig.zero(d)
        for _ in range(2):
            a, b = r.randrange(d), r.randrange(d)
            alpha = [0] * d
            alpha[a] += r.randint(0, 2)
            alpha[b] += r.randint(0, 1)
            maker = PolyTrig.cos_freq if r.random() < 0.5 else PolyTrig.sin_freq
            q = r.choice((-2, -1, 1, 2))
            freq = [q if i == a else 0 for i in range(d)]
            c = Scalar.exact(Fraction(r.randint(1, 5), r.randint(1, 4)), r.randint(0, 1))
            f = f + PolyTrig.monomial(d, alpha) * maker(d, freq, c)
        comps[idx] = f
    return Form(d, k, comps)


def _simplex_case(omega, edges, top, base=None):
    """The kernel's and sympy's integrals over the simplex with top vertex
    x + top, as functions of x, or at x = base if given."""
    got = integrate_simplex(omega, AffineSimplex(top, edges))
    # vertices x - v_1 - ... - v_k, ..., x - v_k, x in order, over the standard simplex
    verts = [top]
    for e in reversed(edges):
        verts.insert(0, vsub(verts[0], e))
    frame = [vsub(v, verts[0]) for v in verts[1:]]
    if base is None:
        return got, _oracle(omega, verts[0], frame, True, True)
    return value_at(got, base), _oracle(omega, tuple(map(add, verts[0], base)), frame, True, False)


def test_polynomial_integrals_match_sympy():
    r = random.Random(71)
    cases = 0
    for d in (1, 2, 3):
        for k in range(min(d, 3) + 1):
            for concrete in (False, True):
                omega = _poly_form(r, d, k)
                edges = [_vector(r, d) for _ in range(k)]
                top = _vector(r, d)
                base = _vector(r, d) if concrete else None
                got, want = _simplex_case(omega, edges, top, base)
                assert sympy.expand(_result(got) - want) == 0, (d, k, concrete)
                cases += 1
    assert cases == 18


def test_unit_cube_chain_matches_sympy():
    # flux's Freudenthal chain of the unit cube on each face against sympy's
    # iterated integral over that cube, cornered at the origin
    r = random.Random(73)
    cases = 0
    for d in (3, 4):
        for make in (_poly_form, _trig_form):
            for face in combinations(range(1, d + 1), 3):
                H = make(r, d, 3)
                got = _integrate_unit_cube(H, face)
                want = _oracle(H, vzero(d), [basis_vec(d, a) for a in face], False, False)
                assert got.is_exact and sympy.simplify(_result(got) - want) == 0, (d, face)
                cases += 1
    assert cases == 10


def test_trig_integrals_match_sympy():
    # a concrete base and q = (1, 0, 0) orthogonal to both edges: the trig
    # factor is the constant cos(2*pi/3) = -1/2 on the whole simplex
    x1, x2 = PolyTrig.var(3, 1), PolyTrig.var(3, 2)
    f = PolyTrig.cos_freq(3, (1, 0, 0)) * x2 + x1
    omega = Form.two_form(3, {(2, 3): f, (1, 3): x2})
    edges = [(0, Fraction(1, 2), 1), (0, -1, Fraction(1, 3))]
    got, want = _simplex_case(omega, edges, (0, 0, 0), base=(Fraction(1, 3), 1, 0))
    assert got.is_exact and sympy.expand(_result(got) - want) == 0
    # a symbolic base and a frequency that varies along the edge
    g = PolyTrig.sin_freq(2, (1, -1)) * PolyTrig.var(2, 1) + PolyTrig.var(2, 2)
    alpha = Form.one_form(2, {1: g, 2: PolyTrig.cos_freq(2, (0, 1))})
    got, want = _simplex_case(alpha, [(2, 1)], (0, 0))
    diff = sympy.expand(sympy.expand_trig(_result(got) - want))
    assert sympy.simplify(diff) == 0


def test_boundary_chain_matches_sympy():
    # the signed faces of a tetrahedron in one integrate_chain against the sum
    # of sympy's integrals over the faces, each by its own vertices
    r = random.Random(72)
    for concrete in (False, True):
        omega = _poly_form(r, 3, 2)
        edges = [_vector(r, 3) for _ in range(3)]
        simplex = AffineSimplex(_vector(r, 3), edges)
        base = _vector(r, 3) if concrete else vzero(3)
        got = integrate_chain(omega, simplex.boundary())
        if concrete:
            got = value_at(got, base)
        verts = simplex.vertices()
        want = 0
        for j in range(4):
            face = verts[:j] + verts[j + 1 :]
            frame = [vsub(v, face[0]) for v in face[1:]]
            want += (-1) ** j * _oracle(omega, tuple(map(add, face[0], base)), frame, True, not concrete)
        assert sympy.expand(_result(got) - want) == 0, concrete


# Trig chains through the kernel's scaled keys: edges over 5 and 7, so the
# t-frequencies and phases are ints over M = 4 * 35 (or a multiple), and
# non-integral top vertices.  Waves of integer frequency q against tops over
# 5, 7 and 10 land on tier F; waves of frequency 35 q against tops over 2 and
# 4 keep every phase a multiple of 1/4 and stay exact.

WAVE_TOL = 1e-12


def _wave_form(r, d, k, step):
    """A k-form whose components are x_a^n times cos or sin of 2*pi*q.x, q a
    nonzero integer vector in step * {-1, 0, 1}^d."""
    comps = {}
    for idx in combinations(range(d), k):
        q = [step * r.randint(-1, 1) for _ in range(d)]
        if not any(q):
            q[r.randrange(d)] = step
        alpha = [0] * d
        alpha[r.randrange(d)] = r.randint(0, 1)
        maker = PolyTrig.cos_freq if r.random() < 0.5 else PolyTrig.sin_freq
        c = Scalar.exact(Fraction(r.randint(1, 5), r.randint(1, 3)), r.randint(0, 1))
        comps[idx] = PolyTrig.monomial(d, alpha) * maker(d, q, c)
    return Form(d, k, comps)


def _chain_case(r, d, k, omega, chain):
    """(d, k, omega, chain, [(base, sympy's exact value there)]) at a base
    over 4 and one over 3, drawn from r."""
    want = 0
    for s in chain:
        verts = s.vertices()
        frame = [vsub(v, verts[0]) for v in verts[1:]]
        want += s.sign * _oracle(omega, verts[0], frame, True, True)
    points = []
    for den in (4, 3):
        base = tuple(Fraction(r.randint(-4, 4), den) for _ in range(d))
        points.append((base, want.subs({X[i]: _rational(base[i]) for i in range(d)})))
    return d, k, omega, chain, points


@functools.lru_cache(maxsize=None)
def _wave_cases():
    """[(d, k, omega, chain, [(base, sympy's exact value there)])] for k = 1..3, d = 2, 3."""
    r = random.Random(74)
    cases = []
    for d in (2, 3):
        for k in range(1, d + 1):
            for step, top_dens in ((1, (5, 7, 10)), (35, (2, 4))):
                omega = _wave_form(r, d, k, step)
                chain = [
                    AffineSimplex(
                        _vector(r, d, top_dens),
                        [_vector(r, d, (5, 7)) for _ in range(k)],
                        r.choice((1, -1)),
                    )
                    for _ in range(r.randint(1, 2))
                ]
                cases.append(_chain_case(r, d, k, omega, chain))
    return cases


def _wave_mismatches(cases=None):
    """The (d, k, base) of every wave case (or of the given cases) where the
    kernel and sympy disagree, and the number of exact and of tier-F kernel
    values."""
    bad, exact, floats = [], 0, 0
    for d, k, omega, chain, points in _wave_cases() if cases is None else cases:
        got = integrate_chain(omega, chain)
        for base, want in points:
            value = value_at(got, base)
            if value.is_exact:
                exact += 1
                ok = sympy.simplify(_scalar(value) - want) == 0
            else:
                floats += 1
                ok = abs(value.val - float(sympy.N(want, 30))) <= WAVE_TOL
            if not ok:
                bad.append((d, k, base))
    return bad, exact, floats


def test_trig_chains_over_5_and_7_match_sympy():
    bad, exact, floats = _wave_mismatches()
    assert not bad
    assert exact >= 5 and floats >= 5, (exact, floats)


def test_a_reduction_without_the_quarter_turn_swap_fails_the_oracle(monkeypatch):
    # the quarter turn takes den/4 off the phase and swaps cos and sin; the
    # mutant takes the quarter off but keeps the mode and sign
    reduce_scaled = polytrig._reduce_scaled

    def mutant(mode, freq, phase, den):
        new_mode, freq, phase, neg = reduce_scaled(mode, freq, phase, den)
        if new_mode != mode:
            neg ^= new_mode == MODE_SIN
            new_mode = mode
        return new_mode, freq, phase, neg

    # _reduce_scaled is the one reduction; canonical keys have no phase and
    # never take the quarter turn, so only the scaled keys see the mutant
    monkeypatch.setattr(polytrig, "_reduce_scaled", mutant)
    bad, _, _ = _wave_mismatches()
    assert len(bad) >= len(_wave_cases())


# Deep by-parts chains: x^2 and x^3 times waves on k = 2, 3 chains, so the
# passes divide by w = 2*pi*F_a/M often enough for pi^-2 to pi^-4
# coefficients, with F_a of both signs.  Edges over 5 and 7, waves of
# frequency 35 q and tops over 2 and 4 put every vertex phase on a quarter
# turn: the values at bases over 4 are exact, those over 3 partly tier F.


def _deep_wave(d, c, n, a, mode, q):
    """c x_a^n times cos or sin of 2*pi*35*q.x, a 1-based."""
    maker = PolyTrig.cos_freq if mode == MODE_COS else PolyTrig.sin_freq
    alpha = tuple(n * x for x in basis_vec(d, a))
    return PolyTrig.monomial(d, alpha) * maker(d, [35 * x for x in q], c)


F = Fraction
DEEP = (
    # (d, k, {component: (c, n, a, mode, q)}, edges)
    (2, 2, {(0, 1): (F(3, 2), 3, 1, MODE_COS, (1, -2))},
     [(F(1, 5), F(-3, 7)), (F(-2, 7), F(1, 5))]),
    (3, 2, {(0, 1): (F(2, 3), 2, 2, MODE_SIN, (1, 1, -2)),
            (1, 2): (F(5, 2), 2, 3, MODE_COS, (1, -2, 0))},
     [(F(1, 7), F(-2, 5), 0), (F(-1, 5), F(2, 7), F(3, 5))]),
    (3, 3, {(0, 1, 2): (F(4, 5), 2, 1, MODE_SIN, (2, -1, 1))},
     [(F(2, 7), 0, F(1, 5)), (0, F(-2, 5), F(1, 7)), (F(-1, 7), F(1, 5), F(-2, 5))]),
)


@functools.lru_cache(maxsize=None)
def _deep_cases():
    """The DEEP cases, each on one simplex with a top over 2 or 4, then a
    chain on which two omega terms with proportional coefficients cancel:
    f dx1^dx2 + lam f dx1^dx3 with lam = -det_12 / det_13 of the shared
    edges."""
    r = random.Random(75)
    cases = []
    for d, k, comps, edges in DEEP:
        omega = Form(d, k, {I: _deep_wave(d, *term) for I, term in comps.items()})
        chain = [AffineSimplex(_vector(r, d, (2, 4)), edges)]
        cases.append(_chain_case(r, d, k, omega, chain))
    edges = DEEP[1][3]
    minors = [det([[e[i] for e in edges] for i in I]) for I in ((0, 1), (0, 2))]
    lam = -Fraction(minors[0]) / minors[1]
    f = _deep_wave(3, F(7, 3), 2, 1, MODE_COS, (2, 1, -1))
    omega = Form(3, 2, {(0, 1): f, (0, 2): f.scale(Scalar.exact(lam))})
    chain = [AffineSimplex(_vector(r, 3, (2, 4)), edges, sign) for sign in (1, -1)]
    cases.append(_chain_case(r, 3, 2, omega, chain))
    return cases


def test_deep_by_parts_chains_match_sympy():
    cases = _deep_cases()
    bad, exact, floats = _wave_mismatches(cases)
    assert not bad and exact >= 4 and floats >= 2, (exact, floats)
    shifts = set()
    for _, _, omega, chain, _ in cases[:-1]:
        for c in integrate_chain(omega, chain).terms.values():
            shifts.update(c.num)
    assert {-2, -3, -4} <= shifts, shifts
    # the two proportional terms cancel on every key
    _, _, omega, chain, points = cases[-1]
    assert not integrate_chain(omega, chain).terms
    assert all(want == 0 for _, want in points)


def _mutant_pass(old, new):
    """polytrig._axis_pass with its source line old replaced by new."""
    src = textwrap.dedent(inspect.getsource(polytrig._axis_pass))
    assert src.count(old) == 1, old
    namespace = dict(vars(polytrig))
    exec(compile(src.replace(old, new), polytrig.__file__, "exec"), namespace)
    return namespace["_axis_pass"]


@pytest.mark.parametrize("old, new", [
    # each by-parts step divides by |w|, losing the sign of F_a
    ("wn, wd = (den, 2 * f) if f > 0 else (-den, -2 * f)", "wn, wd = den, 2 * abs(f)"),
    # each step divides by 2*F_a/M but not by pi
    ("s, n, m = s - 1, n * wn, m * wd", "n, m = n * wn, m * wd"),
], ids=["sign", "pi_shift"])
def test_a_by_parts_mutant_fails_the_oracle(monkeypatch, old, new):
    monkeypatch.setattr(forms, "_axis_pass", _mutant_pass(old, new))
    cases = _deep_cases()[:-1]
    bad, _, _ = _wave_mismatches(cases)
    assert len(bad) == 2 * len(cases), bad
