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
import random
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import add

import pytest

from torusgauge import polytrig
from torusgauge.forms import AffineSimplex, Form, integrate_chain, integrate_simplex
from torusgauge.gerbes import _integrate_unit_cube
from torusgauge.polytrig import MODE_COS, MODE_NONE, MODE_SIN, PolyTrig, value_at
from torusgauge.scalar import Scalar
from torusgauge.vectors import basis_vec, vsub, vzero

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1:5")
S = sympy.symbols("s1:4")


def _rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def _scalar(c):
    return sum(sympy.Rational(n, c.den) * sympy.pi**m for m, n in c.num.items())


def _function(f):
    out = sympy.Integer(0)
    for (alpha, mode, freq, phase), c in f.terms.items():
        term = _scalar(c) * prod(x**a for x, a in zip(X, alpha))
        if mode != MODE_NONE:
            arg = 2 * sympy.pi * (sum(_rational(q) * x for q, x in zip(freq, X)) + _rational(phase))
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
                want = 0
                for s in chain:
                    verts = s.vertices()
                    frame = [vsub(v, verts[0]) for v in verts[1:]]
                    want += s.sign * _oracle(omega, verts[0], frame, True, True)
                points = []
                for den in (4, 3):
                    base = tuple(Fraction(r.randint(-4, 4), den) for _ in range(d))
                    points.append((base, want.subs({X[i]: _rational(base[i]) for i in range(d)})))
                cases.append((d, k, omega, chain, points))
    return cases


def _wave_mismatches():
    """The (d, k, base) of every wave case where the kernel and sympy disagree,
    and the number of exact and of tier-F kernel values."""
    bad, exact, floats = [], 0, 0
    for d, k, omega, chain, points in _wave_cases():
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

    # _reduce_scaled is the one reduction; canonical keys, at phase 0, never
    # take the quarter turn, so only the scaled keys see the mutant
    monkeypatch.setattr(polytrig, "_reduce_scaled", mutant)
    bad, _, _ = _wave_mismatches()
    assert len(bad) >= len(_wave_cases())
