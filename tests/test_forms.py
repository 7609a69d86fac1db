import math
import random
from fractions import Fraction
from itertools import combinations, permutations
from operator import add
from pathlib import Path

import pytest

from torusgauge import forms
from torusgauge.cli import load_scenario, run
from torusgauge.errors import DegreeError
from torusgauge.expr import parse_expr
from torusgauge.forms import (
    AffineSimplex,
    Form,
    PLPath,
    integrate_chain,
    integrate_path,
    integrate_simplex,
)
from torusgauge.gerbes import _ORDERINGS, _integrate_unit_cube, constant_flux_gerbe, flux_class
from torusgauge.polytrig import MODE_NONE, PolyTrig, translate, value_at
from torusgauge.sampling import (
    rand_form,
    rand_simplex,
    rand_vector,
    rng,
    stokes_sample,
)
from torusgauge.scalar import Scalar
from torusgauge.vectors import basis_vec, det, vneg, vsub, vzero
from tests_util import code_calls, is_exact, op_calls, stokes_slack


def quad_simplex(omega, simplex, base, n=32):
    """Numeric iterated-integral oracle for simplex integrals at a concrete base.

    Maps the ordered domain 0 <= t_k <= ... <= t_1 <= 1 to the unit cube via
    t_j = u_1 ... u_j and integrates with the midpoint rule.
    """
    k = simplex.k
    verts = simplex.vertices()
    p0 = [float(x) + float(b) for x, b in zip(verts[0], base)]
    edges = [[float(x) for x in e] for e in simplex.edges]

    comps = []
    for I, f in omega.comps.items():
        minor = [[simplex.edges[j][i] for j in range(k)] for i in I]
        comps.append((f, float(det(minor))))

    total = 0.0
    h = 1.0 / n
    import itertools as it

    for idx in it.product(range(n), repeat=k):
        u = [(i + 0.5) * h for i in idx]
        t = []
        prod = 1.0
        jac = 1.0
        for j in range(k):
            prod *= u[j]
            t.append(prod)
            if j < k - 1:
                jac *= prod
        pt = list(p0)
        for j in range(k):
            for i in range(len(pt)):
                pt[i] += t[j] * edges[j][i]
        val = sum(f.eval_float(pt) * dd for f, dd in comps)
        total += val * jac
    return total * h**k * simplex.sign


F2 = lambda s: parse_expr(s, 2)
F3 = lambda s: parse_expr(s, 3)


# ---------------------------------------------------------------------------
# exterior derivative and wedge


def test_d_examples():
    A = Form.one_form(2, {1: F2("-2*pi*x2")})
    assert A.d().equals(Form.two_form(2, {(1, 2): F2("2*pi")}))
    w = Form.two_form(3, {(2, 3): F3("2*pi*x1")})
    assert w.d().equals(Form(3, 3, {(0, 1, 2): F3("2*pi")}))
    const = Form.one_form(3, {2: F3("7")})
    assert const.d().is_zero()


def test_d_squared_zero_random():
    r = rng(21)
    for d in (2, 3):
        for p in (0, 1, 2):
            for _ in range(10):
                w = rand_form(r, d, p)
                assert w.d().d().is_zero()


def test_wedge_antisymmetry_and_zero():
    dx1 = Form.one_form(2, {1: F2("1")})
    dx2 = Form.one_form(2, {2: F2("1")})
    assert (dx1.wedge(dx2) + dx2.wedge(dx1)).is_zero()
    assert dx1.wedge(dx1).is_zero()
    f = Form.from_scalar(F2("x1"))
    w = Form.one_form(2, {2: F2("x2")})
    assert f.wedge(w).equals(Form.one_form(2, {2: F2("x1*x2")}))


def test_wedge_degree_overflow():
    dx1 = Form.one_form(2, {1: F2("1")})
    dx12 = dx1.wedge(Form.one_form(2, {2: F2("1")}))
    with pytest.raises(DegreeError):
        dx12.wedge(dx1)


def test_wedge_associative_random():
    r = rng(22)
    for _ in range(10):
        a = rand_form(r, 3, 1)
        b = rand_form(r, 3, 1)
        c = rand_form(r, 3, 1)
        assert a.wedge(b).wedge(c).equals(a.wedge(b.wedge(c)))


# the affine map y -> LIN y + TRANS of R^3
LIN = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
TRANS = [Fraction(1, 2), 0, Fraction(1, 3)]


def test_pullback_commutes_with_d():
    r = rng(24)
    for _ in range(8):
        w = rand_form(r, 3, 1, freq_step=1)
        assert w.d().pullback(LIN, TRANS).equals(w.pullback(LIN, TRANS).d())


def test_form_arithmetic_makes_no_polytrig_sums():
    # each component is summed in one accumulator, not by chains of PolyTrig +
    r = rng(26)
    for degree in range(4):
        for _ in range(3):
            a, b = rand_form(r, 3, degree), rand_form(r, 3, degree)
            with op_calls() as calls:
                results = [a.d(), a + b, a - b, a.pullback(LIN, TRANS)]
            assert calls["add"] == 0, degree
            assert results[1].equals(b + a) and (results[2] + b).equals(a)


def test_stokes_selftest_sums_once_per_sample(capsys):
    # the only PolyTrig + left is the difference in each sample's slack
    with op_calls() as calls:
        assert run(["stokes-selftest", "--seed", "0"]) == 0
    capsys.readouterr()
    assert 0 < calls["add"] <= 2 * 3 * 50


def test_translate_examples():
    B = Form.two_form(2, {(1, 2): F2("2*pi*3")})
    assert B.translate((1, 0)).equals(B)
    A = Form.one_form(2, {1: F2("-2*pi*x2")})
    shifted = A.translate((0, 1))
    assert shifted.equals(Form.one_form(2, {1: F2("-2*pi*(x2 - 1)")}))


# ---------------------------------------------------------------------------
# simplices and boundaries


def test_boundary_of_segment():
    s = AffineSimplex.from_edges([(Fraction(1, 2), Fraction(1, 3))])
    faces = s.boundary()
    assert len(faces) == 2
    assert faces[0].k == 0 and faces[0].sign == 1  # the endpoint x
    assert faces[0].top == (0, 0)
    assert faces[1].sign == -1  # minus the start x - v
    assert faces[1].top == (Fraction(-1, 2), Fraction(-1, 3))


def test_boundary_of_triangle_matches_three_segments():
    vp = (Fraction(1), Fraction(0))
    v = (Fraction(0), Fraction(1))
    tri = AffineSimplex.from_edges([vp, v])
    faces = tri.boundary()
    # faces: +[p1,p2] = segment from x-v to x, -[p0,p2], +[p0,p1]
    tops = [(f.top, f.edges[0], f.sign) for f in faces]
    assert tops[0] == ((0, 0), v, 1)
    assert tops[1] == ((0, 0), (Fraction(1), Fraction(1)), -1)
    assert tops[2] == ((Fraction(0), Fraction(-1)), vp, 1)


def test_rand_simplex_draws_the_fraction_simplex_in_ints():
    # the same randints, in the same order, as Fraction(randint, den) edges
    # handed to from_edges, and the same simplex: points, den and sign
    for seed in range(30):
        for d in (1, 2, 3):
            for k in range(4):
                for den in (1, 2, 3):
                    r, ref = rng(seed), rng(seed)
                    got = rand_simplex(r, d, k, den=den)
                    want = AffineSimplex.from_edges(
                        [tuple(Fraction(ref.randint(-2, 2), den) for _ in range(d)) for _ in range(k)]
                    )
                    case = (seed, d, k, den)
                    assert (got.dim, got.k, got.sign) == (want.dim, want.k, want.sign), case
                    assert (got.top, got.edges) == (want.top, want.edges), case
                    assert (got._top, got._edges, got._den) == (want._top, want._edges, want._den), case
                    assert r.random() == ref.random(), case  # as many draws made


def test_boundary_squared_vanishes_as_chain():
    r = rng(25)
    for _ in range(10):
        s = rand_simplex(r, 3, 3, den=2)
        counts = {}
        for f in s.boundary():
            for g in f.boundary():
                key = (g.top, g.edges)
                counts[key] = counts.get(key, 0) + g.sign
        assert all(c == 0 for c in counts.values())


# ---------------------------------------------------------------------------
# integration examples (quadrature oracle frozen values)


def test_integral_constant_two_form_on_triangle():
    B = Form.two_form(2, {(1, 2): F2("2*pi")})
    vp = (Fraction(1, 5), Fraction(2, 7))
    v = (Fraction(1, 2), Fraction(1, 3))
    tri = AffineSimplex.from_edges([vp, v])
    got = integrate_simplex(B, tri)
    want = Fraction(1, 5) * Fraction(1, 3) - Fraction(2, 7) * Fraction(1, 2)
    assert got == PolyTrig.const(2, got.constant_term()) and got.constant_term().pi == {
        1: want
    }
    # quadrature oracle
    assert math.isclose(
        quad_simplex(B, tri, (0, 0), n=64), got.constant_term().val, abs_tol=1e-6
    )


def test_integral_constant_three_form_on_tetrahedron():
    H = Form(3, 3, {(0, 1, 2): F3("2*pi")})
    w, v, u = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    tet = AffineSimplex.from_edges([w, v, u])
    got = integrate_simplex(H, tet)
    # (2 pi / 6) det[w|v|u] = pi/3
    assert got.constant_term().pi == {1: Fraction(1, 3)}
    assert math.isclose(quad_simplex(H, tet, (0, 0, 0), n=48), math.pi / 3, abs_tol=2e-3)


def test_integral_with_symbolic_base_point():
    A = Form.one_form(2, {1: F2("-2*pi*x2")})
    v = (Fraction(1, 2), Fraction(1, 3))
    seg = AffineSimplex.from_edges([v])
    got = integrate_simplex(A, seg)
    want = F2("-2*pi*1/2*(x2 - 1/6)")
    assert got == want
    # oracle at two concrete base points
    for base in [(0, 0), (Fraction(1, 4), Fraction(3, 5))]:
        assert math.isclose(
            quad_simplex(A, seg, base, n=200),
            got.eval_float([float(x) for x in base]),
            abs_tol=1e-6,
        )


def test_integration_linear_and_orientation():
    r = rng(26)
    for _ in range(8):
        w1 = rand_form(r, 2, 2)
        w2 = rand_form(r, 2, 2)
        s = rand_simplex(r, 2, 2, den=2)
        a = integrate_simplex(w1 + w2, s)
        b = integrate_simplex(w1, s) + integrate_simplex(w2, s)
        assert a == b
        opposite = AffineSimplex(s.top, s.edges, sign=-1)
        assert integrate_simplex(w1, opposite) == -integrate_simplex(w1, s)


def test_integration_naturality_under_translation():
    # shifting the integrand by v equals shifting the simplex the other way
    r = rng(27)
    for _ in range(8):
        w = rand_form(r, 3, 2, freq_step=2)
        s = rand_simplex(r, 3, 2, den=2)
        v = rand_vector(r, 3, num=2, dens=(1, 2))
        lhs = integrate_simplex(w.translate(v), s)
        rhs = integrate_simplex(w, AffineSimplex(vsub(s.top, v), s.edges))
        assert lhs == rhs


def _count_passes(monkeypatch):
    """A one-item list counting the kernel's polytrig._axis_pass calls, each an integrating pass."""
    passes = [0]
    orig = forms._axis_pass

    def counting(terms, den, a, b):
        passes[0] += 1
        return orig(terms, den, a, b)

    monkeypatch.setattr(forms, "_axis_pass", counting)
    return passes


def test_simplex_integral_makes_one_pass_per_axis(monkeypatch):
    # polynomial terms take the closed-form moment and no by-parts pass;
    # terms with trig dependence on t take at most one pass per axis
    passes = _count_passes(monkeypatch)
    r = rng(32)
    by_parts = 0
    for d in (2, 3):
        for k in range(d + 1):
            for offset in (False, True):
                for polynomial in (True, False):
                    omega = rand_form(r, d, k)
                    if polynomial:
                        omega = Form(d, k, {i: _poly_part(f) for i, f in omega.comps.items()})
                    edges = rand_simplex(r, d, k, den=2).edges if k else ()
                    top = rand_vector(r, d) if offset else vzero(d)
                    s = AffineSimplex(top, edges)
                    passes[0] = 0
                    integrate_simplex(omega, s)
                    if polynomial:
                        assert passes[0] == 0, (d, k, offset)
                    else:
                        assert passes[0] <= k, (d, k, offset)
                        by_parts += passes[0] == k > 0
    assert by_parts >= 4


def _poly_part(f):
    return PolyTrig(f.dim, {key: c for key, c in f.terms.items() if key[1] == MODE_NONE})


def test_boundary_chain_makes_one_pass_per_axis_in_total(monkeypatch):
    # every face of the boundary has trig dependence on its parameters; one
    # face alone takes k - 1 passes, the chain of k + 1 faces too
    passes = _count_passes(monkeypatch)
    for d in (2, 3):
        for k in range(2, d + 1):
            wave = PolyTrig.cos_freq(d, (1,) * d) + PolyTrig.sin_freq(d, (2,) + (0,) * (d - 1))
            omega = Form(d, k - 1, {idx: wave for idx in combinations(range(d), k - 1)})
            edges = [tuple(1 + (i * j + j) % 3 for i in range(d)) for j in range(k)]
            for top in (vzero(d), tuple(range(d))):
                faces = AffineSimplex(top, edges).boundary()
                passes[0] = 0
                by_face = [integrate_simplex(omega, f) for f in faces]
                assert passes[0] == (k + 1) * (k - 1), (d, k)
                passes[0] = 0
                got = integrate_chain(omega, faces)
                assert passes[0] == k - 1, (d, k)
                assert is_exact(got) and got == _chain_sum(by_face)


TIER_F_GERBE = Path(__file__).resolve().parent / "data" / "tier_f_gerbe.json"


def test_the_kernel_hashes_few_fractions_on_tier_f_data(monkeypatch, capsys):
    # Trig terms carry their frequencies and phases as ints over one chain
    # denominator until the result leaves the kernel, and cos2pi and sin2pi
    # look a phase up by its int residue, so the kernel hashes no Fraction.
    counts = {"chains": 0, "hashes": 0}
    inside = [False]
    fraction_hash = Fraction.__hash__
    kernel = forms._iterated_integral

    def hashing(self):
        counts["hashes"] += inside[0]
        return fraction_hash(self)

    def counted(*args):
        counts["chains"] += 1
        inside[0] = True
        try:
            return kernel(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Fraction, "__hash__", hashing)
    monkeypatch.setattr(forms, "_iterated_integral", counted)
    for command in ("pentagon", "cohomology"):
        assert run([command, "--config", str(TIER_F_GERBE), "--seed", "0"]) == 0
    capsys.readouterr()
    assert counts["chains"] == 8
    assert counts["hashes"] == 0, counts


def test_loading_tier_f_configs_pulls_back_nothing():
    # A parsed trig atom is one PolyTrig.trig term at its phase, not a wave
    # pulled back along an affine map.
    for name in ("tier_f_gerbe.json", "tier_f_line.json"):
        with code_calls() as calls:
            load_scenario(TIER_F_GERBE.parent / name)
        assert calls[PolyTrig._pullback.__code__] == 0, name
        assert calls[PolyTrig.trig.__code__] > 0, name


def _scalars_made(monkeypatch, omega, chain):
    """(Scalars made by integrate_chain(omega, chain), Scalars made before its
    first forms._from_int_terms, the int terms that materialised, the result)."""
    made, first = [0], [None]
    init, from_int_terms = Scalar.__init__, forms._from_int_terms
    terms = [0]

    def counting(self, *args):
        made[0] += 1
        init(self, *args)

    def materialising(d, coeffs, den, *int_terms):
        if first[0] is None:
            first[0] = made[0]
        terms[0] += sum(map(len, int_terms))
        return from_int_terms(d, coeffs, den, *int_terms)

    with monkeypatch.context() as m:
        m.setattr(Scalar, "__init__", counting)
        m.setattr(forms, "_from_int_terms", materialising)
        got = integrate_chain(omega, chain)
    return made[0], first[0], terms[0], got


def test_the_kernel_makes_one_scalar_per_output_term(monkeypatch):
    # The kernel carries coefficients as int pairs per omega term and makes
    # one Scalar per (omega term, output key, pi shift) when the result
    # leaves it, plus a sum where two omega terms meet on a key; then
    # _expand_into expands the phases.
    # The 6 Freudenthal cells of the flux cube: one omega term whose moments
    # sum in ints to one output term, one Scalar.
    H = constant_flux_gerbe(1).curvature()
    e = [basis_vec(3, a) for a in (1, 2, 3)]
    cube = [AffineSimplex((1, 1, 1), [e[i] for i in p], sign=s) for p, s in _ORDERINGS]
    made, before, terms, got = _scalars_made(monkeypatch, H, cube)
    assert made == 1 and (before, terms, len(got.terms)) == (0, 1, 1)
    # The boundary of a 2-simplex, edges over 5 and top over 7, and
    # x1^2 cos, x1 x2 sin terms: no Scalar before the 28 int terms
    # materialise (at most 2 Scalars each: the term and a sum), and 76 in
    # the phase expansion of their 24 scaled terms.
    x1, x2 = PolyTrig.var(2, 1), PolyTrig.var(2, 2)
    omega = Form.one_form(2, {
        1: x1 * x1 * PolyTrig.cos_freq(2, (1, 2), Fraction(3, 2)),
        2: x1 * x2 * PolyTrig.sin_freq(2, (3, -1), Scalar.exact(Fraction(5, 3), 1)),
    })
    top = (Fraction(1, 7), Fraction(3, 7))
    edges = [(Fraction(2, 5), Fraction(1, 5)), (Fraction(-1, 5), Fraction(3, 5))]
    faces = AffineSimplex(top, edges).boundary()
    made, before, terms, got = _scalars_made(monkeypatch, omega, faces)
    assert made <= 2 * 28 + 76, made
    assert before == 0 and terms == 28
    assert got.equals(_chain_sum([integrate_simplex(omega, f) for f in faces]), 1e-12)


# ---------------------------------------------------------------------------
# chains


def _chain_sum(values):
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def _rand_chain(r, d, k):
    """(form, chain): cells with edges over one denominator D in 1..7, tops
    over 1, 2 or 4, and mixed signs.  Trig frequencies are multiples of D, so
    every pullback stays on the integer frequency lattice and every phase
    has a denominator dividing 4: the integrals stay exact."""
    den = r.randint(1, 7)
    omega = rand_form(r, d, k, freq_step=den)
    if r.random() < 0.3:
        omega = Form(d, k, {i: _poly_part(f) for i, f in omega.comps.items()})
    chain = []
    for _ in range(r.randint(1, 4)):
        edges = [tuple(Fraction(r.randint(-3, 3), den) for _ in range(d)) for _ in range(k)]
        top = rand_vector(r, d, num=3, dens=(1, 2, 4))
        chain.append(AffineSimplex(top, edges, sign=r.choice((1, -1))))
    return omega, chain


def test_chain_integral_is_the_sum_over_its_cells():
    r = rng(34)
    cases = 0
    for d in (2, 3):
        for k in (1, 2, 3):
            if k > d:
                continue
            for _ in range(12):
                omega, chain = _rand_chain(r, d, k)
                got = integrate_chain(omega, chain)
                assert got == _chain_sum([integrate_simplex(omega, s) for s in chain]), (d, k)
                cases += 1
    assert cases == 60


def test_chain_needs_cells_of_its_degree():
    A = rand_form(rng(36), 2, 1)
    with pytest.raises(ValueError):
        integrate_chain(A, [])
    with pytest.raises(DegreeError):
        integrate_chain(A, [AffineSimplex((0, 0), [(1, 0), (0, 1)])])


def test_path_integral_is_the_sum_over_its_segments():
    r = rng(37)
    for d in (2, 3):
        for _ in range(6):
            den = r.randint(1, 7)
            A = rand_form(r, d, 1, freq_step=den)
            verts = [rand_vector(r, d, num=3, dens=(1, 2, 4))]
            for _ in range(r.randint(1, 4)):
                step = tuple(Fraction(r.randint(-3, 3), den) for _ in range(d))
                verts.append(tuple(map(add, verts[-1], step)))
            segments = [
                integrate_simplex(A, AffineSimplex(b, [vsub(b, a)]))
                for a, b in zip(verts, verts[1:])
            ]
            assert integrate_path(A, PLPath(verts)) == _chain_sum(segments)


# ---------------------------------------------------------------------------
# Stokes


def test_stokes_randomized_exact():
    r = rng(28)
    for d in (2, 3):
        for k in (1, 2, 3):
            for _ in range(25):
                omega, s = stokes_sample(r, d, k)
                assert stokes_slack(omega, s).is_zero()


def test_stokes_concrete_base():
    # each integral taken at the base point on its own
    r = rng(29)
    for _ in range(10):
        omega, s = stokes_sample(r, 2, 2)
        base = rand_vector(r, 2, num=2, dens=(1, 2, 3))
        lhs = value_at(integrate_simplex(omega.d(), s), base)
        rhs = None
        for f in s.boundary():
            val = value_at(integrate_simplex(omega, f), base)
            rhs = val if rhs is None else rhs + val
        assert (lhs - rhs).is_zero()


# ---------------------------------------------------------------------------
# paths and cells


def test_path_integral_examples():
    A = Form.one_form(2, {1: F2("-2*pi*x2")})
    # degenerate path
    assert integrate_path(A, PLPath.constant((0, 0))).is_zero()
    # exact form over a closed loop
    df = Form.one_form(2, {1: F2("x1").partial(1), 2: F2("x1").partial(2)})
    loop = PLPath([(0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2)), (0, 0)])
    assert integrate_path(df, loop).is_zero()
    # unit cell flux, the same at every base point
    square = PLPath([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    got = integrate_path(A, square)
    assert value_at(got, (0, 0)).pi == {1: Fraction(2)}
    assert got == PolyTrig.const(2, value_at(got, (Fraction(1, 3), 5)))


def test_path_reversal_and_concat():
    r = rng(30)
    A = rand_form(r, 2, 1)
    p = PLPath([(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 3))])
    q = PLPath([(Fraction(1, 2), Fraction(1, 3)), (1, 1)])
    a = integrate_path(A, p)
    b = integrate_path(A, q)
    tot = integrate_path(A, PLPath(p.vertices + q.vertices[1:]))
    assert (a + b - tot).is_zero()
    assert (integrate_path(A, PLPath(p.vertices[::-1])) + a).is_zero()


def test_path_integral_is_computed_once_per_path_and_form(monkeypatch):
    import torusgauge.forms as forms

    calls = []
    kernel = forms._iterated_integral

    def counting(omega, cells):
        calls.append(len(cells))
        return kernel(omega, cells)

    monkeypatch.setattr(forms, "_iterated_integral", counting)
    r = rng(31)
    A, A2 = rand_form(r, 2, 1), rand_form(r, 2, 1)
    verts = [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 3))]
    path = PLPath(verts)
    first = integrate_path(A, path)
    assert calls == [2]  # one kernel call, its chain of two segments
    assert integrate_path(A, path) is first
    assert len(calls) == 1
    # another form, or a fresh path with equal vertices, computes again
    integrate_path(A2, path)
    assert len(calls) == 2
    again = integrate_path(A, PLPath(verts))
    assert len(calls) == 3
    assert again is not first and (again - first).is_zero()


def box_chain(edges, offset=None):
    """The box x + offset + sum_j t_j edges[j], 0 <= t_j <= 1, as the chain of
    its Freudenthal simplices: one per ordering p of the edges, with edges
    edges[p_1], ..., edges[p_k] and the sign of p."""
    k = len(edges)
    top = offset or vzero(len(edges[0]))
    for e in edges:
        top = tuple(map(add, top, e))
    chain = []
    for p in permutations(range(k)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(k), 2))
        chain.append(AffineSimplex(top, [edges[i] for i in p], sign=(-1) ** inversions))
    return chain


def cell_integral(omega, g1, g2):
    """Integral of a 2-form over the surface (t1, t2) -> x + g2(t2) + g1(t1).

    Over a pair of segments of the two PL paths the map is affine, so the
    surface is a grid of boxes, each two signed triangles: one chain.
    """
    chain = []
    for a, b in zip(g1.vertices, g1.vertices[1:]):
        for c, e in zip(g2.vertices, g2.vertices[1:]):
            chain += box_chain((vsub(b, a), vsub(e, c)), offset=tuple(map(add, a, c)))
    return integrate_chain(omega, chain)


def test_cell_integral_constant_form():
    B = Form.two_form(2, {(1, 2): F2("2*pi")})
    u, v = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    got = integrate_chain(B, box_chain([u, v]))
    assert got == PolyTrig.const(2, got.constant_term()) and got.constant_term().pi == {
        1: Fraction(2)
    }
    assert integrate_chain(Form.zero(2, 2), box_chain([u, v])).terms == {}
    assert integrate_chain(B, box_chain([u, (0, 0)])).terms == {}


def test_cell_integral_matches_boundary_of_exact_form():
    # for exact omega = dA the square cell integral equals the boundary loop
    r = rng(31)
    for _ in range(6):
        A = rand_form(r, 2, 1, freq_step=2)
        g1 = PLPath([(0, 0), rand_vector(r, 2, 2, (1, 2)), rand_vector(r, 2, 2, (1, 2))])
        g2 = PLPath([(0, 0), rand_vector(r, 2, 2, (1, 2))])
        got = cell_integral(A.d(), g1, g2)
        e1, e2 = g1.end, g2.end
        # boundary: gamma at x, then gamma' at x+e1, minus gamma at x+e2, minus gamma' at x
        i_g1 = integrate_path(A, g1)
        i_g2 = integrate_path(A, g2)
        want = (
            i_g1
            + translate(i_g2, [-x for x in e1])
            - translate(i_g1, [-x for x in e2])
            - i_g2
        )
        assert got == want


def test_box_integral_splits_into_two_simplices():
    # the Freudenthal pair cut along the diagonal from p to p + u + v,
    # [p, p + u, p + u + v] and -[p, p + v, p + u + v], against the pair cut
    # along the other one, [p, p + u, p + v] and [p + u, p + u + v, p + v]
    r = rng(17)
    for d in (2, 3):
        for _ in range(4):
            omega = rand_form(r, d, 2)
            u, v = rand_vector(r, d, 2, (1,)), rand_vector(r, d, 2, (1,))
            p = rand_vector(r, d, 2, (1, 2))
            top = tuple(map(add, p, v))
            other = [AffineSimplex(top, [u, vsub(v, u)]), AffineSimplex(top, [v, vneg(u)])]
            box = box_chain([u, v], offset=p)
            assert integrate_chain(omega, box) == integrate_chain(omega, other)


def test_box_integral_of_the_unit_cube():
    H = Form(3, 3, {(0, 1, 2): F3("2*pi")})
    edges = [basis_vec(3, a) for a in (1, 2, 3)]
    flux = _integrate_unit_cube(H, (1, 2, 3))
    assert flux.pi == {1: Fraction(2)}
    assert integrate_chain(H, box_chain(edges)) == PolyTrig.const(3, flux)
    with pytest.raises(DegreeError):
        integrate_chain(H, box_chain(edges[:2]))


def test_the_unit_cube_cells_are_built_once():
    # a face's six Freudenthal cells are made on its first integral only
    gerbe = constant_flux_gerbe(1)
    flux_class(gerbe)
    with code_calls() as calls:
        assert flux_class(gerbe) == {(1, 2, 3): 1}
    assert calls[AffineSimplex.__init__.__code__] == 0


def _cofactor_det(rows):
    """The determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _cofactor_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
    )


def test_det_matches_the_cofactor_expansion():
    rnd = random.Random(33)
    for n in (0, 1, 2, 3, 3, 3, 4):
        for _ in range(40):
            ints = [[rnd.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            fracs = [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 5)) for _ in range(n)] for _ in range(n)]
            for rows in (ints, fracs):
                assert det(rows) == _cofactor_det(rows), rows
    # a singular 3 x 3 matrix
    assert det([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == 0


def test_path_integrals_read_their_minors_off_the_edges():
    A = Form.one_form(2, {1: F2("x2^2 + cos(2*pi*x1)"), 2: F2("-x1*x2")})
    path = PLPath([(0, 0), (1, Fraction(1, 2)), (Fraction(-1, 3), 2)])
    with code_calls() as calls:
        integrate_path(A, path)
    assert calls[det.__code__] == 0
