import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from torusgauge.errors import TorusGaugeError
from torusgauge.expr import parse_expr
from torusgauge.forms import Form
import torusgauge.hilbert as hilbert
from torusgauge.hilbert import _column_phase, cocycle_form, lattice_verdicts, translation_matrix
from torusgauge.magnetic import LineData, landau_line, two_cocycle
from torusgauge.polytrig import PolyTrig, constant_mod_free
from torusgauge.scalar import Scalar
from tests_util import operator_cocycle_slack

# acceptance criterion 3's sup-norm bound on a dense rendering
OPERATOR_TOL = 1e-10
UNITARITY_TOL = 1e-12


def dense(N, v):
    """translation_matrix(N, v) rendered as a dense complex N x N matrix."""
    a, exps = translation_matrix(N, v)
    P = np.zeros((N, N), dtype=complex)
    for n, e in enumerate(exps):
        P[(n + a) % N, n] = np.exp(1j * math.pi * e / N)
    return P


def weyl(N, v):
    """exp(-i*pi*a*b/N) U^a V^{-b} at v = (a/N, b/N), built from U and V."""
    a, b = (int(x * N) for x in v)
    U = np.roll(np.eye(N), 1, axis=0)  # U e_n = e_{n+1}
    V = np.diag(np.exp(2j * math.pi * np.arange(N) / N))
    Vb = np.linalg.matrix_power(V.conj(), b)  # V^{-b}
    return np.exp(-1j * math.pi * a * b / N) * np.linalg.matrix_power(U, a) @ Vb


def lattice(N):
    return list(itertools.product([Fraction(a, N) for a in range(N)], repeat=2))


def wrong_sign_failures(N):
    """Pairs that fail when c is replaced by -c, the two-cocycle at flux -N."""
    flipped = cocycle_form(landau_line(-N))
    return sum(
        not operator_cocycle_slack(N, v, vp, form=flipped).in_two_pi_Z()
        for v, vp in itertools.product(lattice(N), repeat=2)
    )


def test_dense_rendering_is_the_weyl_product():
    # every v on the grid of sums v + v' that the operators command builds
    for N in range(1, 7):
        sums = [Fraction(a, N) for a in range(2 * N - 1)]
        for v in itertools.product(sums, repeat=2):
            assert np.max(np.abs(dense(N, v) - weyl(N, v))) < OPERATOR_TOL, (N, v)


def test_clock_shift_commutation():
    # the shift U = P(1/N, 0) and the clock V = P(0, -1/N) obey the Weyl relation
    for N in (2, 3, 5):
        U = dense(N, (Fraction(1, N), 0))
        V = dense(N, (0, Fraction(-1, N)))
        w = np.exp(2j * math.pi / N)
        assert np.allclose(U @ V, w ** (-1) * V @ U)
        assert np.allclose(np.linalg.matrix_power(U, N), np.eye(N))
        assert np.allclose(np.linalg.matrix_power(V, N), np.eye(N))


def test_translation_matrix_basics():
    assert translation_matrix(3, (0, 0)) == (0, (0, 0, 0))
    # a = 1, b = 3: e_n = -3 - 6n mod 8
    assert translation_matrix(4, (Fraction(1, 4), Fraction(3, 4))) == (1, (5, 7, 1, 3))
    with pytest.raises(TorusGaugeError):
        translation_matrix(4, (Fraction(1, 3), 0))


def test_full_period_is_scalar():
    for N in (2, 3, 5):
        for v in [(1, 0), (0, 1), (1, 1)]:
            a, exps = translation_matrix(N, v)
            assert a == 0 and len(set(exps)) == 1
            P = dense(N, v)
            s = P[0, 0]
            assert abs(abs(s) - 1) < 1e-12
            assert np.allclose(P, s * np.eye(N))


def test_commutator_phase_n2():
    P1 = dense(2, (Fraction(1, 2), 0))
    P2 = dense(2, (0, Fraction(1, 2)))
    ratio = P1 @ P2 @ np.linalg.inv(P2) @ np.linalg.inv(P1)
    assert np.allclose(ratio, np.eye(2))
    comm = P1 @ P2 @ np.linalg.inv(P1) @ np.linalg.inv(P2)
    assert np.allclose(comm, -np.eye(2))


def test_operator_matches_geometric_cocycle_exhaustive():
    for N in range(1, 5):
        for v, vp in itertools.product(lattice(N), repeat=2):
            slack = operator_cocycle_slack(N, v, vp)
            assert slack.is_exact and slack.in_two_pi_Z(), (N, v, vp, slack)


def test_wrong_sign_cocycle_fails():
    N = 3
    v, vp = (Fraction(1, 3), 0), (0, Fraction(1, 3))
    assert operator_cocycle_slack(N, v, vp).in_two_pi_Z()
    slack = operator_cocycle_slack(N, v, vp, form=cocycle_form(landau_line(-N)))
    assert slack.is_exact and not slack.in_two_pi_Z()
    assert str(slack.mod_two_pi()) == "2/3*pi"  # 2c, c = pi/3


def test_wrong_sign_cocycle_fails_the_pinned_pair_counts():
    # c = -c mod 2*pi (and flux 1 has only c = 0) exactly on the pairs that pass
    assert [wrong_sign_failures(N) for N in range(1, 7)] == [0, 6, 48, 168, 480, 966]


def test_a_product_that_is_no_multiple_has_no_slack():
    N = 3
    v, vp = (Fraction(1, 3), 0), (0, Fraction(1, 3))
    m, mp, ms = (translation_matrix(N, w) for w in (v, vp, (Fraction(1, 3), Fraction(1, 3))))
    assert _column_phase(N, m, mp, ms) is not None
    shift, exps = m
    # the product lands in other rows than P(v + v')
    assert _column_phase(N, (shift + 1, exps), mp, ms) is None
    # the product's columns carry different phases relative to P(v + v')
    bent = (exps[0] + 1,) + exps[1:]
    assert _column_phase(N, (shift, bent), mp, ms) is None


def test_commutation_iff_cocycle_ratio_trivial():
    N = 4
    v = (Fraction(1, 4), 0)
    vp = (0, Fraction(2, 4))
    # ratio c(v,v')/c(v',v) = exp(2 pi i N (v1 vp2 - v2 vp1)) = exp(pi i) = -1
    A = dense(N, v)
    B = dense(N, vp)
    assert np.allclose(A @ B, -B @ A)
    vp2 = (0, 1)
    B2 = dense(N, vp2)
    assert np.allclose(A @ B2, B2 @ A)


def test_unitarity_lattice():
    for N in (1, 2, 3, 4, 5):
        for v in lattice(N):
            P = dense(N, v)
            assert np.max(np.abs(P @ P.conj().T - np.eye(N))) < UNITARITY_TOL


def non_landau_line():
    """d((-4*pi*x2 + x1*x2) dx1 + 1/2*x1^2 dx2) = 4*pi dx1^dx2: flux 2 with
    a connection that is no Landau gauge."""
    A = {1: parse_expr("-4*pi*x2 + x1*x2", 2), 2: parse_expr("1/2*x1^2", 2)}
    return LineData(2, {}, Form.one_form(2, A))


def lines(N):
    return [landau_line(N), landau_line(-N), non_landau_line()]


def test_the_bilinear_form_is_the_cocycle_on_every_lattice_pair():
    # the per-pair integral as oracle for c(v, v') = (v2 v'1 k21 + v1 v'2 k12)*pi
    for N in range(1, 7):
        for line in lines(N):
            k21, k12 = cocycle_form(line)
            for v, vp in itertools.product(lattice(N), repeat=2):
                want = constant_mod_free(two_cocycle(line, v, vp))
                got = Scalar.exact(v[1] * vp[0] * k21 + v[0] * vp[1] * k12, 1)
                assert want.is_exact and want.pi == got.pi, (N, v, vp)


def test_the_int_verdict_is_the_slack_verdict():
    # every pair, on lines whose c passes everywhere, fails on some pairs
    # (the wrong sign), or belongs to another flux than N (non_landau_line),
    # and on forms whose constants have other denominators than 1
    extra = [(Fraction(1, 3), Fraction(2, 5)), (Fraction(-7, 2), Fraction(5, 6))]
    for N in range(1, 7):
        for form in [cocycle_form(line) for line in lines(N)] + extra:
            verdicts = list(lattice_verdicts(N, form))
            assert len(verdicts) == N**4
            for p, q, residue in verdicts:
                v, vp = (tuple(Fraction(x, N) for x in w) for w in (p, q))
                slack = operator_cocycle_slack(N, v, vp, form=form)
                assert (residue is None) == slack.in_two_pi_Z(), (N, p, q, str(slack))
                assert (residue or "0") == str(slack.mod_two_pi()), (N, p, q, residue, str(slack))


def test_the_int_verdict_fails_a_product_that_is_no_multiple(monkeypatch):
    N = 3
    form = cocycle_form(landau_line(N))
    assert all(residue is None for _, _, residue in lattice_verdicts(N, form))
    v_bad = (Fraction(1, 3), 0)
    shift, exps = translation_matrix(N, v_bad)
    for bad in ((shift + 1, exps), (shift, (exps[0] + 1,) + exps[1:])):

        def bent(n, v, bad=bad):
            return bad if (n, tuple(v)) == (N, v_bad) else translation_matrix(n, v)

        monkeypatch.setattr(hilbert, "translation_matrix", bent)
        failing = {(p, q) for p, q, residue in lattice_verdicts(N, form) if residue is not None}
        assert ((1, 0), (0, 1)) in failing and ((0, 0), (0, 0)) not in failing


def test_the_cocycle_form_needs_exact_multiples_of_pi():
    assert cocycle_form(landau_line(3)) == (-3, 3)
    assert cocycle_form(non_landau_line()) == (-2, 2)
    half = LineData(2, {}, Form.one_form(2, {1: parse_expr("-x2", 2)}))  # c(e1, e2) = 1/2
    float_flux = LineData(2, {}, Form.one_form(2, {1: PolyTrig.var(2, 2) * Scalar.approx(-6.0)}))
    for line in (half, float_flux):
        with pytest.raises(TorusGaugeError):
            cocycle_form(line)
