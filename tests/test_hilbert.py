import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from torusgauge.errors import TorusGaugeError
from torusgauge.hilbert import (
    geometric_cocycle_phase,
    is_unitary,
    translation_matrix,
    verify_operator_cocycle,
)


def test_clock_shift_commutation():
    # the shift U = P(1/N, 0) and the clock V = P(0, -1/N) obey the Weyl relation
    for N in (2, 3, 5):
        U = translation_matrix(N, (Fraction(1, N), 0))
        V = translation_matrix(N, (0, Fraction(-1, N)))
        w = np.exp(2j * math.pi / N)
        assert np.allclose(U @ V, w ** (-1) * V @ U)
        assert np.allclose(np.linalg.matrix_power(U, N), np.eye(N))
        assert np.allclose(np.linalg.matrix_power(V, N), np.eye(N))


def test_translation_matrix_basics():
    assert np.allclose(translation_matrix(3, (0, 0)), np.eye(3))
    P = translation_matrix(4, (Fraction(1, 4), Fraction(3, 4)))
    assert is_unitary(P)
    with pytest.raises(TorusGaugeError):
        translation_matrix(4, (Fraction(1, 3), 0))


def test_full_period_is_scalar():
    for N in (2, 3, 5):
        for v in [(1, 0), (0, 1), (1, 1)]:
            P = translation_matrix(N, v)
            s = P[0, 0]
            assert abs(abs(s) - 1) < 1e-12
            assert np.allclose(P, s * np.eye(N))


def test_commutator_phase_n2():
    P1 = translation_matrix(2, (Fraction(1, 2), 0))
    P2 = translation_matrix(2, (0, Fraction(1, 2)))
    ratio = P1 @ P2 @ np.linalg.inv(P2) @ np.linalg.inv(P1)
    assert np.allclose(ratio, np.eye(2))
    comm = P1 @ P2 @ np.linalg.inv(P1) @ np.linalg.inv(P2)
    assert np.allclose(comm, -np.eye(2))


def test_operator_matches_geometric_cocycle_exhaustive():
    for N in range(1, 5):
        fracs = [Fraction(a, N) for a in range(N)]
        for v, vp in itertools.product(itertools.product(fracs, repeat=2), repeat=2):
            ok, defect = verify_operator_cocycle(N, v, vp)
            assert ok, (N, v, vp, defect)


def test_wrong_sign_cocycle_fails():
    N = 3
    v, vp = (Fraction(1, 3), 0), (0, Fraction(1, 3))
    c = geometric_cocycle_phase(N, v, vp)
    lhs = translation_matrix(N, v) @ translation_matrix(N, vp)
    rhs = np.conj(c) * translation_matrix(N, (Fraction(1, 3), Fraction(1, 3)))
    assert np.max(np.abs(lhs - rhs)) > 1e-2


def test_commutation_iff_cocycle_ratio_trivial():
    N = 4
    v = (Fraction(1, 4), 0)
    vp = (0, Fraction(2, 4))
    # ratio c(v,v')/c(v',v) = exp(2 pi i N (v1 vp2 - v2 vp1)) = exp(pi i) = -1
    A = translation_matrix(N, v)
    B = translation_matrix(N, vp)
    assert np.allclose(A @ B, -B @ A)
    vp2 = (0, 1)
    B2 = translation_matrix(N, vp2)
    assert np.allclose(A @ B2, B2 @ A)


def test_unitarity_lattice():
    for N in (1, 2, 3, 4, 5):
        for v in itertools.product([Fraction(a, N) for a in range(N)], repeat=2):
            assert is_unitary(translation_matrix(N, v))
