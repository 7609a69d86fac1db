"""Finite-dimensional magnetic translation operators and Fourier truncations.

For flux N on T^2 the magnetic translations at lattice fractions
v = (a/N, b/N) act on an N-dimensional state space.  With U the cyclic shift
and V = diag(exp(2*pi*i*n/N)) the realization

    P(a/N, b/N) = exp(-i*pi*a*b/N) U^a V^{-b}

satisfies P(v) P(v') = c(v, v') P(v + v') exactly, where c is the geometric
two-cocycle of the flux-N line bundle; the scalar prefactor is forced by that
requirement, not chosen.  The Zak (theta) basis below realizes the same state
space inside quasi-periodic functions and backs the dimension count
numerically.  Gerbe data has no finite-dimensional analogue here:
nonassociativity obstructs operator realizations, so only d = 2 line-bundle
data is represented.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionError, FrequencyError, PeriodicityError, TorusGaugeError
from .expr import freq_and_const
from .magnetic import landau_line, two_cocycle
from .polytrig import constant_mod_free

UNITARITY_TOL = 1e-12


def clock_shift(N):
    """(U, V): cyclic shift |n> -> |n+1> and clock diag(exp(2*pi*i*n/N))."""
    U = np.zeros((N, N), dtype=complex)
    for n in range(N):
        U[(n + 1) % N, n] = 1.0
    V = np.diag([cmath.exp(2j * math.pi * n / N) for n in range(N)])
    return U, V


def _lattice_coords(N, v):
    out = []
    for x in v:
        x = Fraction(x)
        y = x * N
        if y.denominator != 1:
            raise TorusGaugeError(
                f"translation {tuple(map(str, v))} is not on the (1/{N})-lattice"
            )
        out.append(int(y))
    return out


def translation_matrix(N, v):
    """The N x N unitary magnetic translation at v in (1/N) Z^2."""
    if N < 1:
        raise DimensionError("flux N must be a positive integer")
    a, b = _lattice_coords(N, v)
    phase = cmath.exp(-1j * math.pi * a * b / N)
    P = np.zeros((N, N), dtype=complex)
    for n in range(N):
        P[(n + a) % N, n] = phase * cmath.exp(-2j * math.pi * n * b / N)
    return P


def is_unitary(M, tol=UNITARITY_TOL):
    N = M.shape[0]
    return bool(np.max(np.abs(M @ M.conj().T - np.eye(N))) < tol)


def geometric_cocycle_phase(N, v, vp, line=None):
    """exp of the flux-N two-cocycle exponent, computed from the bundle data.

    line is the flux-N line bundle to use, landau_line(N) if None.
    """
    if line is None:
        line = landau_line(N)
    c = two_cocycle(line, v, vp)
    r = constant_mod_free(c.exponent)
    if r is None:
        raise TorusGaugeError("two-cocycle is not constant for this data")
    return cmath.exp(1j * float(r))


def verify_operator_cocycle(N, v, vp, tol=1e-10, line=None, mats=None):
    """Sup-norm defect of P(v) P(v') = c(v, v') P(v+v'); (ok, defect).

    c comes from line, the flux-N line bundle (landau_line(N) if None).
    mats, if given, maps each of v, v' and v + v' to its translation matrix;
    otherwise the three are built here.
    """
    v = tuple(Fraction(x) for x in v)
    vp = tuple(Fraction(x) for x in vp)
    c = geometric_cocycle_phase(N, v, vp, line)
    vs = tuple(a + b for a, b in zip(v, vp))
    if mats is None:
        mats = {w: translation_matrix(N, w) for w in (v, vp, vs)}
    lhs = mats[v] @ mats[vp]
    rhs = c * mats[vs]
    defect = float(np.max(np.abs(lhs - rhs)))
    return defect < tol, defect


class ThetaBasis:
    """Zak-type basis of the flux-N quasi-periodic section space on T^2.

    psi_n(x) = sum_r exp(2*pi*i*(n + N r) x_1) g(x_2 - (n + N r)/N) with a
    Gaussian profile g; the sum is truncated at |r| <= trunc, which leaves
    errors of order exp(-pi*N*trunc^2).  These functions satisfy
    psi(x + e_1) = psi(x) exactly and psi(x + e_2) = exp(2*pi*i*N*x_1) psi(x)
    up to truncation, and they are linearly independent: together this pins
    the dimension of the section space at N.
    """

    def __init__(self, N, trunc=6):
        if N < 1:
            raise DimensionError("flux N must be a positive integer")
        self.N = N
        self.trunc = trunc

    def value(self, n, x1, x2):
        total = 0.0 + 0.0j
        for r in range(-self.trunc, self.trunc + 1):
            k = n + self.N * r
            total += cmath.exp(2j * math.pi * k * x1) * math.exp(
                -math.pi * self.N * (x2 - k / self.N) ** 2
            )
        return total

    def quasiperiodicity_defect(self, grid=12):
        """Max deviation from the two quasi-periodicity constraints on a grid."""
        worst = 0.0
        for i in range(grid):
            for j in range(grid):
                x1, x2 = i / grid, j / grid
                for n in range(self.N):
                    base = self.value(n, x1, x2)
                    d1 = abs(self.value(n, x1 + 1.0, x2) - base)
                    d2 = abs(
                        self.value(n, x1, x2 + 1.0)
                        - cmath.exp(2j * math.pi * self.N * x1) * base
                    )
                    worst = max(worst, d1, d2)
        return worst

    def gram(self, grid=48):
        """L^2 Gram matrix over the unit cell by Riemann sum."""
        G = np.zeros((self.N, self.N), dtype=complex)
        pts = [(i / grid, j / grid) for i in range(grid) for j in range(grid)]
        vals = np.array(
            [[self.value(n, x1, x2) for (x1, x2) in pts] for n in range(self.N)]
        )
        G = vals @ vals.conj().T / len(pts)
        return G

    def independent(self, grid=48, tol=1e-8):
        w = np.linalg.eigvalsh(self.gram(grid))
        return bool(w.min() > tol)


def multiplication_operator(g, cutoff, grid=None):
    """Matrix of multiplication by g on Fourier modes |k|_inf <= cutoff on T^2.

    Entries are the Fourier coefficients of g: exact (a single shifted
    diagonal) when the exponent is an integer 2*pi-linear form plus a
    constant, numerically via FFT otherwise.
    """
    if g.dim != 2:
        raise DimensionError("multiplication operators act on T^2 functions")
    if not g.is_periodic():
        raise PeriodicityError("gauge exponent does not descend to the torus")
    modes = [(k1, k2) for k1 in range(-cutoff, cutoff + 1) for k2 in range(-cutoff, cutoff + 1)]
    index = {k: i for i, k in enumerate(modes)}
    M = np.zeros((len(modes), len(modes)), dtype=complex)
    try:
        k0, const = freq_and_const(g.exponent, 2, two_pi_scaled=True)
    except FrequencyError:
        pass  # not a single mode: FFT below
    else:
        amp = cmath.exp(1j * float(const))
        for k in modes:
            kk = (k[0] + k0[0], k[1] + k0[1])
            if kk in index:
                M[index[kk], index[k]] = amp
        return M
    n = grid or max(64, 4 * cutoff + 8)
    xs = np.arange(n) / n
    X1, X2 = np.meshgrid(xs, xs, indexing="ij")
    vals = np.vectorize(lambda a, b: g.eval([a, b]))(X1, X2)
    coeffs = np.fft.fft2(vals) / (n * n)
    for p in modes:
        for q in modes:
            dk = ((p[0] - q[0]) % n, (p[1] - q[1]) % n)
            M[index[p], index[q]] = coeffs[dk[0], dk[1]]
    return M
