"""Finite-dimensional magnetic translation operators.

For flux N on T^2 the magnetic translations at lattice fractions
v = (a/N, b/N) act on an N-dimensional state space.  With U the cyclic shift
and V = diag(exp(2*pi*i*n/N)) the realization

    P(a/N, b/N) = exp(-i*pi*a*b/N) U^a V^{-b}

satisfies P(v) P(v') = c(v, v') P(v + v') exactly, where c is the geometric
two-cocycle of the flux-N line bundle; the scalar prefactor is forced by that
requirement, not chosen.  Gerbe data has no finite-dimensional analogue here:
nonassociativity obstructs operator realizations, so only d = 2 line-bundle
data is represented.

numpy is imported on first use, inside the functions that build or test a
matrix, so that importing the package (and the CLI) does not load it; only
the `operators` command needs it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DimensionError, TorusGaugeError
from .magnetic import landau_line, two_cocycle
from .polytrig import constant_mod_free

UNITARITY_TOL = 1e-12
# sup-norm bound on the defect of P(v) P(v') = c(v, v') P(v + v')
OPERATOR_TOL = 1e-10


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
    import numpy as np

    a, b = _lattice_coords(N, v)
    phase = cmath.exp(-1j * math.pi * a * b / N)
    P = np.zeros((N, N), dtype=complex)
    for n in range(N):
        P[(n + a) % N, n] = phase * cmath.exp(-2j * math.pi * n * b / N)
    return P


def is_unitary(M):
    import numpy as np

    N = M.shape[0]
    return bool(np.max(np.abs(M @ M.conj().T - np.eye(N))) < UNITARITY_TOL)


def geometric_cocycle_phase(N, v, vp, line=None):
    """exp of the flux-N two-cocycle exponent, computed from the bundle data.

    line is the flux-N line bundle to use, landau_line(N) if None.
    """
    if line is None:
        line = landau_line(N)
    r = constant_mod_free(two_cocycle(line, v, vp))
    if r is None:
        raise TorusGaugeError("two-cocycle is not constant for this data")
    return cmath.exp(1j * float(r))


def verify_operator_cocycle(N, v, vp, line=None, mats=None):
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
    defect = float(abs(lhs - rhs).max())
    return defect < OPERATOR_TOL, defect
