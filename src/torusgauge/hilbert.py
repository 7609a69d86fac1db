"""Finite-dimensional magnetic translation operators, exactly.

For flux N on T^2 the magnetic translations at lattice fractions
v = (a/N, b/N) act on an N-dimensional state space.  With U the cyclic shift
and V = diag(exp(2*pi*i*n/N)) the realization

    P(a/N, b/N) = exp(-i*pi*a*b/N) U^a V^{-b}

satisfies P(v) P(v') = c(v, v') P(v + v') exactly, where c is the geometric
two-cocycle of the flux-N line bundle; the scalar prefactor is forced by that
requirement, not chosen.  P(v) is a monomial matrix: column n holds its one
entry exp(i*pi*e_n/N), e_n = -a*b - 2*n*b, in row n + a (mod N).  It is kept
as that shift and those integer exponents mod 2N, so the relation is checked
over the integers and unitarity holds by construction.  Gerbe data has no
finite-dimensional analogue here: nonassociativity obstructs operator
realizations, so only d = 2 line-bundle data is represented.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, TorusGaugeError
from .magnetic import landau_line, two_cocycle
from .polytrig import constant_mod_free
from .scalar import Scalar


def _lattice_coords(N, v):
    ys = [Fraction(x) * N for x in v]
    if any(y.denominator != 1 for y in ys):
        raise TorusGaugeError(f"translation {tuple(map(str, v))} is not on the (1/{N})-lattice")
    return [int(y) for y in ys]


def translation_matrix(N, v):
    """The magnetic translation at v in (1/N) Z^2 as (a mod N, exponents):
    its entry (n + a, n) is exp(i*pi*e_n/N), e_n = -a*b - 2*n*b mod 2N."""
    if N < 1:
        raise DimensionError("flux N must be a positive integer")
    a, b = _lattice_coords(N, v)
    return a % N, tuple((-a * b - 2 * n * b) % (2 * N) for n in range(N))


def operator_cocycle_slack(N, v, vp, line=None, mats=None):
    """The exponent slack of P(v) P(v') = c(v, v') P(v + v'), a Scalar.

    With e, e' and e'' the exponents of P(v), P(v') and P(v + v'), the two
    monomials are composed column by column: column n of the product is
    exp(i*pi*Delta_n/N) times column n of P(v + v'), Delta_n =
    e'_n + e_{n+a'} - e''_n, and the slack pi*Delta/N - c lies in 2*pi*Z iff
    the relation holds.  None when the slack is not one constant: c is
    nonconstant, or the product is no scalar multiple of P(v + v') (their
    shifts differ, or Delta_n mod 2N varies with n).  c comes from line, the
    flux-N line bundle (landau_line(N) if None).  mats, if given, maps each
    of v, v' and v + v' to its translation_matrix.
    """
    v = tuple(Fraction(x) for x in v)
    vp = tuple(Fraction(x) for x in vp)
    vs = tuple(x + y for x, y in zip(v, vp))
    c = constant_mod_free(two_cocycle(landau_line(N) if line is None else line, v, vp))
    if mats is None:
        mats = {w: translation_matrix(N, w) for w in (v, vp, vs)}
    (a, e), (ap, ep), (sa, se) = mats[v], mats[vp], mats[vs]
    deltas = {(ep[n] + e[(n + ap) % N] - se[n]) % (2 * N) for n in range(N)}
    if c is None or (a + ap - sa) % N or len(deltas) != 1:
        return None
    return Scalar.exact(Fraction(deltas.pop(), N), 1) - c
