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
over the integers and unitarity holds by construction.

The curvature the operators command accepts (landau_flux) is a constant
2*pi*N dx1^dx2, and for a constant curvature c is bilinear and alternating in
(v, v') (Zak's magnetic translation phase): c(v, v') = v2 v'1 c(e2, e1) +
v1 v'2 c(e1, e2).  cocycle_form reads those two constants once per line, and
lattice_verdicts decides every pair of the (1/N)-lattice in ints; a failing
pair's residue is rendered from the int slack that failed it.  Gerbe data has
no finite-dimensional analogue here: nonassociativity obstructs operator
realizations, so only d = 2 line-bundle data is represented.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import DimensionError, TorusGaugeError
from .magnetic import landau_line, two_cocycle
from .polytrig import MODE_NONE, constant_mod_free
from .reports import CheckReport, vec_label
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


def _column_phase(N, m, mp, ms):
    """Delta mod 2N with P(v) P(v') = exp(i*pi*Delta/N) P(v + v'), from the
    translation_matrix m, mp and ms of v, v' and v + v'.

    With e, e' and e'' their exponents the monomials are composed column by
    column: column n of the product is exp(i*pi*Delta_n/N) times column n of
    P(v + v'), Delta_n = e'_n + e_{n+a'} - e''_n.  None when the product is
    no scalar multiple of P(v + v'): the shifts differ, or Delta_n mod 2N
    varies with n.
    """
    (a, e), (ap, ep), (sa, se) = m, mp, ms
    deltas = {(ep[n] + e[(n + ap) % N] - se[n]) % (2 * N) for n in range(N)}
    if (a + ap - sa) % N or len(deltas) != 1:
        return None
    return deltas.pop()


def landau_flux(line):
    """N if line lives on T^2 with constant curvature 2*pi*N dx1^dx2 for an
    integer N >= 1, else None.  The dx1^dx2 component must be one exact
    constant term: a float term within tolerance of zero is no constant."""
    if line.d != 2:
        return None
    f = line.curvature().comps.get((0, 1))
    if f is None or len(f.terms) != 1:
        return None
    ((alpha, mode, _freq), c), = f.terms.items()
    if any(alpha) or mode != MODE_NONE or not c.is_exact:
        return None
    n = c / Scalar.exact(2, 1)
    if not n.is_rational():
        return None
    n = n.rational_value()
    return int(n) if n.denominator == 1 and n >= 1 else None


def cocycle_form(line):
    """(k21, k12), Fractions with c(e2, e1) = k21*pi and c(e1, e2) = k12*pi.

    Each is the constant of one two_cocycle integral over line.  They give
    c(v, v') = (v2 v'1 k21 + v1 v'2 k12)*pi on every pair only when the
    curvature of line is constant, which landau_flux makes sure of.
    TorusGaugeError if either is not an exact multiple of pi.
    """
    ks = []
    for v, vp in (((0, 1), (1, 0)), ((1, 0), (0, 1))):
        c = constant_mod_free(two_cocycle(line, v, vp))
        if c is None or not c.is_exact or any(k != 1 for k in c.num):
            raise TorusGaugeError(f"c({v}, {vp}) = {c} is not an exact multiple of pi")
        ks.append(Fraction(c.num.get(1, 0), c.den))
    return tuple(ks)


def lattice_verdicts(N, form):
    """(p, q, residue) for every pair of lattice points p, q, int pairs with
    entries in range(N) standing for v = p/N and v' = q/N, in lexicographic
    order.  residue is None when P(v) P(v') = c(v, v') P(v + v') holds,
    decided in ints, else the slack pi*Delta/N - c(v, v') mod 2*pi as a report
    residue: "nonconstant" when the product is no scalar multiple of P(v + v').

    form is cocycle_form's (k21, k12).  Over the common denominator N^2 L of
    c/pi, with k21 = m21/L and k12 = m12/L, the slack over pi is
    (Delta*N*L - q1*p2*m21 - q2*p1*m12) / (N^2 L), and it lies in 2Z iff its
    numerator is divisible by 2 N^2 L.
    """
    k21, k12 = form
    L = lcm(k21.denominator, k12.denominator)
    nl, mod = N * L, 2 * N * N * L
    m21, m12 = k21.numerator * (L // k21.denominator), k12.numerator * (L // k12.denominator)
    # one matrix per v + v' with v, v' on the lattice: numerators 0 <= a <= 2N - 2
    mats = {
        p: translation_matrix(N, (Fraction(p[0], N), Fraction(p[1], N)))
        for p in itertools.product(range(2 * N - 1), repeat=2)
    }
    lattice = list(itertools.product(range(N), repeat=2))
    for p, q in itertools.product(lattice, repeat=2):
        (a, b), (ap, bp) = p, q
        delta = _column_phase(N, mats[p], mats[q], mats[a + ap, b + bp])
        if delta is None:
            yield p, q, "nonconstant"
            continue
        num = (delta * nl - ap * b * m21 - bp * a * m12) % mod
        yield p, q, None if num == 0 else str(Scalar.exact(Fraction(num, N * nl), 1))


def check_operator_cocycle(line, flux, flux_list):
    """The operator_cocycle report for line, flux = landau_flux(line): one
    item per N in flux_list, with the first failing pair of the (1/N)-lattice
    and its residue if any."""
    rep = CheckReport("operator_cocycle")
    for N in flux_list:
        # the scenario's own c(v, v') at its flux; the Landau model at any other
        form = cocycle_form(line if N == flux else landau_line(N))
        residue, note = "0", None
        for p, q, slack in lattice_verdicts(N, form):
            if slack is not None:
                v, vp = (tuple(Fraction(x, N) for x in w) for w in (p, q))
                residue, note = slack, "first failing pair " + vec_label(v, vp)
                break
        rep.add(f"twisted algebra N={N}", note is None, residue=residue, note=note)
    return rep
