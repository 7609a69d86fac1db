"""Seeded random generators for property suites.

The generators sample inside the exactness-closed domain of the coefficient
ring: polynomial coefficients may meet arbitrary rational simplices, while
trig coefficients are paired with simplices whose edge denominators divide
the frequencies, so that every pullback stays on the integer frequency
lattice.  With a fixed seed every sequence is reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .forms import AffineSimplex, Form, PLPath, integrate_chain, integrate_simplex
from .gerbes import GerbeData
from .magnetic import LineData
from .polytrig import MODE_COS, MODE_NONE, MODE_SIN, PolyTrig, _Acc, translate
from .scalar import Scalar


def rng(seed):
    return random.Random(seed)


def rand_fraction(rnd, num=3, dens=(1, 2, 3)):
    return Fraction(rnd.randint(-num, num), rnd.choice(dens))


def rand_vector(rnd, d, num=3, dens=(1, 2, 3)):
    return tuple(rand_fraction(rnd, num, dens) for _ in range(d))


def rand_int_vector(rnd, d, lo=-2, hi=2):
    return tuple(rnd.randint(lo, hi) for _ in range(d))


def rand_scalar(rnd):
    return Scalar.exact(Fraction(rnd.randint(-3, 3), rnd.choice((1, 2))), rnd.choice((0, 1)))


def rand_polytrig(rnd, d, freq_step=1, n_terms=2, max_deg=2):
    """Random exact PolyTrig; trig frequencies are multiples of freq_step."""
    acc = _Acc(d)
    zeros = (0,) * d
    for _ in range(n_terms):
        if rnd.random() < 0.5:
            alpha = tuple(rnd.randint(0, max_deg) for _ in range(d))
            acc.put(alpha if sum(alpha) <= max_deg else zeros, MODE_NONE, zeros, rand_scalar(rnd))
        else:
            freq = tuple(freq_step * rnd.randint(-1, 1) for _ in range(d))
            if not any(freq):
                freq = (freq_step,) + zeros[1:]
            mode = MODE_COS if rnd.random() < 0.5 else MODE_SIN
            acc.put(zeros, mode, freq, rand_scalar(rnd))
    return acc.done()


def rand_form(rnd, d, degree, freq_step=1):
    comps = {}
    idxs = list(combinations(range(d), degree))
    rnd.shuffle(idxs)
    for idx in idxs[: max(1, len(idxs) // 2)]:
        comps[idx] = rand_polytrig(rnd, d, freq_step)
    return Form(d, degree, comps)


def rand_simplex(rnd, d, k, den=1, spread=2):
    """Random simplex with symbolic base; edge denominators divide den."""
    edges = []
    for _ in range(k):
        edges.append(tuple(Fraction(rnd.randint(-spread, spread), den) for _ in range(d)))
    return AffineSimplex.from_edges(edges)


def stokes_sample(rnd, d, k):
    """A (form, simplex) pair on which Stokes must hold exactly in tier E."""
    den = rnd.choice((1, 2, 3))
    simplex = rand_simplex(rnd, d, k, den=den)
    omega = rand_form(rnd, d, k - 1, freq_step=den)
    return omega, simplex


def stokes_defect(omega, simplex):
    """integral of d(omega) minus the boundary integral; must vanish."""
    return integrate_simplex(omega.d(), simplex) - integrate_chain(omega, simplex.boundary())


def rand_based_path(rnd, d, segments=2, num=2, dens=(1, 2, 3)):
    """PL path with the given number of segments based at the origin."""
    verts = [tuple(Fraction(0) for _ in range(d))]
    for _ in range(segments):
        verts.append(rand_vector(rnd, d, num, dens))
    return PLPath(verts)


def rand_periodic_gauge(rnd, d):
    """Exponent of a U(1) function that descends to the torus, built in one accumulator."""
    acc = _Acc(d)
    zeros = (0,) * d
    k = rand_int_vector(rnd, d, -1, 1)
    if any(k):
        mode = MODE_COS if rnd.random() < 0.5 else MODE_SIN
        acc.put(zeros, mode, k, rand_scalar(rnd))
    n = rnd.randint(-2, 2)
    if n:
        axis = rnd.randrange(d)
        alpha = tuple(1 if i == axis else 0 for i in range(d))
        acc.put(alpha, MODE_NONE, zeros, Scalar.exact(2 * n, 1))
    acc.put(zeros, MODE_NONE, zeros, rand_scalar(rnd))
    return acc.done()


def _rand_poly(rnd, d, max_deg=2):
    out = PolyTrig.zero(d)
    for _ in range(2):
        alpha = [0] * d
        for _ in range(max_deg):
            if rnd.random() < 0.6:
                alpha[rnd.randrange(d)] += 1
        out = out + PolyTrig.monomial(d, tuple(alpha), rand_scalar(rnd))
    return out


def rand_line_data(rnd, fluxes=(-3, 3)):
    """Random d=2 line bundle with connection passing every conformance check.

    Built as the flux-N model shifted by an arbitrary polynomial gauge g
    (A -> A + dg, phi -> phi + g - g(. + i)) plus a constant 1-form; the
    polynomial gauge keeps every section integral on the exact tier.
    """
    N = rnd.randint(*fluxes)
    a_coeff = PolyTrig.monomial(2, (0, 1), Scalar.exact(-2 * Fraction(N), 1))
    A = Form.one_form(2, {1: a_coeff + PolyTrig.const(2, rand_scalar(rnd)),
                          2: PolyTrig.const(2, rand_scalar(rnd))})
    phis = {2: PolyTrig.monomial(2, (1, 0), Scalar.exact(2 * Fraction(N), 1)),
            1: PolyTrig.zero(2)}
    g = _rand_poly(rnd, 2)
    dg = Form.one_form(2, {a: g.partial(a) for a in (1, 2)})
    A = A + dg
    gens = {}
    for a in (1, 2):
        e = [0, 0]
        e[a - 1] = 1
        gens[a] = phis[a] + g - translate(g, [-x for x in e])
    return LineData(2, gens, A)


def rand_gerbe_data(rnd, fluxes=(-2, 2)):
    """Random d=3 gerbe with connection passing every conformance check.

    The three-flux family B = 2*pi*(m1 x1 dx2^dx3 + m2 x2 dx3^dx1 +
    m3 x3 dx1^dx2), shifted by d(Lambda) for a random 1-form Lambda with
    degree-1 polynomial coefficients (which re-routes into the A_i linearly)
    plus a constant 2-form.
    """
    m = [rnd.randint(*fluxes) for _ in range(3)]
    two_pi = lambda c: Scalar.exact(2 * Fraction(c), 1)
    # dx3 ^ dx1 = -dx1 ^ dx3 in the sorted component basis
    curving = Form.two_form(
        3,
        {
            (2, 3): PolyTrig.monomial(3, (1, 0, 0), two_pi(m[0]))
            + PolyTrig.const(3, rand_scalar(rnd)),
            (1, 3): PolyTrig.monomial(3, (0, 1, 0), two_pi(-m[1])),
            (1, 2): PolyTrig.monomial(3, (0, 0, 1), two_pi(m[2])),
        },
    )
    # A_{e_a} for the unshifted family
    conns = {}
    for a in range(1, 4):
        i = [0, 0, 0]
        i[a - 1] = 1
        conns[a] = Form.one_form(
            3,
            {
                3: PolyTrig.monomial(3, (0, 1, 0), two_pi(m[0] * i[0])),
                1: PolyTrig.monomial(3, (0, 0, 1), two_pi(m[1] * i[1])),
                2: PolyTrig.monomial(3, (1, 0, 0), two_pi(m[2] * i[2])),
            },
        )
    psi = {
        (2, 1): PolyTrig.monomial(3, (0, 0, 1), two_pi(-m[0])),
        (3, 2): PolyTrig.monomial(3, (1, 0, 0), two_pi(-m[1])),
        (1, 3): PolyTrig.monomial(3, (0, 1, 0), two_pi(-m[2])),
    }
    # gauge shift by d(Lambda), Lambda with degree-1 coefficients
    lam_comps = {}
    for a in range(1, 4):
        alpha = [0, 0, 0]
        alpha[rnd.randrange(3)] = 1
        lam_comps[a] = PolyTrig.monomial(3, tuple(alpha), rand_scalar(rnd))
    lam = Form.one_form(3, lam_comps)
    curving = curving + lam.d()
    for a in range(1, 4):
        e = [0, 0, 0]
        e[a - 1] = 1
        conns[a] = conns[a] + lam.translate([-x for x in e]) - lam
    return GerbeData(3, psi, conns, curving)
