"""Group cochains on the translation group, and the sampled cocycle laws.

Every cochain the checker samples -- the section theta, the twist c, the
composition Pi and the associator omega -- is kappa = s * int over
Delta^n(x; v_n, ..., v_1) of an n-form alpha, s = +-1 (cochain_simplex builds
that simplex).  Under the module action rho_v f = f(. - v) the inhomogeneous
differential

    (delta c)(v_1, ..., v_{n+1}) = rho_{v_1} c(v_2, ..., v_{n+1})
        + sum_i (-1)^i c(..., v_i + v_{i+1}, ...) + (-1)^{n+1} c(v_1, ..., v_n)

takes such a cochain to a chain, and cell for cell

    delta(+-Delta^n) = (-1)^{n+1} (+-) boundary of Delta^{n+1}(x; v_{n+1}, ..., v_1):

face j of the boundary (vertex j dropped, vertex 0 the farthest from x) is
c(v_1, ..., v_n) for j = 0, the term merging v_i + v_{i+1} with i = n + 1 - j,
and the translated term rho_{v_1} c(v_2, ...) for j = n + 1.  So each sampled
law integrates the boundary() of one simplex in one kernel pass, and by
Stokes' theorem on that simplex delta(kappa) is the next cochain
s * (-1)^{n+1} * int over Delta^{n+1} of d(alpha).  coboundary_slack is that
one computation, and check_coboundary decides it on samples: the projective
relation delta(theta) = c, the twist's law delta(c) = 1, the pentagon
delta(Pi) = omega and the associator's law delta(omega) = 1 are its four
uses, and the Stokes self-test checks the kernel with its slack.

The same differential on Z^d, with rho_i f = f(. + i), needs no integral: the
presentation data are Z^d cochains given by their shifted_sum parts,
kappa(args, k, shift) those of k * kappa(args)(x - shift) -- the phi of a line
or a gerbe, linear_cochain of generator values (A_i, the section gauges g_i)
and cochain0 of one function or form -- and lattice_coboundary lists the parts
of k * delta(kappa).  Every cocycle, connection, section and descent check on
that data is one such coboundary plus at most two extra parts.
GroupCochain is the cochain type of the exponent-valued test oracle.
"""

from __future__ import annotations

from operator import add

from .forms import AffineSimplex, integrate_chain, integrate_simplex
from .reports import CheckReport, phase_item, vec_label
from .vectors import as_vec, vneg


class GroupCochain:
    """Degree-n cochain: evaluator from n-tuples of rational vectors to values."""

    __slots__ = ("degree", "dim", "evaluator")

    def __init__(self, degree, dim, evaluator):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        self.degree = degree
        self.dim = dim
        self.evaluator = evaluator

    def __call__(self, *args):
        if len(args) != self.degree:
            raise ValueError(f"degree-{self.degree} cochain called with {len(args)} arguments")
        return self.evaluator(tuple(as_vec(v) for v in args))


def cochain_simplex(vectors):
    """Delta^n(x; v_n, ..., v_1) for the tuple (v_1, ..., v_n): the simplex
    with top vertex x and the vectors as its edges, last first."""
    return AffineSimplex.from_edges(vectors[::-1])


def coboundary_slack(sign, alpha, cell, d_alpha=None):
    """(slack, interior) of delta(kappa) on the (n+1)-simplex cell, kappa =
    sign * int of the n-form alpha: the integral of alpha over cell.boundary(),
    one kernel call, less the interior, the integral of d_alpha over cell
    (None without d_alpha), each times sign * (-1)^{n+1} before the difference."""
    negate = sign * (-1) ** (alpha.degree + 1) < 0
    slack = integrate_chain(alpha, cell.boundary())
    if negate:
        slack = -slack
    if d_alpha is None:
        return slack, None
    interior = integrate_simplex(d_alpha, cell)
    if negate:
        interior = -interior
    return slack - interior, interior


def check_coboundary(identity, sign, alpha, samples, d_alpha=None):
    """The law delta(kappa) = interior (= 1 without d_alpha) on each sampled
    (n+1)-tuple, kappa = sign * int over Delta^n of alpha: coboundary_slack,
    decided by phase_item.  Returns (report, the interiors in sample order)."""
    report = CheckReport(identity)
    interiors = []
    for args in samples:
        args = tuple(map(as_vec, args))
        slack, interior = coboundary_slack(sign, alpha, cochain_simplex(args), d_alpha)
        phase_item(report, vec_label(*args), slack)
        interiors.append(interior)
    return report, interiors


def lattice_coboundary(kappa, args, k=1):
    """The shifted_sum parts of k * (delta kappa)(g_1, ..., g_{n+1}) for the
    integer vectors args = (g_1, ..., g_{n+1}) and a degree-n cochain kappa,
    by the differential above with rho_{g_1} the part shift -g_1."""
    n = len(args) - 1
    parts = list(kappa(args[1:], k, vneg(args[0])))
    for i in range(1, n + 1):
        merged = (*args[: i - 1], tuple(map(add, args[i - 1], args[i])), *args[i + 1 :])
        parts += kappa(merged, -k if i % 2 else k, None)
    parts += kappa(args[:n], k if n % 2 else -k, None)
    return parts


def linear_cochain(values):
    """The 1-cochain i -> sum_a i_a values[a] on Z^d of the generator values
    keyed by 1-based axis, as the parts function lattice_coboundary takes."""

    def kappa(args, k=1, shift=None):
        (i,) = args
        return [(k * i[a - 1], f, shift) for a, f in values.items() if i[a - 1]]

    return kappa


def cochain0(f):
    """The 0-cochain of one function or form f, as the parts function
    lattice_coboundary takes: delta of it at (i,) is f(. + i) - f."""
    return lambda args, k=1, shift=None: [(k, f, shift)]
