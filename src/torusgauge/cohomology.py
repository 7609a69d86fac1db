"""Group cochains on the translation group, valued in chains of simplices.

A degree-n cochain maps n-tuples of translation vectors to a chain: a list of
signed symbolic AffineSimplex cells whose integral against a form omega is
the exponent of a U(1) function.  Every cochain the checker samples is plus
or minus the integral of omega over Delta^n(x; v_n, ..., v_1) (see
simplex_cochain).  The module action rho_v theta = theta(. - v) moves each
cell's top vertex by -v, and the inhomogeneous differential

    (delta c)(v_1, ..., v_{n+1}) = rho_{v_1} c(v_2, ..., v_{n+1})
        + sum_i (-1)^i c(..., v_i + v_{i+1}, ...) + (-1)^{n+1} c(v_1, ..., v_n)

is a chain too, a minus sign flipping each cell's sign.  Integration commutes
with both, so each sampled identity is one integrate_chain call: one kernel
pass per sample.  Cochains are sampled on explicit tuples (every identity is
pointwise in the continuous group), and evaluators must be pure.
"""

from __future__ import annotations

from .forms import AffineSimplex, integrate_chain
from .reports import CheckReport, phase_item, vec_label
from .vectors import as_vec, vadd, vsub, vzero


class GroupCochain:
    """Degree-n cochain: evaluator from n-tuples of rational vectors to chains."""

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


def simplex_cochain(degree, dim, sign=1):
    """(v_1, ..., v_n) -> the chain of sign * Delta^n(x; v_n, ..., v_1)."""
    top = vzero(dim)
    return GroupCochain(degree, dim, lambda args: [AffineSimplex(top, args[::-1], sign=sign)])


def coboundary(c):
    """The inhomogeneous differential on chains; delta(delta(c)) integrates to 0."""
    n = c.degree

    def ev(args):
        v = args[0]
        chain = [AffineSimplex(vsub(s.top, v), s.edges, sign=s.sign) for s in c.evaluator(args[1:])]
        faces = [args[:i] + (vadd(args[i], args[i + 1]),) + args[i + 2 :] for i in range(n)]
        for i, face in enumerate(faces + [args[:n]]):
            term = c.evaluator(face)
            chain += term if i % 2 else [-s for s in term]
        return chain

    return GroupCochain(n + 1, c.dim, ev)


def is_cocycle(c, omega, samples, identity="cochain_cocycle"):
    """The integral of omega over delta(c) is in 2*pi*Z on every sampled (n+1)-tuple."""
    dc = coboundary(c)
    report = CheckReport(identity)
    for args in samples:
        phase_item(report, vec_label(*map(as_vec, args)), integrate_chain(omega, dc(*args)))
    return report
