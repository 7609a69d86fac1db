"""Group cochains on the translation group valued in U(1) functions.

A degree-n cochain maps n-tuples of translation vectors to the exponent theta
(a PolyTrig) of a U(1) function exp(i*theta), so the group law of U(1) is
addition of exponents.  The module action is rho_v theta = theta(. - v) (the
same shift convention used by the magnetic translation operators), and the
inhomogeneous differential is the alternating sum

    (delta c)(v_1, ..., v_{n+1}) =
        rho_{v_1} c(v_2, ..., v_{n+1})
        + sum_i (-1)^i c(v_1, ..., v_i + v_{i+1}, ..., v_{n+1})
        + (-1)^{n+1} c(v_1, ..., v_n).

Cochains are sampled on explicit tuples, not symbolic in the group variables:
the group is continuous and every identity checked here is pointwise in it.
Evaluators must be pure; samples may be checked in any order.
"""

from __future__ import annotations

from .polytrig import translate
from .reports import CheckReport, phase_item, vec_label
from .scalar import DEFAULT_TOL
from .vectors import as_vec, vadd


class GroupCochain:
    """Degree-n cochain: evaluator on n-tuples of rational vectors."""

    __slots__ = ("degree", "dim", "evaluator")

    def __init__(self, degree, dim, evaluator):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        self.degree = degree
        self.dim = dim
        self.evaluator = evaluator

    def __call__(self, *args):
        if len(args) != self.degree:
            raise ValueError(
                f"degree-{self.degree} cochain called with {len(args)} arguments"
            )
        return self.evaluator(tuple(as_vec(v) for v in args))


def coboundary(c):
    """The inhomogeneous differential; delta(delta(c)) = 0."""
    n = c.degree

    def ev(args):
        out = translate(c.evaluator(args[1:]), args[0])
        sign = -1
        for i in range(1, n + 1):
            merged = args[: i - 1] + (vadd(args[i - 1], args[i]),) + args[i + 1 :]
            term = c.evaluator(merged)
            out = out + term if sign > 0 else out - term
            sign = -sign
        last = c.evaluator(args[:n])
        return out + last if sign > 0 else out - last

    return GroupCochain(n + 1, c.dim, ev)


def is_cocycle(c, samples, tol=DEFAULT_TOL, identity="cochain_cocycle"):
    """delta(c) is a constant in 2*pi*Z on every sampled (n+1)-tuple."""
    dc = coboundary(c)
    report = CheckReport(identity)
    for args in samples:
        phase_item(report, vec_label(*map(as_vec, args)), dc(*args), tol)
    return report
