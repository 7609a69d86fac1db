"""Group cochains on the translation group valued in U(1) functions.

A degree-n cochain maps n-tuples of translation vectors to U1Functions.  The
module action is rho_v g = g(. - v) (the same shift convention used by the
magnetic translation operators), and the inhomogeneous differential is

    (delta c)(v_1, ..., v_{n+1}) =
        rho_{v_1} c(v_2, ..., v_{n+1})
        . prod_i c(v_1, ..., v_i + v_{i+1}, ..., v_{n+1})^{(-1)^i}
        . c(v_1, ..., v_n)^{(-1)^{n+1}}.

Cochains are sampled on explicit tuples, not symbolic in the group variables:
the group is continuous and every identity checked here is pointwise in it.
Evaluators must be pure; samples may be checked in any order.
"""

from __future__ import annotations

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
    """The inhomogeneous differential; delta(delta(c)) = 1 on samples."""
    n = c.degree

    def ev(args):
        head, rest = args[0], args[1:]
        out = c.evaluator(rest).translate(head)
        sign = -1
        for i in range(1, n + 1):
            merged = args[: i - 1] + (vadd(args[i - 1], args[i]),) + args[i + 1 :]
            term = c.evaluator(merged)
            out = out * term if sign > 0 else out / term
            sign = -sign
        last = c.evaluator(args[:n])
        out = out * last if sign > 0 else out / last
        return out

    return GroupCochain(n + 1, c.dim, ev)


def is_cocycle(c, samples, tol=DEFAULT_TOL, identity="cochain_cocycle"):
    """delta(c) evaluates to 1 on every sampled (n+1)-tuple."""
    dc = coboundary(c)
    report = CheckReport(identity)
    for args in samples:
        phase_item(report, vec_label(*map(as_vec, args)), dc(*args).exponent, tol)
    return report


def is_coboundary_of(c, b, samples, tol=DEFAULT_TOL):
    """c agrees with delta(b) on every sampled n-tuple."""
    if b.degree != c.degree - 1:
        raise ValueError("witness cochain must have degree one less")
    db = coboundary(b)
    report = CheckReport("cochain_coboundary")
    for args in samples:
        slack = (c(*args) / db(*args)).exponent
        phase_item(report, vec_label(*map(as_vec, args)), slack, tol)
    return report
