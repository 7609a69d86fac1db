"""Group cochains on the translation group, and the sampled cocycle laws.

Every cochain the checker samples -- the section theta, the twist c, the
composition Pi and the associator omega -- is plus or minus the integral of a
form over one simplex Delta^n(x; v_n, ..., v_1).  Under the module action
rho_v f = f(. - v) the inhomogeneous differential

    (delta c)(v_1, ..., v_{n+1}) = rho_{v_1} c(v_2, ..., v_{n+1})
        + sum_i (-1)^i c(..., v_i + v_{i+1}, ...) + (-1)^{n+1} c(v_1, ..., v_n)

takes such a cochain to a chain, and cell for cell

    delta(+-Delta^n) = (-1)^{n+1} (+-) boundary of Delta^{n+1}(x; v_{n+1}, ..., v_1):

face j of the boundary (vertex j dropped, vertex 0 the farthest from x) is
c(v_1, ..., v_n) for j = 0, the term merging v_i + v_{i+1} with i = n + 1 - j,
and the translated term rho_{v_1} c(v_2, ...) for j = n + 1.  So each sampled
law integrates the boundary() of one simplex in one kernel pass: it is Stokes'
theorem on that simplex.  GroupCochain is the cochain type of the
exponent-valued test oracle.
"""

from __future__ import annotations

from .forms import AffineSimplex, integrate_chain
from .reports import CheckReport, phase_item, vec_label
from .vectors import as_vec


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


def is_cocycle(omega, samples, identity):
    """delta of the cochain (-1)^{n+1} int over Delta^n(x; v_n, ..., v_1) of
    the closed form omega is in 2*pi*Z on each sampled (n+1)-tuple: there it
    is the integral of omega over the boundary of Delta^{n+1}(x; v_{n+1},
    ..., v_1)."""
    report = CheckReport(identity)
    for args in samples:
        chain = AffineSimplex.from_edges(args[::-1]).boundary()
        phase_item(report, vec_label(*map(as_vec, args)), integrate_chain(omega, chain))
    return report
