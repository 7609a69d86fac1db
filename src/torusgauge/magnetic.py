"""Line bundles on T^d as Z^d cocycles, magnetic translation sections, and the
extension of the translation group by periodic gauge transformations.

A line bundle is presented by exponents phi_i of the transition functions
f_i = exp(i*phi_i) for i in Z^d, stored on the generators and synthesized for
general i along a fixed axis-ordered word; any two synthesis orders differ by
the (verified) cocycle slack in 2*pi*Z, which exponential equality absorbs.
The word is kept as its parts, one shifted generator per step: a Z^d cochain
(LineData.phi_parts), and each check is cohomology.lattice_coboundary of phi,
A, dA or the section theta, plus at most two parts, in one shifted_sum.
A connection is a global 1-form A with d(phi_i) = A - A(. + i), and the
curvature dA descends to the torus automatically.

Conventions, fixed once and used everywhere:

  * translate(f, v) is the shifted function x -> f(x - v); pullbacks along
    the deck translation x -> x + i are therefore translate(., -i);
  * the section at translation v is s_A(v) = exp(-i * int over the segment
    [x - v, x] of A), a function of the base point x;
  * every U(1)-valued phase -- section, twisting cocycle, gauge -- is carried
    by its exponent, a PolyTrig;
  * operators compose as P(v) psi = s_A(v) . (psi shifted by v), giving
    P(v) P(v') = c(v, v') P(v + v') with c = two_cocycle.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from .cohomology import cochain0, cochain_simplex, lattice_coboundary
from .errors import DimensionError, PathError, TorusGaugeError
from .forms import Form, PLPath, integrate_path, integrate_simplex, shifted_form_sum
from .polytrig import PolyTrig, shifted_sum, value_at
from .reports import CheckReport, phase_item, vec_label
from .scalar import DEFAULT_TOL, Scalar
from .vectors import as_vec, basis_vec, vneg, vsub, vzero

GAUGE_NOTE = (
    "connection identities are invariant under adding a constant 1-form to A"
    " (gauge freedom); constant shifts are accepted"
)


class LineData:
    """Z^d-equivariant presentation of a line bundle on T^d.

    generators: map 1-based axis -> exponent of the transition function for
    the basis translation e_axis (missing axes mean exponent 0).
    connection: optional 1-form A.
    """

    def __init__(self, d, generators, connection=None):
        self.d = d
        self.generators = {}
        for a, f in generators.items():
            if not 1 <= a <= d:
                raise DimensionError(f"generator axis {a} out of range")
            if f.dim != d:
                raise DimensionError("generator exponent has wrong dimension")
            self.generators[a] = f
        if connection is not None and (connection.dim != d or connection.degree != 1):
            raise DimensionError("connection must be a 1-form on the same space")
        self.connection = connection
        self._curvature = None

    # -- cocycle synthesis ---------------------------------------------------

    def gen(self, axis):
        return self.generators.get(axis, PolyTrig.zero(self.d))

    def phi_parts(self, args, k=1, shift=None):
        """The shifted_sum parts of k * phi_i(x - shift) for args = (i,), i in
        Z^d: the axis-ordered word, one part per step.  A step s from pos adds
        phi_s(x + pos), by phi_{pos + s}(x) = phi_pos(x) + phi_s(x + pos), and
        phi_{-e}(y) = -phi_e(y - e)."""
        (i,) = args
        i = tuple(int(x) for x in i)
        if len(i) != self.d:
            raise DimensionError("translation vector has wrong length")
        base = vzero(self.d) if shift is None else as_vec(shift)
        parts = []
        pos = [0] * self.d
        for a, steps in enumerate(i):
            gen = self.generators.get(a + 1)
            if gen is None:
                pos[a] += steps
                continue
            for _ in range(steps):
                parts.append((k, gen, tuple(map(sub, base, pos))))  # phi_e(x + pos)
                pos[a] += 1
            for _ in range(-steps):
                pos[a] -= 1
                parts.append((-k, gen, tuple(map(sub, base, pos))))  # -phi_e(x + pos - e)
        return parts

    def phi(self, i):
        """Exponent of f_i for arbitrary i in Z^d (axis-ordered word synthesis)."""
        return shifted_sum(self.d, self.phi_parts((i,)))

    def require_connection(self):
        if self.connection is None:
            raise TorusGaugeError("this operation needs a connection 1-form")
        return self.connection

    def curvature(self):
        """dA, computed once per bundle object."""
        if self._curvature is None:
            self._curvature = self.require_connection().d()
        return self._curvature


def check_line_cocycle(line, pairs):
    """Verify phi_i(x) + phi_j(x + i) = phi_{i+j}(x) mod 2*pi*Z per pair: the
    slack is (delta phi)(i, j)."""
    report = CheckReport("translation_cocycle")
    for pair in pairs:
        pair = tuple(tuple(int(x) for x in v) for v in pair)
        slack = shifted_sum(line.d, lattice_coboundary(line.phi_parts, pair))
        phase_item(report, vec_label(*pair), slack)
    return report


def check_connection(line):
    """Verify d(phi_i) = A - A(. + i) on generators; also that dA descends."""
    d = line.d
    A = cochain0(line.require_connection())
    report = CheckReport("connection_compatibility")
    report.notes.append(GAUGE_NOTE)
    for a in range(1, d + 1):
        dphi = Form.one_form(d, {b: line.gen(a).partial(b) for b in range(1, d + 1)})
        # d(phi_e) + (delta A)(e)
        parts = [(1, dphi, None), *lattice_coboundary(A, (basis_vec(d, a),))]
        report.add(f"axis {a}", shifted_form_sum(d, 1, parts).is_zero(DEFAULT_TOL))
    B = line.curvature()
    for a in range(1, d + 1):
        step = shifted_form_sum(d, 2, lattice_coboundary(cochain0(B), (basis_vec(d, a),)))
        report.add(f"curvature descends along axis {a}", step.is_zero(DEFAULT_TOL))
    return report, B


def translation_section(line, v):
    """Exponent of s_A(v) = exp(-i * integral of A over the segment from x - v to x)."""
    A = line.require_connection()
    return -integrate_simplex(A, cochain_simplex((v,)))


def check_section_membership(line, v):
    """Quasi-periodicity of the section: s(v)(x+i) = f_i(x) f_i(x-v)^{-1} s(v)(x).
    Returns (report, theta = translation_section(line, v))."""
    v = as_vec(v)
    theta = translation_section(line, v)
    report = CheckReport("section_quasiperiodicity")
    for a in range(1, line.d + 1):
        phi = line.gen(a)
        # (delta theta)(e) - phi_e + phi_e(. - v)
        parts = [*lattice_coboundary(cochain0(theta), (basis_vec(line.d, a),)),
                 (-1, phi, None), (1, phi, v)]
        phase_item(report, f"axis {a}", shifted_sum(line.d, parts))
    return report, theta


def two_cocycle(line, v, vp):
    """Exponent of the twisting phase c(v, v'): -int over Delta^2(x; v', v) of dA."""
    B = line.curvature()
    return -integrate_simplex(B, cochain_simplex((v, vp)))


def holonomy_exponent(line, loop, on_torus=False):
    """Exponent of the holonomy phase of a closed loop.

    Loops closed in R^d integrate A around the loop.  With on_torus=True the
    loop may close only on the torus (end - start integral); the transition
    phase of the winding i closes the lift.  Its sign is pinned by requiring
    invariance (mod 2*pi) under translating the lift by a lattice vector,
    which is the statement that the phase belongs to the loop on the torus
    and not to the chosen lift.  The loop's vertices are points, so its
    integral is the symbolic one at x = 0, and the phase is taken at
    loop.start.
    """
    A = line.require_connection()
    if on_torus:
        wind = [b - a for a, b in zip(loop.start, loop.end)]
        if any(w.denominator != 1 for w in wind):
            raise PathError("loop does not close on the torus")
        base = value_at(integrate_path(A, loop), vzero(line.d))
        return base + value_at(line.phi(tuple(int(w) for w in wind)), loop.start)
    if not loop.closed:
        raise PathError("holonomy needs a closed loop")
    return value_at(integrate_path(A, loop), vzero(line.d))


class PathSymmetry:
    """A bundle symmetry covering a path of translations: (based PL path, gauge).

    gauge is the exponent of the gauge transformation and must descend to the
    torus; the pair acts on sections by gauge multiplication followed by
    parallel transport along the path.
    """

    __slots__ = ("path", "gauge")

    def __init__(self, path, gauge):
        if any(x != 0 for x in path.start):
            raise PathError("symmetry paths are based at the origin")
        if gauge.dim != path.dim:
            raise DimensionError("gauge and path dimension mismatch")
        self.path = path
        self.gauge = gauge

    @staticmethod
    def unit(d):
        return PathSymmetry(PLPath.constant(vzero(d)), PolyTrig.zero(d))

    @property
    def endpoint(self):
        return self.path.end

    def transport_exponent(self, line):
        """T(x) = -int over the path translated to x of A; exp(i T) transports."""
        A = line.require_connection()
        return -integrate_path(A, self.path)

    def invariant_exponent(self, line):
        """Exponent of transport-plus-gauge; equal iff the symmetries act equally."""
        return self.transport_exponent(line) + self.gauge


def lift_product(a, b, line, paths=None):
    """Group law on path symmetries (paths add pointwise; abelian fiber).

    The gauge factor is the holonomy of the triangle homotopy between the
    pointwise-sum path and the concatenation, times the translated gauges:

        theta = [I(gamma + gamma') - I(gamma)(. + e') - I(gamma')]
                + theta_a(. + e') + theta_b,   e' = gamma'(1),

    with I(path)(x) the line integral of A along the path translated to x;
    the five terms are summed in one shifted_sum.  paths, if given, maps
    vertex tuples to PLPath objects: a sum path with the same
    vertices as one already there is taken from it, so that products sharing
    it (the two bracketings of a triple) integrate it once.
    """
    A = line.require_connection()
    gamma, gamma_p = a.path, b.path
    e_p = gamma_p.end
    total = gamma.pointwise_add(gamma_p)
    if paths is not None:
        total = paths.setdefault(total.vertices, total)
    i_total = integrate_path(A, total)
    i_gamma = integrate_path(A, gamma)
    i_gamma_p = integrate_path(A, gamma_p)
    shift = vneg(e_p)
    theta = shifted_sum(line.d, [
        (1, i_total, None),
        (-1, i_gamma, shift),
        (1, a.gauge, shift),
        (-1, i_gamma_p, None),
        (1, b.gauge, None),
    ])
    return PathSymmetry(total, theta)


def equivalence_gauge(line, gamma, alpha):
    """Exponent of the reattachment gauge h with (gamma, phi) ~ (alpha, h . phi).

    h(x) = exp(i * (integral over alpha_x - integral over gamma_x) of A), the
    holonomy of the loop running along alpha and back along gamma.
    """
    if gamma.end != alpha.end:
        raise PathError("paths must share their endpoint")
    A = line.require_connection()
    i_gamma = integrate_path(A, gamma)
    i_alpha = integrate_path(A, alpha)
    return i_alpha - i_gamma


def lift_equivalence_check(line, gamma, alpha, phi, probe):
    """Replacing (gamma, phi) by (alpha, h.phi) must not change products.

    Verified on the invariant exponents of the products with a probe element.
    """
    report = CheckReport("lift_equivalence")
    h = equivalence_gauge(line, gamma, alpha)
    a1 = PathSymmetry(gamma, phi)
    a2 = PathSymmetry(alpha, h + phi)
    p1 = lift_product(a1, probe, line)
    p2 = lift_product(a2, probe, line)
    slack = p1.invariant_exponent(line) - p2.invariant_exponent(line)
    phase_item(report, "product invariance", slack)
    gap = vsub(p1.endpoint, p2.endpoint)
    report.add("endpoints agree", not any(gap), residue=vec_label(gap))
    # the two representatives themselves act identically
    slack0 = a1.invariant_exponent(line) - a2.invariant_exponent(line)
    phase_item(report, "representative invariance", slack0)
    return report


def landau_line(N):
    """The d=2 flux-N model: phi_{e2} = 2*pi*N*x1, A = -2*pi*N*x2 dx1."""
    phi = PolyTrig.monomial(2, (1, 0), Scalar.exact(2 * Fraction(N), 1))
    A = Form.one_form(2, {1: PolyTrig.monomial(2, (0, 1), Scalar.exact(-2 * Fraction(N), 1))})
    return LineData(2, {2: phi}, A)
