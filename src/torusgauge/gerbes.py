"""Gerbes on T^d as Z^d 2-cocycles with connection, their translation sections,
composition 2-isomorphisms, the associator 3-cocycle, and flux quantization.

A gerbe is presented by exponents phi_{i,j} of the 2-cocycle, a family of
1-forms A_i and a global curving 2-form B subject to

    d(phi_{i,j})(x) = A_{i+j}(x) - A_i(x) - A_j(x + i),
    dA_i = B(. + i) - B,

so the curvature H = dB is translation invariant and descends to the torus.
Cocycle exponents and connection forms are stored on generators and extended
multilinearly: phi_{i,j} = sum_{a,b} i_a j_b psi_{ab} and A_i = sum_a i_a A_a.
The translation section at v is likewise its generator gauges
g_{e_a} = exp(i int_{[x - v, x]} A_a), extended linearly like A_i:
g_i = prod_a g_{e_a}^{i_a}.  The extensions are Z^d cochains kept as parts,
one per generator term (GerbeData.phi_parts, cohomology.linear_cochain), and
each check is cohomology.lattice_coboundary of phi, A, B, H, g or omega, plus
at most two parts, in one shifted_sum: no phi_{i,j}, A_i or g_i is built.
Any presentation differing from a word-synthesized one is absorbed by the
mod-2*pi equality used in every check, and nonconforming data still fails the
verification suite.

The composition phase Pi_{v,v'} = exp(-i int_{Delta^2(x; v', v)} B) mediates
s(v) . s(v') -> s(v+v'), and reassociating a triple product picks up the
associator exp(i int_{Delta^3(x; w, v, u)} H); the pentagon identity relating
them is an exact Stokes consequence, which cohomology.check_coboundary
decides, as it decides the associator's cocycle law.  Every phase here is
returned as its exponent, a PolyTrig, and every identity is verified at
exponent level.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cohomology import cochain0, cochain_simplex, lattice_coboundary, linear_cochain
from .errors import DegreeError, DimensionError, QuantizationError
from .forms import AffineSimplex, Form, integrate_chain, integrate_simplex, shifted_form_sum
from .polytrig import PolyTrig, shifted_sum, value_at
from .reports import CheckReport, phase_item, vec_label
from .scalar import DEFAULT_TOL, Scalar
from .vectors import as_vec, basis_vec, vzero


def _generator_pairs(d):
    gens = [tuple(int(x) for x in basis_vec(d, a)) for a in range(1, d + 1)]
    return list(itertools.product(gens, gens))


class GerbeData:
    """Z^d-equivariant presentation of a gerbe with connection on T^d.

    pair_exponents: map (a, b) of 1-based axes -> psi_ab, the exponent
        phi_{e_a, e_b} of the 2-cocycle on the generator pair.
    gen_connections: map 1-based axis -> the 1-form A_{e_a}.
    curving: the global 2-form B.
    """

    def __init__(self, d, pair_exponents, gen_connections, curving):
        self.d = d
        self.pair_exponents = {}
        for (a, b), f in pair_exponents.items():
            if not (1 <= a <= d and 1 <= b <= d):
                raise DimensionError(f"generator pair ({a},{b}) out of range")
            if f.dim != d:
                raise DimensionError("cocycle exponent has wrong dimension")
            self.pair_exponents[(a, b)] = f
        self.gen_connections = {}
        for a, form in gen_connections.items():
            if not 1 <= a <= d:
                raise DimensionError(f"generator connection axis {a} out of range")
            if form.dim != d or form.degree != 1:
                raise DimensionError("generator connection must be a 1-form")
            self.gen_connections[a] = form
        if curving.dim != d or curving.degree != 2:
            raise DegreeError("curving must be a 2-form")
        self.curving = curving
        self._curvature = None

    def phi_parts(self, args, k=1, shift=None):
        """The shifted_sum parts of k * phi_{i,j}(x - shift) for args = (i, j),
        integer vectors: the bilinear extension sum_{a,b} i_a j_b psi_ab."""
        i, j = args
        weighted = ((i[a - 1] * j[b - 1], psi) for (a, b), psi in self.pair_exponents.items())
        return [(k * c, psi, shift) for c, psi in weighted if c]

    def phi(self, i, j):
        """Exponent of f_{i,j} for arbitrary integer vectors (bilinear extension)."""
        i = tuple(int(x) for x in i)
        j = tuple(int(x) for x in j)
        return shifted_sum(self.d, self.phi_parts((i, j)))

    def gen_connection(self, a):
        return self.gen_connections.get(a, Form.zero(self.d, 1))

    def connection(self, i):
        """A_i for an arbitrary integer vector (linear extension)."""
        i = tuple(int(x) for x in i)
        return shifted_form_sum(self.d, 1, linear_cochain(self.gen_connections)((i,)))

    def curvature(self):
        """H = dB, computed once per gerbe object."""
        if self._curvature is None:
            self._curvature = self.curving.d()
        return self._curvature


def check_gerbe_cocycle(gerbe, triples):
    """phi_{i,j} + phi_{i+j,k} = phi_{i,j+k} + phi_{j,k}(. + i) mod 2*pi*Z: the
    slack is -(delta phi)(i, j, k)."""
    report = CheckReport("gerbe_cocycle")
    for triple in triples:
        triple = tuple(tuple(int(x) for x in v) for v in triple)
        slack = shifted_sum(gerbe.d, lattice_coboundary(gerbe.phi_parts, triple, -1))
        phase_item(report, vec_label(*triple), slack)
    return report


def check_gerbe_connection(gerbe, pairs=None):
    """Verify both connection identities; returns (report, H = dB)."""
    report = CheckReport("gerbe_connection")
    d = gerbe.d
    if pairs is None:
        pairs = _generator_pairs(d)
    A = linear_cochain(gerbe.gen_connections)
    for i, j in pairs:
        phi = gerbe.phi(i, j)
        dphi = Form.one_form(d, {b: phi.partial(b) for b in range(1, d + 1)})
        # d(phi_{i,j}) + (delta A)(i, j)
        slack = shifted_form_sum(d, 1, [(1, dphi, None), *lattice_coboundary(A, (i, j))])
        report.add(f"cocycle vs connections {vec_label(i, j)}", slack.is_zero(DEFAULT_TOL))
    B = cochain0(gerbe.curving)
    for a in range(1, d + 1):
        # dA_a - (delta B)(e_a)
        parts = [(1, gerbe.gen_connection(a).d(), None),
                 *lattice_coboundary(B, (basis_vec(d, a),), -1)]
        slack = shifted_form_sum(d, 2, parts)
        report.add(f"curving step along axis {a}", slack.is_zero(DEFAULT_TOL))
    H = gerbe.curvature()
    for a in range(1, d + 1):
        step = shifted_form_sum(d, 3, lattice_coboundary(cochain0(H), (basis_vec(d, a),)))
        report.add(f"curvature descends along axis {a}", step.is_zero(DEFAULT_TOL))
    return report, H


def flux_class(gerbe):
    """Flux integers (1/2pi) int over the unit 3-faces of H; errors if not integral."""
    H = gerbe.curvature()
    d = gerbe.d
    out = {}
    for face in itertools.combinations(range(1, d + 1), 3):
        val = _integrate_unit_cube(H, face)
        n = val / Scalar.exact(2, 1)
        if n.is_exact:
            if not n.num:
                out[face] = 0
                continue
            if n.num.keys() == {0} and n.den == 1:
                out[face] = n.num[0]
                continue
            raise QuantizationError(
                f"non-integer period {n} on face {face}"
            )
        rounded = round(n.val)
        if abs(n.val - rounded) > max(n.tol, DEFAULT_TOL):
            raise QuantizationError(f"non-integer period {n.val} on face {face}")
        out[face] = int(rounded)
    return out


# the orderings p of three axes, each with its parity
_ORDERINGS = tuple(zip(itertools.permutations(range(3)), (1, -1, -1, 1, 1, -1)))

# the immutable Freudenthal cells of the unit cube on each (d, face), built once
_CUBE_CELLS = {}


def _integrate_unit_cube(H, face):
    """Exact integral of a 3-form over the unit cube [0, 1]^3 on the face axes.

    The cube is the chain of its Freudenthal simplices (H. Freudenthal, Ann.
    of Math. 43 (1942) 580-582), one per ordering p of the axes: first vertex
    0, edges e_p1, e_p2, e_p3 and the sign of p.  The chain's integral, a
    function of the base point x, is taken at x = 0.
    """
    d = H.dim
    chain = _CUBE_CELLS.get((d, face))
    if chain is None:
        edges = [basis_vec(d, a) for a in face]
        top = tuple(map(sum, zip(*edges)))
        chain = tuple(AffineSimplex(top, [edges[i] for i in p], sign=s) for p, s in _ORDERINGS)
        _CUBE_CELLS[d, face] = chain
    return value_at(integrate_chain(H, chain), vzero(d))


def gerbe_translation_section(gerbe, v):
    """The section datum at translation v: {a: exponent of g_{e_a}}, each
    int over the segment [x - v, x] of A_a.  The gauge at an integer vector i
    is their linear extension g_i = prod_a g_{e_a}^{i_a}, as A_i = sum_a i_a A_a
    (cohomology.linear_cochain)."""
    seg = cochain_simplex((v,))
    return {a: integrate_simplex(gerbe.gen_connection(a), seg) for a in range(1, gerbe.d + 1)}


def check_section_constraint(gerbe, v, pairs=None):
    """f_{i,j}(x) g_i(x) g_j(x+i) = g_{i+j}(x) f_{i,j}(x-v), exactly in exponents.
    Returns (report, section = gerbe_translation_section(gerbe, v))."""
    v = as_vec(v)
    report = CheckReport("section_constraint")
    if pairs is None:
        pairs = _generator_pairs(gerbe.d)
    section = gerbe_translation_section(gerbe, v)
    g = linear_cochain(section)
    for i, j in pairs:
        # (delta g)(i, j) + phi_{i,j} - phi_{i,j}(. - v)
        slack = shifted_sum(gerbe.d, [
            *lattice_coboundary(g, (i, j)),
            *gerbe.phi_parts((i, j)),
            *gerbe.phi_parts((i, j), -1, v),
        ])
        phase_item(report, vec_label(i, j), slack)
    return report, section


def composition_phase(gerbe, v, vp):
    """Exponent of Pi_{v,v'} = exp(-i int over Delta^2(x; v', v) of B)."""
    return -integrate_simplex(gerbe.curving, cochain_simplex((v, vp)))


def associator(gerbe, u, v, w):
    """Exponent of omega_{u,v,w} = exp(i int over Delta^3(x; w, v, u) of H)."""
    return integrate_simplex(gerbe.curvature(), cochain_simplex((u, v, w)))


def check_associator_descends(gerbe, triples):
    """omega_{u,v,w}(. + e_a) = omega_{u,v,w} mod 2*pi*Z along every axis a, once
    per distinct triple.  Returns (report, {label: omega}), the label of
    (u, v, w) their vec_labels joined by ";"."""
    d = gerbe.d
    report = CheckReport("associator_descends")
    omegas = {}
    for u, v, w in triples:
        key = ";".join(map(vec_label, (u, v, w)))
        if key in omegas:
            continue
        om = omegas[key] = associator(gerbe, u, v, w)
        for a in range(1, d + 1):
            step = shifted_sum(d, lattice_coboundary(cochain0(om), (basis_vec(d, a),)))
            phase_item(report, f"{key} axis {a}", step)
    return report, omegas


def constant_flux_gerbe(m):
    """The T^3 model with constant curvature 2*pi*m dx1^dx2^dx3.

    phi_{i,j} = -2*pi*m j_1 i_2 x_3, A_i = 2*pi*m i_1 x_2 dx3,
    B = 2*pi*m x_1 dx2^dx3.  m may be fractional to exercise the
    quantization rejection path.
    """
    m = Fraction(m)
    two_pi_m = Scalar.exact(2 * m, 1)
    psi = PolyTrig.monomial(3, (0, 0, 1), -two_pi_m)
    a1 = Form.one_form(3, {3: PolyTrig.monomial(3, (0, 1, 0), two_pi_m)})
    curving = Form.two_form(3, {(2, 3): PolyTrig.monomial(3, (1, 0, 0), two_pi_m)})
    return GerbeData(3, {(2, 1): psi}, {1: a1}, curving)


def flat_gerbe_2d(m):
    """A d=2 gerbe (H = 0 forced): nontrivial cocycle and curving, no associator."""
    m = Fraction(m)
    two_pi_m = Scalar.exact(2 * m, 1)
    psi = PolyTrig.monomial(2, (0, 1), -two_pi_m)
    a1 = Form.one_form(2, {2: PolyTrig.monomial(2, (0, 1), two_pi_m)})
    curving = Form.two_form(2, {(1, 2): PolyTrig.const(2, two_pi_m)})
    return GerbeData(2, {(2, 1): psi}, {1: a1}, curving)
