"""Exterior calculus over the polynomial-trig ring and exact integration.

Differential forms store only strictly increasing index tuples, so
antisymmetry is structural.

Every integral runs through one kernel, _iterated_integral, which integrates
a k-form omega over a signed chain of k-simplices, each given by its edges
v_1..v_k, its first vertex p_0 and a sign: the simplices of integrate_chain
(e.g. the boundary faces of a simplex in Stokes' theorem, or the Freudenthal
simplices of a cube) and of integrate_simplex (a chain of one), and the
segments of a PL path in integrate_path.  Every point is an offset against
one unspecified base point x, so every integral is a PolyTrig function of x.
omega is pulled back along each simplex's affine parametrisation
x + p_0 + sum_j t_j v_j and integrated over 0 <= t_k <= ... <= t_1 <= 1,
whose image with top vertex x is the ordered simplex

    [x - v_1 - ... - v_k, x - v_2 - ... - v_k, ..., x - v_k, x]

with the standard orientation of that vertex ordering.  A pulled-back term
that is a polynomial in t is integrated in one pass by its closed-form moment
prod_j 1 / S_j with S_j = sum_{i >= j} (beta_i + 1) for t^beta (cf. Baldoni,
Berline, De Loera, Koeppe and Vergne, "How to integrate a polynomial over a
simplex", Math. Comp. 80 (2011) 297-325).  Only terms with trig dependence
on t are integrated by parts, in t_k, ..., t_1 in turn, one pass per axis
from 0 to its upper limit.  Every simplex of a chain has the same parameter
domain, so the simplices pull back into one accumulator and the chain takes
one set of passes, however many simplices it has.  Frequencies and phases
stay scaled ints over one chain denominator (see polytrig), and
coefficients int pairs per term of the form, until the result leaves the
kernel: one Scalar per output term, then one phase expansion, the one exit
from scaled keys (polytrig._from_int_terms and _expand_into).

Simplices and paths are integer-scaled: AffineSimplex and PLPath keep their
points once, as int numerators over one positive denominator, so vertices,
faces, segment edges, determinants and the kernel's rows are int arithmetic.
A cell's rows are no matrix but den times the identity plus its edges as
columns (polytrig._Rows), and the minor that pulls dx_I back to dt is read
off the edges: for k = 1 it is the entry v_1[I].

An integral at a concrete base point p is the symbolic one evaluated at p,
which is composition with the constant map to p (polytrig.value_at).
Everything here is exact: integration is closed-form, never quadrature.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, gcd, lcm
from operator import add, mul, sub

from .errors import DegreeError, DimensionError, PathError
from . import polytrig
from .polytrig import MODE_NONE, PolyTrig, _Acc, _axis_pass, _from_int_terms, _merge_pair, _Rows
from .vectors import det, scale_vecs, unscale, vzero


class Form:
    """Differential form of degree p with PolyTrig coefficients."""

    __slots__ = ("dim", "degree", "comps")

    def __init__(self, dim, degree, comps):
        # degrees above dim are allowed but only for the zero form, so that
        # d of a top-degree form has a home
        if degree < 0 or (degree > dim and comps):
            raise DegreeError(f"degree {degree} out of range for dimension {dim}")
        self.dim = dim
        self.degree = degree
        self.comps = {}
        for idx, f in comps.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise DegreeError(f"component index {idx} is not strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= dim):
                axes = ",".join(str(i + 1) for i in idx)
                raise DimensionError(f"form component {axes} has an axis outside [1, {dim}]")
            if f.dim != dim:
                raise DimensionError("coefficient dimension mismatch")
            if f.terms:
                self.comps[idx] = f

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(d, p=0):
        return Form(d, p, {})

    @staticmethod
    def from_scalar(f):
        return Form(f.dim, 0, {(): f})

    @staticmethod
    def one_form(d, comps):
        """comps: map 1-based axis -> PolyTrig coefficient of dx_axis."""
        return Form(d, 1, {(a - 1,): f for a, f in comps.items()})

    @staticmethod
    def two_form(d, comps):
        """comps: map (a, b) 1-based, a < b -> coefficient of dx_a ^ dx_b."""
        return Form(d, 2, {(a - 1, b - 1): f for (a, b), f in comps.items()})

    # -- basics ------------------------------------------------------------

    def is_zero(self, tol=0.0):
        return all(f.is_zero(tol) for f in self.comps.values())

    def equals(self, other, tol=0.0):
        return (self - other).is_zero(tol)

    def __add__(self, other):
        return shifted_form_sum(self.dim, self.degree, ((1, self, None), (1, other, None)))

    def __sub__(self, other):
        return shifted_form_sum(self.dim, self.degree, ((1, self, None), (-1, other, None)))

    # -- exterior calculus ---------------------------------------------------

    def d(self):
        """Exterior derivative; d(d(.)) vanishes identically."""
        if self.degree >= self.dim:
            return Form(self.dim, self.degree + 1, {})
        parts = []
        for idx, f in self.comps.items():
            for a in range(self.dim):
                if a not in idx:
                    pos = sum(1 for b in idx if b < a)
                    parts.append((tuple(sorted(idx + (a,))), (-1) ** pos, f.partial(a + 1), None))
        return _component_sum(self.dim, self.degree + 1, parts)

    def wedge(self, other):
        if self.dim != other.dim:
            raise DimensionError("dimension mismatch in wedge")
        p, q = self.degree, other.degree
        if p + q > self.dim:
            raise DegreeError(f"wedge degree {p + q} exceeds dimension {self.dim}")
        parts = []
        for i1, f1 in self.comps.items():
            for i2, f2 in other.comps.items():
                if set(i1) & set(i2):
                    continue
                merged = i1 + i2
                perm = sorted(range(len(merged)), key=lambda t: merged[t])
                parts.append((tuple(sorted(merged)), _perm_sign(perm), f1 * f2, None))
        return _component_sum(self.dim, p + q, parts)

    def pullback(self, lin, trans):
        """Pullback along y -> lin y + trans, lin a rational dim x m matrix and
        trans a rational vector: a form on R^m.  FrequencyError if a pulled
        frequency lin^T q is off the integer lattice."""
        if len(lin) != self.dim:
            raise DimensionError("map does not land in the form's space")
        in_dim = len(lin[0])
        rows = _Rows.rational(lin, trans, in_dim)
        parts = []
        for J in combinations(range(in_dim), self.degree):
            cols = [tuple(row[j] for row in lin) for j in J]
            # the coefficient of dt_J is sum_I det(minor_I) f_I o M
            for I, f in self.comps.items():
                parts.append((J, det([[e[i] for e in cols] for i in I]), f, rows))
        return _component_sum(in_dim, self.degree, parts)

    def translate(self, v):
        """tau_v^* in the shift convention: coefficients become f(x - v)."""
        return shifted_form_sum(self.dim, self.degree, ((1, self, v),))

    def __repr__(self):
        if not self.comps:
            return f"0 (degree {self.degree})"
        names = []
        for idx in sorted(self.comps):
            dx = "^".join(f"dx{a + 1}" for a in idx) or "1"
            names.append(f"({self.comps[idx]}) {dx}")
        return " + ".join(names)


def shifted_form_sum(d, degree, parts):
    """The sum of k * form(x - shift) over the parts (k, form, shift), each
    component built in one accumulator: polytrig.shifted_sum componentwise."""
    pieces = []
    for k, form, shift in parts:
        if form.dim != d or form.degree != degree:
            raise DimensionError("form mismatch in a shifted sum")
        rows = _Rows.shift(d, shift)
        pieces.extend((idx, k, f, rows) for idx, f in form.comps.items())
    return _component_sum(d, degree, pieces)


def _component_sum(d, degree, parts):
    """The degree-form on R^d whose component idx is the sum of k * (f o rows)
    over the parts (idx, k, f, rows), one accumulator per component (_Acc.add)."""
    accs = {}
    for idx, k, f, rows in parts:
        acc = accs.get(idx)
        if acc is None:
            acc = accs[idx] = _Acc(d)
        acc.add(f, k, rows)
    return Form(d, degree, {idx: acc.done() for idx, acc in accs.items()})


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


class AffineSimplex:
    """Oriented affine k-simplex given by a top vertex and ordered edge vectors.

    The top vertex is an offset against an unspecified base point x, and
    integrals over the simplex are functions of x.  The points are kept once,
    integer-scaled: the top vertex and the edges as int numerator tuples over
    one positive denominator.  top, edges and vertices() present them as
    rational tuples.
    """

    __slots__ = ("dim", "sign", "_top", "_edges", "_den")

    # every simplex has the symbolic base x; verdictbench/tracer.py keys the
    # integrals it observes by this attribute
    symbolic = True

    def __init__(self, top, edges, sign=1):
        den, (top, *edges) = scale_vecs([top, *edges])
        # k > dim is allowed: the simplex is degenerate and top-degree
        # integrals over it are integrals of the zero form
        for e in edges:
            if len(e) != len(top):
                raise DimensionError("edge vector length mismatch")
        self.dim = len(top)
        self.sign = 1 if sign >= 0 else -1
        self._top, self._edges, self._den = top, tuple(edges), den

    @staticmethod
    def _scaled(top, edges, den, sign):
        """The simplex whose int numerator points top and edges lie over den."""
        s = AffineSimplex.__new__(AffineSimplex)
        s.dim, s.sign = len(top), sign
        s._top, s._edges, s._den = top, edges, den
        return s

    @staticmethod
    def from_edges(edges):
        """Simplex with the given ordered edges and top vertex x."""
        return AffineSimplex(vzero(len(edges[0]) if edges else 0), edges)

    @staticmethod
    def from_int_edges(edges, den):
        """AffineSimplex.from_edges of the edges whose int numerators over den
        are edges, kept in lowest terms."""
        g = gcd(den, *(n for e in edges for n in e))
        edges = tuple(tuple(n // g for n in e) for e in edges)
        return AffineSimplex._scaled((0,) * len(edges[0]) if edges else (), edges, den // g, 1)

    @property
    def top(self):
        return unscale(self._top, self._den)

    @property
    def edges(self):
        return tuple(unscale(e, self._den) for e in self._edges)

    @property
    def k(self):
        return len(self._edges)

    def _cell(self):
        """The kernel's cell (edges, first vertex, den, sign); points are numerators over den."""
        p = self._top
        for e in self._edges:
            p = tuple(map(sub, p, e))
        return self._edges, p, self._den, self.sign

    def _vertices(self):
        p = self._cell()[1]
        verts = [p]
        for e in self._edges:
            p = tuple(map(add, p, e))
            verts.append(p)
        return verts

    def vertices(self):
        return [unscale(v, self._den) for v in self._vertices()]

    def boundary(self):
        """Chain of (k-1)-faces with alternating signs; boundary of boundary is 0."""
        if self.k < 1:
            raise DegreeError("0-simplex has no boundary chain of simplices")
        verts = self._vertices()
        faces = []
        for j in range(len(verts)):
            face = verts[:j] + verts[j + 1 :]
            edges = tuple(tuple(map(sub, b, a)) for a, b in zip(face, face[1:]))
            sgn = self.sign if j % 2 == 0 else -self.sign
            faces.append(AffineSimplex._scaled(face[-1], edges, self._den, sgn))
        return faces


def integrate_simplex(omega, simplex):
    """Exact integral of a k-form over an affine k-simplex, a PolyTrig in x.

    Linear in omega, additive over chains, odd under orientation reversal.
    A 0-simplex is a point: the integral is the value there.  The integral
    over the simplex placed at a concrete point p is polytrig.value_at of
    the result at p.
    """
    _check_cell(omega, simplex)
    return _iterated_integral(omega, (simplex._cell(),))


def integrate_chain(omega, simplices):
    """Exact integral of a k-form over a nonempty chain of signed k-simplices.

    The result, a PolyTrig in x, is the sum of integrate_simplex over them,
    computed in one kernel call: the antiderivative passes and the phase
    expansion run once for the chain.  A box is such a chain: the k!
    Freudenthal simplices of its edge orderings, each signed by the parity
    of its ordering (gerbes._integrate_unit_cube integrates unit cubes so).
    """
    simplices = list(simplices)
    if not simplices:
        raise ValueError("a chain needs at least one simplex")
    for s in simplices:
        _check_cell(omega, s)
    return _iterated_integral(omega, [s._cell() for s in simplices])


def _check_cell(omega, simplex):
    if omega.dim != simplex.dim:
        raise DimensionError("form and simplex live in different spaces")
    if omega.degree != simplex.k:
        raise DegreeError(f"cannot integrate a {omega.degree}-form over a {simplex.k}-simplex")


def _moments(poly, den, d):
    """The integral over the simplex 0 <= t_k <= ... <= t_1 <= 1 of poly / den,
    poly an int polynomial in (x, t) with its first d exponents on x:
    {x exponents: (numerator, denominator)}.  The moment of t^beta is
    prod_j 1 / S_j with S_j = sum_{i >= j} (beta_i + 1).
    """
    out = {}
    for beta, n in poly.items():
        m = 1
        s = 0
        for b in reversed(beta[d:]):
            s += b + 1
            m *= s
        ax = beta[:d]
        prev = out.get(ax)
        if prev is None:
            out[ax] = (n, m)
        else:
            pn, pm = prev
            g = gcd(pm, m)
            out[ax] = (pn * (m // g) + n * (pm // g), pm // g * m)
    return {ax: (n, m * den) for ax, (n, m) in out.items() if n}


def _iterated_integral(omega, cells):
    """Integral of omega over a signed chain of simplices, each
    x + p0 + sum_j t_j edges[j] for t on 0 <= t_k <= ... <= t_1 <= 1: a PolyTrig in x.

    A cell is (edges, p0, den, sign): k = omega.degree edge vectors and the
    point p0 as int numerator tuples over the positive int den, and a sign
    of 1 or -1.  Each term of omega is pulled back along each cell's
    parametrisation, whose rows (the identity plus the edges as columns,
    see _Rows) and their powers are built once for all components.  The
    kernel is linear in omega: it numbers omega's terms i, with
    coefficients c_i, and carries every coefficient as int terms
    (i, s, alpha, mode, F, P): (n, m), worth c_i * n / m * pi**s (see
    polytrig._axis_pass).  Every trig factor is in scaled keys (see polytrig)
    over M = 4 lcm(cell denominators): a wave cos or sin 2 pi q.x, q an int
    vector, pulls back to F_x = M q, F_tj = M q.v_j / den and
    P = M q.p0 / den, its key reduced once per cell and term.  A pulled term
    with no trig dependence on t is integrated by the closed-form moments of
    _moments, summed over the chain in ints.  Terms whose frequency is
    nonzero on a t axis go into one set of int terms for the whole chain,
    since every cell has the same parameter domain, which takes one
    polytrig._axis_pass per axis, for t_k down to t_1, from 0 to its upper
    limit: t_j -> t_{j-1} moves F_tj and the exponent onto t_{j-1}, t_1 -> 1
    adds F_t1 to P.  polytrig._from_int_terms makes the moments, then the
    terms left with their t axes dropped, one Scalar per scaled key, and the
    result leaves the scaled keys once, by polytrig._expand_into, or at once
    when no wave is left.
    """
    d = omega.dim
    k = omega.degree
    M = 4 * lcm(*(cell[2] for cell in cells))
    reduce = polytrig._reduce_scaled
    coeffs, comps = [], []
    for I, f in omega.comps.items():
        terms = []
        for (alpha, mode, freq), c in f.terms.items():
            terms.append((len(coeffs), alpha, mode, tuple([M * q for q in freq])))
            coeffs.append(c)
        comps.append((I, terms))
    zeros = (0,) * d
    const = {zeros: (1, factorial(k))}  # a constant term's moments on every cell
    moments, trig = {}, {}
    for edges, p0, den, sign in cells:
        rows = _Rows(None, p0, d + k, den, edges)
        dk = den**k
        cell_moments = {zeros: const}
        for I, terms in comps:
            dd = edges[0][I[0]] if k == 1 else det([[e[i] for e in edges] for i in I])
            if dd == 0:
                continue
            g = gcd(dd, dk)
            sn, sd = sign * (dd // g), dk // g
            for i, alpha, mode, freq in terms:
                n0, P = sn, 0
                if mode != MODE_NONE:
                    # the pulled wave in scaled ints over M, its key reduced once
                    Ft = [sum(map(mul, freq, e)) // den for e in edges]
                    P = sum(map(mul, freq, p0)) // den
                    on_t = any(Ft)
                    mode, freq, P, neg = reduce(mode, (*freq, *Ft) if on_t else freq, P, M)
                    if neg:
                        n0 = -sn
                    if on_t:
                        poly, pden = rows.product(alpha)
                        pden *= sd
                        for beta, n in poly.items():
                            _merge_pair(trig, (i, 0, beta, mode, freq, P), n * n0, pden)
                        continue
                m = cell_moments.get(alpha)
                if m is None:
                    m = cell_moments[alpha] = _moments(*rows.product(alpha), d)
                for ax, (n, md) in m.items():
                    _merge_pair(moments, (i, 0, ax, mode, freq, P), n * n0, md * sd)
    if trig:
        for j in range(k, 0, -1):
            a = d + j - 1
            trig = _axis_pass(trig, M, a, a - 1 if j > 1 else None)
    return _from_int_terms(d, coeffs, M, moments, trig)


class PLPath:
    """Piecewise-linear path through rational vertices.

    The vertices are kept once, integer-scaled: int numerator tuples over one
    positive denominator, in lowest terms, by which paths compare and hash;
    vertices, start and end present them as rational tuples.  integrate_path
    keeps its results on the path (_integrals, keyed by the form object), so
    they live exactly as long as the path.
    """

    __slots__ = ("_points", "_den", "_integrals")

    def __init__(self, vertices):
        den, points = scale_vecs(vertices)
        if not points:
            raise PathError("a path needs at least one vertex")
        for p in points:
            if len(p) != len(points[0]):
                raise DimensionError("path vertices of mixed dimension")
        self._points = tuple(points)
        self._den = den
        self._integrals = None

    @staticmethod
    def _scaled(points, den):
        """The path through the int numerator points over den, in lowest terms."""
        g = gcd(den, *(n for p in points for n in p))
        if g > 1:
            den //= g
            points = [tuple(n // g for n in p) for p in points]
        path = PLPath.__new__(PLPath)
        path._points, path._den, path._integrals = tuple(points), den, None
        return path

    @staticmethod
    def constant(point):
        return PLPath([point])

    def __eq__(self, other):
        return isinstance(other, PLPath) and self._den == other._den and self._points == other._points

    def __hash__(self):
        return hash((self._den, self._points))

    @property
    def vertices(self):
        return tuple(unscale(p, self._den) for p in self._points)

    @property
    def dim(self):
        return len(self._points[0])

    @property
    def start(self):
        return unscale(self._points[0], self._den)

    @property
    def end(self):
        return unscale(self._points[-1], self._den)

    @property
    def closed(self):
        return self._points[0] == self._points[-1]

    def pointwise_add(self, other):
        """Pointwise sum of paths on the common refinement of parameters.

        With n and m segments, the breakpoints i/n and j/m are the multiples
        of L/n and L/m on the integer grid 0..L, L = lcm(n, m); a constant
        path counts as one segment.  On equal grids every point is a vertex
        of both paths, so the sum is vertex-wise.  The constant path at the
        origin is the unit: a sum with it is the other path itself.
        """
        if self.dim != other.dim:
            raise DimensionError("path dimension mismatch")
        for unit, path in ((self, other), (other, self)):
            if len(unit._points) == 1 and not any(unit._points[0]):
                return path
        p, q = _segments(self._points), _segments(other._points)
        n, m = len(p) - 1, len(q) - 1
        grid = lcm(n, m)
        steps = sorted(set(range(0, grid + 1, grid // n)) | set(range(0, grid + 1, grid // m)))
        den = lcm(self._den, other._den)
        sp, sq = den // self._den, den // other._den
        points = []
        for k in steps:
            a, b = _grid_point(p, k, grid), _grid_point(q, k, grid)
            points.append(tuple(sp * x + sq * y for x, y in zip(a, b)))
        return PLPath._scaled(points, den * grid)


def _segments(points):
    """The points of a path, a constant path doubled into one segment."""
    return points if len(points) > 1 else points * 2


def _grid_point(points, k, grid):
    """grid times the point at parameter k/grid of the path through these (at least 2) points."""
    i, r = divmod(k * (len(points) - 1), grid)
    x = points[i]
    if not r:
        return tuple(grid * u for u in x)
    return tuple(grid * u + r * (w - u) for u, w in zip(x, points[i + 1]))


def integrate_path(alpha, path):
    """Exact line integral of a 1-form over a PL path, a PolyTrig in x.

    The path vertices are offsets against the base point x, and the segments
    are one chain for the kernel.  A path integrated again against the same
    form object returns its first result; a path with no segment integrates
    to zero.
    """
    if alpha.degree != 1:
        raise DegreeError("integrate_path expects a 1-form")
    if alpha.dim != path.dim:
        raise DimensionError("form and path live in different spaces")
    if path._integrals is None:
        path._integrals = {}
    elif alpha in path._integrals:
        return path._integrals[alpha]
    points, den = path._points, path._den
    cells = [((tuple(map(sub, b, a)),), a, den, 1) for a, b in zip(points, points[1:]) if a != b]
    total = path._integrals[alpha] = _iterated_integral(alpha, cells) if cells else PolyTrig.zero(path.dim)
    return total
