import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from operator import add

from torusgauge import forms
from torusgauge.cohomology import GroupCochain, check_coboundary, coboundary_slack
from torusgauge.forms import integrate_path
from torusgauge.hilbert import _column_phase, cocycle_form, translation_matrix
from torusgauge.magnetic import landau_line
from torusgauge.polytrig import PolyTrig, _Acc, _Rows, shifted_sum, translate
from torusgauge.reports import CheckReport, phase_item, vec_label
from torusgauge.sampling import rand_scalar
from torusgauge.scalar import Scalar
from torusgauge.vectors import as_vec, basis_vec, int_if_integral, vneg


def vsub(a, b):
    """The rational vector a - b, entries ints where integral."""
    return tuple(int_if_integral(x - y) for x, y in zip(a, b))


def rational_vec2(rnd, num=3, dens=(1, 2, 3, 4)):
    return (
        Fraction(rnd.randint(-num, num), rnd.choice(dens)),
        Fraction(rnd.randint(-num, num), rnd.choice(dens)),
    )


def rational_vec3(rnd, num=3, dens=(1, 2, 3, 4)):
    return tuple(
        Fraction(rnd.randint(-num, num), rnd.choice(dens)) for _ in range(3)
    )


def phase_is_one(theta):
    """Whether exp(i*theta) == 1, decided by the checker's own verdict path."""
    return phase_item(CheckReport("probe"), "phase", theta)


def phase_descends(theta):
    """Whether exp(i*theta) descends to the torus: each lattice step is trivial."""
    return all(
        phase_is_one(translate(theta, vneg(basis_vec(theta.dim, a))) - theta)
        for a in range(1, theta.dim + 1)
    )


@contextmanager
def kernel_calls():
    """Count the calls of the one integration kernel, forms._iterated_integral,
    made inside the block: calls[0] after it."""
    calls = [0]
    kernel = forms._iterated_integral

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    forms._iterated_integral = counted
    try:
        yield calls
    finally:
        forms._iterated_integral = kernel


@contextmanager
def code_calls():
    """Count the calls made inside the block of every Python function, by code
    object, through a profile hook: a Counter {code: calls} after it.

    A function counts under its code object whatever name the caller bound
    it to, and a wrapper written in C (such as functools.lru_cache) is
    entered only when it calls through."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


@contextmanager
def op_calls():
    """Count the calls made inside the block of the whole-PolyTrig operations
    that shifted sums fuse: {"add": PolyTrig.__add__ (and __radd__),
    "scale": PolyTrig.scale, "translate": polytrig.translate} after it."""
    ops = {"add": PolyTrig.__add__, "scale": PolyTrig.scale, "translate": translate}
    counts = {}
    with code_calls() as calls:
        yield counts
    counts.update((name, calls[f.__code__]) for name, f in ops.items())


def is_exact(f):
    """Whether every coefficient of the PolyTrig f is on the exact tier."""
    return all(c.is_exact for c in f.terms.values())


# ---------------------------------------------------------------------------
# oracles: the exponent-valued cochain algebra and the term-by-term sampler


def coboundary(c):
    """delta(c) for a cochain whose evaluator returns exponents (PolyTrigs):
    rho_v is translate(., v) and the alternating sum is PolyTrig arithmetic."""
    n = c.degree

    def ev(args):
        out = translate(c.evaluator(args[1:]), args[0])
        sign = -1
        for i in range(1, n + 1):
            merged = args[: i - 1] + (tuple(map(add, args[i - 1], args[i])),) + args[i + 1 :]
            term = c.evaluator(merged)
            out = out + term if sign > 0 else out - term
            sign = -sign
        last = c.evaluator(args[:n])
        return out + last if sign > 0 else out - last

    return GroupCochain(n + 1, c.dim, ev)


def is_cocycle(c, samples):
    """delta(c) of an exponent-valued cochain is a constant in 2*pi*Z on every sample."""
    dc = coboundary(c)
    report = CheckReport("cochain_cocycle")
    for args in samples:
        phase_item(report, vec_label(*map(as_vec, args)), dc(*args))
    return report


# ---------------------------------------------------------------------------
# the chained laws, each checked by cohomology.check_coboundary with the
# cochain's sign and forms that the CLI hands it


def projective_relation(line, v, vp):
    """(report, c) of delta(theta) = c at (v, v'), theta = -int over Delta^1
    of A: twist2's check on a line."""
    rep, (c,) = check_coboundary(
        "projective_product", -1, line.connection, [(v, vp)], line.curvature()
    )
    return rep, c


def pentagon_relation(gerbe, samples):
    """(report, omegas) of delta(Pi) = omega on the sampled triples, Pi = -int
    over Delta^2 of B: pentagon's check."""
    return check_coboundary("pentagon_relation", -1, gerbe.curving, samples, gerbe.curvature())


def cocycle_law(data, samples):
    """The report of delta(kappa) = 1 on the samples, kappa = (-1)^{n+1} int
    over Delta^n of the curvature of a line (the twist c) or of a gerbe (the
    associator omega): cohomology's check."""
    F = data.curvature()
    return check_coboundary("cocycle_law", (-1) ** (F.degree + 1), F, samples)[0]


def stokes_slack(omega, simplex):
    """The integral of omega over simplex.boundary() less that of d(omega)
    over simplex: stokes-selftest's slack, zero by Stokes' theorem."""
    return coboundary_slack((-1) ** simplex.k, omega, simplex, omega.d())[0]


def rand_polytrig_by_add(rnd, d, freq_step=1, n_terms=2, max_deg=2):
    """sampling.rand_polytrig built one PolyTrig.__add__ per term, from the
    same random draws in the same order."""
    out = PolyTrig.zero(d)
    for _ in range(n_terms):
        kind = rnd.random()
        if kind < 0.5:
            alpha = tuple(rnd.randint(0, max_deg) for _ in range(d))
            if sum(alpha) > max_deg:
                alpha = tuple(0 for _ in range(d))
            out = out + PolyTrig.monomial(d, alpha, rand_scalar(rnd))
        else:
            freq = tuple(freq_step * rnd.randint(-1, 1) for _ in range(d))
            if all(f == 0 for f in freq):
                freq = tuple(freq_step if i == 0 else 0 for i in range(d))
            maker = PolyTrig.cos_freq if rnd.random() < 0.5 else PolyTrig.sin_freq
            out = out + maker(d, freq, rand_scalar(rnd))
    return out


def assert_int_key(key):
    """A canonical term key is exactly (alpha, mode, freq), every entry an int."""
    assert type(key) is tuple and len(key) == 3, key
    alpha, mode, freq = key
    assert type(alpha) is tuple and type(freq) is tuple and len(alpha) == len(freq), key
    assert all(type(x) is int for x in (*alpha, mode, *freq)), key


def trig_term(d, mode, freq, phase, c=1):
    """The canonical c * cos or sin(2*pi*(freq.x + phase)) for a rational
    phase, built as the wave c * cos or sin(2*pi*u) on R^1 composed with
    u = freq.x + phase (_Acc.add): the reference for PolyTrig.trig at a
    phase and the reader's trig atoms.  FrequencyError unless freq is an
    integer vector."""
    acc = _Acc(d)
    acc.add(PolyTrig.trig(1, mode, (1,), c), 1, _Rows.rational([list(freq)], [phase], d))
    return acc.done()


# ---------------------------------------------------------------------------
# oracle: the operator relation's slack for one pair, as a Scalar


def operator_cocycle_slack(N, v, vp, form=None):
    """The exponent slack of P(v) P(v') = c(v, v') P(v + v'), a Scalar.

    The slack pi*Delta/N - c, Delta from _column_phase, lies in 2*pi*Z iff
    the relation holds; None when the product is no scalar multiple of
    P(v + v').  c is the bilinear form of cocycle_form, form if given, else
    that of the flux-N Landau model landau_line(N).
    """
    v = tuple(Fraction(x) for x in v)
    vp = tuple(Fraction(x) for x in vp)
    vs = tuple(x + y for x, y in zip(v, vp))
    k21, k12 = cocycle_form(landau_line(N)) if form is None else form
    c = Scalar.exact(v[1] * vp[0] * k21 + v[0] * vp[1] * k12, 1)
    delta = _column_phase(N, *(translation_matrix(N, w) for w in (v, vp, vs)))
    if delta is None:
        return None
    return Scalar.exact(Fraction(delta, N), 1) - c


# ---------------------------------------------------------------------------
# oracle: the extension product's gauge, each translated part shifted by a
# rational vector


def lift_product_gauge(a, b, line):
    """The gauge of lift_product(a, b, line) as the five parts of one
    shifted_sum, I(gamma) and a.gauge each shifted by -gamma'(1) given as a
    rational vector (vneg of the right path's end)."""
    A = line.require_connection()
    shift = vneg(b.path.vertices[-1])
    return shifted_sum(line.d, [
        (1, integrate_path(A, a.path.pointwise_add(b.path)), None),
        (-1, integrate_path(A, a.path), shift),
        (1, a.gauge, shift),
        (-1, integrate_path(A, b.path), None),
        (1, b.gauge, None),
    ])
