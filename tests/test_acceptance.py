"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its measured numbers; run with
`pytest -v` to get the per-criterion verdict lines, or `-s` to see the
details.
"""

import itertools
import json
import time
from fractions import Fraction

from torusgauge.cli import run as cli_run
from torusgauge.forms import Form, PLPath
from torusgauge.gerbes import (
    associator,
    check_gerbe_cocycle,
    check_gerbe_connection,
    composition_phase,
    constant_flux_gerbe,
    flat_gerbe_2d,
    flux_class,
)
from torusgauge.hilbert import cocycle_form
from torusgauge.magnetic import (
    LineData,
    PathSymmetry,
    check_connection,
    check_line_cocycle,
    check_section_membership,
    equivalence_gauge,
    landau_line,
    lift_equivalence_check,
    lift_product,
    translation_section,
)
from torusgauge.polytrig import PolyTrig, constant_mod_free, translate
from torusgauge.sampling import (
    rand_based_path,
    rand_periodic_gauge,
    rng,
    stokes_sample,
)
from torusgauge.scalar import Scalar
from tests_util import (
    cocycle_law,
    is_exact,
    operator_cocycle_slack,
    pentagon_relation,
    phase_is_one,
    projective_relation,
    rational_vec2,
    rational_vec3,
    stokes_slack,
)


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})", flush=True)


# ---------------------------------------------------------------------------
# 1. Stokes suite: 200 random exact pairs per degree and dimension, < 10 s


def test_criterion_1_stokes_suite():
    r = rng(0xA11CE)
    t0 = time.time()
    checked = 0
    for d in (2, 3):
        for k in (1, 2, 3):
            for _ in range(200):
                omega, s = stokes_sample(r, d, k)
                defect = stokes_slack(omega, s)
                assert defect.is_zero(), (d, k, defect)
                assert is_exact(defect), "tier degraded inside the exact suite"
                checked += 1
    elapsed = time.time() - t0
    assert checked == 1200
    assert elapsed < 10.0, f"stokes suite too slow: {elapsed:.1f}s"
    report("1 (stokes)", f"1200 exact identities in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Landau reproduction for N in {1,2,3}


def test_criterion_2_landau_reproduction():
    r = rng(0x1A2B)
    pairs = [
        (i, j)
        for i in itertools.product(range(-2, 3), repeat=2)
        for j in itertools.product(range(-2, 3), repeat=2)
    ]
    for N in (1, 2, 3):
        line = landau_line(N)
        assert check_line_cocycle(line, pairs).passed
        rep, B = check_connection(line)
        assert rep.passed
        # s_A(v) exponent = 2 pi N v1 (x2 - v2/2), exactly
        for _ in range(10):
            v = rational_vec2(r)
            got = translation_section(line, v)
            want = PolyTrig.monomial(
                2, (0, 1), Scalar.exact(2 * Fraction(N) * v[0], 1)
            ) + PolyTrig.const(2, Scalar.exact(-Fraction(N) * v[0] * v[1], 1))
            assert got == want
        # projective relation with the pinned cocycle on 50 random pairs
        for _ in range(50):
            v, vp = rational_vec2(r), rational_vec2(r)
            repp, c = projective_relation(line, v, vp)
            assert repp.passed
            res = constant_mod_free(c)
            want = Scalar.exact(-Fraction(N) * (vp[0] * v[1] - vp[1] * v[0]), 1)
            assert res is not None and (res - want).pi == {}
    report("2 (landau)", "N in {1,2,3}; sections and 50 random pairs exact each")


# ---------------------------------------------------------------------------
# 3. Operator cross-validation, exhaustive for N <= 6, < 30 s


def test_criterion_3_operator_cross_validation():
    # every pair is decided exactly: the monomial realization composed column
    # by column against the geometric c(v, v'), mod 2*pi
    t0 = time.time()
    total = 0
    for N in range(1, 7):
        fracs = [Fraction(a, N) for a in range(N)]
        lattice = list(itertools.product(fracs, repeat=2))
        for v, vp in itertools.product(lattice, repeat=2):
            slack = operator_cocycle_slack(N, v, vp)
            assert slack is not None and slack.is_exact, (N, v, vp, slack)
            assert slack.in_two_pi_Z(), (N, v, vp, slack)
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"operator suite too slow: {elapsed:.1f}s"
    report("3 (operators)", f"{total} pairs, every one exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Gerbe pentagon for m in {1,2}, 100 triples; associator value; cocycle law


def test_criterion_4_gerbe_pentagon():
    t0 = time.time()
    r = rng(0x9E2B)
    for m in (1, 2):
        g = constant_flux_gerbe(m)
        for _ in range(100):
            u, v, w = (rational_vec3(r) for _ in range(3))
            assert pentagon_relation(g, [(u, v, w)])[0].passed
        om = associator(g, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        res = constant_mod_free(om)
        assert res is not None and res.pi == {1: Fraction(-m, 3)}
        quads = [tuple(rational_vec3(r) for _ in range(4)) for _ in range(100)]
        assert cocycle_law(g, quads).passed
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"pentagon suite too slow: {elapsed:.1f}s"
    report(
        "4 (pentagon)",
        f"m in {{1,2}}: 100 pentagons + omega(e1,e2,e3) + 100 cocycle quadruples, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Flux quantization: integer classes pass; m = 1/2 rejected with exit 3


def test_criterion_5_flux_quantization(tmp_path):
    for m in (1, 2, 3):
        assert flux_class(constant_flux_gerbe(m)) == {(1, 2, 3): m}
    cfg = tmp_path / "half.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "name": "half",
                "dimension": 3,
                "kind": "gerbe",
                "cocycle": {"2,1": "-pi*x3"},
                "connection": {"1": {"3": "pi*x2"}},
                "curving": {"2,3": "pi*x1"},
            }
        )
    )
    code = cli_run(["flux", "--config", str(cfg), "--json", str(tmp_path / "r.json")])
    assert code == 3
    out = json.loads((tmp_path / "r.json").read_text())
    assert "non-integer period 1/2" in out["error"]
    report("5 (flux)", "integer classes pass; half flux exits 3")


# ---------------------------------------------------------------------------
# 6. Extension product: exact associativity, unit laws, equivalence invariance


def test_criterion_6_extension_product():
    r = rng(0x6E6E)
    line = landau_line(1)
    for _ in range(50):
        x, y, z = (
            PathSymmetry(rand_based_path(r, 2), rand_periodic_gauge(r, 2))
            for _ in range(3)
        )
        lhs = lift_product(lift_product(x, y, line), z, line)
        rhs = lift_product(x, lift_product(y, z, line), line)
        assert lhs.path.vertices == rhs.path.vertices
        assert phase_is_one(lhs.gauge - rhs.gauge)
    unit = PathSymmetry.unit(2)
    a = PathSymmetry(rand_based_path(r, 2), rand_periodic_gauge(r, 2))
    assert phase_is_one(lift_product(a, unit, line).gauge - a.gauge)
    assert phase_is_one(lift_product(unit, a, line).gauge - a.gauge)
    for _ in range(25):
        end = rational_vec2(r, 2, (1, 2))
        gamma = PLPath([(0, 0), end])
        alpha = PLPath([(0, 0), rational_vec2(r, 2, (1, 2)), end])
        probe = PathSymmetry(rand_based_path(r, 2), rand_periodic_gauge(r, 2))
        assert lift_equivalence_check(
            line, gamma, alpha, rand_periodic_gauge(r, 2), probe
        ).passed
    report("6 (extension product)", "50 associativity triples + 25 equivalence pairs, exact")


# ---------------------------------------------------------------------------
# 7. Falsification controls: every checker rejects its corrupted input


def test_criterion_7_falsification_controls():
    line = landau_line(1)
    gerbe = constant_flux_gerbe(1)
    controls = []

    # half-flux line cocycle
    from torusgauge.expr import parse_expr

    half = LineData(2, {2: parse_expr("pi*x1", 2)})
    controls.append(
        ("half-flux line cocycle", not check_line_cocycle(half, [((0, 1), (1, 0))]).passed)
    )
    # wrong-sign line cocycle against the Landau connection
    flipped = LineData(2, {2: -line.gen(2)}, line.connection)
    rep, _ = check_connection(flipped)
    controls.append(("wrong-sign cocycle vs connection", not rep.passed))
    # corrupted connection fails membership
    bad_line = LineData(
        2, line.generators, line.connection + Form.one_form(2, {1: parse_expr("x2^2", 2)})
    )
    controls.append(
        (
            "corrupted connection membership",
            not check_section_membership(bad_line, (Fraction(1, 2), Fraction(1, 5)))[0].passed,
        )
    )
    # half-flux gerbe cocycle
    controls.append(
        (
            "half-flux gerbe cocycle",
            not check_gerbe_cocycle(
                constant_flux_gerbe(Fraction(1, 2)),
                [((0, 0, 1), (0, 1, 0), (1, 0, 0))],
            ).passed,
        )
    )
    # dropped associator breaks the pentagon combination
    u, v, w = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    from operator import add

    lhs = (
        composition_phase(gerbe, u, tuple(map(add, v, w)))
        + translate(composition_phase(gerbe, v, w), u)
    )
    rhs = (
        composition_phase(gerbe, tuple(map(add, u, v)), w)
        + composition_phase(gerbe, u, v)
    )
    res = constant_mod_free(lhs - rhs)
    controls.append(("dropped associator", res is None or not res.in_two_pi_Z()))
    # wrong-sign scalar in the operator relation: -c is the flux -N two-cocycle
    N = 3
    v2, vp2 = (Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(1, 3))
    slack = operator_cocycle_slack(N, v2, vp2, form=cocycle_form(landau_line(-N)))
    controls.append(("wrong-sign operator cocycle", slack is None or not slack.in_two_pi_Z()))
    # corrupted equivalence gauge
    r = rng(0x77)
    end = (Fraction(1, 2), Fraction(1, 3))
    gamma = PLPath([(0, 0), end])
    alpha = PLPath([(0, 0), (Fraction(1, 2), Fraction(1, 2)), end])
    h = equivalence_gauge(line, gamma, alpha)
    phi = rand_periodic_gauge(r, 2)
    probe = PathSymmetry(rand_based_path(r, 2), rand_periodic_gauge(r, 2))
    good = PathSymmetry(alpha, h + phi)
    bad = PathSymmetry(alpha, -h + phi)
    p0 = lift_product(PathSymmetry(gamma, phi), probe, line)
    slack_bad = p0.invariant_exponent(line) - lift_product(bad, probe, line).invariant_exponent(line)
    res_bad = constant_mod_free(slack_bad)
    controls.append(
        ("corrupted equivalence gauge", res_bad is None or not res_bad.in_two_pi_Z())
    )
    # sanity: the uncorrupted versions all pass
    slack_good = p0.invariant_exponent(line) - lift_product(good, probe, line).invariant_exponent(line)
    res_good = constant_mod_free(slack_good)
    controls.append(("control sanity", res_good is not None and res_good.in_two_pi_Z()))

    failed = [name for name, ok in controls if not ok]
    assert not failed, f"vacuous controls: {failed}"
    report("7 (falsification)", f"{len(controls)} corrupted inputs all detected")


# ---------------------------------------------------------------------------
# 8. d = 2 degeneration: trivial associator, pentagon reduces to associativity


def test_criterion_8_two_dimensional_degeneration():
    r = rng(0x2D2D)
    for m in (1, 3):
        g = flat_gerbe_2d(m)
        rep, H = check_gerbe_connection(g)
        assert rep.passed and H.is_zero()
        for _ in range(25):
            u, v, w = (rational_vec2(r) for _ in range(3))
            assert phase_is_one(associator(g, u, v, w))
            assert pentagon_relation(g, [(u, v, w)])[0].passed
    report("8 (d=2 degeneration)", "associator trivial, pentagon exact on 50 triples")
