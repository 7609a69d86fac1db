import gc
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from torusgauge import cli
from torusgauge.cli import HANDLERS, MAX_COUNT, build_parser, load_scenario, main, run
from torusgauge.forms import integrate_simplex
from torusgauge.polytrig import PolyTrig
from torusgauge.sampling import rng
from torusgauge.scalar import DEFAULT_TOL, Scalar
from tests_util import kernel_calls, op_calls

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cmd(tmp_path, *args):
    out = tmp_path / "report.json"
    code = run([*args, "--json", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_pentagon_command(tmp_path, capsys):
    code, report = run_cmd(
        tmp_path,
        "pentagon",
        "--config",
        str(SCENARIOS / "constant_flux_m1.json"),
        "--seed",
        "7",
    )
    capsys.readouterr()
    assert code == 0
    assert report["schema"] == 1
    assert report["status"] == "pass"
    assert report["values"]["associator_e1_e2_e3"] == "-1/3*pi"


def test_flux_pass_and_reject(tmp_path, capsys):
    code, report = run_cmd(
        tmp_path, "flux", "--config", str(SCENARIOS / "constant_flux_m2.json")
    )
    capsys.readouterr()
    assert code == 0
    assert report["values"]["flux"] == {"(1,2,3)": 2}
    code, report = run_cmd(
        tmp_path, "flux", "--config", str(SCENARIOS / "half_flux_gerbe.json")
    )
    capsys.readouterr()
    assert code == 3
    assert report["status"] == "error"
    assert "non-integer period 1/2" in report["error"]


def test_check_cocycle_zero_scenario(tmp_path, capsys):
    code, report = run_cmd(
        tmp_path, "check-cocycle", "--config", str(SCENARIOS / "zero_line.json")
    )
    capsys.readouterr()
    assert code == 0
    items = report["checks"][0]["items"]
    assert items and all(i["residue"] == "0" for i in items)


def test_exit_codes_for_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["flux", "--config", str(bad)]) == 2
    capsys.readouterr()
    assert run(["flux", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # wrong scenario kind for the command
    assert run(["pentagon", "--config", str(SCENARIOS / "landau_n1.json")]) == 2
    capsys.readouterr()
    # malformed expression
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(
        json.dumps(
            {
                "schema": 1,
                "dimension": 2,
                "kind": "line",
                "cocycle": {"2": "2*pi*zz"},
            }
        )
    )
    assert run(["check-cocycle", "--config", str(bad2)]) == 2
    capsys.readouterr()


def test_check_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "halfline.json"
    bad.write_text(
        json.dumps(
            {
                "schema": 1,
                "name": "half-line",
                "dimension": 2,
                "kind": "line",
                "cocycle": {"2": "pi*x1"},
                "params": {"range": 1},
            }
        )
    )
    code, report = run_cmd(tmp_path, "check-cocycle", "--config", str(bad))
    capsys.readouterr()
    assert code == 1
    assert report["status"] == "fail"


def test_deterministic_reports(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        run(
            [
                "sym-product",
                "--config",
                str(SCENARIOS / "landau_n1.json"),
                "--seed",
                "42",
                "--json",
                str(out),
            ]
        )
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_csv_emission(tmp_path, capsys):
    out_csv = tmp_path / "phases.csv"
    code = run(
        [
            "twist2",
            "--config",
            str(SCENARIOS / "landau_n2.json"),
            "--csv",
            str(out_csv),
        ]
    )
    capsys.readouterr()
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "identity,item,status,residue"
    assert len(rows) > 1


def test_stokes_selftest_runs_without_config(tmp_path, capsys):
    code, report = run_cmd(tmp_path, "stokes-selftest", "--seed", "5")
    capsys.readouterr()
    assert code == 0
    assert {i["label"] for c in report["checks"] for i in c["items"]} == {
        f"d={d} k={k} (50 samples)" for d in (2, 3) for k in (1, 2, 3)
    }


def test_operators_command(tmp_path, capsys):
    cfg = tmp_path / "ops.json"
    cfg.write_text(
        json.dumps(
            {
                "schema": 1,
                "name": "ops",
                "dimension": 2,
                "kind": "line",
                "cocycle": {"2": "2*pi*x1"},
                "connection": {"1": "-2*pi*x2"},
                "params": {"flux_list": [1, 2, 3]},
            }
        )
    )
    code, report = run_cmd(tmp_path, "operators", "--config", str(cfg))
    capsys.readouterr()
    assert code == 0
    assert report["values"] == {}
    assert [(i["label"], i["status"], i["residue"]) for i in report["checks"][0]["items"]] == [
        (f"twisted algebra N={N}", "pass", "0") for N in (1, 2, 3)
    ]


def test_operators_reports_the_first_failing_pair(monkeypatch, tmp_path, capsys):
    import torusgauge.hilbert as hilbert

    two_cocycle = hilbert.two_cocycle
    monkeypatch.setattr(hilbert, "two_cocycle", lambda line, v, vp: -two_cocycle(line, v, vp))
    doc = {**LINE, "params": {"flux_list": [1, 2]}}
    code, report = run_cmd(tmp_path, "operators", "--config", write_config(tmp_path, doc))
    capsys.readouterr()
    assert code == 1
    # flux 1 has c = 0 on every pair; at flux 2 the wrong sign of c = pi/2 leaves pi
    assert report["checks"][0]["items"] == [
        {"label": "twisted algebra N=1", "residue": "0", "status": "pass"},
        {
            "label": "twisted algebra N=2",
            "note": "first failing pair (0,1/2); (1/2,0)",
            "residue": "pi",
            "status": "fail",
        },
    ]


def test_operators_builds_each_matrix_once(monkeypatch, tmp_path, capsys):
    import torusgauge.hilbert as hilbert

    built = []
    translation_matrix = hilbert.translation_matrix

    def counting(N, v):
        built.append((N, v))
        return translation_matrix(N, v)

    monkeypatch.setattr(hilbert, "translation_matrix", counting)
    doc = json.loads((SCENARIOS / "landau_n1.json").read_text())
    doc["params"]["flux_list"] = [1, 2, 3]
    code, _ = run_cmd(tmp_path, "operators", "--config", write_config(tmp_path, doc))
    capsys.readouterr()
    assert code == 0
    # one matrix per (N, v) with v on the (1/N)-grid of the sums v + v';
    # 308 when each of the 98 pairs builds its three
    assert len(built) <= sum((2 * N - 1) ** 2 for N in (1, 2, 3)) == 35


def test_operators_fails_a_cocycle_that_is_not_alternating(monkeypatch, tmp_path, capsys):
    import torusgauge.hilbert as hilbert

    cocycle_form = hilbert.cocycle_form

    def flipped(line):
        k21, k12 = cocycle_form(line)
        return k21, -k12

    monkeypatch.setattr(hilbert, "cocycle_form", flipped)
    code, report = run_cmd(tmp_path, "operators", "--config", str(SCENARIOS / "landau_n1.json"))
    capsys.readouterr()
    assert code == 1
    items = report["checks"][0]["items"]
    assert items[0] == {"label": "twisted algebra N=1", "residue": "0", "status": "pass"}
    # c(e1, e2) flipped: the pair (e2, e1)/2 keeps its c, (e1, e2)/2 is off by pi
    assert items[1] == {
        "label": "twisted algebra N=2",
        "note": "first failing pair (1/2,0); (0,1/2)",
        "residue": "pi",
        "status": "fail",
    }


def test_operators_verdict_and_residue_read_the_same_matrices(monkeypatch, tmp_path, capsys):
    import torusgauge.hilbert as hilbert

    translation_matrix = hilbert.translation_matrix
    v_bent = (Fraction(1, 3), 0)

    def bent(N, v):
        # one column of P(1/3, 0) at N = 3 takes another phase
        a, exps = translation_matrix(N, v)
        if (N, tuple(v)) == (3, v_bent):
            exps = (exps[0] + 1,) + exps[1:]
        return a, exps

    monkeypatch.setattr(hilbert, "translation_matrix", bent)
    code, report = run_cmd(tmp_path, "operators", "--config", str(SCENARIOS / "landau_n1.json"))
    capsys.readouterr()
    assert code == 1
    items = {i["label"]: i for i in report["checks"][0]["items"]}
    # the first pair that reads P(1/3, 0): its product's columns carry different phases
    assert items["twisted algebra N=3"] == {
        "label": "twisted algebra N=3",
        "note": "first failing pair (0,1/3); (1/3,0)",
        "residue": "nonconstant",
        "status": "fail",
    }
    assert all(i["status"] == "pass" for label, i in items.items() if label != "twisted algebra N=3")


def test_landau_flux_needs_one_exact_constant_term():
    from torusgauge.hilbert import landau_flux
    from torusgauge.expr import parse_expr
    from torusgauge.forms import Form
    from torusgauge.magnetic import LineData

    x2 = parse_expr("-2*pi*x2", 2)
    assert landau_flux(LineData(2, {}, Form.one_form(2, {1: x2}))) == 1
    # curvature 2*pi + 2e-13*x1: within the float tolerance of 2*pi, but no constant
    tiny = PolyTrig.monomial(2, (2, 0), Scalar.approx(1e-13, 1e-12))
    line = LineData(2, {}, Form.one_form(2, {1: x2, 2: tiny}))
    assert len(line.curvature().comps[(0, 1)].terms) == 2
    assert landau_flux(line) is None


def _kernel_calls(tmp_path, command, scenario, **params):
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    doc["params"] = {**doc["params"], **params}
    cfg = write_config(tmp_path, doc)
    with kernel_calls() as calls:
        code, _ = run_cmd(tmp_path, command, "--config", cfg)
    assert code == 0
    return calls[0]


def test_operators_reads_the_cocycle_twice_per_flux(tmp_path, capsys):
    # c(e2, e1) and c(e1, e2) for each N of flux_list [1, ..., 6]; one
    # kernel call per lattice pair would make 2275
    assert _kernel_calls(tmp_path, "operators", "landau_n1") <= 12
    capsys.readouterr()


@pytest.mark.parametrize("scenario", ["constant_flux_m1", "landau_n1"])
def test_cohomology_takes_one_kernel_call_per_sample(tmp_path, capsys, scenario):
    # delta(omega) is 5 tetrahedra and delta(c) 4 triangles: one chain each
    assert _kernel_calls(tmp_path, "cohomology", scenario, samples=7) == 7
    capsys.readouterr()


def test_pentagon_takes_two_kernel_calls_per_triple(tmp_path, capsys, monkeypatch):
    import torusgauge.cohomology as cohomology

    omegas = []
    integrate_simplex = cohomology.integrate_simplex

    def counting(omega, simplex):
        omegas.append(simplex.edges[::-1])  # the triple (u, v, w) of Delta^3(x; w, v, u)
        return integrate_simplex(omega, simplex)

    monkeypatch.setattr(cohomology, "integrate_simplex", counting)
    # per triple the chain of delta(Pi) and the interior omega; (e1, e2, e3)
    # reports the omega its pentagon check integrated
    for n in (2, 5):
        omegas.clear()
        assert _kernel_calls(tmp_path, "pentagon", "constant_flux_m1", samples=n) == 2 + 2 * n
        assert len(omegas) == 1 + n
        assert omegas.count(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1
    capsys.readouterr()


def test_twist2_on_a_line_takes_two_kernel_calls_per_pair(tmp_path, capsys):
    # the three segments of delta(theta) are one chain, and c one triangle
    vectors = [["1/2", "0"], ["0", "1/2"], ["1/3", "1/3"], ["1/4", "-1"]]
    assert _kernel_calls(tmp_path, "twist2", "landau_n1", vectors=vectors) == 2 * 6
    capsys.readouterr()


def test_given_vectors_draw_no_default_vectors(monkeypatch, capsys):
    # section, twist2 and twist3 draw default vectors only for a config
    # without params 'vectors'
    def drawn(*args):
        raise AssertionError("default vectors drawn for a config that gives its vectors")

    monkeypatch.setattr(cli, "_sample_vectors", drawn)
    jobs = [(c, s) for c in ("section", "twist2") for s in ("landau_n1", "constant_flux_m1")]
    for command, name in jobs + [("twist3", "constant_flux_m1")]:
        assert "vectors" in load_scenario(SCENARIOS / f"{name}.json").params
        assert run([command, "--config", str(SCENARIOS / f"{name}.json")]) == 0, (command, name)
    capsys.readouterr()


def test_the_float_tier_has_one_fixed_tolerance(tmp_path, monkeypatch, capsys):
    options = {s for action in build_parser()._actions for s in action.option_strings}
    assert options == {"-h", "--help", "--config", "--seed", "--json", "--csv"}
    cfg = str(SCENARIOS / "landau_n1.json")
    argv = ["torusgauge", "section", "--config", cfg, "--tolerance", "1e-3"]
    monkeypatch.setattr("sys.argv", argv)
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 2
    code, report = run_cmd(tmp_path, "section", "--config", cfg)
    capsys.readouterr()
    assert code == 0 and report["tolerance"] == DEFAULT_TOL == 1e-9


def test_section_and_cohomology_commands(tmp_path, capsys):
    for cmd in ("section", "cohomology"):
        code, report = run_cmd(
            tmp_path, cmd, "--config", str(SCENARIOS / "landau_n1.json"), "--seed", "3"
        )
        capsys.readouterr()
        assert code == 0, cmd
        assert report["status"] == "pass"


def test_gerbe_section_and_twist3(tmp_path, capsys):
    for cmd in ("section", "twist3", "cohomology"):
        code, report = run_cmd(
            tmp_path,
            cmd,
            "--config",
            str(SCENARIOS / "constant_flux_m1.json"),
            "--seed",
            "3",
        )
        capsys.readouterr()
        assert code == 0, cmd


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, **doc}))
    return str(path)


def test_line_without_connection_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dimension": 2, "kind": "line", "cocycle": {"2": "2*pi*x1"}})
    for cmd in ("section", "twist2", "sym-product", "cohomology", "check-connection"):
        assert run([cmd, "--config", cfg]) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, cmd
    # the cocycle law needs no connection
    assert run(["check-cocycle", "--config", cfg]) == 0
    capsys.readouterr()


def test_twist3_labels_match_their_triples(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "dimension": 3,
            "kind": "gerbe",
            "curving": {"2,3": "2*pi*x1 + x1^2"},
            "params": {"vectors": [[0, 0, 1], [0, 0, 2], [1, 0, 0], [0, 1, 0]]},
        },
    )
    code, report = run_cmd(tmp_path, "twist3", "--config", cfg)
    capsys.readouterr()
    assert code == 1
    status = {i["label"]: i["status"] for i in report["checks"][0]["items"]}
    # H = (2*pi + 2*x1) dx1^dx2^dx3: only the degenerate triple has a
    # translation-invariant associator, and the others move along axis 1 only
    triples = ("(0,0,1);(0,0,2);(1,0,0)", "(0,0,2);(1,0,0);(0,1,0)", "(1,0,0);(0,1,0);(0,0,1)")
    assert status == {
        f"{t} axis {a}": "fail" if t != triples[0] and a == 1 else "pass"
        for t in triples
        for a in (1, 2, 3)
    }
    assert set(report["values"]["twist3"]) == set(triples)


def test_check_cocycle_rejects_bad_counts(tmp_path, capsys):
    for kind, params in (
        ("line", {"samples": -5}), ("line", {"samples": 2.5}), ("line", {"samples": "10"}),
        ("line", {"range": -1}), ("line", {"range": 1.5}), ("line", {"range": 10**6}),
        # range 0 leaves only the all-zero tuple: nothing would be tested
        ("line", {"range": 0}), ("gerbe", {"range": 0}),
    ):
        cfg = write_config(tmp_path, {"dimension": 3, "kind": kind, "params": params})
        assert run(["check-cocycle", "--config", cfg]) == 2, (kind, params)
        err = capsys.readouterr().err
        assert err.startswith("config error:"), (kind, params)


def test_check_cocycle_samples_without_building_all_pairs(tmp_path, capsys):
    # (2*4 + 1)^6 = 531441 pairs of lattice vectors; only 20 are checked.  The
    # memory bound is set by the product that must not be built, not by the
    # number of pairs checked, so a few pairs keep the test fast under tracemalloc.
    cfg = write_config(
        tmp_path, {"dimension": 3, "kind": "line", "params": {"range": 4, "samples": 20}}
    )
    tracemalloc.start()
    try:
        code, report = run_cmd(tmp_path, "check-cocycle", "--config", cfg, "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert len(report["checks"][0]["items"]) == 20
    assert peak < 8 * 2**20


def test_gerbe_check_cocycle_reads_its_range(tmp_path, capsys):
    # triples of lattice vectors in {-2..2}^3, not only {-1..1}^3
    doc = {**GERBE, "params": {"range": 2, "samples": 20}}
    code, report = run_cmd(tmp_path, "check-cocycle", "--config", write_config(tmp_path, doc))
    capsys.readouterr()
    assert code == 0
    items = report["checks"][0]["items"]
    entries = {int(x) for it in items for x in re.findall(r"-?\d+", it["label"])}
    assert len(items) == 20 and entries <= set(range(-2, 3)) and entries & {-2, 2}


LINE = {
    "dimension": 2,
    "kind": "line",
    "cocycle": {"2": "2*pi*x1"},
    "connection": {"1": "-2*pi*x2"},
}
GERBE = {"dimension": 3, "kind": "gerbe", "curving": {"2,3": "2*pi*x1"}}


def assert_config_error(capsys, argv, what):
    assert run(argv) == 2, what
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:"), what


@pytest.mark.parametrize(
    "command, doc, quoted",
    [
        ("section", {**LINE, "dimension": 2.5}, "got 5/2"),
        ("check-cocycle", {**LINE, "params": {"samples": 2.0}}, "got 2/1"),
        ("operators", {**LINE, "params": {"flux_list": [1.5]}}, "got [3/2]"),
        ("section", {**LINE, "params": {"vectors": [[0.5, 1e-1, 3]]}}, "vector (1/2,1/10,3) "),
    ],
)
def test_config_errors_quote_json_numbers_exactly(tmp_path, capsys, command, doc, quoted):
    assert run([command, "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and quoted in err, err


def test_config_nested_past_the_recursion_limit_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    deep = "[" * 5000 + "]" * 5000
    path.write_text('{"dimension": 2, "kind": "line", "params": {"samples": %s}}' % deep)
    assert_config_error(capsys, ["check-cocycle", "--config", str(path)], "deep")


@pytest.mark.parametrize(
    "doc",
    [
        {**LINE, "connection": {"3": "x1"}},
        {**LINE, "connection": {"0": "x1"}},
        {**GERBE, "connection": {"5": {"3": "x2"}}},
        {**GERBE, "curving": {"1,4": "x1"}},
    ],
    ids=["line-dx3", "line-dx0", "gerbe-generator-5", "gerbe-curving-1,4"],
)
def test_axes_outside_the_dimension_are_config_errors(tmp_path, capsys, doc):
    # such an axis would index past the form (0 as Python's last axis), so
    # loading rejects it and no command of the kind runs
    cfg = write_config(tmp_path, doc)
    for command, handler in HANDLERS.items():
        if handler.kind in ("any", doc["kind"]):
            assert_config_error(capsys, [command, "--config", cfg], command)


def test_top_level_array_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([{"schema": 1, **LINE}]))
    assert_config_error(capsys, ["check-cocycle", "--config", str(path)], "array")


def test_non_object_sections_are_config_errors(tmp_path, capsys):
    cases = [
        ("check-cocycle", {**LINE, "params": [1]}),
        ("check-cocycle", {**LINE, "cocycle": ["2*pi*x1"]}),
        ("check-connection", {**LINE, "connection": ["-2*pi*x2"]}),
        ("flux", {**GERBE, "params": ["samples"]}),
        ("flux", {**GERBE, "cocycle": ["2*pi*x3"]}),
        ("flux", {**GERBE, "connection": [{"3": "2*pi*x2"}]}),
        ("flux", {**GERBE, "connection": {"1": ["2*pi*x2"]}}),
        ("flux", {**GERBE, "curving": ["2*pi*x1"]}),
    ]
    for command, doc in cases:
        cfg = write_config(tmp_path, doc)
        assert_config_error(capsys, [command, "--config", cfg], (command, doc))


def test_sample_counts_are_validated(tmp_path, capsys):
    reads = [
        ("pentagon", GERBE, "samples"),
        ("sym-product", LINE, "samples"),
        ("sym-product", LINE, "equivalence_samples"),
        ("cohomology", LINE, "samples"),
        ("cohomology", GERBE, "samples"),
        ("stokes-selftest", LINE, "samples"),
    ]
    for command, doc, key in reads:
        for bad in ("x", -3, 2.5, None, True):
            cfg = write_config(tmp_path, {**doc, "params": {key: bad}})
            assert_config_error(capsys, [command, "--config", cfg], (command, key, bad))
    # a self-test of no samples would pass having tested nothing
    cfg = write_config(tmp_path, {**LINE, "params": {"samples": 0}})
    assert_config_error(capsys, ["stokes-selftest", "--config", cfg], "stokes 0")
    cfg = write_config(tmp_path, {**LINE, "params": {"samples": 1}})
    code, report = run_cmd(tmp_path, "stokes-selftest", "--config", cfg)
    capsys.readouterr()
    assert code == 0
    assert report["checks"][0]["items"][0]["label"] == "d=2 k=1 (1 samples)"


def test_operators_rejects_bad_flux_list(tmp_path, capsys):
    for bad in ([], [2.5], [0], [-1], [True], [1, "2"], "x", 3, {}, None):
        cfg = write_config(tmp_path, {**LINE, "params": {"flux_list": bad}})
        assert_config_error(capsys, ["operators", "--config", cfg], bad)


FLAT_GERBE_2D = {"dimension": 2, "kind": "gerbe"}
# dA is a 2-form on R^1, zero whatever A is: its cocycle law tests nothing
LINE_1D = {"dimension": 1, "kind": "line", "connection": {"1": "x1"}}


@pytest.mark.parametrize(
    "command, doc, params",
    [
        ("pentagon", GERBE, {"samples": 0}),
        ("cohomology", LINE, {"samples": 0}),
        ("cohomology", GERBE, {"samples": 0}),
        ("check-cocycle", LINE, {"samples": 0}),
        ("check-cocycle", GERBE, {"samples": 0}),
        ("flux", FLAT_GERBE_2D, {}),
        ("twist3", FLAT_GERBE_2D, {"vectors": [["1/2", "0"]]}),
        ("sym-product", LINE, {"equivalence_samples": 0}),
        ("cohomology", LINE_1D, {}),
        ("cohomology", FLAT_GERBE_2D, {}),
    ],
)
def test_empty_report_fails(tmp_path, capsys, command, doc, params):
    # a check with no items tested nothing, so it must not pass
    cfg = write_config(tmp_path, {**doc, "params": params})
    code, report = run_cmd(tmp_path, command, "--config", cfg)
    capsys.readouterr()
    assert code == 1
    assert report["status"] == "fail"
    assert any(not chk["items"] for chk in report["checks"])


def test_twist2_needs_two_vectors(tmp_path, capsys):
    # one vector makes no pair, so no relation would be checked at all
    for name, vector in (("landau_n1", ["1/2", "1/3"]), ("constant_flux_m1", ["1/2", "0", "0"])):
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        doc["params"] = {**doc.get("params", {}), "vectors": [vector]}
        cfg = write_config(tmp_path, doc)
        assert_config_error(capsys, ["twist2", "--config", cfg], name)


def test_a_verdict_with_no_report_fails(monkeypatch, tmp_path, capsys):
    from torusgauge import cli

    monkeypatch.setitem(HANDLERS, "check-cocycle", cli._needs(lambda *args: [], "any"))
    code, report = run_cmd(
        tmp_path, "check-cocycle", "--config", str(SCENARIOS / "zero_line.json")
    )
    capsys.readouterr()
    assert code == 1
    assert report["status"] == "fail" and report["checks"] == []


def test_section_builds_each_gerbe_section_once(monkeypatch, capsys):
    import torusgauge.gerbes as gerbes
    import torusgauge.magnetic as magnetic

    calls = []

    def counting(omega, simplex):
        calls.append(simplex)
        return integrate_simplex(omega, simplex)

    # one segment integral per generator of the gerbe, and one per vector of
    # the line, for each of the 3 vectors
    for module, scenario, want in ((gerbes, "constant_flux_m1", 9), (magnetic, "landau_n1", 3)):
        monkeypatch.setattr(module, "integrate_simplex", counting)
        calls.clear()
        cfg = str(SCENARIOS / f"{scenario}.json")
        assert run(["section", "--config", cfg, "--seed", "0"]) == 0
        capsys.readouterr()
        assert len(calls) == want, scenario


@pytest.mark.parametrize(
    "module, name, scenario",
    [
        ("gerbes", "gerbe_translation_section", "constant_flux_m1"),
        ("magnetic", "translation_section", "landau_n1"),
    ],
)
def test_section_builds_one_section_per_vector(monkeypatch, tmp_path, capsys, module, name, scenario):
    module = importlib.import_module(f"torusgauge.{module}")
    built = []
    build = getattr(module, name)

    def counting(data, v):
        built.append(v)
        return build(data, v)

    monkeypatch.setattr(module, name, counting)
    code, report = run_cmd(tmp_path, "section", "--config", str(SCENARIOS / f"{scenario}.json"))
    capsys.readouterr()
    assert code == 0
    # the section a check builds is the one the report shows: one per vector
    assert len(built) == len(report["checks"]) == len(report["values"]["sections"]) == 3


def test_sym_product_integrates_each_path_once_per_connection(monkeypatch, capsys):
    import torusgauge.forms as forms

    calls = []

    def counting(omega, simplex):
        calls.append(simplex)
        return integrate_simplex(omega, simplex)

    monkeypatch.setattr(forms, "integrate_simplex", counting)
    cfg = str(SCENARIOS / "landau_n1.json")
    assert run(["sym-product", "--config", cfg, "--seed", "0"]) == 0
    capsys.readouterr()
    # 1,722 when each lift product integrates its three paths afresh, 926 when
    # the two bracketings of a triple each integrate their own equal sum path
    assert len(calls) <= 826


def test_sym_product_items_carry_residues(tmp_path, capsys):
    cfg = str(SCENARIOS / "landau_n1.json")
    code, report = run_cmd(tmp_path, "sym-product", "--config", cfg, "--seed", "0")
    capsys.readouterr()
    assert code == 0
    assoc, equiv = report["checks"]
    items = assoc["items"] + equiv["items"]
    assert items and all("residue" in i for i in items)
    labels = {i["label"] for i in assoc["items"]}
    assert {"unit law (left)", "unit law (right)"} <= labels
    assert {i["label"] for i in equiv["items"] if i["label"].startswith("pair 0: ")} == {
        "pair 0: endpoints agree",
        "pair 0: product invariance",
        "pair 0: representative invariance",
    }


def _live_terms():
    return sum(isinstance(o, (PolyTrig, Scalar)) for o in gc.get_objects())


def _sym_product_memory(tmp_path, samples):
    """The PolyTrig and Scalar objects the sym-product handler leaves alive, and
    its transient peak: traced peak less the memory still held when it returns."""
    doc = {**LINE, "params": {"samples": samples, "equivalence_samples": 1}}
    scn = load_scenario(write_config(tmp_path, doc, f"peak{samples}.json"))
    gc.collect()
    before = _live_terms()
    tracemalloc.start()
    try:
        reports = HANDLERS["sym-product"](scn, rng(0), {})
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gc.collect()
    assert all(r.passed for r in reports)
    return _live_terms() - before, peak - held


def test_sym_product_memory_does_not_grow_with_samples(tmp_path):
    # path integrals are kept on the paths of one triple, so they die with it: a
    # memo that outlives the handler (on the connection or the module) leaves
    # terms alive, and one that spans the triples of a run raises the peak
    live32, peak32 = _sym_product_memory(tmp_path, 32)
    live128, peak128 = _sym_product_memory(tmp_path, 128)
    assert live128 == live32
    assert peak128 < 1.5 * peak32


def test_operators_uses_the_scenario_line(monkeypatch, tmp_path, capsys):
    import torusgauge.hilbert as hilbert
    import torusgauge.magnetic as magnetic

    built = []
    landau_line = magnetic.landau_line

    def counting(N):
        built.append(N)
        return landau_line(N)

    monkeypatch.setattr(hilbert, "landau_line", counting)
    monkeypatch.setattr(magnetic, "landau_line", counting)
    code, _ = run_cmd(tmp_path, "operators", "--config", str(SCENARIOS / "landau_n2.json"))
    capsys.readouterr()
    assert code == 0
    assert built == []  # the 16 pairs at N = 2 use the scenario's own c(v, v')
    # every other N in flux_list gets its Landau model once
    code, _ = run_cmd(tmp_path, "operators", "--config", str(SCENARIOS / "landau_n1.json"))
    capsys.readouterr()
    assert code == 0
    assert built == [2, 3, 4, 5, 6]


def _forbid_work(monkeypatch):
    """Make any integral or operator matrix raise: the run must stop before work."""

    def tripwire(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("cli", "forms", "gerbes", "hilbert", "magnetic", "sampling"):
        module = importlib.import_module(f"torusgauge.{name}")
        for attr in ("integrate_simplex", "translation_matrix"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, tripwire)


def test_counts_over_the_work_bound_are_config_errors(tmp_path, capsys, monkeypatch):
    _forbid_work(monkeypatch)
    cases = [
        ("pentagon", GERBE, {"samples": 10**9}),
        ("cohomology", LINE, {"samples": 10**9}),
        ("cohomology", GERBE, {"samples": 10**9}),
        ("check-cocycle", LINE, {"samples": 10**9}),
        ("check-cocycle", GERBE, {"samples": 10**9}),
        ("check-cocycle", LINE, {"range": MAX_COUNT + 1}),
        ("check-cocycle", GERBE, {"range": MAX_COUNT + 1}),
        ("sym-product", LINE, {"samples": 10**9}),
        ("sym-product", LINE, {"equivalence_samples": 10**9}),
        ("stokes-selftest", LINE, {"samples": 10**9}),
        ("operators", LINE, {"flux_list": [200]}),
        ("operators", LINE, {"flux_list": [10] * 2}),
    ]
    for command, doc, params in cases:
        cfg = write_config(tmp_path, {**doc, "params": params})
        assert_config_error(capsys, [command, "--config", cfg], (command, params))
    # the bundled flux list stays within the bound
    doc = json.loads((SCENARIOS / "landau_n1.json").read_text())
    assert sum(N**4 for N in doc["params"]["flux_list"]) == 2275 <= MAX_COUNT


def test_operators_needs_a_constant_flux_scenario(tmp_path, capsys, monkeypatch):
    _forbid_work(monkeypatch)
    zero_line = str(SCENARIOS / "zero_line.json")
    assert_config_error(capsys, ["operators", "--config", zero_line], "zero_line")
    cases = [
        {**LINE, "connection": {"1": "-pi*x2"}},  # half flux
        {**LINE, "connection": {"1": "-2*pi*x2", "2": "x1^2"}},  # nonconstant
        {**LINE, "connection": {"1": "2*pi*x2"}},  # N = -1
        {"dimension": 3, "kind": "line", "connection": {"1": "-2*pi*x2"}},
        {"dimension": 2, "kind": "line", "cocycle": {"2": "2*pi*x1"}},  # no connection
    ]
    for doc in cases:
        cfg = write_config(tmp_path, doc)
        assert_config_error(capsys, ["operators", "--config", cfg], doc)


def test_operators_defaults_to_the_scenario_flux(tmp_path, capsys):
    # d((-4*pi*x2 + x1*x2) dx1 + 1/2*x1^2 dx2) = (x1 + 4*pi - x1) dx1^dx2: N = 2
    doc = {**LINE, "connection": {"1": "-4*pi*x2 + x1*x2", "2": "1/2*x1^2"}}
    code, report = run_cmd(tmp_path, "operators", "--config", write_config(tmp_path, doc))
    capsys.readouterr()
    assert code == 0
    labels = {i["label"] for i in report["checks"][0]["items"]}
    assert labels == {"twisted algebra N=2"}


def test_dimension_is_bounded(tmp_path, capsys, monkeypatch):
    _forbid_work(monkeypatch)
    for bad in (9, 10**4, 0, float("inf")):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**LINE, "dimension": bad}))
        assert_config_error(capsys, ["section", "--config", str(cfg)], bad)


def test_curving_that_does_not_descend_fails_along_its_axis(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "constant_flux_m1.json").read_text())
    doc["curving"]["1,2"] = "2*pi*x3^2"
    cfg = tmp_path / "bad_curving.json"
    cfg.write_text(json.dumps(doc))
    code, report = run_cmd(tmp_path, "check-connection", "--config", str(cfg))
    capsys.readouterr()
    assert code == 1
    failed = {i["label"] for i in report["checks"][0]["items"] if i["status"] == "fail"}
    assert failed == {"curvature descends along axis 3", "curving step along axis 3"}
    code, report = run_cmd(tmp_path, "twist3", "--config", str(cfg))
    capsys.readouterr()
    assert code == 1
    (rep,) = report["checks"]
    assert rep["identity"] == "associator_descends"
    assert len(rep["items"]) == 6  # two triples, three axes each
    failed = {i["label"]: i["residue"] for i in rep["items"] if i["status"] == "fail"}
    # the associator moves by a constant outside 2*pi*Z along axis 3 only
    assert failed == {
        "(1,0,0);(0,1,0);(0,0,1) axis 3": "4/3*pi",
        "(1/2,0,0);(0,1/2,0);(0,0,1/2) axis 3": "23/12*pi",
    }


@pytest.mark.parametrize(
    "command, scenario, pinned",
    [
        ("section", "constant_flux_m1", ("add", "scale", "translate")),
        ("section", "landau_n1", ("add", "scale", "translate")),
        ("check-cocycle", "constant_flux_m1", ("add", "scale", "translate")),
        ("check-cocycle", "landau_n1", ("add", "scale", "translate")),
        ("check-connection", "constant_flux_m1", ("scale", "translate")),
        ("sym-product", "landau_n1", ("translate",)),
    ],
)
def test_sampled_identities_are_fused_shifted_sums(capsys, command, scenario, pinned):
    # each identity's slack is one shifted_sum: no chain of translate, scale and +
    cfg = str(SCENARIOS / f"{scenario}.json")
    with op_calls() as calls:
        assert run([command, "--config", cfg, "--seed", "0"]) == 0
    capsys.readouterr()
    assert {op: calls[op] for op in pinned} == dict.fromkeys(pinned, 0)


def test_a_float_past_the_float_range_is_a_config_error(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "landau_n1.json").read_text())
    doc["cocycle"] = {"1": "cos(2*pi*(x2 + 1/5))*x1^1500"}
    doc["params"] = {"range": 1, "samples": 1, "vectors": [["1", "0"]]}
    assert_config_error(capsys, ["section", "--config", write_config(tmp_path, doc)], "section")


def test_closed_stdout_is_no_traceback():
    # the reader closes the pipe before the report is written
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SCENARIOS.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "torusgauge.cli", "cohomology",
         "--config", str(SCENARIOS / "landau_n1.json")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err
