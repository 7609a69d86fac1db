"""Every function under src/torusgauge/ is entered when the checker runs.

A profile hook (tests_util.code_calls) records the code objects entered, in
process, while these run:

- the report digest jobs, one run shared with test_report_digests;
- stokes-selftest, and one run through main() that writes a --csv table;
- one round of each benchmark workload: its configs generated by
  verdictbench/workloads.py's RoundSource, and each of its jobs;
- the fixed configs of test_cli_fuzz, and the texts of test_expr_oracle's
  random trees, parsed (their values are built before recording starts).

A function counts as entered when a code object with its file, first line
and name was; lambdas, comprehensions and class bodies count with the code
around them.  A function that nothing enters is deleted, or listed in KEEP
with the reason it stays.  A KEEP entry whose reason cites TRACER must still be
named by verdictbench/tracer.py's METHODS, which is read from that file.
"""

import ast
import contextlib
import importlib.util
import inspect
import io
import json
import os
import random
import sys
import types
from pathlib import Path

import pytest

import torusgauge
from torusgauge.cli import main, run
from torusgauge.expr import parse_expr
from test_cli_fuzz import corpus
from test_expr_oracle import tree
from tests_util import code_calls

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(torusgauge.__file__).resolve().parent
EXPR_TREES = 40

TRACER = "named by verdictbench/tracer.py METHODS, which wraps it by name"
KEEP = {
    "cli._needs": "runs at import, declaring each handler's needs in HANDLERS",
    "cohomology.GroupCochain.__call__": TRACER,
    "cohomology.GroupCochain.__init__": (
        "the cochain type of the exponent-valued oracle in tests_util;"
        " verdictbench/tracer.py wraps it at install"
    ),
    "forms.AffineSimplex.edges": "verdictbench/tracer.py's _integral_key reads it; the face oracles compare it",
    "forms.AffineSimplex.top": "verdictbench/tracer.py's _integral_key reads it; the face oracles compare it",
    "forms.AffineSimplex.vertices": "the quadrature and sympy oracles place a simplex by its vertices",
    "forms.Form.equals": "form equality up to tolerance, as PolyTrig.equals; the form oracles use it",
    "forms.Form.pullback": TRACER,
    "forms.Form.wedge": "the Leibniz-rule oracle for d",
    "forms._perm_sign": "the sign of Form.wedge",
    "forms.PLPath.vertices": (
        "test_forms' concatenation, reversal and cell_integral oracles and"
        " test_magnetic's lattice-translated loop read paths by their vertices"
    ),
    "gerbes.GerbeData.connection": TRACER,
    "gerbes.flat_gerbe_2d": "acceptance criterion 8, the d = 2 degeneration",
    "magnetic.LineData.phi": TRACER,
    "magnetic.holonomy_exponent": "the paper's parallel transport; closed loops cross-check integrate_path",
    "polytrig.PolyTrig.equals": "function equality up to tolerance; Form.equals and the kernel oracles use it",
    "polytrig.PolyTrig.__eq__": "exact equality of canonical functions; the exact oracles use it",
    "polytrig.PolyTrig.eval_float": "the quadrature and finite-difference cross-checks",
    "polytrig.PolyTrig.antiderivative": TRACER,
    "polytrig.PolyTrig.expand_phases": TRACER,
    "polytrig.PolyTrig.scale": TRACER,
    "polytrig.PolyTrig.substitute": TRACER,
    "polytrig.PolyTrig.var": "the coordinate x_i of the ring API; the reader's oracle builds with it",
    "scalar.Scalar.__repr__": "a Scalar shows its value in assertion messages and at the prompt",
    "scalar.Scalar.equals": "scalar equality up to tolerance; the tier oracles use it",
    "scalar.Scalar.pi": "verdictbench/tracer.py keys exact scalars by it; the exact oracles compare it",
}


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name


def _functions(path):
    """{key: qualified name} of every def in the module at path, methods and nested defs included."""
    out = {}
    stack = [(compile(path.read_text(), str(path), "exec"), path.stem)]
    while stack:
        code, prefix = stack.pop()
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                name = f"{prefix}.{c.co_name}"
                stack.append((c, name))
                if c.co_flags & inspect.CO_OPTIMIZED and not c.co_name.startswith("<"):
                    out[_key(c)] = name
    return out


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "verdictbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_config(tmp, name, command, doc_text):
    path = tmp / f"{name}.json"
    path.write_text(doc_text)
    return _quiet([command, "--config", str(path)])


def _everything_but_the_digests(tmp, trees, monkeypatch):
    assert _quiet(["stokes-selftest", "--seed", "0"]) == 0
    monkeypatch.setattr(sys, "argv", [
        "torusgauge", "section", "--config", str(ROOT / "scenarios" / "landau_n1.json"),
        "--csv", str(tmp / "phases.csv"),
    ])
    with pytest.raises(SystemExit) as stop, contextlib.redirect_stdout(io.StringIO()):
        main()
    assert stop.value.code == 0 and (tmp / "phases.csv").read_text().startswith("identity,")
    workloads = _workloads()
    for workload in ("stokes", "gerbe", "line", "tier_f"):
        configs, jobs = workloads.RoundSource(workload, 0).next_round()
        for command, name, expected in dict.fromkeys(jobs):
            assert _run_config(tmp, name, command, json.dumps(configs[name])) == expected
    for i, (command, text) in enumerate(corpus()):
        assert _run_config(tmp, f"fuzz{i}", command, text) in (0, 1, 2, 3)
    for d, text in trees:
        parse_expr(text, d)


def test_every_function_is_entered_or_kept(digest_run, tmp_path, monkeypatch):
    r = random.Random(1402)
    trees = []
    for _ in range(EXPR_TREES):
        d = r.choice((1, 2, 3))
        trees.append((d, tree(r, d).text))
    with code_calls() as calls:
        _everything_but_the_digests(tmp_path, trees, monkeypatch)
    entered = {_key(code) for code in calls} | {_key(code) for code in digest_run[1]}
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defined.update(_functions(path))
    unreached = sorted(q for key, q in defined.items() if key not in entered and q not in KEEP)
    assert not unreached, "entered by no run: " + ", ".join(unreached)
    names = set(defined.values())
    assert not KEEP.keys() - names, "KEEP names a definition that is gone"
    kept_but_entered = sorted(q for key, q in defined.items() if key in entered and q in KEEP)
    assert not kept_but_entered, "KEEP names a function that runs: " + ", ".join(kept_but_entered)


def _tracer_methods():
    """{module: set of names} of verdictbench/tracer.py's METHODS, read from its source."""
    tree = ast.parse((ROOT / "verdictbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]:
            return {m: set(names) for m, names in ast.literal_eval(node.value).items()}
    raise AssertionError("verdictbench/tracer.py defines no METHODS")


def test_tracer_keep_entries_are_named_by_the_tracer():
    methods = _tracer_methods()
    stale = []
    for q, reason in KEEP.items():
        module, _, name = q.partition(".")
        if TRACER in reason and name not in methods.get(module, ()):
            stale.append(q)
    assert not stale, "METHODS no longer names these; delete their KEEP entries: " + ", ".join(stale)
