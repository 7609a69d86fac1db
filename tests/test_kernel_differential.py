"""The integration kernel against recorded results.

tests/data/kernel_differential.json holds kernel inputs and what
forms._iterated_integral returned for them when they were recorded (at
commit 1edcaa6, before a cell's rows were built from its edge columns).
Each record is a form, as its degree and its components in print_expr text,
a chain of cells (edges, first vertex, den, sign) as int tuples, and the
result's terms: keys in dict order, each coefficient as its exact num/den or
its float and tolerance bits.  The kernel must still give exactly that.

The inputs are every kernel call of one round of each benchmark workload at
workload seed 0, and EDGES.  To record them again, from the root of a
checkout of the reference commit:

    PYTHONPATH=src python3 tests/test_kernel_differential.py --write
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from torusgauge import cli, forms
from torusgauge.expr import parse_expr, print_expr
from torusgauge.forms import Form

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "kernel_differential.json"
WORKLOAD_SEED = 0


def _cells(rows):
    return [(tuple(map(tuple, edges)), tuple(p0), den, sign) for edges, p0, den, sign in rows]


# (dimension, degree, {component: text}, cells): shapes the workloads rarely hold
EDGES = [
    # k = 0: point cells, one at a rational point
    (2, 0, {(): "x1^2*x2 + cos(2*pi*(x1 - x2))"}, [((), (1, 2), 3, 1), ((), (0, 0), 1, -1)]),
    # an empty chain
    (2, 1, {(0,): "x2 + sin(2*pi*x1)"}, []),
    # a zero form
    (3, 2, {}, [(((1, 0, 0), (0, 1, 0)), (0, 0, 0), 1, 1)]),
    # degenerate cells: a zero minor, and all minors zero
    (3, 2, {(0, 1): "x3", (1, 2): "cos(2*pi*x1)"}, [(((1, 0, 0), (2, 0, 0)), (0, 1, 0), 2, 1)]),
    (3, 2, {(0, 1): "x1*x2 + 1"}, [(((0, 0, 1), (1, 0, 1)), (1, 1, 0), 1, 1)]),
    (2, 1, {(0,): "x1^2 - x2"}, [(((0, 3),), (1, 1), 2, 1)]),
    # trig terms at phases: rational first vertices and edges
    (2, 1, {(0,): "cos(2*pi*(x1 + x2))", (1,): "x1*sin(2*pi*x2)"},
     [(((1, 2),), (1, -1), 3, 1), (((2, -1),), (0, 1), 5, -1)]),
    (3, 3, {(0, 1, 2): "x1*cos(2*pi*(x1 - x3)) + sin(2*pi*x2)"},
     [(((1, 0, 0), (0, 2, 0), (1, 1, 3)), (1, 2, 3), 4, 1)]),
    (3, 2, {(0, 2): "x2^2*sin(2*pi*(x1 + 2*x3))", (1, 2): "cos(2*pi*x2) - x1"},
     [(((1, 2, 0), (0, 1, -1)), (2, 0, 1), 7, 1), (((3, 0, 1), (1, 1, 1)), (0, 0, 0), 7, -1)]),
    # tier-F coefficients
    (2, 1, {(0,): "cos(2*pi*(x1 + 1/7))", (1,): "0.3*x1 + sin(2*pi*(x2 - 2/5))"},
     [(((1, 1),), (2, 3), 5, 1)]),
    (2, 2, {(0, 1): "x1*cos(2*pi*(x1 - x2 + 1/5))"}, [(((1, 0), (1, 1)), (1, 1), 7, 1)]),
]


def _coefficient(c):
    if c.num is None:
        return {"val": c.val.hex(), "tol": c.tol.hex()}
    return {"num": [[k, n] for k, n in sorted(c.num.items())], "den": c.den}


def _form(d, k, comps):
    return Form(d, k, {tuple(I): parse_expr(text, d) for I, text in comps})


def outcome(d, k, comps, cells):
    """The kernel's result for the input, in JSON form."""
    f = forms._iterated_integral(_form(d, k, comps), _cells(cells))
    return [[list(alpha), mode, list(freq), _coefficient(c)]
            for (alpha, mode, freq), c in f.terms.items()]


def _workload_inputs():
    """[(d, k, comps, cells)] of every kernel call of one round of each workload."""
    sys.path.insert(0, str(ROOT / "verdictbench"))
    from workloads import RoundSource

    seen = []
    kernel = forms._iterated_integral

    def recording(omega, cells):
        comps = [[list(I), print_expr(f)] for I, f in omega.comps.items()]
        rows = [[list(map(list, edges)), list(p0), den, sign] for edges, p0, den, sign in cells]
        seen.append((omega.dim, omega.degree, comps, rows))
        return kernel(omega, cells)

    forms._iterated_integral = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for workload in ("stokes", "gerbe", "line", "tier_f"):
                configs, jobs = RoundSource(workload, WORKLOAD_SEED).next_round()
                for name, doc in configs.items():
                    with open(os.path.join(tmp, name + ".json"), "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                for seed, (command, name, _) in enumerate(jobs):
                    path = os.path.join(tmp, name + ".json")
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                        cli.run([command, "--config", path, "--seed", str(seed)])
    finally:
        forms._iterated_integral = kernel
    return seen


def records():
    """The recorded inputs, each once in a fixed order, with their results."""
    inputs = [(d, k, [[list(I), t] for I, t in comps.items()],
               [[list(map(list, e)), list(p), n, s] for e, p, n, s in cells])
              for d, k, comps, cells in EDGES]
    out = {}
    for d, k, comps, cells in inputs + _workload_inputs():
        out.setdefault(json.dumps([d, k, comps, cells]), (d, k, comps, cells))
    return [[d, k, comps, cells, outcome(d, k, comps, cells)] for d, k, comps, cells in out.values()]


def test_the_kernel_gives_the_recorded_results():
    recs = json.loads(DATA.read_text())
    assert len(recs) > 300
    assert {k for _, k, _, _, _ in recs} == {0, 1, 2, 3}
    wrong = [(d, k, comps) for d, k, comps, cells, want in recs
             if outcome(d, k, comps, cells) != want]
    assert not wrong, wrong[:3]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print(f"usage: {sys.argv[0]} --write", file=sys.stderr)
        sys.exit(2)
    lines = [json.dumps(rec) for rec in records()]
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n")
