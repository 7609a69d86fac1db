"""The expression reader against recorded results.

tests/data/expr_differential.json holds, for every expression of the corpus
below, what parse_expr returned when it was recorded (at commit 362240a,
before the reader read trig arguments into ints): the terms of the PolyTrig,
with keys in dict order and each coefficient as its exact num/den or its
float and tolerance bits, or else the error class and message, offset
included.  The reader must still give exactly that.

The corpus is every expression in scenarios/ and in the configs of
tests/data, every expression of 2 rounds of each benchmark workload at
workload seeds 0 and 1, and EDGES.  To record it again, from the root of a
checkout of the reference commit:

    PYTHONPATH=src python3 tests/test_expr_differential.py > tests/data/expr_differential.json
"""

import json
import sys
from pathlib import Path

from torusgauge.expr import parse_expr

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "expr_differential.json"
WORKLOAD_SEEDS = (0, 1)
WORKLOAD_ROUNDS = 2

# (dimension, text): shapes the configs rarely hold, and errors
EDGES = [
    # cancellation inside an argument
    (2, "cos(2*pi*(x1 + x2^2 - x2^2))"),
    (2, "sin(2*pi*x1 + x2^2 - x2^2 + 2*pi*x2)"),
    (1, "cos(2*pi*((x1 + 1)*(x1 - 1) - x1^2 + x1))"),
    (2, "cos(2*pi*(x1 + x2) - 2*pi*x2)"),
    (2, "cos(2*pi*x1 + x1 - x1)"),
    (1, "cos(pi*x1 + pi*x1)"),
    (2, "sin(2*pi*(x1 - x1 + x2 + x1))"),
    (1, "cos(2*pi*(x1 - x1))"),
    (1, "sin(2*pi*(x1 - x1) + 1/3*pi)"),
    # a constant atom inside an argument
    (3, "cos(2*pi*x1 + pi*cos(0))"),
    (2, "cos(2*pi*x1 + sin(0))"),
    (2, "sin(2*pi*x1*cos(0) + 1/2*pi)"),
    (1, "cos(2*pi*x1 + cos(2*pi*1/5))"),
    (1, "cos(2*pi*x1 + pi*cos(2*pi*1/5))"),
    (1, "cos(2*pi*x1*cos(2*pi*1/5))"),
    (2, "cos(2*pi*x1 + 2*pi*cos(2*pi*(x2 - x2 + 1/3)))"),
    (1, "exp2pii(x1 + cos(0)) + exp2pii(-x1 - 1)"),
    (1, "exp2pii(x1 + 1/2*cos(0)) + exp2pii(-x1 - 1/2)"),
    # exp2pii with rational constants
    (1, "exp2pii(x1 + 1/3) + exp2pii(-x1 - 1/3)"),
    (2, "exp2pii(2*x1 - x2 - 3/5) + exp2pii(-2*x1 + x2 + 3/5)"),
    (2, "x2*(exp2pii(x1 + 2/7) + exp2pii(-1*x1 - 2/7))"),
    (1, "exp2pii(1/4) + exp2pii(-1/4)"),
    (1, "exp2pii(1/2)"),
    (1, "exp2pii(x1 + 1/5)*exp2pii(-x1 + 1/5)*exp2pii(-2/5)"),
    (1, "3/2*exp2pii(x1 - 1/6) + 3/2*exp2pii(-x1 + 1/6)"),
    (2, "(exp2pii(x1 + 1/3) + exp2pii(-x1 - 1/3))^2"),
    (1, "exp2pii(x1 + pi)"),
    (1, "exp2pii(1/2*x1) + exp2pii(-1/2*x1)"),
    (1, "exp2pii(2*pi*x1)"),
    (1, "exp2pii(x1)"),
    (1, "cos(2*pi*x1 + exp2pii(1/4))"),
    # nested parens
    (3, "cos(2*pi*((x1 - (x2 - x3))))"),
    (2, "((((x1 + 1/2))))*((x2))"),
    (2, "sin(2*pi*(((x1) + (x2)) + (1/7)))"),
    (2, "cos(2*pi*(x1 + (x2 + (1/5))))"),
    (1, "cos((2*pi)*(x1))"),
    # factors after the paren
    (2, "cos((x1 - x2)*2*pi)"),
    (2, "sin((x1 + 1/5)*pi*2)"),
    (2, "cos((x1 - x2)*2*pi + 1/3*pi)"),
    (2, "cos((2*x1 - x2 + 1/5)*pi*2 - 2*pi*x2)"),
    (1, "cos(pi*(x1 + 1/3)*2)"),
    (1, "cos(pi*(x1 + 1/3))"),
    # pi^-n
    (1, "pi^-2*cos(2*pi*x1)"),
    (2, "pi^-1*x1^2 - 1/2*pi^-3*sin(2*pi*(x1 - x2))"),
    (1, "cos(2*pi*x1 + pi^-1)"),
    (1, "cos(2*pi^1*x1 + pi^2*pi^-1)"),
    (1, "x1^-1"),
    (1, "cos(2*pi*x1)^-1"),
    # powers of an atom
    (1, "cos(2*pi*x1)^2"),
    (2, "3*sin(2*pi*(x1 + 1/5))^3"),
    (2, "(cos(2*pi*x1) + sin(2*pi*x2))^2"),
    (1, "cos(2*pi*x1)^0"),
    (1, "5*cos(2*pi*x1)^0"),
    (1, "2*pi*cos(2*pi*(x1 + 2/7))^2*x1"),
    (1, "sin(2*pi*x1)^1^2"),
    (2, "-pi^2*cos(2*pi*(x1 - 2*x2) + 2/5*pi)^2"),
    # coefficients before and after an atom
    (2, "3/2*pi*cos(2*pi*(x1 + 1/7))"),
    (2, "-2*pi^2*sin(2*pi*(x1 - x2) + 2/5*pi)"),
    (2, "-1/2*pi - pi*cos(2*pi*(x1 - x2))"),
    (3, "(3 + 3*pi) + sin(2*pi*(x1 - x2 - x3)) - 2*pi*x3"),
    (1, "0*cos(2*pi*x1)"),
    (1, "0*cos(pi*x1)"),
    (2, "x1*3*cos(2*pi*(x2 + 1/5))"),
    (2, "3*x1*cos(2*pi*(x1 + 2/5))*x2*2"),
    (1, "cos(2*pi*(x1 + 1/5))*3/2"),
    (1, "cos(2*pi*(x1 + 1/5))*3*pi*2"),
    (1, "2.5e-1*cos(2*pi*x1) + 0.5*sin(2*pi*(x1 + 3/10))"),
    (1, "1e-20*cos(2*pi*(x1 + 1/5))"),
    (1, "1e-20*cos(2*pi*(x1 + 1/5))*1e20"),
    (2, "cos(2*pi*(x1 + 1/5))*sin(2*pi*(x2 + 2/7))"),
    (2, "cos(2*pi*(x1 + 1/5))*(x1 + sin(2*pi*(x2 + 2/7)))*2"),
    (1, "-cos(2*pi*x1) + cos(2*pi*x1)"),
    (1, "cos(-2*pi*x1) - sin(2*pi*(-x1 + 1/3))"),
    (1, "sin(2*pi*(0*x1))"),
    (1, "cos(0*x1)"),
    (1, "sin(0)"),
    (2, "cos(2*pi*123456789012345678901234567890*x1 - 2*pi*x2)"),
    (1, "cos(2*pi*x1 + 123456789/1000*pi)"),
    (2, "x1 + x2 - x1 + x1"),
    (1, "1.5 + 2.25e1*x1 + 3E-2*x1^2 - 7/14"),
    # numbers
    (1, "0.5"),
    (1, "007/014*x1"),
    (1, "1.5/2"),
    (1, "1e5/3"),
    (1, "1/0"),
    (1, "2^100000"),
    (1, "3^10000^300"),
    (1, "1e99999"),
    (1, "x1^6000*x1^6000"),
    (1, "cos(2*pi*x1)^100000"),
    (1, "(1 + 2*pi)^3"),
    (1, "cos(2*pi*(x1 + 1/5))*3^1000"),
    (1, "cos(2*pi*(x1 + 1/5))*3^1000*x1"),
    (1, "3^1000*cos(2*pi*(x1 + 1/5))"),
    (1, "-3^1000*x1*cos(2*pi*(x1 + 1/5))"),
    (1, "cos(2*pi*(x1 + 1/5))*1/3^1000"),
    (1, "(x1 + cos(2*pi*(x1 + 1/5)))*10^400"),
    (1, "(x1 + cos(2*pi*(x1 + 1/5)))*(10^400*x1)"),
    (2, "x2*10^320*exp2pii(x1 + 2/5)*(x1 + x3) + exp2pii(-x1 - 2/5)"),
    (1, "3^700*cos(2*pi*(1/3^700 + 7/4))*2*x3"),
    # a coefficient times a float below the zero threshold
    (1, "1e20*cos(2*pi*(x1 + 1/4 + 1/10000000000000000000))"),
    (1, "1e20*cos(2*pi*(x1 + 1/4 + 1/10000000000000000000))*x1"),
    (1, "x1*1e20*sin(2*pi*(x1 + 1/2 + 1/10000000000000000000))"),
    (1, "1e20*exp2pii(x1 + 1/2 + 1/10000000000000000000) + 1e20*exp2pii(-x1 - 1/2)"),
    (1, "(1e20*cos(2*pi*(x1 + 1/4 + 1/10000000000000000000)) + x1)*1e20"),
    # argument errors, in term order
    (1, "cos(pi*x1)"),
    (1, "cos(2*pi*x1 + 1)"),
    (1, "cos(x1^2 + pi*x1)"),
    (1, "cos(pi*x1 + x1^2)"),
    (2, "cos(2*pi*x1*x2)"),
    (1, "cos(2*pi*cos(2*pi*x1))"),
    (1, "cos(2*pi*x1 + 1.5*pi)"),
    (1, "cos(2*pi*x1 + 3*pi^2)"),
    (1, "cos(2*pi*x1 + 1 + pi)"),
    (2, "cos(2*pi*x1 + 3/2*x2)"),
    (2, "cos(3*pi*x1 + pi*x2)"),
    (2, "cos(2*pi*x1 + (2*pi + 1)*x2)"),
    (1, "cos(exp2pii(x1))"),
    (1, "sin(2*pi*(x1 + 1/5)*cos(2*pi*x1))"),
    # syntax and dimension errors
    (2, "cos(2*pi*x3)"),
    (1, "cos(2*pi*x1"),
    (1, "cos 2*pi*x1"),
    (1, "cos()"),
    (1, "cos(2*pi*x1))"),
    (1, "foo(x1)"),
    (1, "x1 $ 2"),
    (1, "2*pi*x1 +"),
    (1, ")"),
    (1, "cos(4*pi*x1/2)"),
    (1, "pi^-"),
    (1, "x1^x1"),
    (1, "x1^1.5"),
    (1, "exp是"),
    (1, "--x1"),
    (1, "x1 * * x1"),
    (1, ""),
]


def _coefficient(c):
    if c.num is None:
        return {"val": c.val.hex(), "tol": c.tol.hex()}
    return {"num": [[k, n] for k, n in sorted(c.num.items())], "den": c.den}


def outcome(d, text):
    """What parse_expr gives for text on R^d, in JSON form."""
    try:
        f = parse_expr(text, d)
    except Exception as exc:  # noqa: BLE001 -- the class and message are the record
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"terms": [[list(alpha), mode, list(freq), _coefficient(c)]
                      for (alpha, mode, freq), c in f.terms.items()]}


def _config_expressions(doc):
    d = doc["dimension"]
    for key in ("cocycle", "connection", "curving"):
        stack = [doc.get(key, {})]
        while stack:
            node = stack.pop()
            for value in node.values():
                if isinstance(value, dict):
                    stack.append(value)
                else:
                    yield d, value


def corpus():
    """[(dimension, text)] of the corpus, each once, in a fixed order."""
    sys.path.insert(0, str(ROOT / "verdictbench"))
    from workloads import RoundSource

    docs = [json.loads(p.read_text()) for p in sorted((ROOT / "scenarios").glob("*.json"))]
    docs += [json.loads(p.read_text()) for p in sorted((ROOT / "tests" / "data").glob("*.json"))
             if p != DATA]
    for workload in ("stokes", "gerbe", "line", "tier_f"):
        for seed in WORKLOAD_SEEDS:
            source = RoundSource(workload, seed)
            for _ in range(WORKLOAD_ROUNDS):
                docs += source.next_round()[0].values()
    out = {}
    for doc in docs:
        for item in _config_expressions(doc):
            out[item] = None
    for item in EDGES:
        out[item] = None
    return list(out)


def test_the_reader_gives_the_recorded_results():
    records = json.loads(DATA.read_text())
    assert {(d, text) for d, text, _ in records} >= set(EDGES)
    assert len(records) > 300
    wrong = [(d, text) for d, text, want in records if outcome(d, text) != want]
    assert not wrong, wrong[:5]


if __name__ == "__main__":
    lines = [json.dumps([d, text, outcome(d, text)]) for d, text in corpus()]
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")
