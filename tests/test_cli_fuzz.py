"""Bounded config fuzzer: malformed configs keep the CLI's exit-code contract.

Each example takes a bundled scenario, breaks it in one place and runs one
command in process.  Whatever the config says, run() must return 0, 1, 2 or
3 and let no exception escape.  The fixed configs of the other tests here
are built by module-level functions, and corpus() lists them all, so that
test_reachable runs them too.
"""

import contextlib
import copy
import io
import json
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from torusgauge.cli import HANDLERS, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# inf and nan are written as the JSON extensions Infinity and NaN; the string
# is a literal whose exponent alone would cost seconds to expand
BAD_VALUES = [-1, 0, "x", 2.5, [], {}, None, 10**9, float("inf"), float("nan"), "1e10000000"]
# keep every command cheap on the unbroken config
CHEAP_PARAMS = {"samples": 2, "equivalence_samples": 1, "flux_list": [1]}
PARAM_KEYS = ("samples", "equivalence_samples", "range", "vectors", "flux_list")


def _base(name):
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    doc["params"] = {**doc["params"], **CHEAP_PARAMS}
    return doc


BASES = {name: _base(name) for name in ("zero_line", "constant_flux_m1")}


@st.composite
def broken_configs(draw):
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    how = draw(st.sampled_from(("type", "key", "param", "coordinate")))
    if how == "type":
        return draw(st.sampled_from(BAD_VALUES + [[doc], "config"]))
    value = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    if how == "key":
        doc[draw(st.sampled_from(sorted(doc)))] = value
    elif how == "param":
        doc["params"][draw(st.sampled_from(PARAM_KEYS))] = value
    else:
        doc["params"]["vectors"] = [[value] + ["0"] * (doc["dimension"] - 1)]
    return doc


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(doc=broken_configs(), command=st.sampled_from(sorted(HANDLERS)))
def test_broken_configs_keep_the_exit_code_contract(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, "--config", str(path)])
    assert code in (0, 1, 2, 3), (code, command, doc)
    if code == 2:
        assert err.getvalue().startswith("config error:"), (command, doc)


def _run_text(tmp_path, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([command, "--config", str(path)])
    return code, err.getvalue(), time.perf_counter() - start


def _with(base, **changes):
    doc = copy.deepcopy(BASES[base])
    doc.update(changes)
    return json.dumps(doc)


def odd_number_cases():
    """(command, config text) pairs whose numbers are too odd to run: each is a config error."""
    params = BASES["zero_line"]["params"]
    cases = [
        ("section", _with("zero_line", params={**params, "vectors": [[value, "0"]]}))
        for value in (float("inf"), float("nan"), "1e10000000", "1e1000000", "1/0")
    ]
    cases.append(("check-cocycle", _with("zero_line", cocycle={"2": "2*pi*x1 + 1e10000000"})))
    # a JSON number (not a string) whose exponent is past the digit limit
    raw = _with("zero_line", params={**params, "vectors": [["N", "0"]]}).replace('"N"', "1e10000000")
    cases.append(("section", raw))
    # a trig phase that is not a rational multiple of pi has no exact value
    for text in ("cos(2*pi*x1 + 1)", "sin(2*pi*x1 + pi^2)",
                 "exp2pii(x1 + pi) + exp2pii(-1*x1 - pi)", "cos(2*pi*x1 + cos(2*pi*(1/5)))"):
        cases.append(("check-connection", _with("zero_line", cocycle={"1": text})))
    # literals past the digit limit inside an expression: digits only, and p/q
    for literal in ("7" * 5000, "1/" + "7" * 5000):
        cases.append(("check-cocycle", _with("zero_line", cocycle={"2": f"2*pi*x1 + {literal}"})))
    # json.dumps cannot write an integer past the interpreter's digit limit
    raw = _with("zero_line").replace('"dimension": 2', '"dimension": ' + "1" * 5000)
    assert "1" * 5000 in raw
    cases.append(("section", raw))
    # each literal is within the digit limit; their product in the section is not
    landau = json.loads((SCENARIOS / "landau_n1.json").read_text())
    landau["params"] = {**landau["params"], "vectors": [["1e2000", "1e2500"]]}
    cases.append(("section", json.dumps(landau)))
    return cases


def coerced_value_cases():
    """(command, config text) pairs with a value that used to be coerced or
    ignored: a dimension, or a schema, that is not the JSON integer it must be
    (true and 1.0 once passed as schema 1), a name that is not a string, and
    vectors that are not a non-empty list of lists (any falsy value once stood
    for "sample at random")."""
    cases = [
        ("section", _with("zero_line", dimension=value)) for value in (2.5, 2.0, "2", True, None)
    ]
    cases += [("section", _with("zero_line", schema=value)) for value in (True, 1.0, "1", 2)]
    cases += [("section", _with("zero_line", name=value)) for value in (2.5, 7, None, ["a"])]
    landau = json.loads((SCENARIOS / "landau_n1.json").read_text())
    for value in ([], 0, {}, False, "", None, "12", [["1", "0"], "01"]):
        landau["params"] = {**landau["params"], "vectors": value}
        cases.append(("section", json.dumps(landau)))
    # JSON booleans are not coordinates, though Fraction(True) is 1
    landau["params"] = {**landau["params"], "vectors": [[True, False], [False, True]]}
    cases += [(command, json.dumps(landau)) for command in ("section", "twist2")]
    return cases


# '^' multiplies n - 1 times, so an unbounded n is unbounded work; a chain
# of bounded exponents multiplies them, so the degree of a term is bounded too
HUGE_EXPONENTS = ("x1^20001", "pi^-20001", "x1^10000^10000", "((x1^100)^100)^100")
# each exponent is within MAX_COUNT, but 3^10000^300 has about 1.4M
# digits and 3^10000^10000 about 48 billion: refused before '**' runs.
# A parenthesised number is an atom of degree 0, which no degree bound
# stops: its coefficients take the literal's digit bound
LITERAL_POWERS = ("3^10000^300", "1/3^10000^300", "3^10000^10000", "2*pi*x1 + 7^5000^5000",
                  "(3)^10000^300", "(1/3)^10000^300", "(3)^10000^10000", "(2*pi)^10000^10000")


def corpus():
    """Every fixed (command, config text) pair of this module."""
    cases = odd_number_cases() + coerced_value_cases()
    for text in HUGE_EXPONENTS + LITERAL_POWERS + ("x1^2", "3^8000", "(3)^8000"):
        cases.append(("check-connection", _with("zero_line", cocycle={"1": text})))
    return cases


def test_odd_numbers_are_config_errors(tmp_path):
    for command, text in odd_number_cases():
        code, err, seconds = _run_text(tmp_path, command, text)
        assert code == 2 and err.startswith("config error:"), (command, text[:200], err)
        assert seconds < 1.0, (command, text[:200], seconds)


def test_coerced_values_are_config_errors(tmp_path):
    for command, text in coerced_value_cases():
        code, err, _ = _run_text(tmp_path, command, text)
        assert code == 2 and err.startswith("config error:"), (command, text[:200], err)
    # an absent vectors key still samples at random
    landau = json.loads((SCENARIOS / "landau_n1.json").read_text())
    del landau["params"]["vectors"]
    assert _run_text(tmp_path, "section", json.dumps(landau))[0] == 0


def test_json_numbers_are_read_exactly(tmp_path):
    # 0.1 is the rational 1/10, not the double nearest to it
    params = {**BASES["zero_line"]["params"], "vectors": [[0.1, 0.5], [2.5e-1, 1]]}
    path = tmp_path / "cfg.json"
    path.write_text(_with("zero_line", params=params))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(["section", "--config", str(path)]) == 0
    sections = json.loads(out.getvalue())["values"]["sections"]
    assert sorted(sections) == ["(1/10,1/2)", "(1/4,1)"], sorted(sections)


def test_huge_exponent_is_a_config_error(tmp_path):
    for text in HUGE_EXPONENTS:
        code, err, seconds = _run_text(
            tmp_path, "check-connection", _with("zero_line", cocycle={"1": text})
        )
        assert code == 2 and err.startswith("config error:"), (text, err)
        assert "exceeds 10000" in err, err
        assert seconds < 1.0, (text, seconds)
    code, _, _ = _run_text(tmp_path, "check-connection", _with("zero_line", cocycle={"1": "x1^2"}))
    assert code == 1  # a small power still parses; d(x1^2) != 0 = A - A(. + e1)


def test_literal_powers_past_the_digit_limit_are_config_errors(tmp_path):
    for text in LITERAL_POWERS:
        code, err, seconds = _run_text(
            tmp_path, "check-connection", _with("zero_line", cocycle={"1": text})
        )
        assert code == 2 and err.startswith("config error:"), (text, err)
        assert "digits" in err, err
        assert seconds < 1.0, (text, seconds)
    # a power that can still be printed parses as before
    for literal in ("3^8000", "(3)^8000"):
        text = _with("zero_line", cocycle={"1": literal})
        assert _run_text(tmp_path, "check-connection", text)[0] == 0
