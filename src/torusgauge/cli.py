"""Batch verification front-end.

Scenario configs are JSON documents; expressions use the package grammar
(see expr).  Reports are JSON ("schema": 1) with one entry per check,
residues rendered exactly (rational multiples of pi) on the exact tier and
as floats with tolerances otherwise.  The float tier decides at one fixed
tolerance, scalar.DEFAULT_TOL, which each report records as "tolerance".
Runs are deterministic byte for byte for fixed seed and config.

Exit codes: 0 all checks pass, 1 a check failed, 2 the config could not be
read or parsed or asks for more work than MAX_COUNT allows, 3 a flux
quantization violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .cohomology import check_coboundary, coboundary_slack
from .errors import QuantizationError, SizeLimitError, TorusGaugeError
from .expr import MAX_COUNT, parse_expr, read_rational
from .forms import Form
from .gerbes import (
    GerbeData,
    check_associator_descends,
    check_gerbe_cocycle,
    check_gerbe_connection,
    check_section_constraint,
    composition_phase,
    flux_class,
)
from .hilbert import check_operator_cocycle, landau_flux
from .magnetic import (
    LineData,
    PathSymmetry,
    check_line_cocycle,
    check_connection,
    check_section_membership,
    lift_equivalence_check,
    lift_product,
)
from .polytrig import constant_mod_free
from .reports import CheckReport, phase_item, vec_label
from .sampling import (
    rand_based_path,
    rand_path_pair,
    rand_periodic_gauge,
    rand_vector,
    rng,
    stokes_sample,
)
from .scalar import DEFAULT_TOL
from .vectors import basis_vec

DEFAULT_COHOMOLOGY_SAMPLES = 100
DEFAULT_ASSOCIATIVITY_SAMPLES = 50
# Largest scenario dimension: term keys and generator pairs grow with it.
MAX_DIMENSION = 8

class ConfigError(TorusGaugeError):
    pass


class Scenario:
    def __init__(self, name, kind, data, params):
        self.name = name
        self.kind = kind
        self.data = data
        self.params = params


def _parse_axis(key):
    try:
        return int(key)
    except ValueError as exc:
        raise ConfigError(f"bad axis key {key!r}") from exc


def _parse_pair(key):
    parts = key.split(",")
    if len(parts) != 2:
        raise ConfigError(f"bad pair key {key!r}")
    return (_parse_axis(parts[0]), _parse_axis(parts[1]))


def _object(value, what):
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _parse_form(d, comps, degree, what):
    out = {}
    for key, text in _object(comps, what).items():
        idx = tuple(_parse_axis(p) for p in key.split(","))
        if len(idx) != degree:
            raise ConfigError(f"component {key!r} has wrong degree (want {degree})")
        out[idx] = parse_expr(text, d)
    if degree == 1:
        return Form.one_form(d, {i[0]: f for i, f in out.items()})
    return Form.two_form(d, out)


class _JsonNumber(Fraction):
    """A JSON number with a fraction or an exponent, read exactly; quoted as n/d."""

    __slots__ = ()

    def __repr__(self):
        return f"{self.numerator}/{self.denominator}"


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # a JSON number with a fraction or an exponent is read exactly,
            # through read_rational's digit-limit check
            doc = json.load(fh, parse_float=lambda text: _JsonNumber(read_rational(text)))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and numbers past the digit limit;
        # RecursionError, arrays or objects nested past the recursion limit
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _object(doc, f"config {path}")
    try:
        schema = doc.get("schema", 1)
        if schema.__class__ is not int or schema != 1:
            raise ConfigError(f"unsupported config schema {schema!r}")
        d = doc["dimension"]
        if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= MAX_DIMENSION:
            raise ConfigError(f"dimension must be an integer in [1, {MAX_DIMENSION}], got {d!r}")
        kind = doc["kind"]
        name = doc.get("name", "scenario")
        if not isinstance(name, str):
            raise ConfigError(f"name must be a string, got {name!r}")
        params = _object(doc.get("params", {}), "params")
        cocycle = _object(doc.get("cocycle", {}), "cocycle")
        if kind == "line":
            gens = {_parse_axis(k): parse_expr(v, d) for k, v in cocycle.items()}
            conn = None
            if "connection" in doc:
                conn = _parse_form(d, doc["connection"], 1, "connection")
            data = LineData(d, gens, conn)
        elif kind == "gerbe":
            pair_exps = {_parse_pair(k): parse_expr(v, d) for k, v in cocycle.items()}
            gen_conns = {
                _parse_axis(k): _parse_form(d, comps, 1, f"connection {k!r}")
                for k, comps in _object(doc.get("connection", {}), "connection").items()
            }
            curving = _parse_form(d, doc.get("curving", {}), 2, "curving")
            data = GerbeData(d, pair_exps, gen_conns, curving)
        else:
            raise ConfigError(f"unknown scenario kind {kind!r}")
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return Scenario(name, kind, data, params)


def _vectors(scn, rnd, count):
    """params 'vectors', or count vectors drawn from rnd if the config has none."""
    if "vectors" not in scn.params:
        return _sample_vectors(rnd, scn.data.d, count)
    vecs = scn.params["vectors"]
    if not isinstance(vecs, list) or not vecs or not all(isinstance(v, list) for v in vecs):
        raise ConfigError(f"params 'vectors' must be a non-empty list of lists, got {vecs!r}")
    try:
        out = [tuple(_coordinate(x) for x in v) for v in vecs]
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad vector in params: {exc}") from exc
    d = scn.data.d
    for v in out:
        if len(v) != d:
            raise ConfigError(f"vector {vec_label(v)} has wrong dimension (want {d})")
    return out


def _coordinate(x):
    """A vector entry: a rational literal string or a JSON number (an int, or
    a Fraction as load_scenario reads it), not a bool."""
    if isinstance(x, bool):
        raise TypeError(f"vector coordinate must be a number or a string, got {x!r}")
    return read_rational(x) if isinstance(x, str) else Fraction(x)


def _sample_vectors(rnd, d, count):
    return [rand_vector(rnd, d, num=3, dens=(1, 2, 3, 4)) for _ in range(count)]


def _count_param(scn, key, default, least=0):
    n = scn.params.get(key, default)
    if not isinstance(n, int) or isinstance(n, bool) or not least <= n <= MAX_COUNT:
        raise ConfigError(
            f"params {key!r} must be an integer in [{least}, {MAX_COUNT}], got {n!r}"
        )
    return n


# -- command handlers --------------------------------------------------------


def cmd_check_cocycle(scn, rnd, values):
    check = check_line_cocycle if scn.kind == "line" else check_gerbe_cocycle
    return [check(scn.data)]


def cmd_check_connection(scn, rnd, values):
    check = check_connection if scn.kind == "line" else check_gerbe_connection
    rep, curvature = check(scn.data)
    values["curvature"] = repr(curvature)
    return [rep]


def cmd_section(scn, rnd, values):
    vecs = _vectors(scn, rnd, 3)
    reports = []
    sections = {}
    for v in vecs:
        if scn.kind == "line":
            rep, theta = check_section_membership(scn.data, v)
            sections[vec_label(v)] = str(theta)
        else:
            rep, sec = check_section_constraint(scn.data, v)
            sections[vec_label(v)] = {f"e{a}": str(g) for a, g in sorted(sec.items())}
        reports.append(rep)
    values["sections"] = sections
    return reports


def cmd_twist2(scn, rnd, values):
    vecs = _vectors(scn, rnd, 4)
    if len(vecs) < 2:
        raise ConfigError("twist2 needs at least two vectors in params 'vectors'")
    phases = {}
    reports = []
    for v, vp in itertools.combinations(vecs, 2):
        key = vec_label(v) + ";" + vec_label(vp)
        if scn.kind == "line":
            # delta(theta) = c for theta = -int A over Delta^1; one report per pair
            rep, (c,) = check_coboundary(
                "projective_product", -1, scn.data.connection, [(v, vp)], scn.data.curvature()
            )
            phases[key] = str(c)
            reports.append(rep)
        else:
            phases[key] = str(composition_phase(scn.data, v, vp))
    values["twist2"] = phases
    if scn.kind == "gerbe" and not reports:
        rep = CheckReport("composition_phase")
        rep.add("computed", True, note=f"{len(phases)} phases")
        reports.append(rep)
    return reports


def cmd_twist3(scn, rnd, values):
    d = scn.data.d
    vecs = _vectors(scn, rnd, 3)
    gens = [basis_vec(d, a) for a in range(1, min(d, 3) + 1)]
    tuples = [tuple(gens[:3])] if len(gens) >= 3 else []
    for i in range(len(vecs) - 2):
        tuples.append((vecs[i], vecs[i + 1], vecs[i + 2]))
    rep, omegas = check_associator_descends(scn.data, tuples)
    values["twist3"] = {key: str(om) for key, om in omegas.items()}
    return [rep]


def cmd_pentagon(scn, rnd, values):
    d = scn.data.d
    n = _count_param(scn, "samples", DEFAULT_ASSOCIATIVITY_SAMPLES)
    # delta(Pi) = omega for Pi = -int B over Delta^2, omega = int dB over Delta^3
    B, H = scn.data.curving, scn.data.curvature()
    reports = []
    if d >= 3:
        e123 = tuple(basis_vec(d, a) for a in (1, 2, 3))
        rep, (om,) = check_coboundary("pentagon_relation", -1, B, [e123], H)
        res = constant_mod_free(om)
        values["associator_e1_e2_e3"] = str(om) if res is None else str(res)
        reports.append(rep)
    samples = [tuple(_sample_vectors(rnd, d, 3)) for _ in range(n)]
    reports.append(check_coboundary("pentagon_relation", -1, B, samples, H)[0])
    return reports


def cmd_flux(scn, rnd, values):
    classes = flux_class(scn.data)
    values["flux"] = {"(" + ",".join(map(str, k)) + ")": n for k, n in sorted(classes.items())}
    rep = CheckReport("flux_quantization")
    for k, n in sorted(classes.items()):
        rep.add("face (" + ",".join(map(str, k)) + ")", True, residue=str(n))
    return [rep]


def cmd_sym_product(scn, rnd, values):
    d = scn.data.d
    n = _count_param(scn, "samples", DEFAULT_ASSOCIATIVITY_SAMPLES)
    m = _count_param(scn, "equivalence_samples", 25)
    rep = CheckReport("lift_associativity")
    for i in range(n):
        elems = [
            PathSymmetry(rand_based_path(rnd, d), rand_periodic_gauge(rnd, d))
            for _ in range(3)
        ]
        paths = {}  # one triple's sum paths, so both bracketings share theirs
        ab = lift_product(elems[0], elems[1], scn.data, paths)
        lhs = lift_product(ab, elems[2], scn.data, paths)
        bc = lift_product(elems[1], elems[2], scn.data, paths)
        rhs = lift_product(elems[0], bc, scn.data, paths)
        if lhs.path == rhs.path:
            phase_item(rep, f"triple {i}", lhs.gauge - rhs.gauge)
        else:
            rep.add(f"triple {i}", False, note="paths differ")
    unit = PathSymmetry.unit(d)
    a = PathSymmetry(rand_based_path(rnd, d), rand_periodic_gauge(rnd, d))
    right = lift_product(a, unit, scn.data).gauge - a.gauge
    phase_item(rep, "unit law (right)", right)
    left = lift_product(unit, a, scn.data).gauge - a.gauge
    phase_item(rep, "unit law (left)", left)
    reports = [rep]
    eq = CheckReport("lift_equivalence")
    for i in range(m):
        gamma, alpha = rand_path_pair(rnd, d)
        sub = lift_equivalence_check(
            scn.data, gamma, alpha, rand_periodic_gauge(rnd, d),
            PathSymmetry(rand_based_path(rnd, d), rand_periodic_gauge(rnd, d)),
        )
        for it in sub.items:
            eq.add(f"pair {i}: {it.label}", it.passed, it.residue, it.note)
    reports.append(eq)
    return reports


# the law delta(kappa) = 1 of the cochain kappa = (-1)^{n+1} int over Delta^n
# of the curvature, by its degree n: the line twist c and the associator omega
COCYCLE_LAWS = {2: "twist_cocycle", 3: "associator_cocycle"}


def cmd_cohomology(scn, rnd, values):
    d = scn.data.d
    n = _count_param(scn, "samples", DEFAULT_COHOMOLOGY_SAMPLES)
    F = scn.data.curvature()
    parts = F.degree + 1
    # a curvature of degree above d is the zero form: its law would test nothing
    n = n if F.degree <= d else 0
    samples = [tuple(rand_vector(rnd, d, 2, (1, 2, 3)) for _ in range(parts)) for _ in range(n)]
    return [check_coboundary(COCYCLE_LAWS[F.degree], (-1) ** parts, F, samples)[0]]


def cmd_operators(scn, rnd, values):
    flux = landau_flux(scn.data)
    if flux is None:
        raise ConfigError(
            "operators needs d = 2 and a constant curvature 2*pi*N dx1^dx2 with integer N >= 1"
        )
    flux_list = scn.params.get("flux_list", [flux])
    if not isinstance(flux_list, list) or not flux_list or not all(
        isinstance(N, int) and not isinstance(N, bool) and N > 0 for N in flux_list
    ):
        raise ConfigError(
            f"params 'flux_list' must be a nonempty list of positive integers, got {flux_list!r}"
        )
    if sum(N**4 for N in flux_list) > MAX_COUNT:
        raise ConfigError(
            f"params 'flux_list' asks for more than {MAX_COUNT} operator pairs: {flux_list!r}"
        )
    return [check_operator_cocycle(scn.data, flux, flux_list)]


def cmd_stokes_selftest(scn, rnd, values):
    count = 50 if scn is None else _count_param(scn, "samples", 50, least=1)
    rep = CheckReport("stokes")
    for d in (2, 3):
        for k in (1, 2, 3):
            bad = 0
            for _ in range(count):
                omega, simplex = stokes_sample(rnd, d, k)
                # as the cochain (-1)^k int omega, no integral is negated
                slack, _ = coboundary_slack((-1) ** k, omega, simplex, omega.d())
                if not slack.is_zero():
                    bad += 1
            rep.add(f"d={d} k={k} ({count} samples)", bad == 0)
    return [rep]


def _needs(handler, kind, connection=False):
    """Declare the scenario kind (None: no config, "any", "line", "gerbe") that
    handler needs, and whether a line must carry a connection; run() checks it.
    Kept on the function so that HANDLERS maps commands straight to functions
    that a wrapper (such as the benchmark's tracer) can rebind.
    """
    handler.kind = kind
    handler.connection = connection
    return handler


HANDLERS = {
    "check-cocycle": _needs(cmd_check_cocycle, "any"),
    "check-connection": _needs(cmd_check_connection, "any", connection=True),
    "section": _needs(cmd_section, "any", connection=True),
    "twist2": _needs(cmd_twist2, "any", connection=True),
    "twist3": _needs(cmd_twist3, "gerbe"),
    "pentagon": _needs(cmd_pentagon, "gerbe"),
    "flux": _needs(cmd_flux, "gerbe"),
    "sym-product": _needs(cmd_sym_product, "line", connection=True),
    "cohomology": _needs(cmd_cohomology, "any", connection=True),
    "operators": _needs(cmd_operators, "line", connection=True),
    "stokes-selftest": _needs(cmd_stokes_selftest, None),
}


def _check_needs(command, handler, scn):
    if handler.kind is None:
        return
    if scn is None:
        raise ConfigError(f"{command} needs --config")
    if handler.kind not in ("any", scn.kind):
        raise ConfigError(f"{command} needs a {handler.kind!r} scenario, got {scn.kind!r}")
    if handler.connection and scn.kind == "line" and scn.data.connection is None:
        raise ConfigError(f"{command} needs a line scenario with a connection")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first run and shared by every later one."""
    p = argparse.ArgumentParser(
        prog="torusgauge",
        description="verification suites for torus gauge cocycle data",
    )
    p.add_argument("command", choices=HANDLERS)
    p.add_argument("--config", help="scenario config (JSON)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument("--json", dest="json_path", help="write the report to this path")
    p.add_argument("--csv", dest="csv_path", help="write a phase table to this path")
    return p


def write_csv(path, reports):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["identity", "item", "status", "residue"])
        for rep in reports:
            for it in sorted(rep.items, key=lambda i: i.label):
                w.writerow(
                    [rep.identity, it.label, "pass" if it.passed else "fail", it.residue or ""]
                )


def run(argv=None):
    args = build_parser().parse_args(argv)
    scn = None
    try:
        if args.config:
            scn = load_scenario(args.config)
        handler = HANDLERS[args.command]
        _check_needs(args.command, handler, scn)
    except (ConfigError, TorusGaugeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = {
        "schema": 1,
        "command": args.command,
        "scenario": scn.name if scn else None,
        "seed": args.seed,
        "tolerance": DEFAULT_TOL,
    }
    values = {}
    try:
        reports = handler(scn, rng(args.seed), values)
        # a handler that returned no report checked nothing, so it fails
        status_code = 0 if reports and all(r.passed for r in reports) else 1
    except QuantizationError as exc:
        report["status"] = "error"
        report["error"] = str(exc)
        report["checks"] = []
        report["values"] = values
        _emit(report, args, [])
        return 3
    except (ConfigError, SizeLimitError) as exc:
        # a number too large to report comes from the config's own literals
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report["status"] = "pass" if status_code == 0 else "fail"
    report["checks"] = [r.to_dict() for r in reports]
    report["values"] = values
    _emit(report, args, reports)
    return status_code


def _json_text(value, indent="\n"):
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, for the
    dicts with str keys, lists, str, int, float, bool and None of a report.

    json.dumps takes its pure-Python encoder whenever an indent is asked for;
    this writer does the same walk with fewer calls.  Strings go through
    json's own ASCII escaper and floats through json.dumps, so NaN and
    Infinity print as before.
    """
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        body = ",".join([inner + _json_str(k) + ": " + _json_text(v, inner) for k, v in items])
        return "{" + body + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + ",".join([inner + _json_text(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"cannot write {type(value).__name__} in a report")


def _emit(report, args, reports):
    text = _json_text(report)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left: the exit-time flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.csv_path:
        write_csv(args.csv_path, reports)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
