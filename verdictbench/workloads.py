"""Scenario configs and job rounds for each workload, generated from a seed.

A workload is a fixed *round*: an ordered list of (command, config slot,
expected exit code) triples.  The round's shape -- its length and command mix
-- is the same for every seed; the seed only changes the data inside the
random config slots and the vectors in every config's params.  Each round
gets its own configs, so repeated work across rounds is limited to what the
data really shares (the bundled models recur in every round; their vectors
do not).  The program only ever sees the generated JSON configs.

Expected exit codes follow the CLI contract: 0 for conforming data, 1 for a
corrupted control on a command that detects the corruption, 3 for ``flux``
on a gerbe with half-integral flux.  Inputs that hit the known CLI
tracebacks (missing connection, negative sample counts, non-object
configs) are never generated.
"""

from __future__ import annotations

import random
from fractions import Fraction

from torusgauge.expr import print_expr
from torusgauge.forms import Form
from torusgauge.gerbes import GerbeData, constant_flux_gerbe
from torusgauge.magnetic import LineData, landau_line
from torusgauge.polytrig import PolyTrig
from torusgauge.sampling import (
    rand_gerbe_data,
    rand_int_vector,
    rand_line_data,
    rand_scalar,
    rand_vector,
)
from torusgauge.scalar import Scalar

GERBE_COMMANDS = (
    "pentagon",
    "cohomology",
    "twist2",
    "twist3",
    "section",
    "check-cocycle",
    "check-connection",
    "flux",
)
LINE_COMMANDS = (
    "sym-product",
    "check-cocycle",
    "cohomology",
    "section",
    "twist2",
    "check-connection",
)
TIER_F_LINE_COMMANDS = ("section", "twist2", "sym-product", "cohomology")
TIER_F_GERBE_COMMANDS = ("section", "twist2", "twist3", "cohomology", "pentagon")

# Commands that detect each corruption (exit 1); the control runs on no other.
LINE_CONTROL_COMMANDS = ("check-connection", "section")
GERBE_CONTROL_COMMANDS = ("check-connection", "twist3")
# half_flux_gerbe: flux is rejected (exit 3); these identities hold for any
# curving and still pass.
HALF_FLUX_COMMANDS = {"flux": 3, "pentagon": 0, "cohomology": 0, "twist3": 0,
                      "check-connection": 0}

STOKES_JOBS_PER_ROUND = 8
RANDOM_GERBES = 3
RANDOM_LINES = 3
OPERATOR_FLUXES = (1, 2, 3)
TIER_F_LINES = 2
TIER_F_GERBES = 2


def _ax(idx):
    return ",".join(str(i + 1) for i in idx)


def line_doc(name, line, params):
    return {
        "schema": 1,
        "name": name,
        "dimension": line.d,
        "kind": "line",
        "cocycle": {str(a): print_expr(f) for a, f in sorted(line.generators.items())},
        "connection": {_ax(i): print_expr(f) for i, f in sorted(line.connection.comps.items())}
        or {"1": "0"},
        "params": params,
    }


def gerbe_doc(name, gerbe, params):
    return {
        "schema": 1,
        "name": name,
        "dimension": gerbe.d,
        "kind": "gerbe",
        "cocycle": {f"{a},{b}": print_expr(f)
                    for (a, b), f in sorted(gerbe.pair_exponents.items())},
        "connection": {
            str(a): {_ax(i): print_expr(f) for i, f in sorted(form.comps.items())}
            for a, form in sorted(gerbe.gen_connections.items())
        },
        "curving": {_ax(i): print_expr(f) for i, f in sorted(gerbe.curving.comps.items())},
        "params": params,
    }


def _vectors(rnd, d, count, dens):
    return [[str(x) for x in rand_vector(rnd, d, num=3, dens=dens)] for _ in range(count)]


def _periodic_fn(rnd, d):
    """One trig term with an integer frequency: descends to the torus."""
    k = rand_int_vector(rnd, d, -1, 1)
    if not any(k):
        k = (1,) + (0,) * (d - 1)
    maker = PolyTrig.cos_freq if rnd.random() < 0.5 else PolyTrig.sin_freq
    return maker(d, k, rand_scalar(rnd))


def _periodic_form(rnd, d, degree):
    if degree == 0:
        return Form.from_scalar(_periodic_fn(rnd, d))
    if degree == 1:
        return Form.one_form(d, {a: _periodic_fn(rnd, d) for a in range(1, d + 1)})
    return Form.two_form(d, {(a, b): _periodic_fn(rnd, d)
                             for a in range(1, d + 1) for b in range(a + 1, d + 1)})


def corrupt_line(line):
    """Add 2*pi*x1*x2 dx2 to A: the curvature no longer descends to the torus."""
    bad = Form.one_form(2, {2: PolyTrig.monomial(2, (1, 1), Scalar.exact(2, 1))})
    return LineData(line.d, line.generators, line.connection + bad)


def corrupt_gerbe(gerbe):
    """Add 2*pi*x3^2 dx1^dx2 to B: H = dB no longer descends to the torus."""
    bad = Form.two_form(3, {(1, 2): PolyTrig.monomial(3, (0, 0, 2), Scalar.exact(2, 1))})
    return GerbeData(gerbe.d, gerbe.pair_exponents, gerbe.gen_connections, gerbe.curving + bad)


# -- rounds --------------------------------------------------------------------
#
# Each round function draws one round of configs from rnd and returns a list
# of (slot, doc, [(command, expected exit code), ...]).


def _gerbe_params(rnd):
    return {"samples": 4, "vectors": _vectors(rnd, 3, 3, (1, 2, 3, 4))}


def _line_params(rnd):
    return {"samples": 4, "equivalence_samples": 2, "range": 2,
            "vectors": _vectors(rnd, 2, 3, (1, 2, 3, 4))}


def _with_vector_off_axis(params):
    # the corrupted-line section check fails only for vectors with v2 != 0
    params["vectors"][0][1] = "1/2"
    return params


def _stokes_round(rnd):
    doc = line_doc("stokes", rand_line_data(rnd), {"samples": 2})
    return [("stokes", doc, [("stokes-selftest", 0)] * STOKES_JOBS_PER_ROUND)]


def _gerbe_round(rnd):
    slots = [
        ("m1", constant_flux_gerbe(1), [(c, 0) for c in GERBE_COMMANDS]),
        ("m2", constant_flux_gerbe(2), [(c, 0) for c in GERBE_COMMANDS]),
        ("half", constant_flux_gerbe(Fraction(1, 2)), sorted(HALF_FLUX_COMMANDS.items())),
    ]
    for i in range(RANDOM_GERBES):
        slots.append((f"rand{i}", rand_gerbe_data(rnd), [(c, 0) for c in GERBE_COMMANDS]))
    slots.append(("control", corrupt_gerbe(rand_gerbe_data(rnd)),
                  [(c, 1) for c in GERBE_CONTROL_COMMANDS]))
    return [(slot, gerbe_doc(slot, data, _gerbe_params(rnd)), cmds) for slot, data, cmds in slots]


def _line_round(rnd):
    slots = [
        ("landau1", landau_line(1), [(c, 0) for c in LINE_COMMANDS]),
        ("landau2", landau_line(2), [(c, 0) for c in LINE_COMMANDS]),
        ("zero", LineData(2, {}, Form.zero(2, 1)), [(c, 0) for c in LINE_COMMANDS]),
    ]
    for i in range(RANDOM_LINES):
        slots.append((f"rand{i}", rand_line_data(rnd), [(c, 0) for c in LINE_COMMANDS]))
    out = [(slot, line_doc(slot, data, _line_params(rnd)), cmds) for slot, data, cmds in slots]
    out.append(("control", line_doc("control", corrupt_line(rand_line_data(rnd)),
                                     _with_vector_off_axis(_line_params(rnd))),
                [(c, 1) for c in LINE_CONTROL_COMMANDS]))
    # operators checks the flux-N model; its config states that N
    for n in OPERATOR_FLUXES:
        out.append((f"operators{n}", line_doc(f"landau{n}", landau_line(n), {"flux_list": [n]}),
                    [("operators", 0)]))
    return out


def _tier_f_round(rnd):
    out = []
    for i in range(TIER_F_LINES):
        line = rand_line_data(rnd)
        line = LineData(2, line.generators, line.connection + _periodic_form(rnd, 2, 1))
        params = {"samples": 2, "equivalence_samples": 1, "vectors": _vectors(rnd, 2, 3, (5, 7))}
        out.append((f"line{i}", line_doc(f"line{i}", line, params),
                    [(c, 0) for c in TIER_F_LINE_COMMANDS]))
    for i in range(TIER_F_GERBES):
        g = rand_gerbe_data(rnd)
        conns = {a: g.gen_connection(a) + _periodic_form(rnd, 3, 0).d() for a in (1, 2, 3)}
        g = GerbeData(3, g.pair_exponents, conns, g.curving + _periodic_form(rnd, 3, 2))
        params = {"samples": 2, "vectors": _vectors(rnd, 3, 3, (5, 7))}
        out.append((f"gerbe{i}", gerbe_doc(f"gerbe{i}", g, params),
                    [(c, 0) for c in TIER_F_GERBE_COMMANDS]))
    return out


_ROUNDS = {"stokes": _stokes_round, "gerbe": _gerbe_round, "line": _line_round,
           "tier_f": _tier_f_round}


class RoundSource:
    """Deterministic stream of rounds for one workload and seed."""

    def __init__(self, workload, seed):
        self._make = _ROUNDS[workload]
        self._rnd = random.Random(f"{workload}:{seed}")
        self.index = 0

    def next_round(self):
        """({config name: doc}, [(command, config name, expected), ...])."""
        configs, jobs = {}, []
        for slot, doc, commands in self._make(self._rnd):
            name = f"r{self.index}-{slot}"
            configs[name] = doc
            jobs.extend((cmd, name, code) for cmd, code in commands)
        self.index += 1
        return configs, jobs
