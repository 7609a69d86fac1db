"""The checker's chained identities against the exponent-valued oracle.

Each sampled identity integrates the boundary() of one simplex in one kernel
call: delta of the cochain of a signed simplex is, cell for cell, the signed
boundary of the next simplex (see cohomology).  All four are decided by
cohomology.check_coboundary.  Here the slack it hands to phase_item is
compared, as a PolyTrig with ==, with the same slack summed from separate
integrals and translate calls by the oracle coboundary of tests_util (on the
float tier, float coefficients within DEFAULT_TOL), and the interior it
returns, c or omega, with two_cocycle or associator:

  * the line twist, delta(c);
  * the associator, delta(omega);
  * the pentagon, delta(Pi) - omega;
  * the projective relation, delta(theta) - c.

The data are the bundled scenarios, the rand_* generators and the float-tier
configs under tests/data.  A mutant AffineSimplex.boundary that flips the
sign of one face must fail the comparison.
"""

from pathlib import Path

import pytest

from torusgauge import cohomology
from torusgauge.cli import load_scenario
from torusgauge.cohomology import GroupCochain
from torusgauge.forms import AffineSimplex
from torusgauge.gerbes import associator, composition_phase
from torusgauge.magnetic import translation_section, two_cocycle
from torusgauge.sampling import rand_gerbe_data, rand_line_data, rand_vector, rng
from torusgauge.scalar import DEFAULT_TOL
from tests_util import (
    coboundary,
    cocycle_law,
    is_exact,
    pentagon_relation,
    projective_relation,
)

ROOT = Path(__file__).resolve().parent.parent


def _config(path):
    return lambda: load_scenario(str(ROOT / path)).data


# name -> (data builder, denominators of the sampled vectors)
LINES = {
    "landau_n1": (_config("scenarios/landau_n1.json"), (1, 2, 3)),
    "landau_n2": (_config("scenarios/landau_n2.json"), (1, 2, 3)),
    "rand_line_data": (lambda: rand_line_data(rng(11)), (1, 2, 3)),
    "tier_f_line": (_config("tests/data/tier_f_line.json"), (5, 7)),
}
GERBES = {
    "constant_flux_m1": (_config("scenarios/constant_flux_m1.json"), (1, 2, 3)),
    "half_flux_gerbe": (_config("scenarios/half_flux_gerbe.json"), (1, 2, 3)),
    "rand_gerbe_data": (lambda: rand_gerbe_data(rng(12)), (1, 2, 3)),
    "tier_f_gerbe": (_config("tests/data/tier_f_gerbe.json"), (5, 7)),
}


def _samples(d, parts, dens, count=4, seed=5):
    rnd = rng(seed)
    return [tuple(rand_vector(rnd, d, 3, dens) for _ in range(parts)) for _ in range(count)]


def _record_slacks(monkeypatch):
    """The slacks cohomology.check_coboundary hands to phase_item, in order."""
    slacks = []
    decide = cohomology.phase_item

    def record(report, label, slack):
        slacks.append(slack)
        return decide(report, label, slack)

    monkeypatch.setattr(cohomology, "phase_item", record)
    return slacks


# Each runner returns the recorded slacks, the oracle's slacks, and the
# interiors the check returned beside the cochain they must equal with ==.


def _run_twist(monkeypatch, line, samples):
    got = _record_slacks(monkeypatch)
    cocycle_law(line, samples)
    oracle = coboundary(GroupCochain(2, line.d, lambda args: two_cocycle(line, *args)))
    return got, [oracle(*args) for args in samples], []


def _run_associator(monkeypatch, gerbe, samples):
    got = _record_slacks(monkeypatch)
    cocycle_law(gerbe, samples)
    oracle = coboundary(GroupCochain(3, gerbe.d, lambda args: associator(gerbe, *args)))
    return got, [oracle(*args) for args in samples], []


def _run_pentagon(monkeypatch, gerbe, samples):
    got = _record_slacks(monkeypatch)
    _, omegas = pentagon_relation(gerbe, samples)
    oracle = coboundary(GroupCochain(2, gerbe.d, lambda args: composition_phase(gerbe, *args)))
    want = [associator(gerbe, *args) for args in samples]
    return got, [oracle(*args) - om for args, om in zip(samples, want)], list(zip(omegas, want))


def _run_projective(monkeypatch, line, samples):
    got = _record_slacks(monkeypatch)
    cs = [projective_relation(line, v, vp)[1] for v, vp in samples]
    oracle = coboundary(GroupCochain(1, line.d, lambda args: translation_section(line, *args)))
    want = [two_cocycle(line, *args) for args in samples]
    return got, [oracle(*args) - c for args, c in zip(samples, want)], list(zip(cs, want))


# identity -> (data table, tuple length, runner, faces in its chain)
IDENTITIES = {
    "twist_cocycle": (LINES, 3, _run_twist, 4),
    "associator_cocycle": (GERBES, 4, _run_associator, 5),
    "pentagon": (GERBES, 3, _run_pentagon, 4),
    "projective": (LINES, 2, _run_projective, 3),
}
CASES = [
    (identity, name)
    for identity, (table, _, _, _) in IDENTITIES.items()
    for name in table
]


@pytest.mark.parametrize("identity,name", CASES)
def test_chained_slack_equals_the_separate_integrals(monkeypatch, identity, name):
    table, parts, runner, _ = IDENTITIES[identity]
    build, dens = table[name]
    data = build()
    got, want, interiors = runner(monkeypatch, data, _samples(data.d, parts, dens))
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert _agree(g, w), (g, w)
    if identity in ("pentagon", "projective"):
        # the sign rule: the interior returned is the next cochain itself
        assert len(interiors) == 4 and all(i == c for i, c in interiors)


def _agree(got, want):
    """got == want; where the float tier enters, the chain sums its float
    coefficients in another order, so those agree within DEFAULT_TOL."""
    if got == want:
        return True
    return not (is_exact(got) and is_exact(want)) and (got - want).is_zero(DEFAULT_TOL)


def _flipping(index):
    """A mutant AffineSimplex.boundary: the sign of face index flipped."""
    real = AffineSimplex.boundary

    def mutant(simplex):
        faces = real(simplex)
        face = faces[index]
        faces[index] = AffineSimplex(face.top, face.edges, sign=-face.sign)
        return faces

    return mutant


MUTANTS = [
    (identity, index)
    for identity, (_, _, _, cells) in IDENTITIES.items()
    for index in range(cells)
]


@pytest.mark.parametrize("identity,index", MUTANTS)
def test_a_flipped_cell_fails_the_comparison(monkeypatch, identity, index):
    table, parts, runner, _ = IDENTITIES[identity]
    build, dens = next(iter(table.values()))
    data = build()
    monkeypatch.setattr(AffineSimplex, "boundary", _flipping(index))
    got, want, _ = runner(monkeypatch, data, _samples(data.d, parts, dens))
    assert len(got) == len(want) == 4
    assert not all(_agree(g, w) for g, w in zip(got, want))
