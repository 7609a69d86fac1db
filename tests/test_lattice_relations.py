"""The generator relations decide the lattice cocycle laws on all of Z^d.

check_line_cocycle and check_gerbe_cocycle decide their generator relations
when given no tuples.  Each such verdict must equal the verdict of the same
function on 200 seeded lattice tuples: pairs in {-2..2}^2 for a d = 2 line,
triples in {-1..1}^3 for a gerbe.  The configs are the bundled
scenarios, the tests/data configs, and seeded perturbations that add one term
to one component of their cocycle.  On the gerbes that pass, the section
constraint's generator pairs must likewise decide it on sampled pairs.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from torusgauge.cli import load_scenario
from torusgauge.gerbes import check_gerbe_cocycle, check_section_constraint
from torusgauge.magnetic import check_line_cocycle

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = [
    *(ROOT / "scenarios").glob("*.json"),
    *(ROOT / "tests" / "data" / name for name in (
        "junk_gerbe.json", "junk_line.json", "tier_f_gerbe.json", "tier_f_line.json",
    )),
]
PERTURBATIONS = 64
# one added term, k and m axes, c a coefficient, n an integer
TERMS = (
    "{c}*x{k}", "{c}*x{k}^2", "2*pi*{n}*x{k}", "{c}*x{k}*x{m}",
    "cos(2*pi*x{k})", "{c}*sin(2*pi*(x{k} + 1/5))", "{c}",
)
COEFFICIENTS = ("1/2", "pi", "2*pi", "3/2*pi", "1/3")

LINE_PAIRS = list(itertools.product(itertools.product(range(-2, 3), repeat=2), repeat=2))
GERBE_TRIPLES = list(itertools.product(itertools.product(range(-1, 2), repeat=3), repeat=3))


def _perturbed(doc, rnd):
    """doc with one drawn term added to one cocycle component."""
    d = doc["dimension"]
    if doc["kind"] == "line":
        key = str(rnd.randint(1, d))
    else:
        key = f"{rnd.randint(1, d)},{rnd.randint(1, d)}"
    term = rnd.choice(TERMS).format(
        c=rnd.choice(COEFFICIENTS), n=rnd.randint(1, 3), k=rnd.randint(1, d), m=rnd.randint(1, d)
    )
    cocycle = dict(doc.get("cocycle", {}))
    cocycle[key] = f"{cocycle[key]} + {term}" if key in cocycle else term
    return {**doc, "cocycle": cocycle}


def _verdicts(kind, data, rnd):
    """(relation verdict, verdict on lattice tuples) of one config's data."""
    if kind == "line":
        pairs = rnd.sample(LINE_PAIRS, 200)
        return check_line_cocycle(data).passed, check_line_cocycle(data, pairs).passed
    triples = rnd.sample(GERBE_TRIPLES, 200)
    return check_gerbe_cocycle(data).passed, check_gerbe_cocycle(data, triples).passed


def _configs(tmp_path, rnd):
    """(doc, data) of each config and of PERTURBATIONS perturbed ones."""
    docs = [json.loads(path.read_text()) for path in CONFIGS]
    docs += [_perturbed(docs[i % len(docs)], rnd) for i in range(PERTURBATIONS)]
    for n, doc in enumerate(docs):
        path = tmp_path / f"cfg{n}.json"
        path.write_text(json.dumps(doc))
        yield doc, load_scenario(path).data


def test_relations_decide_like_the_lattice_tuples(tmp_path):
    rnd = random.Random(36)
    seen = dict.fromkeys(itertools.product(("line", "gerbe"), (True, False)), 0)
    for doc, data in _configs(tmp_path, rnd):
        proved, sampled = _verdicts(doc["kind"], data, rnd)
        assert proved == sampled, doc
        seen[doc["kind"], proved] += 1
    # the set holds passing and failing data of both kinds
    assert min(seen.values()) >= 8, seen


def test_gerbe_section_generator_pairs_decide_every_pair(tmp_path):
    # once the psi-step relations hold, the d^2 generator pairs of the section
    # constraint decide it on every pair (gerbes.check_section_constraint)
    rnd = random.Random(37)
    pairs = list(itertools.product(itertools.product(range(-2, 3), repeat=3), repeat=2))
    seen = {True: 0, False: 0}
    for doc, data in _configs(tmp_path, rnd):
        if doc["kind"] != "gerbe" or not check_gerbe_cocycle(data).passed:
            continue
        v = tuple(Fraction(rnd.randint(-3, 3), rnd.choice((2, 3, 5))) for _ in range(3))
        proved = check_section_constraint(data, v)[0].passed
        assert proved == check_section_constraint(data, v, rnd.sample(pairs, 30))[0].passed, (doc, v)
        seen[proved] += 1
    assert min(seen.values()) >= 4, seen
