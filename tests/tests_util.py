from fractions import Fraction

from torusgauge.polytrig import translate
from torusgauge.reports import CheckReport, phase_item
from torusgauge.vectors import basis_vec, vneg


def rational_vec2(rnd, num=3, dens=(1, 2, 3, 4)):
    return (
        Fraction(rnd.randint(-num, num), rnd.choice(dens)),
        Fraction(rnd.randint(-num, num), rnd.choice(dens)),
    )


def rational_vec3(rnd, num=3, dens=(1, 2, 3, 4)):
    return tuple(
        Fraction(rnd.randint(-num, num), rnd.choice(dens)) for _ in range(3)
    )


def phase_is_one(theta):
    """Whether exp(i*theta) == 1, decided by the checker's own verdict path."""
    return phase_item(CheckReport("probe"), "phase", theta)


def phase_descends(theta):
    """Whether exp(i*theta) descends to the torus: each lattice step is trivial."""
    return all(
        phase_is_one(translate(theta, vneg(basis_vec(theta.dim, a))) - theta)
        for a in range(1, theta.dim + 1)
    )
