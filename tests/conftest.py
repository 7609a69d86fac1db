import random

import pytest

from torusgauge.gerbes import constant_flux_gerbe, flat_gerbe_2d
from torusgauge.magnetic import landau_line


@pytest.fixture
def landau1():
    return landau_line(1)


@pytest.fixture
def landau2():
    return landau_line(2)


@pytest.fixture
def gerbe_m1():
    return constant_flux_gerbe(1)


@pytest.fixture
def gerbe_m2():
    return constant_flux_gerbe(2)


@pytest.fixture
def gerbe_2d():
    return flat_gerbe_2d(1)


@pytest.fixture
def rnd():
    return random.Random(20240811)
