import random

import pytest

from torusgauge import cli
from torusgauge.gerbes import constant_flux_gerbe, flat_gerbe_2d
from torusgauge.magnetic import landau_line
from tests_util import code_calls


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


@pytest.fixture(scope="session")
def digest_run():
    """One run of the report digest jobs: ({job name: digest}, the Counter of
    code objects entered).  The parser cache is cleared first, so that the
    run enters build_parser however many runs came before it."""
    from test_report_digests import current_digests

    cli.build_parser.cache_clear()
    with code_calls() as calls:
        digests = current_digests()
    return digests, calls
