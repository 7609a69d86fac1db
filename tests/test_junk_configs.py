"""Two junk configs: data that satisfies none of the paper's identities.

tests/data/junk_gerbe.json and junk_line.json take their cocycle, connection
and curving from unrelated polynomial and trig terms.  The commands that read
the lattice data reject them: check-cocycle, check-connection, section and
twist3 fail (exit 1) and flux refuses a non-integer period (exit 3).

pentagon, cohomology, twist2 and sym-product are kernel self-checks today:
they compare two sides of Stokes' theorem or of path additivity, which agree
for any form, so they pass on junk.  ROADMAP item 1 adds the descent items
that make them fail here; each of them is a strict xfail that asserts
exit 1, so that change must turn them into plain tests.
"""

import json
from pathlib import Path

import pytest

from torusgauge.cli import run

DATA = Path(__file__).resolve().parent / "data"

REJECTED = [
    ("junk_gerbe", "check-cocycle", 1, "fail"),
    ("junk_gerbe", "check-connection", 1, "fail"),
    ("junk_gerbe", "section", 1, "fail"),
    ("junk_gerbe", "twist3", 1, "fail"),
    ("junk_gerbe", "flux", 3, "error"),
    ("junk_line", "check-cocycle", 1, "fail"),
    ("junk_line", "check-connection", 1, "fail"),
    ("junk_line", "section", 1, "fail"),
]
SELF_CHECKS = [
    ("junk_gerbe", "pentagon"),
    ("junk_gerbe", "cohomology"),
    ("junk_gerbe", "twist2"),
    ("junk_line", "cohomology"),
    ("junk_line", "twist2"),
    ("junk_line", "sym-product"),
]


def _run(tmp_path, stem, command):
    """(exit code, JSON report) of command on the junk config stem at seed 0."""
    out = tmp_path / "report.json"
    code = run([command, "--config", str(DATA / f"{stem}.json"), "--seed", "0", "--json", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("stem,command,code,status", REJECTED)
def test_commands_that_read_the_lattice_data_reject_junk(tmp_path, capsys, stem, command, code, status):
    got, report = _run(tmp_path, stem, command)
    capsys.readouterr()
    assert (got, report["status"]) == (code, status)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a Stokes or path-additivity self-check passes on any data until descent items land",
)
@pytest.mark.parametrize("stem,command", SELF_CHECKS)
def test_kernel_self_checks_reject_junk(tmp_path, capsys, stem, command):
    got, _report = _run(tmp_path, stem, command)
    capsys.readouterr()
    assert got == 1
