"""Reports stay byte-identical: SHA-256 of (exit code, stdout) per bundled job.

Besides the bundled scenarios, two configs under tests/data carry periodic
trig terms and vectors of denominators 5 and 7, so their reports pin the
float tier: its shadows, tolerances and rendering.

The jobs run once per session, in conftest's digest_run fixture, which also
records the functions they enter for test_reachable.

A change that alters a report on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_report_digests.py --write

and says in CHANGES.md why the bytes moved.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from torusgauge.cli import run

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
COMMANDS = ("section", "twist2", "twist3", "check-connection", "flux")
SEEDS = (0, 7)
# slower commands, pinned at seed 0 only
SEED0_COMMANDS = ("pentagon", "cohomology", "check-cocycle", "sym-product", "operators")
# float-tier configs and the commands run on each, at seed 0
TIER_F = {
    "tier_f_line": ("section", "twist2", "sym-product", "cohomology"),
    "tier_f_gerbe": ("section", "twist2", "twist3", "cohomology", "pentagon"),
}


def jobs():
    runs = [(c, s) for c in COMMANDS for s in SEEDS] + [(c, 0) for c in SEED0_COMMANDS]
    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        for command, seed in runs:
            yield f"{command} {scenario.stem} seed={seed}", [
                command, "--config", str(scenario), "--seed", str(seed)
            ]
    for stem, commands in TIER_F.items():
        config = str(ROOT / "tests" / "data" / f"{stem}.json")
        for command in commands:
            yield f"{command} {stem} seed=0", [command, "--config", config, "--seed", "0"]


def digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def current_digests():
    return {name: digest(argv) for name, argv in jobs()}


def test_reports_match_recorded_digests(digest_run):
    want = json.loads(DIGESTS.read_text())
    got = digest_run[0]
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, "report bytes changed: " + ", ".join(changed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print(f"usage: {sys.argv[0]} --write", file=sys.stderr)
        sys.exit(2)
    DIGESTS.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
