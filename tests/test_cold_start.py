"""A CLI verdict starts cold without numpy or dataclasses, operators included.

It runs in a child interpreter, since this process has long imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LANDAU = str(ROOT / "scenarios" / "landau_n1.json")

CHILD = f"""
import contextlib, io, sys
from torusgauge import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["check-cocycle", "--config", {LANDAU!r}])
assert code == 0, code
heavy = [m for m in ("numpy", "dataclasses") if m in sys.modules]
assert not heavy, heavy
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["operators", "--config", {LANDAU!r}])
assert code == 0, code
heavy = [m for m in ("numpy", "dataclasses") if m in sys.modules]
assert not heavy, heavy
"""


def test_cli_import_and_a_verdict_load_no_numpy_or_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
