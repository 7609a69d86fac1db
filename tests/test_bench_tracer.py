"""The benchmark's layer tracer must still find and wrap every name it traces.

It runs in a child interpreter because installing it rebinds functions across
the whole package.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_with_full_coverage():
    code = (
        "from tracer import Tracer\n"
        "Tracer().install()\n"
        "from torusgauge import cli\n"
        "assert all(hasattr(h, '__wrapped__') for h in cli.HANDLERS.values())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "verdictbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
