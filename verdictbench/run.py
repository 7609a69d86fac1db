"""Verdict benchmark for torusgauge: CLI verdicts per second on four workloads.

    python3 verdictbench/run.py --workload {stokes,gerbe,line,tier_f}
                                --seed N --seconds T --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every job is an in-process ``torusgauge.cli.run`` call inside a
fresh child process (one client, closed loop, numpy pinned to one thread),
and every verdict is checked against the exit code the job must give.

``--trace 0`` measures set-up time in fresh interpreters, then runs whole
rounds of the workload for at least T seconds and prints the end-to-end
metrics, with every time rescaled to a host of fixed speed by a reference
computation timed alongside it (calibrate.py).  ``--trace 1`` runs a fixed
job list twice, untraced and with the layer tracer installed, and prints the
per-layer metrics; its counts repeat exactly for a given seed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  See README.md for the workloads and what each
metric is expected to show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibrate import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".verdictbench"
DEADLINE_S = 170.0
SETUP_REPS = 9
# rounds in the fixed job list of a traced run (and in the set-up config set);
# each list holds at least 100 jobs
TRACE_ROUNDS = {"stokes": 13, "gerbe": 3, "line": 3, "tier_f": 6}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts benchmark children, each bounded by the run's overall deadline."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = child_env()
        self.t0 = perf_counter()

    def call(self, script, *args):
        remaining = DEADLINE_S - (perf_counter() - self.t0)
        if remaining <= 0:
            raise TimeoutError("benchmark deadline passed")
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *map(str, args)],
            env=self.env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=remaining,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{script} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def jobs(self, workload, seed, tag, *mode):
        out = self.workdir / f"{tag}.json"
        jobdir = self.workdir / tag
        jobdir.mkdir()
        self.call("child.py", "--workload", workload, "--seed", seed,
                  "--workdir", jobdir, "--out", out, *mode)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def setup_seconds(runner, workload, seed):
    """Median over fresh interpreters of importing the CLI and loading every
    config, each time rescaled to the nominal host."""
    from child import write_configs
    from workloads import RoundSource

    config_dir = runner.workdir / "setup"
    config_dir.mkdir()
    source = RoundSource(workload, seed)
    for _ in range(TRACE_ROUNDS[workload]):
        write_configs(str(config_dir), source.next_round()[0])
    times = []
    for _ in range(SETUP_REPS):
        elapsed, ref = map(float, runner.call("setup_probe.py", config_dir).split())
        times.append(elapsed * REF_S / ref)
    return statistics.median(times)


def end_to_end(runner, args):
    setup_s = setup_seconds(runner, args.workload, args.seed)
    res = runner.jobs(args.workload, args.seed, "timed", "--seconds", args.seconds)
    d = res["durations"]
    metrics = {
        "jobs_per_s": (len(d) / sum(d), "1/s"),
        "job_p50_ms": (statistics.median(d) * 1e3, "ms"),
        "job_p90_ms": (statistics.quantiles(d, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }
    return [res], metrics


def per_layer(runner, args):
    from tracer import layer_metrics, load

    rounds = TRACE_ROUNDS[args.workload]
    untraced = runner.jobs(args.workload, args.seed, "untraced", "--rounds", rounds)
    prefix = runner.workdir / "spans"
    traced = runner.jobs(args.workload, args.seed, "traced", "--rounds", rounds,
                         "--trace", prefix)
    metrics = layer_metrics(*load(prefix))
    runs = [untraced, traced]
    attempted = sum(r["jobs"] for r in runs)
    metrics["cli.fail_share"] = (sum(r["failed"] for r in runs) / attempted, "ratio")
    metrics["trace.overhead_share"] = (sum(traced["durations"]) / sum(untraced["durations"]) - 1.0,
                                       "ratio")
    return runs, metrics


def environment():
    import numpy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("stokes", "gerbe", "line", "tier_f"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "torusgauge" / "cli.py").is_file():
        print(f"torusgauge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        runner = Runner(workdir)
        runs, metrics = (per_layer if args.trace else end_to_end)(runner, args)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = sum(r["jobs"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for why in r["failures"]:
            print(f"failed job: {why}", file=sys.stderr)
    info = environment()
    info.update(workload=args.workload, seed=args.seed,
                jobs=[r["jobs"] for r in runs], rounds=[r["rounds"] for r in runs],
                wall_p50_ms=[statistics.median(r["walls"]) * 1e3 for r in runs],
                reference_ms=[statistics.median(r["reference_s"]) * 1e3 for r in runs])
    print("# env " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
