"""One workload's jobs in one fresh process: a closed loop with one client.

Each job is an in-process call ``torusgauge.cli.run([command, "--config",
path, "--seed", s])`` whose exit code and report are checked against the
job's expected verdict.  Rounds are generated from the workload seed and
written to disk between jobs, outside the job timers.

    python3 child.py --workload W --seed N --workdir DIR --out RESULT.json
                     (--seconds T | --rounds R) [--trace PREFIX]

``--seconds`` runs whole rounds until T seconds have passed and at least
MIN_JOBS jobs are done; ``--rounds`` runs a fixed job list.  ``--trace``
installs the layer tracer and dumps its spans to PREFIX.* at exit.  Between
jobs a ``Calibrator`` samples the host's speed; the result holds each job's
wall time and that time rescaled to the nominal host (see calibrate.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import traceback
from time import perf_counter

from calibrate import Calibrator

MIN_JOBS = 100
# job seeds are base + job index; warm-up seeds sit far above any job index
WARMUP_SEED_OFFSET = 10**9
STATUS = {0: "pass", 1: "fail", 3: "error"}


def verdict_error(code, text, expected):
    """None if the exit code and report match the expected verdict, else why not."""
    if code != expected:
        return f"exit code {code}, expected {expected}"
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    if report.get("status") != STATUS[expected]:
        return f"report status {report.get('status')!r} for exit code {code}"
    if expected in (0, 1):
        items = [it for chk in report["checks"] for it in chk["items"]]
        if not items:
            return "report has no check items"
        failed = sum(it["status"] != "pass" for it in items)
        if (expected == 0) != (failed == 0):
            return f"{failed} failed items for exit code {code}"
    return None


def run_job(cli, command, path, seed, expected):
    """(start, wall seconds, failure message or None) for one CLI verdict."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command, "--config", path, "--seed", str(seed)])
    except SystemExit as exc:
        return t0, perf_counter() - t0, f"SystemExit({exc.code})"
    except Exception:  # a raising job is a failed job, not a dead benchmark
        return t0, perf_counter() - t0, traceback.format_exc(limit=3)
    dt = perf_counter() - t0
    return t0, dt, verdict_error(code, out.getvalue(), expected)


def write_configs(workdir, configs):
    paths = {}
    for name, doc in configs.items():
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--rounds", type=int)
    p.add_argument("--trace")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from torusgauge import cli
    from workloads import RoundSource

    source = RoundSource(args.workload, args.seed)
    base = random.Random(f"job-seeds:{args.workload}:{args.seed}").randrange(2**30)
    calibrator = Calibrator()
    starts, walls, failures = [], [], []

    configs, jobs = source.next_round()
    paths = write_configs(args.workdir, configs)
    warm = {}
    for command, name, expected in jobs:
        warm.setdefault(command, (name, expected))
    for i, (command, (name, expected)) in enumerate(sorted(warm.items())):
        calibrator.tick()
        run_job(cli, command, paths[name], base + WARMUP_SEED_OFFSET + i, expected)

    index = 0
    rounds = 0
    t_start = perf_counter()
    while True:
        for command, name, expected in jobs:
            calibrator.tick()
            if tracer is not None:
                tracer.job = index
                tracer.enabled = True
            t0, dt, why = run_job(cli, command, paths[name], base + index, expected)
            if tracer is not None:
                tracer.enabled = False
            starts.append(t0)
            walls.append(dt)
            if why is not None:
                failures.append(f"{command} {name} seed={base + index}: {why}")
            index += 1
        rounds += 1
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif perf_counter() - t_start >= args.seconds and index >= MIN_JOBS:
            break
        configs, jobs = source.next_round()
        paths = write_configs(args.workdir, configs)

    calibrator.tick()
    if tracer is not None:
        tracer.dump(args.trace)
    result = {
        "jobs": index,
        "rounds": rounds,
        "failed": len(failures),
        "failures": failures[:10],
        "walls": walls,
        "durations": [dt * calibrator.factor(t0 + dt / 2) for t0, dt in zip(starts, walls)],
        "reference_s": calibrator.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
