"""fanokit benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, certify-exact, certify-mc, volume (see workloads.py). The
load is a closed loop from one process and one thread. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Every line before the last
is for people; the last line is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, printing no result, when the
run cannot be made (for instance when src/fanokit is missing).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("FANO_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 1.0:
        raise RunError("out of time")
    return left


def run_child(args: list, started: float) -> dict:
    """Runs worker.py to completion and returns its last stdout line as JSON."""
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining(started))
    except subprocess.TimeoutExpired:
        raise RunError("worker %s timed out" % args[0]) from None
    if proc.returncode != 0:
        raise RunError("worker %s exited with %d:\n%s"
                       % (args[0], proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(workload: str, seed: int, started: float) -> float:
    """Seconds from process start until fanokit.cli is imported and the inputs
    are generated, in a fresh interpreter. perf_counter is the system-wide
    monotonic clock, so the child's reading compares with ours."""
    begin = time.perf_counter()
    ready = run_child(["setup", "--workload", workload, "--seed", str(seed)], started)
    return ready["ready"] - begin


def measure(args) -> dict:
    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = ([time_setup(args.workload, args.seed, started) for _ in range(SETUP_REPEATS)]
              if not args.trace else [])
    result = run_child(["run"] + common + ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace)], started)
    replay = run_child(["replay"] + common, started)["round0"]
    mismatched = sum(a != b for a, b in zip(result["round0"], replay))
    if mismatched:
        result["failed"] += mismatched
        result["failures"].append("%d round-0 ops gave other stdout bytes in a "
                                  "fresh process" % mismatched)
    if setups:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    result["digest"] = hashlib.sha256("".join(replay).encode()).hexdigest()
    return result


def report(args, result: dict) -> None:
    print("fanokit benchmark: workload=%s seed=%d seconds=%s trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print("stdout digest: %s" % result["digest"])
    attempted, failed = result["attempted"], result["failed"]
    print("ops: %d attempted, %d failed, fail_ratio %.6g; items are %s"
          % (attempted, failed, failed / max(attempted, 1), WORKLOADS[args.workload].item))
    for note in result["failures"]:
        print("  failure: " + note)
    for name in result.get("absent", []):
        print("  absent: %s (its fanokit function no longer exists)" % name)
    if args.workload == "volume":
        print("volume_max_rel_err: %.6g (largest |estimate - exact| / exact)"
              % result["volume_max_rel_err"])
    for name, (value, unit) in sorted(result["metrics"].items()):
        print("  %-28s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result["metrics"].items())},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = measure(args)
    except RunError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
