"""Benchmark worker: runs one workload in this process and prints one JSON
line with its measurements.

    python3 perfbench/worker.py run    --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py setup  --workload NAME --seed N
    python3 perfbench/worker.py replay --workload NAME --seed N

`run` is the closed loop: one op at a time, each a `fanokit.cli.main(argv)`
call with stdout captured, for whole rounds until S seconds have passed.
`setup` only imports fanokit.cli and generates the inputs, then prints the
clock reading (run.py times it from process start). `replay` runs round 0
again in a fresh process and prints the stdout digest of each op, for the
byte-identity check. run.py starts all three with the thread variables pinned.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
POOL_ROUNDS = 32      # distinct rounds generated in set-up; longer runs repeat them
MIN_OPS_FOR_P90 = 100
MAX_FAILURE_NOTES = 5


def import_cli():
    """fanokit.cli from this checkout's src/, never an installed copy."""
    from fanokit import cli
    expected = (ROOT / "src" / "fanokit").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        raise ImportError("fanokit imported from %s, expected %s" % (cli.__file__, expected))
    return cli


def make_pool(name: str, seed: int, rounds: int = POOL_ROUNDS, tiny: bool = False) -> list:
    make_round = workloads.WORKLOADS[name].make_round
    return [make_round(seed, r, tiny) for r in range(rounds)]


def run_op(cli, argv: list) -> tuple:
    """(exit code, stdout text, seconds, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting argv: a nonzero exit
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaping exception is a failed op, not a crash
        return None, out.getvalue(), time.perf_counter() - start, repr(exc)
    return rc, out.getvalue(), time.perf_counter() - start, err.getvalue().strip()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Tally:
    """What a pass over rounds measured and checked."""

    latencies: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    max_rel_err: float = 0.0
    digests: dict = field(default_factory=dict)   # (round, index) -> first digest

    def fail(self, where: str, reason: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append("%s: %s" % (where, reason))


def run_rounds(cli, name: str, pool: list, seconds: float | None = None,
               rounds: int | None = None, tally: Tally | None = None) -> Tally:
    """Closed loop over whole rounds of the pool (cycling if the run outlasts
    it), until `seconds` of wall time have passed or `rounds` are done. Only
    the CLI call is timed; checks run between calls."""
    check = workloads.WORKLOADS[name].check
    tally = tally or Tally()
    started = time.perf_counter()
    r = 0
    while (rounds is not None and r < rounds) or (
            rounds is None and time.perf_counter() - started < seconds):
        for i, op in enumerate(pool[r % len(pool)]):
            where = "round %d op %d (%s)" % (r, i, op.argv[0])
            rc, text, elapsed, err = run_op(cli, op.argv)
            tally.attempted += 1
            tally.latencies.append(elapsed)
            sha = digest(text)
            if tally.digests.setdefault((r % len(pool), i), sha) != sha:
                tally.fail(where, "stdout differs from an earlier run of the same op")
                continue
            if rc is None:
                tally.fail(where, "exception " + err)
                continue
            try:
                verdict = check(op, rc, text)
            except Exception as exc:  # output the check cannot read: a failed op
                verdict = workloads.Verdict(False, "unreadable output (%r)" % exc)
            if not verdict.ok:
                tally.fail(where, verdict.reason + (" [%s]" % err if err else ""))
                continue
            tally.items += verdict.items
            if verdict.rel_err is not None:
                tally.max_rel_err = max(tally.max_rel_err, verdict.rel_err)
        r += 1
    return tally


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(tally: Tally) -> dict:
    busy = sum(tally.latencies)
    done = tally.attempted - tally.failed
    metrics = {
        "ops_per_s": (done / busy, "1/s"),
        "items_per_s": (tally.items / busy, "items/s"),
        "op_p50_ms": (_percentile(tally.latencies, 0.5) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if len(tally.latencies) >= MIN_OPS_FOR_P90:
        metrics["op_p90_ms"] = (_percentile(tally.latencies, 0.9) * 1e3, "ms")
    return metrics


def environment() -> dict:
    import numpy
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
                caches[parts[0].lower()] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "fanokit").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches_bytes": caches,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "FANO_THREADS")},
        "src_lines": src_lines,
    }


def prepare(name: str, seed: int, tiny: bool = False) -> list:
    """Generates the pool and its independent references (set-up, untimed)."""
    pool = make_pool(name, seed, tiny=tiny)
    for ops in pool:
        workloads.WORKLOADS[name].add_references(ops)
    return pool


def measure(cli, name: str, pool: list, seconds: float, trace: bool) -> dict:
    """The timed part of a run. Untraced: the end-to-end metrics. Traced: an
    untraced pass for half the time, then the same rounds traced; the per-layer
    metrics come from the traced pass and the overhead from the two."""
    run_op(cli, pool[0][0].argv)     # warm-up: first-call costs are not the workload's
    if not trace:
        tally = run_rounds(cli, name, pool, seconds=seconds)
        result = {"metrics": end_to_end(tally)}
    else:
        tally = run_rounds(cli, name, pool, seconds=seconds / 2.0)
        rounds = len(tally.latencies) // len(pool[0])
        plain = sum(tally.latencies)
        ops_before = len(tally.latencies)
        with Tracer() as tracer:
            run_rounds(cli, name, pool, rounds=rounds, tally=tally)
        traced_ops = len(tally.latencies) - ops_before
        traced = sum(tally.latencies[ops_before:])
        metrics = tracer.per_op(traced_ops)
        metrics["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio")
        metrics["volume_max_rel_err"] = (tally.max_rel_err, "ratio")
        result = {"metrics": metrics, "absent": tracer.absent}
    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "volume_max_rel_err": tally.max_rel_err,
        "round0": [tally.digests[(0, i)] for i in range(len(pool[0]))],
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup", "replay"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    if args.mode == "setup":
        make_pool(args.workload, args.seed)
        print(json.dumps({"ready": time.perf_counter()}))
        return 0
    if args.mode == "replay":
        digests = [digest(run_op(cli, op.argv)[1])
                   for op in make_pool(args.workload, args.seed, rounds=1)[0]]
        print(json.dumps({"round0": digests}))
        return 0
    pool = prepare(args.workload, args.seed)
    result = measure(cli, args.workload, pool, args.seconds, bool(args.trace))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
