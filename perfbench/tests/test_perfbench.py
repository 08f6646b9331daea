"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


def fanokit_functions() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "fanokit" or name.startswith("fanokit.")):
            for attr, obj in vars(module).items():
                if callable(obj):
                    out[(name, attr)] = obj
    return out


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run(cli, name):
    pool = worker.prepare(name, seed=5, tiny=True)
    plain = worker.measure(cli, name, pool, seconds=0.05, trace=False)
    assert plain["failed"] == 0, plain["failures"]
    assert plain["attempted"] >= len(pool[0])
    assert set(plain["metrics"]) == END_TO_END - {"setup_s", "op_p90_ms"}
    traced = worker.measure(cli, name, pool, seconds=0.05, trace=True)
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["metrics"]) == PER_LAYER
    assert traced["absent"] == []
    assert traced["round0"] == plain["round0"]


def test_per_layer_counters_follow_the_workload(cli):
    counts = {}
    for name in workloads.WORKLOADS:
        pool = worker.prepare(name, seed=7, tiny=True)
        metrics = worker.measure(cli, name, pool, seconds=0.05, trace=True)["metrics"]
        counts[name] = {k: v for k, (v, unit) in metrics.items()}
    assert counts["sweep"]["verify.instances"] == counts["sweep"]["bounds.rhs_calls"] > 0
    assert counts["sweep"]["chains.calls"] == 0
    # today's certify enumerates every windowed chain twice
    assert counts["certify-exact"]["chains.enumerations"] == 2
    assert counts["certify-mc"]["chains.enumerations"] == 0
    assert counts["certify-mc"]["chains.trials_simulated"] == 2_000
    assert counts["volume"]["relations.centers_scanned"] > 0
    assert counts["volume"]["volume_max_rel_err"] > 0
    for name in workloads.WORKLOADS:
        assert counts[name]["cli.calls"] >= 1
        assert all(counts[name][layer + ".self_s"] >= 0 for layer in tracer.LAYERS)


def _corrupting(original, edit):
    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = original(argv)
        sys.stdout.write(edit(buf.getvalue()))
        return rc
    return main


def _bump_instances(text):
    out = json.loads(text)
    out["instances"] += 1
    return json.dumps(out)


def _nudge_p_rel(text):
    out = json.loads(text)
    out["reports"]["relation-mi-observation"]["observed"] += 1e-6
    return json.dumps(out)


@pytest.mark.parametrize("name, edit", [
    ("sweep", _bump_instances),
    ("certify-exact", _nudge_p_rel),
    ("volume", lambda text: text[:-2]),
])
def test_corrupted_output_counts_as_a_failed_op(cli, monkeypatch, name, edit):
    pool = worker.prepare(name, seed=3, tiny=True)
    monkeypatch.setattr(cli, "main", _corrupting(cli.main, edit))
    tally = worker.run_rounds(cli, name, pool, rounds=1)
    assert tally.attempted == len(pool[0])
    assert tally.failed == tally.attempted


def test_rejected_arguments_are_a_nonzero_exit_not_a_crash(cli):
    rc, text, seconds, err = worker.run_op(cli, ["sweep", "--no-such-flag"])
    assert rc == 2 and text == "" and "no-such-flag" in err


def test_changed_bytes_for_the_same_op_count_as_failed(cli, monkeypatch):
    pool = worker.prepare("sweep", seed=3, tiny=True)[:1]
    calls = []

    def drifting(text):
        calls.append(1)
        return text + " " * len(calls)
    monkeypatch.setattr(cli, "main", _corrupting(cli.main, drifting))
    tally = worker.run_rounds(cli, "sweep", pool, rounds=2)
    assert tally.attempted == 2 * len(pool[0])
    assert tally.failed == len(pool[0])       # every op of the repeated round


def test_tracing_patches_every_namespace_and_restores_all(cli):
    from fanokit import bounds
    before = fanokit_functions()
    with tracer.Tracer():
        # bound at import by `from .distributions import event_probability`
        for module in ("fanokit.chains", "fanokit.bounds", "fanokit.distributions"):
            patched = sys.modules[module].event_probability
            assert patched is not before[(module, "event_probability")]
            assert patched.__wrapped__ is before[(module, "event_probability")]
        assert cli.main is not before[("fanokit.cli", "main")]
        assert bounds._kl_rhs_nats is not before[("fanokit.bounds", "_kl_rhs_nats")]
    after = fanokit_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracing_off_leaves_every_function_original(cli):
    before = fanokit_functions()
    pool = worker.prepare("certify-exact", seed=2, tiny=True)
    worker.measure(cli, "certify-exact", pool, seconds=0.05, trace=True)
    worker.measure(cli, "certify-exact", pool, seconds=0.05, trace=False)
    after = fanokit_functions()
    assert all(after[k] is before[k] for k in before)


def test_a_missing_name_is_reported_absent(monkeypatch):
    from fanokit import chains
    monkeypatch.delattr(chains, "simulate_chain")
    with tracer.Tracer() as t:
        pass
    assert t.absent == ["chains.trials_simulated"]
    assert "chains.trials_simulated" not in t.per_op(1)


def _run_py(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, names", [("0", END_TO_END - {"op_p90_ms"}),
                                          ("1", PER_LAYER)])
def test_run_py_prints_the_result_line(trace, names):
    proc = _run_py(ROOT, "--workload", "certify-mc", "--seed", "4", "--seconds", "0.5",
                   "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == names
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_py(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
