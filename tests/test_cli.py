"""Command-line interface: parsing, formats, exit codes, determinism."""
import argparse
import itertools
import json
import math
import os
import subprocess
import sys

import pytest

from fanokit import binary_renyi_divergence
from fanokit.cli import build_parser, main

P_JSON = '{"outcomes": [0, 1], "weights": [0.3, 0.7]}'
Q_JSON = '{"outcomes": [0, 1], "weights": [0.6, 0.4]}'


def chain_json(**fields) -> str:
    """A two-symbol certify experiment, the given fields replaced."""
    return json.dumps(dict({
        "prior": {"outcomes": [0, 1], "weights": [0.5, 0.5]},
        "channel": {"inputs": [0, 1], "outputs": [0, 1], "rows": [[0.9, 0.1], [0.2, 0.8]]},
        "estimator": {"kind": "ml"}, "relation": {"kind": "equality"}}, **fields))


def run_cli(*argv, env_extra=None):
    """Spawn the CLI in a fresh interpreter; returns (exit, stdout, stderr)."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "fanokit.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestDivergence:
    def test_table_output(self, capsys):
        code = main(["divergence", P_JSON, Q_JSON, "--alpha", "2"])
        out = capsys.readouterr().out
        assert code == 0
        value = float(out.split("value:")[1].strip())
        assert value == binary_renyi_divergence(0.3, 0.6, 2.0)

    def test_json_output(self, capsys):
        code = main(["divergence", P_JSON, Q_JSON, "--alpha", "kl",
                     "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert code == 0
        assert obj["alpha"] == "kl"
        assert obj["value"] > 0.0

    def test_base_flag(self, capsys):
        main(["divergence", P_JSON, Q_JSON, "--alpha", "2", "--base", "2",
              "--format", "json"])
        bits = json.loads(capsys.readouterr().out)["value"]
        assert bits == pytest.approx(
            binary_renyi_divergence(0.3, 0.6, 2.0) / math.log(2), abs=1e-12
        )


class TestBound:
    def test_holding_bound_exits_zero(self, capsys):
        code = main(["bound",
                     '{"divergence": 0.0, "p_min": 0.0, "p_max": 0.5, "p": 0.5}'])
        out = capsys.readouterr().out
        assert code == 0
        assert "holds:            True" in out

    def test_violated_bound_exits_one(self, capsys):
        code = main(["bound",
                     '{"divergence": 0.0, "p_min": 0.0, "p_max": 0.5, "p": 0.9}'])
        assert code == 1
        assert "holds:            False" in capsys.readouterr().out

    def test_json_report_wrapper(self, capsys):
        main(["bound",
              '{"divergence": 0.0, "p_min": 0.0, "p_max": 0.5, "p": 0.5}',
              "--format", "json"])
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"reports"}
        report = obj["reports"]["report"]
        assert report["mode"] == "check" and report["bound_value"] == 1.0

    def test_alpha_flag_overrides(self, capsys):
        code = main(["bound",
                     '{"divergence": 0.2, "p_min": 0.0, "p_max": 0.5, "p": 0.3}',
                     "--alpha", "0.5", "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)["reports"]["report"]
        assert "power-sum factor" in report["notes"]

    def test_mi_distance_kind(self, capsys):
        code = main(["bound",
                     '{"kind": "mi-distance", "mi": 0.0, "size": 4, '
                     '"ball_max": 1, "p_t": 0.6}', "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)["reports"]["report"]
        assert report["observed"] == 0.6

    def test_continuous_kind(self, capsys):
        code = main(["bound",
                     '{"kind": "continuous", "mi": 0.0, "p_t": 0.6, '
                     '"domain": {"box": [[0, 1]], "metric": "abs", "t": 0.1}}',
                     "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)["reports"]["report"]
        assert report["bound_value"] == pytest.approx(0.5693234419266069,
                                                      abs=1e-12)

    def test_renyi_kind_needs_an_order(self, capsys):
        body = ('{"kind": "renyi", "divergence": 0.2, "p_min": 0, "p_max": 0.5, '
                '"p": 0.3}')
        for command in ("bound", "solve"):
            assert main([command, body]) == 2
            assert capsys.readouterr().err.startswith("error: alpha:")
        assert main(["bound", body, "--alpha", "0.5"]) == 0

    def test_unknown_kind_is_a_usage_error(self):
        code, _, err = run_cli("bound", '{"kind": "nope"}')
        assert code == 2 and err.startswith("error:")

    def test_missing_fields(self):
        code, _, err = run_cli("bound", '{"p_min": 0.0, "p_max": 0.5}')
        assert code == 2 and "divergence" in err

    @pytest.mark.parametrize("command, body, field", [
        ("bound", '{"divergence": 0.1, "p_min": 0, "p_max": 0.5, "p": true}', "p"),
        ("bound", '{"divergence": 0.1, "p_min": 0, "p_max": 0.5, "observed": true}',
         "observed"),
        ("bound", '{"divergence": 0.1, "p_min": true, "p_max": 0.5, "p": 0.3}', "p_min"),
        ("solve", '{"divergence": 0.1, "p_min": 0, "p_max": true}', "p_max"),
        ("bound", '{"kind": "mi-distance", "mi": 0.1, "size": 8, "ball_max": 2, '
                  '"p_t": true}', "p_t"),
        ("bound", '{"divergence": true, "p_min": 0, "p_max": 0.5, "p": 0.3}', "divergence"),
        ("bound", '{"kind": "renyi", "alpha": true, "divergence": 0.1, "p_min": 0, '
                  '"p_max": 0.5, "p": 0.3}', "alpha"),
        ("divergence", '{"outcomes": [0, 1], "weights": [true, false]}', "weights"),
        ("certify", chain_json(channel={"inputs": [0, 1], "outputs": [0, 1],
                                        "rows": [[True, False], [0.5, 0.5]]}), "rows"),
        ("certify", chain_json(relation={"kind": "distance", "metric": "table", "t": 0.5,
                                         "table": [[0, 1, True]]}), "table"),
        ("certify", chain_json(relation={"kind": "distance", "metric": "abs", "t": True}), "t"),
        ("certify", chain_json(base=True), "base"),
        ("volume", '{"box": [[0, true]], "metric": "abs", "t": 0.5}', "box"),
        ("volume", '{"box": [[0, 1]], "metric": "abs", "t": true}', "t"),
    ])
    def test_a_json_bool_is_not_a_number(self, command, body, field, capsys):
        # float(true) would read it as 1.0; divergence reads a second
        # distribution, Q_JSON
        assert main([command, body] + [Q_JSON] * (command == "divergence")) == 2
        assert capsys.readouterr().err == f"error: {field}: expected a number, got True\n"


class TestSolve:
    def test_solve_reports_the_supremum(self, capsys):
        code = main(["solve", '{"divergence": 0.0, "p_min": 0.0, "p_max": 0.5}',
                     "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)["reports"]["report"]
        assert report["feasible_sup"] == pytest.approx(0.7729078047806518,
                                                       abs=5e-10)

    @pytest.mark.parametrize("alpha", ["kl", "2"])
    def test_infinite_divergence_still_reads_the_base(self, alpha, capsys):
        # as bound does: the base is checked before the vacuous report
        assert main(["solve", '{"divergence": "inf", "p_min": 0, "p_max": 0.5}',
                     "--alpha", alpha, "--base", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: base: ")

    def test_solve_with_order_override(self, capsys):
        main(["solve", '{"divergence": 0.0, "p_min": 0.0, "p_max": 0.5}',
              "--alpha", "0.5", "--format", "json"])
        report = json.loads(capsys.readouterr().out)["reports"]["report"]
        assert report["feasible_sup"] == pytest.approx(8.0 / 9.0, abs=5e-10)


class TestCertify:
    EXPERIMENT = {
        "prior": {"outcomes": [0, 1, 2], "weights": [1 / 3, 1 / 3, 1 / 3]},
        "channel": {"inputs": [0, 1, 2], "outputs": [0, 1, 2],
                    "rows": [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1],
                             [0.2, 0.2, 0.6]]},
        "estimator": {"kind": "ml"},
        "relation": {"kind": "equality"},
    }

    def test_exact_run_from_a_file(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.EXPERIMENT))
        code = main(["certify", str(path), "--format", "json"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert "relation-mi-reconstruction" in reports
        assert "entropy-version" in reports

    def test_monte_carlo_run(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.EXPERIMENT))
        code = main(["certify", str(path), "--trials", "4000", "--seed", "3",
                     "--format", "json"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert set(reports) == {"samples-mi-per-use", "samples-worst-pair"}

    def test_missing_map_value_is_the_same_error_on_both_paths(self, capsys):
        exp = dict(self.EXPERIMENT, estimator={
            "kind": "map", "pairs": [[0, 0], [1, 1], [2, 7]], "outputs": [0, 1, 2]})
        for extra in ([], ["--trials", "200"]):
            assert main(["certify", json.dumps(exp)] + extra) == 2
            assert capsys.readouterr().err == (
                "error: estimator: value 7 missing from output_labels\n")

    def test_exact_ml_chain_at_n50(self, capsys):
        # 4 * 4^50 blocks, but 4 * C(53, 3) = 93,704 types
        exp = dict(json.loads(chain4(1, "ml", "equality")), n=50)
        assert main(["certify", json.dumps(exp), "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert "relation-mi-observation" in reports

    def test_csv_lists_every_report(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.EXPERIMENT))
        main(["certify", str(path), "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("instance-id,")
        assert len(lines) >= 5

    @pytest.mark.parametrize("trials", [[], ["--trials", "2000"]], ids=["exact", "mc"])
    @pytest.mark.parametrize("tolerance, verdict", [("0", 0), ("-1e-12", 0), ("-1", 1)])
    def test_a_tight_tolerance_gets_a_verdict_not_an_error(self, tolerance, verdict, trials,
                                                           capsys):
        # the uniform prior puts the product-coupling mass one ulp outside
        # its window [1/3, 1/3], and at n = 1 the chain inequalities hold
        # with equality: rounding, not an inconsistent chain
        code = main(["certify", json.dumps(self.EXPERIMENT), "--tolerance=" + tolerance]
                    + trials)
        assert (code, capsys.readouterr().err) == (verdict, "")


class TestSweep:
    def test_json_summary(self, capsys):
        code = main(["sweep", "--k", "2", "--denominator", "4",
                     "--alphas", "0.5,2", "--format", "json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["instances"] == 120 and obj["violations"] == 0
        assert "elapsed_ms" not in obj

    def test_timing_flag_adds_the_clock(self, capsys):
        main(["sweep", "--k", "2", "--denominator", "4", "--alphas", "0.5,2",
              "--format", "json", "--timing"])
        assert "elapsed_ms" in json.loads(capsys.readouterr().out)

    def test_thread_env_is_validated(self):
        code, _, err = run_cli("sweep", "--k", "2", "--denominator", "4",
                               env_extra={"FANO_THREADS": "abc"})
        assert code == 2 and "FANO_THREADS" in err

    def test_byte_identical_output_across_thread_settings(self):
        outs = set()
        for threads in ("1", "4"):
            code, out, _ = run_cli(
                "sweep", "--k", "2,3", "--denominator", "4",
                "--alphas", "0.5,2", "--format", "json",
                env_extra={"FANO_THREADS": threads},
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1


class TestVolume:
    def test_exact_json(self, capsys):
        code = main(["volume", '{"box": [[0, 1]], "metric": "abs", "t": 0.1}',
                     "--method", "exact", "--format", "json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"error": 0.0, "method": "exact",
                       "value": 0.20000000000000001}

    def test_auto_reports_the_method_that_ran(self, capsys):
        disc = '{"box": [[0, 1], [0, 1]], "metric": "l2", "t": 0.2}'
        for domain, ran in (('{"box": [[0, 1]], "metric": "abs", "t": 0.1}', "exact"),
                            (disc, "monte-carlo")):
            assert main(["volume", domain, "--samples", "16", "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["method"] == ran
        main(["bound", '{"kind": "continuous", "mi": 0.1, "p_t": 0.9, "samples": 16, '
                       '"domain": %s}' % disc, "--format", "json"])
        notes = json.loads(capsys.readouterr().out)["reports"]["report"]["notes"]
        assert "(monte-carlo)" in notes

    def test_out_file_is_written_atomically(self, tmp_path, capsys):
        target = tmp_path / "vol.json"
        code = main(["volume", '{"box": [[0, 1]], "metric": "abs", "t": 0.1}',
                     "--method", "exact", "--format", "json",
                     "--out", str(target)])
        assert code == 0
        on_disk = json.loads(target.read_text())
        assert on_disk["value"] == 0.2
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []


class TestErrors:
    def test_unreadable_input_path(self):
        code, _, err = run_cli("bound", "no-such-file.json")
        assert code == 2
        assert err.startswith("error:")

    def test_fractional_counts_are_refused_not_truncated(self, capsys):
        body = '{"kind": "mi-distance", "mi": 0.3, "size": %s, "ball_max": %s, "p_t": 0.5}'
        assert main(["bound", body % (6.9, 2)]) == 2
        assert capsys.readouterr().err.startswith("error: size: must be a whole number")
        assert main(["bound", body % (6, 2.5)]) == 2
        assert capsys.readouterr().err.startswith("error: ball_max: must be a whole number")
        assert main(["bound", body % ("6.0", "2.0")]) == 0
        # the continuous bound's counts: a fraction was truncated and true read as 1
        domain = '"domain": {"box": [[0, 1]], "metric": "abs", "t": 0.1}'
        for command in ("bound", "solve"):
            for field, value in (("resolution", "16.9"), ("samples", "true"),
                                 ("samples", "2.5"), ("resolution", '"64"')):
                assert main([command, '{"kind": "continuous", "mi": 0.1, "p_t": 0.5, %s, "%s": %s}'
                             % (domain, field, value)]) == 2
                assert capsys.readouterr().err.startswith(
                    "error: %s: must be a whole number" % field)
        assert main(["solve", '{"kind": "continuous", "mi": 0.1, %s, "method": "grid", '
                     '"samples": 64.0, "resolution": 16.0}' % domain]) == 0

    def test_sweep_outcome_count_zero_names_the_field(self, capsys):
        assert main(["sweep", "--k", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: outcome_counts: ")

    def test_abs_on_vector_labels_names_the_metric(self, capsys):
        labels = [[0, 0], [1, 1]]
        exp = {"prior": {"outcomes": labels, "weights": [0.5, 0.5]},
               "channel": {"inputs": labels, "outputs": [0, 1],
                           "rows": [[0.9, 0.1], [0.2, 0.8]]},
               "estimator": {"kind": "ml"},
               "relation": {"kind": "distance", "metric": "abs", "t": 0.5}}
        assert main(["certify", json.dumps(exp)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: metric: 'abs' needs scalar labels, got ")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--k", "2", "--denominator", "2"],
        ["bound", '{"kind": "kl", "divergence": 0.5, "p_min": 0, "p_max": 0.1, "p": 0.05}'],
        ["certify", json.dumps(TestCertify.EXPERIMENT)],
    ], ids=lambda argv: argv[0])
    def test_a_nan_tolerance_is_refused_and_inf_is_not(self, argv, capsys):
        # NaN compares false with everything, so it would pass or fail
        # every check; an infinite tolerance is a deliberate choice
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tolerance", "nan"])
        assert exc.value.code == 2
        assert "argument --tolerance: tolerance: " in capsys.readouterr().err
        assert main(argv + ["--tolerance", "inf"]) == 0

    @pytest.mark.parametrize("argv", [
        ["divergence", '{"outcomes": [0, 1], "weights": [1e308, 1e308]}', Q_JSON],
        ["certify", json.dumps(dict(TestCertify.EXPERIMENT, prior={
            "outcomes": [0, 1, 2], "weights": [1e308, 1e308, 1e308]}))],
    ], ids=lambda argv: argv[0])
    def test_weights_whose_sum_overflows_are_a_usage_error(self, argv):
        # finite weights pass the finiteness check; their fsum passes the
        # doubles, which must not read as a violated bound (exit 1)
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == "error: distribution: weights sum to inf, expected 1.0\n"

    def test_window_errors_surface_as_usage_errors(self):
        code, _, err = run_cli(
            "bound", '{"divergence": 0.1, "p_min": 0.5, "p_max": 0.5, "p": 0.5}'
        )
        assert code == 2 and "error:" in err


class TestFlags:
    # each subcommand takes --format, --out and the shared flags it reads
    ACCEPTED = {
        "divergence": {"--alpha", "--base", "--format", "--out"},
        "bound": {"--alpha", "--pmin", "--pmax", "--base", "--format", "--out",
                  "--tolerance", "--seed"},
        "solve": {"--alpha", "--pmin", "--pmax", "--base", "--format", "--out",
                  "--seed"},
        "certify": {"--trials", "--n", "--base", "--format", "--out", "--tolerance",
                    "--seed"},
        "sweep": {"--k", "--denominator", "--alphas", "--timing", "--format", "--out",
                  "--tolerance"},
        "volume": {"--method", "--samples", "--resolution", "--format", "--out",
                   "--seed"},
    }
    # accepted and ignored before each subcommand declared only what it reads
    REMOVED = [
        ["divergence", P_JSON, Q_JSON, "--tolerance", "0.5"],
        ["divergence", P_JSON, Q_JSON, "--seed", "3"],
        ["solve", '{"divergence": 0.1, "p_min": 0.0, "p_max": 0.5}', "--tolerance", "0.5"],
        ["sweep", "--k", "2", "--denominator", "2", "--base", "2"],
        ["sweep", "--k", "2", "--denominator", "2", "--seed", "3"],
        ["volume", '{"box": [[0.0, 1.0]], "metric": "abs", "t": 0.1}', "--base", "2"],
        ["volume", '{"box": [[0.0, 1.0]], "metric": "abs", "t": 0.1}', "--tolerance",
         "0.5"],
    ]

    def test_each_subcommand_declares_the_flags_it_reads(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        accepted = {name: {flag for action in p._actions for flag in action.option_strings}
                    - {"-h", "--help"} for name, p in sub.choices.items()}
        assert accepted == self.ACCEPTED
        shared = {"--base", "--format", "--out", "--tolerance", "--seed"}
        assert sum(len(flags & shared) for flags in accepted.values()) == 23

    @pytest.mark.parametrize("argv", REMOVED, ids=lambda argv: argv[0] + argv[-2])
    def test_a_removed_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: %s %s" % (argv[-2], argv[-1]) in err


class TestRoundedZero:
    # order-alpha bounds whose exponent cancels below double precision: the
    # float bound is 0, the 60-digit one is positive and holds
    @pytest.mark.parametrize("argv", [
        ["sweep", "--alphas", "32"],
        ["sweep", "--k", "2,3", "--denominator", "16", "--alphas", "16"],
        ["bound", '{"kind": "renyi", "alpha": 32, "divergence": 0.33216477234300257, '
                  '"p_min": 0.375, "p_max": 0.375, "p": 0.125}'],
    ], ids=["sweep-a32", "sweep-d16-a16", "bound-a32"])
    def test_an_undecidable_verdict_is_an_error_not_a_violation(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: alpha: ")
        assert "double precision cannot decide this instance" in err

    def test_the_sweep_names_the_instance(self, capsys):
        assert main(["sweep", "--alphas", "32"]) == 2
        assert "instance k2-p1.7-q3.5-e1-tight-a32.0:" in capsys.readouterr().err

    def test_a_zero_bound_that_fails_past_rounding_is_still_violated(self, capsys):
        # a = 0 exactly (no divergence, no entropy, p_min = 0): raising it by
        # its rounding bound changes nothing, so p = 1 is a plain violation
        body = ('{"kind": "renyi", "alpha": 32, "divergence": 0.0, "p_min": 0.0, '
                '"p_max": 0.5, "p": 1.0}')
        assert main(["bound", body, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)["reports"]["report"]
        assert report["bound_value"] == 0.0


class TestCertifySampleCount:
    @pytest.mark.parametrize("n", [2.7, True, "3"])
    def test_a_fractional_or_non_numeric_n_is_refused(self, n, capsys):
        assert main(["certify", json.dumps(dict(TestCertify.EXPERIMENT, n=n))]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: n: must be a whole number")

    def test_an_integral_float_n_runs(self, capsys):
        exp = json.dumps(dict(TestCertify.EXPERIMENT, n=2.0))
        assert main(["certify", exp, "--format", "json"]) == 0
        want = json.loads(capsys.readouterr().out)
        assert main(["certify", json.dumps(dict(TestCertify.EXPERIMENT, n=2)),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == want


# -- golden stdout -------------------------------------------------------------
# Every subcommand in every format, pinned byte for byte to the files in
# tests/golden/ (named <case>.<format>).

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

EXACT_EXPERIMENT = json.dumps(TestCertify.EXPERIMENT)
DISTANCE_LABELS = [0, 1, 3, 6]
DISTANCE_EXPERIMENT = json.dumps({
    "prior": {"outcomes": DISTANCE_LABELS, "weights": [0.25] * 4},
    "channel": {"inputs": DISTANCE_LABELS, "outputs": [0, 1, 2, 3],
                "rows": [[0.7, 0.1, 0.1, 0.1], [0.2, 0.6, 0.1, 0.1],
                         [0.1, 0.2, 0.5, 0.2], [0.05, 0.05, 0.2, 0.7]]},
    "estimator": {"kind": "map", "outputs": DISTANCE_LABELS, "pairs": [
        [[a, b], DISTANCE_LABELS[max(a, b)]] for a in range(4) for b in range(4)]},
    "relation": {"kind": "distance", "metric": "abs", "t": 1.0},
    "n": 2,
})
CHANNEL_EXPERIMENT = json.dumps(dict(TestCertify.EXPERIMENT, estimator={
    "kind": "channel", "channel": {
        "inputs": [0, 1, 2], "outputs": [0, 1, 2],
        "rows": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]}}))
# row 0 gives output 2 no mass, so the worst pairwise divergence is infinite
INF_BETA_EXPERIMENT = json.dumps(dict(TestCertify.EXPERIMENT, n=2, channel={
    "inputs": [0, 1, 2], "outputs": [0, 1, 2],
    "rows": [[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]}))
# one source label: the occupancy window is saturated and no ball-count ratio
# exists, so only the entropy-version and distance bounds apply
ONE_LABEL_EXPERIMENT = json.dumps({
    "prior": {"outcomes": [0], "weights": [1]},
    "channel": {"inputs": [0], "outputs": [0, 1], "rows": [[0.7, 0.3]]},
    "estimator": {"kind": "ml"},
    "relation": {"kind": "distance", "metric": "abs", "t": 1},
})
ROWS4 = [[0.7, 0.1, 0.1, 0.1], [0.2, 0.6, 0.1, 0.1],
         [0.1, 0.2, 0.5, 0.2], [0.05, 0.05, 0.2, 0.7]]


def chain4(n, estimator, relation):
    """A 4-symbol chain with n uses; map and channel estimators are fixed
    functions of the block, so the JSON stays deterministic at any n."""
    blocks = [list(b) for b in itertools.product(range(4), repeat=n)]
    if relation == "distance":
        labels, weights = DISTANCE_LABELS, [0.25] * 4
        rel = {"kind": "distance", "metric": "abs", "t": 1.0}
    else:
        labels, weights = [0, 1, 2, 3], [0.4, 0.3, 0.2, 0.1]
        rel = {"kind": "equality"}
    est = {"kind": estimator}
    if estimator == "map":
        est.update(outputs=labels, pairs=[[b, labels[(3 * sum(b) + b[0]) % 4]]
                                          for b in blocks])
    elif estimator == "channel":
        est["channel"] = {"inputs": blocks, "outputs": labels,
                          "rows": [ROWS4[(sum(b) + b[-1]) % 4] for b in blocks]}
    return json.dumps({
        "prior": {"outcomes": labels, "weights": weights},
        "channel": {"inputs": labels, "outputs": [0, 1, 2, 3], "rows": ROWS4},
        "estimator": est, "relation": rel, "n": n})


UNIT_INTERVAL = '{"box": [[0, 1]], "metric": "abs", "t": 0.1}'
UNIT_DISC = '{"box": [[0, 1], [0, 1]], "metric": "l2", "t": 0.2}'

# case -> (argv without --format, exit code)
GOLDEN_CASES = {
    "divergence": (["divergence", P_JSON, Q_JSON, "--alpha", "2"], 0),
    "divergence-base2": (["divergence", P_JSON, Q_JSON, "--base", "2"], 0),
    "bound-kl": (["bound", '{"divergence": 0.05, "p_min": 0.0, "p_max": 0.5, '
                           '"p": 0.4}'], 0),
    "bound-kl-violated": (["bound", '{"divergence": 0.0, "p_min": 0.0, '
                                    '"p_max": 0.5, "p": 0.9}'], 1),
    "bound-renyi": (["bound", '{"kind": "renyi", "alpha": 0.5, "divergence": 0.2, '
                              '"p_min": 0, "p_max": 0.5, "p": 0.3}'], 0),
    "bound-mi-distance": (["bound", '{"kind": "mi-distance", "mi": 0.3, "size": 6, '
                                    '"ball_max": 2, "p_t": 0.5}'], 0),
    "bound-continuous": (["bound", '{"kind": "continuous", "mi": 0.25, "p_t": 0.5, '
                                   '"domain": %s}' % UNIT_INTERVAL], 0),
    "solve-kl": (["solve", '{"divergence": 0.05, "p_min": 0.0, "p_max": 0.5}'], 0),
    "solve-renyi-base2": (["solve", '{"kind": "renyi", "alpha": 2, "divergence": 0.1, '
                                    '"p_min": 0.1, "p_max": 0.4}', "--base", "2"], 0),
    "solve-continuous-grid": (["solve", '{"kind": "continuous", "mi": 0.1, '
                                        '"variant": "entropy", "method": "grid", '
                                        '"resolution": 16, "domain": %s}' % UNIT_DISC],
                              0),
    "certify-exact": (["certify", EXACT_EXPERIMENT, "--n", "2"], 0),
    "certify-exact-base2": (["certify", EXACT_EXPERIMENT, "--base", "2"], 0),
    "certify-exact-distance": (["certify", DISTANCE_EXPERIMENT], 0),
    "certify-exact-ml-n6": (["certify", chain4(6, "ml", "equality")], 0),
    "certify-exact-ml-n6-distance": (["certify", chain4(6, "ml", "distance")], 0),
    "certify-exact-map-n4": (["certify", chain4(4, "map", "equality")], 0),
    "certify-exact-channel-n3": (["certify", chain4(3, "channel", "distance")], 0),
    # one channel row per block: 4^6 rows to resolve
    "certify-exact-channel-n6": (["certify", chain4(6, "channel", "equality")], 0),
    "certify-mc": (["certify", EXACT_EXPERIMENT, "--trials", "4000", "--seed", "3"], 0),
    "certify-mc-map": (["certify", DISTANCE_EXPERIMENT, "--trials", "3000",
                        "--seed", "1"], 0),
    "certify-mc-channel": (["certify", CHANNEL_EXPERIMENT, "--trials", "2000"], 0),
    "certify-exact-inf-beta": (["certify", INF_BETA_EXPERIMENT], 0),
    "certify-mc-inf-beta": (["certify", INF_BETA_EXPERIMENT, "--trials", "3000",
                             "--seed", "1"], 0),
    "certify-exact-one-label": (["certify", ONE_LABEL_EXPERIMENT], 0),
    "sweep": (["sweep", "--k", "2,3", "--denominator", "4", "--alphas", "0.5,2"], 0),
    "sweep-empty": (["sweep", "--k", "2", "--denominator", "1"], 0),
    "volume-grid": (["volume", UNIT_DISC, "--method", "grid", "--resolution", "16"], 0),
    "volume-auto": (["volume", UNIT_INTERVAL], 0),
    "volume-auto-2d": (["volume", UNIT_DISC, "--samples", "64", "--seed", "2"], 0),
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_stdout(case, fmt, capsys):
    argv, code = GOLDEN_CASES[case]
    assert main(argv + ["--format", fmt]) == code
    with open(os.path.join(GOLDEN, "%s.%s" % (case, fmt)), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_golden_argvs_read_the_same_twice_in_one_process(capsys):
    # one parser serves every call in a process: a second pass over every
    # golden argv, in reverse order, reads the goldens' bytes and exit codes
    runs = [(case, fmt) for case in sorted(GOLDEN_CASES) for fmt in ("table", "json", "csv")]
    for case, fmt in runs + runs[::-1]:
        argv, code = GOLDEN_CASES[case]
        assert main(argv + ["--format", fmt]) == code, (case, fmt)
        with open(os.path.join(GOLDEN, "%s.%s" % (case, fmt)), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read(), (case, fmt)


# (argv, exit code): help texts and argparse's own usage errors
HELP_AND_USAGE = [
    ([], 2), (["--help"], 0), (["sweep", "--help"], 0), (["certify", "-h"], 0),
    (["sweep", "--no-such-flag"], 2), (["volume"], 2), (["nope"], 2),
    (["sweep", "--tolerance", "nan"], 2), (["sweep", "--denominator", "x"], 2),
    (["volume", "{}", "--method", "fast"], 2),
]

CALL_TWICE = """
import contextlib, io, json, sys
from fanokit.cli import build_parser, main

def run(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            call(argv)
        except SystemExit as exc:
            return [exc.code, out.getvalue(), err.getvalue()]

argvs = json.loads(sys.argv[1])
first = [run(main, argv) for argv in argvs]
later = [run(main, argv) for argv in argvs]
fresh = [run(build_parser().parse_args, argv) for argv in argvs]
print(json.dumps([first, later, fresh]))
"""


def test_help_and_usage_errors_read_the_same_on_first_and_later_calls():
    # a fresh interpreter, so the first call is the one that builds the parser
    argvs = [argv for argv, _ in HELP_AND_USAGE]
    proc = subprocess.run([sys.executable, "-c", CALL_TWICE, json.dumps(argvs)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, COLUMNS="80"))
    first, later, fresh = json.loads(proc.stdout)
    assert first == later == fresh
    for (argv, code), (got, out, err) in zip(HELP_AND_USAGE, first):
        assert got == code, argv
        assert (out.startswith("usage: fano") and err == "") if code == 0 else (
            out == "" and err.startswith("usage: fano") and "error: " in err), argv
