"""The package namespace: every exported name, and which layers load when."""
import json
import os
import subprocess
import sys

import pytest

import fanokit

# every name the package exported before its chain and sweep layers loaded
# on first use
EXPORTED = (
    "BoundInputs", "BoundReport", "check_kl_diffusion", "check_renyi_diffusion",
    "continuous_fano_bound", "distance_fano_bound", "entropy_version_bound",
    "fano_relation_bound", "mi_distance_bound", "reports_to_csv", "solve_diffusion",
    "ChainSummary", "ChannelEstimator", "Experiment", "MapEstimator", "MLEstimator",
    "certify", "compute_beta", "enumerate_chain", "independent_samples_bound",
    "random_experiment", "simulate_chain",
    "Channel", "FiniteDistribution", "JointDistribution", "event_probability",
    "joint_from_prior_and_channel", "make_distribution", "marginals",
    "product_channel", "product_of_marginals", "uniform_distribution",
    "binary_entropy", "binary_kl", "binary_renyi_divergence", "binary_renyi_entropy",
    "conditional_entropy", "entropy", "kl_divergence", "mutual_information",
    "renyi_divergence",
    "ContinuousDomain", "DistanceRelation", "Relation", "RelationBounds",
    "ball_counts", "equality_relation", "metric_from_name", "relation_bounds",
    "relation_from_pairs", "resolve_volume_method", "sup_ball_volume", "table_metric",
    "SweepSpec", "SweepSummary", "sweep_diffusion", "verify_limit", "verify_power_sum",
    "verify_support_bound",
    "FanoError",
)
LAZY_MODULES = ("fanokit.chains", "fanokit.verify")


def test_every_exported_name_resolves():
    for name in EXPORTED:
        scope = {}
        exec("from fanokit import %s" % name, scope)
        obj = getattr(fanokit, name)
        assert scope[name] is obj, name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert name in dir(fanokit), name


def test_lazy_names_are_looked_up_in_their_module_every_time(monkeypatch):
    # the package namespace stores none of them, so patching the module (as
    # a tracer does, and undoes) is what every later lookup sees
    lazy = {name for name in EXPORTED if getattr(fanokit, name).__module__ in LAZY_MODULES}
    assert len(lazy) == 17 and not lazy & set(vars(fanokit))
    monkeypatch.setattr(sys.modules["fanokit.chains"], "certify", "patched")
    assert fanokit.certify == "patched"
    monkeypatch.undo()
    assert fanokit.certify is sys.modules["fanokit.chains"].certify


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fanokit.no_such_name


LOADED = """
import contextlib, io, json, sys
from fanokit import cli

def loaded():
    return sorted(m for m in %r if m in sys.modules)

steps = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["volume", '{"box": [[0, 1]], "metric": "abs", "t": 0.1}']) == 0
    assert cli.main(["bound", '{"divergence": 0.05, "p_min": 0.0, "p_max": 0.5, '
                              '"p": 0.4}']) == 0
    steps.append(loaded())
    assert cli.main(["sweep", "--k", "2", "--denominator", "4"]) == 0
    steps.append(loaded())
print(json.dumps(steps))
""" % (LAZY_MODULES,)


def test_scalar_subcommands_load_neither_the_chain_nor_the_sweep_layer():
    proc = subprocess.run([sys.executable, "-c", LOADED], capture_output=True, text=True,
                          check=True, env=dict(os.environ))
    after_import, after_volume_and_bound, after_sweep = json.loads(proc.stdout)
    assert after_import == after_volume_and_bound == []
    assert after_sweep == ["fanokit.verify"]
