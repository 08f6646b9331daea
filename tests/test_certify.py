"""certify against a reference made of the public bound functions, each
called on the chain summary's joint and recomputing what it needs, and the
relation evaluated once per (x, xhat) pair."""
import dataclasses
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import philox
from fanokit import bounds, jsonio
from fanokit.bounds import (
    BoundInputs,
    check_kl_diffusion,
    distance_fano_bound,
    entropy_version_bound,
    fano_relation_bound,
    mi_distance_bound,
    reports_to_csv,
)
from fanokit.chains import (
    ChannelEstimator,
    Experiment,
    MapEstimator,
    MLEstimator,
    certify,
    enumerate_chain,
    independent_samples_bound,
    simulate_chain,
)
from fanokit.distributions import (
    Channel,
    FiniteDistribution,
    JointDistribution,
    _mass,
    event_probability,
    joint_from_prior_and_channel,
    product_of_marginals,
)
from fanokit.divergences import _column_fsums, _entropy_nats, entropy, mutual_information
from fanokit.errors import (
    BadPminPmax,
    DegenerateDenominator,
    FanoError,
    NonUniformPrior,
    RangeMismatch,
    SumNotOne,
)
from fanokit.relations import (
    DistanceRelation,
    Relation,
    RelationBounds,
    _relation_tables,
    _table_bounds,
    ball_counts,
    equality_relation,
    metric_from_name,
    relation_bounds,
    relation_from_pairs,
    table_metric,
)


def reference_certify(exp, trials=None, seed=0, tolerance=1e-9):
    """certify's reports from the public bound functions, one by one on the
    summary's joint, each evaluating the relation and the information
    quantities it reads for itself."""
    exact = trials is None
    summary = enumerate_chain(exp) if exact else simulate_chain(exp, trials, seed)
    base, n, rel = exp.base, exp.n_samples, exp.relation
    joint = summary.joint_xxhat
    rb = relation_bounds(rel, exp.prior, joint.col_outcomes)
    slack_window = tolerance + 3.0 * summary.mc_stderr
    mc_note = "" if exact else (
        "observed probability is a Monte Carlo estimate "
        "(stderr %.17g); judged within 3 standard errors" % summary.mc_stderr)
    reports = []

    def add(report, instance_id):
        reports.append(dataclasses.replace(report, instance_id=instance_id))

    def kl(divergence):
        rep = check_kl_diffusion(summary.p_rel, BoundInputs(
            divergence=divergence, alpha="kl", p_min=rb.p_min, p_max=rb.p_max,
            base=base), slack_window)
        return dataclasses.replace(rep, notes="; ".join(filter(None, (rep.notes, mc_note))))

    try:
        bounds._check_window(rb.p_min, rb.p_max)
    except BadPminPmax:
        pass
    else:
        if exact:
            add(fano_relation_bound(joint, rel, rb, observation_mi=summary.mi_xy,
                                    base=base, tolerance=tolerance),
                "relation-mi-reconstruction")
            add(kl(summary.mi_xy), "relation-mi-observation")
            add(independent_samples_bound(exp.prior, exp.channel, n, exp.estimator, rel,
                                          bounds=rb, base=base, tolerance=tolerance),
                "samples-mi-per-use")
        else:
            single_use = joint_from_prior_and_channel(exp.prior, exp.channel)
            add(kl(n * mutual_information(single_use, base)), "samples-mi-per-use")
        add(kl(n * summary.beta), "samples-worst-pair")
    if not exact:
        return reports
    add(entropy_version_bound(joint, rel, rb, base=base), "entropy-version")
    if isinstance(rel, DistanceRelation):
        try:
            add(distance_fano_bound(joint, rel.rho, rel.t, base=base), "distance")
        except (NonUniformPrior, RangeMismatch):
            return reports
        _, n_max = ball_counts(rel.rho, rel.t, joint.row_outcomes)
        p_exceed = event_probability(joint, lambda x, xhat: rel.rho(x, xhat) > rel.t)
        try:
            report = mi_distance_bound(summary.mi_xy, len(joint.row_outcomes), n_max,
                                       p_t=p_exceed, mode="check", base=base,
                                       tolerance=tolerance)
        except DegenerateDenominator:
            return reports
        add(report, "distance-mi")
    return reports


def output_bytes(reports):
    """What `fano certify` prints for these reports, as JSON and as CSV."""
    return (jsonio.dumps({"reports": {r.instance_id or "report": r.to_json_obj()
                                      for r in reports}}),
            reports_to_csv(reports))


def outcome_of(run):
    """What a call returns, or the type and message of what it raised."""
    try:
        return run()
    except FanoError as exc:
        return type(exc), str(exc)


def outcome(run):
    """A run's output bytes, or the type and message of what it raised."""
    return outcome_of(lambda: output_bytes(run()))


SCALAR_LABELS = (0, 1, 3, 6)
VECTOR_LABELS = ((0, 0), (1, 0), (0, 2), (3, 1))


def random_chain(seed, nx, ny, n, estimator, relation, uniform, zeros, base):
    """A chain on nx source labels, with ny channel outputs and n uses; zeros
    puts zero weights in the prior and the channel rows, uniform makes the
    prior uniform."""
    rng = philox(seed)
    labels = VECTOR_LABELS[:nx] if relation == "l1-vector" else SCALAR_LABELS[:nx]
    if uniform:
        prior = np.full(nx, 1.0 / nx)
    else:
        prior = rng.dirichlet(np.ones(nx))
        if zeros:
            prior[rng.integers(nx)] = 0.0
            prior /= prior.sum()
    rows = rng.dirichlet(np.ones(ny), size=nx)
    if zeros:
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[np.arange(nx), rng.integers(ny, size=nx)] += 1.0
        rows /= rows.sum(axis=1, keepdims=True)
    channel = Channel(labels, tuple(range(ny)), rows)
    blocks = list(itertools.product(range(ny), repeat=n))
    if estimator == "ml":
        est = MLEstimator()
    elif estimator == "map":
        est = MapEstimator({b: labels[j] for b, j in
                            zip(blocks, rng.integers(nx, size=len(blocks)).tolist())}, labels)
    else:
        inputs = tuple(range(ny)) if n == 1 else tuple(blocks)
        est = ChannelEstimator(Channel(inputs, labels,
                                       rng.dirichlet(np.ones(nx), size=len(inputs))))
    t = float(rng.choice([0.0, 1.0, 2.5]))
    if relation == "equality":
        rel = equality_relation()
    elif relation in ("abs", "l1", "l1-vector"):
        rel = DistanceRelation(metric_from_name("abs" if relation == "abs" else "l1"), t)
    elif relation in ("table", "table-gap"):
        # a table with a gap has no entry for one pair, so the metric raises there
        entries = [(x, y, float(rng.integers(0, 4))) for x, y in itertools.combinations(labels, 2)]
        if relation == "table-gap":
            del entries[rng.integers(len(entries))]
        rel = DistanceRelation(table_metric(entries), t)
    else:
        pairs = [p for p in itertools.product(labels, repeat=2) if rng.random() < 0.4]
        rel = relation_from_pairs(pairs)
    return Experiment(FiniteDistribution(labels, prior), channel, est, rel,
                      n_samples=n, base=base)


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), nx=st.integers(2, 4), ny=st.integers(2, 3),
       n=st.integers(1, 3), estimator=st.sampled_from(["ml", "map", "channel"]),
       relation=st.sampled_from(["equality", "abs", "l1", "l1-vector", "table", "table-gap",
                                 "pairs"]),
       uniform=st.booleans(), zeros=st.booleans(),
       base=st.sampled_from([math.e, 2.0, 10.0]),
       trials=st.sampled_from([None, None, 1, 300]),
       tolerance=st.sampled_from([1e-9, 0.0]))
@example(seed=1, nx=4, ny=4, n=2, estimator="ml", relation="abs", uniform=True,
         zeros=False, base=math.e, trials=None, tolerance=1e-9)
@example(seed=2, nx=4, ny=3, n=2, estimator="map", relation="table", uniform=True,
         zeros=False, base=2.0, trials=None, tolerance=1e-9)
@example(seed=3, nx=3, ny=2, n=1, estimator="channel", relation="pairs", uniform=False,
         zeros=True, base=10.0, trials=None, tolerance=0.0)
@example(seed=4, nx=4, ny=3, n=3, estimator="ml", relation="l1", uniform=True,
         zeros=False, base=math.e, trials=300, tolerance=1e-9)
def test_certify_prints_the_bytes_of_the_bound_functions_called_one_by_one(
        seed, nx, ny, n, estimator, relation, uniform, zeros, base, trials, tolerance):
    exp = random_chain(seed, nx, ny, n, estimator, relation, uniform, zeros, base)
    mc_seed = seed % 1000
    assert outcome(lambda: certify(exp, trials, mc_seed, tolerance)) == outcome(
        lambda: reference_certify(exp, trials, mc_seed, tolerance))


def counting(fn, calls):
    def wrapper(x, xhat):
        calls[x, xhat] += 1
        return fn(x, xhat)
    return wrapper


@pytest.mark.parametrize("trials", [None, 2000])
@pytest.mark.parametrize("relation", ["abs", "table", "pairs", "equality"])
def test_one_certify_evaluates_the_relation_once_per_pair(relation, trials):
    # radius 1 on the labels 0, 1, 3, 6 under a uniform prior, so that every
    # bound family runs, the distance ones included
    calls = Counter()
    exp = random_chain(5, 4, 3, 2, "ml", "equality", uniform=True, zeros=False,
                       base=math.e)
    labels = exp.prior.outcomes
    near = {(x, y) for x, y in itertools.product(labels, labels) if abs(x - y) <= 1}
    if relation == "abs":
        rel = DistanceRelation(counting(metric_from_name("abs"), calls), 1.0)
    elif relation == "table":
        rel = DistanceRelation(counting(table_metric(
            [(x, y, abs(x - y)) for x, y in itertools.combinations(labels, 2)]), calls), 1.0)
    else:
        rel = Relation(counting(relation_from_pairs(near) if relation == "pairs"
                                else exp.relation, calls))
    reports = certify(dataclasses.replace(exp, relation=rel), trials=trials, seed=1)
    if trials is None and relation in ("abs", "table"):
        assert [r.instance_id for r in reports][-2:] == ["distance", "distance-mi"]
    assert set(calls) == set(itertools.product(labels, labels))
    assert set(calls.values()) == {1}


def test_the_relation_is_read_in_row_major_order():
    order = []
    exp = random_chain(6, 3, 2, 1, "map", "equality", uniform=True, zeros=True,
                       base=math.e)
    rel = Relation(lambda x, xhat: order.append((x, xhat)) or x == xhat)
    certify(dataclasses.replace(exp, relation=rel))
    labels = exp.prior.outcomes
    assert order == list(itertools.product(labels, labels))


@pytest.mark.parametrize("trials", [None, 500])
def test_a_missing_table_metric_pair_raises_where_it_always_did(trials):
    # no entry for (1, 6) nor, by symmetry, (6, 1): the first of them in
    # row-major order is named, before any bound runs
    rho = table_metric([(0, 1, 1.0), (0, 3, 2.0), (0, 6, 3.0), (1, 3, 1.0), (3, 6, 1.0)])
    exp = dataclasses.replace(
        random_chain(7, 4, 3, 2, "ml", "abs", uniform=True, zeros=False, base=math.e),
        relation=DistanceRelation(rho, 1.0))
    message = "table metric: no entry for pair (1, 6)"
    with pytest.raises(FanoError, match="^" + re.escape(message) + "$"):
        certify(exp, trials=trials, seed=2)
    with pytest.raises(FanoError, match="^" + re.escape(message) + "$"):
        reference_certify(exp, trials=trials, seed=2)


def reference_mass(W, rows, cols, predicate):
    """The mass of an event as a loop over the pairs, without tables."""
    picked = [float(W[i, j]) for i, x in enumerate(rows)
              for j, y in enumerate(cols) if predicate(x, y)]
    return min(math.fsum(picked), 1.0)


def reference_relation_bounds(rel, prior, candidates):
    """The window as a scan that keeps a running extreme."""
    best_lo = best_hi = arg_lo = arg_hi = None
    for xhat in candidates:
        mass = min(math.fsum(w for x, w in zip(prior.outcomes, prior.weights.tolist())
                             if w > 0 and rel(x, xhat)), 1.0)
        if best_lo is None or mass < best_lo:
            best_lo, arg_lo = mass, xhat
        if best_hi is None or mass > best_hi:
            best_hi, arg_hi = mass, xhat
    return best_lo, best_hi, arg_lo, arg_hi


def nan_metric(x, xhat):
    """|x - xhat|, but NaN where x + xhat is a multiple of 3: in no ball, and
    not beyond one either."""
    return math.nan if (x + xhat) % 3 == 0 else float(abs(x - xhat))


def lopsided_metric(x, xhat):
    """Not symmetric: a ball about x is a row of the table, not a column."""
    return float(x - xhat) if x >= xhat else 2.0 * (xhat - x)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), nx=st.integers(1, 4), square=st.booleans(),
       relation=st.sampled_from(["equality", "abs", "nan", "lopsided", "pairs"]),
       t=st.sampled_from([0.0, 1.0, 2.5]), zeros=st.booleans(),
       total=st.sampled_from([1.0, 1.0 - 4e-13, 1.0 + 4e-13, 1.0 - 9e-13, 1.0 + 9e-13]))
@example(seed=8, nx=3, square=True, relation="abs", t=1.0, zeros=False, total=1.0 + 9e-13)
def test_the_tables_give_the_bits_of_each_quantity_computed_alone(
        seed, nx, square, relation, t, zeros, total):
    # every mass certify reads off the relation's tables against a loop over
    # the pairs, the window against a scan, H(X) against entropy(); a joint
    # may miss unit mass by less than the mass tolerance
    rng = philox(seed)
    rows = SCALAR_LABELS[:nx]
    cols = rows if square else (1, 3, 4, 10, 11)[:int(rng.integers(1, 6))]
    W = rng.dirichlet(np.ones(len(rows) * len(cols))).reshape(len(rows), len(cols))
    if zeros:
        W[rng.random(W.shape) < 0.4] = 0.0
        W.flat[rng.integers(W.size)] += 1.0
        W /= W.sum()
    joint = JointDistribution(rows, cols, W * total)
    W = joint.weights
    prior = joint.row_marginal()
    rho = {"abs": metric_from_name("abs"), "nan": nan_metric,
           "lopsided": lopsided_metric}.get(relation)
    if rho is not None:
        rel = DistanceRelation(rho, t)
    elif relation == "pairs":
        rel = relation_from_pairs([p for p in itertools.product(rows, cols)
                                   if rng.random() < 0.5])
    else:
        rel = equality_relation()
    accepted, exceeds = _relation_tables(rel, rows, cols)

    def same(got, want):
        assert repr(got) == repr(want)

    same(_mass(W, accepted), reference_mass(W, rows, cols, rel))
    same(event_probability(joint, rel), reference_mass(W, rows, cols, rel))
    same(_mass(W, ~accepted), reference_mass(W, rows, cols, lambda x, xhat: not rel(x, xhat)))
    # the product coupling, built inline: past 1 +- 5e-13 or so its total is
    # no longer a distribution's, and product_of_marginals refuses it
    outer = np.outer(prior.weights, joint.col_marginal().weights)
    same(_mass(_column_fsums(W.T)[:, None] * _column_fsums(W), accepted),
         reference_mass(outer, rows, cols, rel))
    same(_table_bounds(accepted, prior, cols),
         RelationBounds(*reference_relation_bounds(rel, prior, cols)))
    same(relation_bounds(rel, prior, cols),
         RelationBounds(*reference_relation_bounds(rel, prior, cols)))
    same(max(0.0, _entropy_nats(_column_fsums(W.T).tolist())), entropy(prior))
    if rho is not None:
        same(_mass(W, exceeds), reference_mass(W, rows, cols, lambda x, xhat: rho(x, xhat) > t))
        counts = [sum(1 for xhat in rows if rho(x, xhat) <= t) for x in rows]
        same(ball_counts(rho, t, rows), (min(counts), max(counts)))
        if square:
            same(accepted.sum(axis=1).tolist(), counts)
    else:
        assert exceeds is None


@pytest.mark.parametrize("total", [1.0 - 9e-13, 1.0 + 9e-13])
def test_the_public_relation_bounds_still_refuse_a_product_off_unit_mass(total):
    # the joint is a distribution to the mass tolerance, the product of its
    # marginals is not: fano_relation_bound builds that product and says so,
    # as it always did, where certify's unit-mass joints never get
    W = np.array([[0.4, 0.1], [0.1, 0.4]]) * total
    joint = JointDistribution((0, 1), (0, 1), W)
    with pytest.raises(SumNotOne, match="^joint: weights sum to "):
        product_of_marginals(joint)
    with pytest.raises(SumNotOne, match="^joint: weights sum to "):
        fano_relation_bound(joint, equality_relation(), RelationBounds(0.4, 0.5))
