"""Source -> channel -> estimator chains: exact enumeration, Monte Carlo
simulation, and the certification harness that runs every applicable bound.

The chain is X ~ prior, Y = (Y_1..Y_n) conditionally i.i.d. given X through
the channel, Xhat = estimator(Y). Estimators always receive the observation
block as an n-tuple (scalars are wrapped for n = 1).
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .distributions import (
    DEFAULT_STATE_CAP,
    Channel,
    FiniteDistribution,
    JointDistribution,
    _kron_rows,
    _label_from_json,
    event_probability,
    joint_from_prior_and_channel,
)
from .divergences import (
    _kl_nats,
    _ln_base,
    _mi_nats_from_matrix,
    _scale,
    conditional_entropy,
)
from .errors import (
    BadPminPmax,
    DuplicateLabel,
    FanoError,
    InconsistentBounds,
    NonUniformPrior,
    RangeMismatch,
    StateSpaceTooLarge,
)
from .relations import (
    DistanceRelation,
    Relation,
    ball_counts,
    equality_relation,
    relation_bounds,
)
from . import bounds as _bounds


@dataclass(frozen=True)
class MapEstimator:
    """Deterministic estimator: observation tuple -> reconstruction label."""

    mapping: dict
    output_labels: tuple

    def lookup(self, y_tuple: tuple):
        if y_tuple in self.mapping:
            return self.mapping[y_tuple]
        if len(y_tuple) == 1 and y_tuple[0] in self.mapping:
            return self.mapping[y_tuple[0]]
        raise FanoError(f"estimator: no value for observation block {y_tuple!r}")


@dataclass(frozen=True)
class MLEstimator:
    """Picks the source symbol with the largest channel likelihood of the
    observed block; ties go to the lowest source index. Equal likelihoods
    compare equal exactly: see _ml_picks."""


@dataclass(frozen=True)
class ChannelEstimator:
    """Randomized estimator given as a channel from observation blocks to
    reconstruction labels."""

    channel: Channel


@dataclass(frozen=True)
class Experiment:
    prior: FiniteDistribution
    channel: Channel
    estimator: Any
    relation: Relation
    n_samples: int = 1
    base: float = math.e

    def __post_init__(self):
        if self.prior.outcomes != self.channel.input_outcomes:
            raise DuplicateLabel(
                "experiment: prior outcomes must match channel inputs, in order"
            )
        if int(self.n_samples) < 1:
            raise FanoError(f"n: sample count must be >= 1, got {self.n_samples!r}")
        object.__setattr__(self, "n_samples", int(self.n_samples))
        _ln_base(self.base)


@dataclass(frozen=True)
class ChainSummary:
    """Quantities of one chain. Information fields are in the experiment's
    base. mi_xy is between the source and the whole observation block;
    mi_y1 is the single-use value. Data processing (mi_xxhat <= mi_xy) is
    asserted for exact summaries; empirical summaries carry plug-in values
    and are exempt.
    """

    joint_xxhat: JointDistribution
    p_rel: float
    mi_xy: float
    mi_y1: float
    mi_xxhat: float
    h_x_given_xhat: float
    beta: float
    exact: bool
    mc_stderr: float = 0.0

    def __post_init__(self):
        if self.exact and self.mi_xxhat > self.mi_xy + 1e-10:
            raise InconsistentBounds(
                "summary: reconstruction mutual information %r exceeds the "
                "observation value %r; data processing violated"
                % (self.mi_xxhat, self.mi_xy)
            )


def compute_beta(channel: Channel, base: float = math.e) -> float:
    """Largest KL divergence between two rows of the channel."""
    worst = 0.0
    rows = [row.tolist() for row in channel.matrix]
    for a, b in itertools.permutations(rows, 2):
        worst = max(worst, _kl_nats(zip(a, b)))
    return _scale(worst, base)


def _ml_picks(matrix: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Most likely input index per block (ties to the lowest index).

    A block's log-likelihood is sum_s count_s * ln P(s | x); symbols that do
    not occur contribute nothing, even where P(s | x) = 0. The terms are
    summed in sorted order, so likelihoods made of the same terms (blocks
    that permute each other, inputs whose rows permute each other) are
    bit-for-bit equal and the tie rule applies. The counts (the block's type)
    decide, so each distinct type is evaluated once.
    """
    small = np.min_scalar_type(blocks.shape[1])   # counts <= n; small keys sort fast
    counts = np.stack([(blocks == s).sum(axis=1, dtype=small)
                       for s in range(matrix.shape[1])], axis=1)
    types, type_of = _distinct_blocks(counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(types > 0, types * np.log(matrix)[:, None, :], 0.0)
    return np.argmax(np.sort(terms, axis=2).sum(axis=2), axis=0)[type_of]


def _resolve_estimator(est, channel: Channel, blocks: np.ndarray):
    """The estimator's decision on each distinct observation block.

    blocks is an index matrix into the channel outputs, one row per block.
    Returns (xhat_labels, picks, E): picks holds one reconstruction index per
    block for deterministic estimators, E one reconstruction distribution per
    block for randomized ones; the other is None.
    """
    if isinstance(est, MLEstimator):
        return channel.input_outcomes, _ml_picks(channel.matrix, blocks), None
    out = channel.output_outcomes
    labels = [tuple(out[k] for k in row) for row in blocks.tolist()]
    if isinstance(est, MapEstimator):
        idx_of = {lab: i for i, lab in enumerate(est.output_labels)}
        picks = np.empty(len(labels), dtype=np.intp)
        for j, lab in enumerate(labels):
            value = est.lookup(lab)
            try:
                picks[j] = idx_of[value]
            except KeyError:
                raise FanoError(
                    f"estimator: value {value!r} missing from output_labels"
                ) from None
        return est.output_labels, picks, None
    if isinstance(est, ChannelEstimator):
        ins = est.channel.input_outcomes
        row_of = {(y,): i for i, y in enumerate(ins)} if blocks.shape[1] == 1 else {}
        row_of.update((y, i) for i, y in enumerate(ins))   # whole blocks first
        try:
            rows = [row_of[lab] for lab in labels]
        except KeyError as exc:
            raise FanoError("estimator: channel has no row for observation block "
                            f"{exc.args[0]!r}") from None
        return est.channel.output_outcomes, None, est.channel.matrix[rows]
    raise FanoError(f"estimator: unsupported estimator {est!r}")


def enumerate_chain(exp: Experiment) -> ChainSummary:
    """Exact chain quantities by enumerating every observation block."""
    nx = len(exp.prior)
    m = len(exp.channel.output_outcomes)
    n = exp.n_samples
    if nx * m ** n > DEFAULT_STATE_CAP:
        raise StateSpaceTooLarge(
            "n: chain state space %d * %d^%d exceeds the %d-state cap"
            % (nx, m, n, DEFAULT_STATE_CAP)
        )
    every_block = np.indices((m,) * n).reshape(n, -1).T   # row-major block order
    xhat_labels, picks, E = _resolve_estimator(exp.estimator, exp.channel, every_block)
    k = len(xhat_labels)
    block = _kron_rows(exp.channel.matrix, n)
    W = np.empty((nx, k))
    prior_w = exp.prior.weights
    for i in range(nx):
        if picks is not None:
            W[i] = prior_w[i] * np.bincount(picks, weights=block[i], minlength=k)
        else:
            W[i] = prior_w[i] * (block[i] @ E)
    total = math.fsum(W.ravel().tolist())
    if total != 1.0 and abs(total - 1.0) <= 1e-9:
        W = W / total
    joint = JointDistribution(exp.prior.outcomes, xhat_labels, W)
    joint1 = joint_from_prior_and_channel(exp.prior, exp.channel)
    return ChainSummary(
        joint_xxhat=joint,
        p_rel=event_probability(joint, exp.relation),
        mi_xy=_scale(_mi_nats_from_matrix(prior_w[:, None] * block), exp.base),
        mi_y1=_scale(_mi_nats_from_matrix(np.asarray(joint1.weights)), exp.base),
        mi_xxhat=_scale(_mi_nats_from_matrix(W), exp.base),
        h_x_given_xhat=conditional_entropy(joint, exp.base),
        beta=compute_beta(exp.channel, exp.base),
        exact=True,
    )


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One draw per u: the count of cumulative weights <= u in its row of cum
    (or in cum itself, if one-dimensional), capped at the last index."""
    return np.minimum((cum <= u[:, None]).sum(axis=1), cum.shape[-1] - 1)


def _distinct_blocks(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of y in row-major order, and the index of each row of y
    among them. Sort-based, so it holds however large m^n gets."""
    order = np.lexsort(y.T[::-1])
    y = y[order]
    first = np.ones(len(y), dtype=bool)
    first[1:] = (y[1:] != y[:-1]).any(axis=1)
    index = np.empty(len(y), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return y[first], index


def simulate_chain(exp: Experiment, trials: int, seed: int = 0) -> ChainSummary:
    """Monte Carlo chain summary from a counter-based stream.

    The empirical joint, event probability, and information fields are
    plug-in estimates; beta is exact (a channel property). mc_stderr is the
    binomial standard error of p_rel.
    """
    trials = int(trials)
    if trials < 1:
        raise FanoError(f"trials: must be >= 1, got {trials!r}")
    rng = np.random.Generator(np.random.Philox(key=[int(seed), 0]))
    nx = len(exp.prior)
    m = len(exp.channel.output_outcomes)
    n = exp.n_samples

    x_idx = _inverse_cdf(np.cumsum(exp.prior.weights), rng.random(trials))
    cum_y = np.cumsum(exp.channel.matrix, axis=1)[x_idx]
    y = np.empty((trials, n), dtype=np.intp)
    for kk in range(n):
        y[:, kk] = _inverse_cdf(cum_y, rng.random(trials))

    blocks, block_of = _distinct_blocks(y)
    xhat_labels, picks, E = _resolve_estimator(exp.estimator, exp.channel, blocks)
    if picks is not None:
        xhat_idx = picks[block_of]
    else:
        xhat_idx = _inverse_cdf(np.cumsum(E, axis=1)[block_of], rng.random(trials))

    counts = np.zeros((nx, len(xhat_labels)))
    np.add.at(counts, (x_idx, xhat_idx), 1.0)
    W = counts / trials
    joint = JointDistribution(exp.prior.outcomes, xhat_labels, W)
    p_rel = event_probability(joint, exp.relation)
    stderr = math.sqrt(max(p_rel * (1.0 - p_rel), 0.0) / trials)

    counts_y1 = np.zeros((nx, m))
    np.add.at(counts_y1, (x_idx, y[:, 0]), 1.0)
    counts_xy = np.bincount(x_idx * len(blocks) + block_of,
                            minlength=nx * len(blocks)).reshape(nx, len(blocks))
    return ChainSummary(
        joint_xxhat=joint,
        p_rel=p_rel,
        mi_xy=_scale(_mi_nats_from_matrix(counts_xy / trials), exp.base),
        mi_y1=_scale(_mi_nats_from_matrix(counts_y1 / trials), exp.base),
        mi_xxhat=_scale(_mi_nats_from_matrix(W), exp.base),
        h_x_given_xhat=conditional_entropy(joint, exp.base),
        beta=compute_beta(exp.channel, exp.base),
        exact=False,
        mc_stderr=stderr,
    )


def certify(exp: Experiment, trials: int | None = None, seed: int = 0,
            tolerance: float = 1e-9) -> list:
    """Evaluate every applicable bound for the chain and return the reports.

    trials = None enumerates exactly (error past the state cap, suggesting
    trials). With trials set, the chain is simulated; pass/fail then uses
    exact model information quantities (single-use mutual information, beta)
    and the empirical event probability judged within tolerance plus three
    standard errors. Plug-in information estimates never gate pass/fail.
    Whether a bound applies is the bound's own decision: a bound that
    rejects the chain's occupancy window, prior or alphabets is left out.
    """
    if trials is None:
        try:
            summary = enumerate_chain(exp)
        except StateSpaceTooLarge as exc:
            raise StateSpaceTooLarge(
                f"{exc}; rerun with trials set to use the Monte Carlo path"
            ) from None
    else:
        summary = simulate_chain(exp, trials, seed)

    base = exp.base
    n = exp.n_samples
    rel = exp.relation
    joint = summary.joint_xxhat
    rb = relation_bounds(rel, exp.prior, joint.col_outcomes)
    # a Monte Carlo p_rel is judged within three standard errors (0 if exact)
    slack_window = tolerance + 3.0 * summary.mc_stderr
    mc_note = "" if summary.exact else (
        "observed probability is a Monte Carlo estimate "
        "(stderr %.17g); judged within 3 standard errors" % summary.mc_stderr)
    reports: list = []

    def add(report, instance_id):
        reports.append(dataclasses.replace(report, instance_id=instance_id))

    def kl(divergence):
        """p_rel against the KL diffusion bound at this divergence budget."""
        rep = _bounds.check_kl_diffusion(summary.p_rel, _bounds.BoundInputs(
            divergence=divergence, alpha="kl", p_min=rb.p_min, p_max=rb.p_max,
            base=base), slack_window)
        return dataclasses.replace(rep, notes="; ".join(filter(None, (rep.notes, mc_note))))

    try:
        _bounds._check_window(rb.p_min, rb.p_max)
    except BadPminPmax:
        pass    # no KL-diffusion bound applies at this occupancy window
    else:
        if summary.exact:
            add(_bounds.fano_relation_bound(
                joint, rel, rb, observation_mi=summary.mi_xy, base=base,
                tolerance=tolerance), "relation-mi-reconstruction")
            add(kl(summary.mi_xy), "relation-mi-observation")
        # exact chains also assert the chain inequalities; a simulated chain's
        # per-use budget is the model's exact single-use mutual information
        add(_bounds.independent_samples_bound(
                exp.prior, exp.channel, n, exp.estimator, rel, rb, base=base,
                tolerance=tolerance) if summary.exact else
            kl(n * _scale(_mi_nats_from_matrix(np.asarray(
                joint_from_prior_and_channel(exp.prior, exp.channel).weights)), base)),
            "samples-mi-per-use")
        add(kl(n * summary.beta), "samples-worst-pair")
    if not summary.exact:
        return reports
    add(_bounds.entropy_version_bound(joint, rel, rb, base=base), "entropy-version")
    if isinstance(rel, DistanceRelation):
        try:
            add(_bounds.distance_fano_bound(joint, rel.rho, rel.t, base=base),
                "distance")
        except (NonUniformPrior, RangeMismatch):
            return reports
        m_size = len(joint.row_outcomes)
        _, n_max = ball_counts(rel.rho, rel.t, joint.row_outcomes)
        if n_max < m_size:    # n_max >= 1, or the distance bound had raised
            p_exceed = event_probability(
                joint, lambda x, xhat: rel.rho(x, xhat) > rel.t)
            add(_bounds.mi_distance_bound(
                summary.mi_xy, m_size, n_max, p_t=p_exceed, mode="check",
                base=base, tolerance=tolerance), "distance-mi")
    return reports


# -- random instances -------------------------------------------------------

def random_experiment(seed: int, nx: int = 3, ny: int = 3, n: int = 1,
                      estimator_kind: str = "ml", base: float = math.e) -> Experiment:
    """Deterministic random chain: symmetric-Dirichlet prior and channel rows,
    equality relation, and an ML or random-map estimator."""
    rng = np.random.Generator(np.random.Philox(key=[int(seed), 0]))
    prior = FiniteDistribution(tuple(range(nx)), rng.dirichlet(np.ones(nx)))
    rows = np.vstack([rng.dirichlet(np.ones(ny)) for _ in range(nx)])
    channel = Channel(tuple(range(nx)), tuple(range(ny)), rows)
    if estimator_kind == "ml":
        est: Any = MLEstimator()
    elif estimator_kind == "map":
        blocks = itertools.product(range(ny), repeat=n)
        mapping = {blk: int(rng.integers(nx)) for blk in blocks}
        est = MapEstimator(mapping, tuple(range(nx)))
    else:
        raise FanoError(f"estimator_kind: expected 'ml' or 'map', got {estimator_kind!r}")
    return Experiment(prior=prior, channel=channel, estimator=est,
                      relation=equality_relation(), n_samples=n, base=base)


# -- JSON parsing -----------------------------------------------------------

def estimator_from_json(obj: dict):
    from .distributions import channel_from_json
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FanoError('estimator: expected an object with a "kind" field')
    kind = obj["kind"]
    if kind == "ml":
        return MLEstimator()
    if kind == "map":
        pairs = obj.get("pairs")
        if pairs is None:
            raise FanoError('estimator: map estimator requires "pairs"')
        mapping = {}
        for key, value in pairs:
            key = _label_from_json(key)
            if not isinstance(key, tuple):
                key = (key,)
            mapping[key] = _label_from_json(value)
        if "outputs" in obj:
            outputs = tuple(_label_from_json(v) for v in obj["outputs"])
        else:
            seen = []
            for v in mapping.values():
                if v not in seen:
                    seen.append(v)
            outputs = tuple(seen)
        return MapEstimator(mapping, outputs)
    if kind == "channel":
        if "channel" not in obj:
            raise FanoError('estimator: channel estimator requires "channel"')
        return ChannelEstimator(channel_from_json(obj["channel"]))
    raise FanoError(f"estimator: unknown kind {kind!r}")


def experiment_from_json(obj: dict) -> Experiment:
    from .distributions import channel_from_json, distribution_from_json
    from .relations import relation_from_json
    for key in ("prior", "channel", "estimator", "relation"):
        if not isinstance(obj, dict) or key not in obj:
            raise FanoError(f'experiment: missing field "{key}"')
    return Experiment(
        prior=distribution_from_json(obj["prior"]),
        channel=channel_from_json(obj["channel"]),
        estimator=estimator_from_json(obj["estimator"]),
        relation=relation_from_json(obj["relation"]),
        n_samples=int(obj.get("n", 1)),
        base=float(obj.get("base", math.e)),
    )
