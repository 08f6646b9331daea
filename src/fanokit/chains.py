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
import operator
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
    _numbered,
    _mass,
    _types,
    channel_from_json,
    distribution_from_json,
    event_probability,
    joint_from_prior_and_channel,
)
from .divergences import (
    _column_fsums,
    _entropy_nats,
    _fsum,
    _kl_nats,
    _ln_base,
    _mi_nats_from_matrix,
    _scale,
    conditional_entropy,
    mutual_information,
)
from .errors import (
    BadPminPmax,
    DegenerateDenominator,
    DuplicateLabel,
    FanoError,
    InconsistentBounds,
    NonUniformPrior,
    StateSpaceTooLarge,
)
from .jsonio import format_cell
from .relations import (
    DistanceRelation,
    Relation,
    RelationBounds,
    _relation_tables,
    _table_bounds,
    equality_relation,
    relation_bounds,
    relation_from_json,
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
        n = _bounds._check_whole(self.n_samples, "n")
        if n < 1:
            raise FanoError(f"n: sample count must be >= 1, got {self.n_samples!r}")
        object.__setattr__(self, "n_samples", n)
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


def _ml_picks(matrix: np.ndarray, types: np.ndarray) -> np.ndarray:
    """Most likely input index per type (count vector; ties to the lowest
    index).

    The type decides: a block's log-likelihood is sum_s count_s * ln P(s | x),
    and symbols that do not occur contribute nothing, even where P(s | x) = 0.
    The terms are summed in sorted order, so likelihoods made of the same
    terms (inputs whose rows permute each other) are bit-for-bit equal and
    the tie rule applies.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(types > 0, types * np.log(matrix)[:, None, :], 0.0)
    return np.argmax(np.sort(terms, axis=2).sum(axis=2), axis=0)


# the largest n whose n! is a finite float64; up to it multinomials are exact
# integers rounded once, past it they come from lgamma in log space
MAX_FLOAT_FACTORIAL = 170


def _type_likelihoods(matrix: np.ndarray, types: np.ndarray) -> np.ndarray:
    """P(T = c | x) = multinomial(n; c) * prod_s P(s | x)^c_s, one row per
    input x and one column per type c.

    Up to n = MAX_FLOAT_FACTORIAL the product is taken directly, with the
    multinomial an exact integer rounded once; entries whose powers underflow
    are taken in log space. Past that n every entry is taken in log space,
    where the error grows with n. No entry is NaN or inf; an impossible type
    has likelihood exactly 0.
    """
    n = int(types[0].sum())
    shape = (len(matrix), len(types))
    if n <= MAX_FLOAT_FACTORIAL:
        fact = list(itertools.accumulate(range(1, n + 1), operator.mul, initial=1))
        mult = (fact[n] // np.array(fact, dtype=object)[types].prod(axis=1)).astype(float)
        lik = np.ones(shape)
        for s in range(matrix.shape[1]):
            lik *= matrix[:, s, None] ** types[:, s]
        in_log = lik < np.finfo(float).tiny
        lik *= mult
        if not in_log.any():
            return lik
        log_mult = np.log(mult)
    else:
        log_fact = np.frompyfunc(math.lgamma, 1, 1)(types + 1.0).astype(float)
        log_mult = math.lgamma(n + 1.0) - log_fact.sum(axis=1)
        lik, in_log = np.empty(shape), np.ones(shape, dtype=bool)
    log_lik = np.broadcast_to(log_mult, shape).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(matrix)
        for s in range(matrix.shape[1]):
            log_lik += np.where(types[:, s] > 0, types[:, s] * log_w[:, s, None], 0.0)
    return np.exp(log_lik, out=lik, where=in_log)


def _resolve_estimator(est, channel: Channel, blocks: np.ndarray):
    """The estimator's decision on each distinct observation block (ML
    decides each distinct type of the blocks once).

    blocks is an index matrix into the channel outputs, one row per block.
    Returns (xhat_labels, picks, E): picks holds one reconstruction index per
    block for deterministic estimators, E one reconstruction distribution per
    block for randomized ones; the other is None.
    """
    if isinstance(est, MLEstimator):
        counts = np.stack([(blocks == s).sum(axis=1)
                           for s in range(channel.matrix.shape[1])], axis=1)
        types, type_of = _distinct_blocks(counts)
        return channel.input_outcomes, _ml_picks(channel.matrix, types)[type_of], None
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


def _unit_mass(W: np.ndarray) -> np.ndarray:
    """W rescaled to unit total mass where it misses it by rounding alone."""
    total = _fsum(W)
    return W / total if total != 1.0 and abs(total - 1.0) <= 1e-9 else W


def enumerate_chain(exp: Experiment) -> ChainSummary:
    """Exact chain quantities, evaluated by type (see _enumerate)."""
    return _enumerate(exp)[0]


def _enumerate(exp: Experiment) -> tuple:
    """enumerate_chain's summary, and the relation's tables on its (X, Xhat)
    joint (relations._relation_tables), each pair evaluated once.

    The type T of the observation block (its count vector) is a sufficient
    statistic for X under i.i.d. channel uses, so I(X;Y^n) = I(X;T) comes
    from the nx x C(n + m - 1, m - 1) type matrix for every estimator. The ML
    decision is a function of the type too, so an ML chain never visits a
    block. Map and channel estimators depend on the order of the symbols:
    their X -> Xhat joint sums over all m^n blocks.

    The state cap bounds what is held at once: the nx x types x m terms of
    the type path (the ML decision's; the type counts and likelihoods are
    smaller) for every estimator, and the nx x m^n blocks for the others.
    """
    nx = len(exp.prior)
    m = len(exp.channel.output_outcomes)
    n = exp.n_samples
    by_type = isinstance(exp.estimator, MLEstimator)
    n_types = math.comb(n + m - 1, m - 1)
    held = [("%d x %d types x %d symbols" % (nx, n_types, m), nx * n_types * m)]
    if not by_type:
        held.append(("%d x %d^%d blocks" % (nx, m, n), nx * m ** n))
    for what, size in held:
        if size > DEFAULT_STATE_CAP:
            raise StateSpaceTooLarge("n: chain state space %s exceeds the %d-state cap"
                                     % (what, DEFAULT_STATE_CAP))
    prior_w = exp.prior.weights
    types = _types(m, n)
    joint_types = prior_w[:, None] * _type_likelihoods(exp.channel.matrix, types)
    if by_type:
        xhat_labels = exp.channel.input_outcomes
        picks = _ml_picks(exp.channel.matrix, types)
        W = np.zeros((nx, nx))
        for k in np.flatnonzero(np.bincount(picks, minlength=nx)).tolist():
            W[:, k] = _column_fsums(joint_types[:, picks == k].T)
    else:
        every_block = np.indices((m,) * n).reshape(n, -1).T   # row-major block order
        xhat_labels, picks, E = _resolve_estimator(exp.estimator, exp.channel,
                                                   every_block)
        k = len(xhat_labels)
        block = _kron_rows(exp.channel.matrix, n)
        if picks is not None:
            W = prior_w[:, None] * _column_sums(block, picks, k)
        else:
            W = np.empty((nx, k))
            for i in range(nx):
                W[i] = prior_w[i] * (block[i] @ E)
    W = _unit_mass(W)
    joint = JointDistribution(exp.prior.outcomes, xhat_labels, W)
    tables = _relation_tables(exp.relation, joint.row_outcomes, xhat_labels)
    joint1 = joint_from_prior_and_channel(exp.prior, exp.channel)
    return _in_base(ChainSummary(
        joint_xxhat=joint,
        p_rel=_mass(W, tables[0]),
        mi_xy=_mi_nats_from_matrix(_unit_mass(joint_types)),
        mi_y1=mutual_information(joint1),
        mi_xxhat=_mi_nats_from_matrix(W),
        h_x_given_xhat=conditional_entropy(joint),
        beta=compute_beta(exp.channel),
        exact=True,
    ), exp.base), tables


def _in_base(nats: ChainSummary, base: float) -> ChainSummary:
    """A summary whose information fields are in nats, in the given base:
    each field scaled once, so the bits are those of a summary computed in
    that base (scaling to a base and back does not round-trip)."""
    if base == math.e:
        return nats
    return dataclasses.replace(
        nats, mi_xy=_scale(nats.mi_xy, base), mi_y1=_scale(nats.mi_y1, base),
        mi_xxhat=_scale(nats.mi_xxhat, base),
        h_x_given_xhat=_scale(nats.h_x_given_xhat, base),
        beta=_scale(nats.beta, base))


def _stderr(p: float, trials: int) -> float:
    """The binomial standard error of a Monte Carlo event probability."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _inverse_cdf(cum: np.ndarray, u: np.ndarray,
                 row_of: np.ndarray | None = None) -> np.ndarray:
    """One draw per u: the count of cumulative weights <= u in its row of cum,
    capped at the last index. Rows are non-decreasing, so leaving the last
    column out is the cap.

    A one-dimensional cum is the row of every u. Otherwise the last axis of u
    runs over trials, and trial t reads row row_of[t] of cum (row t if row_of
    is None): each column is gathered to the trials once and compared with
    every row of u. The draws come in the smallest unsigned type that holds
    them.
    """
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(cum.shape[-1] - 1))
    for column in cum.T[:-1]:
        idx += (column if row_of is None else column.take(row_of)) <= u
    return idx


def _distinct_blocks(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of y in row-major order, and the index of each row of y
    among them. Each row gets one Horner code over its columns (each shifted
    to start at 0), so codes sort as rows do; where the next column would
    pass int64, the codes so far are first replaced by their dense rank. So
    it holds however large m^n gets, while rows x a column's span fits int64.
    """
    code = np.zeros(len(y), dtype=np.int64)
    size = 1                                  # every code lies in [0, size)
    for column in y.T:
        low = int(column.min())
        span = int(column.max()) - low + 1
        if size * span > np.iinfo(np.int64).max:
            distinct, code = _numbered(code, size)
            size = len(distinct)
        code *= span
        code += column - low
        size *= span
    distinct, index = _numbered(code, size)
    row = np.empty(len(distinct), dtype=np.intp)   # a row of y for each code
    row[index] = np.arange(len(y))
    return y[row], index


# Y_1..Y_n are drawn a group at a time, with at most this many uniforms
# (2 MiB) in a group, or one draw: all n at once for small trial counts, and
# a bounded footprint for large ones
DRAW_GROUP = 1 << 18


def _column_sums(counts: np.ndarray, group: np.ndarray, k: int) -> np.ndarray:
    """The columns of a count or weight matrix summed within groups: column j
    goes to group[j] < k. Each sum adds its entries in column order, as a
    per-row np.bincount does: float weights get its bits, not exact sums;
    integer counts, whose partial sums stay below 2^53, sum exactly."""
    rows = len(counts)
    keys = group + k * np.arange(rows)[:, None]
    return np.bincount(keys.ravel(), weights=counts.ravel(),
                       minlength=rows * k).reshape(rows, k)


def simulate_chain(exp: Experiment, trials: int, seed: int = 0) -> ChainSummary:
    """Monte Carlo chain summary from a counter-based stream.

    The stream is one Philox generator keyed by the seed. It gives trials
    doubles for X, then trials doubles for each of Y_1..Y_n in turn, then
    trials doubles for a randomized estimator's Xhat; each draw is an
    inverse-CDF lookup. The golden files pin this layout.

    The draws come in the smallest unsigned type that holds them, so all n
    are kept, and _distinct_blocks ranks the observation blocks. One
    bincount of (x, block) is the empirical joint of X and Y^n. The (X, Y_1)
    joint and, for a deterministic estimator, the (X, Xhat) joint are sums
    of its columns: the same integer counts as a tally trial by trial, so
    the same bits once divided by trials. A randomized estimator draws Xhat
    trial by trial.

    The empirical joint, event probability, and information fields are
    plug-in estimates; beta is exact (a channel property). mc_stderr is the
    binomial standard error of p_rel.
    """
    joint, xy, blocks = _sample(exp, trials, seed)
    trials, m = int(trials), len(exp.channel.output_outcomes)
    p_rel = event_probability(joint, exp.relation)
    return _in_base(ChainSummary(
        joint_xxhat=joint,
        p_rel=p_rel,
        mi_xy=_mi_nats_from_matrix(xy / trials),
        mi_y1=_mi_nats_from_matrix(_column_sums(xy, blocks[:, 0], m) / trials),
        mi_xxhat=_mi_nats_from_matrix(joint.weights),
        h_x_given_xhat=conditional_entropy(joint),
        beta=compute_beta(exp.channel),
        exact=False,
        mc_stderr=_stderr(p_rel, trials),
    ), exp.base)


def _sample(exp: Experiment, trials: int, seed: int) -> tuple:
    """simulate_chain's draws: the empirical (X, Xhat) joint, the (x, block)
    count table and the distinct blocks."""
    trials = int(trials)
    if trials < 1:
        raise FanoError(f"trials: must be >= 1, got {trials!r}")
    rng = np.random.Generator(np.random.Philox(key=[int(seed), 0]))
    nx = len(exp.prior)
    n = exp.n_samples

    # widened, as x_idx * len(blocks) below must not wrap
    x_idx = _inverse_cdf(np.cumsum(exp.prior.weights), rng.random(trials)).astype(np.intp)
    cum_y = np.cumsum(exp.channel.matrix, axis=1)
    per_group = max(1, DRAW_GROUP // trials)
    groups = [_inverse_cdf(cum_y, rng.random((min(per_group, n - first), trials)), x_idx)
              for first in range(0, n, per_group)]   # a row per draw
    blocks, block_of = _distinct_blocks(np.concatenate(groups).T)

    xy = np.bincount(x_idx * len(blocks) + block_of,
                     minlength=nx * len(blocks)).reshape(nx, len(blocks))
    xhat_labels, picks, E = _resolve_estimator(exp.estimator, exp.channel, blocks)
    k = len(xhat_labels)
    if picks is not None:
        x_xhat = _column_sums(xy, picks, k)
    else:
        xhat_idx = _inverse_cdf(np.cumsum(E, axis=1), rng.random(trials), block_of)
        x_xhat = np.bincount(x_idx * k + xhat_idx, minlength=nx * k).reshape(nx, k)

    return JointDistribution(exp.prior.outcomes, xhat_labels, x_xhat / trials), xy, blocks


def independent_samples_bound(prior: FiniteDistribution, channel: Channel,
                              n: int, estimator, rel: Relation,
                              bounds: RelationBounds | None = None,
                              base: float = math.e,
                              tolerance: float = 1e-9) -> _bounds.BoundReport:
    """Bound for n conditionally independent channel uses.

    The divergence budget is n times the single-use mutual information, with
    the worst-case pairwise channel divergence n * beta as the weaker, model-
    only fallback (recorded in notes). The chain inequality
    I(X;Y^n) <= n * I(X;Y_1) <= n * beta is asserted on the exact chain,
    which this call enumerates (certify hands over the summary it has).
    """
    summary = enumerate_chain(Experiment(prior=prior, channel=channel, n_samples=n,
                                         estimator=estimator, relation=rel))
    if bounds is None:
        bounds = relation_bounds(rel, prior, summary.joint_xxhat.col_outcomes)
    return _samples_mi_report(summary, n, bounds, base, tolerance)


def _samples_mi_report(summary: ChainSummary, n: int, bounds: RelationBounds,
                       base: float, tolerance: float) -> _bounds.BoundReport:
    """independent_samples_bound's report from the exact chain's summary,
    whose information fields must be in nats."""
    i1, beta = summary.mi_y1, summary.beta
    # the chain inequalities are tight at n = 1 and on noiseless channels:
    # a negative pass/fail tolerance must not refuse their equality
    slack = max(tolerance, 0.0)
    if summary.mi_xy > n * i1 + slack:
        raise InconsistentBounds(
            "chain: observation mutual information exceeds n times the "
            "single-use value; additivity violated"
        )
    if i1 > beta + slack:
        raise InconsistentBounds(
            "chain: single-use mutual information exceeds the worst-case "
            "pairwise divergence"
        )
    p_min, p_max = _bounds._check_window(bounds.p_min, bounds.p_max)
    p_rel = summary.p_rel
    rhs_i = _bounds._kl_rhs_nats(n * i1, p_rel, p_min, p_max)
    rhs_beta = (math.inf if math.isinf(beta)
                else _bounds._kl_rhs_nats(n * beta, p_rel, p_min, p_max))
    if rhs_i > rhs_beta + slack:
        raise InconsistentBounds(
            "chain: per-sample bound exceeds the worst-case-divergence bound"
        )
    solve = _bounds.solve_diffusion(
        _bounds.BoundInputs(divergence=n * i1, alpha="kl", p_min=p_min, p_max=p_max))
    notes = ("bounds the acceptable-reconstruction probability "
             "(complement form flagged inconsistent upstream); "
             "worst-case-divergence bound value %s" % format_cell(rhs_beta))
    return _bounds.BoundReport(
        mode="check", bound_value=rhs_i, observed=p_rel, slack=rhs_i - p_rel,
        feasible_sup=solve.feasible_sup,
        solver_tolerance=tolerance, notes=notes,
        alpha="kl", p_min=p_min, p_max=p_max, divergence=_scale(n * i1, base),
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
    base, n, rel = exp.base, exp.n_samples, exp.relation
    if trials is None:
        try:
            # one enumeration, in nats, for the samples bound as well
            nats, (accepted, exceeds) = _enumerate(dataclasses.replace(exp, base=math.e))
        except StateSpaceTooLarge as exc:
            raise StateSpaceTooLarge(
                f"{exc}; rerun with trials set to use the Monte Carlo path"
            ) from None
        joint, p_rel, stderr = nats.joint_xxhat, nats.p_rel, 0.0
        mi_xy, beta = _scale(nats.mi_xy, base), _scale(nats.beta, base)
    else:
        # no summary: pass/fail reads none of its plug-in information estimates
        joint = _sample(exp, trials, seed)[0]
        accepted = _relation_tables(rel, joint.row_outcomes, joint.col_outcomes)[0]
        p_rel = _mass(joint.weights, accepted)
        stderr, beta = _stderr(p_rel, int(trials)), _scale(compute_beta(exp.channel), base)
    rb = _table_bounds(accepted, exp.prior, joint.col_outcomes)
    # a Monte Carlo p_rel is judged within three standard errors (0 if exact)
    slack_window = tolerance + 3.0 * stderr
    mc_note = "" if trials is None else (
        "observed probability is a Monte Carlo estimate "
        "(stderr %.17g); judged within 3 standard errors" % stderr)
    reports: list = []

    def add(instance_id, report):
        """The report, copied once: its id set and the Monte Carlo note added."""
        reports.append(dataclasses.replace(report, instance_id=instance_id, notes="; ".join(
            filter(None, (report.notes, mc_note)))))

    def kl(divergence):
        """p_rel against the KL diffusion bound at this divergence budget."""
        return _bounds.check_kl_diffusion(p_rel, _bounds.BoundInputs(
            divergence=divergence, alpha="kl", p_min=rb.p_min, p_max=rb.p_max,
            base=base), slack_window)

    W = joint.weights
    rows = _column_fsums(W.T)    # the row marginal, as JointDistribution.row_marginal
    try:
        _bounds._check_window(rb.p_min, rb.p_max)
    except BadPminPmax:
        pass    # no KL-diffusion bound applies at this occupancy window
    else:
        if trials is None:
            # the event's mass under the product of the marginals, as
            # product_of_marginals and event_probability give it
            _bounds._window_consistency(_mass(rows[:, None] * _column_fsums(W), accepted),
                                        rb.p_min, rb.p_max)
            add("relation-mi-reconstruction", _bounds._relation_mi_report(
                p_rel, nats.mi_xxhat, rb.p_min, rb.p_max, mi_xy, base, tolerance))
            add("relation-mi-observation", kl(mi_xy))
        # exact chains also assert the chain inequalities; a simulated chain's
        # per-use budget is the model's exact single-use mutual information
        add("samples-mi-per-use", _samples_mi_report(nats, n, rb, base, tolerance)
            if trials is None else kl(n * mutual_information(
                joint_from_prior_and_channel(exp.prior, exp.channel), base)))
        add("samples-worst-pair", kl(n * beta))
    if trials is not None:
        return reports
    h_x, h_cond = max(0.0, _entropy_nats(rows.tolist())), nats.h_x_given_xhat
    add("entropy-version", _bounds._entropy_version_report(_mass(W, ~accepted), h_x, h_cond,
                                                           rb, base))
    if not isinstance(rel, DistanceRelation) or joint.row_outcomes != joint.col_outcomes:
        return reports
    try:
        m = _bounds._check_uniform_rows(joint.row_outcomes, rows.tolist())
    except NonUniformPrior:
        return reports
    balls, p_t = accepted.sum(axis=1).tolist(), _mass(W, exceeds)
    add("distance", _bounds._distance_report(m, p_t, min(balls), max(balls), h_x, h_cond, base))
    try:
        report = _bounds.mi_distance_bound(mi_xy, m, max(balls), p_t=p_t, mode="check",
                                           base=base, tolerance=tolerance)
    except DegenerateDenominator:
        return reports    # the largest ball covers the whole alphabet
    add("distance-mi", report)
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
            outputs = tuple(dict.fromkeys(mapping.values()))
        return MapEstimator(mapping, outputs)
    if kind == "channel":
        if "channel" not in obj:
            raise FanoError('estimator: channel estimator requires "channel"')
        return ChannelEstimator(channel_from_json(obj["channel"]))
    raise FanoError(f"estimator: unknown kind {kind!r}")


def experiment_from_json(obj: dict) -> Experiment:
    for key in ("prior", "channel", "estimator", "relation"):
        if not isinstance(obj, dict) or key not in obj:
            raise FanoError(f'experiment: missing field "{key}"')
    return Experiment(
        prior=distribution_from_json(obj["prior"]),
        channel=channel_from_json(obj["channel"]),
        estimator=estimator_from_json(obj["estimator"]),
        relation=relation_from_json(obj["relation"]),
        n_samples=obj.get("n", 1),
        base=float(obj.get("base", math.e)),
    )
