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
    event_probability,
    joint_from_prior_and_channel,
)
from .divergences import (
    _column_fsums,
    _kl_nats,
    _ln_base,
    _mi_nats_from_matrix,
    _scale,
    conditional_entropy,
)
from .errors import (
    BadPminPmax,
    DegenerateDenominator,
    DuplicateLabel,
    FanoError,
    InconsistentBounds,
    NonUniformPrior,
    RangeMismatch,
    StateSpaceTooLarge,
)
from .jsonio import format_cell
from .relations import (
    DistanceRelation,
    Relation,
    RelationBounds,
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


def _types(m: int, n: int) -> np.ndarray:
    """Every type (count vector) of n draws from m symbols, one per row: the
    C(n + m - 1, m - 1) ways to place m - 1 bars among n + m - 1 slots (stars
    and bars), in lexicographic order of the bar positions."""
    k = m - 1
    count = math.comb(n + k, k)
    slots = range(n + k) if k else ()          # one symbol: one type, whatever n
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(slots, k)),
        dtype=np.intp, count=count * k).reshape(count, k)
    edges = np.hstack([np.full((count, 1), -1), bars, np.full((count, 1), n + k)])
    return np.diff(edges, axis=1) - 1


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
    total = math.fsum(W.ravel().tolist())
    return W / total if total != 1.0 and abs(total - 1.0) <= 1e-9 else W


def enumerate_chain(exp: Experiment) -> ChainSummary:
    """Exact chain quantities, evaluated by type.

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
        W = np.empty((nx, k))
        for i in range(nx):
            if picks is not None:
                W[i] = prior_w[i] * np.bincount(picks, weights=block[i], minlength=k)
            else:
                W[i] = prior_w[i] * (block[i] @ E)
    W = _unit_mass(W)
    joint = JointDistribution(exp.prior.outcomes, xhat_labels, W)
    joint1 = joint_from_prior_and_channel(exp.prior, exp.channel)
    return ChainSummary(
        joint_xxhat=joint,
        p_rel=event_probability(joint, exp.relation),
        mi_xy=_scale(_mi_nats_from_matrix(_unit_mass(joint_types)), exp.base),
        mi_y1=_scale(_mi_nats_from_matrix(np.asarray(joint1.weights)), exp.base),
        mi_xxhat=_scale(_mi_nats_from_matrix(W), exp.base),
        h_x_given_xhat=conditional_entropy(joint, exp.base),
        beta=compute_beta(exp.channel, exp.base),
        exact=True,
    )


def _inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One draw per u: the count of cumulative weights <= u in its row of cum
    (or in cum itself, if one-dimensional), capped at the last index. Rows
    are non-decreasing, so leaving the last column out is the cap."""
    idx = np.zeros(len(u), dtype=np.intp)
    for column in cum.T[:-1]:
        idx += column <= u
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
            distinct, code = np.unique(code, return_inverse=True)
            size = len(distinct)
        code *= span
        code += column - low
        size *= span
    distinct, index = np.unique(code, return_inverse=True)
    row = np.empty(len(distinct), dtype=np.intp)   # a row of y for each code
    row[index] = np.arange(len(y))
    return y[row], index


def simulate_chain(exp: Experiment, trials: int, seed: int = 0) -> ChainSummary:
    """Monte Carlo chain summary from a counter-based stream.

    The stream is one Philox generator keyed by the seed. It gives trials
    doubles for X, then trials doubles for each of Y_1..Y_n in turn, then
    trials doubles for a randomized estimator's Xhat; each draw is an
    inverse-CDF lookup. The golden files pin this layout.

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

    def draw(cum: np.ndarray, row_of: np.ndarray) -> np.ndarray:
        """One draw per trial t from row row_of[t] of the cumulative rows cum."""
        return _inverse_cdf(np.take(cum, row_of, axis=0), rng.random(trials))

    x_idx = _inverse_cdf(np.cumsum(exp.prior.weights), rng.random(trials))
    cum_y = np.cumsum(exp.channel.matrix, axis=1)
    y = np.empty((trials, n), dtype=np.intp, order="F")   # one column per draw
    for kk in range(n):
        y[:, kk] = draw(cum_y, x_idx)

    blocks, block_of = _distinct_blocks(y)
    xhat_labels, picks, E = _resolve_estimator(exp.estimator, exp.channel, blocks)
    if picks is not None:
        xhat_idx = picks[block_of]
    else:
        xhat_idx = draw(np.cumsum(E, axis=1), block_of)

    def joint_with_x(b: np.ndarray, k: int) -> np.ndarray:
        """Empirical joint of X and an index b < k, one row per source symbol."""
        return np.bincount(x_idx * k + b, minlength=nx * k).reshape(nx, k) / trials

    W = joint_with_x(xhat_idx, len(xhat_labels))
    joint = JointDistribution(exp.prior.outcomes, xhat_labels, W)
    p_rel = event_probability(joint, exp.relation)
    stderr = math.sqrt(max(p_rel * (1.0 - p_rel), 0.0) / trials)
    return ChainSummary(
        joint_xxhat=joint,
        p_rel=p_rel,
        mi_xy=_scale(_mi_nats_from_matrix(joint_with_x(block_of, len(blocks))), exp.base),
        mi_y1=_scale(_mi_nats_from_matrix(joint_with_x(y[:, 0], m)), exp.base),
        mi_xxhat=_scale(_mi_nats_from_matrix(W), exp.base),
        h_x_given_xhat=conditional_entropy(joint, exp.base),
        beta=compute_beta(exp.channel, exp.base),
        exact=False,
        mc_stderr=stderr,
    )


def independent_samples_bound(prior: FiniteDistribution, channel: Channel,
                              n: int, estimator, rel: Relation,
                              bounds: RelationBounds | None = None,
                              base: float = math.e,
                              tolerance: float = 1e-9) -> _bounds.BoundReport:
    """Bound for n conditionally independent channel uses.

    The divergence budget is n times the single-use mutual information, with
    the worst-case pairwise channel divergence n * beta as the weaker, model-
    only fallback (recorded in notes). The chain inequality
    I(X;Y^n) <= n * I(X;Y_1) <= n * beta is asserted on the exact chain.
    """
    summary = enumerate_chain(Experiment(prior=prior, channel=channel, n_samples=n,
                                         estimator=estimator, relation=rel))
    i1, beta = summary.mi_y1, summary.beta
    if summary.mi_xy > n * i1 + tolerance:
        raise InconsistentBounds(
            "chain: observation mutual information exceeds n times the "
            "single-use value; additivity violated"
        )
    if i1 > beta + tolerance:
        raise InconsistentBounds(
            "chain: single-use mutual information exceeds the worst-case "
            "pairwise divergence"
        )
    if bounds is None:
        bounds = relation_bounds(rel, prior, summary.joint_xxhat.col_outcomes)
    p_min, p_max = _bounds._check_window(bounds.p_min, bounds.p_max)
    p_rel = summary.p_rel
    rhs_i = _bounds._kl_rhs_nats(n * i1, p_rel, p_min, p_max)
    rhs_beta = (math.inf if math.isinf(beta)
                else _bounds._kl_rhs_nats(n * beta, p_rel, p_min, p_max))
    if rhs_i > rhs_beta + tolerance:
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
        add(independent_samples_bound(
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
        _, n_max = ball_counts(rel.rho, rel.t, joint.row_outcomes)
        p_exceed = event_probability(joint, lambda x, xhat: rel.rho(x, xhat) > rel.t)
        try:
            report = _bounds.mi_distance_bound(
                summary.mi_xy, len(joint.row_outcomes), n_max, p_t=p_exceed,
                mode="check", base=base, tolerance=tolerance)
        except DegenerateDenominator:
            return reports    # the largest ball covers the whole alphabet
        add(report, "distance-mi")
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
        n_samples=obj.get("n", 1),
        base=float(obj.get("base", math.e)),
    )
