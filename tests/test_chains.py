"""End-to-end chains: prior, channel, estimator, relation."""
import ast
import dataclasses
import inspect
import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import bsc, philox
import fanokit
from fanokit import bounds, chains
from fanokit import (
    ChainSummary,
    Channel,
    ChannelEstimator,
    Experiment,
    FanoError,
    FiniteDistribution,
    MLEstimator,
    MapEstimator,
    binary_entropy,
    certify,
    compute_beta,
    enumerate_chain,
    equality_relation,
    DistanceRelation,
    independent_samples_bound,
    metric_from_name,
    random_experiment,
    simulate_chain,
    uniform_distribution,
)
from fanokit.chains import (
    _column_sums,
    _distinct_blocks,
    _inverse_cdf,
    _ml_picks,
    _resolve_estimator,
    _types,
    estimator_from_json,
    experiment_from_json,
)
from fanokit.distributions import (
    JointDistribution,
    _kron_rows,
    event_probability,
)
from fanokit.divergences import _mi_nats_from_matrix, _scale, conditional_entropy
from fanokit.errors import InconsistentBounds, StateSpaceTooLarge

# mpmath, 50 digits: worst-pair divergence of the (0.9/0.2) asymmetric channel
BETA_ASYM = 1.362737753988613927926705

HALF = FiniteDistribution((0, 1), (0.5, 0.5))
ASYM = Channel((0, 1), (0, 1), [[0.9, 0.1], [0.2, 0.8]])


def noisy_three():
    # asymmetric on purpose: the symmetric-error channel achieves the
    # per-use bound with equality, which leaves no room for sampling noise
    prior = uniform_distribution((0, 1, 2))
    ch = Channel(
        (0, 1, 2), (0, 1, 2),
        [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]],
    )
    return Experiment(prior, ch, MLEstimator(), equality_relation())


def flat_channel(m):
    """Two inputs and m outputs, both rows uniform."""
    return Channel((0, 1), tuple(range(m)), [[1.0 / m] * m] * 2)


class TestEnumerate:
    def test_symmetric_binary_channel_by_hand(self):
        s = enumerate_chain(Experiment(HALF, bsc(0.1), MLEstimator(),
                                       equality_relation()))
        assert s.exact
        assert s.p_rel == pytest.approx(0.9, abs=1e-14)
        want_mi = math.log(2) - binary_entropy(0.1)
        assert s.mi_xy == pytest.approx(want_mi, abs=1e-14)
        # one sample, identity decoder: nothing changes along the chain
        assert s.mi_y1 == s.mi_xy == s.mi_xxhat
        assert s.h_x_given_xhat == pytest.approx(binary_entropy(0.1), abs=1e-14)

    def test_three_samples_majority_vote(self):
        s = enumerate_chain(Experiment(HALF, bsc(0.1), MLEstimator(),
                                       equality_relation(), n_samples=3))
        assert s.p_rel == pytest.approx(0.9 ** 3 + 3 * 0.9 ** 2 * 0.1, abs=1e-12)
        # strictly sub-additive here: three noisy looks overlap in what they say
        assert s.mi_xy < 3 * s.mi_y1 - 1e-3
        assert s.mi_xy > s.mi_y1 + 1e-3

    def test_randomized_decoder(self):
        smooth = ChannelEstimator(Channel((0, 1), (0, 1),
                                          [[0.7, 0.3], [0.4, 0.6]]))
        s = enumerate_chain(Experiment(HALF, bsc(0.1), smooth,
                                       equality_relation()))
        want = 0.5 * (0.9 * 0.7 + 0.1 * 0.4) + 0.5 * (0.1 * 0.3 + 0.9 * 0.6)
        assert s.p_rel == pytest.approx(want, abs=1e-12)

    def test_state_space_cap(self):
        # a map estimator is resolved block by block: 2 * 4^12 blocks. An ML
        # chain is held by type: 2 * C(153, 3) types * 4 symbols at n = 150.
        # At n = 2, 2 * C(101, 99) types * 100 symbols = 1,010,000 is just
        # past the cap, and 2 * C(1000, 998) types * 999 symbols would take
        # gigabytes; counted as types alone both would pass.
        wide = Channel((0, 1), (0, 1, 2, 3), [[0.25] * 4] * 2)
        for channel, est, n in ((wide, MapEstimator({}, (0, 1)), 12),
                                (wide, MLEstimator(), 150),
                                (flat_channel(100), MLEstimator(), 2),
                                (flat_channel(999), MLEstimator(), 2)):
            exp = Experiment(HALF, channel, est, equality_relation(), n_samples=n)
            with pytest.raises(StateSpaceTooLarge):
                enumerate_chain(exp)
            with pytest.raises(StateSpaceTooLarge, match="trials"):
                certify(exp)

    def test_state_space_cap_admits_the_widest_chain_it_counts(self):
        # 2 * C(100, 98) types * 99 symbols = 970,200 terms: under the cap
        s = enumerate_chain(Experiment(HALF, flat_channel(99), MLEstimator(),
                                       equality_relation(), n_samples=2))
        assert s.p_rel == pytest.approx(0.5, abs=1e-12)


class TestComputeBeta:
    def test_frozen_asymmetric_value(self):
        assert compute_beta(ASYM) == pytest.approx(BETA_ASYM, abs=2e-15)

    def test_symmetric_channel_is_symmetric_in_beta(self):
        b = compute_beta(bsc(0.1))
        assert b == pytest.approx(
            0.9 * math.log(9.0) + 0.1 * math.log(1.0 / 9.0), abs=1e-12
        )


class TestEstimators:
    def test_ml_breaks_ties_toward_the_first_input(self):
        tie = Channel((0, 1), (0, 1), [[0.5, 0.5], [0.5, 0.5]])
        s = enumerate_chain(Experiment(HALF, tie, MLEstimator(),
                                       equality_relation()))
        # decoder always answers 0, so it is right half the time
        assert s.p_rel == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (3, 4), (4, 4)])
    def test_ml_exact_ties_go_to_the_first_input(self, m, n):
        # m-ary symmetric channel: every block whose most frequent symbol is
        # shared by several inputs is exactly as likely under each of them
        stay = 0.9
        rows = [[stay if x == y else (1.0 - stay) / (m - 1) for y in range(m)]
                for x in range(m)]
        ch = Channel(tuple(range(m)), tuple(range(m)), rows)
        s = enumerate_chain(Experiment(uniform_distribution(range(m)), ch,
                                       MLEstimator(), equality_relation(),
                                       n_samples=n))
        want = np.zeros((m, m))
        for block in itertools.product(range(m), repeat=n):
            lik = [math.prod(Fraction(ch.matrix[x, y]) for y in block)
                   for x in range(m)]
            pick = lik.index(max(lik))        # first input of the exact maximum
            for x in range(m):
                want[x, pick] += float(lik[x]) / m
        assert np.abs(s.joint_xxhat.weights - want).max() <= 1e-12

    def test_ml_ties_match_on_the_monte_carlo_path(self):
        # BSC(0.1), n = 4: the six blocks with two 0s and two 1s decide 0, so
        # source 1 is decoded as 0 whenever at least two 0s arrive
        exp = Experiment(HALF, bsc(0.1), MLEstimator(), equality_relation(),
                         n_samples=4)
        want = 0.5 * sum(math.comb(4, k) * 0.1 ** k * 0.9 ** (4 - k)
                         for k in (2, 3, 4))
        assert enumerate_chain(exp).joint_xxhat.weights[1, 0] == pytest.approx(
            want, abs=1e-15)
        sim = simulate_chain(exp, 20000, seed=4)
        stderr = math.sqrt(want * (1.0 - want) / 20000)
        assert abs(sim.joint_xxhat.weights[1, 0] - want) < 4 * stderr

    def test_map_value_missing_from_outputs_fails_alike_on_both_paths(self):
        est = MapEstimator({0: 0, 1: 7}, (0, 1))
        exp = Experiment(HALF, bsc(0.1), est, equality_relation())
        for run in (lambda: enumerate_chain(exp), lambda: simulate_chain(exp, 100)):
            with pytest.raises(FanoError, match="value 7 missing from output_labels"):
                run()

    def test_channel_estimator_rows_by_block_then_by_symbol(self):
        # n = 1 looks a block up whole, then by its one symbol; n = 2 whole only
        by_symbol = ChannelEstimator(Channel((0, 1), (0, 1), [[0.0, 1.0], [1.0, 0.0]]))
        flip = enumerate_chain(Experiment(HALF, bsc(0.1), by_symbol, equality_relation()))
        assert flip.p_rel == pytest.approx(0.1, abs=1e-12)
        whole = ChannelEstimator(Channel(((0,), 1), (0, 1), [[1.0, 0.0], [0.0, 1.0]]))
        keep = enumerate_chain(Experiment(HALF, bsc(0.1), whole, equality_relation()))
        assert keep.p_rel == pytest.approx(0.9, abs=1e-12)
        exp = Experiment(HALF, bsc(0.1), by_symbol, equality_relation(), n_samples=2)
        for run in (lambda: enumerate_chain(exp), lambda: simulate_chain(exp, 100)):
            with pytest.raises(FanoError, match=r"no row for observation block \(0, 0\)"):
                run()

    def test_map_estimator_single_symbol_fallback(self):
        flip = MapEstimator({0: 1, 1: 0}, (0, 1))
        assert flip.lookup((0,)) == 1 and flip.lookup((1,)) == 0

    def test_map_estimator_tuple_keys(self):
        vote = MapEstimator(
            {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}, (0, 1)
        )
        assert vote.lookup((0, 1)) == 0

    def test_map_estimator_missing_observation(self):
        with pytest.raises(FanoError):
            MapEstimator({0: 1}, (0, 1)).lookup((2,))

    def test_contrarian_decoder_still_obeys_the_chain(self):
        flip = MapEstimator({0: 1, 1: 0}, (0, 1))
        s = enumerate_chain(Experiment(HALF, bsc(0.1), flip,
                                       equality_relation()))
        assert s.p_rel == pytest.approx(0.1, abs=1e-12)
        # relabeling is lossless: information survives even when accuracy dies
        assert s.mi_xxhat == pytest.approx(s.mi_xy, abs=1e-12)


class TestSimulate:
    def test_same_seed_same_summary(self):
        a = simulate_chain(Experiment(HALF, bsc(0.1), MLEstimator(),
                                      equality_relation()), 20000, seed=4)
        b = simulate_chain(Experiment(HALF, bsc(0.1), MLEstimator(),
                                      equality_relation()), 20000, seed=4)
        assert a.p_rel == b.p_rel and a.mi_xy == b.mi_xy
        assert not a.exact and a.mc_stderr > 0.0

    def test_different_seed_differs(self):
        exp = Experiment(HALF, bsc(0.1), MLEstimator(), equality_relation())
        assert simulate_chain(exp, 20000, seed=4).p_rel != simulate_chain(
            exp, 20000, seed=5
        ).p_rel

    def test_estimate_lands_near_the_enumerated_truth(self):
        exp = Experiment(HALF, bsc(0.1), MLEstimator(), equality_relation())
        exact = enumerate_chain(exp)
        sim = simulate_chain(exp, 20000, seed=4)
        assert abs(sim.p_rel - exact.p_rel) < 4 * sim.mc_stderr
        # information estimates come from the empirical counts; the worst-pair
        # divergence is a property of the channel and stays exact
        assert sim.mi_y1 == pytest.approx(exact.mi_y1, abs=0.05)
        assert sim.mi_y1 != exact.mi_y1
        assert sim.beta == exact.beta


def test_distinct_blocks_hold_past_int64_codes():
    # with symbols this large, m^n block codes would overflow int64 at n = 3
    big = 2 ** 40
    y = np.array([[big, 0, 1], [0, big, 1], [big, 0, 1], [0, 0, 0], [0, big, 1]])
    blocks, index = _distinct_blocks(y)
    assert blocks.tolist() == [[0, 0, 0], [0, big, 1], [big, 0, 1]]
    assert (blocks[index] == y).all()


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 5), rows=st.integers(1, 6), seed=st.integers(0, 2 ** 31 - 1))
def test_inverse_cdf_matches_a_per_row_search(k, rows, seed):
    # the u include every cumulative weight itself (ties) and values past the
    # last one, where the draw is capped at the last index
    rng = philox(seed)
    cum = np.cumsum(rng.dirichlet(np.ones(k), size=rows), axis=1)
    cum[:, -1] *= rng.choice([1.0, 1.0 - 2.0 ** -52], size=rows)
    u = np.concatenate([rng.random((8, rows)), cum.T, np.full((1, rows), 1 - 2.0 ** -53)])
    for draws in u:
        want = [min(np.searchsorted(c, v, side="right"), k - 1)
                for c, v in zip(cum, draws)]
        assert _inverse_cdf(cum, draws).tolist() == want
    assert _inverse_cdf(cum[0], u[:, 0]).tolist() == [
        min(np.searchsorted(cum[0], v, side="right"), k - 1) for v in u[:, 0]]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 40), k=st.integers(1, 6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_column_sums_of_float_weights_are_the_per_row_bincounts(rows, cols, k, seed):
    # float sums are not exact, but each bin adds its entries in column
    # order, as the per-row bincount an exact chain's joint once took
    rng = philox(seed)
    weights = rng.random((rows, cols)) * 10.0 ** rng.integers(-20, 21, size=(rows, cols))
    group = rng.integers(k, size=cols)
    want = np.stack([np.bincount(group, weights=row, minlength=k) for row in weights])
    assert np.array_equal(_column_sums(weights, group, k).view(np.int64),
                          want.view(np.int64))


def ml_picks_per_block(matrix, blocks):
    """The per-block ML decision: every block's sorted terms, summed and
    compared on their own (the reference for the per-type evaluation)."""
    counts = np.stack([(blocks == s).sum(axis=1) for s in range(matrix.shape[1])],
                      axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log(matrix)[:, None, :], 0.0)
    return np.argmax(np.sort(terms, axis=2).sum(axis=2), axis=0)


CHANNEL_KINDS = ["dirichlet", "permuted", "symmetric", "zeros"]


def channel_rows(rng, kind, nx, m):
    """nx channel rows over m symbols, of a kind that stresses the ML tie rule."""
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(m), size=nx)
    if kind == "permuted":                # rows permute each other: exact ties
        row = rng.dirichlet(np.ones(m))
        return np.stack([rng.permutation(row) for _ in range(nx)])
    if kind == "symmetric":               # m-ary symmetric rows, repeated past m
        stay = float(rng.uniform(0.3, 0.9))
        return np.array([[stay if x % m == y else (1 - stay) / (m - 1)
                          for y in range(m)] for x in range(nx)])
    matrix = rng.dirichlet(np.ones(m), size=nx)   # impossible symbols, tied zeros
    matrix[rng.random((nx, m)) < 0.3] = 0.0
    matrix[:, 0] += 1.0 - matrix.sum(axis=1)
    return matrix


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 4), n=st.integers(1, 6), nx=st.integers(1, 4),
       kind=st.sampled_from(CHANNEL_KINDS),
       seed=st.integers(0, 2 ** 31 - 1), subset=st.booleans())
def test_ml_picks_per_type_match_the_per_block_reference(m, n, nx, kind, seed, subset):
    rng = philox(seed)
    matrix = channel_rows(rng, kind, nx, m)
    blocks = np.indices((m,) * n).reshape(n, -1).T
    if subset:                            # Monte Carlo: some blocks, any order
        blocks = blocks[rng.permutation(len(blocks))[:max(1, len(blocks) // 3)]]
    channel = Channel(tuple(range(nx)), tuple(range(m)), matrix)
    _, picks, _ = _resolve_estimator(MLEstimator(), channel, blocks)
    assert np.array_equal(picks, ml_picks_per_block(matrix, blocks))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_types_are_every_count_vector_once(m, n):
    want = sorted(c for c in itertools.product(range(n + 1), repeat=m) if sum(c) == n)
    assert sorted(map(tuple, _types(m, n).tolist())) == want


def unit_mass(W):
    total = math.fsum(W.ravel().tolist())   # rows may miss unit mass by an ulp
    return W / total if total != 1.0 and abs(total - 1.0) <= 1e-9 else W


def block_path(exp):
    """An ML chain over every one of its m^n observation blocks (the reference
    for the type path): each block's likelihood is a product over positions,
    each block is decided on its own, and the joint's sums are exact.
    Returns the blocks, their picks, the X -> Xhat joint and I(X;Y^n)."""
    m, n, nx = len(exp.channel.output_outcomes), exp.n_samples, len(exp.prior)
    blocks = np.indices((m,) * n).reshape(n, -1).T
    joint_blocks = unit_mass(exp.prior.weights[:, None]
                             * _kron_rows(exp.channel.matrix, n))
    picks = ml_picks_per_block(exp.channel.matrix, blocks)
    W = unit_mass(np.array([[math.fsum(row[picks == k]) for k in range(nx)]
                            for row in joint_blocks]))
    return blocks, picks, W, _mi_nats_from_matrix(joint_blocks)


def within_ulps(a, b, k):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(np.abs(a), np.abs(b))
    return bool((np.abs(a - b) <= k * np.spacing(scale)).all())


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 4), n=st.integers(1, 6), nx=st.integers(1, 4),
       kind=st.sampled_from(CHANNEL_KINDS), seed=st.integers(0, 2 ** 31 - 1))
def test_type_path_matches_the_block_path(m, n, nx, kind, seed):
    rng = philox(seed)
    labels = tuple(range(nx))
    exp = Experiment(FiniteDistribution(labels, rng.dirichlet(np.ones(nx))),
                     Channel(labels, tuple(range(m)), channel_rows(rng, kind, nx, m)),
                     MLEstimator(), equality_relation(), n_samples=n)
    s = enumerate_chain(exp)
    blocks, picks, W, mi = block_path(exp)
    types = _types(m, n)
    type_of = {c: j for j, c in enumerate(map(tuple, types.tolist()))}
    block_types = [type_of[tuple(np.bincount(b, minlength=m).tolist())]
                   for b in blocks]
    assert np.array_equal(_ml_picks(exp.channel.matrix, types)[block_types], picks)
    # a few ulp: the two paths round different products; MI is a sum of
    # terms of order one, so its error is counted in ulps of 1
    assert within_ulps(s.joint_xxhat.weights, W, 8)
    assert within_ulps(s.p_rel, math.fsum(np.diag(W).tolist()), 8)
    assert abs(s.mi_xy - mi) <= 8 * math.ulp(1.0)


def exact_mi(prior, matrix, n):
    """I(X;Y^n) at 50 digits from the exact type matrix (prior times
    multinomial likelihood), scaled to unit mass as the chain's joint is."""
    with mpmath.workdps(50):
        types = [c for c in itertools.product(range(n + 1), repeat=matrix.shape[1])
                 if sum(c) == n]
        J = [[mpmath.mpf(float(prior[x]))
              * (math.factorial(n) // math.prod(math.factorial(k) for k in c))
              * mpmath.fprod(mpmath.mpf(float(w)) ** k for w, k in zip(matrix[x], c))
              for c in types] for x in range(len(prior))]
        total = mpmath.fsum(v for r in J for v in r)
        J = [[v / total for v in r] for r in J]
        rows = [mpmath.fsum(r) for r in J]
        cols = [mpmath.fsum(c) for c in zip(*J)]
        return mpmath.fsum(J[x][j] * mpmath.log(J[x][j] / (rows[x] * cols[j]))
                           for x in range(len(J)) for j in range(len(cols)) if J[x][j] > 0)


@pytest.mark.parametrize("prior, rows", [
    ((0.5, 0.5), ((0.9, 0.1), (0.2, 0.8))),
    ((0.3, 0.7), ((0.6, 0.4), (0.45, 0.55))),
])
def test_binary_chain_at_n50_matches_mpmath(prior, rows):
    exp = Experiment(FiniteDistribution((0, 1), prior), Channel((0, 1), (0, 1), rows),
                     MLEstimator(), equality_relation(), n_samples=50)
    want = exact_mi(exp.prior.weights, exp.channel.matrix, 50)
    got = enumerate_chain(exp).mi_xy
    with mpmath.workdps(50):
        assert abs(got - want) <= 4 * math.ulp(float(want))


def test_type_path_is_no_less_accurate_than_the_block_path():
    # fixed random 4 x 4 chains at n = 5 and 6, against 50-digit values
    worst = {"type": 0.0, "block": 0.0}
    for n, seed in itertools.product((5, 6), range(12)):
        exp = random_experiment(seed, nx=4, ny=4, n=n)
        want = exact_mi(exp.prior.weights, exp.channel.matrix, n)
        got = {"type": enumerate_chain(exp).mi_xy, "block": block_path(exp)[3]}
        with mpmath.workdps(50):
            for path, value in got.items():
                worst[path] = max(worst[path],
                                  float(abs(value - want) / math.ulp(float(want))))
    assert worst["type"] <= worst["block"], worst


def test_monte_carlo_plug_in_information_matches_a_counting_reference():
    # the plug-in I(X;Y^n) from per-block counts, recomputed trial by trial
    # from the same stream (x first, then one uniform per position)
    exp = Experiment(HALF, bsc(0.2), MLEstimator(), equality_relation(),
                     n_samples=3)
    trials = 3000
    rng = philox(6)
    x = np.searchsorted(np.cumsum(exp.prior.weights), rng.random(trials), "right")
    u = rng.random((3, trials))
    blocks = [tuple(int(u[k, j] >= exp.channel.matrix[x[j], 0]) for k in range(3))
              for j in range(trials)]
    pairs = Counter(zip(x.tolist(), blocks))
    xs, ys = Counter(x.tolist()), Counter(blocks)
    want = math.fsum(c / trials * math.log(c * trials / (xs[a] * ys[b]))
                     for (a, b), c in pairs.items())
    assert simulate_chain(exp, trials, seed=6).mi_xy == pytest.approx(want, abs=1e-12)


def reference_inverse_cdf(cum, u):
    """One draw per u: a rows x columns mask, reduced and capped."""
    return np.minimum((cum <= u[:, None]).sum(axis=1), cum.shape[-1] - 1)


def reference_distinct_blocks(y):
    """Distinct rows of y by a lexsort over every column."""
    order = np.lexsort(y.T[::-1])
    y = y[order]
    first = np.ones(len(y), dtype=bool)
    first[1:] = (y[1:] != y[:-1]).any(axis=1)
    index = np.empty(len(y), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return y[first], index


def reference_simulate_chain(exp, trials, seed):
    """The Monte Carlo chain with fancy-index gathers, mask-reduced draws,
    lexsorted blocks and np.add.at tallies (the reference for the fast path)."""
    rng = philox(seed)
    nx = len(exp.prior)
    m = len(exp.channel.output_outcomes)
    n = exp.n_samples
    x_idx = reference_inverse_cdf(np.cumsum(exp.prior.weights), rng.random(trials))
    cum_y = np.cumsum(exp.channel.matrix, axis=1)[x_idx]
    y = np.empty((trials, n), dtype=np.intp)
    for kk in range(n):
        y[:, kk] = reference_inverse_cdf(cum_y, rng.random(trials))
    blocks, block_of = reference_distinct_blocks(y)
    xhat_labels, picks, E = _resolve_estimator(exp.estimator, exp.channel, blocks)
    if picks is not None:
        xhat_idx = picks[block_of]
    else:
        xhat_idx = reference_inverse_cdf(np.cumsum(E, axis=1)[block_of],
                                         rng.random(trials))
    counts = np.zeros((nx, len(xhat_labels)))
    np.add.at(counts, (x_idx, xhat_idx), 1.0)
    W = counts / trials
    joint = JointDistribution(exp.prior.outcomes, xhat_labels, W)
    p_rel = event_probability(joint, exp.relation)
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
        mc_stderr=math.sqrt(max(p_rel * (1.0 - p_rel), 0.0) / trials),
    )


def summary_bits(s):
    """Every field of a summary, floats as their exact bits."""
    fields = [getattr(s, f.name) for f in dataclasses.fields(s) if f.name != "joint_xxhat"]
    joint = s.joint_xxhat
    return (joint.weights.tobytes(), joint.row_outcomes, joint.col_outcomes,
            [v.hex() if isinstance(v, float) else v for v in fields])


def sampled_experiment(rng, nx, m, n, estimator, zeros):
    """A chain of the given shape; with zeros, prior, channel and estimator
    rows may hold zero weights."""
    kind = "zeros" if zeros else "dirichlet"
    prior = channel_rows(rng, kind, 1, nx)[0]
    channel = Channel(tuple(range(nx)), tuple(range(m)), channel_rows(rng, kind, nx, m))
    if estimator == "ml":
        est = MLEstimator()
    elif estimator == "map":
        est = MapEstimator({b: int(rng.integers(nx))
                            for b in itertools.product(range(m), repeat=n)},
                           tuple(range(nx)))
    else:
        inputs = tuple(range(m)) if n == 1 else tuple(
            itertools.product(range(m), repeat=n))
        est = ChannelEstimator(Channel(inputs, ("a", "b", "c"),
                                       channel_rows(rng, kind, len(inputs), 3)))
    return Experiment(FiniteDistribution(tuple(range(nx)), prior), channel, est,
                      equality_relation(), n_samples=n)


@settings(max_examples=300, deadline=None)
@given(k=st.one_of(st.integers(1, 6), st.sampled_from([256, 257])),
       rows=st.integers(1, 5), trials=st.integers(1, 40), draws=st.integers(1, 4),
       zeros=st.booleans(), short=st.booleans(), seed=st.integers(0, 2 ** 31 - 1))
def test_inverse_cdf_matches_the_reference(k, rows, trials, draws, zeros, short, seed):
    # zero weights repeat cumulative values, short rows end below 1, and about
    # half the u are a threshold of their own row exactly; every row of u is a
    # draw over the trials, trial t reading row row_of[t] of cum
    rng = philox(seed)
    weights = rng.dirichlet(np.ones(k), size=rows)
    if zeros:
        weights[rng.random((rows, k)) < 0.4] = 0.0
    if short:
        weights *= rng.choice([1.0 - 2.0 ** -52, 0.999, 0.5], size=(rows, 1))
    cum = np.cumsum(weights, axis=1)
    row_of = rng.integers(0, rows, size=trials)
    u = rng.random((draws, trials))
    u[rng.random(u.shape) < 0.1] = 1.0 - 2.0 ** -53
    hit = rng.random(u.shape) < 0.5
    u[hit] = cum[row_of, rng.integers(0, k, size=u.shape)][hit]
    got = _inverse_cdf(cum, u, row_of)
    assert got.shape == u.shape
    assert got.tolist() == [reference_inverse_cdf(cum[row_of], draw).tolist()
                            for draw in u]
    # the prior's case: one row for every u
    assert (_inverse_cdf(cum[0], u[0]).tolist()
            == reference_inverse_cdf(cum[0], u[0]).tolist())


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 6), nx=st.integers(1, 4),
       estimator=st.sampled_from(["ml", "map", "channel"]), zeros=st.booleans(),
       trials=st.sampled_from([1, 2, 37, 2000]), seed=st.integers(0, 2 ** 31 - 1))
@example(m=4, n=3, nx=4, estimator="ml", zeros=False, trials=20_000, seed=1)
@example(m=4, n=3, nx=4, estimator="map", zeros=True, trials=20_000, seed=2)
@example(m=3, n=1, nx=3, estimator="channel", zeros=False, trials=20_000, seed=3)
@example(m=4, n=3, nx=4, estimator="channel", zeros=True, trials=20_000, seed=4)
# 4^8 codes fill _numbered's dense table; 4^9 are too sparse for one at 2,000 keys
@example(m=4, n=8, nx=3, estimator="ml", zeros=False, trials=2000, seed=5)
@example(m=4, n=9, nx=3, estimator="ml", zeros=True, trials=2000, seed=6)
@example(m=4, n=8, nx=2, estimator="channel", zeros=False, trials=2000, seed=7)
@example(m=4, n=9, nx=2, estimator="channel", zeros=False, trials=2000, seed=8)
def test_simulate_chain_matches_the_reference_bit_for_bit(m, n, nx, estimator, zeros,
                                                          trials, seed):
    exp = sampled_experiment(philox(seed, 1), nx, m, n, estimator, zeros)
    assert summary_bits(simulate_chain(exp, trials, seed)) == summary_bits(
        reference_simulate_chain(exp, trials, seed))


def test_simulate_chain_matches_the_reference_past_int64_codes():
    # 4^40 block codes pass int64, so the codes are re-ranked on the way
    exp = sampled_experiment(philox(3), 4, 4, 40, "ml", zeros=False)
    assert summary_bits(simulate_chain(exp, 5000, 9)) == summary_bits(
        reference_simulate_chain(exp, 5000, 9))


@pytest.mark.parametrize("n, estimator, group", [
    (5, "channel", 1), (5, "channel", 400), (5, "map", 1000), (40, "ml", 1400)])
def test_draws_made_a_group_at_a_time_keep_the_stream(monkeypatch, n, estimator, group):
    # at 200 trials: groups of one draw, of two (the last one short), all
    # five at once, and past int64 groups of seven (the last of five)
    monkeypatch.setattr(chains, "DRAW_GROUP", group)
    exp = sampled_experiment(philox(n, group), 3, 4, n, estimator, zeros=True)
    assert summary_bits(simulate_chain(exp, 200, 11)) == summary_bits(
        reference_simulate_chain(exp, 200, 11))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 40),
       columns=st.lists(st.tuples(st.sampled_from([-2 ** 60, -3, 0, 2 ** 60]),
                                  st.sampled_from([0, 1, 5, 2 ** 40])),
                        min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 31 - 1))
def test_distinct_blocks_match_the_lexsort_reference(rows, columns, seed):
    # a few values per column, so rows repeat; columns of span 2^40 push the
    # codes past int64 from the third on, and far-off values must not
    rng = philox(seed)
    y = np.stack([rng.choice(rng.integers(low, low + width + 1, size=3), size=rows)
                  for low, width in columns], axis=1)
    blocks, index = _distinct_blocks(y)
    want_blocks, want_index = reference_distinct_blocks(y)
    assert blocks.dtype == want_blocks.dtype
    assert np.array_equal(blocks, want_blocks) and np.array_equal(index, want_index)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 40), rows=st.integers(1, 400),
       pool=st.integers(1, 60), seed=st.integers(0, 2 ** 31 - 1))
@example(m=4, n=40, rows=400, pool=60, seed=0)
@example(m=4, n=32, rows=20_000, pool=3_000, seed=1)
def test_distinct_blocks_match_np_unique(m, n, rows, pool, seed):
    # blocks of n draws from m symbols, as simulate_chain makes them, drawn
    # from a pool so that they repeat; 4^40 codes pass int64, so at m = 4,
    # n = 40 they are re-ranked on the way
    rng = philox(seed)
    y = rng.integers(0, m, size=(pool, n))[rng.integers(0, pool, size=rows)]
    blocks, index = _distinct_blocks(y)
    want_blocks, want_index = np.unique(y, axis=0, return_inverse=True)
    assert np.array_equal(blocks, want_blocks)
    assert np.array_equal(index, want_index.ravel())


class TestCertify:
    def test_exact_report_set_for_a_distance_relation(self):
        prior = uniform_distribution((0, 1, 2))
        ch = Channel((0, 1, 2), (0, 1, 2),
                     [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        exp = Experiment(prior, ch, MLEstimator(),
                         DistanceRelation(metric_from_name("abs"), 0))
        reports = certify(exp)
        assert [r.instance_id for r in reports] == [
            "relation-mi-reconstruction",
            "relation-mi-observation",
            "samples-mi-per-use",
            "samples-worst-pair",
            "entropy-version",
            "distance",
            "distance-mi",
        ]
        assert all(r.holds for r in reports)

    def test_distance_bounds_need_a_uniform_prior_on_the_source_alphabet(self):
        ch = Channel((0, 1, 2), (0, 1, 2),
                     [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        rel = DistanceRelation(metric_from_name("abs"), 0)
        skewed = Experiment(FiniteDistribution((0, 1, 2), (0.5, 0.3, 0.2)), ch,
                            MLEstimator(), rel)
        foreign = Experiment(uniform_distribution((0, 1, 2)), ch,
                             MapEstimator({(y,): y + 1 for y in range(3)}, (1, 2, 3)),
                             rel)
        for exp in (skewed, foreign):
            ids = [r.instance_id for r in certify(exp)]
            assert ids[-1] == "entropy-version"
            assert "distance" not in ids and "distance-mi" not in ids

    def test_binary_equality_window_saturates(self):
        # p_min + p_max = 1 rules out every occupancy-window report; only the
        # entropy version survives
        reports = certify(Experiment(HALF, bsc(0.1), MLEstimator(),
                                     equality_relation()))
        assert [r.instance_id for r in reports] == ["entropy-version"]

    def test_monte_carlo_reports(self):
        reports = certify(noisy_three(), trials=5000, seed=9)
        assert [r.instance_id for r in reports] == [
            "samples-mi-per-use",
            "samples-worst-pair",
        ]
        assert all(r.holds for r in reports)
        assert "Monte Carlo" in reports[0].notes
        assert "standard errors" in reports[0].notes

    def test_monte_carlo_is_reproducible(self):
        a = certify(noisy_three(), trials=5000, seed=9)
        b = certify(noisy_three(), trials=5000, seed=9)
        assert [r.observed for r in a] == [r.observed for r in b]


class TestRandomExperiment:
    def test_deterministic_in_the_seed(self):
        a = random_experiment(5)
        b = random_experiment(5)
        assert (a.prior.weights == b.prior.weights).all()
        assert (a.channel.matrix == b.channel.matrix).all()

    def test_estimator_kinds(self):
        assert isinstance(random_experiment(6, estimator_kind="ml").estimator,
                          MLEstimator)
        assert isinstance(random_experiment(6, estimator_kind="map").estimator,
                          MapEstimator)

    def test_summaries_always_pass_the_internal_checks(self):
        for seed in range(25):
            exp = random_experiment(seed, nx=3, ny=4)
            s = enumerate_chain(exp)
            assert s.mi_xxhat <= s.mi_xy + 1e-10


class TestJsonLoaders:
    def test_estimator_kinds(self):
        assert isinstance(estimator_from_json({"kind": "ml"}), MLEstimator)
        est = estimator_from_json(
            {"kind": "map", "pairs": [[0, 1], [1, 0]], "outputs": [0, 1]}
        )
        assert est.lookup((0,)) == 1
        ce = estimator_from_json(
            {"kind": "channel",
             "channel": {"inputs": [0], "outputs": [0], "rows": [[1.0]]}}
        )
        assert isinstance(ce, ChannelEstimator)

    def test_map_outputs_default_to_the_targets_seen(self):
        est = estimator_from_json({"kind": "map", "pairs": [[0, "a"], [1, "b"]]})
        assert est.output_labels == ("a", "b")

    def test_map_outputs_keep_the_first_of_equal_targets(self):
        # 1, 1.0 and True are one label, as are 0.0 and False, and (1, 2)
        # and (1.0, 2): the first seen stands for each, as the list scan
        # the outputs came from before kept it
        pairs = [[0, 1], [1, "a"], [2, 1.0], [3, True], [4, 0.0], [5, False],
                 [6, [1, 2]], [7, [1.0, 2]], [8, "a"]]
        est = estimator_from_json({"kind": "map", "pairs": pairs})
        seen = []
        for value in est.mapping.values():
            if value not in seen:
                seen.append(value)
        assert est.output_labels == tuple(seen) == (1, "a", 0.0, (1, 2))
        assert [type(v) for v in est.output_labels] == [type(v) for v in seen] == [
            int, str, float, tuple]
        assert type(est.output_labels[3][0]) is int

    def test_bad_estimators(self):
        with pytest.raises(FanoError):
            estimator_from_json({"kind": "map"})
        with pytest.raises(FanoError):
            estimator_from_json({"kind": "nope"})
        with pytest.raises(FanoError):
            estimator_from_json({})

    BINARY = {
        "prior": {"outcomes": [0, 1], "weights": [0.5, 0.5]},
        "channel": {"inputs": [0, 1], "outputs": [0, 1],
                    "rows": [[0.9, 0.1], [0.2, 0.8]]},
        "estimator": {"kind": "ml"},
        "relation": {"kind": "equality"},
    }

    def test_experiment_round_trip(self):
        exp = experiment_from_json(dict(self.BINARY, n=2))
        assert exp.n_samples == 2
        s = enumerate_chain(exp)
        assert s.exact and 0.0 <= s.p_rel <= 1.0

    def test_an_integral_float_sample_count_is_whole(self):
        exp = experiment_from_json(dict(self.BINARY, n=3.0))
        assert exp.n_samples == 3 and type(exp.n_samples) is int

    @pytest.mark.parametrize("n", [2.7, True, "3"])
    def test_sample_counts_are_refused_not_truncated(self, n):
        # int() used to run these as n = 2, 1 and 3
        with pytest.raises(FanoError, match="^n: must be a whole number"):
            experiment_from_json(dict(self.BINARY, n=n))
        with pytest.raises(FanoError, match="^n: must be a whole number"):
            Experiment(HALF, bsc(0.1), MLEstimator(), equality_relation(), n_samples=n)


class TestSamplesBound:
    def test_it_lives_in_the_chain_layer_with_its_signature(self):
        assert fanokit.independent_samples_bound is chains.independent_samples_bound
        assert list(inspect.signature(chains.independent_samples_bound).parameters) == [
            "prior", "channel", "n", "estimator", "rel", "bounds", "base", "tolerance"]

    def test_the_bound_layer_imports_nothing_from_the_chain_layer(self):
        imported = []
        for node in ast.walk(ast.parse(inspect.getsource(bounds))):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.append(node.module)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported += [alias.name for alias in node.names]
        assert imported and not any("chains" in name.split(".") for name in imported)

    def test_an_exact_certify_enumerates_once_and_computes_beta_once(self, monkeypatch):
        # the samples bound reads certify's own summary (in nats), beta
        # included, instead of enumerating the chain again; every enumeration,
        # enumerate_chain's included, runs through _enumerate
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_enumerate", "compute_beta"):
            monkeypatch.setattr(chains, name, counting(name, getattr(chains, name)))
        ids = [r.instance_id for r in certify(noisy_three())]
        assert "samples-mi-per-use" in ids
        assert calls == {"_enumerate": 1, "compute_beta": 1}


# radius 1 on these labels: balls {0, 1}, {0, 1}, {3} and {6}, so every
# prior leaves the occupancy window open
SAMPLES_DISTANCE_LABELS = (0, 1, 3, 6)


def samples_chain(seed, nx, ny, n, estimator, relation, base):
    """Random exact chain with an ML, map or channel estimator."""
    rng = philox(seed)
    labels = SAMPLES_DISTANCE_LABELS[:nx] if relation == "distance" else tuple(range(nx))
    prior = FiniteDistribution(labels, rng.dirichlet(np.ones(nx)))
    channel = Channel(labels, tuple(range(ny)), rng.dirichlet(np.ones(ny), size=nx))
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
    rel = (DistanceRelation(metric_from_name("abs"), 1.0) if relation == "distance"
           else equality_relation())
    return Experiment(prior, channel, est, rel, n_samples=n, base=base)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), nx=st.integers(3, 4), ny=st.integers(2, 3),
       n=st.integers(1, 6), estimator=st.sampled_from(["ml", "map", "channel"]),
       relation=st.sampled_from(["equality", "distance"]),
       base=st.sampled_from([math.e, 2.0, 10.0]))
@example(seed=5, nx=3, ny=2, n=3, estimator="ml", relation="equality", base=2.0)
def test_certify_reports_the_samples_bound_of_its_own_chain_bitwise(
        seed, nx, ny, n, estimator, relation, base):
    # certify hands its summary, in nats, to the samples bound; a summary in
    # the experiment's base would move bound_value, slack, feasible_sup and
    # divergence
    if relation == "distance":
        nx = 4
    exp = samples_chain(seed, nx, ny, n, estimator, relation, base)
    got = {r.instance_id: r for r in certify(exp)}["samples-mi-per-use"]
    want = independent_samples_bound(exp.prior, exp.channel, n, exp.estimator,
                                     exp.relation, base=base)
    names = [f.name for f in dataclasses.fields(want) if f.name != "instance_id"]
    assert ([repr(getattr(got, name)) for name in names]
            == [repr(getattr(want, name)) for name in names])


def test_fabricated_summaries_are_rejected():
    # an exact summary claiming the decoder knows more than the observation
    # contradicts data processing and must not construct
    base = enumerate_chain(Experiment(HALF, bsc(0.1), MLEstimator(),
                                      equality_relation()))
    with pytest.raises(InconsistentBounds):
        ChainSummary(base.joint_xxhat, 0.9, 0.1, 0.1, 0.5, 0.2, 1.0, True)
