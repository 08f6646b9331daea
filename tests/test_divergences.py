"""Order-alpha divergences, entropies, and mutual information.

Reference values were computed once with mpmath at 50 digits and frozen.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import dirichlet_pair, philox
from fanokit import (
    FiniteDistribution,
    JointDistribution,
    binary_entropy,
    binary_kl,
    binary_renyi_divergence,
    binary_renyi_entropy,
    conditional_entropy,
    entropy,
    kl_divergence,
    mutual_information,
    renyi_divergence,
    uniform_distribution,
)
from fanokit.divergences import (
    FSUM_LOOP_COLUMNS,
    FSUM_LOOP_ENTRIES,
    _binary_entropy_nats,
    _binary_renyi_entropy_nats,
    _column_fsums,
    _kl_nats,
    _scale,
)
from fanokit.errors import MismatchedOutcomeSets, NegativeAlpha, OutOfRangeProbability

# mpmath, 50 digits
KL_09_02 = 1.145725502930663073210763
KL_02_09 = 1.362737753988613927926705
MI_TILTED = 0.1927447570217574298840442

P_37 = FiniteDistribution((0, 1), (0.3, 0.7))
Q_64 = FiniteDistribution((0, 1), (0.6, 0.4))


def test_identical_inputs_give_exact_zero():
    a = FiniteDistribution(("x", "y", "z"), (0.2, 0.3, 0.5))
    b = FiniteDistribution(("x", "y", "z"), (0.2, 0.3, 0.5))
    for alpha in (0.25, 0.5, 2.0, 4.0, math.inf):
        assert renyi_divergence(a, b, alpha) == 0.0
    assert kl_divergence(a, b) == 0.0


def test_kl_frozen_values():
    assert binary_kl(0.9, 0.2) == pytest.approx(KL_09_02, abs=2e-15)
    assert binary_kl(0.2, 0.9) == pytest.approx(KL_02_09, abs=2e-15)


def test_binary_kernels_match_two_atom_general_case_bitwise():
    for alpha in (0.25, 0.5, 2.0, 4.0):
        assert binary_renyi_divergence(0.3, 0.6, alpha) == renyi_divergence(
            P_37, Q_64, alpha
        )
    assert binary_kl(0.3, 0.6) == kl_divergence(P_37, Q_64)


def test_order_two_closed_form():
    # ln sum p^2/q
    want = math.log(0.3 ** 2 / 0.6 + 0.7 ** 2 / 0.4)
    assert renyi_divergence(P_37, Q_64, 2.0) == pytest.approx(want, abs=1e-15)


def test_order_zero_is_support_mass():
    P = FiniteDistribution((0, 1, 2), (0.5, 0.5, 0.0))
    Q = FiniteDistribution((0, 1, 2), (0.25, 0.25, 0.5))
    assert renyi_divergence(P, Q, 0.0) == pytest.approx(math.log(2), abs=1e-15)


def test_order_infinity_is_log_max_ratio():
    assert renyi_divergence(P_37, Q_64, math.inf) == pytest.approx(
        math.log(0.7 / 0.4), abs=1e-15
    )


def test_near_one_orders_route_to_kl():
    kl = kl_divergence(P_37, Q_64)
    for alpha in (1.0, 1.0 + 1e-10, 1.0 - 1e-10):
        assert renyi_divergence(P_37, Q_64, alpha) == kl


def test_mass_escaping_the_reference_support():
    P = FiniteDistribution((0, 1), (0.5, 0.5))
    Q = FiniteDistribution((0, 1), (1.0, 0.0))
    assert renyi_divergence(P, Q, 2.0) == math.inf
    assert kl_divergence(P, Q) == math.inf
    # below order one the escaping atom drops out instead
    assert renyi_divergence(P, Q, 0.5) == pytest.approx(math.log(2), abs=1e-15)


def test_base_conversion_is_a_single_division():
    nats = renyi_divergence(P_37, Q_64, 2.0)
    assert renyi_divergence(P_37, Q_64, 2.0, base=2) == nats / math.log(2)
    assert binary_entropy(0.5, base=2) == 1.0


def test_order_monotonicity_on_a_fixed_pair():
    values = [
        renyi_divergence(P_37, Q_64, a) for a in (0.25, 0.5, 1.0, 2.0, 4.0, math.inf)
    ]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


@settings(derandomize=True, max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(2, 5), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_divergence_is_nonnegative(seed, k, alpha):
    P, Q = dirichlet_pair(seed, k)
    assert renyi_divergence(P, Q, alpha) >= 0.0
    assert kl_divergence(P, Q) >= 0.0


def test_rejects_bad_arguments():
    with pytest.raises(NegativeAlpha):
        renyi_divergence(P_37, Q_64, -0.5)
    for alpha in ("kl", None, "two"):
        with pytest.raises(NegativeAlpha, match="^alpha: order must be a number"):
            renyi_divergence(P_37, Q_64, alpha)
    with pytest.raises(MismatchedOutcomeSets):
        renyi_divergence(P_37, FiniteDistribution((5, 6), (0.6, 0.4)), 2.0)
    with pytest.raises(OutOfRangeProbability):
        renyi_divergence(P_37, Q_64, 2.0, base=1.0)
    with pytest.raises(OutOfRangeProbability):
        binary_kl(1.2, 0.5)


class TestEntropies:
    def test_uniform_entropy_is_log_cardinality(self):
        assert entropy(uniform_distribution((0, 1, 2, 3))) == math.log(4)
        assert entropy(uniform_distribution(tuple(range(5)))) == pytest.approx(
            math.log(5), abs=1e-15
        )

    def test_point_mass_entropy_is_zero(self):
        assert entropy(FiniteDistribution((0, 1), (1.0, 0.0))) == 0.0

    def test_binary_order_entropy_special_orders(self):
        assert binary_renyi_entropy(0.3, 0.0) == math.log(2)
        assert binary_renyi_entropy(0.3, math.inf) == pytest.approx(
            -math.log(0.7), abs=1e-15
        )
        assert binary_renyi_entropy(0.3, 1.0) == binary_entropy(0.3)
        assert binary_renyi_entropy(0.3, 2.0) == pytest.approx(
            -math.log(0.3 ** 2 + 0.7 ** 2), abs=1e-15
        )
        assert binary_renyi_entropy(0.0, 0.5) == 0.0
        assert binary_renyi_entropy(1.0, 4.0) == 0.0


class TestJointInformation:
    tilted = JointDistribution((0, 1), (0, 1), [[0.4, 0.1], [0.1, 0.4]])

    def test_mutual_information_frozen_value(self):
        assert mutual_information(self.tilted) == pytest.approx(MI_TILTED, abs=1e-15)

    def test_product_joint_has_vanishing_information(self):
        prod = JointDistribution((0, 1), (0, 1), [[0.18, 0.42], [0.12, 0.28]])
        mi = mutual_information(prod)
        assert 0.0 <= mi <= 1e-12

    def test_diagonal_joint(self):
        eye = JointDistribution(
            (0, 1, 2, 3),
            (0, 1, 2, 3),
            [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)],
        )
        assert conditional_entropy(eye) == 0.0
        assert mutual_information(eye) == pytest.approx(math.log(4), abs=1e-15)

    def test_conditioning_on_an_independent_column_keeps_full_entropy(self):
        prod = JointDistribution((0, 1), (0, 1), [[0.18, 0.42], [0.12, 0.28]])
        assert conditional_entropy(prod) == pytest.approx(
            binary_entropy(0.6), abs=1e-12
        )

    def test_information_in_bits(self):
        assert mutual_information(self.tilted, base=2) == mutual_information(
            self.tilted
        ) / math.log(2)


def test_event_level_binary_reduction_spot_check():
    # grouping outcomes into {event, complement} can only lose divergence
    P = FiniteDistribution((0, 1, 2), (0.5, 0.25, 0.25))
    Q = FiniteDistribution((0, 1, 2), (0.2, 0.3, 0.5))
    for alpha in (0.25, 0.5, 2.0, 4.0):
        full = renyi_divergence(P, Q, alpha)
        coarse = binary_renyi_divergence(0.5, 0.2, alpha)
        assert full >= coarse - 1e-12
    assert kl_divergence(P, Q) >= binary_kl(0.5, 0.2) - 1e-12


# -- vectorised column sums and the check-free entropy helpers -----------------

def _ties():
    # multiples of 2^-4, some moved by an ulp: sums land on and beside the
    # midpoints between neighbouring floats
    return st.builds(lambda k, step: np.nextafter(k / 16.0, np.inf * step)
                     if step else k / 16.0,
                     st.integers(-64, 64), st.sampled_from([-1, 0, 1]))


COLUMN_ENTRIES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-1e300, 1e300),
    _ties(),
    st.floats(-1e-307, 1e-307),                  # subnormals and their neighbours
    st.sampled_from([0.0, -0.0, 2.0 ** -53, 2.0 ** -106, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda rows: st.lists(
    st.lists(COLUMN_ENTRIES, min_size=rows, max_size=rows), min_size=1, max_size=12)))
@example([[1.0, 2.0 ** -53, 2.0 ** -106]])      # s + err is a tie; the rest breaks it
@example([[0.0, -0.0], [-0.0, -0.0]])
def test_column_fsums_equal_fsum_bitwise(columns):
    # repeated past the loop threshold, so the vector path sums them
    columns = columns * (FSUM_LOOP_COLUMNS // len(columns) + 1)
    W = np.array(columns, dtype=float).T
    want = np.array([math.fsum(col) for col in columns])
    assert np.array_equal(_column_fsums(W).view(np.int64), want.view(np.int64))


def _hard_sums(seed: int, rows: int, cols: int, kind: str) -> np.ndarray:
    """rows x cols entries whose column sums are hard to round correctly."""
    rng = philox(seed)
    size = (rows, cols)
    if kind == "mixed":          # both signs, 120 binades
        return rng.normal(size=size) * 2.0 ** rng.integers(-60, 60, size=size)
    if kind == "cancelling":     # +x and -x shuffled, plus a few small terms
        x = rng.normal(size=(rows // 2, cols)) * 2.0 ** rng.integers(0, 40, (rows // 2, cols))
        W = np.concatenate([x, -x, np.zeros((rows % 2, cols))])
        W[rng.integers(rows, size=3)] += rng.normal(size=(3, cols)) * 2.0 ** -30
        return rng.permuted(W, axis=0)
    if kind == "subnormal":      # multiples of the smallest subnormal, a few normals
        W = rng.integers(-2 ** 40, 2 ** 40, size=size) * 2.0 ** -1074
        W[rng.integers(rows, size=2)] = rng.normal(size=(2, cols)) * 2.0 ** -1000
        return W
    if kind == "tie-broken":     # a + a 2^-53 is a tie, a 2^-106 breaks it: only
        W = np.zeros(size)       # the fallback rounds it right (when it breaks up)
        a = rng.choice([-1.0, 1.0], size=cols) * 2.0 ** rng.integers(-60, 60, size=cols)
        W[:3] = (np.array([[1.0], [2.0 ** -53], [2.0 ** -106]]) * a)[:rows]
        W[2:3] *= rng.choice([-1.0, 1.0], size=cols)
        return W
    # "ties": multiples of 2^-4 moved by an ulp or not; sums land on midpoints
    W = rng.integers(-64, 65, size=size) / 16.0
    step = rng.integers(-1, 2, size=size)
    return np.where(step == 0, W, np.nextafter(W, np.where(step > 0, np.inf, -np.inf)))


HARD_KINDS = st.sampled_from(["mixed", "cancelling", "subnormal", "ties", "tie-broken"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=HARD_KINDS, shape=st.one_of(
    st.tuples(st.integers(10_000, 100_000), st.integers(1, 4)),         # few long sums
    st.tuples(st.integers(1, 8), st.integers(FSUM_LOOP_COLUMNS, 2_000)),  # many short ones
))
@example(seed=3, kind="tie-broken", shape=(2 ** 14 + 3, 3))
@example(seed=3, kind="tie-broken", shape=(3, 300))
def test_column_fsums_equal_fsum_bitwise_on_long_and_wide_matrices(seed, kind, shape):
    assert FSUM_LOOP_ENTRIES <= 10_000      # so every long shape takes the vector path
    W = _hard_sums(seed, *shape, kind)
    want = np.array([math.fsum(col) for col in W.T.tolist()])
    assert np.array_equal(_column_fsums(W).view(np.int64), want.view(np.int64))
    assert np.array_equal(_column_fsums(np.asfortranarray(W)).view(np.int64),
                          want.view(np.int64))


SWEEP_ORDERS = (0.25, 0.5, 2.0, 4.0)


@pytest.mark.parametrize("alpha", SWEEP_ORDERS + (0.0, 1.0, 1.0 + 1e-10, math.inf))
def test_private_entropy_helpers_equal_the_public_functions_bitwise(alpha):
    grid = [i / 1024 for i in range(1025)] + [1e-300, 1e-17, 1.0 - 1e-16]
    for p in grid:
        assert _binary_entropy_nats(p).hex() == binary_entropy(p).hex()
        assert (_binary_renyi_entropy_nats(p, alpha).hex()
                == binary_renyi_entropy(p, alpha).hex())


# -- KL is the order-1 divergence ------------------------------------------------

# raw weights with zero atoms and tiny masses, normalised before use
KL_WEIGHTS = st.sampled_from([0.0, 0.0, 1e-300, 1e-12, 0.5, 1.0, 2.0, 3.0])
KL_BASES = st.sampled_from([math.e, 2.0, 10.0, 1.5])


def _distribution(raw):
    total = math.fsum(raw)
    return FiniteDistribution(tuple(range(len(raw))), [w / total for w in raw])


def _kl_before_the_fold(P, Q, base):
    """kl_divergence's body before it became the order-1 call."""
    if np.array_equal(P.weights, Q.weights):
        return 0.0
    return _scale(_kl_nats(list(zip(P.weights.tolist(), Q.weights.tolist()))), base)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
           st.lists(KL_WEIGHTS, min_size=k, max_size=k).filter(any),
           st.lists(KL_WEIGHTS, min_size=k, max_size=k).filter(any))),
       KL_BASES, st.booleans())
@example(([0.0, 1.0], [0.0, 1.0]), math.e, False)       # P = Q with a zero atom
def test_kl_divergence_is_the_order_one_divergence_bitwise(raw, base, same):
    P = _distribution(raw[0])
    Q = P if same else _distribution(raw[1])
    got = kl_divergence(P, Q, base)
    assert got.hex() == renyi_divergence(P, Q, 1.0, base).hex()
    assert got.hex() == _kl_before_the_fold(P, Q, base).hex()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
       st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
       KL_BASES, st.booleans())
@example(0.3, 0.3, math.e, False)
@example(1.0, 0.0, 2.0, False)
def test_binary_kl_is_the_order_one_binary_divergence_bitwise(p, q, base, same):
    q = p if same else q
    got = binary_kl(p, q, base)
    assert got.hex() == binary_renyi_divergence(p, q, 1.0, base).hex()
    want = 0.0 if p == q else _scale(_kl_nats(((p, q), (1.0 - p, 1.0 - q))), base)
    assert got.hex() == want.hex()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([0.0, 1.0, 0.5, 5e-324, 2.0 ** -1040, 1.0 - 2.0 ** -53]),
                 st.floats(0.0, 1.0)),
       st.sampled_from([2.0, math.e, 10.0]))
@example(0.0, 2.0)
@example(1.0, 10.0)
@example(5e-324, math.e)
def test_binary_entropy_is_the_order_one_binary_entropy_bitwise(p, base):
    got = binary_entropy(p, base)
    assert got.hex() == binary_renyi_entropy(p, 1.0, base).hex()
    # binary_entropy's body before it became the order-1 call
    assert got.hex() == _scale(_binary_entropy_nats(p), base).hex()


def _binary_renyi_log_sum_by_fsum(p, alpha):
    """_binary_renyi_entropy_nats's general branch as it was, an fsum of both
    shifted exponentials (one of them exactly 1.0)."""
    terms = (alpha * math.log(p), alpha * math.log(1.0 - p))
    m = max(terms)
    log_sum = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    return max(0.0, log_sum / (1.0 - alpha))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.sampled_from([5e-324, 2.0 ** -1040, 2.0 ** -1022, 0.5, 1.0 - 2.0 ** -53]),
                 st.floats(5e-324, 1.0 - 2.0 ** -53)),
       st.one_of(st.floats(0.0, 1.0 - 2e-9, exclude_min=True),
                 st.floats(1.0 + 2e-9, 1e4, exclude_max=True)))
@example(0.5, 2.0)
@example(5e-324, 1e-300)
@example(1.0 - 2.0 ** -53, 9999.0)
def test_binary_renyi_entropy_sums_its_two_terms_as_fsum_did(p, alpha):
    want = _binary_renyi_log_sum_by_fsum(p, alpha)
    assert repr(_binary_renyi_entropy_nats(p, alpha)) == repr(want)


def test_binary_entropy_validates_as_before():
    with pytest.raises(OutOfRangeProbability, match="^p: probability must lie in"):
        binary_entropy(1.2)
    with pytest.raises(OutOfRangeProbability, match="^base: "):
        binary_entropy(0.5, base=1.0)


@pytest.mark.parametrize("call, error, field", [
    (lambda: binary_kl(1.2, 0.5), OutOfRangeProbability, "p"),
    (lambda: binary_kl(0.5, -0.1), OutOfRangeProbability, "q"),
    (lambda: binary_kl(0.5, 0.5, base=1.0), OutOfRangeProbability, "base"),
    (lambda: kl_divergence(P_37, FiniteDistribution((1, 0), (0.6, 0.4))),
     MismatchedOutcomeSets, "P and Q"),
    (lambda: kl_divergence(P_37, Q_64, base=0.5), OutOfRangeProbability, "base"),
])
def test_the_kl_forms_validate_as_before(call, error, field):
    with pytest.raises(error, match="^" + field):
        call()
