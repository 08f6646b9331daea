"""Finite distributions, joints, and channels."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import philox
from fanokit import (
    Channel,
    FanoError,
    FiniteDistribution,
    JointDistribution,
    event_probability,
    joint_from_prior_and_channel,
    make_distribution,
    marginals,
    product_channel,
    product_of_marginals,
    uniform_distribution,
)
from fanokit.distributions import (
    MASS_TOLERANCE,
    _check_weights,
    channel_from_json,
    distribution_from_json,
    joint_from_json,
)
from fanokit.errors import (
    DuplicateLabel,
    NegativeWeight,
    StateSpaceTooLarge,
    SumNotOne,
)


class TestFiniteDistribution:
    def test_basic_lookups(self):
        d = FiniteDistribution(("a", "b"), (0.25, 0.75))
        assert d.probability("a") == 0.25
        assert d.index("b") == 1
        assert len(d) == 2

    def test_unknown_label(self):
        d = FiniteDistribution(("a",), (1.0,))
        with pytest.raises(FanoError, match="unknown outcome"):
            d.probability("zzz")

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            FiniteDistribution((0, 1), (-0.1, 1.1))

    def test_mass_off_by_more_than_tolerance(self):
        with pytest.raises(SumNotOne):
            FiniteDistribution((0, 1), (0.5, 0.5 + 1e-9))

    def test_mass_within_tolerance_is_kept_as_given(self):
        d = FiniteDistribution((0, 1), (0.5, 0.5 + 1e-13))
        assert d.probability(1) == 0.5 + 1e-13

    def test_duplicate_labels(self):
        with pytest.raises(DuplicateLabel):
            FiniteDistribution(("x", "x"), (0.5, 0.5))

    def test_empty(self):
        with pytest.raises(Exception):
            FiniteDistribution((), ())

    def test_the_label_index_is_not_an_argument(self):
        with pytest.raises(TypeError):
            FiniteDistribution((0, 1), (0.5, 0.5), {0: 1, 1: 0})

    def test_weights_are_read_only(self):
        d = FiniteDistribution((0, 1), (0.5, 0.5))
        with pytest.raises(ValueError):
            d.weights[0] = 0.9

    def test_support_keeps_exact_zeros_out(self):
        d = FiniteDistribution((0, 1, 2), (0.5, 0.0, 0.5))
        assert d.support() == (0, 2)

    def test_uniform(self):
        u = uniform_distribution(("a", "b", "c", "d"))
        assert u.probability("c") == 0.25

    def test_make_distribution_renormalizes_on_request(self):
        with pytest.raises(SumNotOne):
            make_distribution((0, 1), (2.0, 6.0))
        d = make_distribution((0, 1), (2.0, 6.0), renormalize=True)
        assert d.probability(0) == 0.25
        # finite weights whose sum passes the doubles
        with pytest.raises(SumNotOne, match="^weights: sum to inf"):
            make_distribution((0, 1), (1e308, 1e308), renormalize=True)

    @settings(derandomize=True, max_examples=50)
    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8))
    def test_renormalize_always_yields_unit_mass(self, raw):
        d = make_distribution(tuple(range(len(raw))), raw, renormalize=True)
        assert abs(float(np.sum(d.weights)) - 1.0) < 1e-12


class TestJointDistribution:
    def test_marginals(self):
        j = JointDistribution((0, 1), ("u", "v"), [[0.1, 0.2], [0.3, 0.4]])
        row, col = marginals(j)
        assert row.probability(0) == pytest.approx(0.3, abs=1e-15)
        assert col.probability("v") == pytest.approx(0.6, abs=1e-15)
        assert j.probability(1, "u") == 0.3

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            JointDistribution((0, 1), (0,), [[0.5, 0.5]])

    def test_mass_off_one_reads_as_for_distributions_and_channels(self):
        with pytest.raises(SumNotOne, match=r"^joint: weights sum to 0\.875, expected 1\.0$"):
            JointDistribution((0, 1), (0, 1), [[0.5, 0.25], [0.125, 0.0]])

    def test_product_of_marginals(self):
        j = JointDistribution((0, 1), (0, 1), [[0.1, 0.2], [0.3, 0.4]])
        p = product_of_marginals(j)
        assert p.probability(0, 1) == pytest.approx(0.3 * 0.6, abs=1e-15)

    def test_event_probability_joint(self):
        j = JointDistribution((0, 1), (0, 1), [[0.25, 0.25], [0.25, 0.25]])
        assert event_probability(j, lambda x, y: x == y) == 0.5

    def test_event_probability_distribution(self):
        d = FiniteDistribution((0, 1, 2), (0.2, 0.3, 0.5))
        assert event_probability(d, lambda x: x > 0) == pytest.approx(0.8, abs=1e-15)
        assert event_probability(d, lambda x: True) == 1.0


class TestChannel:
    def test_rows_must_be_distributions(self):
        with pytest.raises(SumNotOne):
            Channel((0,), (0, 1), [[0.7, 0.2]])

    def test_row_lookup(self):
        ch = Channel((0, 1), ("a", "b"), [[0.9, 0.1], [0.2, 0.8]])
        assert ch.row(1).probability("a") == 0.2

    def test_joint_from_prior_and_channel(self):
        prior = FiniteDistribution((0, 1), (0.5, 0.5))
        ch = Channel((0, 1), (0, 1), [[0.9, 0.1], [0.2, 0.8]])
        j = joint_from_prior_and_channel(prior, ch)
        assert j.probability(0, 0) == pytest.approx(0.45, abs=1e-15)
        assert j.probability(1, 0) == pytest.approx(0.1, abs=1e-15)

    def test_prior_channel_label_mismatch(self):
        prior = FiniteDistribution(("x", "y"), (0.5, 0.5))
        ch = Channel((0, 1), (0, 1), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(FanoError, match="must match channel inputs"):
            joint_from_prior_and_channel(prior, ch)


ROW_DEFECTS = ("nan", "inf", "-inf", "negative", "negative zero", "negative, sum kept",
               "off-sum", "within tolerance", "overflow", "overflow past inf")


def spoil(row, defect, j):
    """Puts one defect into a channel row, at column j."""
    values = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative zero": -0.0}
    if defect in values:
        row[j] = values[defect]
    elif defect == "negative":
        row[j] = -row[j] - 0.25
    elif defect == "negative, sum kept" and len(row) > 1:
        row[j] -= 0.5
        row[j - 1] += 0.5
    elif defect == "off-sum":
        row[j] += 1e-9
    elif defect == "within tolerance":
        row[j] += MASS_TOLERANCE / 4
    elif defect.startswith("overflow"):
        row[:] = 1e308                  # finite, but fsum overflows past two
        if defect == "overflow past inf":
            row[j] = np.inf


@st.composite
def defective_channels(draw):
    """(input labels, matrix): Dirichlet rows, each with up to two defects
    in any position."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = philox(draw(st.integers(0, 2 ** 31 - 1)))
    matrix = rng.dirichlet(np.ones(cols), size=rows)
    for row in matrix:
        for defect in draw(st.lists(st.sampled_from(ROW_DEFECTS), max_size=2)):
            spoil(row, defect, draw(st.integers(0, cols - 1)))
    labels = draw(st.sampled_from([tuple(range(rows)),
                                   tuple("x%d" % i for i in range(rows))]))
    return labels, matrix


def reference_check_weights(row, what):
    """One row's weight checks, value by value: finite, then nonnegative,
    then an fsum within MASS_TOLERANCE of 1, inf where it overflows."""
    values = [float(v) for v in row]
    if not all(math.isfinite(v) for v in values):
        raise NegativeWeight(f"{what}: weights must be finite")
    if any(v < 0 for v in values):
        raise NegativeWeight(f"{what}: weights must be nonnegative")
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise SumNotOne(f"{what}: weights sum to {total!r}, expected 1.0")


def raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(defective_channels())
def test_channel_checks_its_matrix_as_a_per_row_loop_would(case):
    # the first bad row decides, with the error the row gives alone; a
    # distribution's weights, and a joint's, are checked as one such row
    labels, matrix = case
    outputs = tuple(range(matrix.shape[1]))

    def per_row():
        for label, row in zip(labels, matrix):
            reference_check_weights(row, f"channel row {label!r}")

    assert raised(lambda: Channel(labels, outputs, matrix)) == raised(per_row)
    for row in matrix:
        assert (raised(lambda: _check_weights(row.copy(), "distribution"))
                == raised(lambda: reference_check_weights(row, "distribution")))
    joint = matrix / len(matrix)
    assert (raised(lambda: JointDistribution(labels, outputs, joint))
            == raised(lambda: reference_check_weights(joint.ravel(), "joint")))


class TestProductChannel:
    def test_single_use_is_identity(self):
        ch = Channel((0, 1), (0, 1), [[0.9, 0.1], [0.2, 0.8]])
        assert product_channel(ch, 1) is ch

    def test_two_uses(self):
        ch = Channel((0, 1), (0, 1), [[0.9, 0.1], [0.2, 0.8]])
        sq = product_channel(ch, 2)
        assert sq.output_outcomes == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert sq.row(0).probability((0, 1)) == pytest.approx(0.09, abs=1e-15)
        assert sq.row(1).probability((1, 1)) == pytest.approx(0.64, abs=1e-15)

    def test_nonpositive_count(self):
        ch = Channel((0,), (0,), [[1.0]])
        with pytest.raises(Exception):
            product_channel(ch, 0)

    def test_state_cap(self):
        ch = Channel((0, 1), (0, 1, 2, 3), [[0.25] * 4, [0.25] * 4])
        with pytest.raises(StateSpaceTooLarge):
            product_channel(ch, 12)

    def test_long_products_stay_normalized(self):
        # repeated outer products drift a little; must stay inside the row
        # mass tolerance or the Channel constructor would reject them
        rng = philox(7)
        w = rng.dirichlet(np.ones(4))
        ch = Channel((0,), (0, 1, 2, 3), [w])
        big = product_channel(ch, 8)
        assert abs(float(np.sum(big.matrix[0])) - 1.0) <= 1e-12


class TestJsonLoaders:
    def test_distribution(self):
        d = distribution_from_json({"outcomes": ["a", "b"], "weights": [0.25, 0.75]})
        assert d.probability("b") == 0.75

    def test_list_labels_become_tuples(self):
        d = distribution_from_json({"outcomes": [[0, 0], [0, 1]], "weights": [0.5, 0.5]})
        assert d.probability((0, 1)) == 0.5

    def test_joint(self):
        j = joint_from_json(
            {"rows": [0, 1], "cols": [0, 1],
             "weights": [[0.25, 0.25], [0.25, 0.25]]}
        )
        assert j.probability(1, 0) == 0.25

    def test_channel(self):
        ch = channel_from_json(
            {"inputs": [0, 1], "outputs": [0, 1],
             "rows": [[0.9, 0.1], [0.2, 0.8]]}
        )
        assert ch.row(0).probability(1) == 0.1

    def test_missing_field(self):
        with pytest.raises(Exception):
            distribution_from_json({"weights": [1.0]})
