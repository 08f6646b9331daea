"""Reconstruction relations, metrics, and ball volumes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanokit import (
    ContinuousDomain,
    DistanceRelation,
    FanoError,
    FiniteDistribution,
    Relation,
    RelationBounds,
    ball_counts,
    equality_relation,
    metric_from_name,
    relation_bounds,
    relation_from_pairs,
    sup_ball_volume,
    table_metric,
)
from fanokit.errors import OutOfRangeProbability, UnsupportedMetricForExact
from fanokit.relations import (
    domain_from_json,
    relation_from_json,
    resolve_volume_method,
)


class TestRelations:
    def test_equality_and_complement(self):
        eq = equality_relation()
        assert eq(3, 3) and not eq(3, 4)
        assert eq.complement(3, 4) and not eq.complement(3, 3)

    def test_from_pairs(self):
        rel = relation_from_pairs([(0, 0), (0, 1)])
        assert rel(0, 1) and not rel(1, 0)

    def test_distance_relation_thresholds_at_the_radius(self):
        rel = DistanceRelation(metric_from_name("abs"), 1.0)
        assert rel(3, 4) and rel(3, 3) and not rel(3, 5)

    def test_distance_relation_rejects_negative_radius(self):
        with pytest.raises(FanoError):
            DistanceRelation(metric_from_name("abs"), -0.5)


class TestMetrics:
    def test_named_metrics(self):
        assert metric_from_name("abs")(2, 5) == 3
        assert metric_from_name("l1")((0, 0), (1, 2)) == 3
        assert metric_from_name("l2")((0.0, 0.0), (3.0, 4.0)) == 5.0
        assert metric_from_name("linf")((0, 0), (1, 2)) == 2

    def test_unknown_name(self):
        with pytest.raises(FanoError):
            metric_from_name("manhattan-ish")

    def test_dimension_mismatch(self):
        with pytest.raises(FanoError):
            metric_from_name("l2")((0.0,), (1.0, 2.0))

    def test_abs_is_l1_on_scalar_labels_only(self):
        assert metric_from_name("abs")((2,), 5.5) == metric_from_name("l1")(2, 5.5) == 3.5
        with pytest.raises(FanoError, match="^metric: 'abs' needs scalar labels, got "):
            metric_from_name("abs")((0, 0), (1, 1))

    def test_table_metric_is_symmetric_with_zero_diagonal(self):
        rho = table_metric([("a", "b", 1.0), ("a", "c", 2.0)])
        assert rho("b", "a") == 1.0
        assert rho("a", "a") == 0.0
        with pytest.raises(FanoError):
            rho("b", "c")
        with pytest.raises(FanoError):
            table_metric([("a", "b", -1.0)])


class TestRelationBounds:
    def test_validation(self):
        with pytest.raises(OutOfRangeProbability):
            RelationBounds(0.6, 0.4)
        with pytest.raises(OutOfRangeProbability):
            RelationBounds(-0.1, 0.5)
        # a window summing past one is legal here; the diffusion hypothesis
        # checks that later, where it actually matters
        RelationBounds(0.5, 0.9)

    def test_uniform_equality_window(self, uniform4):
        rb = relation_bounds(equality_relation(), uniform4, uniform4.outcomes)
        assert (rb.p_min, rb.p_max) == (0.25, 0.25)
        # deterministic tie-breaks: first candidate wins both slots
        assert rb.argmin_xhat == "a" and rb.argmax_xhat == "a"

    def test_always_true_relation(self, uniform4):
        rel = Relation(lambda x, xhat: True)
        rb = relation_bounds(rel, uniform4, uniform4.outcomes)
        assert (rb.p_min, rb.p_max) == (1.0, 1.0)

    def test_skewed_prior(self):
        prior = FiniteDistribution((0, 1), (0.3, 0.7))
        rb = relation_bounds(equality_relation(), prior, (0, 1))
        assert (rb.p_min, rb.p_max) == (0.3, 0.7)
        assert (rb.argmin_xhat, rb.argmax_xhat) == (0, 1)

    def test_each_pair_is_read_once_in_row_major_order(self):
        # zero-weight outcomes included, as certify reads the relation
        seen = []

        def counting(x, xhat):
            seen.append((x, xhat))
            return x == xhat
        prior = FiniteDistribution((0, 1, 2), (0.5, 0.0, 0.5))
        rb = relation_bounds(Relation(counting), prior, (2, 0, 1))
        assert seen == [(x, xhat) for x in (0, 1, 2) for xhat in (2, 0, 1)]
        assert (rb.p_min, rb.p_max, rb.argmin_xhat, rb.argmax_xhat) == (0.0, 0.5, 1, 2)

    def test_a_table_metric_needs_the_zero_weight_labels_too(self):
        rho = table_metric([(0, 1, 1.0)])
        prior = FiniteDistribution((0, 1, 6), (0.5, 0.5, 0.0))
        with pytest.raises(FanoError, match=r"no entry for pair \(6, 0\)"):
            relation_bounds(DistanceRelation(rho, 1.0), prior, (0, 1))


class TestBallCounts:
    def test_integer_line(self):
        assert ball_counts(metric_from_name("abs"), 1, range(6)) == (2, 3)
        assert ball_counts(metric_from_name("abs"), 0, range(4)) == (1, 1)
        assert ball_counts(metric_from_name("abs"), 99, range(4)) == (4, 4)

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_a_negative_or_nan_radius_is_refused(self, t):
        # as DistanceRelation refuses it; before, no ball held a point
        with pytest.raises(OutOfRangeProbability, match="^t: radius must be >= 0"):
            ball_counts(metric_from_name("abs"), t, range(4))


class TestContinuousVolumes:
    def test_domain_validation(self):
        with pytest.raises(FanoError):
            ContinuousDomain(((1.0, 0.0),), "abs", 0.1)
        with pytest.raises(FanoError):
            ContinuousDomain((), "abs", 0.1)
        with pytest.raises(FanoError):
            ContinuousDomain(((0.0, 1.0),), "abs", -0.1)
        with pytest.raises(FanoError):
            ContinuousDomain(((0.0, 1.0), (0.0, 1.0)), "abs", 0.1)

    def test_exact_interval(self):
        dom = ContinuousDomain(((0.0, 1.0),), "abs", 0.1)
        assert sup_ball_volume(dom, method="exact") == (0.2, 0.0)

    def test_exact_clamps_at_the_box(self):
        dom = ContinuousDomain(((0.0, 1.0),), "abs", 0.6)
        assert sup_ball_volume(dom, method="exact") == (1.0, 0.0)

    def test_exact_linf_square(self):
        dom = ContinuousDomain(((0.0, 1.0), (0.0, 1.0)), "linf", 0.25)
        assert sup_ball_volume(dom, method="exact") == (0.25, 0.0)

    def test_auto_resolves_to_the_method_that_runs(self):
        square = ((0.0, 1.0), (0.0, 1.0))
        assert resolve_volume_method(ContinuousDomain(square, "linf", 0.2),
                                     "auto") == "exact"
        assert resolve_volume_method(ContinuousDomain(square, "l2", 0.2),
                                     "auto") == "monte-carlo"
        assert resolve_volume_method(ContinuousDomain(square, "l2", 0.2),
                                     "grid") == "grid"
        with pytest.raises(FanoError):
            resolve_volume_method(ContinuousDomain(square, "l2", 0.2), "nope")

    def test_exact_refuses_curved_balls(self):
        dom = ContinuousDomain(((0.0, 1.0), (0.0, 1.0)), "l2", 0.2)
        with pytest.raises(UnsupportedMetricForExact):
            sup_ball_volume(dom, method="exact")

    def test_zero_radius(self):
        dom = ContinuousDomain(((0.0, 1.0),), "abs", 0.0)
        assert sup_ball_volume(dom, method="exact") == (0.0, 0.0)

    def test_grid_frozen_value_and_error_bar(self):
        # in 1-d the grid spans the ball itself, so every midpoint is inside
        dom = ContinuousDomain(((0.0, 1.0),), "abs", 0.1)
        exact, _ = sup_ball_volume(dom, method="exact")
        assert exact == 0.2
        assert sup_ball_volume(dom, method="grid", resolution=128) == (exact, 0.003125)

    def test_monte_carlo_is_deterministic(self):
        dom = ContinuousDomain(((0.0, 1.0), (0.0, 1.0)), "l2", 0.2)
        one = sup_ball_volume(dom, method="monte-carlo", samples=4096, seed=0)
        two = sup_ball_volume(dom, method="monte-carlo", samples=4096, seed=0)
        assert one == two == (0.1260546875, 0.001022090688160092)
        other = sup_ball_volume(dom, method="monte-carlo", samples=4096, seed=1)
        assert other != one

    def test_monte_carlo_error_shrinks_like_root_n(self):
        dom = ContinuousDomain(((0.0, 1.0), (0.0, 1.0)), "l2", 0.2)
        _, e1 = sup_ball_volume(dom, method="monte-carlo", samples=4096, seed=0)
        _, e2 = sup_ball_volume(dom, method="monte-carlo", samples=4 * 4096, seed=0)
        assert 1.5 < e1 / e2 < 2.5

    def test_monte_carlo_euclidean_disc(self):
        # interior ball area is pi t^2; the center estimate sits within noise of it
        t = 0.2
        dom = ContinuousDomain(((0.0, 1.0), (0.0, 1.0)), "l2", t)
        v, e = sup_ball_volume(dom, method="monte-carlo", samples=8192, seed=5)
        assert abs(v - math.pi * t * t) < 5 * e + 0.01

    def test_methods_agree_on_the_interval(self):
        dom = ContinuousDomain(((0.0, 1.0),), "abs", 0.1)
        exact, _ = sup_ball_volume(dom, method="exact")
        grid, gerr = sup_ball_volume(dom, method="grid", resolution=256)
        assert abs(grid - exact) <= gerr
        # Monte Carlo is exact on an interval; the disc still samples
        disc = ContinuousDomain(((0.0, 1.0), (0.0, 1.0)), "l2", 0.2)
        mc, merr = sup_ball_volume(disc, method="monte-carlo", samples=32768, seed=2)
        assert abs(mc - math.pi * 0.2 * 0.2) <= 5 * merr

    def test_metrics_are_names(self):
        with pytest.raises(FanoError):
            ContinuousDomain(((0.0, 1.0),), lambda a, b: abs(a[0] - b[0]), 0.1)
        with pytest.raises(FanoError):
            ContinuousDomain(((0.0, 1.0),), "manhattan-ish", 0.1)


# -- the one-center estimate against a scan over centers ----------------------

def _box(draw):
    d = draw(st.integers(1, 3))
    lows = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    widths = draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d))
    return tuple((a, a + w) for a, w in zip(lows, widths))


@st.composite
def _domains_and_centers(draw, metrics):
    box = _box(draw)
    metric = draw(st.sampled_from(metrics))
    # from a sliver up to well past the half-width of every axis
    t = draw(st.floats(0.01, 1.5))
    fracs = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=len(box),
                                   max_size=len(box)), min_size=1, max_size=6))
    centers = np.array([[lo + f * (hi - lo) for f, (lo, hi) in zip(row, box)]
                        for row in fracs])
    return ContinuousDomain(box, metric, t), centers


def _box_center(dom):
    return np.array([(lo + hi) / 2.0 for lo, hi in dom.box])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_domains_and_centers(("linf",)))
def test_linf_box_center_is_never_beaten(case):
    dom, centers = case
    lo, hi = np.array(dom.box).T

    def overlap(c):
        # closed form of vol(B(c, t) & box) for the sup-metric
        return float(np.prod(np.maximum(
            0.0, np.minimum(c + dom.t, hi) - np.maximum(c - dom.t, lo))))

    best = overlap(_box_center(dom))
    exact, _ = sup_ball_volume(dom, method="exact")
    assert exact == pytest.approx(best, rel=1e-12)
    for c in centers:
        assert overlap(c) <= best * (1.0 + 1e-12)
    # the sup-metric ball at the box center is the hull the grid spans
    assert sup_ball_volume(dom, method="grid", resolution=8) == (
        exact, exact * dom.dimension * 2.0 / 8)


LATTICE_PER_AXIS = {1: 512, 2: 96, 3: 24}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_domains_and_centers(("l1", "l2")))
def test_curved_box_center_is_never_beaten(case):
    dom, centers = case
    d = dom.dimension
    res = LATTICE_PER_AXIS[d]
    lo, hi = np.array(dom.box).T
    h = (hi - lo) / res
    axes = [a + (np.arange(res) + 0.5) * s for a, s in zip(lo, h)]
    lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    norm = {"l1": lambda v: np.abs(v).sum(axis=1),
            "l2": lambda v: np.sqrt((v * v).sum(axis=1))}[dom.metric]
    # farthest a point of a lattice cell is from its midpoint
    delta = float(norm((h / 2.0).reshape(1, -1))[0])
    cell = float(np.prod(h))
    center = _box_center(dom)

    def count(c, radius):
        return int(np.count_nonzero(norm(lattice - c) <= radius + 1e-12))

    # a cell whose midpoint is within t of c lies in B(c, t + delta), and the
    # cells meeting B(center, t + delta) have midpoints within t + 2 delta
    for c in centers:
        assert count(c, dom.t) <= count(center, dom.t + 2.0 * delta)
    # the volume at the box center lies in [inner, outer] lattice counts
    inner = count(center, dom.t - delta) * cell
    outer = count(center, dom.t + delta) * cell
    grid, gerr = sup_ball_volume(dom, method="grid", resolution=24)
    assert inner - gerr <= grid <= outer + gerr
    samples = 4096
    mc, merr = sup_ball_volume(dom, method="monte-carlo", samples=samples, seed=3)
    hull = math.prod(min(2.0 * dom.t, b - a) for a, b in dom.box)
    # with (nearly) every draw inside, the standard error is (nearly) zero
    slack = 5.0 * merr + 10.0 * hull / samples
    assert inner - slack <= mc <= outer + slack


def _ball_volume(metric, d, t):
    if metric == "l2":
        return math.pi ** (d / 2.0) * t ** d / math.gamma(d / 2.0 + 1.0)
    if metric == "linf":
        return (2.0 * t) ** d
    return (2.0 * t) ** d / math.factorial(d)


@st.composite
def _fitting_balls(draw):
    box = _box(draw)
    metric = draw(st.sampled_from(("abs", "l1", "l2", "linf") if len(box) == 1
                                  else ("l1", "l2", "linf")))
    half = min(hi - lo for lo, hi in box) / 2.0
    return ContinuousDomain(box, metric, draw(st.floats(0.01, 1.0)) * half)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_fitting_balls())
def test_estimators_match_the_ball_volume_when_the_ball_fits(dom):
    exact = _ball_volume(dom.metric, dom.dimension, dom.t)
    grid, gerr = sup_ball_volume(dom, method="grid", resolution=32)
    assert abs(grid - exact) <= gerr
    mc, merr = sup_ball_volume(dom, method="monte-carlo", samples=4096, seed=1)
    assert abs(mc - exact) <= 5.0 * merr + 1e-12 * exact


class TestJsonLoaders:
    def test_equality(self):
        rel = relation_from_json({"kind": "equality"})
        assert rel(7, 7) and not rel(7, 8)

    def test_distance_with_named_metric(self):
        rel = relation_from_json({"kind": "distance", "metric": "abs", "t": 1.0})
        assert rel(3, 4) and not rel(3, 5)

    def test_distance_with_table(self):
        rel = relation_from_json(
            {"kind": "distance", "metric": "table", "t": 1.0,
             "table": [["a", "b", 1.0], ["a", "c", 2.0]]}
        )
        assert rel("a", "b") and not rel("a", "c")

    def test_predicate_table(self):
        rel = relation_from_json({"kind": "predicate-table", "pairs": [[0, 0], [0, 1]]})
        assert rel(0, 1) and not rel(1, 1)

    def test_bad_payloads(self):
        with pytest.raises(FanoError):
            relation_from_json({"kind": "distance", "metric": "abs"})
        with pytest.raises(FanoError):
            relation_from_json({"kind": "nope"})
        with pytest.raises(FanoError):
            relation_from_json({})

    def test_domain_defaults(self):
        dom = domain_from_json({"box": [[0, 1], [0, 2]]})
        assert dom.metric == "linf" and dom.t == 0.0 and dom.volume == 2.0
