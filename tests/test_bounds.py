"""Diffusion bounds, relation bounds, and their corollaries.

Solver reference roots were computed once with mpmath bisection at 50 digits
and frozen; everything else is checked against closed forms or exhaustive
small grids built inline.
"""
import dataclasses
import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import philox
from fanokit import bounds, verify
from fanokit import (
    BoundInputs,
    Channel,
    ContinuousDomain,
    FiniteDistribution,
    JointDistribution,
    MLEstimator,
    Relation,
    RelationBounds,
    SweepSpec,
    binary_entropy,
    binary_kl,
    binary_renyi_divergence,
    check_kl_diffusion,
    check_renyi_diffusion,
    continuous_fano_bound,
    distance_fano_bound,
    entropy_version_bound,
    equality_relation,
    fano_relation_bound,
    independent_samples_bound,
    joint_from_prior_and_channel,
    mi_distance_bound,
    mutual_information,
    reports_to_csv,
    solve_diffusion,
    sup_ball_volume,
    sweep_diffusion,
)
from fanokit.bounds import (
    EXPONENT_ROUNDING,
    RENYI_ZERO_BAND,
    SOLVE_GRID_POINTS,
    SOLVE_TOLERANCE,
    TERM_CACHE_SIZE,
    _bisect_boundary,
    _event_terms,
    _kl_rhs_nats,
    _log_ratio,
    _renyi_ratio,
    _renyi_rhs_nats,
    _window_terms,
)
from fanokit.divergences import _binary_entropy_nats, _binary_renyi_entropy_nats, _renyi_nats
from fanokit.errors import (
    AlphaIsOne,
    BadPminPmax,
    DegenerateDenominator,
    FanoError,
    InconsistentBounds,
    NoFeasiblePoint,
    NonUniformPrior,
    NumericalInstability,
    OutOfRangeProbability,
    RangeMismatch,
    ZeroVolumeDenominator,
)

ALPHAS = (0.25, 0.5, 2.0, 4.0)

# mpmath bisection, 50 digits, at divergence 0 over the window (0, 0.5)
ROOT_KL = 0.7729078047806518
ROOT_A2 = 0.7591961544984255
ROOT_A05 = 8.0 / 9.0


def diag_joint(m):
    w = [[1.0 / m if i == j else 0.0 for j in range(m)] for i in range(m)]
    return JointDistribution(tuple(range(m)), tuple(range(m)), w)


class TestWindowValidation:
    def test_window_summing_to_one_has_no_denominator(self):
        with pytest.raises(DegenerateDenominator):
            check_kl_diffusion(0.5, BoundInputs(0.1, "kl", 0.5, 0.5))

    def test_window_summing_past_one(self):
        with pytest.raises(BadPminPmax):
            check_kl_diffusion(0.5, BoundInputs(0.1, "kl", 0.4, 0.7))

    def test_degenerate_endpoints(self):
        with pytest.raises(BadPminPmax):
            check_kl_diffusion(0.5, BoundInputs(0.1, "kl", 1.0, 0.5))
        with pytest.raises(BadPminPmax):
            check_kl_diffusion(0.5, BoundInputs(0.1, "kl", 0.2, 0.0))
        with pytest.raises(OutOfRangeProbability):
            check_kl_diffusion(0.5, BoundInputs(0.1, "kl", 0.2, 1.2))

    def test_orders_at_or_near_one_are_refused(self):
        for alpha in (1.0, 1.0 + 5e-10, 1.0 - 5e-10):
            with pytest.raises(AlphaIsOne):
                check_renyi_diffusion(0.5, BoundInputs(0.1, alpha, 0.0, 0.5))
        for alpha in (0.0, math.inf):
            with pytest.raises(FanoError):
                check_renyi_diffusion(0.5, BoundInputs(0.1, alpha, 0.0, 0.5))

    @pytest.mark.parametrize("alpha", ["kl", None, "two", [2.0]])
    def test_non_numeric_orders_name_alpha(self, alpha):
        # check_renyi_diffusion has no KL form, so "kl" is no order here
        with pytest.raises(FanoError, match="^alpha: "):
            check_renyi_diffusion(0.5, BoundInputs(0.1, alpha, 0.0, 0.5))


class TestCheckMode:
    def test_zero_divergence_half_window(self):
        r = check_kl_diffusion(0.5, BoundInputs(0.0, "kl", 0.0, 0.5))
        assert r.bound_value == 1.0
        assert r.holds and r.slack == 0.5
        assert "vacuous" in r.notes

    def test_point_mass_in_uniform_four_is_tight_at_every_order(self):
        # divergence from a point mass to uniform over 4 outcomes is ln 4 at
        # every order, and the full window (1/4, 1/4) makes the bound collapse
        # to exactly 1 with observed probability 1
        for alpha in ALPHAS:
            r = check_renyi_diffusion(1.0, BoundInputs(math.log(4), alpha, 0.25, 0.25))
            assert r.bound_value == 1.0 and r.slack == 0.0
        r = check_kl_diffusion(1.0, BoundInputs(math.log(4), "kl", 0.25, 0.25))
        assert r.bound_value == 1.0 and r.slack == 0.0

    def test_small_orders_note_the_extra_factor(self):
        r = check_renyi_diffusion(0.5, BoundInputs(0.2, 0.5, 0.0, 0.5))
        assert "power-sum factor" in r.notes
        r = check_renyi_diffusion(0.5, BoundInputs(0.2, 2.0, 0.0, 0.5))
        assert "power-sum" not in r.notes

    def test_infinite_divergence_is_vacuous_but_valid(self):
        for report in (
            check_kl_diffusion(0.9, BoundInputs(math.inf, "kl", 0.0, 0.5)),
            check_renyi_diffusion(0.9, BoundInputs(math.inf, 2.0, 0.0, 0.5)),
        ):
            assert report.bound_value == math.inf
            assert report.holds
            assert "vacuous" in report.notes

    def test_divergence_below_the_window_floor_is_inconsistent(self):
        # a window with p_min = 0.3 needs at least -ln(0.7) of divergence;
        # below that no real pair can produce the inputs. The kl form still
        # evaluates (to a negative, failing bound); the order form has no
        # real root to return and refuses instead.
        r = check_kl_diffusion(0.0, BoundInputs(0.0, "kl", 0.3, 0.4))
        assert r.bound_value < 0.0 and not r.holds
        with pytest.raises(InconsistentBounds):
            check_renyi_diffusion(0.0, BoundInputs(0.0, 0.5, 0.3, 0.4))
        with pytest.raises(InconsistentBounds):
            check_renyi_diffusion(0.0, BoundInputs(0.0, 2.0, 0.3, 0.4))

    def test_rounding_right_at_the_floor_clamps_to_zero(self):
        div = math.nextafter(-math.log1p(-0.3), 0.0)
        for alpha in (0.5, 2.0):
            r = check_renyi_diffusion(0.0, BoundInputs(div, alpha, 0.3, 0.4))
            assert r.bound_value == 0.0 and r.holds

    def test_base_two_reports_divide_through(self):
        nats = check_kl_diffusion(0.5, BoundInputs(0.3, "kl", 0.0, 0.5))
        bits = check_kl_diffusion(
            0.5, BoundInputs(0.3 / math.log(2), "kl", 0.0, 0.5, base=2)
        )
        assert bits.bound_value == pytest.approx(nats.bound_value, abs=1e-12)


def test_exhaustive_eighth_grid_on_two_outcomes():
    # every 1/8-grid pair on two outcomes, both events, every admissible
    # window, all orders: the bound must hold everywhere
    checked = 0
    for pa in range(9):
        for qa in range(1, 8):
            p = pa / 8.0
            q = qa / 8.0
            for p_event, q_event in (((p, q)), ((1.0 - p, 1.0 - q))):
                windows = [(0.0, q_event)]
                if 2.0 * q_event < 1.0:
                    windows.append((q_event, q_event))
                for lo, hi in windows:
                    if hi <= 0.0 or lo >= 1.0:
                        continue
                    div_kl = binary_kl(p, q)
                    r = check_kl_diffusion(
                        p_event, BoundInputs(div_kl, "kl", lo, hi)
                    )
                    assert r.holds, ("kl", p, q, lo, hi)
                    checked += 1
                    for alpha in ALPHAS:
                        div = binary_renyi_divergence(p, q, alpha)
                        r = check_renyi_diffusion(
                            p_event, BoundInputs(div, alpha, lo, hi)
                        )
                        assert r.holds, (alpha, p, q, lo, hi)
                        checked += 1
    assert checked > 500


class TestSolveMode:
    def test_frozen_roots_at_zero_divergence(self):
        kl = solve_diffusion(BoundInputs(0.0, "kl", 0.0, 0.5))
        assert kl.feasible_sup == pytest.approx(ROOT_KL, abs=5e-10)
        a2 = solve_diffusion(BoundInputs(0.0, 2.0, 0.0, 0.5))
        assert a2.feasible_sup == pytest.approx(ROOT_A2, abs=5e-10)
        a05 = solve_diffusion(BoundInputs(0.0, 0.5, 0.0, 0.5))
        assert a05.feasible_sup == pytest.approx(ROOT_A05, abs=5e-10)

    def test_solve_report_shape(self):
        r = solve_diffusion(BoundInputs(0.0, "kl", 0.0, 0.5))
        assert r.mode == "solve"
        assert r.bound_value == r.feasible_sup
        assert r.observed is None and r.slack is None

    def test_infinite_divergence_admits_everything(self):
        r = solve_diffusion(BoundInputs(math.inf, 2.0, 0.0, 0.5))
        assert r.feasible_sup == 1.0
        assert "vacuous" in r.notes

    def test_saturated_instance_reaches_one(self):
        r = solve_diffusion(BoundInputs(math.log(4), "kl", 0.25, 0.25))
        assert r.feasible_sup == 1.0

    def test_window_floor_is_always_feasible(self):
        # any point of the window is realizable with zero divergence, so the
        # feasible supremum can never fall below p_min
        rng = philox(31)
        kept = 0
        for _ in range(200):
            lo = float(rng.uniform(0.0, 0.45))
            hi = float(rng.uniform(lo, min(0.95 - lo, 0.99)))
            if hi <= 0.0 or lo + hi >= 1.0:
                continue
            div = float(rng.exponential(0.5))
            alpha = [0.25, 0.5, 2.0, 4.0, "kl"][int(rng.integers(5))]
            r = solve_diffusion(BoundInputs(div, alpha, lo, hi))
            assert r.feasible_sup >= lo - 1e-9
            kept += 1
        assert kept >= 150

    def test_check_and_solve_tell_the_same_story(self):
        rng = philox(77)
        agreements = 0
        for _ in range(150):
            lo = float(rng.uniform(0.0, 0.4))
            hi = float(rng.uniform(max(lo, 0.05), min(0.99 - lo, 0.9)))
            if hi <= lo or lo + hi >= 1.0:
                continue
            div = float(rng.exponential(0.4))
            alpha = [0.25, 0.5, 2.0, 4.0, "kl"][int(rng.integers(5))]
            sup = solve_diffusion(BoundInputs(div, alpha, lo, hi)).feasible_sup
            inputs = BoundInputs(div, alpha, lo, hi)

            def holds_at(p):
                try:
                    if alpha == "kl":
                        return check_kl_diffusion(p, inputs).holds
                    return check_renyi_diffusion(p, inputs).holds
                except InconsistentBounds:
                    return False

            # every grid point that passes the check sits at or below the sup
            for p in [k / 40.0 for k in range(41)]:
                if holds_at(p):
                    assert p <= sup + 1e-8, (alpha, div, lo, hi, p, sup)
            if sup < 1.0 - 1e-6:
                assert not holds_at(min(1.0, sup + 1e-4))
            agreements += 1
        assert agreements >= 100

    def test_feasible_sup_monotone_in_the_inputs(self):
        base = BoundInputs(0.2, 2.0, 0.05, 0.4)
        sup = solve_diffusion(base).feasible_sup
        more_div = solve_diffusion(BoundInputs(0.5, 2.0, 0.05, 0.4)).feasible_sup
        wider_top = solve_diffusion(BoundInputs(0.2, 2.0, 0.05, 0.5)).feasible_sup
        tighter_floor = solve_diffusion(BoundInputs(0.2, 2.0, 0.1, 0.4)).feasible_sup
        assert more_div >= sup - 1e-9
        assert wider_top >= sup - 1e-9
        assert tighter_floor <= sup + 1e-9


def kl_solve_by_scan(div, p_min, p_max):
    """The KL feasible supremum from every grid point (the reference for
    solve_diffusion's binary search); None where no grid point is feasible."""
    step = 1.0 / (SOLVE_GRID_POINTS - 1)

    def g(p):
        return _kl_rhs_nats(div, p, p_min, p_max) - p

    feasible = [g(i * step) >= 0.0 for i in range(SOLVE_GRID_POINTS)]
    if feasible[-1]:
        return 1.0
    for i in range(SOLVE_GRID_POINTS - 2, -1, -1):
        if feasible[i]:
            return _bisect_boundary(g, i * step, (i + 1) * step, SOLVE_TOLERANCE)
    return None


@settings(max_examples=1000, deadline=None)
@given(p_min=st.one_of(st.just(0.0), st.floats(0.0, 0.98)),
       share=st.floats(1e-6, 1.0, exclude_max=True),
       div=st.floats(0.0, 4.0), shift=st.floats(-1e-3, 1e-3),
       near_edge=st.booleans())
def test_kl_solve_matches_the_full_grid_scan(p_min, share, div, shift, near_edge):
    # near_edge puts the divergence within shift of the least feasible one,
    # where the margin's maximum crosses zero
    p_max = (1.0 - p_min) * share
    if p_min + p_max >= 1.0:
        return
    if near_edge:
        peak = p_max / (p_max + 1.0 - p_min)
        least = (peak * _log_ratio(p_min, p_max) - _binary_entropy_nats(peak)
                 - math.log1p(-p_min))
        div = max(0.0, least + shift)
    want = kl_solve_by_scan(div, p_min, p_max)
    inputs = BoundInputs(div, "kl", p_min, p_max)
    if want is None:
        with pytest.raises(NoFeasiblePoint):
            solve_diffusion(inputs)
    else:
        assert solve_diffusion(inputs).feasible_sup == want


class TestRelationBound:
    def test_perfect_reconstruction_is_tight(self):
        r = fano_relation_bound(diag_joint(4), equality_relation(),
                                bounds=RelationBounds(0.25, 0.25))
        assert r.bound_value == 1.0 and r.observed == 1.0 and r.slack == 0.0

    def test_bounds_default_to_the_marginal_window(self):
        r = fano_relation_bound(diag_joint(4), equality_relation())
        assert (r.p_min, r.p_max) == (0.25, 0.25)
        assert r.slack == 0.0

    def test_window_must_cover_the_product_coupling(self):
        with pytest.raises(InconsistentBounds, match="product-coupling"):
            fano_relation_bound(diag_joint(4), equality_relation(),
                                bounds=RelationBounds(0.4, 0.5))

    def test_observation_information_cannot_undercut_reconstruction(self):
        with pytest.raises(InconsistentBounds):
            fano_relation_bound(diag_joint(4), equality_relation(),
                                bounds=RelationBounds(0.25, 0.25),
                                observation_mi=0.1)

    def test_observation_side_value_lands_in_the_notes(self):
        r = fano_relation_bound(diag_joint(4), equality_relation(),
                                bounds=RelationBounds(0.25, 0.25),
                                observation_mi=2.0)
        assert "observation-side bound value" in r.notes

    def test_noisy_joint_holds_with_room(self):
        joint = JointDistribution((0, 1), (0, 1), [[0.4, 0.1], [0.1, 0.4]])
        r = fano_relation_bound(joint, equality_relation(),
                                bounds=RelationBounds(0.3, 0.6))
        assert r.observed == pytest.approx(0.8, abs=1e-12)
        assert r.holds


class TestEntropyVersion:
    def test_perfect_reconstruction_is_tight(self):
        r = entropy_version_bound(diag_joint(4), equality_relation(),
                                  bounds=RelationBounds(0.25, 0.25))
        assert r.bound_value == 0.0 and r.observed == 0.0 and r.slack == 0.0

    def test_trivial_relation_costs_full_entropy(self):
        always = Relation(lambda x, xhat: True)
        r = entropy_version_bound(diag_joint(4), always)
        assert r.bound_value == math.log(4)
        assert (r.p_min, r.p_max) == (1.0, 1.0)
        assert r.holds

    def test_saturated_window_is_allowed_here(self):
        # unlike the diffusion window, p_min + p_max may reach one
        joint = JointDistribution((0, 1), (0, 1), [[0.3, 0.2], [0.2, 0.3]])
        r = entropy_version_bound(joint, equality_relation(),
                                  bounds=RelationBounds(0.5, 0.5))
        assert r.holds


class TestIndependentSamples:
    prior = FiniteDistribution((0, 1), (0.5, 0.5))
    channel = Channel((0, 1), (0, 1), [[0.9, 0.1], [0.2, 0.8]])
    window = RelationBounds(0.25, 0.7)

    def test_single_use_matches_the_relation_bound_weakened_by_observation(self):
        r = independent_samples_bound(self.prior, self.channel, 1, MLEstimator(),
                                      equality_relation(), bounds=self.window)
        mi1 = mutual_information(
            joint_from_prior_and_channel(self.prior, self.channel)
        )
        direct = check_kl_diffusion(r.observed, BoundInputs(mi1, "kl", 0.25, 0.7))
        assert r.bound_value == direct.bound_value

    def test_three_uses(self):
        r = independent_samples_bound(self.prior, self.channel, 3, MLEstimator(),
                                      equality_relation(), bounds=self.window)
        assert r.holds
        assert r.feasible_sup is not None and r.feasible_sup >= r.observed - 1e-9
        assert "worst-case-divergence bound value" in r.notes

    def test_deterministic_channel_saturates(self):
        prior = FiniteDistribution((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))
        ident = Channel((0, 1, 2), (0, 1, 2),
                        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        r = independent_samples_bound(prior, ident, 1, MLEstimator(),
                                      equality_relation(),
                                      bounds=RelationBounds(0.0, 1 / 3))
        assert r.observed == 1.0 and r.holds


class TestDistanceBound:
    def test_identity_joint_on_six_points(self):
        r = distance_fano_bound(diag_joint(6), lambda x, y: abs(x - y), 1)
        assert r.bound_value == math.log(3)
        assert r.observed == 0.0
        assert (r.p_min, r.p_max) == (1 / 3, 0.5)
        assert "ball counts (2, 3)" in r.notes
        assert "entropy-version value" in r.notes

    def test_radius_beyond_the_diameter(self):
        r = distance_fano_bound(diag_joint(4), lambda x, y: abs(x - y), 99)
        assert r.bound_value == pytest.approx(math.log(4), abs=1e-12)
        assert r.holds

    def test_independent_estimate_still_obeys_the_bound(self):
        m = 6
        w = [[1.0 / 36.0] * m for _ in range(m)]
        joint = JointDistribution(tuple(range(m)), tuple(range(m)), w)
        r = distance_fano_bound(joint, lambda x, y: abs(x - y), 1)
        assert r.observed == pytest.approx(math.log(6), abs=1e-12)
        assert r.holds

    def test_alphabets_must_agree(self):
        bad = JointDistribution((0, 1), ("a", "b"), [[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(RangeMismatch):
            distance_fano_bound(bad, lambda x, y: 0.0, 1)

    def test_prior_must_be_uniform(self):
        skew = JointDistribution((0, 1), (0, 1), [[0.6, 0.0], [0.0, 0.4]])
        with pytest.raises(NonUniformPrior):
            distance_fano_bound(skew, lambda x, y: abs(x - y), 0)


class TestMiDistance:
    def test_check_against_the_closed_form(self):
        r = mi_distance_bound(0.0, 4, 1, p_t=0.6)
        from fanokit import binary_entropy
        want = 1.0 - (0.0 + binary_entropy(0.6)) / math.log(4)
        assert r.bound_value == pytest.approx(want, abs=1e-12)
        assert r.slack == pytest.approx(0.6 - want, abs=1e-12)
        assert r.holds

    def test_solve_finds_the_half_root(self):
        # at zero information with four targets and singleton balls the
        # solve threshold is exactly one half
        r = mi_distance_bound(0.0, 4, 1, mode="solve")
        assert r.feasible_sup == pytest.approx(0.5, abs=5e-10)

    def test_high_information_goes_vacuous_gracefully(self):
        r = mi_distance_bound(2.0, 4, 1, p_t=0.0)
        assert r.bound_value < 0.0 and r.holds

    def test_ball_cannot_cover_everything(self):
        with pytest.raises(DegenerateDenominator):
            mi_distance_bound(0.0, 4, 4, p_t=0.5)
        # a one-label alphabet is the same vanishing log ratio
        with pytest.raises(DegenerateDenominator):
            mi_distance_bound(0.0, 1, 1, p_t=0.0)
        with pytest.raises(FanoError, match="size"):
            mi_distance_bound(0.0, 0, 1, p_t=0.5)

    @pytest.mark.parametrize("size, ball_max, field", [
        (6.9, 2, "size"), (6, 2.5, "ball_max"), ("6", 2, "size"), (6, None, "ball_max"),
        (math.inf, 2, "size"), (math.nan, 2, "size"), (True, 1, "size"),
    ])
    def test_counts_must_be_whole_numbers(self, size, ball_max, field):
        with pytest.raises(FanoError, match="^%s: must be a whole number" % field):
            mi_distance_bound(0.3, size, ball_max, p_t=0.5)

    def test_integral_floats_count_as_whole(self):
        want = mi_distance_bound(0.3, 6, 2, p_t=0.5)
        assert mi_distance_bound(0.3, 6.0, 2.0, p_t=0.5) == want


class TestContinuous:
    dom = ContinuousDomain(((0.0, 1.0),), "abs", 0.1)

    def test_frozen_interval_value(self):
        # 1 - ln 2 / ln 5 for zero information on the unit interval, t = 0.1
        r = continuous_fano_bound(0.0, self.dom, p_t=0.6)
        assert r.bound_value == pytest.approx(0.5693234419266069, abs=1e-14)
        assert r.holds
        assert "variant log2" in r.notes

    def test_variants_coincide_at_one_half(self):
        a = continuous_fano_bound(0.0, self.dom, p_t=0.5, variant="log2")
        b = continuous_fano_bound(0.0, self.dom, p_t=0.5, variant="entropy")
        assert a.bound_value == b.bound_value

    def test_entropy_variant_is_tighter_above_one_half(self):
        a = continuous_fano_bound(0.0, self.dom, p_t=0.6, variant="log2")
        b = continuous_fano_bound(0.0, self.dom, p_t=0.6, variant="entropy")
        assert b.bound_value > a.bound_value
        assert b.bound_value == pytest.approx(0.5818343399209482, abs=1e-12)

    def test_solve_equals_the_check_threshold(self):
        r = continuous_fano_bound(0.0, self.dom, mode="solve")
        assert r.feasible_sup == pytest.approx(0.5693234419266069, abs=1e-12)

    def test_monte_carlo_volume_reports_an_interval(self):
        # on an interval Monte Carlo is exact; the disc still samples
        disc = ContinuousDomain(((0.0, 1.0), (0.0, 1.0)), "l2", 0.2)
        r = continuous_fano_bound(0.0, disc, p_t=0.6,
                                  volume_method="monte-carlo", samples=4096)
        assert "standard error" in r.notes
        assert "monte-carlo" in r.notes

    def test_degenerate_balls(self):
        with pytest.raises(DegenerateDenominator):
            continuous_fano_bound(
                0.0, ContinuousDomain(((0.0, 1.0),), "abs", 0.6), p_t=0.5
            )
        with pytest.raises(ZeroVolumeDenominator):
            continuous_fano_bound(
                0.0, ContinuousDomain(((0.0, 1.0),), "abs", 0.0), p_t=0.5
            )


@settings(max_examples=300, deadline=None)
@given(mi=st.one_of(st.floats(0.0, 3.0), st.just(math.inf)),
       p_t=st.floats(0.0, 1.0), size=st.integers(2, 12), data=st.data())
def test_counting_and_volume_bounds_are_one_inequality(mi, p_t, size, data):
    # b labels in a ball out of size is the volume ratio of a radius-b/2
    # interval in [0, size]: both bounds must agree bit for bit
    b = data.draw(st.integers(1, size - 1))
    interval = ContinuousDomain(((0.0, size),), "abs", b / 2)
    counting = mi_distance_bound(mi, size, b, p_t=p_t)
    volume = continuous_fano_bound(mi, interval, p_t=p_t, variant="entropy",
                                   volume_method="exact")
    assert (counting.bound_value, counting.slack) == (volume.bound_value, volume.slack)
    counting = mi_distance_bound(mi, size, b, mode="solve")
    volume = continuous_fano_bound(mi, interval, variant="entropy", mode="solve",
                                   volume_method="exact")
    assert counting.feasible_sup == volume.feasible_sup


def exceedance_threshold_reference(mi_nats, variant, log_ratio, q):
    """The exceedance bound as written before it went through the KL kernel."""
    if math.isinf(mi_nats):
        return -math.inf
    offset = math.log(2.0) if variant == "log2" else binary_entropy(q)
    return 1.0 - (mi_nats + offset) / log_ratio


def exceedance_solve_reference(mi_nats, log_ratio):
    """The entropy-variant infimum as found before the shared solver: bisect
    the concave q - threshold(q) over all of [0, 1]."""
    if math.isinf(mi_nats):
        return 0.0

    def g(q):
        return q - exceedance_threshold_reference(mi_nats, "entropy", log_ratio, q)

    if g(0.0) >= 0.0:
        return 0.0
    return _bisect_boundary(lambda q: -g(q), 0.0, 1.0, SOLVE_TOLERANCE)


@settings(max_examples=300, deadline=None)
@given(mi=st.one_of(st.floats(0.0, 5.0), st.just(math.inf)), p_t=st.floats(0.0, 1.0),
       size=st.integers(2, 10 ** 9), base=st.sampled_from([math.e, 2.0]),
       width=st.floats(1.0, 50.0), data=st.data())
def test_exceedance_check_matches_the_old_formula(mi, p_t, size, base, width, data):
    b = data.draw(st.integers(1, size - 1))
    mi_nats = mi * math.log(base)
    want = exceedance_threshold_reference(
        mi_nats, "entropy", math.log(size) - math.log(b), p_t)
    r = mi_distance_bound(mi, size, b, p_t=p_t, base=base)
    assert (r.bound_value, r.slack) == (want, p_t - want)
    t = data.draw(st.floats(1e-3, 0.49 * width))
    dom = ContinuousDomain(((0.0, width),), "abs", t)
    ball, _ = sup_ball_volume(dom, method="exact")
    log_ratio = math.log(dom.volume) - math.log(ball)
    for variant in ("log2", "entropy"):
        want = exceedance_threshold_reference(mi_nats, variant, log_ratio, p_t)
        r = continuous_fano_bound(mi, dom, p_t=p_t, variant=variant,
                                  volume_method="exact", base=base)
        assert (r.bound_value, r.slack) == (want, p_t - want)
    # the log2 solve keeps its closed form
    want = min(max(exceedance_threshold_reference(mi_nats, "log2", log_ratio, 0.0),
                   0.0), 1.0)
    r = continuous_fano_bound(mi, dom, mode="solve", volume_method="exact", base=base)
    assert r.feasible_sup == want


@settings(max_examples=300, deadline=None)
@given(mi=st.one_of(st.floats(0.0, 5.0), st.just(math.inf)),
       size=st.integers(2, 10 ** 12), data=st.data())
def test_entropy_exceedance_solve_matches_the_old_bisection(mi, size, data):
    b = data.draw(st.integers(1, size - 1))
    want = exceedance_solve_reference(mi, math.log(size) - math.log(b))
    got = mi_distance_bound(mi, size, b, mode="solve").feasible_sup
    assert abs(got - want) <= SOLVE_TOLERANCE
    if math.isinf(mi):
        assert got == want == 0.0


def renyi_rhs_reference(div, alpha, p, p_min, p_max):
    """_renyi_rhs_nats as written before it shared _renyi_ratio."""
    a1 = alpha - 1.0
    a_val = div + _binary_renyi_entropy_nats(p, alpha) + math.log1p(-p_min)
    if a_val < 0.0:
        if a_val >= -RENYI_ZERO_BAND:
            return 0.0
        raise InconsistentBounds("divergence")
    try:
        num = math.expm1(a1 * a_val)
    except OverflowError:
        num = math.inf
    if alpha < 1.0:
        num *= p ** alpha + (1.0 - p) ** alpha
    try:
        den = math.expm1(a1 * _log_ratio(p_min, p_max))
    except OverflowError:
        den = math.inf
    if num == 0.0:
        return 0.0
    ratio = num / den
    if ratio < 0.0:
        raise NumericalInstability("alpha")
    if math.isinf(ratio):
        return math.inf
    return ratio ** (1.0 / alpha)


def renyi_solve_reference(div, alpha, p_min, p_max):
    """The order-alpha solve_diffusion as written before the shared solver,
    with its inline cleared margin; None where no grid point is feasible."""
    a1 = alpha - 1.0
    sign = 1.0 if alpha > 1.0 else -1.0
    try:
        den = math.expm1(a1 * _log_ratio(p_min, p_max))
    except OverflowError:
        den = math.inf

    def g(p):
        a_val = div + _binary_renyi_entropy_nats(p, alpha) + math.log1p(-p_min)
        try:
            num = math.expm1(a1 * a_val)
        except OverflowError:
            num = math.inf
        if alpha < 1.0:
            num *= p ** alpha + (1.0 - p) ** alpha
        return sign * (num - (p ** alpha) * den)

    step = 1.0 / (SOLVE_GRID_POINTS - 1)
    last = SOLVE_GRID_POINTS - 1
    if g(last * step) >= 0.0:
        return 1.0
    for i in range(last - 1, -1, -1):
        if g(i * step) >= 0.0:
            return _bisect_boundary(g, i * step, (i + 1) * step, SOLVE_TOLERANCE)
    return None


def denominator_overflows(alpha, p_min, p_max):
    try:
        math.expm1((alpha - 1.0) * _log_ratio(p_min, p_max))
    except OverflowError:
        return True
    return False


def outcome(f, *args):
    """f(*args), or the type of the FanoError or arithmetic error it raises."""
    try:
        return f(*args)
    except (FanoError, ArithmeticError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(alpha=st.one_of(st.floats(0.01, 0.999), st.floats(1.001, 5.0),
                       st.floats(5.0, 5000.0)),
       p_min=st.one_of(st.just(0.0), st.floats(0.0, 0.98)),
       share=st.floats(1e-6, 1.0, exclude_max=True), div=st.floats(0.0, 8.0),
       p=st.floats(0.0, 1.0))
def test_renyi_bound_and_solve_match_the_inline_ratio(alpha, p_min, share, div, p):
    # orders in the thousands overflow expm1 in the numerator and the
    # denominator. The inline ratio is the reference wherever the
    # denominator stays in the double range; past it, the inline ratio gave
    # NaN (inf / inf) or 0 (finite / inf) and found no feasible point, and
    # test_order_alpha_past_the_double_range_matches_mpmath pins the new
    # values. A huge ratio's root at a small order overflowed; it is inf now.
    p_max = (1.0 - p_min) * share
    if p_min + p_max >= 1.0 or denominator_overflows(alpha, p_min, p_max):
        return
    inputs = BoundInputs(div, alpha, p_min, p_max)
    want = outcome(renyi_rhs_reference, div, alpha, p, p_min, p_max)
    if want is OverflowError:
        want = math.inf
    got = outcome(lambda: check_renyi_diffusion(p, inputs).bound_value)
    assert repr(got) == repr(want)     # bit for bit
    want = renyi_solve_reference(div, alpha, p_min, p_max)
    if want is None:
        with pytest.raises(NoFeasiblePoint):
            solve_diffusion(inputs)
    else:
        assert solve_diffusion(inputs).feasible_sup == want


def renyi_rhs_mpmath(div, alpha, p, p_min, p_max):
    """The order-alpha bound at 60 digits from the exact doubles given."""
    with mpmath.workdps(60):
        a, p = mpmath.mpf(alpha), mpmath.mpf(p)
        power_sum = p ** a + (1 - p) ** a
        keep = 1 - mpmath.mpf(p_min)
        exponent = div + mpmath.log(power_sum) / (1 - a) + mpmath.log(keep)
        num = mpmath.expm1((a - 1) * exponent) * (power_sum if a < 1 else 1)
        den = mpmath.expm1((a - 1) * mpmath.log(keep / mpmath.mpf(p_max)))
        return float((num / den) ** (1 / a))


def assert_solves_to_the_mpmath_root(div, alpha, p_min, p_max):
    """The mpmath margin RHS(p) - p changes sign within 2 SOLVE_TOLERANCE of
    the solve's supremum (or stays feasible at 1 when it returns 1)."""
    sup = solve_diffusion(BoundInputs(div, alpha, p_min, p_max)).feasible_sup

    def margin(p):
        return renyi_rhs_mpmath(div, alpha, p, p_min, p_max) - p

    band = 1e-12
    if sup == 1.0:
        assert margin(1.0) >= -band
        return
    assert margin(max(sup - 2 * SOLVE_TOLERANCE, 0.0)) >= -band
    assert margin(min(sup + 2 * SOLVE_TOLERANCE, 1.0)) <= band


def assert_close_to_mpmath(got, want):
    assert got == want or abs(got - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("div, alpha, p, p_min, p_max", [
    (0.0, 1026.0, 0.5, 0.0, 0.5),                 # both expm1 terms overflow: was NaN
    (0.0, 1026.0, 0.4, 0.0, 0.5),                 # the denominator alone: was 0
    (1.0, 0.03125, 0.0, 0.0, 0.9999999999999999),  # the root overflows: was OverflowError
    (3.0, 2000.0, 0.25, 0.1, 0.3),
])
def test_order_alpha_past_the_double_range_matches_mpmath(div, alpha, p, p_min, p_max):
    got = check_renyi_diffusion(p, BoundInputs(div, alpha, p_min, p_max))
    assert_close_to_mpmath(got.bound_value, renyi_rhs_mpmath(div, alpha, p, p_min, p_max))
    assert got.holds
    assert_solves_to_the_mpmath_root(div, alpha, p_min, p_max)


@pytest.mark.parametrize("case, value", [
    ('"alpha": 1026, "divergence": 0, "p_min": 0, "p_max": 0.5, "p": 0.5', '1.0'),
    ('"alpha": 0.03125, "divergence": 1, "p_min": 0, "p_max": 0.9999999999999999, '
     '"p": 0', '"inf"')])
def test_order_alpha_bound_past_the_double_range_holds_on_the_cli(capsys, case, value):
    # these printed NaN and exited 2, or escaped as a bare OverflowError
    from fanokit.cli import main
    rc = main(["bound", '{"kind": "renyi", %s}' % case, "--format", "json"])
    assert rc == 0
    assert '"bound_value": %s,' % value in capsys.readouterr().out


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(60.0, 5000.0), past=st.floats(0.5, 200.0),
       div=st.floats(0.0, 6.0),
       p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)))
@example(alpha=60.5, past=1.0, div=5e-324, p=0.0)     # a subnormal numerator
def test_order_alpha_past_the_double_range_matches_mpmath_drawn(alpha, past, div, p):
    # a window whose (alpha - 1) L passes expm1's range by `past`; p_min = 0
    # keeps the exponent a sum of non-negative terms, so the doubles carry
    # no cancellation for the reference to disagree with
    share = math.exp(-(710.0 + past) / (alpha - 1.0))
    assert denominator_overflows(alpha, 0.0, share)
    got = check_renyi_diffusion(p, BoundInputs(div, alpha, 0.0, share)).bound_value
    assert_close_to_mpmath(got, renyi_rhs_mpmath(div, alpha, p, 0.0, share))
    assert_solves_to_the_mpmath_root(div, alpha, 0.0, share)


def kl_rhs_reference(div, p, p_min, p_max):
    """_kl_rhs_nats as written before its terms were memoised."""
    return (div + _binary_entropy_nats(p) + math.log1p(-p_min)) / _log_ratio(p_min, p_max)


def renyi_ratio_reference(div, alpha, p, p_min, p_max):
    """_renyi_ratio as written before its terms were memoised."""
    a1 = alpha - 1.0
    a_val = div + _binary_renyi_entropy_nats(p, alpha) + math.log1p(-p_min)
    try:
        num = math.expm1(a1 * a_val)
    except OverflowError:
        num = math.inf
    if alpha < 1.0:
        num *= p ** alpha + (1.0 - p) ** alpha
    try:
        den = math.expm1(a1 * _log_ratio(p_min, p_max))
    except OverflowError:
        den = math.inf
    return a_val, num, den


def key_forms(x):
    """x and the keys a memo table cannot tell from it, each zero sign
    both ways round: 0.0, -0.0 and 0 for a zero, the int and the float for
    a whole number."""
    if x == 0:
        return (0.0, -0.0, 0, 0.0, -0.0)
    if x == int(x):
        return (float(x), int(x), float(x))
    return (x,)


def fill_term_tables():
    """Distinct keys past TERM_CACHE_SIZE: every later key evicts one."""
    for i in range(TERM_CACHE_SIZE + 8):
        p = i / (4.0 * TERM_CACHE_SIZE)
        _kl_rhs_nats(0.5, p, 0.0, 0.25 + p)
        _renyi_ratio(0.5, 3.0, p, 0.0, 0.25 + p)
    assert _event_terms.cache_info().currsize == TERM_CACHE_SIZE
    assert _window_terms.cache_info().currsize == TERM_CACHE_SIZE


SMALL_SWEEP = SweepSpec(outcome_counts=(2, 3), weight_grid_denominator=4,
                        alphas=(0.5, 2.0))


def uncached_run(module, run):
    """run() with the kernels the given fanokit module calls swapped for
    the bodies as written before memoisation."""
    with pytest.MonkeyPatch.context() as patch:
        for name, reference in (("_kl_rhs_nats", kl_rhs_reference),
                                ("_renyi_ratio", renyi_ratio_reference),
                                ("_renyi_rhs_nats", renyi_rhs_reference)):
            if hasattr(module, name):
                patch.setattr(module, name, reference)
        return run()


@settings(max_examples=80, deadline=None)
@given(calls=st.lists(st.tuples(
           st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 6.0)),
           st.one_of(st.sampled_from([0.5, 2.0, 3.0]), st.floats(0.05, 0.95),
                     st.floats(1.05, 800.0)),
           st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 0.9)),
           st.floats(1e-6, 0.999)), min_size=1, max_size=6),
       fill=st.booleans(), interleave=st.booleans())
def test_memoised_kernels_match_the_uncached_bodies(calls, fill, interleave):
    if fill:
        fill_term_tables()
    for div, alpha, p, p_min, share in calls:
        if not p_min + (1.0 - p_min) * share < 1.0:
            continue
        forms = [key_forms(x) for x in (div, alpha, p, p_min)]
        for i in range(max(map(len, forms))):
            d, a, q, lo = (f[i % len(f)] for f in forms)
            hi = (1.0 - lo) * share
            inputs = BoundInputs(d, a, lo, hi)
            want = repr(kl_rhs_reference(d, q, lo, hi))
            assert repr(_kl_rhs_nats(d, q, lo, hi)) == want
            assert repr(check_kl_diffusion(q, inputs).bound_value) == want
            assert (repr(_renyi_ratio(d, a, q, lo, hi))
                    == repr(renyi_ratio_reference(d, a, q, lo, hi)))
            if not denominator_overflows(a, lo, hi):
                want = outcome(renyi_rhs_reference, d, a, q, lo, hi)
                want = repr(math.inf if want is OverflowError else want)
                assert repr(outcome(_renyi_rhs_nats, d, a, q, lo, hi)) == want
                assert repr(outcome(
                    lambda: check_renyi_diffusion(q, inputs).bound_value)) == want
        if interleave:
            # solves pass a thousand grid keys through the tables between
            # sweeps, whose keys then come back
            for a in ("kl", alpha):
                inputs = BoundInputs(div, a, p_min, (1.0 - p_min) * share)
                got = outcome(lambda: solve_diffusion(inputs).feasible_sup)
                want = outcome(lambda: uncached_run(
                    bounds, lambda: solve_diffusion(inputs).feasible_sup))
                assert repr(got) == repr(want)
            got = sweep_diffusion(SMALL_SWEEP).to_json_obj(include_timing=False)
            want = uncached_run(verify, lambda: sweep_diffusion(
                SMALL_SWEEP).to_json_obj(include_timing=False))
            assert got == want


class TestReportPlumbing:
    def test_json_object_shape(self):
        r = check_kl_diffusion(0.5, BoundInputs(0.0, "kl", 0.0, 0.5))
        obj = r.to_json_obj()
        assert sorted(obj) == [
            "bound_value", "feasible_sup", "mode", "notes", "observed",
            "slack", "solver_tolerance",
        ]

    def test_csv_round(self):
        r = solve_diffusion(BoundInputs(0.0, "kl", 0.0, 0.5))
        r = dataclasses.replace(r, instance_id="root")
        text = reports_to_csv([r])
        header, row = text.strip().splitlines()
        assert header.split(",")[0] == "instance-id"
        assert row.startswith("root,solve,kl,0,0.5,0,")

    def test_holds_uses_the_mode_convention(self):
        up = check_kl_diffusion(0.2, BoundInputs(0.0, "kl", 0.0, 0.5))
        assert up.slack == up.bound_value - up.observed
        low = mi_distance_bound(0.0, 4, 1, p_t=0.6)
        assert low.slack == pytest.approx(low.observed - low.bound_value, abs=1e-15)


# -- order-alpha exponents that cancel below double precision -------------------

@st.composite
def sweep_instances(draw):
    """(div, alpha, p, p_min, p_max) as the sweep builds them: P on the grid
    of denominator d, Q on its full-support grid, a proper nonempty event and
    one of its occupancy windows."""
    d = draw(st.integers(3, 24))
    k = draw(st.sampled_from([2, 3]))
    p_cuts = sorted(draw(st.lists(st.integers(0, d), min_size=k - 1, max_size=k - 1)))
    q_cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=k - 1,
                                  max_size=k - 1, unique=True)))
    p_vec = [(b - a) / d for a, b in zip([0] + p_cuts, p_cuts + [d])]
    q_vec = [(b - a) / d for a, b in zip([0] + q_cuts, q_cuts + [d])]
    alpha = draw(st.one_of(st.sampled_from([0.25, 0.5, 2.0, 4.0, 16.0, 32.0, 64.0, 100.0]),
                           st.floats(1.5, 128.0)))
    mask = draw(st.integers(1, 2 ** k - 2))
    bits = [i for i in range(k) if mask >> i & 1]
    _, p_min, p_max = draw(st.sampled_from(
        verify._windows(math.fsum(q_vec[i] for i in bits))))
    return (_renyi_nats(list(zip(p_vec, q_vec)), alpha), alpha,
            math.fsum(p_vec[i] for i in bits), p_min, p_max)


# the sweep's k2-p1.7-q3.5-e1-tight-a32.0: a is 4.5e-17 at 60 digits, 0 in doubles
ROUNDED_ZERO = (0.33216477234300257, 32.0, 0.125, 0.375, 0.375)


def exponent_mpmath(div, alpha, p, p_min):
    """a = div + h_alpha(p) + ln(1 - p_min) at 60 digits from the exact
    doubles given."""
    with mpmath.workdps(60):
        a, p = mpmath.mpf(alpha), mpmath.mpf(p)
        h = mpmath.log(p ** a + (1 - p) ** a) / (1 - a)
        return mpmath.mpf(div) + h + mpmath.log1p(-mpmath.mpf(p_min))


@settings(max_examples=80, deadline=None)
@given(sweep_instances())
@example(ROUNDED_ZERO)
def test_the_order_alpha_exponent_is_within_its_rounding_bound(instance):
    div, alpha, p, p_min, p_max = instance
    got = _renyi_ratio(div, alpha, p, p_min, p_max)[0]
    delta = EXPONENT_ROUNDING * sys.float_info.epsilon * (
        abs(div) + _binary_renyi_entropy_nats(p, alpha) + abs(math.log1p(-p_min)))
    with mpmath.workdps(60):
        assert abs(got - exponent_mpmath(div, alpha, p, p_min)) <= delta


@settings(max_examples=80, deadline=None)
@given(sweep_instances(), st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
@example(ROUNDED_ZERO, 1.0)
def test_every_order_alpha_violation_reported_holds_at_60_digits(instance, scale):
    # a divergence scaled below the pair's own can make a violation real
    div, alpha, p, p_min, p_max = instance
    div *= scale
    try:
        report = check_renyi_diffusion(p, BoundInputs(div, alpha, p_min, p_max))
    except (NumericalInstability, InconsistentBounds):
        return          # an undecidable verdict, or a divergence too small for the window
    if report.holds:
        return
    with mpmath.workdps(60):
        positive = exponent_mpmath(div, alpha, p, p_min) > 0
    want = renyi_rhs_mpmath(div, alpha, p, p_min, p_max) if positive else 0.0
    assert p - want > report.solver_tolerance, (report.bound_value, want)


def test_a_rounded_zero_bound_is_refused_naming_its_window():
    div, alpha, p, p_min, p_max = ROUNDED_ZERO
    assert _renyi_rhs_nats(div, alpha, p, p_min, p_max) == 0.0
    assert renyi_rhs_mpmath(div, alpha, p, p_min, p_max) == pytest.approx(0.2093, abs=1e-4)
    with pytest.raises(NumericalInstability, match=r"^alpha: window \(0\.375, 0\.375\): "):
        check_renyi_diffusion(p, BoundInputs(div, alpha, p_min, p_max))
