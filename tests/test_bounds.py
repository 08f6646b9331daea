"""Diffusion bounds, relation bounds, and their corollaries.

Solver reference roots were computed once with mpmath bisection at 50 digits
and frozen; everything else is checked against closed forms or exhaustive
small grids built inline.
"""
import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import philox
from fanokit import (
    BoundInputs,
    Channel,
    ContinuousDomain,
    FiniteDistribution,
    JointDistribution,
    MLEstimator,
    Relation,
    RelationBounds,
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
)
from fanokit.errors import (
    AlphaIsOne,
    BadPminPmax,
    DegenerateDenominator,
    FanoError,
    InconsistentBounds,
    NonUniformPrior,
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
        with pytest.raises(FanoError):
            mi_distance_bound(0.0, 1, 1, p_t=0.5)


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
