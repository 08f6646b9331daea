"""Self-check machinery: grid sweeps, support bounds, limit tables."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dirichlet_pair
from fanokit import (
    FiniteDistribution,
    SweepSpec,
    sweep_diffusion,
    verify_limit,
    verify_power_sum,
    verify_support_bound,
)
from fanokit.errors import BadPminPmax, FanoError, GridTooLarge, NumericalInstability
from fanokit.bounds import _kl_rhs_nats, _renyi_rhs_nats
from fanokit.divergences import _kl_nats, _renyi_nats
from fanokit import verify
from fanokit.verify import _compositions, _planned_instances


def sweep_reference(spec, kl_rhs=_kl_rhs_nats, renyi_rhs=_renyi_rhs_nats):
    """sweep_diffusion's loop as written before its per-P and per-Q tables:
    (instances, violations, max_violation, worst_instance)."""
    d = spec.weight_grid_denominator
    instances = 0
    violations = 0
    max_excess = -math.inf
    worst = None
    for k in sorted(spec.outcome_counts):
        masks = [m for m in range(1, 2 ** k - 1)]
        mask_bits = {m: [i for i in range(k) if m >> i & 1] for m in masks}
        for p_parts in _compositions(d, k, 0):
            p_vec = [a / d for a in p_parts]
            for q_parts in _compositions(d, k, 1):
                q_vec = [a / d for a in q_parts]
                atoms = list(zip(p_vec, q_vec))
                divs = [("kl", None, _kl_nats(atoms))]
                divs += [(a, a, _renyi_nats(atoms, a)) for a in spec.alphas]
                for mask in masks:
                    bits = mask_bits[mask]
                    p_event = math.fsum(p_vec[i] for i in bits)
                    q_event = math.fsum(q_vec[i] for i in bits)
                    windows = []
                    if q_event + q_event < 1.0:
                        windows.append(("tight", q_event, q_event))
                    windows.append(("slack", 0.0, q_event))
                    for tag, p_min, p_max in windows:
                        for alpha_key, alpha, div in divs:
                            if alpha is None:
                                rhs = kl_rhs(div, p_event, p_min, p_max)
                            else:
                                rhs = renyi_rhs(div, alpha, p_event, p_min, p_max)
                            excess = p_event - rhs
                            instances += 1
                            if excess > spec.tolerance:
                                violations += 1
                            if excess > max_excess:
                                max_excess = excess
                                worst = {
                                    "id": "k%d-p%s-q%s-e%d-%s-a%s" % (
                                        k,
                                        ".".join(map(str, p_parts)),
                                        ".".join(map(str, q_parts)),
                                        mask, tag, alpha_key),
                                    "k": k,
                                    "p": p_vec,
                                    "q": q_vec,
                                    "event": bits,
                                    "p_min": p_min,
                                    "p_max": p_max,
                                    "alpha": alpha_key,
                                    "p_event": p_event,
                                    "bound_value": rhs,
                                    "excess": excess,
                                }
    return instances, violations, max_excess, worst


def recording(calls, kernel):
    """kernel, appending its name and arguments to calls on every call."""
    def record(*args):
        calls.append((kernel.__name__,) + args)
        return kernel(*args)
    return record


class TestSweep:
    small = SweepSpec(outcome_counts=(2,), weight_grid_denominator=4,
                      alphas=(0.5, 2.0))

    def test_small_grid_is_clean(self):
        s = sweep_diffusion(self.small)
        assert s.instances == 120
        assert s.violations == 0
        assert s.max_violation == 0.0

    def test_summary_is_deterministic(self):
        a = sweep_diffusion(self.small).to_json_obj(include_timing=False)
        b = sweep_diffusion(self.small).to_json_obj(include_timing=False)
        assert a == b

    def test_worst_instance_is_replayable(self):
        worst = sweep_diffusion(self.small).worst_instance
        for key in ("id", "k", "p", "q", "event", "p_min", "p_max", "alpha",
                    "p_event", "bound_value", "excess"):
            assert key in worst
        assert worst["id"].startswith("k2-")

    def test_timing_is_opt_in(self):
        s = sweep_diffusion(self.small)
        assert "elapsed_ms" in s.to_json_obj()
        assert "elapsed_ms" not in s.to_json_obj(include_timing=False)

    def test_planned_size_is_capped(self):
        with pytest.raises(GridTooLarge):
            sweep_diffusion(SweepSpec(outcome_counts=(4, 5),
                                      weight_grid_denominator=64))

    @pytest.mark.parametrize("counts, d, alphas", [
        ((2, 3), 4, (0.5, 2.0)), ((3,), 6, (0.25,)), ((2, 3, 4), 6, (2.0,)),
        ((4,), 8, ()), ((2, 2), 10, (0.5, 4.0)), ((2,), 1, (0.5,))])
    def test_the_plan_counts_the_instances_the_sweep_runs(self, counts, d, alphas):
        spec = SweepSpec(outcome_counts=counts, weight_grid_denominator=d,
                         alphas=alphas)
        assert _planned_instances(spec) == sweep_diffusion(spec).instances

    def test_the_default_plan_counts_tight_windows_only_where_they_run(self):
        assert _planned_instances(SweepSpec()) == 615_600

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           d=st.integers(1, 6),
           alphas=st.tuples(st.floats(0.05, 0.95), st.floats(1.05, 6.0)),
           more=st.lists(st.sampled_from([0.25, 0.5, 2.0, 4.0]), max_size=2),
           tolerance=st.one_of(st.just(1e-9), st.floats(-1.0, 0.0)))
    def test_the_sweep_matches_the_old_loop(self, counts, d, alphas, more, tolerance):
        # negative tolerances count violations, and ties in the excess
        # (exact zeros above all) exercise the first-max rule; the kernel
        # calls, made through verify's module names, come in the same order
        # with the same arguments
        spec = SweepSpec(outcome_counts=tuple(counts), weight_grid_denominator=d,
                         alphas=alphas + tuple(more), tolerance=tolerance)
        got_calls, want_calls = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_kl_rhs_nats", recording(got_calls, _kl_rhs_nats))
            patch.setattr(verify, "_renyi_rhs_nats",
                          recording(got_calls, _renyi_rhs_nats))
            s = sweep_diffusion(spec)
        want = sweep_reference(spec, recording(want_calls, _kl_rhs_nats),
                               recording(want_calls, _renyi_rhs_nats))
        assert (s.instances, s.violations, s.max_violation, s.worst_instance) == want
        assert len(got_calls) == len(want_calls)
        first = next((i for i, (g, w) in enumerate(zip(got_calls, want_calls))
                      if repr(g) != repr(w)), None)
        assert first is None, (got_calls[first], want_calls[first])

    @pytest.mark.parametrize("counts", [(0,), (2, 0), (-1, 3)])
    def test_outcome_counts_below_one_are_refused(self, counts):
        with pytest.raises(FanoError, match="^outcome_counts: "):
            sweep_diffusion(SweepSpec(outcome_counts=counts, weight_grid_denominator=4))

    @pytest.mark.parametrize("alpha", [1.0, 0.0, math.inf, -2.0])
    def test_unusable_orders_are_refused(self, alpha):
        with pytest.raises(NumericalInstability):
            sweep_diffusion(SweepSpec(outcome_counts=(2,),
                                      weight_grid_denominator=4,
                                      alphas=(alpha,)))


class TestSupportBound:
    def test_point_mass_is_tight(self):
        P = FiniteDistribution((0, 1), (1.0, 0.0))
        Q = FiniteDistribution((0, 1), (0.25, 0.75))
        c = verify_support_bound(P, Q)
        assert c.passed and c.slack == 0.0
        assert c.divergence == c.support_term == -math.log(0.25)

    def test_disjoint_supports_compare_as_equal_infinities(self):
        P = FiniteDistribution((0, 1), (1.0, 0.0))
        Q = FiniteDistribution((0, 1), (0.0, 1.0))
        c = verify_support_bound(P, Q)
        assert c.passed and c.slack == 0.0 and c.divergence == math.inf

    def test_partial_support_leaves_infinite_room(self):
        P = FiniteDistribution((0, 1), (0.5, 0.5))
        Q = FiniteDistribution((0, 1), (1.0, 0.0))
        c = verify_support_bound(P, Q)
        assert c.passed and c.slack == math.inf

    def test_random_pairs_never_violate(self):
        for seed in range(40):
            P, Q = dirichlet_pair(seed, 3)
            c = verify_support_bound(P, Q)
            assert c.passed and c.slack >= -1e-12


class TestPowerSum:
    def test_default_grid_is_exactly_clean(self):
        c = verify_power_sum()
        assert c.passed
        assert c.max_violation == 0.0
        assert c.points == 5 * 1001


class TestLimitTables:
    P = FiniteDistribution((0, 1, 2), (0.5, 0.3, 0.2))
    Q = FiniteDistribution((0, 1, 2), (0.2, 0.5, 0.3))

    def event(self, x):
        return x == 0

    def test_orders_below_one_close_in_from_beneath(self):
        t = verify_limit(self.P, self.Q, self.event, 0.0, 0.2, k_max=6,
                         side="below")
        assert t.decreasing and t.converged
        assert len(t.rows) == 6
        assert t.rows[-1].gap <= 1e-4
        # each row really does use orders marching toward one
        assert [r.alpha for r in t.rows] == [
            pytest.approx(1.0 - 10.0 ** -k) for k in range(1, 7)
        ]

    def test_orders_above_one_close_in_from_the_other_side(self):
        t = verify_limit(self.P, self.Q, self.event, 0.0, 0.2, k_max=6,
                         side="above")
        assert t.decreasing and t.converged
        assert t.rows[-1].gap <= 1e-4

    def test_both_sides_share_the_limiting_value(self):
        below = verify_limit(self.P, self.Q, self.event, 0.0, 0.2, side="below")
        above = verify_limit(self.P, self.Q, self.event, 0.0, 0.2, side="above")
        assert below.kl_value == above.kl_value

    def test_unknown_side(self):
        with pytest.raises(NumericalInstability):
            verify_limit(self.P, self.Q, self.event, 0.0, 0.2, side="sideways")

    @pytest.mark.parametrize("p_min, p_max, message", [
        (0.0, 0.0, "^p_max: must be > 0"),
        (0.6, 0.5, "^p_min, p_max: need p_min \\+ p_max < 1")])
    def test_the_window_is_checked_before_the_kernels(self, p_min, p_max, message):
        # before, p_max = 0 escaped as a bare math domain error and an
        # oversized window read as a sign disagreement of the ratio
        with pytest.raises(BadPminPmax, match=message):
            verify_limit(self.P, self.Q, self.event, p_min, p_max)

    def test_depth_is_limited_by_the_kl_routing_band(self):
        # ten digits in would land inside the band where orders reroute to
        # kl, which would silently compare kl against itself
        with pytest.raises(NumericalInstability):
            verify_limit(self.P, self.Q, self.event, 0.0, 0.2, k_max=10)
