"""Self-check machinery: grid sweeps, support bounds, limit tables."""
import itertools
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from fanokit.bounds import _kl_rhs_nats, _refuse_rounded_zero, _renyi_rhs_nats
from fanokit.divergences import _kl_nats, _renyi_nats
from fanokit import verify
from fanokit.verify import _planned_instances


def reference_id(k, p_parts, q_parts, mask, tag, alpha_key):
    return "k%d-p%s-q%s-e%d-%s-a%s" % (k, ".".join(map(str, p_parts)),
                                       ".".join(map(str, q_parts)), mask, tag, alpha_key)


def sweep_reference(spec):
    """sweep_diffusion as one scalar loop, one kernel call per instance, as
    written before its per-P and per-Q tables and its vector pass:
    (instances, violations, max_violation, worst_instance)."""
    d = spec.weight_grid_denominator
    instances = 0
    violations = 0
    max_excess = -math.inf
    worst = None
    for k in sorted(spec.outcome_counts):
        masks = [m for m in range(1, 2 ** k - 1)]
        mask_bits = {m: [i for i in range(k) if m >> i & 1] for m in masks}
        # every count vector of d, in lexicographic order; Q's have no zero
        grid = [c for c in itertools.product(range(d + 1), repeat=k) if sum(c) == d]
        for p_parts in grid:
            p_vec = [a / d for a in p_parts]
            for q_parts in (c for c in grid if min(c) > 0):
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
                                rhs = _kl_rhs_nats(div, p_event, p_min, p_max)
                            else:
                                rhs = _renyi_rhs_nats(div, alpha, p_event, p_min, p_max)
                            excess = p_event - rhs
                            instances += 1
                            if excess > spec.tolerance:
                                if rhs == 0.0 and alpha is not None:
                                    _refuse_rounded_zero(
                                        div, alpha, p_event, p_min, p_max, spec.tolerance,
                                        "instance " + reference_id(
                                            k, p_parts, q_parts, mask, tag, alpha_key))
                                violations += 1
                            if excess > max_excess:
                                max_excess = excess
                                worst = {
                                    "id": reference_id(k, p_parts, q_parts, mask, tag,
                                                       alpha_key),
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


def outcome(run):
    """repr of run()'s result, or the type and message of the FanoError it
    raises: a float compares bit for bit, an error by type and text."""
    try:
        return repr(run())
    except FanoError as exc:
        return type(exc).__name__, str(exc)


def summary_tuple(s):
    return s.instances, s.violations, s.max_violation, s.worst_instance


def reference_summary(spec):
    """sweep_diffusion's SweepSummary, built by the reference loop."""
    instances, violations, max_violation, worst = sweep_reference(spec)
    return verify.SweepSummary(instances=instances, violations=violations,
                               max_violation=max_violation, worst_instance=worst,
                               elapsed_ms=0.0)


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

    @pytest.mark.parametrize("counts, d, least", [
        ((4, 5), 64, 5_548_596_625),    # refused before k = 4's Q grid is listed
        ((5,), 14, 8_032_500),          # refused once k = 5's orbits are listed
    ])
    def test_the_cap_counts_evaluations_not_instances(self, counts, d, least):
        # 29,601,000 instances are 797,775 evaluations, under the cap
        assert verify.MAX_SWEEP_EVALUATIONS == 5_000_000
        assert _planned_instances(SweepSpec(outcome_counts=(2, 3, 4, 5),
                                            weight_grid_denominator=10)) == 29_601_000
        with pytest.raises(GridTooLarge, match=f"^sweep: at least {least} planned "
                                               "evaluations exceed the cap 5000000$"):
            sweep_diffusion(SweepSpec(outcome_counts=counts, weight_grid_denominator=d))

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           d=st.integers(1, 8),
           alphas=st.tuples(st.floats(0.05, 0.95), st.floats(1.05, 100.0)),
           more=st.lists(st.sampled_from([0.25, 0.5, 2.0, 4.0, 16.0, 32.0, 64.0, 100.0]),
                         max_size=2),
           tolerance=st.one_of(st.just(1e-9), st.floats(-1.0, 0.0)),
           block=st.sampled_from([verify._BLOCK_INSTANCES, 16, 128]))
    # an order near 1, where the divergence's rounding weighs most,
    # excesses exactly at the tolerance, and blocks of one row
    @example(counts=[3], d=7, alphas=(0.96875,), more=[], tolerance=1e-9,
             block=verify._BLOCK_INSTANCES)
    @example(counts=[3], d=3, alphas=(0.5, 2.0), more=[], tolerance=-1.0,
             block=verify._BLOCK_INSTANCES)
    @example(counts=[2], d=7, alphas=(0.5, 2.0), more=[], tolerance=1e-9, block=16)
    def test_the_sweep_matches_the_old_loop(self, counts, d, alphas, more, tolerance,
                                            block):
        # negative tolerances count violations, and ties in the excess
        # (exact zeros above all) exercise the first-max rule; large orders
        # reach the bounds that are 0 only by rounding, which both refuse.
        # Small blocks hold one row each.
        spec = SweepSpec(outcome_counts=tuple(counts), weight_grid_denominator=d,
                         alphas=alphas + tuple(more), tolerance=tolerance)
        want = outcome(lambda: sweep_reference(spec))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_BLOCK_INSTANCES", block)
            assert outcome(lambda: summary_tuple(sweep_diffusion(spec))) == want

    def test_the_default_sweep_matches_the_old_loop(self):
        spec = SweepSpec()
        assert repr(summary_tuple(sweep_diffusion(spec))) == repr(sweep_reference(spec))

    def test_the_default_sweep_rarely_reaches_the_scalar_kernels(self):
        # the vector pass decides all but the instances near the maximum
        # (the tight windows where the bound is an equality) and the few
        # with an exponent near 0
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_kl_rhs_nats", "_renyi_rhs_nats", "_kl_nats", "_renyi_nats"):
                kernel = getattr(verify, name)
                patch.setattr(verify, name, lambda *args, kernel=kernel, name=name: (
                    calls.append(name), kernel(*args))[1])
            s = sweep_diffusion(SweepSpec())
        rhs_calls = calls.count("_kl_rhs_nats") + calls.count("_renyi_rhs_nats")
        assert s.instances == 615_600
        assert 0 < rhs_calls < 0.01 * s.instances
        assert len(calls) - rhs_calls <= rhs_calls

    def test_a_nan_tolerance_is_refused(self):
        # every comparison with NaN is false: the sweep would pass everything
        with pytest.raises(FanoError, match="^tolerance: "):
            sweep_diffusion(SweepSpec(outcome_counts=(2,), weight_grid_denominator=4,
                                      tolerance=math.nan))

    def test_the_largest_rows_at_k4_run_whole_in_a_few_megabytes(self):
        # 2,520 windows (120 Q x 14 events, 840 tight windows among them)
        # x 5 orders = 12,600 instances per P row, each row one block: the
        # largest rows at k = 4 under the cap
        spec = SweepSpec(outcome_counts=(4,), weight_grid_denominator=11)
        tracemalloc.start()
        try:
            s = sweep_diffusion(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.instances == _planned_instances(spec) == 4_586_400
        assert s.violations == 0
        assert peak <= 4_000_000

    def test_blocks_of_several_rows_match_the_old_loop_in_under_a_megabyte(self):
        # 420 windows x 3 orders = 1,260 instances per P row, the benchmark's
        # largest rows: several to a block
        spec = SweepSpec(outcome_counts=(4,), weight_grid_denominator=7, alphas=(0.5, 2.0))
        assert _planned_instances(spec) == 120 * 1_260
        assert verify._BLOCK_INSTANCES >= 2 * 1_260
        tracemalloc.start()
        try:
            got = summary_tuple(sweep_diffusion(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repr(got) == repr(sweep_reference(spec))
        assert peak < 1_000_000

    @pytest.mark.parametrize("counts, d, alphas, tolerance", [
        ((4,), 5, (0.25, 4.0), 1e-9), ((4,), 6, (0.5,), 1e-9), ((4,), 6, (0.5, 2.0), 0.0),
        ((4,), 7, (2.0,), 1e-9), ((5,), 5, (0.5, 2.0), 1e-9), ((5,), 6, (4.0,), 1e-9),
        ((2, 2), 8, (0.5, 2.0), 1e-9), ((3, 4), 5, (0.25, 2.0), -1.0),
        ((4, 5), 5, (0.25,), -1.0),
        # the first evaluation to reach the maximum stands for
        # k3-p0.3.3-q4.1.1-e6-tight-akl, but a later one's image,
        # k3-p0.0.6-q1.4.1-e4-tight-a24.0, ties it and comes first
        ((3,), 6, (24.0,), 1e-9),
        # the first evaluation to raise, k4-p0.3.2.6-q1.2.4.4-e5 and
        # k3-p7.7.4-q5.5.8-e4, is not the first instance to raise,
        # k4-p0.2.3.6-q1.4.2.4-e3 and k3-p4.7.7-q8.5.5-e1
        ((4,), 11, (32.0,), 0.1), ((3,), 18, (32.0,), 0.2),
    ])
    def test_orbit_sweeps_match_the_old_loop(self, counts, d, alphas, tolerance):
        # one evaluation per (Q, E) orbit where orbits hold up to 5! pairs,
        # repeated counts, excesses tied at 0, and thousands of violations
        # (tolerance -1), each counted once per member of its orbit
        spec = SweepSpec(outcome_counts=counts, weight_grid_denominator=d, alphas=alphas,
                         tolerance=tolerance)
        assert (outcome(lambda: summary_tuple(sweep_diffusion(spec)))
                == outcome(lambda: sweep_reference(spec)))

    def test_a_raise_names_the_first_image_among_every_raising_evaluation(self):
        # with a bound that raises wherever P(E) = 1, the first evaluation to
        # raise is p0.3.0-q1.1.1-e3 (slack), whose first image,
        # p0.0.3-q1.1.1-e5, comes after p0.0.3-q1.1.1-e4 (tight), the image
        # of the later evaluation p3.0.0-q1.1.1-e1: the error must be the
        # tight window's. Bands this wide send every order evaluation to the
        # scalar kernels, as a real raise's infinite band does.
        real = verify._renyi_rhs_nats

        def raising(div, alpha, p_event, p_min, p_max):
            if p_event == 1.0:
                raise NumericalInstability(f"P(E) = 1 in window ({p_min!r}, {p_max!r})")
            return real(div, alpha, p_event, p_min, p_max)

        spec = SweepSpec(outcome_counts=(3,), weight_grid_denominator=3, alphas=(2.0,))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "TRANSCENDENTAL_ULPS", 1e16)
            patch.setattr(verify, "_renyi_rhs_nats", raising)
            patch.setattr(sys.modules[__name__], "_renyi_rhs_nats", raising)
            got = outcome(lambda: summary_tuple(sweep_diffusion(spec)))
            assert got == outcome(lambda: sweep_reference(spec))
        assert got == ("NumericalInstability",
                       "P(E) = 1 in window (0.3333333333333333, 0.3333333333333333)")

    def test_one_sweep_holds_under_a_megabyte(self):
        # on the default grid a block holds whole P rows of at most 3,480
        # instances
        sweep_diffusion(SweepSpec())
        tracemalloc.start()
        try:
            sweep_diffusion(SweepSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alphas", "32"],
        ["sweep", "--alphas", "64"],
        ["sweep", "--k", "2,3", "--denominator", "16", "--alphas", "16"],
    ], ids=["a32", "a64", "d16-a16"])
    def test_a_refused_sweep_fails_as_the_old_loop_does(self, argv, capsys):
        from fanokit.cli import main
        got = main(argv), capsys.readouterr()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "sweep_diffusion", reference_summary)
            want = main(argv), capsys.readouterr()
        assert got == want
        assert got[0] == 2 and "double precision cannot decide this instance" in got[1].err

    @pytest.mark.parametrize("counts", [(0,), (2, 0), (-1, 3)])
    def test_outcome_counts_below_one_are_refused(self, counts):
        with pytest.raises(FanoError, match="^outcome_counts: "):
            sweep_diffusion(SweepSpec(outcome_counts=counts, weight_grid_denominator=4))

    @pytest.mark.parametrize("alpha", [1.0, 0.0, math.inf, -2.0, math.nan])
    def test_unusable_orders_are_refused(self, alpha):
        with pytest.raises(NumericalInstability):
            sweep_diffusion(SweepSpec(outcome_counts=(2,),
                                      weight_grid_denominator=4,
                                      alphas=(alpha,)))


def event_members(k, masks):
    return np.array([[m >> i & 1 for i in range(k)] for m in masks],
                    dtype=np.intp).reshape(-1, k)


def permuted(sigma, parts, mask):
    """The sigma-image of (parts, mask): position i takes position sigma[i]'s
    part, and is in the event when sigma[i] is."""
    return ([parts[s] for s in sigma],
            sum(1 << i for i, s in enumerate(sigma) if mask >> s & 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_event_masses_are_the_per_entry_fsums(k):
    # one fsum per distinct multiset of parts stands for one per (row,
    # event); (sum of parts) / d would not: fsum(1/5, 2/5) is
    # 0.6000000000000001, 3/5 is 0.6
    events = [[i for i in range(k) if m >> i & 1] for m in range(1, 2 ** k - 1)]
    members = event_members(k, range(1, 2 ** k - 1))
    for d in range(1, 17):
        p_grid = verify._types(k, d).tolist()
        masses, index = verify._event_masses(np.array(p_grid), members, d)
        want = [[math.fsum(parts[i] / d for i in bits) for bits in events]
                for parts in p_grid]
        assert masses[index].tolist() == want, (k, d)
        # the sweep's tables list the events its windows use, by mask
        tables = verify._event_tables(k, d)
        assert tables.members.tolist() == event_members(k, tables.masks).tolist()
        assert tables.masks == sorted(set(tables.masks))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_the_orbit_tables_stand_for_every_window_once(k):
    # the orbits of the canonical windows, sorted Q with E a prefix of each
    # run of equal parts, are every (Q, E, window) the old loop tried, each
    # once, with the orbit sizes the weights; Q(E) is the per-entry fsum of
    # every member
    for d in range(1, 13):
        tables = verify._event_tables(k, d)
        p_grid = verify._types(k, d).tolist()
        q_grid = [parts for parts in p_grid if min(parts) > 0]
        want = {}
        for q_parts in q_grid:
            for mask in range(1, 2 ** k - 1):
                q_event = math.fsum(q_parts[i] / d for i in range(k) if mask >> i & 1)
                for window in verify._windows(q_event):
                    want[(tuple(q_parts), mask) + window] = 1
        sorted_qs = [p_grid[r] for r in tables.q_rows.tolist()]
        assert sorted_qs == [q for q in q_grid if q == sorted(q)]
        got = {}
        loop = []
        for qi, mi, di, size in zip(tables.w_q.tolist(), tables.w_m.tolist(),
                                    tables.w_d.tolist(), tables.w_size.tolist()):
            q_parts, mask = sorted_qs[qi], tables.masks[mi]
            loop.append((qi, mask, tables.distinct[di][0] == "slack"))
            orbit = {(tuple(image), image_mask) for image, image_mask in
                     (permuted(sigma, q_parts, mask)
                      for sigma in itertools.permutations(range(k)))}
            assert len(orbit) == size, (d, q_parts, mask)
            for image in orbit:
                key = image + tables.distinct[di]
                got[key] = got.get(key, 0) + 1
        assert got == want, (k, d)
        assert loop == sorted(loop)


def test_keys_too_sparse_for_a_table_are_numbered_alike():
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 50, size=(7, 3))
    dense = verify._numbered(keys, 50)
    far = verify._numbered(keys * 10 ** 12, 50 * 10 ** 12)
    assert dense[1].tolist() == far[1].tolist()
    assert (dense[0] * 10 ** 12).tolist() == far[0].tolist()


@st.composite
def grid_instances(draw):
    """(k, d, P parts, Q parts, event mask or None at k = 1) on the sweep's
    grids, k <= 5."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(k, 12))
    grid = verify._types(k, d).tolist()
    return (k, d, draw(st.sampled_from(grid)),
            draw(st.sampled_from([c for c in grid if min(c) > 0])),
            draw(st.integers(1, 2 ** k - 2)) if k > 1 else None)


@settings(max_examples=80, deadline=None)
@given(instance=grid_instances(),
       alpha=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 100.0),
                       st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-10, 1.0 + 1e-10,
                                        0.999, 1.001, 16.0, 32.0, 64.0, 100.0])))
# the default spec's worst instance, whose (Q, E) is not canonical, and a
# raising instance of `fano sweep --alphas 32`
@example(instance=(4, 8, [1, 1, 1, 5], [2, 2, 2, 2], 8), alpha=0.25)
@example(instance=(2, 8, [1, 7], [3, 5], 1), alpha=32.0)
def test_the_sweep_kernels_are_bitwise_invariant_under_outcome_permutations(instance, alpha):
    # every sigma in S_k maps grid instance (P, Q, E) to one with the same
    # divergences, event masses and bounds, bit for bit: what lets the
    # sweep evaluate one (Q, E) per orbit. Orders within 1e-9 of 1 take
    # the KL form.
    k, d, p_parts, q_parts, mask = instance
    sigmas = list(itertools.permutations(range(k)))
    images = [(permuted(sigma, p_parts, mask or 0), permuted(sigma, q_parts, mask or 0))
              for sigma in sigmas]
    if mask is not None:
        members = event_members(k, range(1, 2 ** k - 1))
        masses, index = verify._event_masses(np.array([p for (p, _), _ in images]), members, d)

    def kernels(i):
        (p, image_mask), (q, _) = images[i]
        atoms = list(zip([a / d for a in p], [a / d for a in q]))
        kl, renyi = _kl_nats(atoms), _renyi_nats(atoms, alpha)
        values = [kl, renyi]
        if mask is None:
            return repr(values)
        p_event = math.fsum(p[j] / d for j in range(k) if image_mask >> j & 1)
        q_event = math.fsum(q[j] / d for j in range(k) if image_mask >> j & 1)
        values += [p_event, q_event, masses[index[i, image_mask - 1]]]
        for _, p_min, p_max in verify._windows(q_event):
            values.append(outcome(lambda: _kl_rhs_nats(kl, p_event, p_min, p_max)))
            values.append(outcome(lambda: _renyi_rhs_nats(renyi, alpha, p_event, p_min, p_max)))
        return repr(values)

    want = kernels(0)
    assert sigmas[0] == tuple(range(k))
    for i in range(1, len(sigmas)):
        assert kernels(i) == want, sigmas[i]


@settings(max_examples=40, deadline=None)
@given(xs=st.lists(st.floats(-745.0, 709.0), min_size=16, max_size=64),
       ys=st.lists(st.floats(1e-300, 1e300), min_size=16, max_size=64),
       alpha=st.floats(0.05, 128.0))
def test_transcendentals_are_within_the_ulps_the_sweep_assumes(xs, ys, alpha):
    # numpy's and math's exp, expm1, log and pow against 60 digits, on whole
    # arrays so that numpy's vector loops run
    x, y = np.array(xs), np.array(ys)
    root = 1.0 / alpha
    with np.errstate(over="ignore"):
        roots = y ** root
    cases = [
        (mpmath.exp, np.minimum(x, 0.0), np.exp(np.minimum(x, 0.0)), math.exp),
        (mpmath.expm1, x, np.expm1(x), math.expm1),
        (mpmath.log, y, np.log(y), math.log),
        (lambda v: v ** mpmath.mpf(root), y, roots, lambda v: v ** root),
    ]
    with mpmath.workdps(60):
        for exact, args, got, scalar in cases:
            for arg, vector in zip(args.tolist(), got.tolist()):
                want = exact(mpmath.mpf(arg))
                if not want < sys.float_info.max:
                    continue
                ulp = math.ulp(float(want))
                assert abs(vector - want) <= verify.TRANSCENDENTAL_ULPS * ulp, (exact, arg)
                assert abs(scalar(arg) - want) <= verify.TRANSCENDENTAL_ULPS * ulp, (exact, arg)


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
