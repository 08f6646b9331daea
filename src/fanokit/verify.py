"""Exhaustive and targeted verification harnesses.

The sweep enumerates every rational-grid distribution pair, every nontrivial
event, both admissible occupancy windows, and every configured order, then
checks the diffusion bounds through the same evaluators the library exposes.
A violation is a signed excess (observed - bound) above tolerance, in nats.

The grids are count vectors from the type enumerator: P on every vector of
the denominator, Q on those with no zero part. The verdict is computed in
two passes that give the scalar loop's bytes. A vector pass evaluates every
instance's divergence, exponent and bound as numpy arrays, in blocks of
whole P rows, with a proven band around each excess: the distance the
scalar kernels' double can lie from it (_block_excess). The scalar kernels
then re-evaluate, in loop order, the instances whose band reaches the
tolerance or the running maximum, and every instance off the plain branch
of the bound, where every error is raised (_sweep_outcome_count). The rest
keep their vector verdict. A block holds at least one row, so the peak
memory grows with a row's windows times its orders.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import (
    _check_window,
    _event_terms,
    _kl_rhs_nats,
    _refuse_rounded_zero,
    _renyi_rhs_nats,
    _window_terms,
)
from .distributions import FiniteDistribution, _types
from .divergences import KL_ALPHA_BAND, _check_prob, _kl_nats, _renyi_nats, kl_divergence
from .errors import FanoError, GridTooLarge, NumericalInstability

MAX_SWEEP_INSTANCES = 5_000_000
POWER_SUM_GRID_POINTS = 1001
POWER_SUM_ORDERS = (0.25, 0.5, 1.0, 2.0, 4.0)
# a support check passes down to this negative slack
SUPPORT_TOLERANCE = 1e-12
# the order -> 1 limit has converged once the last gap is within this
LIMIT_TOLERANCE = 1e-4


@dataclass(frozen=True)
class SweepSpec:
    outcome_counts: tuple = (2, 3, 4)
    weight_grid_denominator: int = 8
    alphas: tuple = (0.25, 0.5, 2.0, 4.0)
    tolerance: float = 1e-9


@dataclass
class SweepSummary:
    instances: int
    violations: int
    max_violation: float
    worst_instance: dict | None
    elapsed_ms: float

    def to_json_obj(self, include_timing: bool = True) -> dict:
        obj = {
            "instances": self.instances,
            "violations": self.violations,
            "max_violation": self.max_violation,
            "worst_instance": self.worst_instance,
        }
        if include_timing:
            obj["elapsed_ms"] = self.elapsed_ms
        return obj


def _windows(q_event: float) -> tuple:
    """The occupancy windows (tag, p_min, p_max) tried for an event of mass
    q_event under Q: the tight one only where 2 Q(E) < 1, then the slack one."""
    slack = ("slack", 0.0, q_event)
    return (("tight", q_event, q_event), slack) if q_event + q_event < 1.0 else (slack,)


def _planned_instances(spec: SweepSpec) -> int:
    """Instances the sweep runs; once past the cap, the count so far: a
    lower bound."""
    d = spec.weight_grid_denominator
    total = 0
    for k in spec.outcome_counts:
        per_window = math.comb(d + k - 1, k - 1) * (len(spec.alphas) + 1)
        # every event has its slack window: counted before any Q is listed
        slack = per_window * math.comb(d - 1, k - 1) * (2 ** k - 2)
        if total + slack > MAX_SWEEP_INSTANCES:
            return total + slack
        total += per_window * len(_event_windows(k, d)[2])
    return total


def _event_windows(k: int, d: int) -> tuple:
    """The full-support Q grid with k outcomes and denominator d (integer
    parts, one row each), the proper nonempty events as outcome indices (the
    event at index i has bit mask i + 1) and one (Q index, event index, tag,
    p_min, p_max) per window, in loop order."""
    q_grid = _types(k, d - k) + 1 if d >= k else np.empty((0, k), dtype=np.intp)
    events = [[i for i in range(k) if m >> i & 1] for m in range(1, 2 ** k - 1)]
    windows = [(qi, mi) + window for qi, q_parts in enumerate(q_grid.tolist())
               for mi, bits in enumerate(events)
               for window in _windows(math.fsum(q_parts[i] / d for i in bits))]
    return q_grid, events, windows


def _instance_id(k: int, p_parts, q_parts, mask: int, tag: str, alpha_key) -> str:
    return "k%d-p%s-q%s-e%d-%s-a%s" % (k, ".".join(map(str, p_parts)),
                                       ".".join(map(str, q_parts)), mask, tag, alpha_key)


def sweep_diffusion(spec: SweepSpec) -> SweepSummary:
    """Grid sweep of the diffusion bounds.

    For each pair (P on the full grid, Q on the full-support grid) and each
    proper nonempty event E, two occupancy windows are tried: the tight one
    (Q(E), Q(E)) when 2 Q(E) < 1, and the slack one (0, Q(E)). Each window is
    checked at every configured order plus the KL form, in the loop order
    k, P, Q, event, window, (KL, orders); the worst instance is the first
    maximum in that order.
    """
    d = spec.weight_grid_denominator
    if d < 1:
        raise GridTooLarge(f"weight_grid_denominator: must be >= 1, got {d!r}")
    if any(k < 1 for k in spec.outcome_counts):
        raise FanoError(
            f"outcome_counts: every count must be >= 1, got {spec.outcome_counts!r}")
    planned = _planned_instances(spec)
    if planned > MAX_SWEEP_INSTANCES:
        raise GridTooLarge(
            f"sweep: at least {planned} planned instances exceed the cap {MAX_SWEEP_INSTANCES}"
        )
    for a in spec.alphas:
        if not 0.0 < a < math.inf or a == 1.0:
            raise NumericalInstability(
                f"alphas: sweep orders must be finite, positive and != 1, got {a!r}"
            )
    if math.isnan(spec.tolerance):
        # every comparison with NaN is false: each instance would pass
        raise FanoError("tolerance: must be a number, got nan")

    started = time.perf_counter()
    tally = _Tally(spec.tolerance)
    orders = (("kl", None),) + tuple((a, a) for a in spec.alphas)
    for k in sorted(spec.outcome_counts):
        _sweep_outcome_count(k, d, orders, tally)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return SweepSummary(
        instances=tally.instances,
        violations=tally.violations,
        max_violation=tally.max_excess,
        worst_instance=tally.worst,
        elapsed_ms=elapsed_ms,
    )


# Instances per numpy block: whole P rows up to this many, or one row where
# it alone holds more.
_BLOCK_INSTANCES = 2048
# The vector pass takes each library transcendental (exp, expm1, log and
# pow, of math and of numpy alike) within this many ulp of its exact value;
# the worst seen against mpmath on this repository's inputs is 0.82, and
# tests/test_verify.py pins the assumption.
TRANSCENDENTAL_ULPS = 4.0
_EPS = sys.float_info.epsilon
# a plain instance's num, ratio and bound lie inside these magnitudes, which
# leaves far more room than the band's reach before a double leaves the
# normal range
_PLAIN_RANGE = (2.0 ** -960, 2.0 ** 960)


class _Tally:
    """The sweep's running counts and its first maximum excess so far."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.instances = 0
        self.violations = 0
        self.max_excess = -math.inf
        self.worst: dict | None = None


def _block_divergences(p_parts, q_logs, atoms, alphas):
    """Divergences of every P row (integer parts) from every full-support Q
    (q_logs: the logs of its atoms) as an array (2, order, P, Q): [0] the
    divergences, KL first, [1] bounds on their distance from the doubles
    _kl_nats and _renyi_nats return. atoms maps a part a to ln(a / d) (0 at
    a = 0, where the KL term is 0), to ln(a / d) (-inf at a = 0, where the
    atom drops out of the power sum) and to a / d.

    Each atom's term is the scalar kernel's own expression on the same
    doubles (the logs are math.log's), so the terms are bitwise equal; what
    differs is the sum (fsum there) and, for orders, exp and log.
    """
    k = p_parts.shape[1]
    out = np.empty((2, len(alphas), len(p_parts), len(q_logs)))
    pp = p_parts[:, None, :]
    lp = atoms[0][pp]
    terms = atoms[2][pp] * (lp - q_logs)
    np.maximum(0.0, terms.sum(axis=-1), out=out[0, 0])
    # any summation order is within (k - 1) u sum |t| of the exact sum,
    # and fsum within u |sum|
    np.abs(terms, out=terms)
    np.multiply(k * _EPS, terms.sum(axis=-1), out=out[1, 0])
    lp = atoms[1][pp]
    # per side: exp of each term, the sum, the log of a sum in [1, k], then
    # the roundings of m + log(sum) and of the quotient
    t_ulps = TRANSCENDENTAL_ULPS
    spread = 2.0 * t_ulps + k + 1.0 + (2.0 * t_ulps + 2.0) * math.log(k)
    for j, alpha in enumerate(alphas[1:], 1):
        if abs(alpha - 1.0) < KL_ALPHA_BAND:     # as _renyi_nats routes it
            out[:, j] = out[:, 0]
            continue
        t = alpha * lp + (1.0 - alpha) * q_logs
        m = t.max(axis=-1)
        t -= m[..., None]
        log_sum = m + np.log(np.exp(t, out=t).sum(axis=-1))
        div = np.maximum(0.0, log_sum / (alpha - 1.0), out=out[0, j])
        np.abs(m, out=m)
        out[1, j] = _EPS * ((spread + 2.0 * m) / abs(alpha - 1.0) + 2.0 * div)
    return out


def _block_excess(dv, h, power_sum, p, log_keep, log_ratio, den, r_lo, r_hi, alpha):
    """Excess p - bound of a block of instances as arrays (order, P, window),
    KL first, and a band the scalar kernels' excess lies within: inf where
    the instance must go to the scalar kernels (its vector excess is then 0).

    The exponent a = div + h + ln(1 - p_min) is summed as the kernels sum
    it, so the vector a is within delta of theirs: the divergence's error
    and two roundings per side. KL is a / L. An order alpha takes
    expm1((alpha - 1) a) power_sum / den to the power 1/alpha. Where
    a > delta, the bound's log moves at most
    delta (max(alpha - 1, 0) + 1 / (a - delta)) / alpha over
    [a - delta, a + delta] (its derivative in a decreases, and is below that
    at a - delta), and each side's roundings add
    ((T + 3 + |(alpha - 1) a|) / alpha + T) eps for T-ulp transcendentals.
    An order instance is plain when a > 2 delta, that log distance X has
    X max(alpha, 2) <= 1 (so e^X - 1 <= 1.3 X) and the ratio lies in
    (r_lo, r_hi); every other one goes to the scalar kernels, and with it
    every branch off the plain ratio ** (1 / alpha) and every raise.
    """
    div, err = dv
    a = div + h
    delta = np.abs(log_keep) + a
    delta *= 4.0 * _EPS
    delta += err            # twice: 2 err
    delta += err
    a += log_keep
    excess = np.empty_like(a)
    spread = np.empty_like(a)           # twice the bound's distance from the kernels'
    rhs = a[0] / log_ratio
    np.subtract(p, rhs, out=excess[0])
    np.divide(delta[0], log_ratio, out=spread[0])
    spread[0] += _EPS * np.abs(rhs)
    spread[0] *= 2.0
    a, delta = a[1:], delta[1:]
    t_ulps = TRANSCENDENTAL_ULPS
    with np.errstate(all="ignore"):
        x = (alpha - 1.0) * a
        bound = np.expm1(x)
        bound *= power_sum
        bound /= den
        plain = (r_lo < bound) & (bound < r_hi)
        bound **= 1.0 / alpha
        gap = a - delta
        plain &= gap > delta
        # X = delta (max(alpha - 1, 0) + 1 / gap) / alpha + the roundings
        X = np.divide(1.0 / alpha, gap, out=gap)
        X += np.maximum(alpha - 1.0, 0.0) / alpha
        X *= delta
        np.abs(x, out=x)
        x *= 2.0 * _EPS / alpha
        X += x
        X += 2.0 * _EPS * ((t_ulps + 3.0) / alpha + t_ulps)
        plain &= X <= 1.0 / np.maximum(alpha, 2.0)
        X *= bound
    excess[1:] = np.where(plain, p - bound, 0.0)
    spread[1:] = np.where(plain, 2.6 * X, np.inf)
    # and the rounding of p - bound on each side; the doubling covers
    # second-order terms
    spread += 2.0 * _EPS * np.abs(excess)
    return excess, spread


def _sweep_outcome_count(k: int, d: int, orders, tally: _Tally) -> None:
    """Every instance with k outcomes, in blocks of whole P rows.

    A block's excesses and bands come from _block_excess. Within its band
    an excess may be the kernels' or not, so the scalar kernels evaluate,
    in loop order, every instance whose band reaches spec.tolerance or the
    threshold: the largest of the running maximum and the block's lower
    ends (excess - band). Instances with an infinite band are among them.
    The rest keep their vector verdict: below the threshold, none can be a
    first maximum, and away from the tolerance, their verdict is the
    kernels'. Every raise (a negative exponent, a sign disagreement, a
    bound that is 0 only by rounding) has an infinite band, so it comes at
    the same first instance with the same message.
    """
    q_grid, mask_bits, windows = _event_windows(k, d)
    if not windows:
        return
    q_list = q_grid.tolist()
    q_vecs = [[a / d for a in q_parts] for q_parts in q_list]
    alphas = [alpha for _, alpha in orders]
    n_orders, n_windows = len(orders), len(windows)
    w_q = np.array([w[0] for w in windows])
    w_m = np.array([w[1] for w in windows])

    # window terms as (order, 1, window) arrays, from each distinct window's
    # _window_terms; orders as (order, 1, 1)
    distinct: dict = {}
    w_index = [distinct.setdefault(w[3:], len(distinct)) for w in windows]
    w_terms = np.array([[_window_terms(p_min, p_max, alpha) for p_min, p_max in distinct]
                        for alpha in alphas])[:, None, w_index]
    log_keep, log_ratio, den = w_terms[..., 0], w_terms[0, 0, :, 1], w_terms[1:, ..., 2]
    order_alphas = np.array(alphas[1:], dtype=float).reshape(-1, 1, 1)
    # the plain ratios num / den: num, the ratio and its 1/alpha-th root all
    # lie inside _PLAIN_RANGE with a factor 2 to spare (the vector num and
    # root are within a few eps of ratio * den and ratio ** (1 / alpha));
    # none where den overflowed
    lo, hi = _PLAIN_RANGE
    r_lo = np.maximum(np.maximum(lo, 2.0 * lo / np.abs(den)), 2.0 ** (-959.0 * order_alphas))
    r_hi = np.minimum(np.minimum(hi, hi / (2.0 * np.abs(den))),
                      2.0 ** np.minimum(959.0 * order_alphas, 960.0))

    # event terms of each distinct P(E): h per order, then the power-sum
    # factor per order alpha
    p_array = _types(k, d)
    p_list = p_array.tolist()
    p_vecs = [[a / d for a in p_parts] for p_parts in p_list]
    p_events = [[math.fsum(p_vec[i] for i in bits) for bits in mask_bits]
                for p_vec in p_vecs]
    distinct = {}
    e_index = np.array([[distinct.setdefault(p, len(distinct)) for p in row]
                        for row in p_events])
    e_terms = [[_event_terms(p, alpha) for p in distinct] for alpha in alphas]
    e_table = np.array([[t[0] for t in row] for row in e_terms]
                       + [[t[1] for t in row] for row in e_terms[1:]])
    e_values = np.array(p_events)

    logs = [math.log(a / d) for a in range(1, d + 1)]
    atom_table = np.array([[0.0] + logs, [-math.inf] + logs, [a / d for a in range(d + 1)]])
    q_logs = atom_table[0][q_grid]
    # a block holds `step` whole P rows; a divergence block holds a multiple
    # of `step` rows, about as many (P, Q, atom) entries as a block has
    # instances
    step = max(1, _BLOCK_INSTANCES // (n_windows * n_orders))
    div_rows = step * max(1, _BLOCK_INSTANCES // (len(q_list) * k) // step)
    tolerance = tally.tolerance
    for d0 in range(0, len(p_list), div_rows):
        dv = _block_divergences(p_array[d0:d0 + div_rows], q_logs, atom_table, alphas)
        for r0 in range(d0, min(d0 + div_rows, len(p_list)), step):
            rows = slice(r0, r0 + step)
            terms = np.take(e_table, np.take(e_index[rows], w_m, axis=1), axis=1)
            vector_excess, band = _block_excess(
                np.take(dv[:, :, r0 - d0:r0 - d0 + step], w_q, axis=-1),
                terms[:n_orders], terms[n_orders:], np.take(e_values[rows], w_m, axis=1),
                log_keep, log_ratio, den, r_lo, r_hi, order_alphas)
            tally.instances += vector_excess.size
            lower, upper = vector_excess - band, vector_excess + band
            threshold = max(tally.max_excess, float(lower.max()))
            rescan = ((lower <= tolerance) & (tolerance <= upper)) | (upper >= threshold)
            tally.violations += int(np.count_nonzero((vector_excess > tolerance) & ~rescan))
            js, rests = np.divmod(np.flatnonzero(rescan), vector_excess[0].size)
            divs: dict = {}
            for rest, j in sorted(zip(rests.tolist(), js.tolist())):
                row, w = divmod(rest, n_windows)
                row += r0
                qi, mi, tag, p_min, p_max = windows[w]
                alpha_key, alpha = orders[j]
                div = divs.get((row, qi, j))
                if div is None:
                    atoms = list(zip(p_vecs[row], q_vecs[qi]))
                    div = divs[row, qi, j] = (_kl_nats(atoms) if alpha is None
                                              else _renyi_nats(atoms, alpha))
                p_event = p_events[row][mi]
                if alpha is None:
                    rhs = _kl_rhs_nats(div, p_event, p_min, p_max)
                else:
                    rhs = _renyi_rhs_nats(div, alpha, p_event, p_min, p_max)
                excess = p_event - rhs
                if excess > tolerance:
                    if rhs == 0.0 and alpha is not None:
                        _refuse_rounded_zero(
                            div, alpha, p_event, p_min, p_max, tolerance,
                            "instance " + _instance_id(k, p_list[row], q_list[qi], mi + 1,
                                                       tag, alpha_key))
                    tally.violations += 1
                if excess > tally.max_excess:
                    tally.max_excess = excess
                    tally.worst = {
                        "id": _instance_id(k, p_list[row], q_list[qi], mi + 1,
                                           tag, alpha_key),
                        "k": k,
                        "p": p_vecs[row],
                        "q": q_vecs[qi],
                        "event": mask_bits[mi],
                        "p_min": p_min,
                        "p_max": p_max,
                        "alpha": alpha_key,
                        "p_event": p_event,
                        "bound_value": rhs,
                        "excess": excess,
                    }


@dataclass(frozen=True)
class SupportCheck:
    passed: bool
    slack: float
    divergence: float
    support_term: float


def verify_support_bound(P: FiniteDistribution, Q: FiniteDistribution) -> SupportCheck:
    """KL(P, Q) >= -ln Q(supp P); slack is LHS - RHS, tight for point masses."""
    lhs = kl_divergence(P, Q)
    q_mass = math.fsum(
        q for p, q in zip(P.weights.tolist(), Q.weights.tolist()) if p > 0)
    rhs = math.inf if q_mass <= 0.0 else max(0.0, -math.log(min(q_mass, 1.0)))
    if math.isinf(lhs) and math.isinf(rhs):
        slack = 0.0
    else:
        slack = lhs - rhs
    return SupportCheck(passed=slack >= -SUPPORT_TOLERANCE, slack=slack,
                        divergence=lhs, support_term=rhs)


@dataclass(frozen=True)
class PowerSumCheck:
    passed: bool
    max_violation: float
    points: int


def verify_power_sum() -> PowerSumCheck:
    """p^a + (1-p)^a is >= 1 for a <= 1, <= 1 for a >= 1, exactly 1 at a = 1,
    for each order a in POWER_SUM_ORDERS on a uniform p grid over [0, 1]."""
    worst = 0.0
    count = 0
    step = 1.0 / (POWER_SUM_GRID_POINTS - 1)
    for a in POWER_SUM_ORDERS:
        for i in range(POWER_SUM_GRID_POINTS):
            p = i * step
            s = p ** a + (1.0 - p) ** a
            count += 1
            if a == 1.0:
                worst = max(worst, abs(s - 1.0))
            elif a < 1.0:
                worst = max(worst, 1.0 - s)
            else:
                worst = max(worst, s - 1.0)
    return PowerSumCheck(passed=worst <= 0.0, max_violation=worst, points=count)


@dataclass(frozen=True)
class LimitRow:
    k: int
    alpha: float
    bound_value: float
    gap: float


@dataclass(frozen=True)
class LimitTable:
    rows: tuple
    kl_value: float
    decreasing: bool
    converged: bool


def verify_limit(P: FiniteDistribution, Q: FiniteDistribution,
                 event: Callable, p_min: float, p_max: float,
                 k_max: int = 6, side: str = "below") -> LimitTable:
    """Convergence of the order-alpha bound to the KL bound as the order
    approaches 1 through alpha_k = 1 -/+ 10^-k.

    Raises NumericalInstability for orders within 1e-9 of 1; the evaluator
    itself relies on expm1 so the admissible range is stable.
    """
    if side not in ("below", "above"):
        raise NumericalInstability(f"side: expected 'below' or 'above', got {side!r}")
    p_min, p_max = _check_window(p_min, p_max)
    from .divergences import renyi_divergence

    p_event = _check_prob(math.fsum(
        w for x, w in zip(P.outcomes, P.weights.tolist()) if event(x)), "p")
    kl_rhs = _kl_rhs_nats(kl_divergence(P, Q), p_event, p_min, p_max)
    rows = []
    for k in range(1, k_max + 1):
        offset = 10.0 ** (-k)
        alpha = 1.0 - offset if side == "below" else 1.0 + offset
        if abs(alpha - 1.0) < KL_ALPHA_BAND:
            raise NumericalInstability(
                f"k: order 1 {'-' if side == 'below' else '+'} 1e-{k} is inside "
                "the 1e-9 band around 1; the evaluation is not meaningful there"
            )
        div = renyi_divergence(P, Q, alpha)
        rhs = _renyi_rhs_nats(div, alpha, p_event, p_min, p_max)
        rows.append(LimitRow(k=k, alpha=alpha, bound_value=rhs,
                             gap=abs(rhs - kl_rhs)))
    # judged from the second row on: at the coarsest order the below-one
    # correction factor can leave the value on the far side of the limit,
    # so the first gap is not comparable with the rest
    decreasing = all(rows[i + 1].gap <= rows[i].gap + 1e-15
                     for i in range(1, len(rows) - 1))
    converged = bool(rows) and rows[-1].gap <= LIMIT_TOLERANCE
    return LimitTable(rows=tuple(rows), kl_value=kl_rhs,
                      decreasing=decreasing, converged=converged)
