"""Exhaustive and targeted verification harnesses.

The sweep enumerates every rational-grid distribution pair, every nontrivial
event, both admissible occupancy windows, and every configured order, then
checks the diffusion bounds through the same evaluators the library exposes.
A violation is a signed excess (observed - bound) above tolerance, in nats.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from .bounds import _check_window, _kl_rhs_nats, _refuse_rounded_zero, _renyi_rhs_nats
from .distributions import FiniteDistribution
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


def _compositions(total: int, parts: int, minimum: int):
    """Ordered integer compositions of `total` into `parts` parts >= minimum."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


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
        total += per_window * math.comb(d - 1, k - 1) * (2 ** k - 2)
        if total > MAX_SWEEP_INSTANCES:
            return total
        for q in _compositions(d, k, 1):
            q_vec = [a / d for a in q]
            total += per_window * sum(
                len(_windows(math.fsum(q_vec[i] for i in range(k) if mask >> i & 1))) - 1
                for mask in range(1, 2 ** k - 1))
    return total


def _instance_id(k: int, p_parts, q_parts, mask: int, tag: str, alpha_key) -> str:
    return "k%d-p%s-q%s-e%d-%s-a%s" % (k, ".".join(map(str, p_parts)),
                                       ".".join(map(str, q_parts)), mask, tag, alpha_key)


def sweep_diffusion(spec: SweepSpec) -> SweepSummary:
    """Grid sweep of the diffusion bounds.

    For each pair (P on the full grid, Q on the full-support grid) and each
    proper nonempty event E, two occupancy windows are tried: the tight one
    (Q(E), Q(E)) when 2 Q(E) < 1, and the slack one (0, Q(E)). Each window is
    checked at every configured order plus the KL form.
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
        if a == 1.0 or a <= 0.0 or math.isinf(a):
            raise NumericalInstability(
                f"alphas: sweep orders must be finite, positive and != 1, got {a!r}"
            )

    started = time.perf_counter()
    instances = 0
    violations = 0
    max_excess = -math.inf
    worst: dict | None = None

    for k in sorted(spec.outcome_counts):
        masks = range(1, 2 ** k - 1)
        mask_bits = [[i for i in range(k) if m >> i & 1] for m in masks]
        # per Q, once per k: its vector and the windows of each event
        q_table = []
        for q_parts in _compositions(d, k, 1):
            q_vec = [a / d for a in q_parts]
            q_table.append((q_parts, q_vec, [
                _windows(math.fsum(q_vec[i] for i in bits)) for bits in mask_bits]))
        for p_parts in _compositions(d, k, 0):
            p_vec = [a / d for a in p_parts]
            p_events = [math.fsum(p_vec[i] for i in bits) for bits in mask_bits]
            for q_parts, q_vec, event_windows in q_table:
                atoms = list(zip(p_vec, q_vec))
                divs = [("kl", None, _kl_nats(atoms))]
                divs += [(a, a, _renyi_nats(atoms, a)) for a in spec.alphas]
                for mask, bits, p_event, windows in zip(
                        masks, mask_bits, p_events, event_windows):
                    for tag, p_min, p_max in windows:
                        for alpha_key, alpha, div in divs:
                            if alpha is None:
                                rhs = _kl_rhs_nats(div, p_event, p_min, p_max)
                            else:
                                rhs = _renyi_rhs_nats(div, alpha, p_event,
                                                      p_min, p_max)
                            excess = p_event - rhs
                            instances += 1
                            if excess > spec.tolerance:
                                if rhs == 0.0 and alpha is not None:
                                    _refuse_rounded_zero(
                                        div, alpha, p_event, p_min, p_max, spec.tolerance,
                                        "instance " + _instance_id(
                                            k, p_parts, q_parts, mask, tag, alpha_key))
                                violations += 1
                            if excess > max_excess:
                                max_excess = excess
                                worst = {
                                    "id": _instance_id(k, p_parts, q_parts, mask,
                                                       tag, alpha_key),
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
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return SweepSummary(
        instances=instances,
        violations=violations,
        max_violation=max_excess,
        worst_instance=worst,
        elapsed_ms=elapsed_ms,
    )


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
