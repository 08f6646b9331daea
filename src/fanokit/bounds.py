"""Diffusion-style lower bounds on reconstruction error, and their corollaries.

Every evaluator returns a BoundReport. Internally everything is computed in
nats; probabilities need no conversion, entropy-valued sides are converted to
the configured base at the report boundary.

Two slack conventions, one rule. For upper-bound checks (observed <= bound)
slack = bound_value - observed; for lower-bound checks (observed >= bound,
the distance/continuous exceedance bounds) slack = observed - bound_value.
Either way a report holds iff slack >= -solver_tolerance.

Every bound evaluates one KL kernel (_kl_ratio), one order-alpha ratio
(_renyi_ratio) and one solver (_feasible_sup). The counting and continuous
exceedance bounds are the KL bound for the success event read at its
complement, under counting measure and volume, through _exceedance_bound.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Any, Optional

from .distributions import JointDistribution, event_probability, product_of_marginals
from .divergences import (
    KL_ALPHA_BAND,
    _binary_entropy_nats,
    _binary_renyi_entropy_nats,
    _check_alpha,
    _check_prob,
    _ln_base,
    _scale,
    binary_entropy,
    conditional_entropy,
    entropy,
    mutual_information,
)
from .errors import (
    AlphaIsOne,
    BadPminPmax,
    DegenerateDenominator,
    FanoError,
    InconsistentBounds,
    NoFeasiblePoint,
    NonUniformPrior,
    NumericalInstability,
    RangeMismatch,
    ZeroVolumeDenominator,
)
from .jsonio import format_csv
from .relations import (
    ContinuousDomain,
    DistanceRelation,
    Relation,
    RelationBounds,
    ball_counts,
    relation_bounds,
    resolve_volume_method,
    sup_ball_volume,
)

SOLVE_GRID_POINTS = 1024
UNIFORM_TOLERANCE = 1e-12
# bisection width of _feasible_sup, the solver of every self-consistent bound
SOLVE_TOLERANCE = 1e-10
# solver_tolerance of the entropy-valued checks (entropy-version, distance)
ENTROPY_CHECK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class BoundInputs:
    """Scalar inputs for the diffusion checks.

    divergence and alpha follow the configured base: the divergence value is
    interpreted in `base` logarithm units. alpha is a positive order != 1, or
    the string "kl" for the limit form.
    """

    divergence: float
    alpha: Any
    p_min: float
    p_max: float
    base: float = math.e


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation.

    JSON serialization carries exactly: mode, bound_value, observed, slack,
    feasible_sup, solver_tolerance, notes. The remaining fields echo inputs
    for delimited output and are not part of the JSON object.
    """

    mode: str
    bound_value: float
    solver_tolerance: float
    notes: str = ""
    observed: Optional[float] = None
    slack: Optional[float] = None
    feasible_sup: Optional[float] = None
    alpha: Any = None
    p_min: Optional[float] = None
    p_max: Optional[float] = None
    divergence: Optional[float] = None
    instance_id: str = ""

    @property
    def holds(self) -> Optional[bool]:
        if self.slack is None:
            return None
        return self.slack >= -self.solver_tolerance

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
            "bound_value": self.bound_value,
            "observed": self.observed,
            "slack": self.slack,
            "feasible_sup": self.feasible_sup,
            "solver_tolerance": self.solver_tolerance,
            "notes": self.notes,
        }


CSV_COLUMNS = ("instance-id", "mode", "alpha", "p_min", "p_max", "divergence",
               "bound_value", "observed", "slack", "feasible_sup")


def reports_to_rows(reports) -> list:
    """CSV_COLUMNS, then one row of raw values per report."""
    return [CSV_COLUMNS] + [
        (r.instance_id, r.mode, r.alpha, r.p_min, r.p_max, r.divergence,
         r.bound_value, r.observed, r.slack, r.feasible_sup) for r in reports]


def reports_to_csv(reports) -> str:
    return format_csv(reports_to_rows(reports))


# -- shared validation ------------------------------------------------------

def _check_divergence(d) -> float:
    d = float(d)
    if math.isnan(d) or d < 0.0:
        raise FanoError(f"divergence: must be >= 0, got {d!r}")
    return d


def _check_window(p_min, p_max) -> tuple[float, float]:
    """Strict occupancy hypothesis: 0 <= p_min < 1, 0 < p_max <= 1, sum < 1."""
    p_min = _check_prob(p_min, "p_min")
    p_max = _check_prob(p_max, "p_max")
    if p_min >= 1.0:
        raise BadPminPmax(f"p_min: must be < 1, got {p_min!r}")
    if p_max <= 0.0:
        raise BadPminPmax(f"p_max: must be > 0, got {p_max!r}")
    total = p_min + p_max
    if total == 1.0:
        raise DegenerateDenominator(
            f"p_max: equals 1 - p_min ({p_max!r}); the log ratio vanishes"
        )
    if total > 1.0:
        raise BadPminPmax(
            f"p_min, p_max: need p_min + p_max < 1, got {p_min!r} + {p_max!r}"
        )
    return p_min, p_max


def _check_whole(value, name: str) -> int:
    """A whole number given as an int or an integral float."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise FanoError(f"{name}: must be a whole number, got {value!r}")


def _check_order(alpha) -> float:
    """Order for the order-alpha diffusion bound: 0 < alpha < inf, alpha != 1."""
    a = _check_alpha(alpha)
    if a == 0.0 or math.isinf(a):
        raise FanoError(
            f"alpha: the order-alpha diffusion bound needs 0 < alpha < inf, got {alpha!r}"
        )
    if abs(a - 1.0) < KL_ALPHA_BAND:
        raise AlphaIsOne(
            "alpha: within 1e-9 of 1; use the KL form (check_kl_diffusion)"
        )
    return a


def _log_ratio(p_min: float, p_max: float) -> float:
    """ln((1 - p_min) / p_max) > 0 under the strict window hypothesis."""
    return math.log1p(-p_min) - math.log(p_max)


# -- core right-hand sides (nats) ------------------------------------------

# Entries in each memo table of divergence-free kernel terms. A sweep keys a
# few dozen events and windows per order; a solve keys one window and about
# a thousand grid points, which pass through without evicting a sweep's
# working set from the window table.
TERM_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=TERM_CACHE_SIZE)
def _event_terms(p: float, alpha: Optional[float]) -> tuple[float, float]:
    """h_alpha(p), the Shannon h(p) for alpha None, and the factor the
    order-alpha numerator keeps: p^alpha + (1-p)^alpha below order one, 1.0
    otherwise (multiplying by 1.0 is exact)."""
    if alpha is None:
        return _binary_entropy_nats(p), 1.0
    power_sum = p ** alpha + (1.0 - p) ** alpha if alpha < 1.0 else 1.0
    return _binary_renyi_entropy_nats(p, alpha), power_sum


@functools.lru_cache(maxsize=TERM_CACHE_SIZE)
def _window_terms(p_min: float, p_max: float,
                  alpha: Optional[float]) -> tuple[float, float, float]:
    """ln(1 - p_min), the log ratio L = ln((1 - p_min) / p_max) and, for an
    order alpha (None for KL, which gives nan), the denominator
    expm1((alpha - 1) L) of the cleared order-alpha ratio, inf on overflow.

    The sign of a zero ln(1 - p_min) follows whichever of p_min = 0.0 and
    -0.0 filled the entry; it never shows, since it is only added to
    div + h, which is never -0.0."""
    log_keep = math.log1p(-p_min)
    log_ratio = _log_ratio(p_min, p_max)
    if alpha is None:
        return log_keep, log_ratio, math.nan
    try:
        den = math.expm1((alpha - 1.0) * log_ratio)
    except OverflowError:
        den = math.inf
    return log_keep, log_ratio, den


def _kl_ratio(div: float, h: float, log_keep: float, log_ratio: float) -> float:
    """The KL diffusion bound (div + h + ln(1 - p_min)) / log_ratio, given the
    binary entropy h of the event probability, log_keep = ln(1 - p_min) and
    the window's log ratio."""
    return (div + h + log_keep) / log_ratio


def _kl_rhs_nats(div: float, p: float, p_min: float, p_max: float) -> float:
    log_keep, log_ratio, _ = _window_terms(p_min, p_max, None)
    return _kl_ratio(div, _event_terms(p, None)[0], log_keep, log_ratio)


# Realizable inputs always have div + h_alpha(p) + ln(1 - p_min) >= 0, but at
# tight instances (e.g. p = 0 with p_min = Q(event)) the float value can land
# a few ulp below zero; inside this band the bound collapses to its tight
# value 0 instead of raising.
RENYI_ZERO_BAND = 1e-12


def _renyi_ratio(div: float, alpha: float, p: float,
                 p_min: float, p_max: float) -> tuple[float, float, float]:
    """Exponent term a = div + h_alpha(p) + ln(1 - p_min), numerator
    expm1((alpha-1) a) and denominator expm1((alpha-1) ln((1-p_min)/p_max))
    of the cleared order-alpha ratio RHS^alpha = num / den (inf on overflow).
    Dropping the power-sum factor p^a + (1-p)^a from the numerator is only
    sound when the factor is <= 1, i.e. for orders above one."""
    h, power_sum = _event_terms(p, alpha)
    log_keep, _, den = _window_terms(p_min, p_max, alpha)
    a_val = div + h + log_keep
    try:
        num = math.expm1((alpha - 1.0) * a_val)
    except OverflowError:
        num = math.inf
    return a_val, num * power_sum, den


def _log_ratio_past_overflow(a_val: float, num: float, alpha: float,
                             p_min: float, p_max: float) -> float:
    """ln(num / den) for a positive num when den overflowed (orders above
    one): den is then e^((alpha-1) L) to double precision, and so is num
    e^((alpha-1) a) when it overflowed too. A subnormal num is the product
    (alpha-1) a short of digits, so its log comes from the two factors."""
    a1 = alpha - 1.0
    if math.isinf(num):
        log_num = a1 * a_val
    elif num < sys.float_info.min:
        log_num = math.log(a1) + math.log(a_val)
    else:
        log_num = math.log(num)
    return log_num - a1 * _window_terms(p_min, p_max, alpha)[1]


def _renyi_rhs_nats(div: float, alpha: float, p: float,
                    p_min: float, p_max: float) -> float:
    """RHS of the order-alpha diffusion bound; raises InconsistentBounds when
    the exponent combination is negative beyond rounding (divergence too
    small for the window, so the cleared ratio would be negative). inf
    where the bound passes the double range."""
    a_val, num, den = _renyi_ratio(div, alpha, p, p_min, p_max)
    if a_val < 0.0:
        if a_val >= -RENYI_ZERO_BAND:
            return 0.0
        raise InconsistentBounds(
            "divergence: too small for the occupancy window at this order "
            "(the bound's ratio would be negative)"
        )
    if num == 0.0:
        return 0.0
    try:
        if math.isinf(den):
            return math.exp(
                _log_ratio_past_overflow(a_val, num, alpha, p_min, p_max) / alpha)
        ratio = num / den
        if ratio < 0.0:
            raise NumericalInstability(
                "alpha: numerator and denominator of the order-alpha ratio "
                "disagree in sign"
            )
        return ratio ** (1.0 / alpha)
    except OverflowError:     # the root of a huge ratio at a small order
        return math.inf


# The float exponent a = div + h_alpha(p) + ln(1 - p_min) lies within
# EXPONENT_ROUNDING * eps * (|div| + h_alpha(p) + |ln(1 - p_min)|) of its
# exact value for the doubles it is given. Where a cancels below that, a
# bound of exactly 0 can stand for a positive one, and at large orders its
# 1/alpha-th root is far from 0.
EXPONENT_ROUNDING = 8.0


def _refuse_rounded_zero(div: float, alpha: float, p: float, p_min: float,
                         p_max: float, tolerance: float, instance: str) -> None:
    """Raises NumericalInstability, naming the instance, where an order-alpha
    bound that came back as exactly 0 would report a positive p as violated
    (p > tolerance) but holds once its exponent a is raised by its rounding
    bound: double precision cannot decide that verdict."""
    if p <= 0.0 or p <= tolerance:
        return
    delta = EXPONENT_ROUNDING * sys.float_info.epsilon * (
        abs(div) + _event_terms(p, alpha)[0] + abs(_window_terms(p_min, p_max, alpha)[0]))
    if p - _renyi_rhs_nats(div + delta, alpha, p, p_min, p_max) <= tolerance:
        raise NumericalInstability(
            f"alpha: {instance}: the order-{alpha!r} bound is 0 only within the "
            f"rounding of its exponent and holds at p = {p!r} once the exponent "
            f"is raised by {delta:.3g}; double precision cannot decide this instance"
        )


def _entropy_rhs_nats(h_x: float, p_not: float, p_min: float, p_max: float) -> float:
    """RHS of the entropy-version bound. Needs only 0 <= p_min <= 1 and
    0 < p_max <= 1; p_not = 0 uses the 0 * log convention."""
    p_not = _check_prob(p_not, "p_not")
    p_min = _check_prob(p_min, "p_min")
    p_max = _check_prob(p_max, "p_max")
    if p_max <= 0.0:
        raise BadPminPmax(f"p_max: must be > 0, got {p_max!r}")
    if p_not == 0.0:
        term = 0.0
    elif p_min == 1.0:
        term = -math.inf
    else:
        term = p_not * _log_ratio(p_min, p_max)
    return h_x + math.log(p_max) + binary_entropy(p_not) + term


# -- diffusion checks -------------------------------------------------------

def _check_diffusion(p: float, inputs: BoundInputs, tolerance: float,
                     kl: bool) -> BoundReport:
    """check_kl_diffusion and check_renyi_diffusion: the KL form when kl is
    set (inputs.alpha is then not read), else the order inputs.alpha."""
    p = _check_prob(p, "p")
    alpha = "kl" if kl else _check_order(inputs.alpha)
    p_min, p_max = _check_window(inputs.p_min, inputs.p_max)
    div = _check_divergence(inputs.divergence) * _ln_base(inputs.base)
    if math.isinf(div):
        rhs, notes = math.inf, "divergence is infinite; bound is vacuous"
    else:
        rhs = (_kl_rhs_nats(div, p, p_min, p_max) if kl
               else _renyi_rhs_nats(div, alpha, p, p_min, p_max))
        if not kl and rhs == 0.0:
            _refuse_rounded_zero(div, alpha, p, p_min, p_max, tolerance,
                                 "window (%r, %r)" % (p_min, p_max))
        parts = []
        if not kl and alpha < 1.0:
            parts.append("order < 1: right side keeps the binary power-sum factor")
        if rhs >= 1.0:
            parts.append("bound value >= 1; vacuous" + ("" if kl else " at this order"))
        notes = "; ".join(parts)
    return BoundReport(
        mode="check", bound_value=rhs, observed=p, slack=rhs - p,
        solver_tolerance=tolerance, notes=notes,
        alpha=alpha, p_min=p_min, p_max=p_max, divergence=inputs.divergence,
    )


def check_renyi_diffusion(p: float, inputs: BoundInputs,
                          tolerance: float = 1e-9) -> BoundReport:
    """Check p <= order-alpha RHS for the supplied scalar inputs."""
    return _check_diffusion(p, inputs, tolerance, kl=False)


def check_kl_diffusion(p: float, inputs: BoundInputs,
                       tolerance: float = 1e-9) -> BoundReport:
    """Check p <= KL RHS (the order -> 1 limit form)."""
    return _check_diffusion(p, inputs, tolerance, kl=True)


# -- solve mode -------------------------------------------------------------

def _bisect_boundary(g, lo: float, hi: float, tol: float) -> float:
    """Refine a sign change of g on [lo, hi] down to width tol."""
    g_lo = g(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if (g_mid >= 0.0) == (g_lo >= 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _feasible_sup(g, peak: float | None) -> float:
    """Supremum of {p in [0, 1] : g(p) >= 0}: the last feasible point of a
    uniform grid, refined by bisection; NoFeasiblePoint if there is none.

    With no peak, every grid point is scanned. A concave g with its maximum
    at peak has contiguous feasible indices: if any is feasible, one of the
    two grid points around peak is, and right of peak g decreases, so the
    last feasible index is found by binary search.
    """
    step = 1.0 / (SOLVE_GRID_POINTS - 1)
    last = SOLVE_GRID_POINTS - 1
    if g(last * step) >= 0.0:
        return 1.0
    i = None
    if peak is None:
        i = next((j for j in range(last - 1, -1, -1) if g(j * step) >= 0.0), None)
    else:
        below = min(int(peak / step), last - 1)
        if g((below + 1) * step) >= 0.0:
            lo, hi = below + 1, last     # g(lo * step) >= 0 > g(hi * step)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if g(mid * step) >= 0.0:
                    lo = mid
                else:
                    hi = mid
            i = lo
        elif g(below * step) >= 0.0:     # every point right of peak is infeasible
            i = below
    if i is None:
        raise NoFeasiblePoint(
            "inputs: no feasible probability on the solve grid; the "
            "divergence is too small for the occupancy window "
            "(or the feasible window is narrower than the grid step)"
        )
    return _bisect_boundary(g, i * step, (i + 1) * step, SOLVE_TOLERANCE)


def solve_diffusion(inputs: BoundInputs) -> BoundReport:
    """Largest p consistent with the self-referential bound p <= RHS(p).

    _feasible_sup searches the margin RHS(p) - p by binary search for the
    concave KL margin and by a scan for the cleared order-alpha margin.
    Raises NoFeasiblePoint when no grid point is feasible (possible when
    p_min > 0 makes the inputs unrealizable).
    """
    p_min, p_max = _check_window(inputs.p_min, inputs.p_max)
    div = _check_divergence(inputs.divergence)
    is_kl = isinstance(inputs.alpha, str) and inputs.alpha.lower() == "kl"
    alpha = "kl" if is_kl else _check_order(inputs.alpha)
    if math.isinf(div):
        return BoundReport(
            mode="solve", bound_value=1.0, feasible_sup=1.0,
            solver_tolerance=SOLVE_TOLERANCE,
            notes="divergence is infinite; every p is feasible (vacuous)",
            alpha=alpha, p_min=p_min, p_max=p_max,
            divergence=inputs.divergence,
        )
    div_nats = div * _ln_base(inputs.base)

    if is_kl:
        # the KL margin is concave with its maximum at p_max / (p_max + 1 - p_min)
        sup = _feasible_sup(lambda p: _kl_rhs_nats(div_nats, p, p_min, p_max) - p,
                            p_max / (p_max + 1.0 - p_min))
    else:
        sign = 1.0 if alpha > 1.0 else -1.0

        def g(p: float) -> float:
            # cleared-denominator feasibility margin; same sign as RHS(p) - p
            # wherever the RHS is defined, never NaN on [0, 1]
            a_val, num, den = _renyi_ratio(div_nats, alpha, p, p_min, p_max)
            if not math.isinf(den):
                return sign * (num - (p ** alpha) * den)
            # den overflowed (orders above one): compare num >= p^alpha den in logs
            if p == 0.0:
                return num
            if num <= 0.0:
                return -1.0
            return (_log_ratio_past_overflow(a_val, num, alpha, p_min, p_max)
                    - alpha * math.log(p))

        sup = _feasible_sup(g, None)
    return BoundReport(
        mode="solve", bound_value=sup, feasible_sup=sup,
        solver_tolerance=SOLVE_TOLERANCE, notes="",
        alpha=alpha, p_min=p_min, p_max=p_max,
        divergence=inputs.divergence,
    )


# -- relation-level bounds --------------------------------------------------

def _default_bounds(joint: JointDistribution, rel: Relation) -> RelationBounds:
    prior = joint.row_marginal()
    return relation_bounds(rel, prior, joint.col_outcomes)


def _window_consistency(joint: JointDistribution, rel: Relation,
                        p_min: float, p_max: float, tolerance: float) -> float:
    """Check the independent coupling puts the event inside [p_min, p_max]."""
    q_rel = event_probability(product_of_marginals(joint), rel)
    if q_rel < p_min - tolerance or q_rel > p_max + tolerance:
        raise InconsistentBounds(
            f"bounds: product-coupling event mass {q_rel!r} falls outside "
            f"[p_min, p_max] = [{p_min!r}, {p_max!r}]"
        )
    return q_rel


def fano_relation_bound(joint: JointDistribution, rel: Relation,
                        bounds: RelationBounds | None = None,
                        observation_mi: float | None = None,
                        base: float = math.e,
                        tolerance: float = 1e-9) -> BoundReport:
    """Self-referential bound on the acceptable-reconstruction probability,
    driven by the mutual information between source and reconstruction.

    observation_mi, when given (in `base` units), must dominate the
    reconstruction mutual information (data processing); the weaker bound it
    induces is recorded in the notes.
    """
    if bounds is None:
        bounds = _default_bounds(joint, rel)
    p_min, p_max = _check_window(bounds.p_min, bounds.p_max)
    _window_consistency(joint, rel, p_min, p_max, tolerance)
    p_rel = event_probability(joint, rel)
    mi_nats = mutual_information(joint)
    rhs = _kl_rhs_nats(mi_nats, p_rel, p_min, p_max)
    ln_b = _ln_base(base)
    notes = ""
    if observation_mi is not None:
        obs_nats = float(observation_mi) * ln_b
        if obs_nats < mi_nats - tolerance:
            raise InconsistentBounds(
                f"observation_mi: {observation_mi!r} is below the "
                "reconstruction mutual information; violates data processing"
            )
        rhs_weak = _kl_rhs_nats(obs_nats, p_rel, p_min, p_max)
        notes = "observation-side bound value %.17g" % rhs_weak
    return BoundReport(
        mode="check", bound_value=rhs, observed=p_rel, slack=rhs - p_rel,
        solver_tolerance=tolerance, notes=notes,
        alpha="kl", p_min=p_min, p_max=p_max, divergence=mi_nats / ln_b,
    )


def entropy_version_bound(joint: JointDistribution, rel: Relation,
                          bounds: RelationBounds | None = None,
                          base: float = math.e) -> BoundReport:
    """Upper bound on H(X | Xhat) needing no occupancy-window sum condition."""
    if bounds is None:
        bounds = _default_bounds(joint, rel)
    p_not = event_probability(joint, lambda x, xhat: not rel(x, xhat))
    h_x = entropy(joint.row_marginal())
    rhs = _entropy_rhs_nats(h_x, p_not, bounds.p_min, bounds.p_max)
    observed = conditional_entropy(joint)
    rhs_b, obs_b = _scale(rhs, base), _scale(observed, base)
    return BoundReport(
        mode="check", bound_value=rhs_b, observed=obs_b, slack=rhs_b - obs_b,
        solver_tolerance=ENTROPY_CHECK_TOLERANCE,
        notes="conditional-entropy form; no window-sum hypothesis",
        alpha="entropy", p_min=bounds.p_min, p_max=bounds.p_max,
    )


# -- distance-flavoured bounds ---------------------------------------------

def _check_uniform_rows(joint: JointDistribution) -> int:
    m = len(joint.row_outcomes)
    target = 1.0 / m
    prior = joint.row_marginal()
    for x, w in zip(prior.outcomes, prior.weights):
        if abs(float(w) - target) > UNIFORM_TOLERANCE:
            raise NonUniformPrior(
                f"joint: row marginal at {x!r} is {float(w)!r}, expected uniform {target!r}"
            )
    return m


def distance_fano_bound(joint: JointDistribution, rho, t: float,
                        base: float = math.e) -> BoundReport:
    """Distance bound for a uniform source reconstructed on its own
    alphabet: a closed-form function of P(rho > t) dominates H(X | Xhat).

    The same quantity is recomputed through the entropy-version RHS with the
    ball-count occupancy window plus the uniformity slack; the two routes must
    agree to 1e-12 (internal consistency check, recorded in notes).
    """
    if joint.row_outcomes != joint.col_outcomes:
        raise RangeMismatch(
            "joint: reconstruction alphabet must equal the source alphabet, in order"
        )
    m = _check_uniform_rows(joint)
    t = float(t)
    p_t = event_probability(joint, lambda x, xhat: rho(x, xhat) > t)
    n_min, n_max = ball_counts(rho, t, joint.row_outcomes)
    if n_max == 0:
        raise ZeroVolumeDenominator(
            "rho: no label is within t of any candidate; max ball count is zero"
        )
    if p_t == 0.0:
        spread = 0.0
    elif n_min >= m:
        spread = -math.inf
    else:
        spread = p_t * (math.log(m - n_min) - math.log(n_max))
    lhs = binary_entropy(p_t) + spread + math.log(n_max)
    observed = conditional_entropy(joint)
    h_x = entropy(joint.row_marginal())
    entropy_route = _entropy_rhs_nats(h_x, p_t, n_min / m, n_max / m)
    uniform_slack = math.log(m) - h_x
    other_route = entropy_route + uniform_slack
    if not (lhs == other_route or abs(lhs - other_route) <= 1e-12):
        raise FanoError(
            "internal: distance route %.17g disagrees with entropy route %.17g"
            % (lhs, other_route)
        )
    notes = ("entropy-version value %.17g plus uniformity slack %.17g; "
             "ball counts (%d, %d)" % (entropy_route, uniform_slack, n_min, n_max))
    lhs_b, obs_b = _scale(lhs, base), _scale(observed, base)
    return BoundReport(
        mode="check", bound_value=lhs_b, observed=obs_b, slack=lhs_b - obs_b,
        solver_tolerance=ENTROPY_CHECK_TOLERANCE, notes=notes,
        alpha="entropy", p_min=n_min / m, p_max=n_max / m,
    )


def _exceedance_bound(mi_nats: float, log_ratio: float, variant: str, p_t,
                      mode: str, tolerance: float, notes, **echo) -> BoundReport:
    """The KL diffusion bound for the success event rho <= t at window
    (0, ball / total), read for its complement under any measure:
    P(rho > t) >= 1 - (I + h) / log_ratio, log_ratio = ln(total / ball). h is
    h(q) at the exceedance q for "entropy" (h is symmetric), h(1/2) for "log2".

    check mode compares the observed p_t (slack = p_t - bound). solve mode
    stores the infimum of {q : q >= bound(q)} in feasible_sup: in closed
    form for "log2", and for "entropy" as one minus the supremum success
    probability, whose margin peaks at 1 / (1 + e^log_ratio). notes(q,
    bound_at) gives the notes at q (p_t or the infimum), bound_at(q, ratio)
    being the bound; echo holds the input fields to echo.
    """
    def bound_at(q: float, ratio: float = log_ratio) -> float:
        h = _binary_entropy_nats(0.5 if variant == "log2" else q)
        return 1.0 - _kl_ratio(mi_nats, h, 0.0, ratio)

    if mode == "check":
        if p_t is None:
            raise FanoError("p_t: check mode requires the observed exceedance probability")
        p_t = _check_prob(p_t, "p_t")
        bound = bound_at(p_t)
        return BoundReport(
            mode="check", bound_value=bound, observed=p_t, slack=p_t - bound,
            solver_tolerance=tolerance, notes=notes(p_t, bound_at), **echo)
    if mode != "solve":
        raise FanoError(f"mode: expected 'check' or 'solve', got {mode!r}")
    if variant == "log2":
        inf_q = max(bound_at(0.0), 0.0)
    else:
        ball_share = math.exp(-log_ratio)
        inf_q = 1.0 - _feasible_sup(
            lambda s: _kl_ratio(mi_nats, _binary_entropy_nats(s), 0.0, log_ratio) - s,
            ball_share / (1.0 + ball_share))
    return BoundReport(
        mode="solve", bound_value=inf_q, feasible_sup=inf_q,
        solver_tolerance=SOLVE_TOLERANCE, notes=notes(inf_q, bound_at), **echo)


def mi_distance_bound(mi: float, size: int, ball_max: int,
                      p_t: float | None = None, mode: str = "check",
                      base: float = math.e, tolerance: float = 1e-9) -> BoundReport:
    """Lower bound on the exceedance probability from mutual information,
    alphabet size, and the largest ball count.

    check mode needs the observed p_t; solve mode returns the infimum of the
    self-consistent set {q : q >= 1 - (mi + h(q)) / ln(size / ball_max)},
    stored in feasible_sup.
    """
    size = _check_whole(size, "size")
    ball_max = _check_whole(ball_max, "ball_max")
    if size < 1:
        raise FanoError(f"size: alphabet size must be >= 1, got {size!r}")
    if ball_max < 1:
        raise ZeroVolumeDenominator(f"ball_max: must be >= 1, got {ball_max!r}")
    if ball_max >= size:
        raise DegenerateDenominator(
            f"ball_max: {ball_max} covers the whole alphabet of size {size}; "
            "the log ratio vanishes"
        )
    mi_nats = _check_divergence(mi) * _ln_base(base)
    note = ("lower bound on exceedance probability; slack = observed - bound"
            if mode == "check" else
            "feasible_sup stores the infimum of the feasible set "
            "(lower-bound direction)")
    return _exceedance_bound(
        mi_nats, math.log(size) - math.log(ball_max), "entropy", p_t, mode,
        tolerance, lambda q, bound_at: note,
        alpha="kl", p_max=float(ball_max) / size, divergence=mi)


def continuous_fano_bound(mi: float, domain: ContinuousDomain,
                          p_t: float | None = None, variant: str = "log2",
                          mode: str = "check", volume_method: str = "auto",
                          samples: int = 65536, seed: int = 0,
                          resolution: int = 64, base: float = math.e,
                          tolerance: float = 1e-9) -> BoundReport:
    """Continuous-domain exceedance bound through a volume ratio.

    variant "log2" uses a fixed ln 2 offset; variant "entropy" replaces it
    with h(p_t) (self-referential in solve mode). When the ball volume comes
    from an estimator with nonzero error, the notes carry the bound interval
    induced by one standard error each way.
    """
    if variant not in ("log2", "entropy"):
        raise FanoError(f"variant: expected 'log2' or 'entropy', got {variant!r}")
    vol_domain = domain.volume
    method = resolve_volume_method(domain, volume_method)
    ball, ball_err = sup_ball_volume(domain, method=method,
                                     samples=samples, seed=seed,
                                     resolution=resolution)
    if ball <= 0.0:
        raise ZeroVolumeDenominator(
            "domain: supremal ball volume is zero; increase t or the sampling effort"
        )
    if ball >= vol_domain:
        raise DegenerateDenominator(
            f"domain: ball volume {ball!r} covers the whole domain volume "
            f"{vol_domain!r}; the log ratio vanishes"
        )
    mi_nats = _check_divergence(mi) * _ln_base(base)

    def notes(q: float, bound_at) -> str:
        text = ("variant %s; ball volume %.17g +/- %.17g (%s)"
                % (variant, ball, ball_err, method))
        if ball_err > 0.0:
            lo_vol = max(ball - ball_err, 1e-300)
            hi_vol = min(ball + ball_err, vol_domain * (1.0 - 1e-12))
            text += ("; bound in [%.17g, %.17g] across one volume standard error"
                     % (bound_at(q, math.log(vol_domain) - math.log(hi_vol)),
                        bound_at(q, math.log(vol_domain) - math.log(lo_vol))))
        if mode == "solve":
            text += "; feasible_sup stores the infimum (lower-bound direction)"
        return text

    return _exceedance_bound(
        mi_nats, math.log(vol_domain) - math.log(ball), variant, p_t, mode,
        tolerance, notes, alpha=variant, divergence=mi)
