"""Diffusion-style lower bounds on reconstruction error, and their corollaries.

Every evaluator returns a BoundReport. Internally everything is computed in
nats; probabilities need no conversion, entropy-valued sides are converted to
the configured base at the report boundary.

Two slack conventions, one rule. For upper-bound checks (observed <= bound)
slack = bound_value - observed; for lower-bound checks (observed >= bound,
the distance/continuous exceedance bounds) slack = observed - bound_value.
Either way a report holds iff slack >= -solver_tolerance.

The counting and the continuous exceedance bounds (mi_distance_bound,
continuous_fano_bound) are one inequality under two measures, counting
measure and volume; both evaluate it through _exceedance_bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from .distributions import (
    Channel,
    FiniteDistribution,
    JointDistribution,
    event_probability,
    product_of_marginals,
)
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
from .jsonio import format_cell, format_csv
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
# bisection width of every solver: solve_diffusion and the exceedance bounds
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

def _kl_rhs_nats(div: float, p: float, p_min: float, p_max: float) -> float:
    return (div + _binary_entropy_nats(p) + math.log1p(-p_min)) / _log_ratio(p_min, p_max)


# Realizable inputs always have div + h_alpha(p) + ln(1 - p_min) >= 0, but at
# tight instances (e.g. p = 0 with p_min = Q(event)) the float value can land
# a few ulp below zero; inside this band the bound collapses to its tight
# value 0 instead of raising.
RENYI_ZERO_BAND = 1e-12


def _renyi_rhs_nats(div: float, alpha: float, p: float,
                    p_min: float, p_max: float) -> float:
    """RHS of the order-alpha diffusion bound; raises InconsistentBounds when
    the exponent combination is negative beyond rounding (divergence too
    small for the window, so the cleared ratio would be negative)."""
    a1 = alpha - 1.0
    a_val = div + _binary_renyi_entropy_nats(p, alpha) + math.log1p(-p_min)
    if a_val < 0.0:
        if a_val >= -RENYI_ZERO_BAND:
            return 0.0
        raise InconsistentBounds(
            "divergence: too small for the occupancy window at this order "
            "(the bound's ratio would be negative)"
        )
    try:
        num = math.expm1(a1 * a_val)
    except OverflowError:
        num = math.inf
    if alpha < 1.0:
        # Dropping the power-sum factor p^a + (1-p)^a from the numerator is
        # only sound when the factor is <= 1, i.e. for orders above one;
        # below one it must stay or the bound fails on tight windows.
        num *= p ** alpha + (1.0 - p) ** alpha
    try:
        den = math.expm1(a1 * _log_ratio(p_min, p_max))
    except OverflowError:
        den = math.inf
    if num == 0.0:
        return 0.0
    ratio = num / den
    if ratio < 0.0:
        raise NumericalInstability(
            "alpha: numerator and denominator of the order-alpha ratio "
            "disagree in sign"
        )
    if math.isinf(ratio):
        return math.inf
    return ratio ** (1.0 / alpha)


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

def check_renyi_diffusion(p: float, inputs: BoundInputs,
                          tolerance: float = 1e-9) -> BoundReport:
    """Check p <= order-alpha RHS for the supplied scalar inputs."""
    p = _check_prob(p, "p")
    alpha = _check_order(inputs.alpha)
    p_min, p_max = _check_window(inputs.p_min, inputs.p_max)
    div = _check_divergence(inputs.divergence) * _ln_base(inputs.base)
    notes = ""
    if math.isinf(div):
        rhs = math.inf
        notes = "divergence is infinite; bound is vacuous"
    else:
        rhs = _renyi_rhs_nats(div, alpha, p, p_min, p_max)
        parts = []
        if alpha < 1.0:
            parts.append("order < 1: right side keeps the binary power-sum factor")
        if rhs >= 1.0:
            parts.append("bound value >= 1; vacuous at this order")
        notes = "; ".join(parts)
    return BoundReport(
        mode="check", bound_value=rhs, observed=p, slack=rhs - p,
        solver_tolerance=tolerance, notes=notes,
        alpha=alpha, p_min=p_min, p_max=p_max, divergence=inputs.divergence,
    )


def check_kl_diffusion(p: float, inputs: BoundInputs,
                       tolerance: float = 1e-9) -> BoundReport:
    """Check p <= KL RHS (the order -> 1 limit form)."""
    p = _check_prob(p, "p")
    p_min, p_max = _check_window(inputs.p_min, inputs.p_max)
    div = _check_divergence(inputs.divergence) * _ln_base(inputs.base)
    notes = ""
    if math.isinf(div):
        rhs = math.inf
        notes = "divergence is infinite; bound is vacuous"
    else:
        rhs = _kl_rhs_nats(div, p, p_min, p_max)
        if rhs >= 1.0:
            notes = "bound value >= 1; vacuous"
    return BoundReport(
        mode="check", bound_value=rhs, observed=p, slack=rhs - p,
        solver_tolerance=tolerance, notes=notes,
        alpha="kl", p_min=p_min, p_max=p_max, divergence=inputs.divergence,
    )


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


def solve_diffusion(inputs: BoundInputs) -> BoundReport:
    """Largest p consistent with the self-referential bound p <= RHS(p).

    Scans a uniform grid, refines every sign change by bisection, and returns
    the supremum of the feasible set. Raises NoFeasiblePoint when no grid
    point or bracket is feasible (possible when p_min > 0 makes the inputs
    unrealizable).
    """
    p_min, p_max = _check_window(inputs.p_min, inputs.p_max)
    div = _check_divergence(inputs.divergence)
    is_kl = isinstance(inputs.alpha, str) and inputs.alpha.lower() == "kl"
    alpha = None if is_kl else _check_order(inputs.alpha)
    if math.isinf(div):
        return BoundReport(
            mode="solve", bound_value=1.0, feasible_sup=1.0,
            solver_tolerance=SOLVE_TOLERANCE,
            notes="divergence is infinite; every p is feasible (vacuous)",
            alpha="kl" if is_kl else alpha, p_min=p_min, p_max=p_max,
            divergence=inputs.divergence,
        )
    div_nats = div * _ln_base(inputs.base)
    log_ratio = _log_ratio(p_min, p_max)

    if is_kl:
        def g(p: float) -> float:
            return _kl_rhs_nats(div_nats, p, p_min, p_max) - p
    else:
        a1 = alpha - 1.0
        sign = 1.0 if alpha > 1.0 else -1.0
        try:
            den = math.expm1(a1 * log_ratio)
        except OverflowError:
            den = math.inf

        def g(p: float) -> float:
            # cleared-denominator feasibility margin; same sign as RHS(p) - p
            # wherever the RHS is defined, finite everywhere on [0, 1]
            a_val = div_nats + _binary_renyi_entropy_nats(p, alpha) + math.log1p(-p_min)
            try:
                num = math.expm1(a1 * a_val)
            except OverflowError:
                num = math.inf
            if alpha < 1.0:
                num *= p ** alpha + (1.0 - p) ** alpha
            return sign * (num - (p ** alpha) * den)

    step = 1.0 / (SOLVE_GRID_POINTS - 1)
    values = [g(i * step) for i in range(SOLVE_GRID_POINTS)]
    feasible = [v >= 0.0 for v in values]
    if feasible[-1]:
        sup = 1.0
    else:
        sup = None
        for i in range(SOLVE_GRID_POINTS - 2, -1, -1):
            if feasible[i]:
                sup = _bisect_boundary(g, i * step, (i + 1) * step, SOLVE_TOLERANCE)
                break
        if sup is None:
            raise NoFeasiblePoint(
                "inputs: no feasible probability on the solve grid; the "
                "divergence is too small for the occupancy window "
                "(or the feasible window is narrower than the grid step)"
            )
    return BoundReport(
        mode="solve", bound_value=sup, feasible_sup=sup,
        solver_tolerance=SOLVE_TOLERANCE, notes="",
        alpha="kl" if is_kl else alpha, p_min=p_min, p_max=p_max,
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


def independent_samples_bound(prior: FiniteDistribution, channel: Channel,
                              n: int, estimator, rel: Relation,
                              bounds: RelationBounds | None = None,
                              base: float = math.e,
                              tolerance: float = 1e-9) -> BoundReport:
    """Bound for n conditionally independent channel uses.

    The divergence budget is n times the single-use mutual information, with
    the worst-case pairwise channel divergence n * beta as the weaker, model-
    only fallback (recorded in notes). The chain inequality
    I(X;Y^n) <= n * I(X;Y_1) <= n * beta is asserted on the exact chain.
    """
    from .chains import Experiment, compute_beta, enumerate_chain

    exp = Experiment(prior=prior, channel=channel, n_samples=n,
                     estimator=estimator, relation=rel, base=math.e)
    summary = enumerate_chain(exp)
    i1 = summary.mi_y1
    beta = compute_beta(channel)
    if summary.mi_xy > n * i1 + tolerance:
        raise InconsistentBounds(
            "chain: observation mutual information exceeds n times the "
            "single-use value; additivity violated"
        )
    if i1 > beta + tolerance:
        raise InconsistentBounds(
            "chain: single-use mutual information exceeds the worst-case "
            "pairwise divergence"
        )
    if bounds is None:
        bounds = relation_bounds(rel, prior, summary.joint_xxhat.col_outcomes)
    p_min, p_max = _check_window(bounds.p_min, bounds.p_max)
    p_rel = summary.p_rel
    rhs_i = _kl_rhs_nats(n * i1, p_rel, p_min, p_max)
    rhs_beta = (math.inf if math.isinf(beta)
                else _kl_rhs_nats(n * beta, p_rel, p_min, p_max))
    if rhs_i > rhs_beta + tolerance:
        raise InconsistentBounds(
            "chain: per-sample bound exceeds the worst-case-divergence bound"
        )
    solve = solve_diffusion(
        BoundInputs(divergence=n * i1, alpha="kl", p_min=p_min, p_max=p_max))
    notes = ("bounds the acceptable-reconstruction probability "
             "(complement form flagged inconsistent upstream); "
             "worst-case-divergence bound value %s" % format_cell(rhs_beta))
    return BoundReport(
        mode="check", bound_value=rhs_i, observed=p_rel, slack=rhs_i - p_rel,
        feasible_sup=solve.feasible_sup,
        solver_tolerance=tolerance, notes=notes,
        alpha="kl", p_min=p_min, p_max=p_max, divergence=_scale(n * i1, base),
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


def _concave_crossing(g) -> float:
    """Infimum of {q in [0,1] : g(q) >= 0} for concave g with g(1) >= 0."""
    if g(0.0) >= 0.0:
        return 0.0
    return _bisect_boundary(lambda q: -g(q), 0.0, 1.0, SOLVE_TOLERANCE)


def _exceedance_threshold(mi_nats: float, variant: str, log_ratio: float,
                          q: float) -> float:
    """1 - (I + offset) / ln(measure ratio); the offset is ln 2 for variant
    "log2" and h(q) for "entropy"."""
    offset = math.log(2.0) if variant == "log2" else binary_entropy(q)
    return 1.0 - (mi_nats + offset) / log_ratio


def _exceedance_bound(mi_nats: float, log_ratio: float, variant: str, p_t,
                      mode: str, tolerance: float, notes, **echo) -> BoundReport:
    """The exceedance bound P(rho > t) >= threshold(P(rho > t)) under any
    measure: log_ratio is ln(total measure / largest ball measure).

    check mode compares the observed p_t (slack = p_t - bound). solve mode
    stores the infimum of the self-consistent set {q : q >= threshold(q)} in
    feasible_sup: in closed form for "log2", by bisection of the concave
    q - threshold(q) for "entropy". An infinite mutual information makes the
    bound -inf (check) and the infimum 0 (solve). notes(q) gives the notes at
    q, the observed p_t or the infimum; echo holds the input fields to echo.
    """
    def threshold(q: float) -> float:
        return _exceedance_threshold(mi_nats, variant, log_ratio, q)

    if mode == "check":
        if p_t is None:
            raise FanoError("p_t: check mode requires the observed exceedance probability")
        p_t = _check_prob(p_t, "p_t")
        bound = -math.inf if math.isinf(mi_nats) else threshold(p_t)
        return BoundReport(
            mode="check", bound_value=bound, observed=p_t, slack=p_t - bound,
            solver_tolerance=tolerance, notes=notes(p_t), **echo)
    if mode != "solve":
        raise FanoError(f"mode: expected 'check' or 'solve', got {mode!r}")
    if math.isinf(mi_nats):
        inf_q = 0.0
    elif variant == "log2":
        inf_q = min(max(threshold(0.0), 0.0), 1.0)
    else:
        inf_q = _concave_crossing(lambda q: q - threshold(q))
    return BoundReport(
        mode="solve", bound_value=inf_q, feasible_sup=inf_q,
        solver_tolerance=SOLVE_TOLERANCE, notes=notes(inf_q), **echo)


def mi_distance_bound(mi: float, size: int, ball_max: int,
                      p_t: float | None = None, mode: str = "check",
                      base: float = math.e, tolerance: float = 1e-9) -> BoundReport:
    """Lower bound on the exceedance probability from mutual information,
    alphabet size, and the largest ball count.

    check mode needs the observed p_t; solve mode returns the infimum of the
    self-consistent set {q : q >= 1 - (mi + h(q)) / ln(size / ball_max)},
    stored in feasible_sup.
    """
    size = int(size)
    ball_max = int(ball_max)
    if size < 2:
        raise FanoError(f"size: alphabet size must be >= 2, got {size!r}")
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
        tolerance, lambda q: note,
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

    def threshold(q: float, ball_vol: float) -> float:
        return _exceedance_threshold(
            mi_nats, variant, math.log(vol_domain) - math.log(ball_vol), q)

    def notes(q: float) -> str:
        text = ("variant %s; ball volume %.17g +/- %.17g (%s)"
                % (variant, ball, ball_err, method))
        if ball_err > 0.0:
            lo_vol = max(ball - ball_err, 1e-300)
            hi_vol = min(ball + ball_err, vol_domain * (1.0 - 1e-12))
            text += ("; bound in [%.17g, %.17g] across one volume standard error"
                     % (threshold(q, hi_vol), threshold(q, lo_vol)))
        if mode == "solve":
            text += "; feasible_sup stores the infimum (lower-bound direction)"
        return text

    return _exceedance_bound(
        mi_nats, math.log(vol_domain) - math.log(ball), variant, p_t, mode,
        tolerance, notes, alpha=variant, divergence=mi)
