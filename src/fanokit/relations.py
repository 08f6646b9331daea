"""Reconstruction relations and the geometry attached to them.

A relation is a predicate on (x, xhat) pairs saying when a reconstruction is
acceptable. Distance relations specialize this to rho(x, xhat) <= t and carry
their metric and radius so the distance-flavoured bounds can extract ball
counts and volumes. Metrics are expected to be symmetric; this is a contract
on the caller (spot-checked by tests), not a constructor check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .distributions import FiniteDistribution, Label, _label_from_json
from .errors import (
    EmptyCandidateSet,
    FanoError,
    OutOfRangeProbability,
    UnsupportedMetricForExact,
    ZeroVolumeDomain,
)


class Relation:
    """Membership predicate for acceptable (x, xhat) pairs."""

    def __init__(self, membership: Callable[[Any, Any], bool], description: str = ""):
        self._membership = membership
        self.description = description

    def __call__(self, x, xhat) -> bool:
        return bool(self._membership(x, xhat))

    def complement(self, x, xhat) -> bool:
        return not self(x, xhat)

    def __repr__(self):
        return f"Relation({self.description or 'predicate'})"


class DistanceRelation(Relation):
    """Acceptable iff rho(x, xhat) <= t, for a symmetric rho and radius t >= 0."""

    def __init__(self, rho: Callable[[Any, Any], float], t: float,
                 description: str = ""):
        t = float(t)
        if math.isnan(t) or t < 0:
            raise OutOfRangeProbability(f"t: radius must be >= 0, got {t!r}")
        self.rho = rho
        self.t = t
        super().__init__(lambda x, xhat: rho(x, xhat) <= t,
                         description or f"rho(x, xhat) <= {t}")


def equality_relation() -> Relation:
    return Relation(lambda x, xhat: x == xhat, "x == xhat")


def relation_from_pairs(pairs: Sequence[tuple]) -> Relation:
    table = {(x, xhat) for x, xhat in pairs}
    return Relation(lambda x, xhat: (x, xhat) in table,
                    f"membership table with {len(table)} pairs")


# -- metrics on labels ------------------------------------------------------

def _as_vector(label) -> tuple:
    if isinstance(label, (tuple, list)):
        try:
            return tuple(float(v) for v in label)
        except (TypeError, ValueError):
            raise FanoError(f"metric: label {label!r} is not a numeric vector") from None
    try:
        return (float(label),)
    except (TypeError, ValueError):
        raise FanoError(f"metric: label {label!r} is not numeric") from None


def metric_from_name(name: str) -> Callable[[Any, Any], float]:
    """Named metrics on numeric labels (scalars or equal-length tuples)."""
    if name == "abs":
        def rho(x, xhat):
            (a,), (b,) = _as_vector(x), _as_vector(xhat)
            return abs(a - b)
        return rho
    if name in ("l1", "l2", "linf"):
        def rho(x, xhat, _name=name):
            a, b = _as_vector(x), _as_vector(xhat)
            if len(a) != len(b):
                raise FanoError("metric: labels have mismatched dimensions")
            diffs = [abs(u - v) for u, v in zip(a, b)]
            if _name == "l1":
                return math.fsum(diffs)
            if _name == "linf":
                return max(diffs)
            return math.sqrt(math.fsum(d * d for d in diffs))
        return rho
    raise FanoError(f"metric: unknown metric name {name!r}")


def table_metric(entries: Sequence[tuple]) -> Callable[[Any, Any], float]:
    """Metric from (x, xhat, distance) triples; symmetrized, 0 on the diagonal."""
    table: dict = {}
    for x, xhat, d in entries:
        d = float(d)
        if d < 0:
            raise FanoError(f"table metric: negative distance for ({x!r}, {xhat!r})")
        table[(x, xhat)] = d
        table.setdefault((xhat, x), d)

    def rho(x, xhat):
        if x == xhat:
            return table.get((x, xhat), 0.0)
        try:
            return table[(x, xhat)]
        except KeyError:
            raise FanoError(f"table metric: no entry for pair ({x!r}, {xhat!r})") from None

    return rho


# -- occupancy bounds -------------------------------------------------------

@dataclass(frozen=True)
class RelationBounds:
    """Extremes of x -> P_prior((X, xhat) acceptable) over candidate xhat.

    Constructor checks only 0 <= p_min <= p_max <= 1; the strict hypotheses a
    particular bound needs (p_min < 1, p_max > 0, p_min + p_max < 1) are
    enforced where that bound is evaluated.
    """

    p_min: float
    p_max: float
    argmin_xhat: Any = None
    argmax_xhat: Any = None

    def __post_init__(self):
        lo, hi = float(self.p_min), float(self.p_max)
        if math.isnan(lo) or math.isnan(hi) or lo < 0 or hi > 1 or lo > hi:
            raise OutOfRangeProbability(
                f"relation bounds: need 0 <= p_min <= p_max <= 1, got ({lo!r}, {hi!r})"
            )
        object.__setattr__(self, "p_min", lo)
        object.__setattr__(self, "p_max", hi)


def relation_bounds(rel: Relation, prior: FiniteDistribution,
                    candidates: Sequence[Label]) -> RelationBounds:
    """Scan candidate reconstructions for the extreme acceptance masses.

    Ties keep the first candidate in the given order, so results are
    deterministic for a fixed candidate sequence.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise EmptyCandidateSet("candidates: at least one reconstruction value is required")
    best_lo = best_hi = None
    arg_lo = arg_hi = None
    weights = prior.weights.tolist()
    for xhat in candidates:
        mass = math.fsum(w for x, w in zip(prior.outcomes, weights) if w > 0 and rel(x, xhat))
        mass = min(mass, 1.0)
        if best_lo is None or mass < best_lo:
            best_lo, arg_lo = mass, xhat
        if best_hi is None or mass > best_hi:
            best_hi, arg_hi = mass, xhat
    return RelationBounds(best_lo, best_hi, arg_lo, arg_hi)


def ball_counts(rho: Callable[[Any, Any], float], t: float,
                labels: Sequence[Label]) -> tuple[int, int]:
    """(min, max) over x of |{xhat : rho(x, xhat) <= t}| on a shared label set."""
    labels = tuple(labels)
    if not labels:
        raise EmptyCandidateSet("labels: ball counts need a nonempty label set")
    counts = [sum(1 for xhat in labels if rho(x, xhat) <= t) for x in labels]
    return min(counts), max(counts)


# -- continuous domains -----------------------------------------------------

_VECTOR_METRICS = {
    "abs": lambda diff: np.abs(diff).sum(axis=1),
    "l1": lambda diff: np.abs(diff).sum(axis=1),
    "l2": lambda diff: np.sqrt((diff * diff).sum(axis=1)),
    "linf": lambda diff: np.abs(diff).max(axis=1),
}


@dataclass(frozen=True)
class ContinuousDomain:
    """Axis-aligned box with a metric and a radius for distance events.

    box: sequence of (lo, hi) per axis, finite with hi > lo.
    metric: the name of a norm, "l1", "l2", "linf" or "abs" (1-d only);
    sup_ball_volume relies on every ball being symmetric and convex.
    t: ball radius >= 0.
    """

    box: tuple
    metric: str
    t: float

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if not box:
            raise ZeroVolumeDomain("box: at least one axis is required")
        for lo, hi in box:
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
                raise ZeroVolumeDomain(
                    f"box: axis ({lo!r}, {hi!r}) must be finite with hi > lo"
                )
        t = float(self.t)
        if math.isnan(t) or t < 0:
            raise OutOfRangeProbability(f"t: radius must be >= 0, got {t!r}")
        if not isinstance(self.metric, str):
            raise FanoError(f"metric: expected a metric name, got {self.metric!r}")
        if self.metric == "abs" and len(box) != 1:
            raise UnsupportedMetricForExact("metric: 'abs' applies to 1-d boxes only")
        if self.metric not in _VECTOR_METRICS:
            raise FanoError(f"metric: unknown metric name {self.metric!r}")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "t", t)

    @property
    def dimension(self) -> int:
        return len(self.box)

    @property
    def volume(self) -> float:
        return math.prod(hi - lo for lo, hi in self.box)


def _point_distances(domain: ContinuousDomain, points: np.ndarray,
                     center: np.ndarray) -> np.ndarray:
    return _VECTOR_METRICS[domain.metric](points - center)


def _has_exact_volume(domain: ContinuousDomain) -> bool:
    """The closed form covers the sup-metric and any named metric in 1-d."""
    return domain.metric == "linf" or domain.dimension == 1


def resolve_volume_method(domain: ContinuousDomain, method: str) -> str:
    """The volume method sup_ball_volume runs: "auto" becomes "exact" where
    the closed form exists and "monte-carlo" elsewhere."""
    if method not in ("auto", "exact", "monte-carlo", "grid"):
        raise FanoError(f"method: unknown volume method {method!r}")
    if method != "auto":
        return method
    return "exact" if _has_exact_volume(domain) else "monte-carlo"


def sup_ball_volume(domain: ContinuousDomain, method: str = "auto",
                    samples: int = 65536, seed: int = 0,
                    resolution: int = 64) -> tuple[float, float]:
    """Largest volume of a radius-t ball intersected with the box.

    Returns (value, error_estimate); resolve_volume_method says which method
    runs. The supremum over centers c of f(c) = vol(B(c, t) & box) is f at
    the box center: f is the convolution of the indicators of the ball and of
    the box, both log-concave because both sets are convex, so f is
    log-concave (Prekopa 1973). f is also symmetric about the box center, and
    a log-concave function symmetric about a point is largest there. So the
    estimators evaluate one ball, at the box center c.

    They integrate over the hull H = box & [c - t, c + t]^d, which holds every
    named ball at c; vol(H) is exact.

    exact: closed form, error 0. Available for the sup-metric in any
    dimension (its ball at c is H) and for any named metric on a 1-d box.

    monte-carlo: `samples` uniform draws in H from one counter-based stream
    keyed by `seed`; the value is the hit fraction times vol(H), the error
    the binomial standard error.

    grid: midpoint rule with `resolution` cells per axis of H; the error
    estimate is the heuristic boundary-layer volume vol(H) * d * 2 / resolution.
    """
    method = resolve_volume_method(domain, method)
    widths = [min(2.0 * domain.t, hi - lo) for lo, hi in domain.box]
    hull_vol = math.prod(widths)
    if method == "exact":
        if not _has_exact_volume(domain):
            raise UnsupportedMetricForExact(
                "method: exact volume needs the sup-metric or a 1-d box"
            )
        return hull_vol, 0.0

    if domain.t == 0.0:
        return 0.0, 0.0
    dim = domain.dimension
    center = np.array([(lo + hi) / 2.0 for lo, hi in domain.box])
    hull_width = np.array(widths)
    hull_lo = center - hull_width / 2.0
    if method == "monte-carlo":
        if samples < 1:
            raise FanoError("samples: need at least one draw")
        rng = np.random.Generator(np.random.Philox(key=seed))
        points = hull_lo + hull_width * rng.random((samples, dim))
    else:
        if resolution < 2:
            raise FanoError("resolution: need at least 2 cells per axis")
        axes = [a + (np.arange(resolution) + 0.5) * (w / resolution)
                for a, w in zip(hull_lo, hull_width)]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    inside = int(np.count_nonzero(_point_distances(domain, points, center) <= domain.t))
    frac = inside / len(points)
    if method == "monte-carlo":
        return frac * hull_vol, hull_vol * math.sqrt(frac * (1.0 - frac) / samples)
    return frac * hull_vol, hull_vol * dim * 2.0 / resolution


# -- JSON parsing -----------------------------------------------------------

def relation_from_json(obj: dict) -> Relation:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FanoError('relation: expected an object with a "kind" field')
    kind = obj["kind"]
    if kind == "equality":
        return equality_relation()
    if kind == "distance":
        metric = obj.get("metric", "abs")
        if metric == "table":
            entries = obj.get("table")
            if not entries:
                raise FanoError('relation: metric "table" requires a "table" field')
            rho = table_metric([(_label_from_json(x), _label_from_json(y), d)
                                for x, y, d in entries])
        else:
            rho = metric_from_name(metric)
        if "t" not in obj:
            raise FanoError('relation: distance relation requires a radius "t"')
        return DistanceRelation(rho, float(obj["t"]))
    if kind == "predicate-table":
        pairs = obj.get("pairs")
        if pairs is None:
            raise FanoError('relation: predicate-table requires a "pairs" field')
        return relation_from_pairs([(_label_from_json(x), _label_from_json(y))
                                    for x, y in pairs])
    raise FanoError(f"relation: unknown kind {kind!r}")


def domain_from_json(obj: dict) -> ContinuousDomain:
    if not isinstance(obj, dict) or "box" not in obj:
        raise FanoError('domain: expected {"box": [[lo, hi], ...], "metric": ..., "t": ...}')
    return ContinuousDomain(
        box=tuple((float(lo), float(hi)) for lo, hi in obj["box"]),
        metric=obj.get("metric", "linf"),
        t=float(obj.get("t", 0.0)),
    )
