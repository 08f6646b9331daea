"""Finite probability objects: distributions, joints, channels.

Outcome labels are opaque hashables and are never coerced; weights are float64
arrays frozen after validation. Sums are checked with math.fsum so the 1e-12
mass tolerance is meaningful even for hundreds of atoms.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateLabel,
    NegativeWeight,
    StateSpaceTooLarge,
    SumNotOne,
)
from .jsonio import parse_extended_array

Label = Hashable

MASS_TOLERANCE = 1e-12
DEFAULT_STATE_CAP = 10 ** 6


def _check_labels(labels: Iterable[Label], what: str) -> tuple:
    out = tuple(labels)
    if len(set(out)) != len(out):
        raise DuplicateLabel(f"{what}: outcome labels must be distinct")
    return out


def _check_rows(rows: np.ndarray, what: Callable[[int], str]) -> None:
    """Every row of a 2-D weight array must be finite, nonnegative and sum
    (by fsum, inf past the doubles) to 1; the first row that is not raises,
    named what(i). Finiteness and sign are checked for the whole array at once."""
    finite = np.isfinite(rows).all(axis=1).tolist()
    signed = (rows >= 0).all(axis=1).tolist()
    for i, (row, is_finite, is_signed) in enumerate(zip(rows, finite, signed)):
        if not is_finite:
            raise NegativeWeight(f"{what(i)}: weights must be finite")
        if not is_signed:
            raise NegativeWeight(f"{what(i)}: weights must be nonnegative")
        try:
            total = math.fsum(row.tolist())
        except OverflowError:
            total = math.inf
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise SumNotOne(f"{what(i)}: weights sum to {total!r}, expected 1.0")


def _check_weights(weights, what: str) -> np.ndarray:
    arr = np.array(weights, dtype=np.float64)
    if arr.ndim != 1:
        raise NegativeWeight(f"{what}: weights must be a flat sequence")
    _check_rows(arr[None], lambda _: what)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability distribution on a finite ordered outcome set."""

    outcomes: tuple
    weights: np.ndarray

    def __post_init__(self):
        outcomes = _check_labels(self.outcomes, "distribution")
        weights = _check_weights(self.weights, "distribution")
        if len(outcomes) != len(weights):
            raise NegativeWeight(
                "distribution: %d outcomes but %d weights"
                % (len(outcomes), len(weights))
            )
        if len(outcomes) == 0:
            raise SumNotOne("distribution: outcome set must be nonempty")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(outcomes)})

    def __len__(self) -> int:
        return len(self.outcomes)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DuplicateLabel(f"distribution: unknown outcome {label!r}") from None

    def probability(self, label: Label) -> float:
        return float(self.weights[self.index(label)])

    def support(self) -> tuple:
        """Outcomes with strictly positive weight."""
        return tuple(x for x, w in zip(self.outcomes, self.weights) if w > 0)

    def to_json_obj(self) -> dict:
        return {"outcomes": list(self.outcomes), "weights": list(map(float, self.weights))}


def make_distribution(labels: Sequence[Label], weights: Sequence[float],
                      renormalize: bool = False) -> FiniteDistribution:
    """Build a distribution, optionally scaling weights to unit mass."""
    if renormalize:
        arr = [float(w) for w in weights]
        if any(w < 0 or not math.isfinite(w) for w in arr):
            raise NegativeWeight("weights: must be finite and nonnegative")
        try:
            total = math.fsum(arr)
        except OverflowError:
            raise SumNotOne("weights: sum to inf, too large to renormalize") from None
        if total <= 0:
            raise SumNotOne("weights: total mass must be positive to renormalize")
        weights = [w / total for w in arr]
    return FiniteDistribution(tuple(labels), np.array(weights, dtype=np.float64))


def uniform_distribution(labels: Sequence[Label]) -> FiniteDistribution:
    labels = tuple(labels)
    if not labels:
        raise SumNotOne("uniform distribution needs at least one outcome")
    return FiniteDistribution(labels, np.full(len(labels), 1.0 / len(labels)))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint distribution on a product of two finite outcome sets."""

    row_outcomes: tuple
    col_outcomes: tuple
    weights: np.ndarray

    def __post_init__(self):
        rows = _check_labels(self.row_outcomes, "joint rows")
        cols = _check_labels(self.col_outcomes, "joint cols")
        arr = np.array(self.weights, dtype=np.float64)
        if arr.shape != (len(rows), len(cols)):
            raise NegativeWeight(
                "joint: weight matrix shape %r does not match %d x %d labels"
                % (arr.shape, len(rows), len(cols))
            )
        _check_rows(arr.reshape(1, -1), lambda _: "joint")
        arr.flags.writeable = False
        object.__setattr__(self, "row_outcomes", rows)
        object.__setattr__(self, "col_outcomes", cols)
        object.__setattr__(self, "weights", arr)

    def row_marginal(self) -> FiniteDistribution:
        w = np.array([math.fsum(row.tolist()) for row in self.weights])
        return FiniteDistribution(self.row_outcomes, w)

    def col_marginal(self) -> FiniteDistribution:
        w = np.array([math.fsum(col.tolist()) for col in self.weights.T])
        return FiniteDistribution(self.col_outcomes, w)

    def probability(self, row: Label, col: Label) -> float:
        i = self.row_outcomes.index(row)
        j = self.col_outcomes.index(col)
        return float(self.weights[i, j])

    def to_json_obj(self) -> dict:
        return {
            "rows": list(self.row_outcomes),
            "cols": list(self.col_outcomes),
            "weights": [list(map(float, row)) for row in self.weights],
        }


def marginals(joint: JointDistribution) -> tuple[FiniteDistribution, FiniteDistribution]:
    return joint.row_marginal(), joint.col_marginal()


def product_of_marginals(joint: JointDistribution) -> JointDistribution:
    """Independent coupling with the same marginals."""
    r, c = marginals(joint)
    return JointDistribution(joint.row_outcomes, joint.col_outcomes,
                             np.outer(r.weights, c.weights))


def joint_from_prior_and_channel(prior: FiniteDistribution, channel: "Channel") -> JointDistribution:
    """P(x, y) = prior(x) * channel(y | x); prior labels must match channel inputs."""
    if prior.outcomes != channel.input_outcomes:
        raise DuplicateLabel("prior outcomes must match channel inputs, in order")
    return JointDistribution(prior.outcomes, channel.output_outcomes,
                             prior.weights[:, None] * channel.matrix)


def event_probability(dist, predicate: Callable[..., bool]) -> float:
    """Mass of the event selected by the predicate.

    For a FiniteDistribution the predicate takes one label; for a
    JointDistribution it takes (row_label, col_label).
    """
    if isinstance(dist, JointDistribution):
        return _mass(dist.weights, _pair_table(predicate, dist.row_outcomes, dist.col_outcomes))
    if not isinstance(dist, FiniteDistribution):
        raise TypeError("event_probability expects a distribution or joint")
    return _mass(dist.weights, np.array([bool(predicate(x)) for x in dist.outcomes]))


def _pair_table(predicate: Callable[..., bool], rows, cols) -> np.ndarray:
    """predicate(x, y) at every pair of labels as a bool matrix, evaluated
    once per pair in row-major order (so a raise names the first such pair)."""
    return np.array([bool(predicate(x, y)) for x in rows for y in cols],
                    dtype=bool).reshape(len(rows), len(cols))


def _mass(weights: np.ndarray, table: np.ndarray) -> float:
    """The fsum of the weights a bool table selects (in any order), capped at 1."""
    return min(math.fsum(weights[table].tolist()), 1.0)


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic transition kernel between finite outcome sets."""

    input_outcomes: tuple
    output_outcomes: tuple
    matrix: np.ndarray

    def __post_init__(self):
        ins = _check_labels(self.input_outcomes, "channel inputs")
        outs = _check_labels(self.output_outcomes, "channel outputs")
        arr = np.array(self.matrix, dtype=np.float64)
        if arr.shape != (len(ins), len(outs)):
            raise NegativeWeight(
                "channel: matrix shape %r does not match %d x %d labels"
                % (arr.shape, len(ins), len(outs))
            )
        _check_rows(arr, lambda i: f"channel row {ins[i]!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "input_outcomes", ins)
        object.__setattr__(self, "output_outcomes", outs)
        object.__setattr__(self, "matrix", arr)

    def row(self, label: Label) -> FiniteDistribution:
        i = self.input_outcomes.index(label)
        return FiniteDistribution(self.output_outcomes, self.matrix[i].copy())

    def to_json_obj(self) -> dict:
        return {
            "inputs": list(self.input_outcomes),
            "outputs": list(self.output_outcomes),
            "rows": [list(map(float, row)) for row in self.matrix],
        }


def product_channel(channel: Channel, n: int) -> Channel:
    """n-fold memoryless extension; output labels are n-tuples.

    n = 1 returns the channel unchanged (original labels, not 1-tuples).
    """
    if n < 1:
        raise StateSpaceTooLarge("n: number of uses must be >= 1")
    if n == 1:
        return channel
    m = len(channel.output_outcomes)
    if m ** n > DEFAULT_STATE_CAP:
        raise StateSpaceTooLarge("n: product output space %d^%d exceeds the %d-state cap"
                                 % (m, n, DEFAULT_STATE_CAP))
    outputs = tuple(itertools.product(channel.output_outcomes, repeat=n))
    return Channel(channel.input_outcomes, outputs, _kron_rows(channel.matrix, n))


def _kron_rows(matrix: np.ndarray, n: int) -> np.ndarray:
    """Row-wise n-th Kronecker power: row i holds the probability of every
    length-n output block under input i, blocks in row-major order."""
    rows = matrix
    for _ in range(n - 1):
        rows = (rows[:, :, None] * matrix[:, None, :]).reshape(len(matrix), -1)
    return rows


def _types(m: int, n: int) -> np.ndarray:
    """Every type (count vector) of n draws from m symbols, one per row: the
    C(n + m - 1, m - 1) ways to place m - 1 bars among n + m - 1 slots (stars
    and bars), in lexicographic order of the bar positions, which is the
    lexicographic order of the count vectors."""
    k = m - 1
    count = math.comb(n + k, k)
    slots = range(n + k) if k else ()          # one symbol: one type, whatever n
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(slots, k)),
        dtype=np.intp, count=count * k).reshape(count, k)
    edges = np.hstack([np.full((count, 1), -1), bars, np.full((count, 1), n + k)])
    return np.diff(edges, axis=1) - 1


def _numbered(keys: np.ndarray, size: int) -> tuple:
    """The distinct keys (integers below size), ascending, and each key's
    rank among them."""
    if size > max(8 * keys.size, 1 << 16):
        # a table of every key would be mostly empty
        distinct, rank = np.unique(keys.ravel(), return_inverse=True)
        return distinct, rank.reshape(keys.shape)
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    del seen                     # gone before the rank table is made
    # the ranks, in the smallest type that holds them; only seen keys are read
    number = np.empty(size, dtype=np.min_scalar_type(max(len(distinct) - 1, 0)))
    number[distinct] = np.arange(len(distinct))
    return distinct, number[keys].astype(np.intp)


# -- JSON parsing -----------------------------------------------------------

def _label_from_json(value: Any) -> Label:
    if isinstance(value, list):
        return tuple(_label_from_json(v) for v in value)
    return value


def distribution_from_json(obj: dict) -> FiniteDistribution:
    if not isinstance(obj, dict) or "outcomes" not in obj or "weights" not in obj:
        raise SumNotOne('distribution: expected {"outcomes": [...], "weights": [...]}')
    labels = [_label_from_json(x) for x in obj["outcomes"]]
    return make_distribution(labels, parse_extended_array(obj["weights"], "weights"))


def joint_from_json(obj: dict) -> JointDistribution:
    for key in ("rows", "cols", "weights"):
        if not isinstance(obj, dict) or key not in obj:
            raise SumNotOne('joint: expected {"rows", "cols", "weights"}')
    rows = tuple(_label_from_json(x) for x in obj["rows"])
    cols = tuple(_label_from_json(x) for x in obj["cols"])
    return JointDistribution(rows, cols, parse_extended_array(obj["weights"], "weights"))


def channel_from_json(obj: dict) -> Channel:
    for key in ("inputs", "outputs", "rows"):
        if not isinstance(obj, dict) or key not in obj:
            raise SumNotOne('channel: expected {"inputs", "outputs", "rows"}')
    ins = tuple(_label_from_json(x) for x in obj["inputs"])
    outs = tuple(_label_from_json(x) for x in obj["outputs"])
    return Channel(ins, outs, parse_extended_array(obj["rows"], "rows"))
