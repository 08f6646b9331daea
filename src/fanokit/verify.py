"""Exhaustive and targeted verification harnesses.

The sweep enumerates every rational-grid distribution pair, every nontrivial
event, both admissible occupancy windows, and every configured order, then
checks the diffusion bounds through the same evaluators the library exposes.
A violation is a signed excess (observed - bound) above tolerance, in nats.

The grids are count vectors from the type enumerator: P on every vector of
the denominator, Q on those with no zero part. Every kernel the sweep calls
is bitwise invariant under a permutation sigma of the outcomes (fsums, a max,
and window terms that see only Q(E)), so instance (sigma P, sigma Q,
sigma E, window, order) has the excess double of (P, Q, E, window, order).
For a fixed (Q, E), P -> sigma P is a bijection of the P grid, so the sweep
evaluates one canonical (Q, E) per orbit against every P and counts each
verdict once per member of the orbit (_event_tables): Q with nondecreasing
parts, E a prefix of each run of equal parts. Where several instances share
the maximum excess, the worst is the first in loop order among the
sigma-images of the evaluations that reach it (_first_image), and an error
names the first such image among the evaluations of its k that raise, so
the output is the one-instance-at-a-time loop's.

Each k's grids and windows are built once; P(E) takes one fsum per
distinct multiset of parts (_event_masses). The verdict is computed in two
passes that give the scalar loop's bytes. A vector pass evaluates every
evaluation's divergence, exponent and bound as numpy arrays, in blocks of
whole P rows, with a proven band around each excess: the distance the
scalar kernels' double can lie from it (_block_excess). The scalar kernels
then re-evaluate, in loop order, the evaluations whose band reaches the
tolerance or the running maximum, and every one off the plain branch of the
bound, where every error is raised (_sweep_outcome_count). The rest keep
their vector verdict. A block holds about 8,192 evaluations, or one row
where a row alone holds more, in four doubles and two flags per evaluation
reused from block to block, so the peak memory grows with a row's windows
times its orders.
"""
from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

MAX_SWEEP_EVALUATIONS = 5_000_000
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


def _too_large(evaluations: int) -> GridTooLarge:
    return GridTooLarge(f"sweep: at least {evaluations} planned evaluations exceed "
                        f"the cap {MAX_SWEEP_EVALUATIONS}")


def _planned_instances(spec: SweepSpec, tables: dict | None = None) -> int:
    """Instances the sweep runs: each P against every member of each
    canonical window's orbit, at each order. tables, when given, keeps each
    k's _event_tables for the sweep to reuse. Raises GridTooLarge once the
    evaluations (each P against each canonical window, at each order) pass
    MAX_SWEEP_EVALUATIONS, naming their count so far: a lower bound."""
    d = spec.weight_grid_denominator
    tables = {} if tables is None else tables
    evaluations = instances = 0
    for k in spec.outcome_counts:
        per_window = math.comb(d + k - 1, k - 1) * (len(spec.alphas) + 1)
        if d >= k:
            # before any Q is listed: a sorted Q has at least k - 1 canonical
            # events, and an orbit holds at most k! (Q, E) pairs
            least = max(k - 1, -(-math.comb(d - 1, k - 1) * (2 ** k - 2)
                                 // math.factorial(k)))
            if evaluations + per_window * least > MAX_SWEEP_EVALUATIONS:
                raise _too_large(evaluations + per_window * least)
        if k not in tables:
            tables[k] = _event_tables(k, d)
        evaluations += per_window * len(tables[k].w_q)
        if evaluations > MAX_SWEEP_EVALUATIONS:
            raise _too_large(evaluations)
        instances += per_window * sum(tables[k].w_size.tolist())
    return instances


def _numbered(keys: np.ndarray, size: int) -> tuple:
    """The distinct keys (integers below size), ascending, and each key's
    rank among them."""
    if size > max(8 * keys.size, 1 << 16):
        # a table of every key would be mostly empty
        distinct, rank = np.unique(keys.ravel(), return_inverse=True)
        return distinct, rank.reshape(keys.shape)
    number = np.zeros(size, dtype=np.intp)
    number[keys] = 1
    distinct = np.flatnonzero(number)
    number[distinct] = np.arange(len(distinct))
    return distinct, number[keys]


def _event_masses(parts: np.ndarray, members: np.ndarray, d: int) -> tuple:
    """(masses, index): the mass math.fsum(parts[r, i] / d for i in E) of
    event E (row e of the 0/1 (event, outcome) matrix members) under row r
    of integer parts is masses[index[r, e]].

    fsum rounds correctly, so a mass depends only on the multiset of E's
    parts: one fsum per distinct multiset. A network of elementwise min and
    max puts each event's parts (0 outside E, where they add nothing) in
    order, as the digits of a base-(d + 1) code. A proper event leaves a 0
    first, so the codes lie below (d + 1)^(k - 1)."""
    k = parts.shape[1]
    column = list(np.moveaxis(parts[:, None, :] * members, -1, 0))
    for end in range(k - 1, 0, -1):
        for i in range(end):
            column[i], column[i + 1] = (np.minimum(column[i], column[i + 1]),
                                        np.maximum(column[i], column[i + 1]))
    code = np.zeros(column[0].shape, dtype=np.intp)
    for part in column:
        code *= d + 1
        code += part
    codes, index = _numbered(code, (d + 1) ** (k - 1))
    masses = np.array([math.fsum(c // (d + 1) ** i % (d + 1) / d for i in range(k))
                       for c in codes.tolist()])
    return masses, index


class _EventTables(NamedTuple):
    """The sweep's tables for k outcomes and denominator d: one canonical
    (Q, E) per orbit of the outcome permutations."""
    p_grid: np.ndarray      # every P as integer parts, one row each
    q_rows: np.ndarray      # the P rows of the sorted full-support Qs
    masks: list             # the events some window uses, as bit masks, ascending
    members: np.ndarray     # their 0/1 (event, outcome) rows
    distinct: list          # the distinct windows (tag, p_min, p_max)
    w_q: np.ndarray         # per canonical window, in loop order: its Q index,
    w_m: np.ndarray         # its event's index in masks,
    w_d: np.ndarray         # its distinct window's index
    w_size: np.ndarray      # and its orbit's size


def _canonical_events(parts: list, d: int) -> list:
    """(mask, orbit size, Q(E)) of every canonical proper event of the
    nondecreasing parts of Q, by mask: E takes a prefix of each run of equal
    parts. Permuting within runs fixes Q, so the orbit of (Q, E) holds
    k! / prod over runs of |E in run|! |run - E|! pairs."""
    k = len(parts)
    runs = []       # (first position, length)
    for _, run in itertools.groupby(parts):
        runs.append((sum(n for _, n in runs), len(list(run))))
    events = []
    for takes in itertools.product(*(range(n + 1) for _, n in runs)):
        mask = sum(((1 << t) - 1) << first for (first, _), t in zip(runs, takes))
        if 0 < mask < (1 << k) - 1:
            size = math.factorial(k)
            for (_, n), t in zip(runs, takes):
                size //= math.factorial(t) * math.factorial(n - t)
            events.append((mask, size,
                           math.fsum(parts[i] / d for i in range(k) if mask >> i & 1)))
    return sorted(events)


def _event_tables(k: int, d: int) -> _EventTables:
    """The P grid with k outcomes and denominator d, and one window per
    orbit in loop order: the sorted full-support Qs, each with its canonical
    events, each with its windows; no windows where no Q has full support
    (d < k).

    Only the P grid is a numpy kernel's: the rest is a few hundred (Q, E)
    pairs in Python, and each further kernel maps its code into the
    process, up to 64 KB of resident memory apiece."""
    p_grid = _types(k, d) if d >= k else np.empty((0, k), dtype=np.intp)
    q_rows, pairs = [], []
    for r, parts in enumerate(p_grid.tolist()):
        if parts[0] > 0 and parts == sorted(parts):
            pairs += [(len(q_rows),) + event for event in _canonical_events(parts, d)]
            q_rows.append(r)
    masks = sorted({mask for _, mask, _, _ in pairs})
    mask_index = {mask: i for i, mask in enumerate(masks)}
    # each distinct Q(E)'s windows, one after another in `distinct`
    first: dict = {}
    distinct: list = []
    windows = []
    for qi, mask, size, q_event in pairs:
        tried = _windows(q_event)
        if q_event not in first:
            first[q_event] = len(distinct)
            distinct += tried
        windows += [(qi, mask_index[mask], first[q_event] + w, size) for w in range(len(tried))]
    w_q, w_m, w_d, w_size = np.array(windows, dtype=np.intp).reshape(-1, 4).T
    members = np.array([[m >> i & 1 for i in range(k)] for m in masks],
                       dtype=np.intp).reshape(-1, k)
    return _EventTables(p_grid, np.array(q_rows, dtype=np.intp), masks, members, distinct,
                        w_q, w_m, w_d, w_size)


def _first_image(p_parts, q_parts, mask: int) -> tuple:
    """The loop-first sigma-image (P, Q, event mask) of an instance: P in
    nondecreasing order (the smallest P index), then Q so within equal parts
    of P, then E's members first among equal (p, q) atoms (the smallest
    mask)."""
    atoms = sorted((p, q, not mask >> i & 1) for i, (p, q) in enumerate(zip(p_parts, q_parts)))
    return (tuple(p for p, _, _ in atoms), tuple(q for _, q, _ in atoms),
            sum(1 << i for i, (_, _, out) in enumerate(atoms) if not out))


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
    maximum in that order, and an error is the first instance's to raise.

    Each evaluation stands for the orbit of its (Q, E) under the outcome
    permutations: its verdict counts once per member, and instances counts
    them all. Ties at the maximum (and among raising evaluations of one k)
    go to the loop-first sigma-image, so the summary and any error are those
    of evaluating every instance in turn. MAX_SWEEP_EVALUATIONS caps the
    evaluations, not the instances.
    """
    d = spec.weight_grid_denominator
    if d < 1:
        raise GridTooLarge(f"weight_grid_denominator: must be >= 1, got {d!r}")
    if any(k < 1 for k in spec.outcome_counts):
        raise FanoError(
            f"outcome_counts: every count must be >= 1, got {spec.outcome_counts!r}")
    tables: dict = {}
    instances = _planned_instances(spec, tables)
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
        _sweep_outcome_count(k, d, orders, tally, tables[k])
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return SweepSummary(
        instances=instances,
        violations=tally.violations,
        max_violation=tally.max_excess,
        worst_instance=tally.worst,
        elapsed_ms=elapsed_ms,
    )


# Evaluations per numpy block: whole P rows up to this many, or one row where
# it alone holds more.
_BLOCK_INSTANCES = 8192
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
    """The sweep's running violation count and its first maximum excess so
    far, with the loop key of the worst instance: () until there is one, and
    no key is below ()."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.violations = 0
        self.max_excess = -math.inf
        self.worst: dict | None = None
        self.worst_key: tuple = ()


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


def _block_excess(dv, h, p, window, order, band, flags) -> None:
    """Excess p - bound of a block of instances into dv[1] (order, P,
    window), KL first, and into band the distance the scalar kernels'
    excess lies within: inf where the instance must go to the scalar
    kernels (its vector excess is then 0). dv holds the divergences and
    their error bounds, h the event terms, band[1:] the power-sum factor of
    each order alpha, all gathered to the instances and all overwritten; p
    is P(E) per (P, window); window and order are _sweep_outcome_count's
    per-window and per-order constants; flags is scratch.

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
    log_keep, abs_log_keep, log_ratio, den, r_lo, r_hi = window
    alpha_less_1, root, log_slope, x_slope, roundings, reach = order
    a, excess = dv
    a += h
    delta = np.add(abs_log_keep, a, out=h)
    delta *= 4.0 * _EPS
    delta += excess         # twice: 2 err, the divergences' error bounds
    delta += excess
    a += log_keep
    rhs = np.divide(a[0], log_ratio, out=excess[0])
    np.divide(delta[0], log_ratio, out=band[0])     # twice the bound's distance from the kernels'
    np.abs(rhs, out=a[0])
    a[0] *= _EPS
    band[0] += a[0]
    band[0] *= 2.0
    np.subtract(p, rhs, out=rhs)
    a, delta, bound, X = a[1:], delta[1:], excess[1:], band[1:]
    plain, test = flags[:, 1:]
    with np.errstate(all="ignore"):
        np.multiply(alpha_less_1, a, out=bound)
        np.expm1(bound, out=bound)
        bound *= X          # the power-sum factors
        bound /= den
        np.less(r_lo, bound, out=plain)
        np.less(bound, r_hi, out=test)
        plain &= test
        bound **= root
        gap = np.subtract(a, delta, out=X)
        np.greater(gap, delta, out=test)
        plain &= test
        # X = delta (max(alpha - 1, 0) + 1 / gap) / alpha + the roundings
        np.divide(root, gap, out=X)
        X += log_slope
        X *= delta
        x = np.multiply(alpha_less_1, a, out=a)     # the exponent of expm1 again
        np.abs(x, out=x)
        x *= x_slope
        X += x
        X += roundings
        np.less_equal(X, reach, out=test)
        plain &= test
        X *= bound
        np.subtract(p, bound, out=bound)
        X *= 2.6
        np.logical_not(plain, out=plain)
        np.copyto(bound, 0.0, where=plain)
        np.copyto(X, np.inf, where=plain)
    # and the rounding of p - bound on each side; the doubling covers
    # second-order terms
    rounding = np.abs(excess, out=dv[0])
    rounding *= 2.0 * _EPS
    band += rounding


def _sweep_outcome_count(k: int, d: int, orders, tally: _Tally,
                         tables: _EventTables) -> None:
    """Every evaluation with k outcomes, each P against each canonical
    window at each order, in blocks of whole P rows; tables is
    _event_tables(k, d).

    A block's excesses and bands come from _block_excess. Within its band
    an excess may be the kernels' or not, so the scalar kernels evaluate,
    in loop order, every evaluation whose band reaches spec.tolerance, and
    every one whose band reaches the threshold (the largest of the running
    maximum and the block's lower ends, excess - band) unless by its turn
    the running maximum has passed its band. Evaluations with an infinite
    band are among them. The rest keep their vector verdict: below a
    maximum, none can be a maximum, and away from the tolerance, their
    verdict is the kernels'. Every verdict counts once per member of its
    window's orbit.

    So every evaluation that reaches the maximum excess is re-evaluated,
    and the worst instance is the loop-first sigma-image (_first_image)
    among them: an image's window and order are its evaluation's, so the
    images compare by (P, Q, mask), then window and order. Every raise (a
    negative exponent, a sign disagreement, a bound that is 0 only by
    rounding) has an infinite band, so every raising evaluation of the k is
    re-evaluated too. The first instance to raise in loop order is the
    loop-first image among them; its error names that image and is raised
    once the k is done.
    """
    p_array, q_rows, masks, members, distinct, w_q, w_m, w_d, w_size = tables
    n_windows = len(w_q)
    if not n_windows:
        return
    p_masses, e_index = _event_masses(p_array, members, d)
    q_grid = p_array[q_rows]
    q_list = q_grid.tolist()
    alphas = [alpha for _, alpha in orders]
    n_orders = len(orders)

    # window terms as (order, 1, window) arrays, from each distinct window's
    # _window_terms; orders as (order, 1, 1)
    w_terms = np.array([[_window_terms(p_min, p_max, alpha) for _, p_min, p_max in distinct]
                        for alpha in alphas])[:, None]
    log_keep, log_ratio, den = (w_terms[..., 0][..., w_d], w_terms[0, 0, w_d, 1],
                                w_terms[1:, ..., 2][..., w_d])
    alpha = np.array(alphas[1:], dtype=float).reshape(-1, 1, 1)
    # the plain ratios num / den: num, the ratio and its 1/alpha-th root all
    # lie inside _PLAIN_RANGE with a factor 2 to spare (the vector num and
    # root are within a few eps of ratio * den and ratio ** (1 / alpha));
    # none where den overflowed
    lo, hi = _PLAIN_RANGE
    r_lo = np.maximum(np.maximum(lo, 2.0 * lo / np.abs(den)), 2.0 ** (-959.0 * alpha))
    r_hi = np.minimum(np.minimum(hi, hi / (2.0 * np.abs(den))),
                      2.0 ** np.minimum(959.0 * alpha, 960.0))
    window = (log_keep, np.abs(log_keep), log_ratio, den, r_lo, r_hi)
    t_ulps = TRANSCENDENTAL_ULPS
    order = (alpha - 1.0, 1.0 / alpha, np.maximum(alpha - 1.0, 0.0) / alpha,
             2.0 * _EPS / alpha, 2.0 * _EPS * ((t_ulps + 3.0) / alpha + t_ulps),
             1.0 / np.maximum(alpha, 2.0))

    # event terms of each distinct P(E) multiset: h per order, then the
    # power-sum factor per order alpha
    p_list = p_array.tolist()
    p_events = p_masses.tolist()
    e_rows = e_index.tolist()
    e_terms = [[_event_terms(p, alpha) for p in p_events] for alpha in alphas]
    e_table = np.array([[t[0] for t in row] for row in e_terms]
                       + [[t[1] for t in row] for row in e_terms[1:]])

    logs = [math.log(a / d) for a in range(1, d + 1)]
    atom_table = np.array([[0.0] + logs, [-math.inf] + logs, [a / d for a in range(d + 1)]])
    q_logs = atom_table[0][q_grid]
    p_vecs, q_vecs = atom_table[2][p_array].tolist(), atom_table[2][q_grid].tolist()
    # a block holds `step` whole P rows; a divergence block holds a multiple
    # of `step` rows, about a quarter as many (P, Q, atom) entries as a
    # block has evaluations
    step = min(len(p_list), max(1, _BLOCK_INSTANCES // (n_windows * n_orders)))
    div_rows = step * max(1, _BLOCK_INSTANCES // 4 // (len(q_list) * k) // step)
    # every block's arrays are views of these, reused: four doubles and two
    # flags per evaluation, one P(E) and one event index per (P, window)
    per_order = n_orders * step * n_windows
    scratch = np.empty(4 * per_order + step * n_windows)
    flags = np.empty(2 * per_order, dtype=bool)
    e_block = np.empty(step * n_windows, dtype=np.intp)

    def block_views(rows: int) -> list:
        """dv, h, band, P(E), flags and event index of a block of `rows`
        P rows, as views of the scratch arrays."""
        size = rows * n_windows
        n = n_orders * size
        planes = np.split(scratch[:4 * n + size], np.cumsum([2 * n, n, n]))
        shapes = [(2, n_orders), (n_orders,), (n_orders,), ()]
        return ([plane.reshape(shape + (rows, n_windows)) for plane, shape in zip(planes, shapes)]
                + [flags[:2 * n].reshape(2, n_orders, rows, n_windows),
                   e_block[:size].reshape(rows, n_windows)])

    full_block = block_views(step)
    w_q_list, w_m_list, w_d_list = w_q.tolist(), w_m.tolist(), w_d.tolist()
    w_size_list = w_size.tolist()
    tolerance = tally.tolerance
    refusal = None      # (loop key, error) of the first image to raise
    for d0 in range(0, len(p_list), div_rows):
        dv = _block_divergences(p_array[d0:d0 + div_rows], q_logs, atom_table, alphas)
        for r0 in range(d0, min(d0 + div_rows, len(p_list)), step):
            rows = min(step, len(p_list) - r0)
            dv_block, h, band, p_block, block_flags, e_at = (
                full_block if rows == step else block_views(rows))
            np.take(dv[:, :, r0 - d0:r0 - d0 + rows], w_q, axis=-1, out=dv_block, mode="clip")
            np.take(e_index[r0:r0 + rows], w_m, axis=1, out=e_at, mode="clip")
            np.take(e_table[:n_orders], e_at, axis=1, out=h, mode="clip")
            np.take(e_table[n_orders:], e_at, axis=1, out=band[1:], mode="clip")
            np.take(p_masses, e_at, out=p_block, mode="clip")
            _block_excess(dv_block, h, p_block, window, order, band, block_flags)
            vector_excess = dv_block[1]
            lower = np.subtract(vector_excess, band, out=dv_block[0])
            upper = np.add(vector_excess, band, out=band)
            threshold = max(tally.max_excess, float(lower.max()))
            rescan, test = block_flags
            np.less_equal(lower, tolerance, out=rescan)
            np.less_equal(tolerance, upper, out=test)
            rescan &= test
            np.greater_equal(upper, threshold, out=test)
            rescan |= test
            # vector violations, less the rescanned ones, each once per
            # member of its window's orbit; the kernels that weigh them run
            # only when there are some
            np.greater(vector_excess, tolerance, out=test)
            if np.count_nonzero(test):
                test &= ~rescan
                tally.violations += int(w_size[np.flatnonzero(test) % n_windows].sum())
            flat = np.flatnonzero(rescan)
            js, rests = np.divmod(flat, p_block.size)
            divs: dict = {}
            for rest, j, low, high in sorted(zip(rests.tolist(), js.tolist(),
                                                 lower.ravel()[flat].tolist(),
                                                 upper.ravel()[flat].tolist())):
                row, w = divmod(rest, n_windows)
                if high < tally.max_excess and not low <= tolerance <= high:
                    # below a maximum found since the threshold was taken,
                    # and away from the tolerance: the band decides
                    tally.violations += w_size_list[w] * (low > tolerance)
                    continue
                row += r0
                qi, mi = w_q_list[w], w_m_list[w]
                tag, p_min, p_max = distinct[w_d_list[w]]
                alpha_key, alpha = orders[j]
                div = divs.get((row, qi, j))
                if div is None:
                    atoms = list(zip(p_vecs[row], q_vecs[qi]))
                    div = divs[row, qi, j] = (_kl_nats(atoms) if alpha is None
                                              else _renyi_nats(atoms, alpha))
                p_event = p_events[e_rows[row][mi]]
                image = None
                try:
                    if alpha is None:
                        rhs = _kl_rhs_nats(div, p_event, p_min, p_max)
                    else:
                        rhs = _renyi_rhs_nats(div, alpha, p_event, p_min, p_max)
                    excess = p_event - rhs
                    if excess > tolerance and rhs == 0.0 and alpha is not None:
                        image = _first_image(p_list[row], q_list[qi], masks[mi])
                        _refuse_rounded_zero(
                            div, alpha, p_event, p_min, p_max, tolerance,
                            "instance " + _instance_id(k, *image, tag, alpha_key))
                except FanoError as exc:
                    image = image or _first_image(p_list[row], q_list[qi], masks[mi])
                    key = image + (tag == "slack", j)
                    if refusal is None or key < refusal[0]:
                        refusal = key, exc
                    continue
                tally.violations += w_size_list[w] * (excess > tolerance)
                if not excess >= tally.max_excess:
                    continue
                image = image or _first_image(p_list[row], q_list[qi], masks[mi])
                key = (k,) + image + (tag == "slack", j)
                if excess > tally.max_excess or key < tally.worst_key:
                    p_parts, q_parts, mask = image
                    tally.max_excess = excess
                    tally.worst_key = key
                    tally.worst = {
                        "id": _instance_id(k, *image, tag, alpha_key),
                        "k": k,
                        "p": [a / d for a in p_parts],
                        "q": [a / d for a in q_parts],
                        "event": [i for i in range(k) if mask >> i & 1],
                        "p_min": p_min,
                        "p_max": p_max,
                        "alpha": alpha_key,
                        "p_event": p_event,
                        "bound_value": rhs,
                        "excess": excess,
                    }
    if refusal is not None:
        raise refusal[1]


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
