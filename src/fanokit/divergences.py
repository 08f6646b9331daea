"""Order-alpha and Kullback-Leibler divergences, entropies, mutual information.

All kernels work in nats and convert once at the boundary (``value / ln base``).
Conventions for zero mass follow the usual extended-real rules: 0 * log(0) = 0,
strictly positive mass escaping the support of the second argument gives +inf
for orders >= 1, and for orders in (0, 1) such atoms simply drop out of the
power sum. Identical inputs short-circuit to an exact 0.0.

Sum accumulation uses math.fsum; the order-alpha power sum is evaluated in log
space with a max shift so extreme weight ratios cannot overflow.
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import FiniteDistribution, JointDistribution
from .errors import (
    MismatchedOutcomeSets,
    NegativeAlpha,
    OutOfRangeProbability,
)

# orders within this band of 1 are routed to the KL limit form
KL_ALPHA_BAND = 1e-9
# below this many columns, per-column fsum costs less than _column_fsums'
# fixed set-up of some 60 numpy calls (Monte Carlo chains sit below it)
FSUM_LOOP_COLUMNS = 128


def _ln_base(base: float) -> float:
    b = float(base)
    if not (b > 1.0) or math.isinf(b):
        raise OutOfRangeProbability("base: logarithm base must be a finite number > 1")
    return math.log(b)


def _scale(nats: float, base: float) -> float:
    if base == math.e:
        return nats
    return nats / _ln_base(base)


def _check_alpha(alpha: float) -> float:
    try:
        a = float(alpha)
    except (TypeError, ValueError):
        a = math.nan
    if math.isnan(a) or a < 0:
        raise NegativeAlpha(f"alpha: order must be a number >= 0, got {alpha!r}")
    return a


def _check_prob(p: float, name: str) -> float:
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise OutOfRangeProbability(f"{name}: probability must lie in [0, 1], got {p!r}")
    return p


def _same_outcomes(P: FiniteDistribution, Q: FiniteDistribution) -> None:
    if P.outcomes != Q.outcomes:
        raise MismatchedOutcomeSets(
            "P and Q must share the same ordered outcome set"
        )


def _log_power_sum(pairs, alpha: float) -> float:
    """ln sum p^alpha q^(1-alpha) over atoms with p > 0, in log space.

    pairs: iterable of (p, q) with p > 0 and q > 0. Returns -inf for an
    empty iterable.
    """
    terms = [alpha * math.log(p) + (1.0 - alpha) * math.log(q) for p, q in pairs]
    if not terms:
        return -math.inf
    m = max(terms)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def _renyi_nats(atoms, alpha: float) -> float:
    """Shared scalar kernel; atoms is a sequence of (p_i, q_i)."""
    if alpha == 1.0 or abs(alpha - 1.0) < KL_ALPHA_BAND:
        return _kl_nats(atoms)
    if alpha == 0.0:
        q_mass = math.fsum(q for p, q in atoms if p > 0)
        if q_mass <= 0.0:
            return math.inf
        return max(0.0, -math.log(min(q_mass, 1.0)))
    if math.isinf(alpha):
        worst = 0.0
        for p, q in atoms:
            if p > 0:
                if q <= 0.0:
                    return math.inf
                worst = max(worst, p / q)
        return max(0.0, math.log(worst))
    if alpha > 1.0 and any(p > 0 and q <= 0.0 for p, q in atoms):
        return math.inf
    active = [(p, q) for p, q in atoms if p > 0 and q > 0]
    log_sum = _log_power_sum(active, alpha)
    value = log_sum / (alpha - 1.0)
    return max(0.0, value)


def _kl_nats(atoms) -> float:
    terms = []
    for p, q in atoms:
        if p > 0:
            if q <= 0.0:
                return math.inf
            terms.append(p * (math.log(p) - math.log(q)))
    return max(0.0, math.fsum(terms))


def renyi_divergence(P: FiniteDistribution, Q: FiniteDistribution,
                     alpha: float, base: float = math.e) -> float:
    """Order-alpha divergence of P from Q on a shared outcome set.

    Orders 0, 1 (KL limit) and inf are handled explicitly; orders within
    1e-9 of 1 use the KL form.
    """
    _same_outcomes(P, Q)
    alpha = _check_alpha(alpha)
    _ln_base(base)
    if np.array_equal(P.weights, Q.weights):
        return 0.0
    atoms = list(zip(P.weights.tolist(), Q.weights.tolist()))
    return _scale(_renyi_nats(atoms, alpha), base)


def kl_divergence(P: FiniteDistribution, Q: FiniteDistribution,
                  base: float = math.e) -> float:
    """KL divergence of P from Q: the order-1 divergence."""
    return renyi_divergence(P, Q, 1.0, base)


def binary_renyi_divergence(p: float, q: float, alpha: float,
                            base: float = math.e) -> float:
    """Order-alpha divergence between Bernoulli(p) and Bernoulli(q)."""
    p = _check_prob(p, "p")
    q = _check_prob(q, "q")
    alpha = _check_alpha(alpha)
    _ln_base(base)
    if p == q:
        return 0.0
    atoms = ((p, q), (1.0 - p, 1.0 - q))
    return _scale(_renyi_nats(atoms, alpha), base)


def binary_kl(p: float, q: float, base: float = math.e) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q): order 1."""
    return binary_renyi_divergence(p, q, 1.0, base)


def _binary_entropy_nats(p: float) -> float:
    """Shannon entropy of Bernoulli(p) in nats; p must already lie in [0, 1]."""
    if p == 0.0 or p == 1.0:
        return 0.0
    return max(0.0, -p * math.log(p) - (1.0 - p) * math.log(1.0 - p))


def _binary_renyi_entropy_nats(p: float, alpha: float) -> float:
    """Order-alpha entropy of Bernoulli(p) in nats; p and alpha already checked."""
    if p == 0.0 or p == 1.0:
        return 0.0
    if alpha == 1.0 or abs(alpha - 1.0) < KL_ALPHA_BAND:
        return _binary_entropy_nats(p)
    if alpha == 0.0:
        return math.log(2.0)
    if math.isinf(alpha):
        return -math.log(max(p, 1.0 - p))
    terms = (alpha * math.log(p), alpha * math.log(1.0 - p))
    m = max(terms)
    log_sum = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    return max(0.0, log_sum / (1.0 - alpha))


def binary_renyi_entropy(p: float, alpha: float, base: float = math.e) -> float:
    """Order-alpha entropy of Bernoulli(p); 0 at p in {0, 1}."""
    p = _check_prob(p, "p")
    alpha = _check_alpha(alpha)
    _ln_base(base)
    return _scale(_binary_renyi_entropy_nats(p, alpha), base)


def binary_entropy(p: float, base: float = math.e) -> float:
    p = _check_prob(p, "p")
    _ln_base(base)
    return _scale(_binary_entropy_nats(p), base)


def entropy(dist: FiniteDistribution, base: float = math.e) -> float:
    """Shannon entropy of a finite distribution."""
    _ln_base(base)
    nats = -math.fsum(w * math.log(w) for w in dist.weights.tolist() if w > 0)
    return _scale(max(0.0, nats), base)


def _two_sum(a, b):
    """s = fl(a + b) and the exact rounding error e, so that a + b = s + e."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _column_fsums(W: np.ndarray) -> np.ndarray:
    """math.fsum of every column of W, bit for bit; from FSUM_LOOP_COLUMNS
    columns on, with no loop over columns.

    Two TwoSum cascades down the rows leave each column's exact sum as
    total + d + c, where |c| <= 2 lost (the 2 covers the rounding in lost
    itself) and c = 0 where lost = 0. There fl(total + d) = total is the
    correctly rounded sum that fsum returns. Elsewhere total still is,
    unless d + c may reach half a spacing from it; such columns go to
    math.fsum. Partial sums must be finite.
    """
    if W.shape[1] < FSUM_LOOP_COLUMNS:
        return np.array([math.fsum(col) for col in W.T.tolist()])
    s, err, lost = W[0], np.zeros(W.shape[1]), np.zeros(W.shape[1])
    for row in W[1:]:
        s, e1 = _two_sum(s, row)
        err, e2 = _two_sum(err, e1)
        lost += np.abs(e2)
    total, d = _two_sum(s, err)
    j = np.flatnonzero(lost)
    t, lo, hi = total[j], d[j] - 2.0 * lost[j], d[j] + 2.0 * lost[j]
    unsure = ((lo <= (np.nextafter(t, -np.inf) - t) / 2)
              | (hi >= (np.nextafter(t, np.inf) - t) / 2))
    for k in j[unsure].tolist():
        total[k] = math.fsum(W[:, k].tolist())
    return total


def _mi_nats_from_matrix(W: np.ndarray) -> float:
    """Mutual information of a joint weight matrix, in nats.

    Rows/columns may carry zero mass; only strictly positive cells contribute.
    """
    r = np.array([math.fsum(row.tolist()) for row in W])
    c = _column_fsums(W)
    rows, cols = np.nonzero(W > 0)
    if rows.size == 0:
        return 0.0
    w = W[rows, cols]
    with np.errstate(divide="ignore"):
        terms = w * (np.log(w) - np.log(r)[rows] - np.log(c)[cols])
    return max(0.0, math.fsum(terms.tolist()))


def mutual_information(joint: JointDistribution, base: float = math.e) -> float:
    """I between the row and column variables of a joint distribution."""
    _ln_base(base)
    return _scale(_mi_nats_from_matrix(np.asarray(joint.weights)), base)


def conditional_entropy(joint: JointDistribution, base: float = math.e) -> float:
    """H(row | column) = H(joint) - H(column marginal)."""
    _ln_base(base)
    W = np.asarray(joint.weights)
    h_joint = -math.fsum(w * math.log(w) for w in W.ravel().tolist() if w > 0)
    c = _column_fsums(W).tolist()
    h_col = -math.fsum(w * math.log(w) for w in c if w > 0)
    return _scale(max(0.0, h_joint - h_col), base)
