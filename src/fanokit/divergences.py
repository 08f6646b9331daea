"""Order-alpha and Kullback-Leibler divergences, entropies, mutual information.

All kernels work in nats and convert once at the boundary (``value / ln base``).
Conventions for zero mass follow the usual extended-real rules: 0 * log(0) = 0,
strictly positive mass escaping the support of the second argument gives +inf
for orders >= 1, and for orders in (0, 1) such atoms simply drop out of the
power sum. Identical inputs short-circuit to an exact 0.0.

Sums are math.fsum's (over arrays, _column_fsums gives the same bits without
a Python loop); the order-alpha power sum is evaluated in log space with a max
shift so extreme weight ratios cannot overflow.
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
# below this many columns holding fewer than this many entries in all,
# per-column fsum costs less than _column_fsums' fixed set-up of about ten
# numpy calls per level of its tree (Monte Carlo chains sit below both)
FSUM_LOOP_COLUMNS = 128
FSUM_LOOP_ENTRIES = 2048


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
    # exp(hi - hi) is exactly 1.0, and + rounds a sum of two doubles as fsum does
    lo, hi = sorted((alpha * math.log(p), alpha * math.log(1.0 - p)))
    log_sum = hi + math.log(1.0 + math.exp(lo - hi))
    return max(0.0, log_sum / (1.0 - alpha))


def binary_renyi_entropy(p: float, alpha: float, base: float = math.e) -> float:
    """Order-alpha entropy of Bernoulli(p); 0 at p in {0, 1}."""
    p = _check_prob(p, "p")
    alpha = _check_alpha(alpha)
    _ln_base(base)
    return _scale(_binary_renyi_entropy_nats(p, alpha), base)


def binary_entropy(p: float, base: float = math.e) -> float:
    """Shannon entropy of Bernoulli(p): the order-1 entropy."""
    return binary_renyi_entropy(p, 1.0, base)


def entropy(dist: FiniteDistribution, base: float = math.e) -> float:
    """Shannon entropy of a finite distribution."""
    _ln_base(base)
    return _scale(max(0.0, _entropy_nats(dist.weights.tolist())), base)


def _entropy_nats(weights: list) -> float:
    """-sum w ln w over the positive weights, by fsum (not clamped at 0)."""
    return -math.fsum(w * math.log(w) for w in weights if w > 0)


def _two_sum(a, b):
    """s = fl(a + b) and the exact rounding error e, so that a + b = s + e."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _column_fsums(W: np.ndarray) -> np.ndarray:
    """math.fsum of every column of W, bit for bit, with no loop over
    entries or columns once W holds FSUM_LOOP_COLUMNS columns or
    FSUM_LOOP_ENTRIES entries: one home for many short sums and for a few
    long ones (a long sum is a one-column W).

    A tree of TwoSums halves the rows level by level (zero rows pad them to
    a power of two, size): each column's exact sum is s + E, where E is the
    sum of the column's size - 1 rounding errors e, each exact. Added up in
    floats, in any order, E comes out as Ehat with |E - Ehat| <= 2 size u A, for
    A the float sum of |e| and u = 2^-53 (Higham's gamma bound; A is at
    least 1 - gamma times the exact sum of |e|). The computed 4 size u A is
    exact but in the subnormals, where it may fall short by half the
    smallest subnormal; |E - Ehat| is a multiple of that subnormal, so the
    bound still holds. TwoSum(s, Ehat) = (total, d) puts the exact sum at
    total + d + (E - Ehat). Where |d| plus the bound stays below half the
    spacing from total to its neighbour toward 0 (the smaller spacing),
    total is the nearest double, which is what fsum returns. Other columns,
    and every total of 0 (spacing 0), go to math.fsum. Partial sums must be
    finite.
    """
    rows, cols = W.shape
    if cols < FSUM_LOOP_COLUMNS and W.size < FSUM_LOOP_ENTRIES:
        return np.array([math.fsum(col) for col in W.T.tolist()])
    size = 1 << max(rows - 1, 0).bit_length()
    order = "F" if rows > cols else "C"     # a long sum's entries sit together
    s = W
    if size != rows:
        s = np.zeros((size, cols), order=order)
        s[:rows] = W
    e = np.empty((size - 1, cols), order=order)
    done = 0
    while len(s) > 1:
        half = len(s) // 2
        s, e[done:done + half] = _two_sum(s[:half], s[half:])
        done += half
    total, d = _two_sum(s[0], e.sum(axis=0))
    bound = np.abs(e, out=e).sum(axis=0)
    bound *= 4.0 * size * 2.0 ** -53
    bound += np.abs(d)
    unsure = np.flatnonzero(bound >= np.abs(np.nextafter(total, 0.0) - total) / 2)
    if unsure.size:
        total[unsure] = [math.fsum(col) for col in W[:, unsure].T.tolist()]
    return total


def _fsum(x: np.ndarray) -> float:
    """math.fsum over all entries of x, bit for bit (see _column_fsums)."""
    return float(_column_fsums(x.reshape(-1, 1))[0])


def _mi_nats_from_matrix(W: np.ndarray) -> float:
    """Mutual information of a joint weight matrix, in nats.

    Rows/columns may carry zero mass; only strictly positive cells contribute.
    """
    r = _column_fsums(W.T)
    c = _column_fsums(W)
    rows, cols = np.nonzero(W > 0)
    if rows.size == 0:
        return 0.0
    w = W[rows, cols]
    with np.errstate(divide="ignore"):
        terms = w * (np.log(w) - np.log(r)[rows] - np.log(c)[cols])
    return max(0.0, _fsum(terms))


def mutual_information(joint: JointDistribution, base: float = math.e) -> float:
    """I between the row and column variables of a joint distribution."""
    _ln_base(base)
    return _scale(_mi_nats_from_matrix(np.asarray(joint.weights)), base)


def conditional_entropy(joint: JointDistribution, base: float = math.e) -> float:
    """H(row | column) = H(joint) - H(column marginal)."""
    _ln_base(base)
    W = np.asarray(joint.weights)
    h_col = _entropy_nats(_column_fsums(W).tolist())
    return _scale(max(0.0, _entropy_nats(W.ravel().tolist()) - h_col), base)
