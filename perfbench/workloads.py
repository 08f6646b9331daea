"""Seeded op generators, independent references and output checks.

Every workload is a fixed list of op *shapes* per round; the seed fills in
the values (weights, channels, orders, boxes, radii) and the op order. Shapes
fix each op's cost, so throughput and latency quantiles depend on the code
under test and not on which seed a run drew. References are computed here,
with numpy brute force or integer arithmetic, never through fanokit.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

REFERENCE_TOLERANCE = 1e-9  # agreement required with the brute-force values
MC_SIGMAS = 5.0             # "a few" reported standard errors
MC_TRIALS = 20_000
VOLUME_SAMPLES = 256
VOLUME_RESOLUTION = 16


@dataclass
class Op:
    """One `fano` call: its argv and what a correct output must satisfy."""

    argv: list
    ref: dict = field(default_factory=dict)
    items: int = 1


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    items: int = 0
    rel_err: float | None = None


def _rng(seed: int, round_index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, salt])


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_TOLERANCE * max(1.0, abs(b))


# -- sweep ------------------------------------------------------------------

SWEEP_ORDERS = (0.25, 0.5, 2.0, 4.0)

# (outcome counts, weight denominator, number of orders). Small specs are
# dominated by CLI overhead, large ones by the scalar kernels in verify.
# Op counts per round are chosen so that, with ops sorted by cost, the
# median and the 90th percentile fall mid-way through one shape (or a group
# of equal-cost shapes) rather than on the edge between two shapes of
# different cost, where noise would make the quantile jump: 15 distinct
# shapes put them at positions 7.5 and 13.5.
SWEEP_SHAPES = (
    ((2,), 4, 1), ((2,), 8, 4), ((3,), 4, 2), ((2, 3), 4, 2), ((2, 3, 4), 4, 1),
    ((3,), 5, 4), ((3,), 6, 2), ((4,), 5, 1), ((3, 4), 5, 1), ((2, 3), 6, 4),
    ((4,), 6, 1), ((3, 4), 6, 1), ((2, 3, 4), 6, 1), ((4,), 6, 2),
    ((4,), 7, 2),
)
SWEEP_TINY = (((2,), 4, 1), ((3,), 4, 2))


def _compositions(total: int, parts: int, minimum: int):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


@functools.cache
def sweep_instance_count(counts, d: int, n_orders: int) -> int:
    """Instances the sweep must check, counted in integers: every P on the
    grid, every full-support Q, every proper event, one or two windows (the
    tight one only when 2 Q(E) < 1), and each order plus KL."""
    total = 0
    for k in counts:
        windows = 0
        for q in _compositions(d, k, 1):
            for mask in range(1, 2 ** k - 1):
                mass = sum(q[i] for i in range(k) if mask >> i & 1)
                windows += 2 if 2 * mass < d else 1
        total += math.comb(d + k - 1, k - 1) * windows * (n_orders + 1)
    return total


def make_sweep_round(seed: int, round_index: int, tiny: bool = False) -> list:
    rng = _rng(seed, round_index, 1)
    ops = []
    for counts, d, n_orders in (SWEEP_TINY if tiny else SWEEP_SHAPES):
        picks = sorted(rng.choice(len(SWEEP_ORDERS), n_orders, replace=False))
        orders = ",".join(repr(SWEEP_ORDERS[i]) for i in picks)
        argv = ["sweep", "--k", ",".join(map(str, counts)),
                "--denominator", str(d), "--alphas", orders, "--format", "json"]
        ops.append(Op(argv, {"shape": (counts, d, n_orders)}))
    return [ops[i] for i in rng.permutation(len(ops))]


def add_sweep_references(ops: list) -> None:
    for op in ops:
        op.ref["instances"] = sweep_instance_count(*op.ref["shape"])


def check_sweep(op: Op, rc: int, text: str) -> Verdict:
    if rc != 0:
        return Verdict(False, "exit code %d" % rc)
    out = json.loads(text)
    if out["violations"] != 0:
        return Verdict(False, "%d violations" % out["violations"])
    if out["instances"] != op.ref["instances"]:
        return Verdict(False, "instances %r, expected %r"
                       % (out["instances"], op.ref["instances"]))
    return Verdict(True, items=out["instances"])


# -- chains (certify-exact, certify-mc) ---------------------------------------

# Distance chains use a uniform prior on these labels with radius 1: balls of
# two and one symbols, so the occupancy window stays open (1/4 + 2/4 < 1) and
# every bound family runs, the distance ones included.
DISTANCE_LABELS = (0, 1, 3, 6)
DISTANCE_RADIUS = 1.0

# (symbols, n, estimator, relation). Time is dominated by the 4^6..4^8 block
# chains; the small ones cover every estimator kind. Sorted by cost, the
# median falls among the eight 4^6 chains and the 90th percentile among the
# three 4^7 ones.
EXACT_SHAPES = (
    (4, 8, "ml", "equality"),
    (4, 7, "ml", "equality"), (4, 7, "ml", "distance"), (4, 7, "ml", "equality"),
    (4, 6, "ml", "equality"), (4, 6, "ml", "distance"), (4, 6, "ml", "equality"),
    (4, 6, "ml", "distance"), (4, 6, "ml", "equality"), (4, 6, "ml", "distance"),
    (4, 6, "ml", "equality"), (4, 6, "ml", "distance"),
    (3, 1, "channel", "equality"), (4, 1, "channel", "distance"),
    (3, 2, "map", "equality"), (4, 3, "map", "distance"),
    (4, 4, "map", "equality"), (3, 4, "ml", "equality"),
    (3, 5, "ml", "equality"), (4, 5, "ml", "distance"),
)
EXACT_TINY = ((3, 1, "channel", "equality"), (4, 2, "map", "distance"),
              (4, 3, "ml", "equality"))

MC_SHAPES = tuple(
    (3 if n == 1 else 4, n, est, "distance" if n == 2 else "equality")
    for est in ("ml", "map", "channel") for n in (1, 2, 3, 1, 3))
MC_TINY = ((3, 1, "ml", "equality"), (4, 2, "map", "distance"),
           (3, 1, "channel", "equality"))


def _chain(rng: np.random.Generator, m: int, n: int, estimator: str,
           relation: str) -> dict:
    if relation == "distance":
        labels = list(DISTANCE_LABELS[:m])
        prior = [1.0 / m] * m
        rel = {"kind": "distance", "metric": "abs", "t": DISTANCE_RADIUS}
    else:
        labels = list(range(m))
        prior = rng.dirichlet(np.full(m, 2.0)).tolist()
        rel = {"kind": "equality"}
    outputs = list(range(m))
    rows = rng.dirichlet(np.full(m, 2.0), size=m).tolist()
    est = {"kind": "ml"}
    if estimator == "map":
        blocks = [list(b) for b in itertools.product(outputs, repeat=n)]
        picks = rng.integers(m, size=len(blocks))
        est = {"kind": "map", "pairs": [[b, labels[j]] for b, j in zip(blocks, picks)],
               "outputs": labels}
    elif estimator == "channel":
        inputs = outputs if n == 1 else [list(b) for b in
                                         itertools.product(outputs, repeat=n)]
        est = {"kind": "channel", "channel": {
            "inputs": inputs, "outputs": labels,
            "rows": rng.dirichlet(np.full(m, 2.0), size=len(inputs)).tolist()}}
    return {"prior": {"outcomes": labels, "weights": prior},
            "channel": {"inputs": labels, "outputs": outputs, "rows": rows},
            "estimator": est, "relation": rel, "n": n}


def chain_reference(exp: dict) -> dict:
    """p_rel, I(X;Y^n) and the occupancy window by brute force over every
    observation block, with numpy and without fanokit."""
    labels = exp["prior"]["outcomes"]
    prior = np.array(exp["prior"]["weights"])
    P = np.array(exp["channel"]["rows"])
    n = exp["n"]
    m = P.shape[1]
    lik = P                                         # (x, block), blocks row-major
    for _ in range(n - 1):
        lik = (lik[:, :, None] * P[:, None, :]).reshape(len(P), -1)
    joint = prior[:, None] * lik
    p_y = joint.sum(axis=0)
    pos = joint > 0
    ratio = np.where(pos, lik, 1.0) / np.where(pos, p_y[None, :], 1.0)
    mi = float(np.sum(np.where(pos, joint * np.log(ratio), 0.0)))

    est = exp["estimator"]
    if est["kind"] == "ml":
        xhat = list(labels)
        decide = np.eye(len(labels))[np.argmax(lik, axis=0)]
    elif est["kind"] == "map":
        xhat = list(est["outputs"])
        table = {tuple(b): v for b, v in est["pairs"]}
        decide = np.array([[1.0 if table[b] == v else 0.0 for v in xhat]
                           for b in itertools.product(range(m), repeat=n)])
    else:
        xhat = list(est["channel"]["outputs"])
        decide = np.array(est["channel"]["rows"])   # rows follow block order
    rel = exp["relation"]
    if rel["kind"] == "equality":
        accept = np.array([[1.0 if x == v else 0.0 for v in xhat] for x in labels])
    else:
        accept = np.array([[1.0 if abs(x - v) <= rel["t"] else 0.0 for v in xhat]
                           for x in labels])
    p_rel = float(np.sum(joint * (accept @ decide.T)))
    mass = prior @ accept                           # acceptance mass per candidate
    return {"p_rel": p_rel, "mi": mi, "p_min": float(mass.min()),
            "p_max": float(mass.max())}


def _make_chain_round(shapes, seed: int, round_index: int, salt: int,
                      trials: int | None) -> list:
    rng = _rng(seed, round_index, salt)
    ops = []
    for m, n, estimator, relation in shapes:
        exp = _chain(rng, m, n, estimator, relation)
        argv = ["certify", _dump(exp), "--format", "json"]
        items = m ** n
        if trials is not None:
            argv += ["--trials", str(trials), "--seed", str(int(rng.integers(2 ** 31)))]
            items = trials
        ops.append(Op(argv, {"experiment": exp}, items=items))
    return [ops[i] for i in rng.permutation(len(ops))]


def make_exact_round(seed: int, round_index: int, tiny: bool = False) -> list:
    return _make_chain_round(EXACT_TINY if tiny else EXACT_SHAPES,
                             seed, round_index, 2, None)


def make_mc_round(seed: int, round_index: int, tiny: bool = False) -> list:
    return _make_chain_round(MC_TINY if tiny else MC_SHAPES, seed, round_index, 3,
                             2_000 if tiny else MC_TRIALS)


def add_chain_references(ops: list) -> None:
    for op in ops:
        op.ref.update(chain_reference(op.ref["experiment"]))


def check_exact(op: Op, rc: int, text: str) -> Verdict:
    if rc != 0:
        return Verdict(False, "exit code %d" % rc)
    reports = json.loads(text)["reports"]
    for name, rep in reports.items():
        if rep["slack"] is not None and float(rep["slack"]) < -float(rep["solver_tolerance"]):
            return Verdict(False, "report %s does not hold" % name)
    ref = op.ref
    rep = reports.get("relation-mi-observation")
    if rep is None:
        return Verdict(False, "relation-mi-observation report missing")
    p = float(rep["observed"])
    if not _close(p, ref["p_rel"]):
        return Verdict(False, "p_rel %r, brute force %r" % (p, ref["p_rel"]))
    # bound_value = (I + h(p) + ln(1 - p_min)) / ln((1 - p_min) / p_max)
    p_min, p_max = ref["p_min"], ref["p_max"]
    mi = (float(rep["bound_value"]) * (math.log1p(-p_min) - math.log(p_max))
          - _binary_entropy(p) - math.log1p(-p_min))
    if not _close(mi, ref["mi"]):
        return Verdict(False, "I(X;Y^n) %r, brute force %r" % (mi, ref["mi"]))
    return Verdict(True, items=op.items)


_STDERR = re.compile(r"stderr ([0-9.eE+-]+)")


def check_mc(op: Op, rc: int, text: str) -> Verdict:
    if rc != 0:
        return Verdict(False, "exit code %d" % rc)
    reports = json.loads(text)["reports"]
    if not reports:
        return Verdict(False, "no reports")
    exact = op.ref["p_rel"]
    for name, rep in reports.items():
        found = _STDERR.search(rep["notes"])
        if found is None:
            return Verdict(False, "report %s reports no standard error" % name)
        stderr = float(found.group(1))
        p = float(rep["observed"])
        if abs(p - exact) > MC_SIGMAS * stderr + 1e-12:
            return Verdict(False, "p_rel %r is %.1f standard errors from exact %r"
                           % (p, abs(p - exact) / max(stderr, 1e-300), exact))
    return Verdict(True, items=op.items)


# -- volume -------------------------------------------------------------------

# (command, dimension, metric, volume method, variant). 2-D ops scan the
# ~4,100-center landmark set; 1-D ops scan 65 centers. Cost rises from 1-D to
# 2-D grid l2, grid l1, Monte Carlo l2 and Monte Carlo l1, so with 13 ops the
# median falls among the grid l2 ops and the 90th percentile among the Monte
# Carlo l1 ones.
VOLUME_SHAPES = (
    ("volume", 1, "abs", "monte-carlo", None), ("volume", 1, "l1", "grid", None),
    ("bound", 1, "abs", "monte-carlo", "entropy"), ("solve", 1, "l2", "grid", "log2"),
    ("volume", 2, "l2", "grid", None), ("bound", 2, "l2", "grid", "entropy"),
    ("solve", 2, "l2", "grid", "log2"),
    ("volume", 2, "l1", "grid", None),
    ("volume", 2, "l2", "monte-carlo", None), ("bound", 2, "l2", "monte-carlo", "log2"),
    ("solve", 2, "l2", "monte-carlo", "entropy"),
    ("volume", 2, "l1", "monte-carlo", None), ("solve", 2, "l1", "monte-carlo", "entropy"),
)
VOLUME_TINY = (("volume", 1, "abs", "monte-carlo", None),
               ("bound", 1, "l2", "grid", "entropy"),
               ("solve", 1, "abs", "monte-carlo", "log2"))


def _ball_volume(dim: int, metric: str, t: float) -> float:
    if dim == 1:
        return 2.0 * t
    return math.pi * t * t if metric == "l2" else 2.0 * t * t


def _continuous_bound(mi: float, offset: float, box_vol: float, ball: float) -> float:
    return 1.0 - (mi + offset) / (math.log(box_vol) - math.log(ball))


def make_volume_round(seed: int, round_index: int, tiny: bool = False) -> list:
    rng = _rng(seed, round_index, 4)
    samples = 64 if tiny else VOLUME_SAMPLES
    resolution = 8 if tiny else VOLUME_RESOLUTION
    ops = []
    for command, dim, metric, method, variant in (VOLUME_TINY if tiny else VOLUME_SHAPES):
        lows = rng.uniform(-1.0, 1.0, dim)
        widths = rng.uniform(1.0, 2.0, dim) if dim == 2 else rng.uniform(1.0, 3.0, 1)
        box_vol = float(np.prod(widths))
        # ball volume / box volume; with widths in [1, 2] (2-D) a share of at
        # most 0.12 keeps t below half the shorter side, so the ball fits and
        # its exact volume is known
        share = float(rng.uniform(0.03, 0.12))
        if dim == 1:
            t = share * box_vol / 2.0
        elif metric == "l2":
            t = math.sqrt(share * box_vol / math.pi)
        else:
            t = math.sqrt(share * box_vol / 2.0)
        domain = {"box": [[float(a), float(a + w)] for a, w in zip(lows, widths)],
                  "metric": metric, "t": t}
        ref = {"box_volume": box_vol, "exact": _ball_volume(dim, metric, t),
               "command": command, "variant": variant}
        if command == "volume":
            argv = ["volume", _dump(domain), "--method", method, "--samples",
                    str(samples), "--resolution", str(resolution),
                    "--seed", str(int(rng.integers(2 ** 31))), "--format", "json"]
        else:
            mi = float(rng.uniform(0.2, 0.6))
            obj = {"kind": "continuous", "mi": mi, "domain": domain,
                   "variant": variant, "method": method, "samples": samples,
                   "resolution": resolution}
            ref["mi"] = mi
            if command == "bound":
                # an observed p_t that holds even if the estimate read half the
                # exact volume (estimates are biased upward, which lowers the
                # bound); offset 0 bounds the entropy variant's h(p_t) from below
                offset = math.log(2.0) if variant == "log2" else 0.0
                p_t = _continuous_bound(mi, offset, box_vol, ref["exact"] / 2.0) + 0.01
                obj["p_t"] = ref["p_t"] = min(max(0.97, p_t), 1.0)
            argv = [command, _dump(obj), "--seed", str(int(rng.integers(2 ** 31))),
                    "--format", "json"]
        ops.append(Op(argv, ref))
    return [ops[i] for i in rng.permutation(len(ops))]


def _implied_ball(ref: dict, rep: dict) -> float | None:
    """Ball volume that the reported bound implies, by inverting
    bound = 1 - (mi + offset) / ln(V / ball); None where the solve clamped."""
    q = float(rep["bound_value"])
    if ref["command"] == "bound":
        offset = (math.log(2.0) if ref["variant"] == "log2"
                  else _binary_entropy(ref["p_t"]))
    else:
        if not 0.0 < q < 1.0:
            return None
        offset = math.log(2.0) if ref["variant"] == "log2" else _binary_entropy(q)
    return ref["box_volume"] * math.exp(-(ref["mi"] + offset) / (1.0 - q))


def check_volume(op: Op, rc: int, text: str) -> Verdict:
    if rc != 0:
        return Verdict(False, "exit code %d" % rc)
    ref = op.ref
    out = json.loads(text)
    if ref["command"] == "volume":
        value = float(out["value"])
    else:
        rep = out["reports"]["report"]
        if not math.isfinite(float(rep["bound_value"])):
            return Verdict(False, "bound value %r" % rep["bound_value"])
        value = _implied_ball(ref, rep)
        if value is None:
            return Verdict(True, items=1)
    if not (math.isfinite(value) and 0.0 < value <= ref["box_volume"] * (1.0 + 1e-12)):
        return Verdict(False, "ball volume %r outside (0, %r]" % (value, ref["box_volume"]))
    return Verdict(True, items=1, rel_err=abs(value - ref["exact"]) / ref["exact"])


def _no_references(ops: list) -> None:
    """Volume ops carry their exact answer from generation."""


@dataclass(frozen=True)
class Workload:
    make_round: object
    add_references: object
    check: object
    item: str


WORKLOADS = {
    "sweep": Workload(make_sweep_round, add_sweep_references, check_sweep,
                      "grid instances"),
    "certify-exact": Workload(make_exact_round, add_chain_references, check_exact,
                              "observation blocks"),
    "certify-mc": Workload(make_mc_round, add_chain_references, check_mc, "trials"),
    "volume": Workload(make_volume_round, _no_references, check_volume, "domains"),
}
