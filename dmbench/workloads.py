"""Seeded operation lists for the four benchmark workloads.

Everything here is plain numpy: the runner builds the inputs and the expected
properties without importing dmajor, and the worker receives only the
``args`` of each operation.  The same seed gives byte-identical lists.

Each workload is made of *passes*: stratified lists whose composition (kind,
dimension, scale, count) never depends on the seed; the seed and the pass
index only draw the numbers, so every pass holds distinct items with the same
mix of costs.  A run's list is a fixed number of passes, executed in whole
rounds, so two runs with the same seed execute exactly the same operations in
the same order.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

WORKLOADS = ("certify", "polytope", "steer", "cli_cold")

# A run's list is the first LIST[workload].passes passes of the seed, and the
# run executes that whole list ``rounds`` times, so every op is timed several
# times on identical input.  ``round_s`` is the nominal seconds of one round
# on the reference box (2-core x86 VM, Python 3.11, numpy 2.4, scipy 1.17);
# ``rounds_for`` turns --seconds into a whole number of rounds, so the list
# and the round count never depend on measured speed.  A traced run
# alternates an untraced and a traced round ``trace_rounds`` times.
class ListShape(NamedTuple):
    passes: int
    round_s: float
    min_rounds: int
    trace_rounds: int


LIST = {"certify": ListShape(5, 3.3, 5, 2), "polytope": ListShape(3, 5.4, 4, 2),
        "steer": ListShape(3, 2.0, 5, 2), "cli_cold": ListShape(1, 6.0, 3, 1)}

CERTIFY_SCALES = (1e-6, 1.0, 1e6)
CERTIFY_DIMS = range(3, 9)
# vector items per (n, scale) stratum; "perturbed" items have no expected
# verdict, only the four-route agreement and the certificate are checked
CERTIFY_MIX = (("positive", 3), ("negative", 1), ("corner", 1), ("edge", 1),
               ("perturbed", 2))
MATRIX_DIMS = (2, 3, 4)
MATRIX_ITEMS = 2                                 # per kind and n
CNR_COUNT = 256

# (n, problems per pass): in each pass of 61 ops, n = 4 holds the median
# (rank 30; ranks 0-35) and n = 5 the tail (rank 50; ranks 36-59) and half
# the time, n = 6 the other half
POLYTOPE_MIX = ((4, 36), (5, 24), (6, 1))
# enumeration cost grows with the square of the number k of distinct corners,
# so problems are drawn with k in a narrow band, as n and the scale are fixed
KEPT_MIN = 0.95

STEER_EPS = 1e-6
ENVELOPE_SAMPLES = 20
ENVELOPE_DEPTH = 4
SIMULATE_DT = 0.02


def rounds_for(workload: str, seconds: float) -> int:
    shape = LIST[workload]
    return max(shape.min_rounds, round(seconds / shape.round_s))


def run_list(workload: str, seed: int) -> list[dict]:
    """The ops of a run, in order, with ids 0..len-1."""
    return [op for ops in build(workload, seed, LIST[workload].passes) for op in ops]


def _op(kind: str, n: int, scale, args: dict, expect: dict | None = None) -> dict:
    return {"kind": kind, "n": n, "scale": scale, "args": args, "expect": expect or {}}


def stratum(op: dict) -> str:
    """Failure-report key: kind x n x scale."""
    tag = op["expect"].get("item", op["kind"])
    return f"{tag}/n{op['n']}/s{op['scale']:g}"


# ---------------------------------------------------------------------------
# closed forms shared with the checks
# ---------------------------------------------------------------------------

def thermo_curve(y: np.ndarray, d: np.ndarray):
    """Elbows (c, f) of the thermomajorization curve of (y, d)."""
    order = np.argsort(-(y / d), kind="stable")
    c = np.concatenate(([0.0], np.cumsum(d[order])))
    f = np.concatenate(([0.0], np.cumsum(y[order])))
    return c, f


def all_perms(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def corners(y: np.ndarray, d: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Polytope corner of every permutation row: the coordinate at perm[j] is
    the curve at the d-weight of the first j+1 images minus that of the first j."""
    c, f = thermo_curve(y, d)
    prefix = np.cumsum(d[perms], axis=1)
    vals = np.interp(prefix, c, f)
    vals[:, -1] = y.sum()
    steps = np.diff(np.concatenate((np.zeros((len(perms), 1)), vals), axis=1), axis=1)
    out = np.empty_like(steps)
    np.put_along_axis(out, perms, steps, axis=1)
    return out


def distinct_rows(points: np.ndarray, tol: float) -> np.ndarray:
    """Rows deduplicated within tol (1-norm), in order of first appearance."""
    close = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2) <= tol
    kept = np.zeros(len(points), dtype=bool)
    for i in range(len(points)):
        kept[i] = not np.any(close[i, :i] & kept[:i])
    return points[kept]


def norm_criterion_gap(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> float:
    """max_t ||x - t d||_1 - ||y - t d||_1 over t in y/d; <= 0 iff x <=_d y
    (for equal totals)."""
    t = (y / d)[:, None]
    return float(np.max(np.abs(x[None, :] - t * d).sum(1) - np.abs(y[None, :] - t * d).sum(1)))


def zero_temp_b0(n: int) -> np.ndarray:
    j = np.arange(1, n)
    a2 = j * (n - j)
    b0 = np.zeros((n, n))
    b0[j, j] += a2
    b0[j - 1, j] -= a2
    return b0


def thermal_b0(d: np.ndarray) -> np.ndarray:
    n = d.size
    j = np.arange(1, n)
    w = j * (n - j)
    a2 = w * d[:-1] / (d[:-1] + d[1:])
    b2 = w * d[1:] / (d[:-1] + d[1:])
    b0 = np.zeros((n, n))
    b0[j, j] += a2
    b0[j - 1, j] -= a2
    b0[j - 1, j - 1] += b2
    b0[j, j - 1] -= b2
    return b0


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def _d_stochastic(d: np.ndarray, rng: np.random.Generator, mixing: float) -> np.ndarray:
    """Random d-stochastic matrix: a convex mixture of the identity, the
    projection d e^T / e^T d (weight at least ``mixing``) and pairwise moves
    that send e_l to (d_k/d_l) e_k + (1 - d_k/d_l) e_l and e_k to e_l."""
    n = d.size
    parts = [np.eye(n)]
    for _ in range(2 * n):
        i, j = rng.choice(n, size=2, replace=False)
        k, l = (i, j) if d[i] <= d[j] else (j, i)
        a = np.eye(n)
        a[k, l] = d[k] / d[l]
        a[l, l] = 1.0 - d[k] / d[l]
        a[l, k] = 1.0
        a[k, k] = 0.0
        parts.append(a)
    w = rng.dirichlet(np.ones(len(parts))) * (1.0 - mixing)
    return mixing * np.outer(d, np.ones(n)) / d.sum() + sum(wi * p for wi, p in zip(w, parts))


def _weights(n: int, rng: np.random.Generator) -> np.ndarray:
    d = rng.uniform(0.2, 1.0, n)
    return d / d.sum()


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def _random_channel_image(b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Image of b under a random channel (Kraus operators from an isometry),
    so tr(a) = tr(b) and ||a||_1 <= ||b||_1 hold by construction."""
    n = b.shape[0]
    r = n
    z = rng.standard_normal((n * r, n)) + 1j * rng.standard_normal((n * r, n))
    v, _ = np.linalg.qr(z)
    kraus = [v[i * n:(i + 1) * n, :] for i in range(r)]
    return sum(k @ b @ k.conj().T for k in kraus)


def _certify_item(item: str, n: int, scale: float, rng: np.random.Generator) -> dict:
    d = _weights(n, rng)
    y = rng.dirichlet(np.ones(n)) * scale
    expect: dict = {"item": item, "verdict": None}
    if item == "positive":
        x = _d_stochastic(d, rng, mixing=0.1) @ y
        expect["verdict"] = True
    elif item == "negative":
        # a purer x than the mixed y = A x; keep only clear violations
        while True:
            x = rng.dirichlet(np.full(n, 0.5)) * scale
            y = _d_stochastic(d, rng, mixing=0.4) @ x
            if norm_criterion_gap(x, y, d) > 1e-3 * scale:
                break
        expect["verdict"] = False
    else:
        perm = rng.permutation(n)
        x = corners(y, d, perm[None, :])[0]
        if item == "edge":
            k = int(rng.integers(0, n - 1))
            other = perm.copy()
            other[k], other[k + 1] = other[k + 1], other[k]
            x = 0.5 * (x + corners(y, d, other[None, :])[0])
        if item == "perturbed":
            i, j = rng.choice(n, size=2, replace=False)
            x = x.copy()
            step = 1e-12 * scale * (1.0 if rng.random() < 0.5 else -1.0)
            x[i] += step
            x[j] -= step
        else:
            expect["verdict"] = True
    return _op("certify", n, scale, {"x": x, "y": y, "d": d}, expect)


def certify_pass(rng: np.random.Generator) -> list[dict]:
    ops = []
    for n in CERTIFY_DIMS:
        for scale in CERTIFY_SCALES:
            for item, count in CERTIFY_MIX:
                ops.extend(_certify_item(item, n, scale, rng) for _ in range(count))
    for n in MATRIX_DIMS:
        for _ in range(MATRIX_ITEMS):
            b = _hermitian(n, rng)
            a = _random_channel_image(b, rng)
            ops.append(_op("channel", n, 1.0, {"a": a, "b": b}))
        for _ in range(MATRIX_ITEMS):
            ops.append(_op("cnr", n, 1.0, {"c": _hermitian(n, rng), "t": _hermitian(n, rng),
                                           "count": CNR_COUNT,
                                           "seed": int(rng.integers(0, 2 ** 31))}))
    return ops


def _vertex_set(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    pts = corners(y, d, all_perms(y.size))
    return distinct_rows(pts, 1e-9 * max(1.0, float(np.abs(y).sum())))


def polytope_pass(rng: np.random.Generator) -> list[dict]:
    ops = []
    for n, count in POLYTOPE_MIX:
        for _ in range(count):
            while True:
                d = _weights(n, rng)
                y = rng.dirichlet(np.ones(n))
                if len(_vertex_set(y, d)) >= KEPT_MIN * math.factorial(n):
                    break
            # reference hull of a nearby problem, enumerated here in closed form
            y_ref = 0.9 * y + 0.1 * rng.dirichlet(np.ones(n))
            ops.append(_op("polytope", n, 1.0, {"y": y, "d": d, "ref": _vertex_set(y_ref, d)}))
    return ops


def _schedule(n: int, segments: int, rng: np.random.Generator) -> list:
    return [(tuple(int(i) for i in rng.permutation(n)), float(rng.uniform(0.2, 1.5)))
            for _ in range(segments)]


def steer_pass(rng: np.random.Generator) -> list[dict]:
    ops = []
    for n in range(3, 7):
        for _ in range(4):
            ops.append(_op("synthesize", n, 1.0, {
                "n": n, "x0": rng.dirichlet(np.ones(n)), "x": rng.dirichlet(np.ones(n)),
                "eps": STEER_EPS}))
    for n, m in ((2, 2), (2, 3), (3, 2)):
        for _ in range(2):
            total = n ** m
            ops.append(_op("synthesize_local", total, 1.0, {
                "n": n, "m": m, "x0": rng.dirichlet(np.ones(total)),
                "x": rng.dirichlet(np.ones(total)), "eps": STEER_EPS}))
    for n in (3, 4):
        for _ in range(3):
            alpha = float(rng.uniform(0.2, 0.8))
            d = alpha ** np.arange(n)
            ops.append(_op("envelope", n, 1.0, {
                "x0": rng.dirichlet(np.ones(n)), "d": d / d.sum(),
                "samples": ENVELOPE_SAMPLES, "depth": ENVELOPE_DEPTH,
                "seed": int(rng.integers(0, 2 ** 31))}))
    for n in (3, 4, 5):
        for _ in range(4):
            ops.append(_op("simulate", n, 1.0, {
                "d": _weights(n, rng), "x0": rng.dirichlet(np.ones(n)),
                "schedule": _schedule(n, 3, rng), "dt": SIMULATE_DT}))
    return ops


def cli_pass(rng: np.random.Generator) -> list[dict]:
    """One invocation of each of the nine subcommands.  ``args`` holds the
    JSON files to write and the argv, with ``{name}`` placeholders that the
    runner resolves to file paths."""
    def vec(v):
        return [float(t) for t in v]

    def cmat(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    ops = []
    n = 5
    d = _weights(n, rng)
    y = rng.dirichlet(np.ones(n))
    x = _d_stochastic(d, rng, mixing=0.1) @ y
    ops.append(_op("cli_check", n, 1.0, {
        "files": {"x": vec(x), "y": vec(y), "d": vec(d)},
        "argv": ["check", "{x}", "{y}", "--d", "{d}", "--certificate"]}))
    n = 4
    d4 = _weights(n, rng)
    y4 = rng.dirichlet(np.ones(n))
    ops.append(_op("cli_polytope", n, 1.0, {
        "files": {"y": vec(y4), "d": vec(d4)}, "argv": ["polytope", "{y}", "--d", "{d}"]}))
    ops.append(_op("cli_curve", n, 1.0, {
        "files": {"y": vec(y4), "d": vec(d4)}, "argv": ["curve", "{y}", "--d", "{d}"]}))
    ops.append(_op("cli_bath", n, 1.0, {
        "files": {"d": vec(d4)}, "argv": ["bath", "--thermal", "{d}"]}))
    sched = _schedule(n, 3, rng)
    ops.append(_op("cli_simulate", n, 1.0, {
        "files": {"x0": vec(rng.dirichlet(np.ones(n))), "d": vec(d4),
                  "schedule": {"segments": [{"perm": list(p), "duration": t}
                                            for p, t in sched]}},
        "argv": ["simulate", "--x0", "{x0}", "--schedule", "{schedule}",
                 "--dt", repr(SIMULATE_DT), "--thermal", "{d}"]}))
    ops.append(_op("cli_synthesize", n, 1.0, {
        "files": {"x0": vec(rng.dirichlet(np.ones(n))), "x": vec(rng.dirichlet(np.ones(n)))},
        "argv": ["synthesize", "--target", "{x}", "--x0", "{x0}", "--eps", repr(STEER_EPS),
                 "--zero-temp", str(n)]}))
    alpha = float(rng.uniform(0.2, 0.8))
    ops.append(_op("cli_bound", 3, 1.0, {
        "files": {"x0": vec(rng.dirichlet(np.ones(3)))},
        "argv": ["bound", "--x0", "{x0}", "--alpha", repr(alpha),
                 "--samples", str(ENVELOPE_SAMPLES)]}, {"alpha": alpha}))
    b = _hermitian(3, rng)
    ops.append(_op("cli_channel", 3, 1.0, {
        "files": {"a": cmat(_random_channel_image(b, rng)), "b": cmat(b)},
        "argv": ["channel", "--a", "{a}", "--b", "{b}", "--kraus"]}))
    ops.append(_op("cli_cnr", 3, 1.0, {
        "files": {"c": cmat(_hermitian(3, rng)), "t": cmat(_hermitian(3, rng))},
        "argv": ["cnr", "--c", "{c}", "--t", "{t}", "--count", str(CNR_COUNT),
                 "--seed", str(int(rng.integers(0, 2 ** 31)))]}))
    return ops


BUILDERS = {"certify": certify_pass, "polytope": polytope_pass, "steer": steer_pass,
            "cli_cold": cli_pass}


def build(workload: str, seed: int, passes: int = 1) -> list[list[dict]]:
    """The seeded passes of a workload; op ids number the ops of all passes.
    Pass k is the same for every pass count."""
    out = []
    for k in range(passes):
        ops = BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload), k]))
        for i, op in enumerate(ops):
            op["id"] = k * len(ops) + i
        out.append(ops)
    return out


def warmup_ids(ops: list[dict]) -> list[int]:
    """One smallest item of each operation kind."""
    best: dict[str, dict] = {}
    for op in ops:
        cur = best.get(op["kind"])
        if cur is None or op["n"] < cur["n"]:
            best[op["kind"]] = op
    return [op["id"] for op in best.values()]

