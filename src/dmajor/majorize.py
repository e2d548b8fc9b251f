"""Classical and d-majorization: decision procedures, thermomajorization
curves, and constructive stochastic transfer matrices.

Conventions: majorizes(x, y) is True when x is *more mixed* than y, i.e. a
doubly stochastic matrix maps y to x.  d_majorizes(x, y, d) likewise asks for
a column-stochastic matrix with fixed point d mapping y to x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

D_MAJORIZE_METHODS = ("norm", "positive_part", "curve")


class TransferSynthesisError(Exception):
    """A transfer matrix could not be synthesized despite a valid precondition."""


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-d real vector")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_weight_vector(d) -> np.ndarray:
    v = as_vector(d)
    if (v <= 0).any():
        raise ValueError("weight vector entries must be strictly positive")
    return v


def _scaled_tol(y: np.ndarray, tol: float) -> float:
    # comparisons are stable under rescaling of the problem
    return tol * max(1.0, float(np.abs(y).sum()))


def ratio_order(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Permutation sorting y/d non-increasingly; ties broken by index."""
    return np.argsort(-(y / d), kind="stable")


@dataclass(frozen=True)
class ThermoCurve:
    """Piecewise-linear concave curve with elbows (c_j, f_j), f(0) = 0.

    The elbow abscissae are the cumulative sums of d reordered so that y/d is
    non-increasing; the ordinates are the matching cumulative sums of y.
    """

    c: np.ndarray
    f: np.ndarray

    def __call__(self, c) -> np.ndarray | float:
        return np.interp(c, self.c, self.f)

    @property
    def total_weight(self) -> float:
        return float(self.c[-1])

    @property
    def total_value(self) -> float:
        return float(self.f[-1])


def _elbows(y: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elbows (c, f) of the thermomajorization curve of validated y and d."""
    order = ratio_order(y, d)
    return (np.concatenate(([0.0], np.cumsum(d[order]))),
            np.concatenate(([0.0], np.cumsum(y[order]))))


def thermo_curve(y, d) -> ThermoCurve:
    y = as_vector(y)
    d = as_weight_vector(d)
    if y.size != d.size:
        raise ValueError("y and d must have equal length")
    return ThermoCurve(*_elbows(y, d))


def curve_minimum_form(y: np.ndarray, d: np.ndarray, c) -> np.ndarray | float:
    """Evaluate min_i [ e^T (y - (y_i/d_i) d)_+ + (y_i/d_i) c ] directly.

    Independent of thermo_curve's sorting route; the two agree everywhere on
    [0, e^T d].
    """
    y = as_vector(y)
    d = as_weight_vector(d)
    r = y / d
    offsets = np.array([np.clip(y - ri * d, 0.0, None).sum() for ri in r])
    c = np.asarray(c, dtype=float)
    return np.min(offsets[:, None] + r[:, None] * c[None, :], axis=0) if c.ndim else float(
        np.min(offsets + r * float(c))
    )


def _majorized_rows(xs: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """majorizes(x, y, tol) for every vector x along the last axis of xs, in
    one array pass; the result has shape xs.shape[:-1]."""
    eps = _scaled_tol(y, tol)
    totals = np.abs(xs.sum(axis=-1) - y.sum()) <= eps
    xc = np.cumsum(np.sort(xs, axis=-1)[..., ::-1], axis=-1)
    yc = np.cumsum(np.sort(y)[::-1])
    return totals & np.all(xc[..., :-1] <= yc[:-1] + eps, axis=-1)


def majorizes(x, y, tol: float = 1e-9) -> bool:
    """True iff x is majorized by y (equal totals, dominated partial sums)."""
    x = as_vector(x)
    y = as_vector(y)
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    return bool(_majorized_rows(x, y, tol))


def d_majorizes(x, y, d, method: str = "norm", tol: float = 1e-9) -> bool:
    """Decide x <=_d y, i.e. existence of a d-stochastic matrix mapping y to x.

    Three equivalent criteria are implemented, each as one array pass:
      norm          -- ||x - t d||_1 <= ||y - t d||_1 at all t in y/d at once
      positive_part -- sum (x - t d)_+ <= sum (y - t d)_+ at all t in x/d, y/d
      curve         -- thermomajorization-curve dominance at the elbows of x
    All include the trace-equality requirement.  With equal totals
    ||v||_1 = 2 sum v_+ - sum v, so a 1-norm gap is twice the positive-part
    (and curve) gap; the norm route compares it against twice the tolerance.
    """
    x = as_vector(x)
    y = as_vector(y)
    d = as_weight_vector(d)
    if not (x.size == y.size == d.size):
        raise ValueError("x, y, d must have equal length")
    if method not in D_MAJORIZE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {D_MAJORIZE_METHODS}")
    eps = _scaled_tol(y, tol)
    if abs(x.sum() - y.sum()) > eps:
        return False

    if method == "curve":
        cx, fx = _elbows(x, d)
        cy, fy = _elbows(y, d)
        # dominance at the elbows of the lower curve suffices (concavity)
        return bool((fx[1:-1] <= np.interp(cx[1:-1], cy, fy) + eps).all())

    # rows t d for every critical t; axis 0 of the reductions is (x, y)
    xy = np.stack((x, y))[:, None, :]
    if method == "norm":
        norms = np.abs(xy - (y / d)[:, None] * d).sum(axis=2)
        return bool((norms[0] <= norms[1] + 2.0 * eps).all())
    ts = np.concatenate((x / d, y / d))[:, None] * d
    parts = np.maximum(xy - ts, 0.0).sum(axis=2)
    return bool((parts[0] <= parts[1] + eps).all())


# ---------------------------------------------------------------------------
# stochastic transfer matrices
# ---------------------------------------------------------------------------

@dataclass
class StochasticMatrix:
    """A nonnegative matrix with unit column sums, possibly with extra
    structure: kind is one of "doubly", "column", "d-stochastic"."""

    matrix: np.ndarray
    kind: str
    d: np.ndarray | None = None
    n_t_transforms: int | None = None

    def validate(self, entry_tol: float = 1e-12, sum_tol: float = 1e-10) -> None:
        a = self.matrix
        if np.min(a) < -entry_tol:
            raise ValueError(f"negative entry {np.min(a):.3e} in stochastic matrix")
        if np.max(np.abs(a.sum(axis=0) - 1.0)) > sum_tol:
            raise ValueError("column sums deviate from 1")
        if self.kind == "doubly" and np.max(np.abs(a.sum(axis=1) - 1.0)) > sum_tol:
            raise ValueError("row sums deviate from 1")
        if self.kind == "d-stochastic":
            if self.d is None:
                raise ValueError("d-stochastic matrix must carry its weight vector")
            # A d - d scales with d, so its bound does too
            if np.abs(a @ self.d - self.d).sum() > sum_tol * max(1.0, float(self.d.sum())):
                raise ValueError("weight vector is not a fixed point")

    @property
    def shape(self):
        return self.matrix.shape


def _t_transform_chain(xs: np.ndarray, ys: np.ndarray,
                       w: np.ndarray) -> tuple[np.ndarray, int]:
    """Column-stochastic A >= 0 with A ys = xs and A w = w, for masses whose
    densities xs/w and ys/w are non-increasing and whose prefix sums satisfy
    sum xs[:m] <= sum ys[:m] with equal totals.  At w = ones, A is doubly
    stochastic and this is classical majorization.

    A chain of at most n-1 weighted T-transforms: each step moves mass from
    the last piece j with ys_j > xs_j to the first later piece k with
    ys_k < xs_k, fixes w, and matches at least one more piece.
    """
    n = xs.size
    a = np.eye(n).tolist()
    x, y, w = xs.tolist(), ys.tolist(), w.tolist()
    count = 0
    small = 1e-13 * float(np.abs(ys).sum())
    for _ in range(n):
        diff = [yi - xi for yi, xi in zip(y, x)]
        if max(map(abs, diff)) <= small:
            break
        # largest j with x_j < y_j, then the smallest k > j with x_k > y_k;
        # without such a j there is no k
        j = next((i for i in reversed(range(n)) if diff[i] > small), n)
        k = next((i for i in range(j + 1, n) if diff[i] < -small), None)
        if k is None:
            break
        delta = min(y[j] - x[j], x[k] - y[k])
        lam = delta / (y[j] * w[k] - y[k] * w[j])
        t00, t01, t10, t11 = 1.0 - lam * w[k], lam * w[j], lam * w[k], 1.0 - lam * w[j]
        aj, ak = a[j], a[k]
        a[j] = [t00 * u + t01 * v for u, v in zip(aj, ak)]
        a[k] = [t10 * u + t11 * v for u, v in zip(aj, ak)]
        y[j], y[k] = t00 * y[j] + t01 * y[k], t10 * y[j] + t11 * y[k]
        count += 1
    return np.array(a), count


def _chain_transfer(x: np.ndarray, y: np.ndarray, d: np.ndarray,
                    tol: float) -> StochasticMatrix:
    """d-stochastic A with A y = x, for x <=_d y: A = merge @ chain @ split.

    Cuts [0, e^T d] at the ends of d laid out in the ratio orders of x and
    of y; on these at most 2n-1 pieces, of lengths w, x <=_d y is w-weighted
    majorization of the step densities.  split spreads each y_j over its
    pieces, the T-transform chain fixing w maps those masses to those of x,
    and merge sums each x_i back.  At d = e both are permutations.
    """
    n = x.size
    # both shortcuts and the chain's floor are relative to ||y||_1, so the
    # certificate of (s x, s y) is that of (x, y) for every power of two s
    eps = 1e-3 * tol * np.abs(y).sum()
    if np.abs(x - y).sum() <= eps:
        return StochasticMatrix(np.eye(n), "d-stochastic", d=d, n_t_transforms=0)
    minimal = (y.sum() / d.sum()) * d
    if np.abs(x - minimal).sum() <= eps:
        return StochasticMatrix(np.outer(d, np.ones(n)) / d.sum(), "d-stochastic", d=d,
                                n_t_transforms=0)

    px = ratio_order(x, d)
    py = ratio_order(y, d)
    ends_x = np.cumsum(d[px])
    ends_y = np.cumsum(d[py])
    ends_x[-1] = ends_y[-1] = d.sum()         # both layouts end at one point
    cuts = np.union1d(ends_x, ends_y)
    starts = np.concatenate(([0.0], cuts[:-1]))
    w = cuts - starts
    ix = px[np.searchsorted(ends_x, starts, side="right")]
    iy = py[np.searchsorted(ends_y, starts, side="right")]
    pieces = np.arange(w.size)
    split = np.zeros((w.size, n))
    split[pieces, iy] = w / d[iy]
    merge = np.zeros((n, w.size))
    merge[ix, pieces] = 1.0
    chain, count = _t_transform_chain(x[ix] * w / d[ix], split @ y, w)
    a = merge @ chain @ split
    out = StochasticMatrix(a, "d-stochastic", d=d, n_t_transforms=count)
    # column sums, and A d = d relative to e^T d (row sums at d = e), within 1e-8
    out.validate(entry_tol=1e-8, sum_tol=1e-8)
    residual = np.abs(a @ y - x).sum()
    if residual > _scaled_tol(y, 1e-8):
        raise TransferSynthesisError(f"certificate residual {residual:.3e} exceeds 1e-8")
    return out


def doubly_stochastic_transfer(x, y, tol: float = 1e-9) -> StochasticMatrix:
    """Doubly stochastic A with A y = x: the d-stochastic certificate at
    d = e, from at most n-1 T-transforms.  Requires majorizes(x, y); the
    minimal element (uniform mean) gets the averaging certificate e e^T / n.
    """
    x = as_vector(x)
    y = as_vector(y)
    if not majorizes(x, y, tol):
        raise ValueError("doubly_stochastic_transfer requires x to be majorized by y")
    out = _chain_transfer(x, y, np.ones(x.size), tol)
    return StochasticMatrix(out.matrix, "doubly", n_t_transforms=out.n_t_transforms)


def _within_norm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x shifted to the total of y, then x_+ scaled down to sum y_+ and x_-
    to sum y_- where they exceed them.

    With equal totals an excess of ||x||_1 over ||y||_1 splits evenly between
    the two parts, so this moves x by exactly that excess: the smallest
    1-norm move into ||x||_1 <= ||y||_1.
    """
    x = x + (y.sum() - x.sum()) / y.size
    parts = []
    for side in (1.0, -1.0):
        part, bound = np.maximum(side * x, 0.0), np.maximum(side * y, 0.0).sum()
        parts.append(part * (bound / part.sum()) if part.sum() > bound else part)
    return parts[0] - parts[1]


def column_stochastic_transfer(x, y, tol: float = 1e-9) -> StochasticMatrix:
    """Column-stochastic A with A y = x.

    Exists iff e^T x = e^T y and ||x||_1 <= ||y||_1.  A tolerance-level gap
    between the totals and excess of ||x||_1 over ||y||_1 are absorbed first,
    giving z.  Column j is then (z_+ + s_+ e/n) / sum y_+ where y_j > 0,
    (z_- + s_- e/n) / sum y_- where y_j < 0, and e/n where y_j = 0, with the
    slack s_+- = max(0, sum y_+- - sum z_+-) of each side taken on its own,
    so a side of tiny mass keeps unit column sums.  A y = z_+ - z_- = z
    holds within 1e-9 of x.
    """
    x = as_vector(x)
    y = as_vector(y)
    n = x.size
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if abs(x.sum() - y.sum()) > 1e-10 * max(1.0, abs(y.sum())):
        raise ValueError("column_stochastic_transfer requires equal totals")
    if np.abs(x).sum() > np.abs(y).sum() + 1e-10 * max(1.0, np.abs(y).sum()):
        raise ValueError("column_stochastic_transfer requires ||x||_1 <= ||y||_1")
    if np.abs(x - y).sum() <= 1e-3 * tol * np.abs(y).sum():
        return StochasticMatrix(np.eye(n), "column")

    z = _within_norm(x, y)
    a = np.full((n, n), 1.0 / n)
    for side in (1.0, -1.0):
        part, total = np.maximum(side * z, 0.0), np.maximum(side * y, 0.0).sum()
        if total > 0:
            a[:, side * y > 0] = ((part + max(0.0, total - part.sum()) / n) / total)[:, None]
    out = StochasticMatrix(a, "column")
    out.validate()
    if np.abs(a @ y - x).sum() > _scaled_tol(y, 1e-9):
        raise TransferSynthesisError("column-stochastic transfer failed to map y to x")
    return out


def d_stochastic_transfer(x, y, d, tol: float = 1e-9) -> StochasticMatrix:
    """d-stochastic A (nonnegative, unit column sums, A d = d) with A y = x,
    built from at most 2n-2 weighted T-transforms.  Requires
    d_majorizes(x, y, d).
    """
    x = as_vector(x)
    y = as_vector(y)
    d = as_weight_vector(d)
    if not d_majorizes(x, y, d, tol=tol):
        raise ValueError("d_stochastic_transfer requires d_majorizes(x, y, d)")
    return _chain_transfer(x, y, d, tol)


# ---------------------------------------------------------------------------
# order extremes
# ---------------------------------------------------------------------------

def minimal_element(trace: float, d) -> np.ndarray:
    """The unique minimal element of the trace hyperplane: (trace / e^T d) d."""
    d = as_weight_vector(d)
    return (trace / d.sum()) * d


@dataclass(frozen=True)
class MaximalElement:
    index: int
    vector: np.ndarray
    unique: bool


def maximal_element(d, tol: float = 1e-12) -> MaximalElement:
    """(e^T d) e_k with d_k minimal (first such index); unique iff the minimal
    entry of d is simple."""
    d = as_weight_vector(d)
    k = int(np.argmin(d))
    vec = np.zeros(d.size)
    vec[k] = d.sum()
    unique = bool(np.sum(d <= d[k] + tol * max(1.0, d.sum())) == 1)
    return MaximalElement(index=k, vector=vec, unique=unique)


def random_d_stochastic(d, rng: np.random.Generator) -> np.ndarray:
    """A random d-stochastic matrix (for tests): a convex mixture of the
    identity, the rank-one projection onto d, and pairwise d-moves."""
    d = as_weight_vector(d)
    n = d.size
    parts = [np.eye(n), np.outer(d, np.ones(n)) / d.sum()]
    for _ in range(2 * n):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        k, l = (i, j) if d[i] <= d[j] else (j, i)
        a = np.eye(n)
        # moves mass from e_l toward e_k while fixing d (d_k <= d_l)
        a[k, l] = d[k] / d[l]
        a[l, l] = 1.0 - d[k] / d[l]
        a[l, k] = 1.0
        a[k, k] = 0.0
        parts.append(a)
    weights = rng.dirichlet(np.ones(len(parts)))
    return sum(w * p for w, p in zip(weights, parts))


__all__ = [
    "D_MAJORIZE_METHODS",
    "MaximalElement",
    "StochasticMatrix",
    "ThermoCurve",
    "TransferSynthesisError",
    "as_vector",
    "as_weight_vector",
    "column_stochastic_transfer",
    "curve_minimum_form",
    "d_majorizes",
    "d_stochastic_transfer",
    "doubly_stochastic_transfer",
    "majorizes",
    "maximal_element",
    "minimal_element",
    "random_d_stochastic",
    "ratio_order",
    "thermo_curve",
]
