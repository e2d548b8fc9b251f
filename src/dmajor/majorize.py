"""Classical and d-majorization: decision procedures, thermomajorization
curves, and constructive stochastic transfer matrices.

Conventions: majorizes(x, y) is True when x is *more mixed* than y, i.e. a
doubly stochastic matrix maps y to x.  d_majorizes(x, y, d) likewise asks for
a column-stochastic matrix with fixed point d mapping y to x.

The d-majorization routes, the curve elbows, the T-transform certificates
and the column-stochastic transfer run on lists of Python floats: at n <= 8
numpy's per-call overhead costs more than their arithmetic.  Classical
majorization is d-majorization at d = e and runs on the same kernels.  numpy
builds the returned arrays and sums 8 or more entries for the column
kernel, and only those functions import it, so the d-majorization kernels
run in a process that never loads numpy.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from math import isfinite
from operator import add, mul, sub

D_MAJORIZE_METHODS = ("norm", "positive_part", "curve")


class TransferSynthesisError(Exception):
    """A transfer matrix could not be synthesized despite a valid precondition."""


class SimplexViolationError(Exception):
    """A state left the simplex beyond numerical tolerance."""


def _holds_bool(x, kinds: tuple) -> bool:
    """Whether x is one of the boolean types kinds or a list or tuple holding
    one, at any depth."""
    if isinstance(x, (list, tuple)):
        return any(_holds_bool(v, kinds) for v in x)
    return isinstance(x, kinds)


# the dtype kinds a reader of caller data accepts, with the name its refusals use
_KIND_NAMES = {"iuf": "real numbers", "iu": "integers", "iufc": "real or complex numbers"}


def _unchecked(cls, **fields):
    """cls(**fields) without __post_init__, for fields built to pass its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _numbers(x, kinds: str) -> np.ndarray:
    """np.asarray(x), refused unless its dtype is one of kinds: "iuf" (real),
    "iu" (integer) or "iufc" (real or complex); every reader of caller arrays
    asks here.  So strings, booleans and objects are refused, though float()
    would take "0.5" and True, and so are booleans among numbers in lists."""
    import numpy as np

    v = np.asarray(x)
    if v.dtype.kind not in kinds:
        raise ValueError(f"expected {_KIND_NAMES[kinds]}, got entries of dtype {v.dtype}")
    if not isinstance(x, np.ndarray) and _holds_bool(x, (bool, np.bool_)):
        raise ValueError(f"expected {_KIND_NAMES[kinds]}, got a boolean")
    return v


def as_real_array(x) -> np.ndarray:
    """x as a float array, refused as _numbers refuses non-real entries."""
    return _numbers(x, "iuf").astype(float, copy=False)


# a tolerance that is not one number, such as an array of them
_TOL_REFUSAL = "tol must be a real number"


def _real_number(x, message: str) -> float:
    """x as one Python float, by the gate's rule: a float is taken as it is,
    without numpy, and anything else goes through as_real_array, so True and
    "0.5" are refused; ValueError(message) unless the result is 0-d."""
    if type(x) is float:
        return x
    v = as_real_array(x)
    if v.ndim:
        raise ValueError(message)
    return float(v)


def _integer(x, message: str) -> int:
    """x as one Python int, by the same rule: an int is taken as it is, and
    anything else goes through _numbers(x, "iu"), so True, "3" and 3.0 are
    refused; ValueError(message) unless the result is 0-d."""
    if type(x) is int:
        return x
    v = _numbers(x, "iu")
    if v.ndim:
        raise ValueError(message)
    return int(v)


def _plain(v) -> bool:
    """Whether numpy reads v as a float64 or an int64 entry."""
    return type(v) is float or (type(v) is int and -2 ** 63 <= v < 2 ** 63)


def _entries(x) -> list:
    """The entries of a non-empty 1-d real vector as floats, finite or not: a
    list or tuple of floats and int64-range ints one by one, without numpy,
    a 1-d float64 array (which the gate passes) by tolist, else the gate."""
    if isinstance(x, (list, tuple)) and x and all(map(_plain, x)):
        return [float(v) for v in x]
    import numpy as np
    if type(x) is np.ndarray and x.dtype.char == "d" and x.ndim == 1 and x.size:
        return x.tolist()
    v = as_real_array(x)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-d real vector")
    return v.tolist()


def _check_finite(values) -> None:
    # one entry at a time: max over a list passes a NaN by unless it comes first
    if not all(map(isfinite, values)):
        raise ValueError("vector entries must be finite")


def _finite_entries(x) -> list:
    """as_vector(x).tolist(), with its refusals, without loading numpy for a
    list of numbers."""
    v = _entries(x)
    _check_finite(v)
    return v


def as_vector(x) -> np.ndarray:
    """x as a non-empty 1-d array of finite floats; a native float64 one as it is."""
    import numpy as np

    native = type(x) is np.ndarray and x.dtype.char == "d" and x.dtype.isnative
    v = x if native else as_real_array(x)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-d real vector")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_weight_vector(d) -> np.ndarray:
    v = as_vector(d)
    if min(v.tolist()) <= 0:
        raise ValueError("weight vector entries must be strictly positive")
    return v


def _validated(*vectors) -> tuple[list, ...]:
    """The entries, as lists of floats, of real vectors of one length and,
    last, of a weight vector d (None for e), whose ratios v / d and rows t d
    of the criteria stay finite: 2 n max|v| max(d) / min(d) and 2 n max(d)
    lie within the float range.  Scalar tests, no warning."""
    *vs, d = vectors
    vs = [_entries(v) for v in vs]
    n = len(vs[0])
    weights = [1.0] * n if d is None else _entries(d)
    # Python floats overflow to inf without a warning, and beat numpy at n <= 8
    top, low, high = max(map(abs, chain(*vs))), min(weights), max(weights)
    fits = low > 0 and 2 * n * max(top / low, 1.0) * high <= sys.float_info.max
    # valid input passes one test (a sum is finite only if every entry is)
    if not (fits and isfinite(sum(chain(*vs, weights))) and {*map(len, vs), len(weights)} == {n}):
        _check_finite(chain(*vs, weights))
        if low <= 0:
            raise ValueError("weight vector entries must be strictly positive")
        if any(len(v) != n for v in vs):
            raise ValueError("x and y must have equal length")
        if len(weights) != n:
            raise ValueError("vectors and weights d must have equal length")
        if not fits:
            raise ValueError(f"entries up to {top:.3g} over weights d in [{low:.3g}, "
                             f"{high:.3g}] must stay finite")
    return (*vs, weights)


def _scaled_tol(y, tol: float) -> float:
    """tol * ||y||_1, the one tolerance scaling: exact at y = 0."""
    return tol * sum(map(abs, y))


def _ratio_order(y: list, d: list) -> list[int]:
    """Indices sorting y/d non-increasingly; the sort is stable, so ties
    keep index order."""
    ratios = [v / w for v, w in zip(y, d)]
    return sorted(range(len(ratios)), key=ratios.__getitem__, reverse=True)


def ratio_order(y, d) -> np.ndarray:
    """Permutation sorting y/d non-increasingly; ties broken by index."""
    import numpy as np

    return np.array(_ratio_order(*_validated(y, d)), dtype=int)


@dataclass(frozen=True)
class ThermoCurve:
    """Piecewise-linear concave curve with elbows (c_j, f_j), f(0) = 0.

    The elbow abscissae are the cumulative sums of d reordered so that y/d is
    non-increasing; the ordinates are the matching cumulative sums of y.
    """

    c: np.ndarray
    f: np.ndarray

    def __call__(self, c) -> np.ndarray | float:
        import numpy as np

        return np.interp(c, self.c, self.f)


def _elbows(y: list, d: list, order: list[int] | None = None) -> tuple[list, list]:
    """Elbows (c, f) of the thermomajorization curve of validated y and d:
    the prefix sums of d and of y in the ratio order of y (given or sorted
    here), from 0."""
    if order is None:
        order = _ratio_order(y, d)
    return [0.0, *accumulate(d[i] for i in order)], [0.0, *accumulate(y[i] for i in order)]


def _interp(c: float, cs: list, fs: list) -> float:
    """np.interp(c, cs, fs) for 0 <= c and non-decreasing cs from 0: the same
    segment, the same formula."""
    j = bisect_right(cs, c) - 1
    if j == len(cs) - 1 or cs[j] == c:
        return fs[j]
    return (fs[j + 1] - fs[j]) / (cs[j + 1] - cs[j]) * (c - cs[j]) + fs[j]


def thermo_curve(y, d) -> ThermoCurve:
    import numpy as np

    return ThermoCurve(*map(np.array, _elbows(*_validated(y, d))))


def majorizes(x, y, tol: float = 1e-9) -> bool:
    """True iff x is majorized by y (equal totals, dominated partial sums):
    d-majorization at d = e, on the curve route, whose elbows are then the
    partial sums of the sorted entries."""
    return _d_majorizes(*_validated(x, y, None), "curve", _real_number(tol, _TOL_REFUSAL))


def d_majorizes(x, y, d, method: str = "norm", tol: float = 1e-9) -> bool:
    """Decide x <=_d y, i.e. existence of a d-stochastic matrix mapping y to x.

    Three equivalent criteria are implemented, each on Python floats:
      norm          -- ||x - t d||_1 <= ||y - t d||_1 at every t in y/d
      positive_part -- sum (x - t d)_+ <= sum (y - t d)_+ at every t in x/d,
                       y/d, as prefix sums in ratio order: one sorted sweep
      curve         -- thermomajorization-curve dominance at the elbows of x
    All include the trace-equality requirement and compare within
    tol * ||y||_1, exactly at y = 0.  With equal totals ||v||_1 =
    2 sum v_+ - sum v, so a 1-norm gap is twice the positive-part (and
    curve) gap; the norm route compares it against twice the tolerance.
    """
    x, y, d = _validated(x, y, d)
    if method not in D_MAJORIZE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {D_MAJORIZE_METHODS}")
    return _d_majorizes(x, y, d, method, _real_number(tol, _TOL_REFUSAL))


def _d_majorizes(x: list, y: list, d: list, method: str, tol: float) -> bool:
    """d_majorizes on validated vectors of equal length."""
    eps = _scaled_tol(y, tol)
    if abs(sum(x) - sum(y)) > eps:
        return False

    if method == "norm":
        xd, yd = list(zip(x, d)), list(zip(y, d))
        return all(sum([abs(u - t * w) for u, w in xd])
                   <= sum([abs(v - t * w) for v, w in yd]) + 2.0 * eps
                   for t in [v / w for v, w in yd])

    if method == "curve":
        cx, fx = _elbows(x, d)
        cy, fy = _elbows(y, d)
        # dominance at the elbows of the lower curve suffices (concavity)
        return all(f <= _interp(c, cy, fy) + eps for c, f in zip(cx[1:-1], fx[1:-1]))

    # sum (v - t d)_+ = f_k - t c_k over the curve's first k elbows, those of
    # the k ratios of v above t: one bisection into the negated ratios
    sweeps = []
    for v in (x, y):
        order = _ratio_order(v, d)
        sweeps.append(([-v[i] / d[i] for i in order], *_elbows(v, d, order)))
    (kx, cx, fx), (ky, cy, fy) = sweeps
    for u in kx + ky:                                   # u = -t
        i, j = bisect_left(kx, u), bisect_left(ky, u)
        if fx[i] + u * cx[i] > fy[j] + u * cy[j] + eps:
            return False
    return True


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
        _check_stochastic(self.matrix.tolist(), self.kind,
                          None if self.d is None else self.d.tolist(), entry_tol, sum_tol)

    @property
    def shape(self):
        return self.matrix.shape


def _residual(rows: list, v: list, u: list) -> float:
    """||A v - u||_1 for the matrix A of rows."""
    return sum(map(abs, map(sub, [sum(map(mul, row, v)) for row in rows], u)))


def _check_stochastic(rows: list, kind: str, d: list | None, entry_tol: float,
                      sum_tol: float) -> None:
    """StochasticMatrix.validate on the rows of the matrix and the list d."""
    # each test passes only what it bounds: a NaN entry fails its column
    low = min(map(min, rows))
    if low < -entry_tol:
        raise ValueError(f"negative entry {low:.3e} in stochastic matrix")
    if not all(abs(sum(col) - 1.0) <= sum_tol for col in zip(*rows)):
        raise ValueError("column sums deviate from 1")
    if kind == "doubly" and not all(abs(sum(row) - 1.0) <= sum_tol for row in rows):
        raise ValueError("row sums deviate from 1")
    if kind == "d-stochastic":
        if d is None:
            raise ValueError("d-stochastic matrix must carry its weight vector")
        if not _residual(rows, d, d) <= _scaled_tol(d, sum_tol):
            raise ValueError("weight vector is not a fixed point")


def _t_transform_chain(xs: list, ys: list, w: list, rows: list) -> tuple[list, int]:
    """C @ rows and the step count of C, column-stochastic with C ys = xs and
    C w = w, for masses of non-increasing densities xs/w and ys/w, equal
    totals and sum xs[:m] <= sum ys[:m]; at w = e this is classical
    majorization.  Each of at most m-1 weighted T-transforms moves mass from
    the last j with ys_j > xs_j to the first later k with ys_k < xs_k.  A
    transform changes only diff[j] and diff[k], so the next j is k if
    diff[k] > small and otherwise no later than j: the scan resumes there."""
    m = len(xs)
    a, y = list(rows), list(ys)
    diff = [yi - xi for yi, xi in zip(y, xs)]
    small = 1e-13 * sum(map(abs, ys))
    j = m - 1
    for count in range(m):
        # largest j with x_j < y_j, then the smallest k > j with x_k > y_k
        while j >= 0 and not diff[j] > small:
            j -= 1
        k = j + 1
        while k < m and not diff[k] < -small:
            k += 1
        if j < 0 or k == m:
            return a, count
        lam = min(diff[j], -diff[k]) / (y[j] * w[k] - y[k] * w[j])
        t00, t01, t10, t11 = 1.0 - lam * w[k], lam * w[j], lam * w[k], 1.0 - lam * w[j]
        a[j], a[k] = ([t00 * u + t01 * v for u, v in zip(a[j], a[k])],
                      [t10 * u + t11 * v for u, v in zip(a[j], a[k])])
        y[j], y[k] = t00 * y[j] + t01 * y[k], t10 * y[j] + t11 * y[k]
        diff[j], diff[k] = y[j] - xs[j], y[k] - xs[k]
        if diff[k] > small:
            j = k
    return a, m


def _pieces(d: list, px: list, py: list) -> list[tuple[float, int, int]]:
    """(width, i_x, i_y) of each piece of [0, e^T d] cut at the ends of d laid
    out in the orders px and py, i_x and i_y being the entries whose intervals
    hold it.  Laid out exactly on d scaled to integers, equal ends give one
    cut, and every entry, however far below the rounding of e^T d, gets
    pieces that sum to its weight; each width is rounded once."""
    ratios = [v.as_integer_ratio() for v in d]
    den = max(q for _, q in ratios)                     # a power of two
    scaled = [p * (den // q) for p, q in ratios]
    ex, ey = (list(accumulate(scaled[i] for i in p)) for p in (px, py))
    out, start, i, j = [], 0, 0, 0
    while i < len(d):                                   # both layouts end at once
        u, v = ex[i], ey[j]
        end = v if v < u else u
        out.append(((end - start) / den, px[i], py[j]))
        start, i, j = end, i + (u == end), j + (v == end)
    return out


def _chain_rows(x: list, y: list, d: list, tol: float) -> tuple[list, int]:
    """The rows of a d-stochastic A with A y = x, for validated x <=_d y, and
    its count of T-transforms.

    On the at most 2n-1 _pieces of the ratio orders of x and of y, of widths
    w, x <=_d y is w-weighted majorization of the step densities.  A piece p
    of y_j starts as the row (w_p / d_j) e_j, the chain maps the pieces'
    masses to those of x, and the rows of the pieces of x_i sum to row i of
    A.  At d = e each piece is one entry, and A is the chain permuted.
    """
    n = len(x)
    # both shortcuts and the chain's floor are relative to ||y||_1, so the
    # certificate of (s x, s y) is that of (x, y) for every power of two s
    eps = _scaled_tol(y, 1e-3 * tol)
    if sum(map(abs, map(sub, x, y))) <= eps:
        return [[float(i == j) for j in range(n)] for i in range(n)], 0
    total = sum(d)
    mean = sum(y) / total
    if sum(map(abs, map(sub, x, [mean * v for v in d]))) <= eps:
        return [[v / total] * n for v in d], 0

    pieces = []                                         # (row, masses of x and y, width, i)
    for w, i, j in _pieces(d, _ratio_order(x, d), _ratio_order(y, d)):
        row = [0.0] * n
        row[j] = w / d[j]
        pieces.append((row, x[i] * w / d[i], row[j] * y[j], w, i))
    rows, xs, ys, ws, owners = zip(*pieces)
    rows, count = _t_transform_chain(xs, ys, ws, rows)
    a = [[0.0] * n for _ in range(n)]
    for i, row in zip(owners, rows):
        a[i] = list(map(add, a[i], row))
    # column sums and A d = d (row sums at d = e) within 1e-8, A y = x within tol
    _check_stochastic(a, "d-stochastic", d, entry_tol=1e-8, sum_tol=1e-8)
    residual = _residual(a, y, x)
    gate = max(tol, 1e-8)
    if residual > _scaled_tol(y, gate):
        raise TransferSynthesisError(f"certificate residual {residual:.3e} exceeds {gate:.0e}")
    return a, count


def _chain_transfer(x: list, y: list, d: list, tol: float) -> StochasticMatrix:
    """_chain_rows as a StochasticMatrix of arrays."""
    import numpy as np

    rows, count = _chain_rows(x, y, d, tol)
    return StochasticMatrix(np.array(rows), "d-stochastic", d=np.array(d), n_t_transforms=count)


def doubly_stochastic_transfer(x, y, tol: float = 1e-9) -> StochasticMatrix:
    """Doubly stochastic A with A y = x: the d-stochastic certificate at
    d = e, from at most n-1 T-transforms.  Requires majorizes(x, y); the
    minimal element (uniform mean) gets the averaging certificate e e^T / n.
    """
    x, y, e = _validated(x, y, None)
    tol = _real_number(tol, _TOL_REFUSAL)
    if not _d_majorizes(x, y, e, "curve", tol):
        raise ValueError("doubly_stochastic_transfer requires x to be majorized by y")
    out = _chain_transfer(x, y, e, tol)
    return StochasticMatrix(out.matrix, "doubly", n_t_transforms=out.n_t_transforms)


def _np_sum(v: list) -> float:
    """np.sum(v), bit for bit: numpy adds fewer than 8 floats in order."""
    if len(v) < 8:
        return reduce(add, v, 0.0)
    import numpy as np
    return float(np.sum(v))


def _within_norm(x: list, y: list) -> list:
    """The parts [(z_+, sum y_+), (z_-, sum y_-)] of z: x shifted to the total
    of y, then x_+ scaled down to sum y_+ and x_- to sum y_- where they exceed
    them.  The sums run in numpy's order, so z is the array form's bit for bit.

    With equal totals an excess of ||x||_1 over ||y||_1 splits evenly between
    the two parts, so this moves x by exactly that excess: the smallest
    1-norm move into ||x||_1 <= ||y||_1.
    """
    shift = (_np_sum(y) - _np_sum(x)) / len(y)
    out = []
    for side in (1.0, -1.0):
        # max(v, 0.0) keeps v = -0.0, as np.maximum does
        part = [max(side * (u + shift), 0.0) for u in x]
        bound, total = _np_sum([max(side * v, 0.0) for v in y]), _np_sum(part)
        out.append(([v * (bound / total) for v in part] if total > bound else part, bound))
    return out


def _column_rows(x: list, y: list, tol: float) -> list:
    """The rows of column_stochastic_transfer(x, y, tol) for validated x and y.

    A has at most three distinct columns, one per sign of y_j, so each is
    built and checked once; its sums run in numpy's order.
    """
    n = len(y)
    eps = _scaled_tol(y, 1e-10)
    if abs(_np_sum(x) - _np_sum(y)) > eps:
        raise ValueError("column_stochastic_transfer requires equal totals")
    if _np_sum(list(map(abs, x))) > _np_sum(list(map(abs, y))) + eps:
        raise ValueError("column_stochastic_transfer requires ||x||_1 <= ||y||_1")
    if _np_sum(list(map(abs, map(sub, x, y)))) <= _scaled_tol(y, 1e-3 * tol):
        return [[float(i == j) for j in range(n)] for i in range(n)]

    uniform = [1.0 / n] * n
    columns = []
    for part, total in _within_norm(x, y):
        slack = max(0.0, total - _np_sum(part)) / n
        columns.append([(v + slack) / total for v in part] if total > 0 else uniform)
    pos, neg = columns
    picked = [pos if v > 0 else neg if v < 0 else uniform for v in y]
    used = {id(c): c for c in picked}.values()
    _check_stochastic([*zip(*used)], "column", None, entry_tol=1e-12, sum_tol=1e-10)
    rows = [*zip(*picked)]
    if _residual(rows, y, x) > _scaled_tol(y, 1e-9):
        raise TransferSynthesisError("column-stochastic transfer failed to map y to x")
    return rows


def column_stochastic_transfer(x, y, tol: float = 1e-9) -> StochasticMatrix:
    """Column-stochastic A with A y = x.

    Exists iff e^T x = e^T y and ||x||_1 <= ||y||_1, each checked within
    1e-10 * ||y||_1.  x within 1e-3 * tol * ||y||_1 of y gets the identity.
    Else a tolerance-level gap between the totals and excess of ||x||_1 over
    ||y||_1 are absorbed first (_within_norm), giving z, and A has at most
    three distinct columns: (z_+ + s_+ e/n) / sum y_+ where y_j > 0,
    (z_- + s_- e/n) / sum y_- where y_j < 0, and e/n where y_j = 0, with the
    slack s_+- = max(0, sum y_+- - sum z_+-) of each side taken on its own,
    so a side of tiny mass keeps unit column sums.  A y = z_+ - z_- = z
    holds within 1e-9 * ||y||_1 of x.  The kernel runs on Python floats.
    """
    import numpy as np

    x, y = _validated(x, y, None)[:2]
    return StochasticMatrix(np.array(_column_rows(x, y, _real_number(tol, _TOL_REFUSAL))), "column")


def d_stochastic_transfer(x, y, d, tol: float = 1e-9) -> StochasticMatrix:
    """d-stochastic A (nonnegative, unit column sums, A d = d) with A y = x,
    from at most 2n-2 weighted T-transforms.  Requires d_majorizes(x, y, d).
    """
    x, y, d = _validated(x, y, d)
    tol = _real_number(tol, _TOL_REFUSAL)
    if not _d_majorizes(x, y, d, "norm", tol):
        raise ValueError("d_stochastic_transfer requires d_majorizes(x, y, d)")
    return _chain_transfer(x, y, d, tol)


# ---------------------------------------------------------------------------
# order extremes
# ---------------------------------------------------------------------------

def minimal_element(trace: float, d) -> np.ndarray:
    """The unique minimal element of the trace hyperplane: (trace / e^T d) d."""
    d = as_weight_vector(d)
    return (_real_number(trace, "trace must be a real number") / d.sum()) * d


@dataclass(frozen=True)
class MaximalElement:
    index: int
    vector: np.ndarray
    unique: bool


def maximal_element(d, tol: float = 1e-12) -> MaximalElement:
    """(e^T d) e_k with d_k minimal (first such index); unique iff the minimal
    entry of d is simple."""
    import numpy as np

    d = as_weight_vector(d)
    tol = _real_number(tol, _TOL_REFUSAL)
    k = int(np.argmin(d))
    vec = np.zeros(d.size)
    vec[k] = d.sum()
    unique = bool(np.sum(d <= d[k] + _scaled_tol(d, tol)) == 1)
    return MaximalElement(index=k, vector=vec, unique=unique)


__all__ = [
    "D_MAJORIZE_METHODS",
    "MaximalElement",
    "StochasticMatrix",
    "SimplexViolationError",
    "ThermoCurve",
    "TransferSynthesisError",
    "as_real_array",
    "as_vector",
    "as_weight_vector",
    "column_stochastic_transfer",
    "d_majorizes",
    "d_stochastic_transfer",
    "doubly_stochastic_transfer",
    "majorizes",
    "maximal_element",
    "minimal_element",
    "ratio_order",
    "thermo_curve",
]
