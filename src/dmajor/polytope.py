"""The d-majorization polytope: half-space description, closed-form vertex
enumeration, maximal corner, Hausdorff distances, Lipschitz constants.

The half-space description uses a fixed 2^n x n constraint matrix whose rows
are all 0/1 subset indicators (singletons first, then pairs in lexicographic
order, and so on) followed by the two trace rows +-e^T.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import ge
from typing import NamedTuple

import numpy as np

from .majorize import _TOL_REFUSAL, _elbows, _finite_entries, _interp, _real_number, _scaled_tol, \
    _unchecked, _validated, as_real_array
from .linalg import check_permutation

MAX_VERTEX_DIM = 8
MAX_LIPSCHITZ_DIM = 4


@lru_cache(maxsize=None)
def _row_masks(n: int) -> np.ndarray:
    """Bitmask of each subset row (singletons, pairs in lexicographic order,
    ..., full set); the -e^T row follows implicitly."""
    masks = np.array([sum(1 << i for i in s) for j in range(1, n + 1)
                      for s in itertools.combinations(range(n), j)])
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=None)
def constraint_matrix(n: int) -> np.ndarray:
    """The fixed 2^n x n matrix of subset-sum constraints (rows: singletons,
    pairs, ..., full set, negated full set).  Cached and read-only."""
    if not 1 <= n <= MAX_VERTEX_DIM:
        raise ValueError(f"dimension must lie in 1..{MAX_VERTEX_DIM}, got {n}")
    rows = np.vstack(((_row_masks(n)[:, None] >> np.arange(n)) & 1, -np.ones(n))).astype(float)
    rows.setflags(write=False)
    return rows


class _Tables(NamedTuple):
    """What vertex enumeration needs at one n, whatever y and d are."""

    perms: np.ndarray           # the n! permutations in lexicographic order, one per row
    tuples: tuple[tuple[int, ...], ...]
    rows: np.ndarray            # per coordinate, the b row of the prefix it ends (_gather)
    prev_rows: np.ndarray       # and of the prefix just before, 2^n for the empty one
    singletons: tuple[tuple[tuple[int, ...]], ...]   # the groups when every corner is distinct
    projections: np.ndarray     # _first_within's w = 1/sqrt(i + 2) and w2 = (-1)^i w, as columns


def _gather(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices _prefix_corners reads, shaped like perms: at [r, i], the b
    row of the subset of the prefix of perms[r] that ends with i, and the b
    row of that subset without i (2^n for the empty set, which no b row
    holds)."""
    n = perms.shape[1]
    row_of = np.empty(2 ** n, dtype=np.intp)            # subset mask -> b row
    row_of[_row_masks(n)] = np.arange(2 ** n - 1)
    row_of[0] = 2 ** n
    ends = np.take_along_axis(np.cumsum(1 << perms, axis=1), np.argsort(perms, axis=1), axis=1)
    return row_of[ends], row_of[ends - (1 << np.arange(n))]


@lru_cache(maxsize=None)
def _permutations(n: int) -> _Tables:
    """The tables of n, built on the first call at n (never at import), then
    reused."""
    tuples = tuple(itertools.permutations(range(n)))
    perms = np.array(tuples)
    w = 1.0 / np.sqrt(np.arange(n) + 2.0)
    tables = _Tables(perms, tuples, *_gather(perms), tuple((p,) for p in tuples),
                     np.column_stack((w, w * (-1.0) ** np.arange(n))))
    for table in (tables.perms, tables.rows, tables.prev_rows, tables.projections):
        table.setflags(write=False)
    return tables


@dataclass(frozen=True)
class HPolytope:
    """Half-space description {x : M x <= b} with the fixed constraint matrix.

    The last two entries of b are +-trace, so b[-2] + b[-1] = 0.
    """

    n: int
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", as_real_array(self.b))
        if self.b.shape != (2 ** self.n,):
            raise ValueError("b must have length 2^n")
        if not abs(self.b[-2] + self.b[-1]) <= 1e-12 * abs(self.b[-2]):
            raise ValueError("trace entries of b must be finite and opposite")

    @property
    def trace(self) -> float:
        return float(self.b[-2])


def halfspace_bounds(y, d) -> HPolytope:
    """Right-hand side b of the polytope {x : x is d-majorized by y}.

    Every subset row bound is the thermomajorization curve of (y, d)
    evaluated at the subset's d-weight; the trace rows carry +-e^T y.
    """
    return _bounds(*_validated(y, d))


def _bounds(y: list, d: list) -> HPolytope:
    """halfspace_bounds of validated y and d."""
    n = len(y)
    weights = constraint_matrix(n)[:-2] @ d       # of the proper subsets
    b = np.empty(2 ** n)
    b[:-2] = np.interp(weights, *_elbows(y, d))
    b[-2] = np.add.reduce(y)                            # np.sum's reduction, without its wrapper
    b[-1] = -b[-2]
    return _unchecked(HPolytope, n=n, b=b)              # b is built right


def contains(x, poly: HPolytope, tol: float = 1e-9) -> bool:
    """Componentwise test M x <= b + tol * ||y||_1, the tolerance of
    d_majorizes, exact at y = 0.  The curve peaks at the subset row of y's
    positive entries, so ||y||_1 = 2 max(0, max b[:-1]) - e^T y."""
    tol = _real_number(tol, _TOL_REFUSAL)
    x = _finite_entries(x)
    if len(x) != poly.n:
        raise ValueError("dimension mismatch")
    y1 = 2.0 * max(0.0, float(poly.b[:-1].max())) - poly.trace
    return bool((constraint_matrix(poly.n) @ x <= poly.b + tol * y1).all())


def _prefix_corners(rows: np.ndarray, prev_rows: np.ndarray, poly: HPolytope) -> np.ndarray:
    """The corners of the permutations _gather read, in one array pass: each
    entry is the bound of the prefix it ends minus the bound of the prefix
    before (0 for the empty one), by two gathers from b and one subtraction."""
    bounds = np.empty(poly.b.size + 1)
    bounds[:-1] = poly.b
    bounds[-1] = 0.0                                    # the empty prefix
    return bounds[rows] - bounds[prev_rows]


def vertex_for_permutation(perm, poly: HPolytope) -> np.ndarray:
    """The closed-form polytope corner generated by a permutation.

    Solves the lower-triangular cumulative system: the coordinate at
    perm[j] equals the bound of the first j+1 images minus the bound of the
    first j images.
    """
    p = check_permutation(perm)
    if p.size != poly.n:
        raise ValueError("permutation length must equal the polytope dimension")
    return _prefix_corners(*_gather(p[None, :]), poly)[0]


@dataclass(frozen=True)
class VertexSet:
    points: np.ndarray                      # shape (k, n)
    perms: tuple[tuple[tuple[int, ...], ...], ...]  # generating permutations per point

    def __len__(self) -> int:
        return self.points.shape[0]


def _first_within(pts: np.ndarray, tol: float) -> np.ndarray:
    """Each row's kept row, greedy in row order: a row joins the first earlier
    kept row within tol in the 1-norm, or is kept.

    As |w.(p - q)| <= ||p - q||_1 for ||w||_inf <= 1, rows within tol project
    within reach (tol plus a rounding margin) on w = 1/sqrt(i + 2) and on
    w2 = (-1)^i w.  Sorted w-neighbours farther apart than reach split the
    rows into runs, and no row merges with a row of another run, so each run
    is a greedy of its own.  A run of one row keeps it.  In a run of two the
    later row joins the earlier if it lies within tol; all such runs are
    resolved in one array pass.  Longer runs run the greedy, each kept row
    comparing only the unmerged rows of its w-window that w2 leaves.
    Memory is O(k n).
    """
    k, n = pts.shape
    both = pts @ _permutations(n).projections           # one matmul, (k, 2)
    order = both[:, 0].argsort(kind="stable")
    proj = both[:, 0][order]
    # n max|p| bounds every row's 1-norm
    reach = tol + 4 * n * n * sys.float_info.epsilon * float(np.abs(pts).max())
    far = proj[1:] - proj[:-1] > reach                  # sorted neighbours beyond reach
    owner = np.arange(k)
    links = k - 1 - np.count_nonzero(far)               # sorted neighbours within reach
    if not links:
        return owner
    apart = np.concatenate(([True], far, [True]))       # a run starts at each True
    two = np.flatnonzero(apart[:-2] & ~apart[1:-1] & apart[2:])
    p, q = order[two], order[two + 1]
    close = np.abs(pts[p] - pts[q]).sum(axis=1) <= tol
    owner[np.maximum(p, q)[close]] = np.minimum(p, q)[close]
    if two.size == links:                               # no run is longer than two
        return owner
    todo = ~(apart[:-1] & apart[1:])                    # by sorted position
    todo[two] = todo[two + 1] = False
    proj2 = both[:, 1][order]
    at = np.flatnonzero(todo)[np.argsort(order[todo])]  # in row order
    lo, hi = np.searchsorted(proj, proj[at] + [[-reach], [reach]])
    for i, a, b in zip(at.tolist(), lo.tolist(), hi.tolist()):
        if todo[i]:                                     # unmerged rows all come later
            near = a + np.flatnonzero(todo[a:b] & (np.abs(proj2[a:b] - proj2[i]) <= reach))
            near = near[np.abs(pts[order[near]] - pts[order[i]]).sum(axis=1) <= tol]
            owner[order[near]] = order[i]
            todo[near] = False
    return owner


def vertices(y, d, dedup_tol: float = 1e-9) -> VertexSet:
    """All polytope corners over the n! permutations, computed in one (n!, n)
    array pass and deduplicated greedily in permutation order: each corner
    joins the first kept corner within dedup_tol * ||y||_1 in the 1-norm,
    else it is kept, so kept points lie farther apart than that.
    Only corners that crowd in a sorted projection are compared (_first_within).
    Permutations sharing one corner (ratio ties) are recorded together, in
    permutation order; points appear in order of their first generating
    permutation.  Groups are built from the merged rows alone, so a call
    with few merges makes few Python steps.

    y and d are validated once.  The tables that depend on n alone (the
    permutations, the two b rows of each corner entry that _prefix_corners
    gathers, the projections of _first_within and the one-permutation
    groups) are built on the first call at each n and reused.
    """
    dedup_tol = _real_number(dedup_tol, "dedup_tol must be a real number")
    if not dedup_tol > 0:
        raise ValueError("dedup_tol must be positive")
    y, d = _validated(y, d)
    poly = _bounds(y, d)
    tables = _permutations(poly.n)
    pts = _prefix_corners(tables.rows, tables.prev_rows, poly)
    owner = _first_within(pts, _scaled_tol(y, dedup_tol))
    kept = owner == np.arange(owner.size)
    if kept.all():                                      # every corner distinct
        points, perms = pts, tables.singletons
    else:
        # each owner precedes the rows it gains, which come in row order
        gen: dict[int, list[tuple[int, ...]]] = {}
        merged = np.flatnonzero(~kept)
        for r, o in zip(merged.tolist(), owner[merged].tolist()):
            gen.setdefault(o, [tables.tuples[o]]).append(tables.tuples[r])
        groups = list(tables.singletons)
        for o, g in gen.items():
            groups[o] = tuple(g)
        points, perms = pts[kept], tuple(map(groups.__getitem__, np.flatnonzero(kept).tolist()))
    # in blocks of points: one (2^n, k) slack array is ~140 MB at n = 8
    for lo in range(0, len(points), 1024):
        slack = constraint_matrix(poly.n) @ points[lo:lo + 1024].T
        slack -= poly.b[:, None]
        if float(slack.max()) > _scaled_tol(y, 1e-9):
            raise RuntimeError("enumerated corner violates the half-space system")
    return VertexSet(points=points, perms=perms)


def max_corner(y, d) -> np.ndarray:
    """The corner classically majorizing the whole polytope (y >= 0 required).

    It is generated by any permutation sorting d non-increasingly; ties are
    broken by index.  Unique up to permutation of its entries.

    Runs on the validated lists of Python floats; numpy builds only the
    returned array.
    """
    y, d = _validated(y, d)
    if min(y) < 0:
        raise ValueError("max_corner requires y >= 0 entrywise")
    perm = sorted(range(len(d)), key=d.__getitem__, reverse=True)   # stable: ties keep index order
    ratios = [y[i] / d[i] for i in perm]
    if all(map(ge, ratios, ratios[1:])):
        # y/d sorted like d: y is its own maximal corner, exactly
        return np.array(y)
    cs, fs = _elbows(y, d)
    z, prev = [0.0] * len(y), 0.0
    for i, c in zip(perm, itertools.accumulate(d[i] for i in perm)):
        f = _interp(c, cs, fs)                          # the curve at d's prefix sums
        z[i], prev = f - prev, f
    return np.array(z)


def _point_sets(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two non-empty point sets of one dimension, one point per row, with
    finite real entries (as_real_array) whose 1-norm distances, at most
    n (max|p| + max|q|), stay within the float range."""
    p, q = np.atleast_2d(as_real_array(p)), np.atleast_2d(as_real_array(q))
    if p.size == 0 or q.size == 0:
        raise ValueError("Hausdorff distance requires non-empty point sets")
    if p.shape[1] != q.shape[1]:
        raise ValueError("point sets must share a dimension")
    top = float(np.abs(p).max()) + float(np.abs(q).max())   # nan or inf past a bad entry
    if not 2 * p.shape[1] * top <= sys.float_info.max:
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise ValueError("point entries must be finite")
        raise ValueError(f"max|p| + max|q| = {top:.3g} puts distances beyond the float range")
    return p, q


def hausdorff(p, q) -> float:
    """Hausdorff distance between two finite point sets in the 1-norm."""
    from scipy.spatial.distance import cdist

    p, q = _point_sets(p, q)
    dist = cdist(p, q, "cityblock")
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def _point_hull_distance(x: np.ndarray, hull_points: np.ndarray) -> float:
    """Exact 1-norm distance from x to the convex hull of hull_points (LP)."""
    from scipy.optimize import linprog

    k, n = hull_points.shape
    # variables: lambda (k), t (n);  minimize sum t
    # constraints: V^T lambda - x <= t,  x - V^T lambda <= t,  sum lambda = 1
    c = np.concatenate((np.zeros(k), np.ones(n)))
    a_ub = np.block([
        [hull_points.T, -np.eye(n)],
        [-hull_points.T, -np.eye(n)],
    ])
    b_ub = np.concatenate((x, -x))
    a_eq = np.concatenate((np.ones(k), np.zeros(n)))[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * k + [(None, None)] * n, method="highs")
    if not res.success:
        raise RuntimeError(f"hull-distance LP failed: {res.message}")
    return float(res.fun)


def hull_hausdorff(p_vertices, q_vertices) -> float:
    """Hausdorff distance between the convex hulls of two vertex sets.

    The maximum of the distance-to-hull function over a polytope is attained
    at a vertex, so vertex-to-hull LPs give the exact value.
    """
    p, q = _point_sets(p_vertices, q_vertices)
    d_pq = max(_point_hull_distance(v, q) for v in p)
    d_qp = max(_point_hull_distance(w, p) for w in q)
    return max(d_pq, d_qp)


def lipschitz_constant(n: int) -> float:
    """max ||A0^{-1}||_{1->1} over invertible n-row submatrices of the
    constraint matrix; bounds the Hausdorff shift per unit change of b."""
    if not 1 <= n <= MAX_LIPSCHITZ_DIM:
        raise ValueError(f"lipschitz_constant capped at n = {MAX_LIPSCHITZ_DIM}")
    m = constraint_matrix(n)
    subs = m[np.array(list(itertools.combinations(range(m.shape[0]), n)))]
    subs = subs[np.abs(np.linalg.det(subs)) >= 1e-12]
    return float(np.abs(np.linalg.inv(subs)).sum(axis=1).max())


__all__ = [
    "HPolytope",
    "VertexSet",
    "constraint_matrix",
    "contains",
    "halfspace_bounds",
    "hausdorff",
    "hull_hausdorff",
    "lipschitz_constant",
    "max_corner",
    "vertex_for_permutation",
    "vertices",
]
