"""The d-majorization polytope: half-space description, closed-form vertex
enumeration, maximal corner, Hausdorff distances, Lipschitz constants.

The half-space description uses a fixed 2^n x n constraint matrix whose rows
are all 0/1 subset indicators (singletons first, then pairs in lexicographic
order, and so on) followed by the two trace rows +-e^T.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .majorize import _elbows, _scaled_tol, _validated, as_vector
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


@lru_cache(maxsize=None)
def _permutations(n: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    tuples = tuple(itertools.permutations(range(n)))
    perms = np.array(tuples)
    perms.setflags(write=False)
    return perms, tuples


@dataclass(frozen=True)
class HPolytope:
    """Half-space description {x : M x <= b} with the fixed constraint matrix.

    The last two entries of b are +-trace, so b[-2] + b[-1] = 0.
    """

    n: int
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
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
    y, d = _validated(y, d)
    n = len(y)
    weights = constraint_matrix(n)[:-2] @ d       # of the proper subsets
    total = float(np.sum(y))
    return HPolytope(n=n, b=np.append(np.interp(weights, *_elbows(y, d)), (total, -total)))


def contains(x, poly: HPolytope, tol: float = 1e-9) -> bool:
    """Componentwise test M x <= b + tol * ||y||_1, the tolerance of
    d_majorizes, exact at y = 0.  The curve peaks at the subset row of y's
    positive entries, so ||y||_1 = 2 max(0, max b[:-1]) - e^T y."""
    x = as_vector(x)
    if x.size != poly.n:
        raise ValueError("dimension mismatch")
    y1 = 2.0 * max(0.0, float(poly.b[:-1].max())) - poly.trace
    return bool(np.all(constraint_matrix(poly.n) @ x <= poly.b + tol * y1))


def _corners(perms: np.ndarray, poly: HPolytope) -> np.ndarray:
    """vertex_for_permutation for every row of perms, in one array pass."""
    b_by_mask = np.zeros(2 ** poly.n)
    b_by_mask[_row_masks(poly.n)] = poly.b[:-1]
    cum = b_by_mask[np.cumsum(1 << perms, axis=1)]
    cum[:, 1:] -= cum[:, :-1]                           # prefix bounds to entries
    x = np.empty(perms.shape)
    x[np.arange(perms.shape[0])[:, None], perms] = cum
    return x


def vertex_for_permutation(perm, poly: HPolytope) -> np.ndarray:
    """The closed-form polytope corner generated by a permutation.

    Solves the lower-triangular cumulative system: the coordinate at
    perm[j] equals the bound of the first j+1 images minus the bound of the
    first j images.
    """
    p = check_permutation(perm)
    if p.size != poly.n:
        raise ValueError("permutation length must equal the polytope dimension")
    return _corners(p[None, :], poly)[0]


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
    w2 = (-1)^i w.  A row whose sorted w-neighbours both lie farther keeps
    itself.  The rest run the greedy, each kept row comparing only the
    unmerged rows of its w-window that w2 leaves.  Memory is O(k n).
    """
    k, n = pts.shape
    w = 1.0 / np.sqrt(np.arange(n) + 2.0)
    proj = pts @ w
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    reach = tol + 4 * n * np.finfo(float).eps * float(np.abs(pts).sum(axis=1).max())
    apart = np.ones(k + 1, dtype=bool)                  # sorted neighbours beyond reach
    apart[1:-1] = proj[1:] - proj[:-1] > reach
    todo = ~(apart[:-1] & apart[1:])                    # by sorted position
    owner = np.arange(k)
    if not todo.any():
        return owner
    proj2 = pts[order] @ (w * (-1.0) ** np.arange(n))
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
    Permutations sharing one corner (ratio ties) are recorded together;
    points appear in order of their first generating permutation.
    """
    if not dedup_tol > 0:
        raise ValueError("dedup_tol must be positive")
    poly = halfspace_bounds(y, d)                       # validates y and d
    perms, perm_tuples = _permutations(poly.n)
    pts = _corners(perms, poly)
    y = as_vector(y)
    owner = _first_within(pts, _scaled_tol(y, dedup_tol))
    kept = owner == np.arange(owner.size)
    gen: list[list[tuple[int, ...]]] = [[] for _ in range(int(kept.sum()))]
    for perm, s in zip(perm_tuples, (np.cumsum(kept) - 1)[owner].tolist()):
        gen[s].append(perm)
    points = pts[kept]
    # in blocks of points: one (2^n, k) slack array is ~140 MB at n = 8
    for lo in range(0, len(points), 1024):
        slack = constraint_matrix(poly.n) @ points[lo:lo + 1024].T - poly.b[:, None]
        if float(slack.max()) > _scaled_tol(y, 1e-9):
            raise RuntimeError("enumerated corner violates the half-space system")
    return VertexSet(points=points, perms=tuple(map(tuple, gen)))


def max_corner(y, d) -> np.ndarray:
    """The corner classically majorizing the whole polytope (y >= 0 required).

    It is generated by any permutation sorting d non-increasingly; ties are
    broken by index.  Unique up to permutation of its entries.
    """
    yl, dl = _validated(y, d)
    y, d = np.array(yl), np.array(dl)
    if np.min(y) < 0:
        raise ValueError("max_corner requires y >= 0 entrywise")
    perm = np.argsort(-d, kind="stable")
    ratios = (y / d)[perm]
    if np.all(ratios[:-1] >= ratios[1:]):
        # y/d sorted like d: y is its own maximal corner, exactly
        return y.copy()
    cum = np.interp(np.cumsum(d[perm]), *_elbows(yl, dl))  # the curve at d's prefix sums
    cum[1:] -= cum[:-1]
    z = np.empty_like(y)
    z[perm] = cum
    return z


def _point_sets(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Two non-empty point sets of one dimension, one point per row."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if p.size == 0 or q.size == 0:
        raise ValueError("Hausdorff distance requires non-empty point sets")
    if p.shape[1] != q.shape[1]:
        raise ValueError("point sets must share a dimension")
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
