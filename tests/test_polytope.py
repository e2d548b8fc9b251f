import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dmajor import polytope
from dmajor.majorize import d_majorizes, majorizes
from dmajor.polytope import (
    HPolytope,
    constraint_matrix,
    contains,
    halfspace_bounds,
    hausdorff,
    hull_hausdorff,
    lipschitz_constant,
    max_corner,
    vertex_for_permutation,
    vertices,
)
from helpers import random_d_stochastic

D421 = np.array([4.0, 2.0, 1.0])
Y421 = np.array([4.0, -2.0, 2.0])
VERTICES_421 = np.array([
    [5, 0, -1], [5, -2, 1], [2, 3, -1], [0, 3, 1], [4, -2, 2], [0, 2, 2],
], dtype=float)

D123 = np.array([1.0, 2.0, 3.0])
Y123 = np.array([1.0, 1.0, -1.0])
VERTICES_123 = np.array([
    [1, 1, -1], [1, -2 / 3, 2 / 3], [0.5, 1.5, -1],
    [-1 / 3, 1.5, -1 / 6], [-1 / 3, -2 / 3, 2],
])


def _same_point_set(a, b, tol=1e-9):
    a = {tuple(np.round(p, 9)) for p in a}
    b = {tuple(np.round(p, 9)) for p in b}
    return a == b


def _loop_corner(perm, poly):
    """Reference corner: coordinate perm[j] is the bound of the subset row of
    the first j+1 images minus the bound of the first j."""
    m = constraint_matrix(poly.n)
    x = np.empty(poly.n)
    chosen = np.zeros(poly.n)
    prev = 0.0
    for i in perm:
        chosen[i] = 1.0
        cur = poly.b[np.flatnonzero((m == chosen).all(axis=1))[0]]
        x[i] = cur - prev
        prev = cur
    return x


def _greedy_vertices(y, d, tol=1e-9):
    """Reference dedup: each corner, in permutation order, joins the first
    kept corner within tol * ||y||_1, or is kept."""
    poly = halfspace_bounds(y, d)
    eps = tol * float(np.abs(np.asarray(y, dtype=float)).sum())
    kept, groups = [], []
    for perm in itertools.permutations(range(poly.n)):
        v = _loop_corner(perm, poly)
        for i, w in enumerate(kept):
            if np.abs(v - w).sum() <= eps:
                groups[i].append(perm)
                break
        else:
            kept.append(v)
            groups.append([perm])
    return np.array(kept), tuple(tuple(g) for g in groups)


class TestConstraintMatrix:
    def test_n2(self):
        assert np.array_equal(
            constraint_matrix(2),
            np.array([[1, 0], [0, 1], [1, 1], [-1, -1]], dtype=float),
        )

    def test_n3_fixed_row_order(self):
        expected = np.array([
            [1, 0, 0], [0, 1, 0], [0, 0, 1],
            [1, 1, 0], [1, 0, 1], [0, 1, 1],
            [1, 1, 1], [-1, -1, -1],
        ], dtype=float)
        assert np.array_equal(constraint_matrix(3), expected)

    def test_complement_block(self):
        for n in (2, 3, 4):
            m = constraint_matrix(n)
            block = m[2 ** n - 2 - n:2 ** n - 2]  # the (n-1)-subsets
            for row in block:
                assert np.isclose(row.sum(), n - 1)
                # each row is the all-ones row minus one standard basis row
                assert np.count_nonzero(row == 0.0) == 1

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            constraint_matrix(9)

    def test_cached_read_only(self):
        m = constraint_matrix(5)
        assert m is constraint_matrix(5)
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


class TestHalfspaceBounds:
    def test_worked_example(self):
        poly = halfspace_bounds(Y421, D421)
        assert np.allclose(poly.b, [5, 3, 2, 5, 6, 4, 4, -4], atol=1e-12)

    def test_negative_entry_example(self):
        poly = halfspace_bounds(Y123, D123)
        assert np.allclose(poly.b, [1, 1.5, 2, 2, 5 / 3, 4 / 3, 1, -1], atol=1e-12)

    def test_uniform_d_matches_sorted_partial_sums(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(4)
        poly = halfspace_bounds(y, np.ones(4))
        sums = np.cumsum(np.sort(y)[::-1])
        assert np.allclose(poly.b[:4], sums[0])
        assert np.allclose(poly.b[4:10], sums[1])
        assert np.allclose(poly.b[10:14], sums[2])
        assert np.isclose(poly.b[-2], sums[3])

    def test_largest_dimension(self):
        rng = np.random.default_rng(8)
        poly = halfspace_bounds(rng.standard_normal(8), rng.uniform(0.5, 2.0, 8))
        assert poly.b.shape == (2 ** 8,)

    @pytest.mark.parametrize("build", [halfspace_bounds, vertices])
    def test_rejects_overflowing_trace(self, build):
        # e^T y overflows to inf; the trace rows would compare inf with -inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            build([1e308, 1e308, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("build", [halfspace_bounds, vertices])
    def test_rejects_dimension_above_the_cap(self, build):
        with pytest.raises(ValueError):
            build(np.ones(9), np.ones(9))


class TestVertices:
    def test_worked_example(self):
        verts = vertices(Y421, D421)
        assert _same_point_set(verts.points, VERTICES_421)

    def test_negative_entry_example(self):
        verts = vertices(Y123, D123)
        assert _same_point_set(verts.points, VERTICES_123)

    def test_degenerate_single_vertex(self):
        verts = vertices([3.0, 2.0, 1.0], [3.0, 2.0, 1.0])
        assert len(verts) == 1
        assert np.allclose(verts.points[0], [3, 2, 1])
        assert len(verts.perms[0]) == 6  # all permutations collapse

    def test_uniform_d_gives_orbit(self):
        y = np.array([0.6, 0.3, 0.1])
        verts = vertices(y, np.ones(3))
        orbit = {tuple(np.round(y[list(p)], 9)) for p in itertools.permutations(range(3))}
        assert _same_point_set(verts.points, np.array(sorted(orbit)))

    def test_wandering_weight_family(self):
        # deformation d(l) = (2+l, 2, 2-l) of y = (3, 2, 1): six vertices with
        # known closed forms, collapsing to {y} at l = 1
        for lam in (0.3, 0.7):
            got = vertices([3, 2, 1], [2 + lam, 2, 2 - lam]).points
            s = 2 + lam
            want = np.array([
                [3, 2, 1],
                [3, 1 + lam, 2 - lam],
                [(4 + 5 * lam) / s, 6 / s, (2 + lam) / s],
                [(2 * lam ** 2 + 5 * lam + 2) / s, 6 / s, (-2 * lam ** 2 + lam + 4) / s],
                [(-lam ** 2 + 6 * lam + 4) / s, (lam ** 2 + 3 * lam + 2) / s, (6 - 3 * lam) / s],
                [(2 * lam ** 2 + 5 * lam + 2) / s, (-2 * lam ** 2 + 4 * lam + 4) / s, (6 - 3 * lam) / s],
            ])
            assert len(got) == 6
            for w in want:
                assert min(np.abs(got - w).sum(axis=1)) <= 1e-9

    def test_degenerating_weight_family(self):
        # d(l) = (1, l, l^2), y = (1, 1, 1): five vertices with known closed
        # forms; two of them merge as l -> 0, so the limit hull has only four
        # corners and differs from the polytope of the degenerate weight
        for lam in (0.5, 0.3, 0.05):
            got = vertices([1, 1, 1], [1.0, lam, lam ** 2]).points
            want = np.array([
                [3 - lam - lam ** 2, lam, lam ** 2],
                [1 + lam - lam ** 2, 2 - lam, lam ** 2],
                [1, 2 - lam, lam],
                [2 - lam, lam, 1],
                [1, 1, 1],
            ])
            assert len(got) == 5
            for w in want:
                assert min(np.abs(got - w).sum(axis=1)) <= 1e-9
        limit = np.array([[3, 0, 0], [1, 2, 0], [2, 0, 1], [1, 1, 1]])
        small = vertices([1, 1, 1], [1.0, 1e-4, 1e-8]).points
        assert hausdorff(small, limit) <= 1e-3

    def test_identity_perm_yields_listed_vertex(self):
        poly = halfspace_bounds(Y421, D421)
        v = vertex_for_permutation([0, 1, 2], poly)
        assert np.allclose(v, [5, 0, -1])

    def test_n1(self):
        poly = halfspace_bounds([2.5], [0.7])
        assert np.allclose(vertex_for_permutation([0], poly), [2.5])

    def test_vertex_count_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = rng.integers(2, 6)
            verts = vertices(rng.standard_normal(n), rng.uniform(0.2, 2.0, size=n))
            assert 1 <= len(verts) <= math.factorial(n)


class TestVertexKernel:
    def test_rows_match_closed_form(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            poly = halfspace_bounds(rng.standard_normal(n), rng.uniform(0.2, 2.0, size=n))
            tables = polytope._permutations(n)
            perms, tuples = tables.perms, tables.tuples
            assert tuples == tuple(itertools.permutations(range(n)))
            assert perms.shape == (math.factorial(n), n)
            rows = polytope._corners(perms, poly)
            for perm, row in zip(perms, rows):
                assert np.array_equal(row, _loop_corner(perm, poly))

    def test_y_proportional_to_d_is_one_vertex(self):
        d = np.array([0.3, 1.7, 0.9, 2.2, 0.5, 1.1, 1.4, 0.8])
        verts = vertices(2.5 * d, d)
        assert len(verts) == 1
        assert verts.perms[0] == tuple(itertools.permutations(range(8)))
        assert np.allclose(verts.points[0], 2.5 * d)

    def test_merge_across_a_cell_edge(self):
        # corners closer than tol merge even when they straddle an edge of
        # the grid of width tol / n, and corners farther apart stay separate
        # even when no coordinate differs by tol
        tol = 1e-9
        edge = 5 * tol / 3
        assert np.floor((edge - 0.2 * tol) * 3 / tol) != np.floor((edge + 0.2 * tol) * 3 / tol)
        for p, q, owners in (
            ([edge - 0.2 * tol, 0.1, 0.2], [edge + 0.2 * tol, 0.1, 0.2], [0, 0]),
            ([edge - 0.45 * tol, 0.1, 0.2], [edge + 0.45 * tol, 0.1, 0.2], [0, 0]),
            ([edge - tol, 0.1, 0.2], [edge + tol, 0.1, 0.2], [0, 1]),
            ([0.05 * tol] * 3, [0.5 * tol] * 3, [0, 1]),
        ):
            assert polytope._first_within(np.array([p, q]), tol).tolist() == owners

    def test_projection_rounding_far_from_origin(self):
        # rows ~1e15 with tol = 1 differ by a few ulps: their projections
        # carry rounding of the order of tol, which the window must absorb
        rng = np.random.default_rng(21)
        for _ in range(3000):
            n = int(rng.integers(2, 9))
            base = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(14, 16)
            pts = base + 0.25 * rng.integers(-4, 5, size=(6, n)) * rng.integers(0, 2, size=(6, n))
            owner, kept = [], []
            for r, p in enumerate(pts):
                owner.append(next((k for k in kept if np.abs(p - pts[k]).sum() <= 1.0), r))
                if owner[-1] == r:
                    kept.append(r)
            assert polytope._first_within(pts, 1.0).tolist() == owner

    def test_matches_greedy_reference(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            n = int(rng.integers(1, 6))
            if trial % 3 == 0:
                d = rng.choice([0.5, 1.0, 2.0], size=n)          # ties in d
            else:
                d = rng.uniform(0.2, 2.0, size=n)
            if trial % 2 == 0:
                y = d * rng.choice([-0.5, 0.2, 1.0], size=n)     # ties in y / d
            else:
                y = rng.standard_normal(n)
            verts = vertices(y, d)
            points, perms = _greedy_vertices(y, d)
            assert verts.perms == perms
            assert np.array_equal(verts.points, points)

    def test_near_tie_chains_match_greedy_reference(self):
        # ratios of y to d on a chain f * tol / e^T d apart put neighbouring
        # corners ~f * tol apart, so the greedy merges some and keeps others
        rng = np.random.default_rng(18)
        sizes = set()
        for trial in range(48):
            n = 6 if trial % 8 == 0 else 3 + trial % 3
            f = (0.3, 1.0, 3.0)[trial % 3]
            d = rng.uniform(0.2, 2.0, size=n)
            scale = 10.0 ** rng.integers(-3, 4)
            tol = 1e-9 * scale * d.sum()
            y = scale * d + f * tol / d.sum() * d * rng.integers(0, n, size=n)
            verts = vertices(y, d)
            points, perms = _greedy_vertices(y, d)
            assert verts.perms == perms
            assert np.array_equal(verts.points, points)
            sizes.add((len(verts) == 1, len(verts) == math.factorial(n)))
        assert sizes >= {(True, False), (False, False)}

    def test_near_tie_n8_memory(self):
        # corners of y = d (1 + 3e-9 g) crowd within a few tol of each other;
        # a dedup holding every nearby pair needed ~460 MB here
        rng = np.random.default_rng(8)
        d = rng.uniform(0.2, 2.0, size=8)
        y = d * (1 + 3e-9 * rng.standard_normal(8))
        tracemalloc.start()
        try:
            verts = vertices(y, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        tol = 1e-9 * np.abs(y).sum()
        assert 1 < len(verts) < math.factorial(8)
        gaps = np.abs(verts.points[:, None, :] - verts.points[None, :, :]).sum(axis=2)
        assert np.all(gaps[~np.eye(len(verts), dtype=bool)] > tol)
        poly = halfspace_bounds(y, d)
        for point, group in zip(verts.points, verts.perms):
            corners = polytope._corners(np.array(group), poly)
            assert np.abs(corners - point).sum(axis=1).max() <= tol

    def test_generic_n8_memory(self):
        # the half-space check runs in blocks of points; checked all at once
        # it held two (256, k) float arrays, ~150 MB at this size
        rng = np.random.default_rng(8)
        y = rng.dirichlet(np.ones(8))
        d = rng.uniform(0.2, 2.0, size=8)
        tracemalloc.start()
        try:
            verts = vertices(y, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(verts) > 30_000
        assert peak < 40e6

    def test_rejects_non_positive_dedup_tol(self):
        with pytest.raises(ValueError):
            vertices(Y421, D421, dedup_tol=0.0)


class TestVertexEnumerationOracle:
    def test_matches_generic_submatrix_enumeration(self):
        # generic H->V oracle: solve every invertible n-row subsystem of
        # M x = b and keep the feasible solutions
        rng = np.random.default_rng(99)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            y = rng.standard_normal(n)
            d = rng.uniform(0.1, 3.0, size=n)
            m = constraint_matrix(n)
            b = halfspace_bounds(y, d).b
            brute = []
            for comb in itertools.combinations(range(2 ** n), n):
                sub = m[list(comb)]
                if abs(np.linalg.det(sub)) < 1e-10:
                    continue
                p = np.linalg.solve(sub, b[list(comb)])
                if np.all(m @ p <= b + 1e-8) and \
                        not any(np.abs(p - q).sum() <= 1e-7 for q in brute):
                    brute.append(p)
            ours = vertices(y, d).points
            assert len(ours) == len(brute)
            assert hausdorff(ours, np.array(brute)) <= 1e-8


class TestGeneralHalfspaceCorners:
    # a four-dimensional right-hand side chosen so that the permutation
    # corners are NOT all inside the polytope, and one extreme point is not
    # of corner form at all
    B4 = np.array([0, 0, 0, 0, 0, -1 / 2, -1 / 4, 0, 0, 0,
                   -1 / 2, -1 / 2, -5 / 8, 0, -1, 1], dtype=float)
    CORNERS = {
        (0, 0, -1 / 2, -1 / 2), (0, -3 / 8, -1 / 2, -1 / 8),
        (0, -1 / 4, -1 / 2, -1 / 4), (0, -3 / 8, -3 / 8, -1 / 4),
        (-1 / 2, 0, 0, -1 / 2), (-1, 0, 0, 0), (-1 / 2, 0, -1 / 2, 0),
        (-1 / 2, -3 / 8, 0, -1 / 8), (-5 / 8, -3 / 8, 0, 0),
        (-1 / 4, -1 / 4, -1 / 2, 0), (-1 / 4, -3 / 8, -3 / 8, 0),
    }

    def test_known_corner_list(self):
        poly = HPolytope(n=4, b=self.B4)
        got = {tuple(np.round(vertex_for_permutation(p, poly), 9))
               for p in itertools.permutations(range(4))}
        want = {tuple(np.round(np.array(c), 9)) for c in self.CORNERS}
        assert got == want

    def test_two_corners_fall_outside(self):
        poly = HPolytope(n=4, b=self.B4)
        outside = {c for c in self.CORNERS
                   if not contains(np.array(c), poly, tol=1e-12)}
        assert outside == {(0, -3 / 8, -1 / 2, -1 / 8), (0, -3 / 8, -3 / 8, -1 / 4)}

    def test_extreme_point_not_of_corner_form(self):
        poly = HPolytope(n=4, b=self.B4)
        p = -np.array([1.0, 3.0, 3.0, 1.0]) / 8
        assert contains(p, poly, tol=1e-12)
        # p solves a full-rank subsystem but no permutation generates it
        got = {tuple(np.round(vertex_for_permutation(q, poly), 9))
               for q in itertools.permutations(range(4))}
        assert tuple(np.round(p, 9)) not in got

    def test_translation_identity(self):
        # shifting b by the constraint image of a point shifts every corner
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            y = rng.standard_normal(n)
            d = rng.uniform(0.2, 2.0, size=n)
            shift = rng.standard_normal(n)
            poly = halfspace_bounds(y, d)
            shifted = HPolytope(n=n, b=poly.b + constraint_matrix(n) @ shift)
            for perm in itertools.permutations(range(n)):
                lhs = vertex_for_permutation(perm, shifted)
                rhs = vertex_for_permutation(perm, poly) + shift
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestScaleInvariance:
    def test_verdicts_invariant_under_rescalings(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            d = rng.uniform(0.2, 2.0, size=n)
            y = rng.standard_normal(n)
            x = random_d_stochastic(d, rng) @ y if rng.uniform() < 0.5 \
                else rng.standard_normal(n)
            base = d_majorizes(x, y, d)
            c = rng.uniform(0.5, 4.0)
            assert d_majorizes(c * x, c * y, d) == base
            assert d_majorizes(x, y, c * d) == base
            t = rng.standard_normal()
            assert d_majorizes(x + t * d, y + t * d, d) == base


class TestContains:
    def test_generator_inside(self):
        assert contains(Y421, halfspace_bounds(Y421, D421))

    def test_minimal_element_inside(self):
        x = (Y421.sum() / D421.sum()) * D421
        assert contains(x, halfspace_bounds(Y421, D421))

    def test_known_outside_point(self):
        mid = [0.325, 0.225, 0.45]
        assert not contains(mid, halfspace_bounds([0.4, 0.2, 0.4], np.ones(3)))
        assert not contains(mid, halfspace_bounds([0.25, 0.5, 0.25], np.ones(3)))

    def test_agrees_with_decision_procedure(self):
        # at every scale: contains uses the tolerance of d_majorizes
        rng = np.random.default_rng(2)
        for trial in range(300):
            scale = (1e-6, 1.0, 1e6)[trial % 3]
            n = rng.integers(2, 6)
            y = scale * rng.standard_normal(n)
            d = rng.uniform(0.1, 3.0, size=n)
            u = rng.uniform()
            if u < 0.4:
                x = random_d_stochastic(d, rng) @ y
            elif u < 0.8:
                x = scale * rng.standard_normal(n)
                x += (y.sum() - x.sum()) / n
            else:
                # the corner y, moved by 1e-12 relative
                x = y * (1.0 + rng.choice([-1e-12, 1e-12], size=n))
            assert contains(x, halfspace_bounds(y, d)) == d_majorizes(x, y, d)

    def test_convex_combinations_inside(self):
        rng = np.random.default_rng(3)
        verts = vertices(Y421, D421)
        poly = halfspace_bounds(Y421, D421)
        for _ in range(100):
            w = rng.dirichlet(np.ones(len(verts)))
            assert contains(w @ verts.points, poly)

    def test_closure_operator(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(2, 5)
            y = rng.standard_normal(n)
            d = rng.uniform(0.2, 2.0, size=n)
            poly_y = halfspace_bounds(y, d)
            x = random_d_stochastic(d, rng) @ y
            assert contains(x, poly_y)
            for v in vertices(x, d).points:
                assert contains(v, poly_y, tol=1e-8)


class TestMaxCorner:
    def test_similarly_ordered_returns_input(self):
        y = np.array([3.0, 2.0, 0.1])
        d = np.array([5.0, 4.0, 0.5])
        # y/d = (0.6, 0.5, 0.2) is ordered like d, so y is its own corner
        assert np.array_equal(max_corner(y, d), y)

    def test_uniform_d_sorts_descending(self):
        y = np.array([0.1, 0.6, 0.3])
        assert np.allclose(max_corner(y, np.ones(3)), [0.6, 0.3, 0.1])

    def test_two_level_derived_value(self):
        assert np.allclose(max_corner([1.0, 2.0], [2.0, 1.0]), [2.5, 0.5])

    def test_dominates_polytope(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 6)
            y = rng.uniform(0.0, 2.0, size=n)
            d = rng.uniform(0.2, 2.0, size=n)
            z = max_corner(y, d)
            verts = vertices(y, d)
            assert any(np.abs(z - v).sum() <= 1e-8 for v in verts.points)
            ratio = z / d
            order = np.argsort(-d, kind="stable")
            assert np.all(np.diff(ratio[order]) <= 1e-9)
            for _ in range(20):
                w = rng.dirichlet(np.ones(len(verts)))
                assert majorizes(w @ verts.points, z)

    def test_matches_corner_of_sorting_permutation(self):
        # the closed form (curve at d's prefix sums) against the corner built
        # from all 2^n bounds, at n = 1..8 and scales 1e-6..1e6
        rng = np.random.default_rng(19)
        eps = np.finfo(float).eps
        weights = (lambda n: rng.uniform(0.2, 2.0, size=n),
                   lambda n: np.exp(-rng.uniform(0.0, 30.0, size=n)),
                   lambda n: rng.integers(1, 4, size=n).astype(float))
        exact = 0
        for n in range(1, 9):
            for k in range(-6, 7):
                for draw in weights:
                    d = draw(n)
                    y = rng.dirichlet(np.ones(n)) * 10.0 ** (k + rng.uniform(-1, 1, size=n))
                    z = max_corner(y, d)
                    poly = halfspace_bounds(y, d)
                    ref = vertex_for_permutation(np.argsort(-d, kind="stable"), poly)
                    assert np.abs(z - ref).max() <= 4 * eps * np.abs(y).sum()
                    exact += np.array_equal(z, y)
        assert 0 < exact < 8 * 13 * 3

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            max_corner([1.0], [1.0, 1.0])

    def test_negative_y_rejected(self):
        with pytest.raises(ValueError):
            max_corner(Y421, D421)

    def test_negative_y_has_no_dominant_vertex(self):
        # with a negative entry no vertex majorizes all others
        verts = vertices(Y123, D123)
        dominant = [
            all(majorizes(w, v) for w in verts.points) for v in verts.points
        ]
        assert not any(dominant)


class TestHausdorff:
    def test_identical_sets(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert hausdorff(pts, pts) == 0.0

    def test_singletons(self):
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[0.0, 0.0, 0.0]])
        assert np.isclose(hausdorff(a, b), 6.0)

    def test_wandering_family_matches_bruteforce(self):
        y = np.array([3.0, 2.0, 1.0])
        v0 = vertices(y, np.array([2.0, 2.0, 2.0])).points
        v1 = vertices(y, np.array([3.0, 2.0, 1.0])).points
        direct = max(
            max(min(np.abs(p - q).sum() for q in v1) for p in v0),
            max(min(np.abs(p - q).sum() for q in v0) for p in v1),
        )
        assert np.isclose(hausdorff(v0, v1), direct)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hausdorff(np.empty((0, 2)), np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("distance", [hausdorff, hull_hausdorff])
    def test_both_distances_reject_bad_point_sets(self, distance):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-empty point sets"):
            distance(np.empty((0, 2)), square)
        with pytest.raises(ValueError, match="non-empty point sets"):
            distance(square, [])
        with pytest.raises(ValueError, match="share a dimension"):
            distance(square, np.array([[0.0, 0.0, 1.0]]))

    def test_non_expansive_in_y(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = rng.integers(2, 4)
            d = rng.uniform(0.2, 2.0, size=n)
            y1 = rng.standard_normal(n)
            y2 = y1 + rng.standard_normal(n) * 0.3
            dist = hull_hausdorff(vertices(y1, d).points, vertices(y2, d).points)
            assert dist <= np.abs(y1 - y2).sum() + 1e-8

    def test_lipschitz_in_b(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = rng.integers(2, 4)
            y = rng.standard_normal(n)
            d1 = rng.uniform(0.2, 2.0, size=n)
            d2 = d1 * rng.uniform(0.8, 1.25, size=n)
            b1 = halfspace_bounds(y, d1)
            b2 = halfspace_bounds(y, d2)
            dist = hull_hausdorff(vertices(y, d1).points, vertices(y, d2).points)
            bound = lipschitz_constant(n) * np.abs(b1.b - b2.b).sum()
            assert dist <= bound + 1e-8


class TestLipschitzConstant:
    def test_small_dimension_values(self):
        assert lipschitz_constant(1) == 1.0
        assert lipschitz_constant(2) == 2.0
        assert lipschitz_constant(3) == 3.0

    def test_n4_reported_without_assertion(self):
        # the conjectured value would be 4; we only require a finite constant
        value = lipschitz_constant(4)
        assert value >= 4.0

    def test_guard(self):
        with pytest.raises(ValueError):
            lipschitz_constant(5)
