from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from dmajor import majorize
from dmajor.majorize import (
    D_MAJORIZE_METHODS,
    StochasticMatrix,
    TransferSynthesisError,
    _pieces,
    _t_transform_chain,
    as_vector,
    column_stochastic_transfer,
    d_majorizes,
    d_stochastic_transfer,
    doubly_stochastic_transfer,
    majorizes,
    maximal_element,
    minimal_element,
    ratio_order,
    thermo_curve,
)
from dmajor.polytope import contains, halfspace_bounds, vertex_for_permutation
from helpers import (array_as_vector, array_column_transfer, array_within_norm, curve_minimum_form,
                     random_d_stochastic, reader_outcome)


class TestMajorizes:
    def test_reflexive(self):
        x = np.array([0.2, 0.5, 0.3])
        assert majorizes(x, x)

    def test_incomparable_pair(self):
        # midpoint of two generators majorized by neither
        mid = [0.325, 0.225, 0.45]
        assert not majorizes(mid, [0.4, 0.2, 0.4])
        assert not majorizes(mid, [0.25, 0.5, 0.25])

    def test_uniform_is_minimal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.standard_normal(5)
            assert majorizes(np.full(5, y.sum() / 5), y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorizes([1.0], [0.5, 0.5])

    @pytest.mark.parametrize("x", [["0.5", "0.5"], [True, False], np.array([0.5, None]),
                                   np.array([0.5 + 0j, 0.5]), "0.5"])
    def test_non_real_entries_refused(self, x):
        # float() takes "0.5" and True; a real vector holds neither
        with pytest.raises(ValueError, match="expected real numbers"):
            majorizes(x, [0.9, 0.1])

    def test_integer_entries_accepted(self):
        assert majorizes(np.array([1, 1], dtype=np.uint8), [2, 0])

    def test_rows_agree_with_single_calls(self):
        # a seeded slice of the verdict campaign: n = 1..12, scales 1e-6..1e6,
        # mixtures of permutations (majorized), permutations and quarter-grid
        # ties, vectors moved to y's total (mostly not), unequal totals, and
        # moves across the tolerance edge on both sides of it
        rng = np.random.default_rng(31)
        verdicts = []
        for n in range(1, 13):
            for scale in 10.0 ** np.arange(-6, 7, 2):
                y = rng.standard_normal(n) * scale
                if rng.random() < 0.3:
                    y = rng.integers(-4, 5, n) * (scale / 4)        # quarter-grid ties
                eps = 1e-9 * float(np.abs(y).sum())
                perms = np.array([rng.permutation(y) for _ in range(4)])
                mixed = rng.dirichlet(np.ones(4), size=6) @ perms
                other = rng.standard_normal((4, n)) * scale
                other += (y.sum() - other.sum(axis=1, keepdims=True)) / n
                # top-k sums of a permutation of y lifted, and totals moved, by
                # a multiple of the tolerance
                lift = perms[:2]
                top, low = lift.argmax(axis=1), lift.argmin(axis=1)
                edges = []
                for c in (0.5, 0.999, 1.001, 2.0):
                    moved = lift.copy()
                    moved[[0, 1], top] += c * eps
                    moved[[0, 1], low] -= c * eps
                    edges += [moved, lift + rng.choice([-1.0, 1.0]) * c * eps * np.eye(n)[top]]
                xs = np.concatenate((mixed, perms, other, *edges,
                                     mixed[:2] + rng.uniform(1e-3, 1.0) * scale))
                expected = _sort_cumsum_rows(xs, y).tolist()
                assert [majorizes(x, y) for x in xs] == expected
                assert [majorizes(list(x), list(y)) for x in xs] == expected
                assert all(expected[:10])       # the mixtures and permutations
                verdicts += expected
        assert 0.3 < np.mean(verdicts) < 0.8


def _sort_cumsum_rows(xs, y, tol=1e-9):
    """majorizes(x, y, tol) for every row x of xs, as the batch kernel that
    classical majorization once ran on decided it: sort, cumsum, compare.
    The reference for majorizes' verdicts."""
    eps = tol * sum(map(abs, y))
    totals = np.abs(xs.sum(axis=-1) - y.sum()) <= eps
    xc = np.cumsum(np.sort(xs, axis=-1)[..., ::-1], axis=-1)
    yc = np.cumsum(np.sort(y)[::-1])
    return totals & np.all(xc[..., :-1] <= yc[:-1] + eps, axis=-1)


def _loop_verdict(x, y, d, method, tol=1e-9):
    """d_majorizes as one loop step per critical t, before the array routes:
    the reference for their verdicts."""
    eps = tol * float(np.abs(y).sum())
    if abs(x.sum() - y.sum()) > eps:
        return False
    if method == "norm":
        return all(np.abs(x - t * d).sum() <= np.abs(y - t * d).sum() + 2.0 * eps
                   for t in y / d)
    if method == "positive_part":
        return all(np.clip(x - t * d, 0.0, None).sum()
                   <= np.clip(y - t * d, 0.0, None).sum() + eps
                   for t in np.concatenate((x / d, y / d)))
    curves = []
    for v in (x, y):
        order = np.argsort(-(v / d), kind="stable")
        curves.append((np.concatenate(([0.0], np.cumsum(d[order]))),
                       np.concatenate(([0.0], np.cumsum(v[order])))))
    (cx, fx), (cy, fy) = curves
    return bool(np.all(fx[1:-1] <= np.interp(cx[1:-1], cy, fy) + eps))


def _array_chain(xs, ys, w):
    """The T-transform chain on numpy arrays, before it ran on floats: the
    reference for its step count and entries."""
    n = xs.size
    a = np.eye(n)
    y = ys.copy()
    count = 0
    small = 1e-13 * float(np.abs(ys).sum())
    for _ in range(n):
        diff = y - xs
        if np.max(np.abs(diff)) <= small:
            break
        j_candidates = np.nonzero(diff > small)[0]
        if j_candidates.size == 0:
            break
        j = int(j_candidates[-1])
        k_candidates = np.nonzero(diff[j + 1:] < -small)[0]
        if k_candidates.size == 0:
            break
        k = j + 1 + int(k_candidates[0])
        delta = min(y[j] - xs[j], xs[k] - y[k])
        lam = delta / (y[j] * w[k] - y[k] * w[j])
        t = np.array([[1.0 - lam * w[k], lam * w[j]],
                      [lam * w[k], 1.0 - lam * w[j]]])
        a[[j, k]] = t @ a[[j, k]]
        y[[j, k]] = t @ y[[j, k]]
        count += 1
    return a, count


def _weighted_cases(seed):
    """Seeded (x, y, d) at n = 1..8 and scales 2^k, k in [-40, 40]: interior
    points, polytope corners, corners moved by +-1e-12 relative, corners
    with up to 2 eps of mass moved between two entries (at the verdict
    tolerance), points just outside a corner, and equal-total random x."""
    rng = np.random.default_rng(seed)
    for k in range(-40, 41):
        for n in range(1, 9):
            d = rng.uniform(0.2, 2.0, size=n)
            y = 2.0 ** k * rng.standard_normal(n)
            if n > 1 and k % 3 == 0:
                y[-1] = y[0] * d[-1] / d[0]                 # tied ratios
            poly = halfspace_bounds(y, d)
            corner = vertex_for_permutation(rng.permutation(n), poly)
            kind = int(rng.integers(0, 6))
            if kind == 0:
                x = random_d_stochastic(d, rng) @ y
            elif kind == 1:
                x = corner
            elif kind == 2:
                x = corner * (1.0 + rng.choice([-1e-12, 1e-12], size=n))
            elif kind == 3:
                x = corner.copy()
                push = rng.uniform(0.0, 2.0) * 1e-9 * np.abs(y).sum()
                i, j = rng.integers(0, n, size=2)
                x[i] += push
                x[j] -= push
            elif kind == 4:
                x = corner + 1e-6 * (corner - minimal_element(y.sum(), d))
            else:
                x = 2.0 ** k * rng.standard_normal(n)
                x += (y.sum() - x.sum()) / n
            yield x, y, d


class TestDMajorizes:
    def test_minimal_element_always_majorized(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.standard_normal(4)
            d = rng.uniform(0.2, 2.0, size=4)
            assert d_majorizes((y.sum() / d.sum()) * d, y, d)

    def test_two_cycle(self):
        d = [3, 2, 1]
        x = [1, 0, 0]
        y = [0, 2 / 3, 1 / 3]
        for method in D_MAJORIZE_METHODS:
            assert d_majorizes(x, y, d, method=method)
            assert d_majorizes(y, x, d, method=method)

    def test_identity(self):
        y = np.array([0.3, -0.1, 0.8])
        for method in D_MAJORIZE_METHODS:
            assert d_majorizes(y, y, [1.0, 2.0, 0.5], method=method)

    def test_methods_agree(self):
        rng = np.random.default_rng(2)
        cases = []
        for _ in range(300):
            n = rng.integers(2, 6)
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if rng.uniform() < 0.5:
                x += (y.sum() - x.sum()) / n  # force equal totals half the time
            cases.append((x, y, rng.uniform(0.1, 3.0, size=n)))
        # a curve excess of 0.75 eps, whose 1-norm excess is 1.5 eps
        for s in (1.0, 1e3):
            cases.append((s * np.array([0.8 + 7.5e-10, 0.12, 0.08 - 7.5e-10]),
                          s * np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])))
        for x, y, d in cases:
            verdicts = {m: d_majorizes(x, y, d, method=m) for m in D_MAJORIZE_METHODS}
            assert len(set(verdicts.values())) == 1, verdicts

    def test_array_routes_match_loops(self):
        # every route gives the verdict of its per-t loop, on both sides of
        # the boundary and at every scale
        verdicts = {True: 0, False: 0}
        for x, y, d in _weighted_cases(5):
            for method in D_MAJORIZE_METHODS:
                verdict = d_majorizes(x, y, d, method=method)
                assert verdict == _loop_verdict(x, y, d, method), (method, x, y, d)
                verdicts[verdict] += 1
        assert min(verdicts.values()) >= 300, verdicts

    def test_tie_break_independent(self):
        # reversing the index order flips the stable tie-break of ratio_order
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = 4
            d = rng.uniform(0.2, 2.0, size=n)
            y = rng.choice([0.5, 1.0], size=n) * d  # engineered ratio ties
            x = random_d_stochastic(d, rng) @ y
            assert d_majorizes(x, y, d, method="curve") == \
                d_majorizes(x[::-1], y[::-1], d[::-1], method="curve")

    def test_reduces_to_classical_at_uniform_d(self):
        rng = np.random.default_rng(4)
        e = np.ones(4)
        for _ in range(200):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            if rng.uniform() < 0.5:
                x += (y.sum() - x.sum()) / 4
            assert d_majorizes(x, y, e) == majorizes(x, y)

    def test_transitive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.integers(2, 5)
            d = rng.uniform(0.2, 2.0, size=n)
            w = rng.standard_normal(n)
            y = random_d_stochastic(d, rng) @ w
            x = random_d_stochastic(d, rng) @ y
            assert d_majorizes(y, w, d) and d_majorizes(x, y, d)
            assert d_majorizes(x, w, d)

    def test_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            d_majorizes([1.0, 0.0], [0.5, 0.5], [1.0, 0.0])


class TestThermoCurve:
    def test_uniform_d_gives_sorted_partial_sums(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(5)
        curve = thermo_curve(y, np.ones(5))
        assert np.allclose(curve.f[1:], np.cumsum(np.sort(y)[::-1]))

    def test_endpoints(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(4)
        d = rng.uniform(0.5, 2.0, size=4)
        curve = thermo_curve(y, d)
        assert curve.f[0] == 0.0
        assert np.isclose(curve.c[-1], d.sum())
        assert np.isclose(curve.f[-1], y.sum())

    def test_frozen_elbows_match_min_formula(self):
        # derived via the direct min-formula oracle at c = 1 and c = 3
        curve = thermo_curve([1.0, 2.0], [2.0, 1.0])
        assert np.allclose(curve.c, [0.0, 1.0, 3.0])
        assert np.allclose(curve.f, [0.0, 2.0, 3.0])
        assert np.isclose(curve_minimum_form([1.0, 2.0], [2.0, 1.0], 1.0), 2.0)
        assert np.isclose(curve_minimum_form([1.0, 2.0], [2.0, 1.0], 3.0), 3.0)

    def test_interpolation_equals_min_formula_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = rng.integers(2, 6)
            y = rng.standard_normal(n)
            d = rng.uniform(0.2, 2.0, size=n)
            curve = thermo_curve(y, d)
            cs = rng.uniform(0.0, d.sum(), size=17)
            assert np.allclose(curve(cs), curve_minimum_form(y, d, cs), atol=1e-12)

    def test_concavity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = rng.integers(2, 7)
            curve = thermo_curve(rng.standard_normal(n), rng.uniform(0.2, 2.0, size=n))
            slopes = np.diff(curve.f) / np.diff(curve.c)
            assert np.all(np.diff(slopes) <= 1e-10)

    def test_curve_dominance_iff_d_majorizes(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = rng.integers(2, 5)
            d = rng.uniform(0.2, 2.0, size=n)
            y = rng.standard_normal(n)
            x = rng.standard_normal(n)
            x += (y.sum() - x.sum()) / n
            cx = thermo_curve(x, d)
            cy = thermo_curve(y, d)
            dominated = np.all(cx.f[1:-1] <= cy(cx.c[1:-1]) + 1e-11)
            assert dominated == d_majorizes(x, y, d)


def _sorted_assembly(x, y, tol=1e-9):
    """The classical certificate as assembled before it became the
    d-stochastic one at d = e: the chain on the sorted vectors, conjugated by
    permutation matrices, gated at 1e-9.  None where that gate or the default
    validation rejects it."""
    n = x.size
    eps = tol * max(1.0, float(np.abs(y).sum()))
    if np.abs(x - y).sum() <= eps * 1e-3:
        return np.eye(n), 0
    if np.abs(x - y.sum() / n).sum() <= eps * 1e-3:
        return np.full((n, n), 1.0 / n), 0
    px = np.argsort(-x, kind="stable")
    py = np.argsort(-y, kind="stable")
    a_sorted, count = _t_transform_chain(x[px].tolist(), y[py].tolist(), [1.0] * n,
                                         np.eye(n).tolist())
    mx = np.zeros((n, n))
    mx[np.arange(n), px] = 1.0
    my = np.zeros((n, n))
    my[np.arange(n), py] = 1.0
    a = mx.T @ a_sorted @ my
    try:
        StochasticMatrix(a, "doubly").validate()
    except ValueError:
        return None
    if np.abs(a @ y - x).sum() > 1e-9 * max(1.0, float(np.abs(y).sum())):
        return None
    return a, count


def _classical_cases(seed, count):
    """Seeded (x, y) with x majorized by y: n = 2..8, scales 1e-6, 1 and
    1e6, signed and tied y; x a mixture of permutations of y, a permutation,
    a move toward the mean, the mean itself or y."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(2, 9))
        y = (1e-6, 1.0, 1e6)[trial % 3] * rng.standard_normal(n)
        if trial % 4 == 0:
            y = np.abs(y)
        if trial % 5 == 0:
            y[-1] = y[0]                                     # tied entries
        kind = (trial // 3) % 5
        if kind == 0:
            x = rng.dirichlet(np.ones(4)) @ np.array([rng.permutation(y) for _ in range(4)])
        elif kind == 1:
            x = rng.permutation(y)
        elif kind == 2:
            x = y + rng.uniform(0.1, 0.9) * (y.mean() - y)
        elif kind == 3:
            x = np.full(n, y.sum() / n)
        else:
            x = y.copy()
        yield x, y


class TestDoublyStochasticTransfer:
    def test_matches_sorted_assembly(self):
        # the d route at d = e returns the old assembly's matrix bit for bit
        compared = 0
        for x, y in _classical_cases(21, 600):
            if not majorizes(x, y):
                continue
            ref = _sorted_assembly(x, y)
            out = doubly_stochastic_transfer(x, y)
            assert out.kind == "doubly" and out.d is None
            if ref is None:
                continue
            compared += 1
            assert np.array_equal(out.matrix, ref[0])
            assert out.n_t_transforms == ref[1]
        assert compared == 600

    def test_boundary_verdicts_get_certificates(self):
        # corners and interior points pushed out of the polytope by up to
        # 3 eps: every positive verdict yields a certificate
        rng = np.random.default_rng(22)
        positives = 0
        for trial, (x, y) in enumerate(_classical_cases(23, 900)):
            n = y.size
            eps = 1e-9 * float(np.abs(y).sum())
            order = np.argsort(-x, kind="stable")
            # more mass on the largest entry raises every partial sum
            push = rng.uniform(0.0, 3.0) * eps
            x = x.copy()
            x[order[0]] += push
            x[order[rng.integers(1, n)]] -= push
            if not majorizes(x, y):
                continue
            positives += 1
            out = doubly_stochastic_transfer(x, y)
            a = out.matrix
            assert a.min() >= -1e-8
            assert np.abs(a.sum(axis=0) - 1).max() <= 1e-8
            assert np.abs(a.sum(axis=1) - 1).sum() <= 1e-8
            assert np.abs(a @ y - x).sum() <= 1e-8 * max(1.0, np.abs(y).sum() + n)
        assert positives == 649

    def test_identity_case(self):
        y = np.array([0.5, 0.2, 0.3])
        out = doubly_stochastic_transfer(y, y)
        assert np.array_equal(out.matrix, np.eye(3))

    def test_uniform_target_returns_averaging_map(self):
        y = np.array([0.7, 0.1, 0.1, 0.1])
        out = doubly_stochastic_transfer(np.full(4, 0.25), y)
        assert np.allclose(out.matrix, np.full((4, 4), 0.25))

    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            y = rng.standard_normal(4)
            mix = rng.dirichlet(np.ones(4))
            perms = [rng.permutation(4) for _ in range(4)]
            x = sum(w * y[p] for w, p in zip(mix, perms))
            out = doubly_stochastic_transfer(x, y)
            out.validate()
            assert np.abs(out.matrix @ y - x).sum() <= 1e-9
            assert np.abs(out.matrix.sum(axis=1) - 1).max() <= 1e-10
            assert out.n_t_transforms <= 3

    def test_rejects_non_majorized(self):
        with pytest.raises(ValueError):
            doubly_stochastic_transfer([1.0, 0.0], [0.5, 0.5])


class TestColumnStochasticTransfer:
    def test_identity_case(self):
        y = np.array([0.5, -0.2])
        assert np.array_equal(column_stochastic_transfer(y, y).matrix, np.eye(2))

    def test_worked_example(self):
        x = np.array([2.0, 1.0, 1.0])
        y = np.array([4.0, -2.0, 2.0])
        out = column_stochastic_transfer(x, y)
        out.validate()
        assert np.abs(out.matrix @ y - x).sum() <= 1e-9

    def test_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = rng.integers(2, 6)
            y = rng.standard_normal(n)
            # shrink a random equal-total x toward the safest point until valid
            x = rng.standard_normal(n)
            x += (y.sum() - x.sum()) / n
            while np.abs(x).sum() > np.abs(y).sum():
                x = 0.5 * x + 0.5 * (y.sum() / n)
            out = column_stochastic_transfer(x, y)
            out.validate()
            assert np.abs(out.matrix @ y - x).sum() <= 1e-9

    def test_contractivity_of_output(self):
        rng = np.random.default_rng(13)
        y = np.array([4.0, -2.0, 2.0])
        out = column_stochastic_transfer([2.0, 1.0, 1.0], y)
        for _ in range(20):
            z = rng.standard_normal(3)
            assert np.abs(out.matrix @ z).sum() <= np.abs(z).sum() + 1e-12

    def test_rejects_growing_norm(self):
        with pytest.raises(ValueError):
            column_stochastic_transfer([2.0, -1.0], [0.5, 0.5])

    def test_tolerance_level_norm_excess(self):
        # ||x||_1 exceeds ||y||_1 by 1e-11, inside the accepted 1e-10 but above
        # the 1e-13 that the T-transform chain resolves
        x = np.array([0.7 + 5e-12, 0.3, -5e-12])
        y = np.array([0.5, 0.3, 0.2])
        out = column_stochastic_transfer(x, y)
        out.validate()
        assert np.abs(out.matrix @ y - x).sum() <= 1e-10

    def test_tolerance_level_negative_entries(self):
        # a tolerance-level negative entry in x against a nonnegative y
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            y = rng.dirichlet(np.ones(n)) * 10.0 ** rng.integers(-3, 4)
            x = rng.dirichlet(np.ones(n)) * y.sum()
            k, el = rng.choice(n, size=2, replace=False)
            delta = 10.0 ** rng.uniform(-13, np.log10(4e-11)) * y.sum()
            x[el] += x[k] + delta
            x[k] = -delta
            out = column_stochastic_transfer(x, y)
            out.validate()
            assert np.abs(out.matrix @ y - x).sum() <= 1e-9 * y.sum()

    def test_tolerance_level_total_gap(self):
        # nonnegative x whose total differs from y's by less than the accepted
        # 1e-10: the norm excess is the total gap, not a negative entry
        x = np.array([0.4, 0.35, 0.25 + 5e-11])
        y = np.array([0.5, 0.3, 0.2])
        out = column_stochastic_transfer(x, y)
        out.validate()
        assert np.abs(out.matrix @ y - x).sum() <= 1e-10
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            y = rng.dirichlet(np.ones(n)) * 10.0 ** rng.integers(-3, 4)
            x = rng.dirichlet(np.ones(n)) * y.sum()
            gap = 10.0 ** rng.uniform(-14, np.log10(9e-11)) * y.sum()
            x[rng.integers(n)] += gap * rng.choice([-1.0, 1.0])
            out = column_stochastic_transfer(x, y)
            out.validate()
            assert np.abs(out.matrix @ y - x).sum() <= 1e-9 * y.sum()


def _check_column_transfer(x, y, rng):
    """column_stochastic_transfer(x, y) passes validate(), the 1e-9 residual
    gate and a 1-norm contraction probe."""
    out = column_stochastic_transfer(x, y)
    out.validate()
    a = out.matrix
    assert np.abs(a @ y - x).sum() <= 1e-9 * np.abs(y).sum()
    for z in rng.standard_normal((5, y.size)):
        assert np.abs(a @ z).sum() <= np.abs(z).sum() * (1.0 + 1e-12)
    return a


def _integer_pair(rng, n, signs):
    """Integer y with the given entry signs (+1, -1, 0) and an integer x with
    the same positive and negative masses, spread over a permutation of those
    signs, so that e^T x = e^T y and ||x||_1 = ||y||_1 hold exactly."""
    y = signs * rng.integers(1, 50, size=n)
    x_signs = rng.permutation(signs)
    x = np.zeros(n)
    for side in (1, -1):
        slots = x_signs == side
        mass = int(np.maximum(side * y, 0).sum())
        if mass:
            x[slots] = side * rng.multinomial(mass, rng.dirichlet(np.ones(slots.sum())))
    return x, y.astype(float)


class TestColumnStochasticClosedForm:
    def test_campaign(self):
        # zero, one-signed and mixed-sign y at 1-norm equality, inside it,
        # and with tolerance-level norm excess and total gaps
        rng = np.random.default_rng(41)
        for trial in range(600):
            n = int(rng.integers(1, 9))
            signs = (np.ones(n), rng.choice([-1.0, 1.0], size=n),
                     rng.choice([-1.0, 0.0, 1.0], size=n))[trial % 3]
            if trial % 2:
                signs = -signs
            x, y = _integer_pair(rng, n, signs)
            scale = 2.0 ** int(rng.integers(-20, 21))
            x, y = scale * x, scale * y
            assert x.sum() == y.sum() and np.abs(x).sum() == np.abs(y).sum()
            a = _check_column_transfer(x, y, rng)
            if not np.array_equal(x, y):                # else the identity
                assert (a[:, y == 0] == 1.0 / n).all()
            # inside the norm ball: a mixture with the mean
            inner = x + rng.uniform(0.0, 1.0) * (y.sum() / n - x)
            _check_column_transfer(inner, y, rng)
            if n == 1:
                continue
            # tolerance-level excess of the norm, and a gap between the totals
            bound = 1e-10 * np.abs(y).sum()
            delta = 10.0 ** rng.uniform(-15, -10.5) * np.abs(y).sum()
            i, j = rng.choice(n, size=2, replace=False)
            # x_i away from zero, x_j toward or past it: equal totals
            over = x.copy()
            over[[i, j]] += (np.sign(x[i]) or 1.0) * delta / 2 * np.array([1.0, -1.0])
            if np.abs(over).sum() <= np.abs(y).sum() + bound:
                _check_column_transfer(over, y, rng)
            gap = x.copy()
            gap[i] += rng.choice([-1.0, 1.0]) * min(delta, 9e-11 * np.abs(y).sum())
            if np.abs(gap).sum() <= np.abs(y).sum() + bound:
                _check_column_transfer(gap, y, rng)

    def test_per_side_slack_with_a_tiny_side(self):
        # y with one entry of +-1e-17 against the other sign: the slack of
        # each side is its own, so the tiny side keeps unit column sums
        rng = np.random.default_rng(42)
        for trial in range(400):
            n = int(rng.integers(2, 9))
            sign = 1.0 if trial % 2 else -1.0
            y = sign * rng.dirichlet(np.ones(n)) * 10.0 ** rng.integers(-3, 4)
            y[rng.integers(n)] = -sign * 1e-17
            x = random_d_stochastic(np.ones(n), rng) @ y
            x += (y.sum() - x.sum()) / n
            if np.abs(x).sum() > np.abs(y).sum():
                x = 0.5 * x + 0.5 * y.sum() / n
            a = _check_column_transfer(x, y, rng)
            assert np.abs(a.sum(axis=0) - 1.0).max() <= 1e-14


class TestCertificateScaleInvariance:
    def test_bit_identical_at_powers_of_two(self):
        # every floor is relative to ||y||_1, so (2^k x, 2^k y) gets the
        # certificate of (x, y) bit for bit, for all three transfer kinds
        rng = np.random.default_rng(43)
        x, y = np.array([0.55, 0.27, 0.18]), np.array([0.7, 0.2, 0.1])
        cases = [(x, y, x, np.array([0.5, 0.3, 0.2]))]         # (x, y, xd, d)
        for trial in range(20):
            n = 2 + trial % 7
            d = rng.uniform(0.2, 2.0, size=n)
            y = rng.standard_normal(n) if trial % 2 else rng.dirichlet(np.ones(n))
            cases.append((random_d_stochastic(np.ones(n), rng) @ y, y,
                          random_d_stochastic(d, rng) @ y, d))
        for x, y, xd, d in cases:
            xc = 0.5 * x + 0.5 * y.sum() / y.size
            base = (doubly_stochastic_transfer(x, y).matrix,
                    d_stochastic_transfer(xd, y, d).matrix,
                    column_stochastic_transfer(xc, y).matrix)
            assert not any(np.array_equal(a, np.eye(y.size)) for a in base)
            for k in range(-40, 41):
                s = 2.0 ** k
                got = (doubly_stochastic_transfer(s * x, s * y).matrix,
                       d_stochastic_transfer(s * xd, s * y, d).matrix,
                       column_stochastic_transfer(s * xc, s * y).matrix)
                for a, ref in zip(got, base):
                    assert np.array_equal(a, ref)

    def test_small_scale_reproducer(self):
        # at 2^-40 the absolute floors returned the identity, 30 % of ||y||_1
        # off; now the residual is relative
        x = 2.0 ** -40 * np.array([0.55, 0.27, 0.18])
        y = 2.0 ** -40 * np.array([0.7, 0.2, 0.1])
        for a in (doubly_stochastic_transfer(x, y).matrix,
                  d_stochastic_transfer(x, y, [0.5, 0.3, 0.2]).matrix,
                  column_stochastic_transfer(x, y).matrix):
            assert np.abs(a @ y - x).sum() <= 1e-14 * np.abs(y).sum()


def _passes_gate(a, x, y, d):
    """The certificate gate in plain numpy: entries, column sums, A d = d
    relative to e^T d and A y = x relative to ||y||_1, each within 1e-8."""
    return bool(a.min() >= -1e-8 and np.abs(a.sum(axis=0) - 1.0).max() <= 1e-8
                and np.abs(a @ d - d).sum() <= 1e-8 * d.sum()
                and np.abs(a @ y - x).sum() <= 1e-8 * np.abs(y).sum())


def _route_verdicts(x, y, d):
    """The verdicts of the three d_majorizes routes and of contains."""
    return ([d_majorizes(x, y, d, method=m) for m in D_MAJORIZE_METHODS]
            + [contains(x, halfspace_bounds(y, d))])


def _scale_cases(seed):
    """Seeded (x, y, d) at scale 1, n = 2..6, one- and mixed-signed y:
    d-stochastic images of y, polytope corners, corners pushed out of the
    polytope by half and by twice the tolerance, and equal-total draws."""
    rng = np.random.default_rng(seed)
    for trial in range(60):
        n = 2 + trial % 5
        d = rng.uniform(0.2, 2.0, n)
        y = rng.dirichlet(np.ones(n)) if trial % 2 else rng.standard_normal(n)
        perm = rng.permutation(n)
        x = vertex_for_permutation(perm, halfspace_bounds(y, d))
        kind = trial % 5
        if kind == 0:
            x = random_d_stochastic(d, rng) @ y
        elif kind in (2, 3):
            # mass from the last entry of perm to its first raises every
            # tight prefix sum of the corner by push
            push = (0.5 if kind == 2 else 2.0) * 1e-9 * np.abs(y).sum()
            x[perm[0]] += push
            x[perm[-1]] -= push
        elif kind == 4:
            x = rng.standard_normal(n)
            x += (y.sum() - x.sum()) / n
        yield x, y, d


class TestScaleCampaign:
    SCALES = [2.0 ** k for k in range(-40, 41)] + [1e-6, 1e6]

    def test_verdicts_and_certificates_at_every_scale(self):
        # x <=_d y is homogeneous: every route gives its scale-1 verdict at
        # every scale, and every positive gets a certificate inside the gate
        verdicts = {True: 0, False: 0}
        for x, y, d in _scale_cases(61):
            base = _route_verdicts(x, y, d)
            assert len(set(base)) == 1, (base, x, y, d)
            verdicts[base[0]] += 1
            for s in self.SCALES:
                assert _route_verdicts(s * x, s * y, d) == base, (s, x, y, d)
                if base[0]:
                    a = d_stochastic_transfer(s * x, s * y, d).matrix
                    assert _passes_gate(a, s * x, s * y, d), (s, x, y, d)
        assert min(verdicts.values()) >= 20, verdicts

    def test_zero_y_compares_exactly(self):
        # at ||y||_1 = 0 the tolerance is 0: only x = 0 is majorized by 0
        d = np.array([0.5, 0.3, 0.2])
        zero = np.zeros(3)
        assert _route_verdicts(zero, zero, d) == [True] * 4
        assert majorizes(zero, zero)
        assert np.array_equal(d_stochastic_transfer(zero, zero, d).matrix, np.eye(3))
        for x in ([1e-12, -1e-12, 0.0], [1.0, -1.0, 0.0], [1e-300, 0.0, 0.0]):
            assert _route_verdicts(np.array(x), zero, d) == [False] * 4
            assert not majorizes(x, zero)

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3])
    def test_reproducer_is_negative_at_every_scale(self, s):
        # x leaves y's polytope by 1e-3 * ||y||_1; an absolute floor of 1e-9
        # accepted it at s = 1e-6
        x, y = s * np.array([0.501, 0.3, 0.199]), s * np.array([0.5, 0.3, 0.2])
        assert _route_verdicts(x, y, np.ones(3)) == [False] * 4
        assert not majorizes(x, y)


class TestRatioOverflow:
    # x is a permutation of y, so x <=_d y holds for every d; at d = 1e-10 e
    # the ratios y / d overflow to inf, and the curve route once broke their
    # tie by index and answered False
    X, Y = np.array([2e300, 1e300]), np.array([1e300, 2e300])

    def test_permuted_pair_holds_where_the_ratios_fit(self):
        assert _route_verdicts(self.X, self.Y, np.ones(2)) == [True] * 4

    @pytest.mark.parametrize("method", D_MAJORIZE_METHODS)
    def test_overflowing_ratios_are_refused(self, method):
        with pytest.raises(ValueError, match="finite"):
            d_majorizes(self.X, self.Y, [1e-10, 1e-10], method=method)
        with pytest.raises(ValueError, match="finite"):
            thermo_curve(self.Y, [1e-10, 1e-10])

    @pytest.mark.parametrize("d", [[5e-324, 0.5, 0.5], [1e-320, 0.5, 0.5]])
    def test_subnormal_weight_is_refused_everywhere(self, d):
        from dmajor.polytope import max_corner, vertices
        from dmajor.reach import majorization_envelope

        x, y = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])
        for call in (lambda: d_majorizes(x, y, d), lambda: d_stochastic_transfer(x, y, d),
                     lambda: thermo_curve(y, d), lambda: halfspace_bounds(y, d),
                     lambda: vertices(y, d), lambda: max_corner(y, d),
                     lambda: majorization_envelope(x, d, sample_count=0)):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_is_refused_at_every_position(self, bad):
        # the guard reads lists, and max over a list passes a NaN by unless
        # it comes first: each entry gets its own finiteness test
        x, y, d = [0.2, 0.3, 0.5], [0.5, 0.3, 0.2], [1.0, 2.0, 3.0]
        for i in range(3):
            for which in range(3):
                args = [list(v) for v in (x, y, d)]
                args[which][i] = bad
                for method in D_MAJORIZE_METHODS:
                    with pytest.raises(ValueError, match="finite"):
                        d_majorizes(*args, method=method)
                with pytest.raises(ValueError, match="finite"):
                    d_stochastic_transfer(*args)
                with pytest.raises(ValueError, match="finite"):
                    thermo_curve(*((args[which], d) if which < 2 else (y, args[2])))
                if which < 2:
                    for call in (majorizes, doubly_stochastic_transfer,
                                 column_stochastic_transfer):
                        with pytest.raises(ValueError, match="finite"):
                            call(*args[:2])

    def test_classical_routes_guard_the_range(self):
        # x = y near the float range: x < x holds, but its sums overflow;
        # the classical routes take the guard at d = e, as --d [1, 1] does
        big = [1e308, 1e308]
        for call in (majorizes, doubly_stochastic_transfer, column_stochastic_transfer):
            with pytest.raises(ValueError, match="must stay finite"):
                call(big, big)
        with pytest.raises(ValueError, match="must stay finite"):
            d_majorizes(big, big, [1.0, 1.0])
        half = [v / 4 for v in big]
        assert majorizes(half, half) and d_majorizes(half, half, [1.0, 1.0])
        assert np.array_equal(doubly_stochastic_transfer(half, half).matrix, np.eye(2))

    def test_large_entries_within_the_range_pass(self):
        d = np.array([0.2, 0.3, 0.5])
        y = np.array([1e300, 1e300, 1.0])
        assert thermo_curve(y, d).f[-1] == y.sum()
        assert d_majorizes(y[::-1], y, np.ones(3))


class TestDStochasticTransfer:
    def test_identity_case(self):
        y = np.array([0.3, 0.4])
        out = d_stochastic_transfer(y, y, [1.0, 2.0])
        assert np.array_equal(out.matrix, np.eye(2))

    def test_minimal_target_gives_rank_one(self):
        y = np.array([0.1, 0.7, 0.2])
        d = np.array([3.0, 2.0, 1.0])
        x = (y.sum() / d.sum()) * d
        out = d_stochastic_transfer(x, y, d)
        assert np.allclose(out.matrix, np.outer(d, np.ones(3)) / d.sum())

    def test_known_certificate_is_valid(self):
        d = np.array([3.0, 2.0, 1.0])
        a = np.array([[0, 1, 1], [2 / 3, 0, 0], [1 / 3, 0, 0]])
        assert np.allclose(a.sum(axis=0), 1.0)
        assert np.allclose(a @ d, d)
        assert np.allclose(a @ np.array([0, 2 / 3, 1 / 3]), [1, 0, 0])
        out = d_stochastic_transfer([1, 0, 0], [0, 2 / 3, 1 / 3], d)
        out.validate(entry_tol=1e-8, sum_tol=1e-8)

    def test_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = rng.integers(2, 6)
            d = rng.uniform(0.2, 2.0, size=n)
            y = rng.standard_normal(n)
            x = random_d_stochastic(d, rng) @ y
            out = d_stochastic_transfer(x, y, d)
            a = out.matrix
            assert a.min() >= -1e-12
            assert np.abs(a.sum(axis=0) - 1).max() <= 1e-8
            assert np.abs(a @ d - d).sum() <= 1e-8
            assert np.abs(a @ y - x).sum() <= 1e-8

        # interior points, polytope corners, edge midpoints, corners moved by
        # +-1e-12 relative and corners pushed out of the polytope, at n = 2..8
        # and scales 1e-6, 1, 1e6: the four verdict routes agree, and every
        # positive verdict gets a certificate matching to 1e-10 relative
        rng = np.random.default_rng(15)
        positives = 0
        for trial in range(900):
            n = int(rng.integers(2, 9))
            scale = (1e-6, 1.0, 1e6)[trial % 3]
            d = rng.uniform(0.2, 2.0, size=n)
            if trial % 7 == 0:
                d[-1] = d[0]                                # tied weights
            y = scale * rng.standard_normal(n)
            if trial % 11 == 0:
                y[-1] = y[0]                                # tied entries
            poly = halfspace_bounds(y, d)
            corner = vertex_for_permutation(rng.permutation(n), poly)
            kind = (trial // 3) % 5
            if kind == 0:
                x = random_d_stochastic(d, rng) @ y
            elif kind == 1:
                x = corner
            elif kind == 2:
                x = (corner + vertex_for_permutation(rng.permutation(n), poly)) / 2
            elif kind == 3:
                x = corner * (1.0 + rng.choice([-1e-12, 1e-12], size=n))
            else:
                # well outside at every scale, also where the tolerance is absolute
                push = 1e-3 * max(1.0, 1.0 / np.abs(y).sum())
                x = corner + push * (corner - minimal_element(y.sum(), d))
            verdicts = {d_majorizes(x, y, d, method=m) for m in D_MAJORIZE_METHODS}
            verdicts.add(contains(x, poly))
            assert len(verdicts) == 1, (trial, verdicts)
            if not verdicts.pop():
                continue
            positives += 1
            out = d_stochastic_transfer(x, y, d)
            assert (out.n_t_transforms or 0) <= 2 * n - 2
            a = out.matrix
            assert a.min() >= -1e-12
            assert np.abs(a.sum(axis=0) - 1).max() <= 1e-10
            assert np.abs(a @ d - d).sum() <= 1e-10 * d.sum()
            assert np.abs(a @ y - x).sum() <= 1e-10 * np.abs(y).sum()
        assert positives == 720

    def test_chain_matches_array_chain(self, monkeypatch):
        # the chain on floats takes the steps of the chain on arrays, and its
        # entries (all in [0, 1]) agree to 1e-14
        inputs = []
        chain = majorize._t_transform_chain

        def recorded(xs, ys, w, rows):
            inputs.append((xs, ys, w))
            return chain(xs, ys, w, rows)

        monkeypatch.setattr(majorize, "_t_transform_chain", recorded)
        for x, y, d in _weighted_cases(6):
            if d_majorizes(x, y, d):
                d_stochastic_transfer(x, y, d)
        for x, y in _classical_cases(7, 300):
            doubly_stochastic_transfer(x, y)
        assert len(inputs) >= 500
        for xs, ys, w in inputs:
            a, count = chain(xs, ys, w, np.eye(len(xs)).tolist())
            ref, ref_count = _array_chain(*map(np.array, (xs, ys, w)))
            assert count == ref_count
            assert np.abs(a - ref).max() <= 1e-14

    def test_certificate_under_rescaled_weights(self):
        # d-majorization ignores the scale of d; at d 2^k the chain computes
        # the same certificate bit for bit, and it passes the gate
        rng = np.random.default_rng(16)
        for trial in range(24):
            n = 2 + trial % 7
            d = rng.uniform(0.2, 2.0, size=n)
            y = rng.dirichlet(np.ones(n))
            if trial % 2:
                x = random_d_stochastic(d, rng) @ y
            else:
                x = vertex_for_permutation(rng.permutation(n), halfspace_bounds(y, d))
            base = d_stochastic_transfer(x, y, d).matrix
            for k in range(-40, 41):
                dk = 2.0 ** k * d
                a = d_stochastic_transfer(x, y, dk).matrix
                assert np.array_equal(a, base)
                assert a.min() >= -1e-8
                assert np.abs(a.sum(axis=0) - 1).max() <= 1e-8
                assert np.abs(a @ dk - dk).sum() <= 1e-8 * max(1.0, dk.sum())
                assert np.abs(a @ y - x).sum() <= 1e-8 * max(1.0, np.abs(y).sum())

    def test_fixed_point_check_scales_with_weights(self):
        # A d off by 1e-6 e^T d at e^T d = 1e8 is rejected, 1e-9 e^T d is not
        d = np.array([5e7, 3e7, 2e7])
        for excess, ok in ((1e-6, False), (1e-9, True)):
            delta = excess * d.sum() / (2 * d[1])
            a = np.eye(3)
            a[0, 1], a[1, 1] = delta, 1.0 - delta   # moves delta of column 1 up
            cert = StochasticMatrix(a, "d-stochastic", d=d)
            if ok:
                cert.validate(entry_tol=1e-8, sum_tol=1e-8)
            else:
                with pytest.raises(ValueError, match="not a fixed point"):
                    cert.validate(entry_tol=1e-8, sum_tol=1e-8)

    def test_residual_gate_ignores_weight_total(self, monkeypatch):
        # with the chain replaced by the identity, the summed piece rows are
        # still d-stochastic but map y to a point ||A y - x||_1 = 0.2 away,
        # which the gate must reject however large e^T d is
        monkeypatch.setattr(majorize, "_t_transform_chain",
                            lambda xs, ys, w, rows: (rows, 0))
        x = np.array([0.4, 0.35, 0.25])
        y = np.array([0.5, 0.3, 0.2])
        for scale in (1.0, 1e8):
            with pytest.raises(TransferSynthesisError, match="residual"):
                d_stochastic_transfer(x, y, np.full(3, scale))

    def test_rejects_non_majorized(self):
        with pytest.raises(ValueError):
            d_stochastic_transfer([1.0, 0.0], [0.5, 0.5], [1.0, 5.0])


def _union_layout(d, px, py):
    """The refinement as laid out before the two-pointer merge: the union of
    both layouts' ends, each piece's entries found by binary search.  The
    ends are exact fractions here; as rounded cumulative sums, a weight below
    the rounding of e^T d got a width of zero or of an ulp, far from its own,
    and its column of the certificate did not sum to 1."""
    ends = [list(accumulate(Fraction(v) for v in d[p])) for p in (px, py)]
    cuts = sorted(set(ends[0]) | set(ends[1]))
    starts = [Fraction(0)] + cuts[:-1]
    ix, iy = (p[[bisect_right(e, s) for s in starts]] for p, e in zip((px, py), ends))
    return np.array([float(c - s) for c, s in zip(cuts, starts)]), ix, iy


def _product_certificate(x, y, d, tol=1e-9):
    """The d-stochastic certificate as assembled before the chain ran on
    rows: merge @ chain @ split on the union layout, after the identity and
    minimal-element shortcuts."""
    n = x.size
    eps = 1e-3 * tol * np.abs(y).sum()
    if np.abs(x - y).sum() <= eps:
        return np.eye(n)
    if np.abs(x - (y.sum() / d.sum()) * d).sum() <= eps:
        return np.outer(d, np.ones(n)) / d.sum()
    w, ix, iy = _union_layout(d, ratio_order(x, d), ratio_order(y, d))
    pieces = np.arange(w.size)
    split = np.zeros((w.size, n))
    split[pieces, iy] = w / d[iy]
    merge = np.zeros((n, w.size))
    merge[ix, pieces] = 1.0
    chain, _ = _array_chain(x[ix] * w / d[ix], split @ y, w)
    return merge @ chain @ split


def _refinement_cases(seed):
    """Seeded (x, y, d) at n = 2..8 and scales 2^k, k in [-40, 40], with
    signed y: tied ratios in both layouts, integer weights whose ends
    coincide across the layouts, one weight below the rounding of e^T d,
    and plain draws.  x is mostly a d-stochastic image of y."""
    rng = np.random.default_rng(seed)
    for trial in range(480):
        n = 2 + trial % 7
        kind = trial % 4
        d = rng.integers(1, 4, size=n).astype(float) if kind == 1 else rng.uniform(0.2, 2.0, n)
        if kind == 2:
            d[rng.integers(n)] = 1e-20 * d.sum()
        y = rng.standard_normal(n)
        if kind == 0:
            y[-1] = y[0] * d[-1] / d[0]
            # a mixture of y and the minimal element keeps y's ties
            x = 0.5 * y + 0.5 * minimal_element(y.sum(), d)
        elif trial % 5 == 4:
            x = rng.standard_normal(n)
            x += (y.sum() - x.sum()) / n
        else:
            x = random_d_stochastic(d, rng) @ y
        s = 2.0 ** int(rng.integers(-40, 41))
        yield s * x, s * y, d, s


class TestRefinement:
    def test_merge_matches_union_layout(self):
        for x, y, d, _ in _refinement_cases(71):
            px, py = ratio_order(x, d), ratio_order(y, d)
            w, ix, iy = _union_layout(d, px, py)
            pieces = _pieces(d.tolist(), px.tolist(), py.tolist())
            assert pieces == list(zip(w.tolist(), ix.tolist(), iy.tolist()))

    def test_certificate_matches_products(self):
        # the row chain stays within 1e-14 of merge @ chain @ split, and
        # returns the certificate of (x, y) at every (2^k x, 2^k y).  A weight
        # below the rounding of e^T d gets a zero-width piece of its own
        # weight, so its column sums to 1 and the certificate passes the gate
        positives = tiny = 0
        for x, y, d, s in _refinement_cases(72):
            verdict = d_majorizes(x, y, d)
            assert d_majorizes(x / s, y / s, d) == verdict
            if not verdict:
                continue
            positives += 1
            tiny += d.min() < 1e-16 * d.sum()
            ref = _product_certificate(x, y, d)
            assert np.abs(ref.sum(axis=0) - 1.0).max() <= 1e-8
            a = d_stochastic_transfer(x, y, d).matrix
            assert np.abs(a - ref).max() <= 1e-14
            assert np.array_equal(d_stochastic_transfer(x / s, y / s, d).matrix, a)
        assert positives >= 400 and tiny >= 47

    def test_bit_identical_at_uniform_weights(self):
        # at d = e the certificate is the sorted assembly's, at every scale
        compared = 0
        for x, y, _, s in _refinement_cases(73):
            if not majorizes(x / s, y / s):
                continue
            a = d_stochastic_transfer(x, y, np.ones(x.size)).matrix
            assert np.array_equal(doubly_stochastic_transfer(x, y).matrix, a)
            ref = _sorted_assembly(x / s, y / s)
            if ref is not None:
                compared += 1
                assert np.array_equal(a, ref[0])
        assert compared >= 200


def _parent_pieces(d, px, py):
    """_pieces as it merged its layouts with min: the reference for the
    explicit comparisons."""
    ratios = [v.as_integer_ratio() for v in d]
    den = max(q for _, q in ratios)
    scaled = [p * (den // q) for p, q in ratios]
    ex, ey = (list(accumulate(scaled[i] for i in p)) for p in (px, py))
    out, start, i, j = [], 0, 0, 0
    while i < len(d):
        end = min(ex[i], ey[j])
        out.append(((end - start) / den, px[i], py[j]))
        start, i, j = end, i + (ex[i] == end), j + (ey[j] == end)
    return out


def _parent_t_transform_chain(xs, ys, w, rows):
    """_t_transform_chain as it rescanned for j from the end after every
    T-transform, finding j and k with next(genexpr)."""
    m = len(xs)
    a, y = list(rows), list(ys)
    diff = [yi - xi for yi, xi in zip(y, xs)]
    small = 1e-13 * sum(map(abs, ys))
    for count in range(m):
        j = next((i for i in reversed(range(m)) if diff[i] > small), m)
        k = next((i for i in range(j + 1, m) if diff[i] < -small), None)
        if k is None:
            return a, count
        lam = min(diff[j], -diff[k]) / (y[j] * w[k] - y[k] * w[j])
        t00, t01, t10, t11 = 1.0 - lam * w[k], lam * w[j], lam * w[k], 1.0 - lam * w[j]
        a[j], a[k] = ([t00 * u + t01 * v for u, v in zip(a[j], a[k])],
                      [t10 * u + t11 * v for u, v in zip(a[j], a[k])])
        y[j], y[k] = t00 * y[j] + t01 * y[k], t10 * y[j] + t11 * y[k]
        diff[j], diff[k] = y[j] - xs[j], y[k] - xs[k]
    return a, m


def _parent_residual(rows, v, u):
    return sum(abs(sum(r * s for r, s in zip(row, v)) - w) for row, w in zip(rows, u))


def _parent_chain_rows(x, y, d, tol):
    """_chain_rows as it built its pieces' rows, masses and widths in three
    comprehensions: the reference for its rows, count and refusals."""
    n = len(x)
    eps = tol * 1e-3 * sum(map(abs, y))
    if sum(abs(u - v) for u, v in zip(x, y)) <= eps:
        return [[float(i == j) for j in range(n)] for i in range(n)], 0
    total = sum(d)
    mean = sum(y) / total
    if sum(abs(u - mean * v) for u, v in zip(x, d)) <= eps:
        return [[v / total] * n for v in d], 0
    pieces = _parent_pieces(d, majorize._ratio_order(x, d), majorize._ratio_order(y, d))
    rows = [[0.0] * j + [w / d[j]] + [0.0] * (n - 1 - j) for w, _, j in pieces]
    rows, count = _parent_t_transform_chain(
        [x[i] * w / d[i] for w, i, _ in pieces],
        [row[j] * y[j] for row, (_, _, j) in zip(rows, pieces)], [w for w, _, _ in pieces], rows)
    a = [[0.0] * n for _ in range(n)]
    for (_, i, _), row in zip(pieces, rows):
        a[i] = [u + v for u, v in zip(a[i], row)]
    majorize._check_stochastic(a, "d-stochastic", d, entry_tol=1e-8, sum_tol=1e-8)
    residual = _parent_residual(a, y, x)
    gate = max(tol, 1e-8)
    if residual > gate * sum(map(abs, y)):
        raise TransferSynthesisError(f"certificate residual {residual:.3e} exceeds {gate:.0e}")
    return a, count


def _outcome(kernel, *args):
    """The rows (as bytes, so signs of zeros count) and count of a chain
    kernel, or the class and message of its refusal."""
    try:
        rows, count = kernel(*args)
    except Exception as exc:                            # compared, not swallowed
        return type(exc), str(exc)
    return np.array(rows).tobytes(), count


def _kernel_cases(seed):
    """Seeded validated (x, y, d) at n = 1..8 and scales 1e-6..1e6: d = e,
    random weights and one weight below the rounding of e^T d; x a
    d-stochastic image of y, y itself (identity shortcut), the minimal
    element, a mixture with it, or a free draw of y's total."""
    rng = np.random.default_rng(seed)
    for trial in range(1200):
        n = 1 + trial % 8
        kind = trial // 8 % 3
        d = np.ones(n) if kind == 0 else rng.uniform(0.2, 2.0, n)
        if kind == 2:
            d[rng.integers(n)] = 1e-20 * d.sum()
        y = rng.dirichlet(np.ones(n)) * 10.0 ** int(rng.integers(-6, 7))
        if trial % 13 == 0:
            y = y - y.mean()
        pick = trial % 5
        if pick == 0:
            x = y.copy()
        elif pick == 1:
            x = (y.sum() / d.sum()) * d
        elif pick == 2:
            x = 0.5 * y + 0.5 * (y.sum() / d.sum()) * d
        elif pick == 3:
            x = random_d_stochastic(d, rng) @ y
        else:
            x = rng.dirichlet(np.ones(n)) * y.sum()
        yield majorize._validated(x, y, d)


class TestCertificateKernels:
    def test_pieces_match_the_parent_merge(self):
        for x, y, d in _kernel_cases(81):
            px, py = majorize._ratio_order(x, d), majorize._ratio_order(y, d)
            assert _pieces(d, px, py) == _parent_pieces(d, px, py)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    def test_chain_rows_match_the_parent_kernel(self, tol):
        # every positive and negative of the campaign: equal bytes and
        # counts, or the same refusal
        outcomes = set()
        for x, y, d in _kernel_cases(82):
            ref = _outcome(_parent_chain_rows, x, y, d, tol)
            assert _outcome(majorize._chain_rows, x, y, d, tol) == ref
            outcomes.add("raised" if isinstance(ref[0], type) else ref[1] > 0)
        assert outcomes == {"raised", True, False}

    def test_chain_matches_the_parent_chain(self):
        for x, y, d in _kernel_cases(83):
            n = len(x)
            rows = [[float(i == j) for j in range(n)] for i in range(n)]
            args = (x, y, d, rows)
            ref = _outcome(_parent_t_transform_chain, *args)
            assert _outcome(_t_transform_chain, *args) == ref


class TestResumingChain:
    """_t_transform_chain resumes its scan for j at k or j; the rescanning
    chain is the reference for every call the certificates make."""

    def _compare_calls(self, monkeypatch):
        chain, counts = majorize._t_transform_chain, []

        def compared(*args):
            ref = _outcome(_parent_t_transform_chain, *args)
            got = chain(*args)
            assert (np.array(got[0]).tobytes(), got[1]) == ref
            counts.append(got[1])
            return got

        monkeypatch.setattr(majorize, "_t_transform_chain", compared)
        return counts

    def test_seeded_certify_record(self, monkeypatch):
        import json
        from pathlib import Path

        counts = self._compare_calls(monkeypatch)
        record = json.loads((Path(__file__).parent / "data" / "seeded_certify.json").read_text())
        assert {item["n"] for item in record} == set(range(2, 9))
        for item in record:
            if item["certificate"] is not None:
                d_stochastic_transfer(item["x"], item["y"], item["d"])
            doubly_stochastic_transfer(item["xc"], item["y"])
        assert len(counts) >= len(record) and max(counts) >= 8

    def test_scale_campaign(self, monkeypatch):
        counts = self._compare_calls(monkeypatch)
        for x, y, d in _scale_cases(61):
            if d_majorizes(x, y, d):
                for s in TestScaleCampaign.SCALES:
                    d_stochastic_transfer(s * x, s * y, d)
        assert len(counts) > 1000 and max(counts) >= 5


def _column_cases(seed):
    """Seeded valid (x, y) at n = 2..32: y indefinite, definite of either
    sign or with null entries; x an equal-total point inside ||y||_1, a
    point 3e-11 * ||y||_1 past it, or y moved by 1e-14 of its norm."""
    rng = np.random.default_rng(seed)
    for trial in range(31 * 12):
        n = 2 + trial % 31
        y = rng.standard_normal(n)
        kind = trial // 31 % 4
        if kind == 1:
            y = np.abs(y) * (1.0 if trial % 2 else -1.0)
        elif kind == 2:
            y[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
        x = rng.standard_normal(n)
        x += (y.sum() - x.sum()) / n
        while np.abs(x).sum() > np.abs(y).sum():
            x = 0.7 * x + 0.3 * y.sum() / n
        if trial // 124 == 1:
            # a permutation of y with 1.5e-11 * ||y||_1 moved from its
            # smallest entry (pushed below 0) to its largest
            sign = 1.0 if y.sum() >= 0 else -1.0
            x = sign * rng.permutation(y)
            i, j = np.argmax(x), np.argmin(x)
            move = max(0.0, x[j]) + 1.5e-11 * np.abs(y).sum()
            x[i] += move
            x[j] -= move
            x *= sign
        elif trial // 124 == 2:
            x = y + 1e-14 * np.abs(y).sum() * rng.standard_normal(n)
            x += (y.sum() - x.sum()) / n
        yield x, y


# the spectra of TestChannelBetween::test_tolerance_level_excess_over_definite_b
_DEFINITE_EXCESS = (([0.7 + 4e-10, 0.3, -4e-10], [0.5, 0.3, 0.2]),
                    ([-0.7 - 4e-10, -0.3, 4e-10], [-0.5, -0.3, -0.2]),
                    ([1.5 + 2e-10, 0.5, -2e-10 - 1e-12], [1.0, 1.0, -1e-12]))


def _within_ulps(got, ref, ulps=2):
    return bool((np.abs(got - ref) <= ulps * np.spacing(np.abs(ref))).all())


class TestColumnKernel:
    """The list kernel of column_stochastic_transfer against the array form
    it replaced (helpers.array_column_transfer and array_within_norm)."""

    def test_np_sum_is_numpys(self):
        rng = np.random.default_rng(71)
        for n in list(range(1, 40)) + [127, 128, 129, 300]:
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            v[rng.random(n) < 0.2] = 0.0
            assert majorize._np_sum(v.tolist()) == np.sum(v)
            assert str(majorize._np_sum([-0.0] * n)) == str(np.sum(np.full(n, -0.0)))

    def test_within_norm_matches_the_array_form(self):
        for x, y in [*_column_cases(72), *map(lambda c: map(np.array, c), _DEFINITE_EXCESS)]:
            (p, bound), (q, _) = majorize._within_norm(x.tolist(), y.tolist())
            z = array_within_norm(x, y)
            assert np.subtract(p, q).tobytes() == z.tobytes()
            assert np.array(p).tobytes() == np.maximum(z, 0.0).tobytes()
            assert bound == np.maximum(y, 0.0).sum()

    def test_matrix_within_two_ulps(self):
        kinds = set()
        for x, y in _column_cases(73):
            got = column_stochastic_transfer(x, y).matrix
            assert _within_ulps(got, array_column_transfer(x, y)), (x, y)
            kinds.add("I" if np.array_equal(got, np.eye(y.size)) else len({*map(tuple, got.T)}))
        assert kinds == {1, 2, 3, "I"}, kinds

    def test_channel_path_within_two_ulps(self):
        # channel_between moves A's spectrum into ||B||_1 first, then calls
        # the kernel: the array form applied the shift-and-scale twice
        for x, y in [*_column_cases(74), *map(lambda c: map(np.array, c), _DEFINITE_EXCESS)]:
            (p, _), (q, _) = majorize._within_norm(x.tolist(), y.tolist())
            got = np.array(majorize._column_rows(np.subtract(p, q).tolist(), y.tolist(), 1e-9))
            assert _within_ulps(got, array_column_transfer(array_within_norm(x, y), y)), (x, y)

    def test_kernel_checks_each_distinct_column_once(self, monkeypatch):
        seen = []
        check = majorize._check_stochastic
        monkeypatch.setattr(majorize, "_check_stochastic",
                            lambda rows, *args, **kw: seen.append(len(rows[0])) or check(rows, *args, **kw))
        column_stochastic_transfer([0.1, 0.1, 0.1, 0.1], [0.6, -0.4, 0.0, 0.2])
        assert seen == [3]


def _parent_entries(x):
    if isinstance(x, (list, tuple)) and x and all(map(majorize._plain, x)):
        return [float(v) for v in x]
    v = majorize.as_real_array(x)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-d real vector")
    return v.tolist()


def _parent_validated(*vectors):
    """_validated as it ran its tests one after another: the reference for
    the precedence of its refusals."""
    *vs, d = vectors
    vs = [_parent_entries(v) for v in vs]
    n = len(vs[0])
    weights = [1.0] * n if d is None else _parent_entries(d)
    majorize._check_finite([v for u in (*vs, weights) for v in u])
    if min(weights) <= 0:
        raise ValueError("weight vector entries must be strictly positive")
    if any(len(v) != n for v in vs):
        raise ValueError("x and y must have equal length")
    if len(weights) != n:
        raise ValueError("vectors and weights d must have equal length")
    top = max(abs(v) for u in vs for v in u)
    low, high = min(weights), max(weights)
    if not 2 * n * max(top / low, 1.0) * high <= 1.7976931348623157e308:
        raise ValueError(f"entries up to {top:.3g} over weights d in [{low:.3g}, {high:.3g}] "
                         "must stay finite")
    return (*vs, weights)


NAN, INF, TINY = float("nan"), float("inf"), 5e-324
# (x, y, d), d None for e, and the start of the parent's message (None: accepted)
REFUSALS = {
    "nan-and-wrong-length": (([NAN, 1.0, 2.0], [1.0, 2.0], [1.0, 1.0, 1.0]), "vector entries"),
    "nan-late-and-zero-weight": (([1.0, NAN], [1.0, 1.0], [0.0, 1.0]), "vector entries"),
    "inf-weight": (([1.0, 1.0], [1.0, 1.0], [1.0, INF]), "vector entries"),
    "zero-weight-and-wrong-length": (([1.0, 1.0], [1.0], [0.0, 1.0]), "weight vector"),
    "wrong-length": (([1.0, 1.0], [1.0, 1.0, 0.0], None), "x and y"),
    "wrong-weight-length": (([1.0, 1.0], [1.0, 1.0], [1.0]), "vectors and weights"),
    "subnormal-weight-overflow": (([1.0, 0.0], [0.5, 0.5], [TINY, 1.0]), "entries up to"),
    "subnormal-weight-zero-vectors": (([0.0, -0.0], [0.0, 0.0], [TINY, 1.0]), None),
    "overflow-bound": (([1e308, 0.0], [1e308, 0.0], None), "entries up to"),
    "overflow-by-weights": (([1.0, 1.0], [1.0, 1.0], [1e307, 1e308]), "entries up to"),
    "below-the-bound": (([4e307, 0.0], [4e307, 0.0], None), None),
    "sum-past-the-range": (([4e307, 4e307], [4e307, 4e307], None), None),
    "weights-sum-past-the-range": (([1.0, 1.0], [1.0, 1.0], [2e307, 2e307]), None),
    "boolean": (([True, False], [0.5, 0.5], None), "expected real numbers"),
    "boolean-weight": (([1.0, 0.0], [0.5, 0.5], [True, True]), "expected real numbers"),
    # an array of them is a float array
    "boolean-among-floats": (([True, 0.0], [0.5, 0.5], None),
                             {"list": "expected real numbers", "tuple": "expected real numbers"}),
    "float32": ((np.array([0.25, 0.75], np.float32), [0.5, 0.5], [1.0, 3.0]), None),
    "float32-nan": ((np.array([NAN, 0.75], np.float32), [0.5], [1.0, 3.0]), "vector entries"),
    "int": (([1, 3], [2, 2], [1, 2]), None),
    "int-beyond-int64": (([2 ** 70, 0], [2 ** 70, 0], None), "expected real numbers"),
    "two-d": (([[0.5, 0.5]], [0.5, 0.5], None), "expected a non-empty 1-d"),
    "two-d-weights": (([0.5, 0.5], [0.5, 0.5], [[1.0, 1.0]]), "expected a non-empty 1-d"),
    "empty": (([], [], None), "expected a non-empty 1-d"),
    "big-endian": ((np.array([0.25, 0.75], ">f8"), [0.5, 0.5], None), None),
}


def _as(form, v):
    if v is None or isinstance(v, np.ndarray) and form != "ndarray":
        return v
    return {"list": list, "tuple": tuple, "ndarray": np.array}[form](v)


def _validation(fn, args):
    try:
        return fn(*args)
    except Exception as exc:                            # compared, not swallowed
        return type(exc), str(exc)


# vectors in every form a caller may pass: a native float64 vector is taken
# as it is, everything else goes through the gate
VECTORS = [
    np.array([0.25, 0.75]), np.arange(5.0)[::2], np.ones(1), np.array([0.5, 0.5], ">f8"),
    np.array([0.5, 0.5], np.float32), np.array([1, 2]), np.array([True, False]),
    np.array([[0.5, 0.5]]), np.array([]), np.array(0.5), np.array([NAN, 1.0]),
    np.array([1.0, INF]), np.array([-0.0, 1e308]), np.array([TINY, -TINY]),
    [0.25, 0.75], (1, 2), [1, 2.5], [True, 0.5], [2 ** 70, 1], [[0.5]], [], [NAN], [1.0, -INF],
    np.array([1 + 0j]), ["0.5"], "0.5", 0.5, None,
]


class TestAsVector:
    @pytest.mark.parametrize("x", VECTORS, ids=repr)
    def test_matches_the_array_reference(self, x):
        # the same array (dtype, bytes and identity) or the same refusal
        assert reader_outcome(as_vector, x) == reader_outcome(array_as_vector, x)

    def test_read_only_and_strided_arrays_pass_as_they_are(self):
        x = np.arange(8.0)[1::3]
        x.setflags(write=False)
        assert as_vector(x) is x
        assert as_vector(x[::-1]).base is x.base


class TestValidatedPrecedence:
    @pytest.mark.parametrize("form", ["list", "tuple", "ndarray"])
    @pytest.mark.parametrize("name", list(REFUSALS))
    def test_refusal_matches_the_parent(self, name, form):
        vectors, message = REFUSALS[name]
        if isinstance(message, dict):
            message = message.get(form)
        args = [_as(form, v) for v in vectors]
        got = _validation(majorize._validated, args)
        assert got == _validation(_parent_validated, args)
        if message is None:
            assert all(type(v) is float for u in got for v in u)
        else:
            assert got[0] is ValueError and got[1].startswith(message)

    def test_float64_arrays_read_as_lists(self):
        rng = np.random.default_rng(84)
        for n in range(1, 9):
            x, y, d = rng.standard_normal(n), rng.standard_normal(n), rng.uniform(0.1, 2.0, n)
            for args in ((x, y, d), (x, y, None), (y, d)):
                got = majorize._validated(*args)
                assert got == _parent_validated(*args)
                assert all(type(v) is float for u in got for v in u)


class TestDefinitionalOracle:
    def test_verdicts_match_lp_feasibility(self):
        # definitional oracle: a verdict is positive iff the transfer system
        # A >= 0, A y = x, A d = d, unit column sums is LP-feasible
        from scipy.optimize import linprog

        def lp_feasible(x, y, d):
            n = len(x)
            rows, rhs = [], []
            for i in range(n):
                r = np.zeros(n * n)
                r[i * n:(i + 1) * n] = y
                rows.append(r)
                rhs.append(x[i])
            for i in range(n):
                r = np.zeros(n * n)
                r[i * n:(i + 1) * n] = d
                rows.append(r)
                rhs.append(d[i])
            for j in range(n):
                r = np.zeros(n * n)
                r[j::n] = 1.0
                rows.append(r)
                rhs.append(1.0)
            res = linprog(np.zeros(n * n), A_eq=np.array(rows), b_eq=np.array(rhs),
                          bounds=[(0, None)] * (n * n), method="highs")
            return res.status == 0

        rng = np.random.default_rng(99)
        for trial in range(150):
            n = int(rng.integers(2, 5))
            d = rng.uniform(0.1, 3.0, size=n)
            y = rng.standard_normal(n)
            if trial % 3 == 0:
                x = random_d_stochastic(d, rng) @ y
            else:
                x = rng.standard_normal(n)
                x += (y.sum() - x.sum()) / n
            assert d_majorizes(x, y, d) == lp_feasible(x, y, d)


class TestContraction:
    def test_all_transfer_kinds_contract_one_norm(self):
        rng = np.random.default_rng(21)
        produced = []
        y = rng.standard_normal(4)
        perms = [rng.permutation(4) for _ in range(3)]
        x = sum(w * y[p] for w, p in zip(rng.dirichlet(np.ones(3)), perms))
        produced.append(doubly_stochastic_transfer(x, y).matrix)
        x2 = 0.5 * x + 0.5 * (y.sum() / 4)
        produced.append(column_stochastic_transfer(x2, y).matrix)
        d = rng.uniform(0.2, 2.0, size=4)
        x3 = random_d_stochastic(d, rng) @ y
        produced.append(d_stochastic_transfer(x3, y, d).matrix)
        for a in produced:
            for _ in range(20):
                z = rng.standard_normal(4)
                assert np.abs(a @ z).sum() <= np.abs(z).sum() + 1e-12


class TestExtremes:
    def test_minimal_uniform(self):
        assert np.allclose(minimal_element(1.0, np.ones(4)), 0.25 * np.ones(4))

    def test_three_level_values(self):
        d = np.array([3.0, 2.0, 1.0])
        assert np.allclose(minimal_element(6.0, d), d)
        top = maximal_element(d)
        assert top.index == 2
        assert np.allclose(top.vector, [0, 0, 6])
        assert top.unique

    def test_degenerate_tie_flagged(self):
        top = maximal_element([1.0, 1.0])
        assert top.index == 0
        assert not top.unique
