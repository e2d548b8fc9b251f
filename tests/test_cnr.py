import itertools

import numpy as np
import pytest

import dmajor.cnr
from dmajor.cnr import (
    MAX_SAMPLE_ENTRIES,
    c_numerical_range_sample,
    c_spectrum,
    haar_unitaries,
    unitary_orbit_extrema,
)
from dmajor.majorize import majorizes
from helpers import perm_matrix, stacked_trace_samples


def rand_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def rand_density(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestCSpectrum:
    def test_projector_weight_recovers_spectrum(self):
        t = np.diag([0.5, -1.5, 2.0]).astype(complex)
        c = np.diag([1.0, 0.0, 0.0]).astype(complex)
        pts = c_spectrum(c, t)
        assert np.allclose(sorted(pts.real), [-1.5, 0.5, 2.0])

    def test_two_by_two_bruteforce(self):
        pts = c_spectrum(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]))
        assert np.allclose(sorted(pts.real), [4.0, 5.0])

    def test_points_attained_by_permutation_unitaries(self):
        rng = np.random.default_rng(0)
        lc = rng.standard_normal(4)
        lt = rng.standard_normal(4)
        c = np.diag(lc).astype(complex)
        t = np.diag(lt).astype(complex)
        pts = set(np.round(c_spectrum(c, t).real, 9))
        for perm in itertools.permutations(range(4)):
            u = perm_matrix(perm).astype(complex)
            val = np.trace(c @ u.conj().T @ t @ u).real
            assert round(val, 9) in pts or \
                min(abs(val - p) for p in pts) <= 1e-8

    def test_no_two_kept_values_within_dedup_tol(self):
        # sums equal in exact arithmetic come out a few ulp apart and need not
        # be neighbours in (real, imag) order
        lc, lt = [1j, -1j, 1, 1], [1j, -1j, 2, 2]
        exact = {sum(c * lt[k] for c, k in zip(lc, p)) for p in itertools.permutations(range(4))}
        for seed in range(30):
            q = haar_unitaries(4, 1, np.random.default_rng(seed))[0]
            pts = c_spectrum(q @ np.diag(lc) @ q.conj().T, q @ np.diag(lt) @ q.conj().T)
            gaps = np.abs(pts[:, None] - pts[None, :])[~np.eye(pts.size, dtype=bool)]
            assert gaps.min() > 1e-10
            assert pts.size == len(exact)
            assert all(min(abs(z - e) for e in exact) <= 1e-9 for z in pts)
            order = np.lexsort((pts.imag, pts.real))
            assert np.array_equal(order, np.arange(pts.size))

    def test_dedup_follows_the_scale_of_the_sums(self):
        # C = diag(1, 2, 3), T = diag(0, 1, 5): six distinct sums at every
        # scale s = 2^k of C, each s times the sum at s = 1; an absolute
        # dedup_tol once merged them to two below 1e-10
        c, t = np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1.0, 5.0])
        ref = c_spectrum(c, t)
        assert ref.size == 6
        for k in range(-60, 61):
            s = 2.0 ** k
            for pts in (c_spectrum(s * c, t), c_spectrum(c, s * t)):
                assert pts.size == 6
                assert np.abs(pts - s * ref).max() <= 1e-12 * s * np.abs(ref).max()

    def test_rejects_non_normal(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            c_spectrum(bad, np.eye(2))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            c_spectrum(np.eye(8), np.eye(8))


class TestOrbitExtrema:
    def test_density_vs_projector(self):
        rng = np.random.default_rng(1)
        rho = rand_density(rng, 4)
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        for k in range(1, 5):
            proj = np.diag([1.0] * k + [0.0] * (4 - k)).astype(complex)
            ext = unitary_orbit_extrema(rho, proj)
            assert np.isclose(ext.sup, lam[:k].sum(), atol=1e-12)

    def test_psd_pair_pairings(self):
        rng = np.random.default_rng(2)
        c = rand_density(rng, 3) * 2
        t = rand_density(rng, 3) * 5
        wc = np.sort(np.linalg.eigvalsh(c))[::-1]
        wt = np.sort(np.linalg.eigvalsh(t))[::-1]
        ext = unitary_orbit_extrema(c, t)
        assert np.isclose(ext.sup, wc @ wt)
        assert np.isclose(ext.inf, wc @ wt[::-1])

    def test_brackets_haar_samples(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            c = rand_hermitian(rng, n)
            t = rand_hermitian(rng, n)
            ext = unitary_orbit_extrema(c, t)
            samples = c_numerical_range_sample(c, t, 2000, seed=n).real
            assert ext.sup >= samples.max() - 1e-9
            assert ext.inf <= samples.min() + 1e-9

    def test_extrema_attained_by_eigenbasis_alignment(self):
        rng = np.random.default_rng(4)
        c = rand_hermitian(rng, 3)
        t = rand_hermitian(rng, 3)
        from dmajor.linalg import hermitian_eig
        wc, uc = hermitian_eig(c)
        wt, ut = hermitian_eig(t)
        u = ut @ uc.conj().T
        val = np.trace(c @ u.conj().T @ t @ u).real
        assert np.isclose(val, unitary_orbit_extrema(c, t).sup, atol=1e-9)

    def test_majorization_link(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = 4
            rho = rand_density(rng, n)
            omega = rand_density(rng, n)
            lr = np.sort(np.linalg.eigvalsh(rho))[::-1]
            lo = np.sort(np.linalg.eigvalsh(omega))[::-1]
            link = all(
                unitary_orbit_extrema(rho, np.diag([1.0] * k + [0.0] * (n - k))).sup
                <= unitary_orbit_extrema(omega, np.diag([1.0] * k + [0.0] * (n - k))).sup
                + 1e-12
                for k in range(1, n + 1)
            )
            assert link == majorizes(lr, lo)


class TestHaarSampling:
    def test_unitarity(self):
        rng = np.random.default_rng(6)
        us = haar_unitaries(3, 50, rng)
        for u in us:
            assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_identity_weight_collapses_to_trace(self):
        rng = np.random.default_rng(7)
        a = rand_hermitian(rng, 3) + 1j * rand_hermitian(rng, 3)
        samples = c_numerical_range_sample(np.eye(3, dtype=complex), a, 100, seed=1)
        assert np.allclose(samples, np.trace(a), atol=1e-10)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        c = rand_hermitian(rng, 3)
        a = rand_hermitian(rng, 3)
        s1 = c_numerical_range_sample(c, a, 64, seed=11)
        s2 = c_numerical_range_sample(c, a, 64, seed=11)
        assert np.array_equal(s1, s2)

    def test_hoelder_modulus_bound(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        bound = np.linalg.svd(c, compute_uv=False).sum() * np.linalg.norm(a, 2)
        samples = c_numerical_range_sample(c, a, 3000, seed=2)
        assert np.max(np.abs(samples)) <= bound + 1e-9

    def test_star_center_in_hull(self):
        from scipy.spatial import Delaunay
        rng = np.random.default_rng(10)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        samples = c_numerical_range_sample(c, a, 10000, seed=3)
        center = np.trace(c) * np.trace(a) / 3
        cloud = np.column_stack([samples.real, samples.imag])
        hull = Delaunay(cloud)
        assert hull.find_simplex([center.real, center.imag]) >= 0

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 32])
    def test_trace_identity_matches_the_stacked_trace(self, n):
        # sum conj(U) o (A U C) against the stacked U* A U and its einsum, at
        # the same draws, for Hermitian and general pairs
        rng = np.random.default_rng(40 + n)
        for c, a in ((rand_hermitian(rng, n), rand_hermitian(rng, n)),
                     rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))):
            got = c_numerical_range_sample(c, a, 256, seed=n)
            ref = stacked_trace_samples(c, a, 256, seed=n)
            assert np.abs(got - ref).max() <= 1e-12 * np.linalg.norm(c) * np.linalg.norm(a)
            assert np.array_equal(got, c_numerical_range_sample(c, a, 256, seed=n))

    @pytest.mark.parametrize("n", [2, 32])
    def test_memory_at_the_cap(self, n):
        # the tracemalloc peak of a call at the cap, draws included, stays
        # at most 150 MiB (144.1 and 129.1 MiB measured at n = 2 and 32)
        import tracemalloc

        c = np.diag(np.arange(n, dtype=float))
        tracemalloc.start()
        try:
            samples = c_numerical_range_sample(c, c, MAX_SAMPLE_ENTRIES // n ** 2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.shape == (MAX_SAMPLE_ENTRIES // n ** 2,)
        assert peak <= 150 * 2 ** 20, peak / 2 ** 20

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_sample_cap(self, monkeypatch, n):
        # the check runs before any stack is drawn: at the cap the draw is
        # reached, one step above it nothing is
        class Reached(Exception):
            pass

        def draw(n_, count, rng):
            raise Reached(count)

        monkeypatch.setattr(dmajor.cnr, "haar_unitaries", draw)
        c = np.eye(n)
        cap = MAX_SAMPLE_ENTRIES // n ** 2
        assert cap * n ** 2 == MAX_SAMPLE_ENTRIES
        with pytest.raises(Reached):
            c_numerical_range_sample(c, c, cap)
        with pytest.raises(ValueError, match=f"exceeds the cap MAX_SAMPLE_ENTRIES = {MAX_SAMPLE_ENTRIES}"):
            c_numerical_range_sample(c, c, cap + 1)
