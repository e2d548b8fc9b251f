import numpy as np
import pytest

from dmajor.linalg import check_square, expm, hermitian_eig
from helpers import perm_matrix


def taylor_expm(a, t):
    """Series oracle: sum t^k a^k / k! until float64 stagnation."""
    a = np.asarray(a, dtype=float)
    term = np.eye(a.shape[0])
    total = term.copy()
    for k in range(1, 200):
        term = term @ (t * a) / k
        new = total + term
        if np.array_equal(new, total):
            break
        total = new
    return total


class TestExpm:
    def test_zero_generator(self):
        assert np.allclose(expm(np.zeros((3, 3)), 7.0), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        lam = np.array([0.3, -1.2])
        out = expm(np.diag(lam), 1.0)
        assert np.allclose(out, np.diag(np.exp(lam)), atol=1e-14)

    def test_matches_taylor_series(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 3))
        t = 0.3
        bound = 1e-12 * max(1.0, np.exp(t * np.linalg.norm(a, 2)))
        assert np.max(np.abs(expm(a, t) - taylor_expm(a, t))) <= bound

    def test_semigroup_property(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            s, t = rng.uniform(0, 2, size=2)
            lhs = expm(a, s) @ expm(a, t)
            assert np.max(np.abs(lhs - expm(a, s + t))) <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)), 1.0)

    def test_rejects_overflowing_product(self):
        # a and t are finite on their own, t*a is not
        with pytest.raises(ValueError):
            expm(np.array([[0.0, -2.0], [0.0, 2.0]]), -1e308)

    def test_rejects_overflowing_result(self):
        with pytest.raises(ValueError):
            expm(np.diag([0.0, 1.0]), 1000.0)

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.inf]]), 0.0)
        with pytest.raises(ValueError):
            expm(np.eye(2), np.nan)

    def test_stacked_times_match_scalar_calls(self):
        rng = np.random.default_rng(17)
        for n in range(1, 7):
            a = rng.standard_normal((n, n))
            t = np.concatenate(([0.0], rng.uniform(-3.0, 3.0, size=12)))
            stack = expm(a, t)
            assert stack.shape == (t.size, n, n)
            for k, tk in enumerate(t):
                assert np.array_equal(stack[k], expm(a, float(tk)))
        assert expm(np.eye(3), np.array([])).shape == (0, 3, 3)

    def test_stacked_times_reject_non_finite(self):
        b0 = np.array([[0.0, -2.0], [0.0, 2.0]])
        for bad in (np.nan, np.inf, -1e308):
            with pytest.raises(ValueError):
                expm(b0, np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError):
            expm(np.diag([0.0, 1.0]), np.array([1.0, 1000.0]))
        with pytest.raises(ValueError):
            expm(np.eye(2), np.ones((2, 2)))


class TestHermitianEig:
    def test_diagonal_input_sorted(self):
        w, u = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3, 2, 1])
        assert np.allclose(np.abs(u), perm_matrix([0, 2, 1]).T)

    def test_pauli_x(self):
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [1, -1], atol=1e-14)

    def test_2x2_quadratic_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, c = rng.standard_normal(2)
            b = rng.standard_normal() + 1j * rng.standard_normal()
            h = np.array([[a, b], [np.conj(b), c]])
            mean = (a + c) / 2
            rad = np.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
            w, _ = hermitian_eig(h)
            assert np.allclose(w, [mean + rad, mean - rad], atol=1e-12)

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (m + m.conj().T) / 2
            w, u = hermitian_eig(h)
            assert np.max(np.abs(u @ np.diag(w) @ u.conj().T - h)) <= 1e-10
            assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-10
            assert np.all(np.diff(w) <= 1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCheckSquare:
    def test_shape_and_hermitian_tolerance(self):
        with pytest.raises(ValueError, match="A must be square"):
            check_square(np.zeros((2, 3)), "A")
        with pytest.raises(ValueError, match="must be square"):
            hermitian_eig(np.zeros(3))
        # square only without herm_tol; the Hermitian bound scales with the entries
        assert check_square([[0.0, 1.0], [0.0, 0.0]]).dtype == complex
        h = np.array([[1e6, 1.0], [1.0 + 1e-5, 0.0]])
        assert np.array_equal(check_square(h, herm_tol=1e-10), h)
        with pytest.raises(ValueError, match="B is not Hermitian"):
            check_square(h, "B", herm_tol=1e-12)


class TestPermutations:
    def test_identity(self):
        assert np.array_equal(perm_matrix([0, 1, 2]), np.eye(3))

    def test_swap(self):
        assert np.array_equal(perm_matrix([1, 0]), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_action_convention(self):
        p = [2, 0, 1]
        x = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(perm_matrix(p) @ x, x[np.array(p)])

    def test_composition_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = rng.permutation(5)
            q = rng.permutation(5)
            lhs = perm_matrix(p[q])
            rhs = perm_matrix(q) @ perm_matrix(p)
            assert np.array_equal(lhs, rhs)

    def test_inverse_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.permutation(6)
            assert np.array_equal(perm_matrix(p) @ perm_matrix(np.argsort(p)), np.eye(6))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            perm_matrix([0, 0, 2])

    @pytest.mark.parametrize("images", [[0.5, 1.2, 2.7], [0.0, 1.0, 2.0], ["2", "1", "0"],
                                        [True, False], []])
    def test_rejects_entries_that_are_not_integers(self, images):
        # a cast to int would truncate [0.5, 1.2, 2.7] to the identity
        with pytest.raises(ValueError, match="non-empty 1-d integer array"):
            perm_matrix(images)
