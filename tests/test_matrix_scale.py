"""Scale campaign for the matrix layer: every verdict of the channel,
normality, Hermiticity and generator checks is the same for (s·A, s·B) as
for (A, B), at s = 2^k, k in [-40, 40], and at s = 1e-9 and 1e9.  Each
tolerance is relative to the norm of the data it checks, with no floor."""

import numpy as np
import pytest

from dmajor.channels import (
    SuperOperator,
    channel_between,
    d_matrix_majorizes_2x2,
    is_cp,
    is_strictly_positive,
    is_tp,
    kernel_block_form,
    matrix_majorizes,
    pure_state_reachable,
    trace_norm,
)
from dmajor.cnr import c_spectrum
from dmajor.dissipation import Generator, steady_state
from dmajor.linalg import check_square
from dmajor.majorize import d_majorizes
from dmajor.polytope import HPolytope, halfspace_bounds, vertex_for_permutation

SCALES = [2.0 ** k for k in range(-40, 41)] + [1e-9, 1e9]


def rand_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def rand_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def rotated(rng, w):
    u = rand_unitary(rng, len(w))
    return u @ np.diag(w) @ u.conj().T


def same_at_every_scale(verdict, *cases):
    """verdict(s, *case) at every scale equals its value at s = 1; returns
    the scale-1 verdicts."""
    base = [verdict(1.0, *case) for case in cases]
    for s in SCALES:
        assert [verdict(s, *case) for case in cases] == base, s
    return base


def _channel_cases(seed):
    """Seeded Hermitian pairs (A, B), n = 2..4: random channel preconditions,
    B with null eigenvalues, and trace or norm gaps of half and of twice the
    tolerance 1e-9 * ||B||_1."""
    rng = np.random.default_rng(seed)
    for trial in range(30):
        n = 2 + trial % 3
        y = rng.standard_normal(n)
        kind = trial % 6
        if kind == 1:
            y[:n - 1] = 0.0
        x = rng.permutation(y) * rng.uniform(0.3, 1.0)
        x += (y.sum() - x.sum()) / n
        if kind in (2, 3):
            x[0] += (0.5 if kind == 2 else 2.0) * 1e-9 * np.abs(y).sum()
        elif kind in (4, 5):
            # move mass outward between a positive and a negative entry of a
            # permutation of y: equal traces, ||x||_1 above ||y||_1
            x = rng.permutation(y)
            push = (0.25 if kind == 4 else 1.0) * 1e-9 * np.abs(y).sum()
            x[np.argmax(x)] += push
            x[np.argmin(x)] -= push
            if not (x.max() > 0 > x.min()):
                continue
        yield rotated(rng, x), rotated(rng, y)


class TestChannelBetween:
    def test_preconditions_and_residual(self):
        def verdict(s, a, b):
            try:
                t = channel_between(s * a, s * b)
            except ValueError:
                return "rejected"
            assert trace_norm(t.apply(s * b) - s * a) <= 1e-8 * trace_norm(s * b)
            assert is_cp(t) and is_tp(t)
            return "built"

        base = same_at_every_scale(verdict, *_channel_cases(91))
        assert 8 <= base.count("rejected") <= len(base) - 8, base

    def test_small_scale_reproducer(self):
        # at s = 1e-9 every eigenvalue of s·B once counted as null, and T(s·B)
        # missed s·A by percents of ||s·B||_1
        a, b = next(_channel_cases(92))
        for s in (1e-9, 1e-12):
            t = channel_between(s * a, s * b)
            assert trace_norm(t.apply(s * b) - s * a) <= 1e-12 * trace_norm(s * b)


class TestSpectralVerdicts:
    def test_matrix_majorizes(self):
        rng = np.random.default_rng(93)
        cases = []
        for trial in range(24):
            n = 2 + trial % 3
            y = rng.standard_normal(n)
            kind = trial % 3
            x = rng.permutation(y)
            if kind == 0:
                x = rng.dirichlet(np.ones(n)) @ np.array([rng.permutation(y) for _ in range(n)])
            else:
                # the largest entry pushed up by half or twice the tolerance
                push = (0.5 if kind == 1 else 2.0) * 1e-9 * np.abs(y).sum()
                x[np.argmax(x)] += push
                x[np.argmin(x)] -= push
            cases.append((rotated(rng, x), rotated(rng, y)))

        base = same_at_every_scale(lambda s, a, b: matrix_majorizes(s * a, s * b), *cases)
        assert 6 <= sum(base) <= len(base) - 6, base

    def test_d_matrix_majorizes_2x2(self):
        rng = np.random.default_rng(94)
        d = np.array([0.6, 0.4])
        # the minimal element diag(d) of its trace, and a point 1e-3 from it
        cases = [(np.diag([0.601, 0.399]), np.diag([0.6, 0.4]), d),
                 (np.diag([0.6, 0.4]), np.diag([0.6, 0.4]), d)]
        for trial in range(40):
            w = rng.uniform(0.2, 1.0, 2)
            b = rand_hermitian(rng, 2)
            if trial % 2:
                a = rand_hermitian(rng, 2)
                a += (np.trace(b).real - np.trace(a).real) / 2 * np.eye(2)
            else:
                # mix toward diag(w) of b's trace: inside the preorder
                lam = rng.uniform(0.0, 1.0)
                a = lam * b + (1 - lam) * np.diag(w) / w.sum() * np.trace(b).real
            cases.append((a, b, w))

        def verdict(s, a, b, w):
            return d_matrix_majorizes_2x2(s * a, s * b, w)

        base = same_at_every_scale(verdict, *cases)
        assert base[:2] == [False, True]
        assert 10 <= sum(base) <= len(base) - 10, base

    def test_pure_state_reachable_scaling_d(self):
        rng = np.random.default_rng(95)
        cases = []
        for trial in range(20):
            w = rng.uniform(0.2, 1.0, 2)
            j = int(np.argmax(w))
            # rho <= D / d_j holds iff r <= d_other / d_j; sit 1e-6 to either side
            r = w[1 - j] / w[j] * (1.0 + (1e-6 if trial % 2 else -1e-6))
            rho = np.diag([1.0 - r, r] if j == 0 else [r, 1.0 - r])
            cases.append((rho, w, j))
        for _ in range(10):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = m @ m.conj().T
            cases.append((rho / np.trace(rho).real, rng.uniform(0.2, 1.0, 3),
                          int(rng.integers(3))))

        base = same_at_every_scale(
            lambda s, rho, w, j: pure_state_reachable(rho, s * w, j), *cases)
        assert base[:20] == [trial % 2 == 0 for trial in range(20)]

    def test_d_matrix_small_scale_reproducer(self):
        for s in (1e-12, 1e-9, 1e-7, 1e-3, 1.0, 1e3, 1e9):
            assert not d_matrix_majorizes_2x2(s * np.diag([0.601, 0.399]),
                                              s * np.diag([0.6, 0.4]), (0.6, 0.4))


def test_hermiticity_within_the_input_tolerance_is_checked_once():
    # a skew part of 1e-11 relative passes the 1e-10 input check, and no
    # later eigendecomposition refuses it at a tighter tolerance
    rng = np.random.default_rng(96)
    cases = []
    for n in (2, 3, 4):
        h, k = rand_hermitian(rng, n), rng.standard_normal((n, n))
        cases.append((h + 1e-11 * np.abs(h).max() * (k - k.T),))

    def verdict(s, a):
        t = channel_between(s * a, s * a)
        assert trace_norm(t.apply(s * a) - s * a) <= 1e-8 * trace_norm(s * a)
        verdicts = [matrix_majorizes(s * a, s * a)]
        if a.shape == (2, 2):
            verdicts.append(d_matrix_majorizes_2x2(s * a, s * a, (0.6, 0.4)))
        return verdicts

    assert same_at_every_scale(verdict, *cases) == [[True, True], [True], [True]]
    # T(X) = X K with K = I up to such a skew part: T(1) = K, no kernel
    k = np.eye(2) + 1e-11 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert kernel_block_form(SuperOperator.from_function(lambda x: x @ k, 2, 2))[0] == 0


def test_diagonal_2x2_agrees_with_d_majorizes_near_vertices():
    # for commuting (diagonal) inputs the matrix test is d_majorizes; corners
    # of B's polytope, and corners moved by 4e-10 inside the tolerance
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = rng.uniform(0.1, 1.0, 2)
        y = rng.dirichlet(np.ones(2))
        v = vertex_for_permutation(rng.permutation(2), halfspace_bounds(y, d))
        for delta in (0.0, 4e-10, -4e-10):
            x = v + delta * np.array([1.0, -1.0])
            assert d_matrix_majorizes_2x2(np.diag(x), np.diag(y), d) == d_majorizes(x, y, d)


class TestChecks:
    def test_is_cp(self):
        rng = np.random.default_rng(97)
        n = 2
        swap = SuperOperator.from_function(lambda x: x.T, n, n)
        ident = SuperOperator.identity(n)
        cases = []
        # identity mixed with the transpose: the Choi matrix has eigenvalue
        # -lam on the antisymmetric subspace
        for lam in (0.0, 1e-12, 1e-7, 0.5):
            cases.append(((1 - lam) * ident.action + lam * swap.action, n))
        # X -> X + 1e-6 tr(X) E_01 does not preserve Hermiticity
        unit = np.zeros((n, n), dtype=complex)
        unit[0, 1] = 1e-6
        cases.append((SuperOperator.from_function(lambda x: x + np.trace(x) * unit, n, n).action,
                      n))
        a = rand_hermitian(rng, 3)
        cases.append((channel_between(a, a).action, 3))

        base = same_at_every_scale(
            lambda s, action, dim: is_cp(SuperOperator(dim, dim, s * action)), *cases)
        assert base == [True, True, False, False, False, True]

    def test_strict_positivity_and_kernel(self):
        # s·I is strictly positive with no kernel at every scale; the trace
        # projection onto diag(1, 0) has T(1) = diag(2, 0), a kernel of one
        cases = [(np.eye(4), 0), (SuperOperator.trace_projection(np.diag([1.0, 0.0])).action, 1)]

        def verdict(s, action, _):
            t = SuperOperator(2, 2, s * action)
            return is_strictly_positive(t), kernel_block_form(t)[0]

        assert same_at_every_scale(verdict, *cases) == [(True, 0), (False, 1)]
        for s in (1e-12, 1e-6, 1.0):
            assert verdict(s, *cases[0]) == (True, 0)

    def test_check_square(self):
        rng = np.random.default_rng(98)
        cases = []
        for rel in (0.0, 1e-12, 1e-8, 1e-3):
            h = rand_hermitian(rng, 4)
            skew = rng.standard_normal((4, 4))
            cases.append((h + rel * np.abs(h).max() * (skew - skew.T),))

        def verdict(s, m):
            try:
                check_square(s * m, "M", 1e-10)
            except ValueError:
                return False
            return True

        assert same_at_every_scale(verdict, *cases) == [True, True, False, False]

    def test_c_spectrum_normality(self):
        rng = np.random.default_rng(99)
        normal = rand_unitary(rng, 3)       # unitaries are normal
        jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        cases = [(normal,), (rotated(rng, rng.standard_normal(3)),),
                 (jordan,), (rotated(rng, [1.0, 2.0, 3.0]) + 1e-6 * jordan,)]

        def verdict(s, m):
            try:
                c_spectrum(s * m, np.eye(3))
            except ValueError:
                return False
            return True

        assert same_at_every_scale(verdict, *cases) == [True, True, False, False]

    def test_c_spectrum_reproducer(self):
        with pytest.raises(ValueError, match="not normal"):
            c_spectrum(1e-6 * np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_hpolytope_trace_entries(self):
        y, d = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
        b = halfspace_bounds(y, d).b

        def verdict(s, rel):
            bad = s * b
            bad[-1] -= rel * s
            try:
                HPolytope(n=3, b=bad)
            except ValueError:
                return False
            return True

        assert same_at_every_scale(verdict, (0.0,), (1e-14,), (1e-9,)) == [True, True, False]


class TestGeneratorScale:
    @staticmethod
    def _dense(rng, n, rates=None):
        """B0 with zero column sums from off-diagonal rates, uniform by default."""
        if rates is None:
            rates = rng.uniform(0.1, 1.0, (n, n))
        np.fill_diagonal(rates, 0.0)
        return np.diag(rates.sum(axis=0)) - rates

    def test_steady_state(self):
        rng = np.random.default_rng(100)
        for n in (2, 3, 5):
            b0 = self._dense(rng, n)
            ref = steady_state(Generator(b0))
            for s in SCALES + [1e-12]:
                assert np.max(np.abs(steady_state(Generator(s * b0)) - ref)) <= 1e-13

    def test_disconnected_kernel_and_invalid_generators(self):
        rng = np.random.default_rng(101)
        two = np.zeros((4, 4))
        two[:2, :2], two[2:, 2:] = self._dense(rng, 2), self._dense(rng, 2)
        rates = rng.uniform(0.1, 1.0, (3, 3))
        rates[0, 1] = -1e-6
        positive = self._dense(rng, 3, rates)
        leaky = self._dense(rng, 3)
        leaky[2, 2] += 1e-6 * np.abs(leaky).max()

        def verdict(s, b0):
            try:
                steady_state(Generator(s * b0))
            except ValueError as exc:
                return str(exc).split(";")[0]
            return "ok"

        assert same_at_every_scale(verdict, (two,), (positive,), (leaky,)) == [
            "B0 kernel is 2-dimensional", "off-diagonal entries of B0 must be nonpositive",
            "columns of B0 must sum to zero"]
