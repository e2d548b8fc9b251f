import numpy as np
import pytest

from dmajor import channels, majorize
from dmajor.channels import (
    MAX_CHANNEL_DIM,
    PositivityError,
    SuperOperator,
    channel_between,
    choi,
    d_matrix_majorizes_2x2,
    identity_distance_witness,
    is_cp,
    is_strictly_positive,
    is_tp,
    is_unital,
    kernel_block_form,
    kraus_set,
    matrix_majorizes,
    pure_state_reachable,
    trace_norm,
    unvec,
    vec,
)
from dmajor.linalg import hermitian_eig
from dmajor.majorize import _within_norm, column_stochastic_transfer, d_majorizes
from helpers import (compose, from_function, from_kraus, identity_superoperator,
                     pinching_superoperator, trace_projection)


def rand_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def rand_density(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def hermitian_pair_with_precondition(rng, n):
    """Random (A, B) with tr A = tr B and ||A||_1 <= ||B||_1."""
    b = rand_hermitian(rng, n)
    a = rand_hermitian(rng, n)
    a += (np.trace(b).real - np.trace(a).real) / n * np.eye(n)
    center = np.trace(b).real / n * np.eye(n)
    while trace_norm(a) > trace_norm(b):
        a = 0.7 * a + 0.3 * center
    return a, b


def pair_with_singular_b(rng, n, zeros):
    """Random (A, B) as above, with B of rank n - zeros."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    y = rng.standard_normal(n)
    y[:zeros] = 0.0
    b = q @ np.diag(y) @ q.conj().T
    b = (b + b.conj().T) / 2
    a = rand_hermitian(rng, n)
    a += (np.trace(b).real - np.trace(a).real) / n * np.eye(n)
    center = np.trace(b).real / n * np.eye(n)
    while trace_norm(a) > trace_norm(b):
        a = 0.7 * a + 0.3 * center
    return a, b


def composed_channel(a, b, null_state=None, tol=1e-9):
    """channel_between as three composed superoperators: X -> V* X V into the
    eigenbasis of B, the pinching channel of the transfer matrix (the null
    directions of B sent to U* omega U), and Y -> U Y U* out."""
    n = a.shape[0]
    x, u = hermitian_eig(a)
    y, v = hermitian_eig(b)
    m = column_stochastic_transfer(_within_norm(x, y), y).matrix
    omega = np.eye(n) / n if null_state is None else null_state
    pinch = pinching_superoperator(m)
    for j in np.flatnonzero(np.abs(y) <= tol * np.abs(y).sum()):
        pinch.action[:, j + j * n] = vec(u.conj().T @ omega @ u)
    into_v = SuperOperator(n, n, np.kron(v.T, v.conj().T))
    out_u = SuperOperator(n, n, np.kron(u.conj(), u))
    return compose(compose(out_u, pinch), into_v)


# the qutrit map from the strict-positivity discussion: cptp, not sp, and
# not a trace projection
def qutrit_corner_map():
    def f(x):
        out = np.zeros((3, 3), dtype=complex)
        out[0, 0] = x[0, 0]
        out[0, 1] = 1j / np.sqrt(2) * (x[0, 1] + x[0, 2])
        out[1, 0] = -1j / np.sqrt(2) * (x[1, 0] + x[2, 0])
        out[1, 1] = x[1, 1] + x[2, 2]
        return out
    return from_function(f, 3, 3)


class TestVec:
    def test_column_stacking(self):
        x = np.array([[1, 3], [2, 4]], dtype=complex)
        assert np.array_equal(vec(x), [1, 2, 3, 4])
        assert np.array_equal(unvec(vec(x)), x)


class TestChoi:
    def test_identity_is_rank_one(self):
        c = choi(identity_superoperator(3))
        w = np.linalg.eigvalsh(c)
        assert np.sum(w > 1e-9) == 1
        assert np.isclose(w[-1], 3.0)

    def test_pinching_choi_is_diagonal(self):
        m = np.array([[0.2, 0.7], [0.8, 0.3]])
        c = choi(pinching_superoperator(m))
        assert np.max(np.abs(c - np.diag(np.diag(c)))) <= 1e-12
        assert np.allclose(np.diag(c).real, [0.2, 0.8, 0.7, 0.3])
        assert np.min(np.diag(c).real) >= 0

    def test_trace_projection(self):
        psi = np.array([1.0, 1j]) / np.sqrt(2)
        state = np.outer(psi, psi.conj())
        c = choi(trace_projection(state))
        assert np.allclose(c, np.kron(np.eye(2), state))


class TestPredicates:
    def test_identity(self):
        t = identity_superoperator(2)
        assert is_cp(t) and is_tp(t) and is_unital(t) and is_strictly_positive(t)

    def test_transposition_not_cp(self):
        t = from_function(lambda x: x.T, 2, 2)
        assert not is_cp(t)
        assert is_strictly_positive(t)

    def test_trace_projection_cp_tp_not_sp(self):
        state = np.diag([1.0, 0.0]).astype(complex)
        t = trace_projection(state)
        assert is_cp(t) and is_tp(t)
        assert not is_strictly_positive(t)
        assert not is_unital(t)

    def test_sp_with_rank_deficient_fixed_points(self):
        # T(1) = diag(3/2, 1/2) > 0 although only singular matrices are fixed
        def f(x):
            return np.array([[x[0, 0] + x[1, 1] / 2, 0], [0, x[1, 1] / 2]],
                            dtype=complex)
        t = from_function(f, 2, 2)
        assert is_cp(t) and is_tp(t) and is_strictly_positive(t)

    def test_sp_closed_under_composition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k1 = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                  for _ in range(2)]
            k2 = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                  for _ in range(2)]
            t1 = from_kraus(k1)
            t2 = from_kraus(k2)
            if is_strictly_positive(t1) and is_strictly_positive(t2):
                assert is_strictly_positive(compose(t2, t1))


def _unit_images(t):
    """T(E_jl) for every matrix unit, in the loop order j, l."""
    n = t.dim_in
    for j in range(n):
        for l in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[j, l] = 1.0
            yield j, l, t.apply(unit)


def _kernel_projector_by_units(t, tol=1e-9):
    """kernel_block_form's projector, with the compression checked one matrix
    unit at a time, relative to the largest entry of any image."""
    w, u = hermitian_eig(t.apply(np.eye(t.dim_in)), herm_tol=1e-9)
    keep = t.dim_out - int(np.sum(w <= tol * np.abs(w).max()))
    proj = u[:, :keep] @ u[:, :keep].conj().T
    images = [img for _, _, img in _unit_images(t)]
    scale = max(np.abs(img).max() for img in images)
    for img in images:
        if np.max(np.abs(proj @ img @ proj - img)) > 1e-8 * scale:
            raise PositivityError("compression failed")
    return proj


class TestActionPredicates:
    def test_match_matrix_unit_definitions(self):
        # choi, is_tp, kernel_block_form and trace_projection read the action
        # matrix directly; each agrees with its definition over matrix units
        rng = np.random.default_rng(31)
        for trial in range(60):
            n, k = (int(v) for v in rng.integers(1, 5, size=2))
            if trial % 2:
                k = n
            count = n + 1 if trial % 3 == 0 else int(rng.integers(1, 4))
            kraus = [rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
                     for _ in range(count)]
            if trial % 3 == 0:
                # trace preserving: K -> K (sum K^* K)^{-1/2}
                w, u = hermitian_eig(sum(op.conj().T @ op for op in kraus))
                kraus = [op @ u @ np.diag(w ** -0.5) @ u.conj().T for op in kraus]
            elif trial % 3 == 1 and k > 1:
                # a kernel for T(1): the last output row is zero
                kraus = [np.vstack([op[:-1], np.zeros((1, n))]) for op in kraus]
            t = from_kraus(kraus)
            if trial % 5 == 2:
                t = SuperOperator(n, k, t.action + 1e-3 * rng.standard_normal(t.action.shape))
            elif trial % 5 == 4:
                # Hermiticity preserving but not positive
                t = SuperOperator(n, k, t.action - from_kraus(kraus[:1]).action * 2)

            ref = np.zeros((n * k, n * k), dtype=complex)
            tp = True
            for j, l, img in _unit_images(t):
                ref[j * k:(j + 1) * k, l * k:(l + 1) * k] = img
                tp &= bool(abs(np.trace(img) - (1.0 if j == l else 0.0)) <= 1e-9)
            assert np.array_equal(choi(t), ref)
            assert is_tp(t) == tp
            assert tp == (trial % 3 == 0 and trial % 5 not in (2, 4))

            if k == n:
                try:
                    want = _kernel_projector_by_units(t)
                except (PositivityError, ValueError) as exc:
                    with pytest.raises(type(exc)):
                        kernel_block_form(t)
                else:
                    assert np.array_equal(kernel_block_form(t)[2], want)

            state = rand_density(rng, n)
            want = from_function(lambda x: np.trace(x) * state, n, n)
            assert np.array_equal(trace_projection(state).action, want.action)


class TestKernelBlockForm:
    def test_sp_map_has_trivial_kernel(self):
        m, _, proj = kernel_block_form(identity_superoperator(3))
        assert m == 0
        assert np.allclose(proj, np.eye(3))

    def test_qutrit_corner_map(self):
        t = qutrit_corner_map()
        assert is_cp(t) and is_tp(t)
        w = np.linalg.eigvalsh(choi(t))
        assert np.isclose(w[-1], 2.0, atol=1e-9)
        assert np.isclose(w[-2], 1.0, atol=1e-9)
        assert np.sum(np.abs(w) < 1e-9) == 7
        m, _, _ = kernel_block_form(t)
        assert m == 1

    def test_qubit_trace_projection(self):
        t = trace_projection(np.diag([1.0, 0.0]).astype(complex))
        m, _, proj = kernel_block_form(t)
        assert m == 1
        assert np.allclose(proj, np.diag([1.0, 0.0]))

    def test_compression_identity_for_positive_maps(self):
        rng = np.random.default_rng(1)
        kraus = [np.vstack([rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
                            np.zeros((1, 3))]) for _ in range(3)]
        t = from_kraus(kraus)
        m, u, proj = kernel_block_form(t)
        assert m >= 1
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-10)

    def test_non_positive_map_detected(self):
        def f(x):
            return np.array([[x[0, 0], 0], [0, -x[1, 1]]], dtype=complex)
        t = from_function(f, 2, 2)
        with pytest.raises(PositivityError):
            kernel_block_form(t)


class TestChannelBetween:
    def test_fixed_point_path(self):
        rng = np.random.default_rng(2)
        b = rand_hermitian(rng, 3)
        t = channel_between(b, b)
        assert trace_norm(t.apply(b) - b) <= 1e-9
        assert is_cp(t) and is_tp(t)

    def test_trace_projection_special_case(self):
        rng = np.random.default_rng(3)
        b = rand_hermitian(rng, 3)
        rho = rand_density(rng, 3)
        a = np.trace(b).real * rho
        if trace_norm(a) <= trace_norm(b):
            t = trace_projection(rho)
            assert trace_norm(t.apply(b) - a) <= 1e-9

    def test_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a, b = hermitian_pair_with_precondition(rng, 3)
            t = channel_between(a, b)
            assert is_cp(t)
            assert is_tp(t)
            assert trace_norm(t.apply(b) - a) <= 1e-8

    def test_outputs_contract_trace_norm(self):
        rng = np.random.default_rng(5)
        a, b = hermitian_pair_with_precondition(rng, 3)
        t = channel_between(a, b)
        for _ in range(50):
            probe = rand_hermitian(rng, 3)
            assert trace_norm(t.apply(probe)) <= trace_norm(probe) + 1e-9

    def test_zero_eigenvalue_freedom(self):
        b = np.diag([1.0, 0.0]).astype(complex)
        a = np.diag([0.6, 0.4]).astype(complex)
        omega = np.diag([0.25, 0.75]).astype(complex)
        t = channel_between(a, b, null_state=omega)
        assert is_cp(t) and is_tp(t)
        assert trace_norm(t.apply(b) - a) <= 1e-9
        # the null direction of b is sent to the chosen state
        null_vec = np.array([0.0, 1.0])
        img = t.apply(np.outer(null_vec, null_vec.conj()))
        assert trace_norm(img - omega) <= 1e-9

    def test_tolerance_level_input_slack(self):
        # inputs equal only up to the comparison tolerance must still yield a
        # channel within the residual contract
        rng = np.random.default_rng(77)
        b = rand_hermitian(rng, 3)
        a = b + np.diag([5e-10, -2.5e-10, -2.4e-10])
        t = channel_between(a, b)
        assert is_cp(t) and is_tp(t)
        assert trace_norm(t.apply(b) - a) <= 1e-8

    def test_definite_pairs_of_equal_trace(self):
        # for definite pairs of equal trace, ||A||_1 may round one ulp above
        # ||B||_1; that must not collapse the spectrum of A
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            sign = rng.choice((-1.0, 1.0))
            a, b = sign * rand_density(rng, n), sign * rand_density(rng, n)
            t = channel_between(a, b)
            assert trace_norm(t.apply(b) - a) <= 1e-8

    def test_tolerance_level_excess_over_definite_b(self):
        # ||A||_1 exceeds ||B||_1 by less than the tolerance while B is
        # definite or nearly so
        for a, b in (([0.7 + 4e-10, 0.3, -4e-10], [0.5, 0.3, 0.2]),
                     ([-0.7 - 4e-10, -0.3, 4e-10], [-0.5, -0.3, -0.2]),
                     ([1.5 + 2e-10, 0.5, -2e-10 - 1e-12], [1.0, 1.0, -1e-12])):
            a, b = np.diag(a).astype(complex), np.diag(b).astype(complex)
            t = channel_between(a, b)
            assert is_cp(t) and is_tp(t)
            assert trace_norm(t.apply(b) - a) <= 1e-8

    def test_matches_composed_superoperators(self):
        rng = np.random.default_rng(83)
        for n in (2, 3, 4):
            for _ in range(20):
                a, b = hermitian_pair_with_precondition(rng, n)
                ref = composed_channel(a, b).action
                assert np.max(np.abs(channel_between(a, b).action - ref)) <= 1e-12
            for zeros in range(1, n):
                a, b = pair_with_singular_b(rng, n, zeros)
                omega = rand_density(rng, n)
                for null_state in (None, omega):
                    t = channel_between(a, b, null_state=null_state)
                    ref = composed_channel(a, b, null_state).action
                    assert np.max(np.abs(t.action - ref)) <= 1e-12
                    assert is_cp(t) and is_tp(t)

    def test_runs_without_the_chain(self, monkeypatch):
        # the column-stochastic transfer is closed form: no majorization
        # test, no doubly stochastic chain
        def refuse(*args, **kwargs):
            raise AssertionError("channel_between reached the chain route")

        for name in ("majorizes", "doubly_stochastic_transfer", "_chain_transfer"):
            monkeypatch.setattr(majorize, name, refuse)
        monkeypatch.setattr(channels, "majorizes", refuse)
        rng = np.random.default_rng(84)
        for n in (2, 3, 4):
            a, b = hermitian_pair_with_precondition(rng, n)
            t = channel_between(a, b)
            assert is_cp(t) and is_tp(t)
            assert trace_norm(t.apply(b) - a) <= 1e-8

    def test_at_the_dimension_cap(self):
        rng = np.random.default_rng(85)
        b = rand_density(rng, MAX_CHANNEL_DIM)
        a = np.diag(rng.dirichlet(np.ones(MAX_CHANNEL_DIM))).astype(complex)
        t = channel_between(a, b)
        assert is_cp(t) and is_tp(t)
        assert trace_norm(t.apply(b) - a) <= 1e-8

    def test_rejects_above_the_cap_before_decomposing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decomposed a matrix above the cap")

        monkeypatch.setattr(channels, "hermitian_eig", refuse)
        monkeypatch.setattr(channels, "trace_norm", refuse)
        n = MAX_CHANNEL_DIM + 1
        with pytest.raises(ValueError, match=f"MAX_CHANNEL_DIM = {MAX_CHANNEL_DIM}"):
            channel_between(np.eye(n) / n, np.eye(n) / n)

    def test_rejects_trace_mismatch(self):
        with pytest.raises(ValueError):
            channel_between(np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex))

    def test_rejects_trace_norm_growth(self):
        a = np.diag([2.0, -1.0]).astype(complex)
        b = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            channel_between(a, b)

    def test_kraus_roundtrip(self):
        rng = np.random.default_rng(6)
        a, b = hermitian_pair_with_precondition(rng, 3)
        t = channel_between(a, b)
        ops = kraus_set(t)
        assert len(ops) <= 9
        total = sum(k.conj().T @ k for k in ops)
        assert np.allclose(total, np.eye(3), atol=1e-9)
        x = rand_hermitian(rng, 3)
        rebuilt = sum(k @ x @ k.conj().T for k in ops)
        assert np.max(np.abs(rebuilt - t.apply(x))) <= 1e-9


class TestMatrixMajorization:
    def test_unitary_conjugation(self):
        rng = np.random.default_rng(7)
        a = rand_hermitian(rng, 3)
        _, u = hermitian_eig(rand_hermitian(rng, 3))
        assert matrix_majorizes(u @ a @ u.conj().T, a)

    def test_maximally_mixed_is_minimal(self):
        rng = np.random.default_rng(8)
        rho = rand_density(rng, 4)
        assert matrix_majorizes(np.eye(4, dtype=complex) / 4, rho)

    def test_diagonal_pair_reduces_to_vectors(self):
        from dmajor.majorize import majorizes
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            if rng.uniform() < 0.5:
                x += (y.sum() - x.sum()) / 3
            assert matrix_majorizes(np.diag(x).astype(complex),
                                    np.diag(y).astype(complex)) == majorizes(x, y)


class TestDMatrix2x2:
    def test_reflexive(self):
        rng = np.random.default_rng(10)
        a = rand_hermitian(rng, 2)
        assert d_matrix_majorizes_2x2(a, a, [0.8, 0.2])

    def test_diagonal_reduction(self):
        rng = np.random.default_rng(11)
        agree = 0
        for _ in range(200):
            d = rng.uniform(0.1, 1.0, size=2)
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            if rng.uniform() < 0.6:
                x += (y.sum() - x.sum()) / 2
            lhs = d_matrix_majorizes_2x2(np.diag(x).astype(complex),
                                         np.diag(y).astype(complex), d)
            rhs = d_majorizes(x, y, d)
            assert lhs == rhs
            agree += lhs
        assert agree > 0

    def test_identity_weight_matches_eigen_majorization(self):
        rng = np.random.default_rng(12)
        positives = 0
        for _ in range(300):
            b = rand_hermitian(rng, 2)
            if rng.uniform() < 0.5:
                a = rand_hermitian(rng, 2)
                a += (np.trace(b).real - np.trace(a).real) / 2 * np.eye(2)
            else:
                lam = rng.uniform(0, 1)
                _, u = hermitian_eig(rand_hermitian(rng, 2))
                a = lam * b + (1 - lam) * (u @ b @ u.conj().T)
                a = (a + a.conj().T) / 2
            lhs = d_matrix_majorizes_2x2(a, b, np.ones(2))
            rhs = matrix_majorizes(a, b)
            assert lhs == rhs
            positives += lhs
        assert positives > 50

    def test_transitive_on_generated_chains(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = rng.uniform(0.2, 1.0, size=2)
            c = rand_hermitian(rng, 2)
            # walk two steps down the preorder via mixing toward diag(d)-scaled trace
            dm = np.diag(d) / d.sum() * np.trace(c).real
            b = 0.6 * c + 0.4 * dm
            a = 0.5 * b + 0.5 * dm
            assert d_matrix_majorizes_2x2(b, c, d)
            assert d_matrix_majorizes_2x2(a, b, d)
            assert d_matrix_majorizes_2x2(a, c, d)

    @pytest.mark.parametrize("d", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [0.0, 1.0],
                                   [-1.0, 1.0], np.diag([np.nan, 1.0]), np.diag([np.inf, 1.0]),
                                   [[1.0, np.nan], [np.nan, 1.0]], np.diag([0.0, 1.0])])
    def test_rejects_bad_weights(self, d):
        a = np.diag([0.6, 0.4]).astype(complex)
        # a ValueError from the input check, not a LinAlgError on the way
        with pytest.raises(ValueError, match="finite|positive|diagonal"):
            d_matrix_majorizes_2x2(a, a, d)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            d_matrix_majorizes_2x2(np.eye(3, dtype=complex), np.eye(3, dtype=complex),
                                   [1.0, 1.0, 1.0])


class TestPureStateReachable:
    def test_minimal_weight_reaches_everything(self):
        rng = np.random.default_rng(14)
        d = np.array([3.0, 2.0, 1.0])
        for _ in range(20):
            rho = rand_density(rng, 3)
            assert pure_state_reachable(rho, d, 2)

    def test_basis_state_reachable_from_itself(self):
        d = np.array([3.0, 2.0, 1.0])
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert pure_state_reachable(rho, d, 1)

    def test_counterexample(self):
        d = np.array([3.0, 2.0, 1.0])
        rho = np.diag([0.0, 0.0, 1.0]).astype(complex)
        assert not pure_state_reachable(rho, d, 0)

    @pytest.mark.parametrize("d", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [0.0, 1.0],
                                   [-1.0, 1.0]])
    def test_rejects_bad_weights(self, d):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="finite|positive"):
            pure_state_reachable(rho, d, 0)


class TestIdentityDistanceWitness:
    def test_qubit_trace_projection(self):
        t = trace_projection(np.diag([1.0, 0.0]).astype(complex))
        psi, value = identity_distance_witness(t)
        assert np.isclose(abs(psi[1]), 1.0)
        assert abs(value - 2.0) <= 1e-8

    def test_qutrit_corner_map(self):
        psi, value = identity_distance_witness(qutrit_corner_map())
        assert abs(value - 2.0) <= 1e-8

    def test_rejects_strictly_positive_map(self, monkeypatch):
        # the kernel dimension of kernel_block_form decides: no further
        # eigenvalue solve of T(1)
        def refuse(*args, **kwargs):
            raise AssertionError("T(1) decomposed a second time")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with pytest.raises(ValueError, match="T\\(1\\) is nonsingular"):
            identity_distance_witness(identity_superoperator(2))


def test_unit_image_hermiticity_is_checked_once_for_all():
    # T(X) = X K with K non-Hermitian has T(1) = K: each T(1) consumer refuses it
    k = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    t = from_function(lambda x: x @ k, 2, 2)
    for check in (is_strictly_positive, kernel_block_form, identity_distance_witness):
        with pytest.raises(ValueError, match="T\\(1\\) is not Hermitian"):
            check(t)
