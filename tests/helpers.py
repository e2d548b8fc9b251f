"""Constructions the tests share that the library itself never calls:
random d-stochastic matrices, an independent form of the thermomajorization
curve, the thermal mixing angles, permutation matrices, and superoperators:
the identity, built from a function, from Kraus operators, by composition,
and the pinching and trace-projection channels."""

import numpy as np

from dmajor.channels import SuperOperator, vec
from dmajor.linalg import check_permutation
from dmajor.majorize import as_real_array, as_vector, as_weight_vector


def perm_matrix(images) -> np.ndarray:
    """Permutation matrix P with (P x)_j = x_{images[j]}."""
    p = check_permutation(images)
    m = np.zeros((p.size, p.size))
    m[np.arange(p.size), p] = 1.0
    return m


def identity_superoperator(n: int) -> SuperOperator:
    return SuperOperator(n, n, np.eye(n ** 2, dtype=complex))


def compose(t: SuperOperator, s: SuperOperator) -> SuperOperator:
    """t after s."""
    if s.dim_out != t.dim_in:
        raise ValueError("composition dimension mismatch")
    return SuperOperator(s.dim_in, t.dim_out, t.action @ s.action)


def from_function(f, dim_in: int, dim_out: int) -> SuperOperator:
    """The superoperator of a linear map f, read off the matrix units."""
    action = np.zeros((dim_out ** 2, dim_in ** 2), dtype=complex)
    for j in range(dim_in):
        for i in range(dim_in):
            unit = np.zeros((dim_in, dim_in), dtype=complex)
            unit[i, j] = 1.0
            action[:, i + j * dim_in] = vec(np.asarray(f(unit), dtype=complex))
    return SuperOperator(dim_in, dim_out, action)


def from_kraus(ops) -> SuperOperator:
    """X -> sum K X K^dagger."""
    ops = [np.asarray(k, dtype=complex) for k in ops]
    rows, cols = ops[0].shape
    # the sum of kron(conj(K), K)
    action = sum((k.conj()[:, None, :, None] * k[None, :, None, :]).reshape(rows ** 2, -1)
                 for k in ops)
    return SuperOperator(cols, rows, action)


def trace_projection(state: np.ndarray) -> SuperOperator:
    """X -> tr(X) * state."""
    state = np.asarray(state, dtype=complex)
    n = state.shape[0]
    return SuperOperator(n, n, np.outer(vec(state), vec(np.eye(n))))


def random_d_stochastic(d, rng: np.random.Generator) -> np.ndarray:
    """A random d-stochastic matrix: a convex mixture of the identity, the
    rank-one projection onto d, and pairwise d-moves."""
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


def curve_minimum_form(y, d, c) -> np.ndarray | float:
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


def thermal_angles(d) -> np.ndarray:
    """Mixing angles theta_j = arccos((1 + d_{j+1}/d_j)^{-1/2})."""
    d = as_weight_vector(d)
    return np.arccos((1.0 + d[1:] / d[:-1]) ** -0.5)


def pinching_superoperator(m_stochastic: np.ndarray) -> SuperOperator:
    """Diagonal-to-diagonal channel: E_jj -> sum_k M_kj E_kk, off-diagonal
    units -> 0."""
    m_stochastic = np.asarray(m_stochastic, dtype=float)
    n = m_stochastic.shape[0]
    action = np.zeros((n ** 2, n ** 2), dtype=complex)
    diag = np.arange(n) * (n + 1)              # vec positions of the E_jj
    action[np.ix_(diag, diag)] = m_stochastic
    return SuperOperator(n, n, action)


def array_as_vector(x) -> np.ndarray:
    """Reference: as_vector with every input through the dtype gate, before
    a native float64 vector was taken as it is."""
    v = as_real_array(x)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-d real vector")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def reader_outcome(fn, x):
    """fn(x) as its dtype, bytes and whether it is x itself, or the class and
    message of its refusal."""
    try:
        v = fn(x)
    except Exception as exc:                            # compared, not swallowed
        return type(exc), str(exc)
    return v.dtype.str, v.shape, v.tobytes(), v is x


def array_within_norm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference: majorize._within_norm on arrays, as the library ran it
    before the list kernel: x shifted to the total of y, then x_+ scaled down
    to sum y_+ and x_- to sum y_- where they exceed them."""
    x = x + (y.sum() - x.sum()) / y.size
    parts = []
    for side in (1.0, -1.0):
        part, bound = np.maximum(side * x, 0.0), np.maximum(side * y, 0.0).sum()
        parts.append(part * (bound / part.sum()) if part.sum() > bound else part)
    return parts[0] - parts[1]


def array_column_transfer(x, y, tol: float = 1e-9) -> np.ndarray:
    """Reference: the matrix of column_stochastic_transfer(x, y, tol) as the
    library built it in numpy before the list kernel, for valid x and y
    (the refusals and the final checks left out)."""
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    n = x.size
    if np.abs(x - y).sum() <= tol * 1e-3 * sum(map(abs, y)):
        return np.eye(n)
    z = array_within_norm(x, y)
    a = np.full((n, n), 1.0 / n)
    for side in (1.0, -1.0):
        part, total = np.maximum(side * z, 0.0), np.maximum(side * y, 0.0).sum()
        if total > 0:
            a[:, side * y > 0] = ((part + max(0.0, total - part.sum()) / n) / total)[:, None]
    return a


def kraus_list(t: SuperOperator, tol: float = 1e-12) -> list:
    """Reference: kraus_set as one scaled, reshaped eigenvector per kept
    eigenvalue of the Choi matrix, one above tol times the largest."""
    from dmajor.channels import choi
    from dmajor.linalg import hermitian_eig

    w, vecs = hermitian_eig(choi(t))
    return [np.sqrt(w[i]) * vecs[:, i].reshape(t.dim_in, t.dim_out).T
            for i in range(w.size) if w[i] > tol * w.max()]


def stacked_trace_samples(c, a, count: int, seed: int = 0) -> np.ndarray:
    """Reference: c_numerical_range_sample's tr(C U* A U) by two stacked
    matmuls and an einsum, at the same Haar draws."""
    from dmajor.cnr import haar_unitaries

    c, a = np.asarray(c, dtype=complex), np.asarray(a, dtype=complex)
    us = haar_unitaries(c.shape[0], count, np.random.default_rng(seed))
    return np.einsum("ab,kba->k", c, np.swapaxes(us.conj(), 1, 2) @ a @ us)
