"""Constructions the tests share that the library itself never calls:
random d-stochastic matrices, an independent form of the thermomajorization
curve, the thermal mixing angles and the pinching channel."""

import numpy as np

from dmajor.channels import SuperOperator
from dmajor.majorize import as_vector, as_weight_vector


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
