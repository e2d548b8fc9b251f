"""Small dense matrix kernel: exponentials, Hermitian eigendecompositions,
permutation matrices.

Everything here operates on plain numpy arrays at desk scale (n <= 16).
"""

from __future__ import annotations

import numpy as np

from .majorize import _numbers, as_real_array


def expm(a: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """Return exp(t*a) for a square matrix a.

    Uses scaling-and-squaring with a Pade core; accurate to ~1e-12 relative
    at the sizes used in this package.  A 1-d array t gives the (k, n, n)
    stack of exp(t[i]*a), each slice computed exactly as the scalar call
    would compute it.  Raises ValueError when t*a or the exponential is not
    finite.
    """
    import scipy.linalg  # loaded on first use: most subcommands never need it

    a = _numbers(a, "iufc")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm expects a square matrix, got shape {a.shape}")
    t = as_real_array(t)
    if t.ndim == 1:
        t = t[:, None, None]
    elif t.ndim != 0:
        raise ValueError("expm expects a scalar or 1-d array of times")
    with np.errstate(over="ignore", invalid="ignore"):
        ta = t * a
        if not np.isfinite(ta).all():
            raise ValueError("expm expects finite entries and a finite product t*a")
        out = scipy.linalg.expm(ta)
    if not np.isfinite(out).all():
        raise ValueError("matrix exponential overflows")
    return out


def check_square(a, name: str = "matrix", herm_tol: float | None = None) -> np.ndarray:
    """a as a finite complex square matrix; with herm_tol, also Hermitian
    within herm_tol * max |a_ij|."""
    a = _numbers(a, "iufc").astype(complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"entries of {name} must be finite")
    if herm_tol is not None:
        if np.abs(a - a.conj().T).max(initial=0.0) > herm_tol * np.abs(a).max(initial=0.0):
            raise ValueError(f"{name} is not Hermitian within tolerance")
    return a


def hermitian_eig(h: np.ndarray, herm_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix (herm_tol=None: checked by the caller).

    Returns (w, u) with eigenvalues w sorted non-increasingly (ties keep the
    ascending-solver order, so the result is deterministic) and unitary u
    such that h = u @ diag(w) @ u^dagger.
    """
    return _eigh(check_square(h, herm_tol=herm_tol))


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_eig of a matrix that check_square has passed."""
    w, u = np.linalg.eigh(h)
    order = np.argsort(-w, kind="stable")
    return w[order], u[:, order]


def check_permutation(images) -> np.ndarray:
    """Validate and normalize a permutation given as zero-based image array.
    A list or tuple of Python ints holding 0..n-1 once each passes one test."""
    if isinstance(images, (list, tuple)) and {*map(type, images)} == {int} \
            and sorted(images) == list(range(len(images))):
        return np.array(images)
    try:
        p = _numbers(images, "iu")
    except ValueError:
        p = None
    if p is None or p.ndim != 1 or p.size == 0:
        raise ValueError("permutation must be a non-empty 1-d integer array")
    if not (np.sort(p) == np.arange(p.size)).all():
        raise ValueError(f"the {p.size} entries are not a permutation of 0..{p.size - 1}")
    return p
