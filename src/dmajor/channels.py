"""Finite-dimensional quantum-channel diagnostics.

Superoperators are stored as dense matrices acting on column-stacked
("vec'd") inputs.  Includes Choi/CP/TP/unital/strict-positivity checks, the
kernel block form of positive-but-not-strictly-positive maps, channel
construction between Hermitian matrices with matching trace and dominated
trace norm, matrix majorization, and the two-dimensional characterization of
majorization relative to a positive definite fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

import numpy as np

from .linalg import _eigh, check_square, hermitian_eig
from .majorize import (_column_rows, _np_sum, _numbers, _scaled_tol, _within_norm, as_real_array,
                       as_weight_vector, majorizes)


# channel_between's action has n^4 complex entries: 16 MB at the cap
MAX_CHANNEL_DIM = 32


class PositivityError(Exception):
    """A map assumed positive failed a consequence of positivity."""


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).flatten(order="F")


def unvec(v: np.ndarray, rows: int | None = None) -> np.ndarray:
    v = np.asarray(v)
    n = rows if rows is not None else int(round(np.sqrt(v.size)))
    return v.reshape((n, v.size // n), order="F")


def trace_norm(a) -> float:
    """Sum of singular values; for Hermitian input the sum of |eigenvalues|."""
    a = _numbers(a, "iufc").astype(complex, copy=False)
    return float(np.linalg.svd(a, compute_uv=False).sum())


@dataclass
class SuperOperator:
    """Linear map on matrices, stored as a (dim_out^2 x dim_in^2) matrix in
    the column-stacking convention."""

    dim_in: int
    dim_out: int
    action: np.ndarray

    def __post_init__(self):
        self.action = _numbers(self.action, "iufc").astype(complex, copy=False)
        if self.action.shape != (self.dim_out ** 2, self.dim_in ** 2):
            raise ValueError("action matrix shape does not match the declared dimensions")

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _numbers(x, "iufc").astype(complex, copy=False)
        if x.shape != (self.dim_in, self.dim_in):
            raise ValueError("input dimension mismatch")
        return unvec(self.action @ vec(x), self.dim_out)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


def choi(t: SuperOperator) -> np.ndarray:
    """Block matrix (T(E_jk))_{j,k} of size dim_in*dim_out."""
    n, k = t.dim_in, t.dim_out
    # action[a + b k, j + l n] = T(E_jl)[a, b] goes to row j k + a, column l k + b
    return t.action.reshape(k, k, n, n).transpose(3, 1, 2, 0).reshape(n * k, n * k)


def _psd(w: np.ndarray, tol: float) -> bool:
    """Eigenvalues w of a PSD matrix: min w >= -tol * max |w|."""
    return bool(w.min() >= -tol * float(np.abs(w).max()))


def is_cp(t: SuperOperator, tol: float = 1e-9) -> bool:
    """Completely positive iff the Choi matrix is positive semi-definite."""
    c = choi(t)
    if np.abs(c - c.conj().T).max() > tol * np.abs(c).max():
        return False
    return _psd(np.linalg.eigvalsh((c + c.conj().T) / 2), tol)


def is_tp(t: SuperOperator, tol: float = 1e-9) -> bool:
    """Trace-preserving iff tr T(E_jk) = delta_jk, i.e. vec(I)^T action =
    vec(I)^T."""
    traces = vec(np.eye(t.dim_out)) @ t.action
    return bool(np.max(np.abs(traces - vec(np.eye(t.dim_in)))) <= tol)


def is_unital(t: SuperOperator, tol: float = 1e-9) -> bool:
    if t.dim_in != t.dim_out:
        return False
    img = t.apply(np.eye(t.dim_in, dtype=complex))
    return bool(np.max(np.abs(img - np.eye(t.dim_out))) <= tol)


def _unit_image(t: SuperOperator) -> np.ndarray:
    return check_square(t.apply(np.eye(t.dim_in, dtype=complex)), "T(1)", 1e-9)


def is_strictly_positive(t: SuperOperator, tol: float = 1e-9) -> bool:
    """For a positive map (caller-asserted): strictly positive iff T(1) > 0 within tol relative."""
    w = np.linalg.eigvalsh(_unit_image(t))
    return bool(w.min() > tol * np.abs(w).max())


def kernel_block_form(t: SuperOperator, tol: float = 1e-9):
    """Kernel data of a positive map: (m, U, projector).

    m counts T(1)'s eigenvalues within tol * ||T(1)|| of 0; U is unitary with
    the kernel spanned by its last m columns; pi = U diag(1,..,1,0,..,0) U^*
    compresses every image, pi T(A) pi = T(A) within 1e-8 relative.  A
    compression failure means the input was not actually positive.
    """
    k = t.dim_out
    w, u = _eigh(_unit_image(t))
    m = int(np.sum(w <= tol * np.abs(w).max()))
    proj = u[:, :k - m] @ u[:, :k - m].conj().T
    images = t.action.T.reshape(-1, k, k).transpose(0, 2, 1)     # T(E_jl), stacked
    if np.abs(proj @ images @ proj - images).max() > 1e-8 * np.abs(images).max():
        raise PositivityError(
            "projector compression failed on a matrix unit; the map is not positive"
        )
    return m, u, proj


def channel_between(a, b, null_state: np.ndarray | None = None,
                    tol: float = 1e-9) -> SuperOperator:
    """A quantum channel T with T(b) = a.

    Exists iff tr(a) = tr(b) and ||a||_1 <= ||b||_1, read off the spectra
    within tol * ||b||_1.  Construction: eigendecompose both sides, transfer
    the eigenvalue vectors by a column-stochastic matrix, lift it to a
    pinching channel, and conjugate with the eigenbasis unitaries.  An
    eigendirection of b whose eigenvalue lies within tol * ||b||_1 of zero
    goes to null_state (default: the maximally mixed state), an n x n
    density matrix: Hermitian, PSD and of unit trace within tol.  The spectra
    are checked and transferred as lists of floats by the kernel of
    column_stochastic_transfer, with A's spectrum first moved into ||b||_1
    (_within_norm), and each matrix is validated once.
    """
    a = check_square(a, "A", 1e-10)
    b = check_square(b, "B", 1e-10)
    if a.shape != b.shape:
        raise ValueError("A and B must have equal size")
    n = a.shape[0]
    if n > MAX_CHANNEL_DIM:
        raise ValueError(f"channel_between handles n <= MAX_CHANNEL_DIM = {MAX_CHANNEL_DIM}, "
                         f"got n = {n}")
    if null_state is not None:
        null_state = check_square(null_state, "null_state", tol)
        if null_state.shape != a.shape or not _psd(np.linalg.eigvalsh(null_state), tol) \
                or abs(np.trace(null_state).real - 1.0) > tol:
            raise ValueError(f"null_state must be a density matrix of size {n} x {n} within tol")
    x, u = _eigh(a)
    y, v = _eigh(b)
    xs, ys = x.tolist(), y.tolist()
    eps = _scaled_tol(ys, tol)
    if abs(_np_sum(xs) - _np_sum(ys)) > eps:
        raise ValueError("channel_between requires tr(A) = tr(B)")
    if _np_sum(list(map(abs, xs))) > _np_sum(list(map(abs, ys))) + eps:
        raise ValueError("channel_between requires ||A||_1 <= ||B||_1")
    # absorb the slack accepted above (tol, wider than the 1e-10 that
    # column_stochastic_transfer accepts); A's spectrum moves O(eps) in 1-norm
    (p, _), (q, _) = _within_norm(xs, ys)
    m = np.array(_column_rows(list(map(sub, p, q)), ys, 1e-9))

    # T(v_j v_j*) = U diag(M[:, j]) U*, or omega where y_j vanishes; each
    # column is kron(conj(U), U) on the diagonal units, applied to M
    cols = (u.conj()[:, None, :] * u[None, :, :]).reshape(n * n, n) @ m
    null = np.abs(y) <= eps
    cols[:, null] = vec(np.eye(n) / n if null_state is None else null_state)[:, None]
    # row j reads the coefficient of v_j v_j* in X: vec(v_j v_j*)^* vec(X)
    rows = (v.T[:, :, None] * v.conj().T[:, None, :]).reshape(n, n * n)
    return SuperOperator(n, n, cols @ rows)


def matrix_majorizes(a, b, tol: float = 1e-9) -> bool:
    """True iff the eigenvalue vector of a is majorized by that of b."""
    a = check_square(a, "A", 1e-10)
    b = check_square(b, "B", 1e-10)
    if a.shape != b.shape:
        raise ValueError("A and B must have equal size")
    return majorizes(_eigh(a)[0], _eigh(b)[0], tol)


def _psd_sqrt(a: np.ndarray, clamp: float) -> np.ndarray:
    w, u = hermitian_eig(a, herm_tol=None)
    if w.min() < -clamp:
        raise PositivityError(f"matrix has eigenvalue {w.min():.3e}, beyond the PSD clamp")
    return u @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def _rank_one_sqrt(p: np.ndarray) -> np.ndarray:
    """sqrt(P) = P / sqrt(tr P) for a PSD P of rank at most one."""
    tr = np.trace(p).real
    return p / np.sqrt(tr) if tr > 0 else np.zeros_like(p)


def d_matrix_majorizes_2x2(a, b, d, tol: float = 1e-9) -> bool:
    """Two-dimensional test for a channel with fixed point diag(d) mapping
    b to a: trace equality, two trace-norm inequalities at the spectral
    points of D^{-1/2} B D^{-1/2}, and the generalized-fidelity inequality.
    """
    a = check_square(a, "A", 1e-10)
    b = check_square(b, "B", 1e-10)
    d = as_real_array(d)
    if d.ndim == 2:
        if (d != np.diag(np.diag(d))).any():  # also true for a NaN entry
            raise ValueError("D must be diagonal")
        d = np.diag(d)
    if a.shape != (2, 2) or b.shape != (2, 2) or d.shape != (2,):
        raise ValueError("d_matrix_majorizes_2x2 handles 2x2 inputs only")
    d = as_weight_vector(d)
    dm = np.diag(d).astype(complex)
    eps = tol * trace_norm(b)
    if abs(np.trace(a).real - np.trace(b).real) > eps:
        return False

    dis = np.diag(d ** -0.5)
    b2, b1 = hermitian_eig(dis @ b @ dis, herm_tol=None)[0]
    if any(trace_norm(a - t * dm) > trace_norm(b - t * dm) + eps for t in (b1, b2)):
        return False

    # the norm tests bound a's negative parts by eps; b's factors have rank one
    fid_a = trace_norm(_psd_sqrt(a - b1 * dm, eps) @ _psd_sqrt(b2 * dm - a, eps))
    fid_b = trace_norm(_rank_one_sqrt(b - b1 * dm) @ _rank_one_sqrt(b2 * dm - b))
    return fid_a >= fid_b - eps


def pure_state_reachable(rho, d, j: int, tol: float = 1e-9) -> bool:
    """True iff rho can be generated from the pure state e_j by a channel
    fixing diag(d): equivalent to diag(d) - d_j rho >= 0."""
    rho = check_square(rho, "rho", 1e-10)
    d = as_weight_vector(d)
    n = rho.shape[0]
    if d.shape != (n,):
        raise ValueError("d must be a positive vector matching rho")
    if not 0 <= j < n:
        raise ValueError("index out of range")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -tol or abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError("rho must be a density matrix")
    test = np.diag(d).astype(complex) - d[j] * rho
    return _psd(np.linalg.eigvalsh((test + test.conj().T) / 2), tol)


def identity_distance_witness(t: SuperOperator, tol: float = 1e-9):
    """A pure state certifying maximal distance from the identity channel.

    For a trace-preserving positive map with singular T(1): the kernel
    direction psi satisfies ||T(psi psi*) - psi psi*||_1 = 2.  Raises if T(1)
    is nonsingular (the map is strictly positive; no witness exists).
    """
    if t.dim_in != t.dim_out:
        raise ValueError("witness construction requires equal dimensions")
    m, u, _ = kernel_block_form(t, tol)
    if m == 0:
        raise ValueError("T(1) is nonsingular; the map is strictly positive")
    psi = u[:, -1]
    proj = np.outer(psi, psi.conj())
    return psi, trace_norm(t.apply(proj) - proj)


def kraus_set(t: SuperOperator, tol: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators from the Choi eigendecomposition (CP maps only): the
    eigenvectors of the eigenvalues above tol times the largest, scaled by
    their square roots in one product and read as dim_out x dim_in operators
    by one reshape."""
    w, vecs = hermitian_eig(choi(t))
    if not _psd(w, 1e-9):
        raise PositivityError("Choi matrix is not positive semi-definite")
    keep = w > tol * w[0]
    scaled = (vecs[:, keep] * np.sqrt(w[keep])).T
    return list(scaled.reshape(-1, t.dim_in, t.dim_out).transpose(0, 2, 1))


__all__ = [
    "MAX_CHANNEL_DIM",
    "PositivityError",
    "SuperOperator",
    "channel_between",
    "choi",
    "d_matrix_majorizes_2x2",
    "identity_distance_witness",
    "is_cp",
    "is_strictly_positive",
    "is_tp",
    "is_unital",
    "kernel_block_form",
    "kraus_set",
    "matrix_majorizes",
    "pure_state_reachable",
    "trace_norm",
    "unvec",
    "vec",
]
