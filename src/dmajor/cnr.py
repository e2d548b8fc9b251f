"""C-spectrum, von Neumann trace bounds for Hermitian pairs, and sampled
C-numerical range {tr(C U* A U)} over Haar-random unitaries."""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .linalg import check_square, hermitian_eig

MAX_SPECTRUM_DIM = 7
# count * n^2 of c_numerical_range_sample, whose (count, n, n) complex stacks
# take 65-72 B per entry: at the cap, a 129-144 MiB tracemalloc peak (the
# Haar draws) and about 0.3-0.5 s for n = 32..2 (2-core VM, one BLAS thread)
MAX_SAMPLE_ENTRIES = 2 ** 21


def _check_normal(a, name: str, tol: float = 1e-9) -> np.ndarray:
    a = check_square(a, name)
    comm = a @ a.conj().T - a.conj().T @ a
    if np.abs(comm).max(initial=0.0) > tol * np.abs(a).max(initial=0.0) ** 2:
        raise ValueError(f"{name} is not normal within tolerance")
    return a


def c_spectrum(c, t, dedup_tol: float = 1e-10) -> np.ndarray:
    """All sums sum_i lambda_i(C) lambda_{pi(i)}(T) over permutations pi.

    Both matrices must be normal.  The sums come in (real, imag) order, and
    one within dedup_tol * ||lambda(C)||_1 * max |lambda(T)| (a bound on every
    sum, so rescaling keeps the count) of an earlier kept sum is dropped.  The
    sums are attained in the C-numerical range by permutation unitaries.
    """
    c = _check_normal(c, "C")
    t = _check_normal(t, "T")
    n = c.shape[0]
    if c.shape != t.shape:
        raise ValueError("C and T must have equal size")
    if n > MAX_SPECTRUM_DIM:
        raise ValueError(f"c_spectrum capped at n = {MAX_SPECTRUM_DIM}")
    lc = np.linalg.eigvals(c)
    lt = np.linalg.eigvals(t)
    perms = np.array(list(itertools.permutations(range(n))))
    values = lt[perms] @ lc
    values = values[np.lexsort((values.imag, values.real))]
    dedup_tol *= np.abs(lc).sum() * np.abs(lt).max()
    # kept sums within dedup_tol of v have real parts within it: a tail of out
    out = np.empty_like(values)
    k = 0
    for v in values:
        lo = np.searchsorted(out[:k].real, v.real - dedup_tol)
        if not (np.abs(out[lo:k] - v) <= dedup_tol).any():
            out[k] = v
            k += 1
    return out[:k]


class OrbitExtrema(NamedTuple):
    sup: float
    inf: float


def unitary_orbit_extrema(c, t) -> OrbitExtrema:
    """Exact sup and inf of tr(C U* T U) over unitaries, for Hermitian C, T.

    tr(C U* T U) = lc^T S lt with S doubly stochastic, so the extrema are
    attained at permutations: sup pairs both spectra sorted alike, inf pairs
    them oppositely.
    """
    wc, _ = hermitian_eig(c)
    wt, _ = hermitian_eig(t)
    if wc.shape != wt.shape:
        raise ValueError("C and T must have equal size")
    return OrbitExtrema(sup=float(wc @ wt), inf=float(wc @ wt[::-1]))


def haar_unitaries(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of Haar-distributed unitaries via QR with phase correction."""
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def c_numerical_range_sample(c, a, count: int, seed: int = 0) -> np.ndarray:
    """count samples of tr(C U* A U) at Haar-random unitaries (seeded), as
    sum conj(U) o (A U C): each product is one matrix product over the whole
    stack.  count * n^2 is capped at MAX_SAMPLE_ENTRIES, and a sample beyond
    the float range raises ValueError."""
    c = check_square(c, "C")
    a = check_square(a, "A")
    if c.shape != a.shape:
        raise ValueError("C and A must have equal size")
    if count * c.size > MAX_SAMPLE_ENTRIES:
        raise ValueError(f"count * n^2 = {count * c.size} exceeds the cap "
                         f"MAX_SAMPLE_ENTRIES = {MAX_SAMPLE_ENTRIES}")
    us = haar_unitaries(c.shape[0], count, np.random.default_rng(seed))
    k, n, _ = us.shape
    t = us.transpose(1, 0, 2)
    with np.errstate(over="ignore", invalid="ignore"):    # refused below
        # A times the n x kn matrix [U_1 ... U_k], then its kn x n rows times C
        w = ((a @ t.reshape(n, k * n)).reshape(k * n, n) @ c).reshape(t.shape)
        samples = np.einsum("mkl,mkl->k", t.conj(), w)
    if not np.isfinite(samples).all():
        raise ValueError("samples of tr(C U* A U) overflow the float range")
    return samples


__all__ = [
    "OrbitExtrema",
    "c_numerical_range_sample",
    "c_spectrum",
    "haar_unitaries",
    "unitary_orbit_extrema",
]
