"""Bath-coupling dissipation on diagonal states.

A pair of nearest-neighbour lowering/raising Lindblad operators induces, on
the diagonal of the density matrix, a tridiagonal rate matrix B0 whose flow
exp(-t B0) is a semigroup of column-stochastic matrices.  Thermal rates make
a prescribed positive probability vector the unique fixed point; rates with
zero raising part relax everything into the first basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import expm
from .majorize import as_vector, as_weight_vector


@dataclass(frozen=True)
class BathRates:
    """Nearest-neighbour lowering (a) and raising (b) amplitudes, length n-1."""

    n: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.a.shape != (self.n - 1,) or self.b.shape != (self.n - 1,):
            raise ValueError("rate arrays must have length n-1")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("rates must be finite")


# largest max(s) / min(s), s = sqrt(fixed point), for which the spectral
# propagator is used: its gap from expm grows about linearly with the spread
# and stays below 1e-13 up to 16 (n <= 8, t <= 100)
_MAX_SPECTRAL_SPREAD = 16.0


@dataclass(frozen=True)
class Generator:
    """Rate matrix B0 with zero column sums; exp(-t B0) is column-stochastic."""

    b0: np.ndarray

    def __post_init__(self):
        b0 = np.asarray(self.b0, dtype=float)
        object.__setattr__(self, "b0", b0)
        if b0.ndim != 2 or b0.shape[0] != b0.shape[1]:
            raise ValueError("B0 must be square")
        # reductions and strided views only: no n x n temporaries, since a
        # local generator may be 4096 x 4096
        hi, lo = float(b0.max()), float(b0.min())
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("entries of B0 must be finite")
        scale = max(1.0, hi, -lo)
        if np.max(np.abs(b0.sum(axis=0))) > 1e-12 * scale:
            raise ValueError("columns of B0 must sum to zero")
        n = b0.shape[0]
        # in row-major order, the entries after (0, 0) come in runs of n
        # off-diagonal entries, each followed by the next diagonal entry
        off = b0.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]
        if off.size and off.max() > 1e-12 * scale:
            raise ValueError("off-diagonal entries of B0 must be nonpositive")

    @property
    def n(self) -> int:
        return self.b0.shape[0]

    @cached_property
    def _balance(self) -> np.ndarray | None:
        """s = sqrt(pi) for a tridiagonal B0 with positive upper rates, which is
        in detailed balance with pi_{j+1} / pi_j = B0[j+1, j] / B0[j, j+1] (a
        zero lower rate cuts pi off above it: at zero temperature s = e_1);
        None for every other generator."""
        b0 = self.b0
        up, down = -np.diagonal(b0, 1), -np.diagonal(b0, -1)
        if not ((up > 0).all() and (down >= 0).all()):
            return None
        # count only: a local generator may be 4096 x 4096
        if np.count_nonzero(b0) != (np.count_nonzero(np.diagonal(b0)) + up.size
                                    + np.count_nonzero(down)):
            return None
        with np.errstate(all="ignore"):
            s = np.cumprod(np.r_[1.0, np.sqrt(down) / np.sqrt(up)])
        return s if np.isfinite(s).all() else None

    @cached_property
    def _spectral(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
        """(s Q, w, Q^T / s, max |B0_ij|) with exp(-t B0) = (s Q) diag(exp(-t w)) (Q^T / s),
        for a birth-death B0; None for every other generator.

        With s from _balance, diag(1/s) B0 diag(s) is the symmetric tridiagonal
        matrix with the same diagonal and off-diagonal -sqrt(B0[j, j+1]
        B0[j+1, j]), and one eigh of it gives every exponential.  Its rounding
        is amplified up to the spread max(s) / min(s), so the factors are kept
        only when that spread is at most _MAX_SPECTRAL_SPREAD.
        """
        s, b0 = self._balance, self.b0
        # also false for a zero entry of s, where the spread is infinite
        if s is None or not s.max() <= _MAX_SPECTRAL_SPREAD * s.min():
            return None
        off = -np.sqrt(-np.diagonal(b0, 1)) * np.sqrt(-np.diagonal(b0, -1))
        w, q = np.linalg.eigh(np.diag(np.diagonal(b0)) + np.diag(off, 1) + np.diag(off, -1))
        # B0 has zero column sums and nonpositive off-diagonal entries, so its
        # spectrum lies in [0, inf) and holds 0; pinning the smallest
        # eigenvalue there makes long flows end on the fixed point
        w = np.maximum(w, 0.0)
        w[0] = 0.0
        return s[:, None] * q, w, q.T / s, max(float(b0.max()), -float(b0.min()))


def check_zero_temperature(gen: Generator) -> None:
    """Raise ValueError unless B0 is a zero-temperature generator: tridiagonal
    with positive upper and exactly zero lower rates, so it cools into e_1."""
    if gen._balance is None or np.diagonal(gen.b0, -1).any():
        raise ValueError("generator is not of the zero-temperature upper-bidiagonal form")


def b0_from_rates(rates: BathRates) -> Generator:
    """Tridiagonal rate matrix: sum_j a_j^2 |e_{j+1}-e_j><e_{j+1}|
    + b_j^2 |e_j-e_{j+1}><e_j|.  Column sums vanish exactly."""
    n = rates.n
    # float_power squares by pow, as a scalar a_j ** 2 does; a ** 2 runs a * a,
    # which can differ in the last bit
    a2, b2 = np.float_power(rates.a, 2), np.float_power(rates.b, 2)
    b0 = np.zeros((n, n))
    flat = b0.reshape(-1)
    # the diagonal gets a2 before b2; subtracting keeps +0.0 at a zero rate
    flat[n + 1::n + 1] += a2
    flat[:-1:n + 1] += b2
    flat[1::n + 1] -= a2
    flat[n::n + 1] -= b2
    return Generator(b0)


def zero_temperature_rates(n: int) -> BathRates:
    """Pure lowering at ladder weights: a_j = sqrt(j(n-j)), b = 0."""
    if n < 1:
        raise ValueError("n must be positive")
    j = np.arange(1, n)
    return BathRates(n=n, a=np.sqrt(j * (n - j)), b=np.zeros(n - 1))


def thermal_angles(d) -> np.ndarray:
    """Mixing angles theta_j = arccos((1 + d_{j+1}/d_j)^{-1/2})."""
    d = as_weight_vector(d)
    return np.arccos((1.0 + d[1:] / d[:-1]) ** -0.5)


def thermal_rates(d) -> BathRates:
    """Rates making d the fixed point of the induced flow:
    a_j = sqrt(j(n-j) d_j / (d_j + d_{j+1})), b_j likewise with d_{j+1}."""
    d = as_weight_vector(d)
    n = d.size
    j = np.arange(1, n)
    w = j * (n - j)
    a = np.sqrt(w * d[:-1] / (d[:-1] + d[1:]))
    b = np.sqrt(w * d[1:] / (d[:-1] + d[1:]))
    return BathRates(n=n, a=a, b=b)


def gibbs_vector(energies, temperature: float) -> np.ndarray:
    """Boltzmann weights exp(-E_j/T), normalized.  Energies are shifted by
    their minimum before exponentiating (overflow-safe, same distribution)."""
    e = as_vector(energies)
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    w = np.exp(-(e - e.min()) / temperature)
    return w / w.sum()


def equidistant_d(alpha: float, n: int) -> np.ndarray:
    """Geometric weight vector (1-alpha)/(1-alpha^n) * (1, alpha, ..., alpha^{n-1});
    the Gibbs vector of an equidistant energy ladder, normalized to total 1."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    d = alpha ** np.arange(n)
    return (1.0 - alpha) / (1.0 - alpha ** n) * d


def flow(gen: Generator, x, t: float) -> np.ndarray:
    """Propagate x for time t >= 0: exp(-t B0) x."""
    if t < 0:
        raise ValueError("flow requires t >= 0")
    x = as_vector(x)
    if x.size != gen.n:
        raise ValueError("state dimension mismatch")
    return propagator(gen, t) @ x


def propagator(gen: Generator, t: float | np.ndarray) -> np.ndarray:
    """The column-stochastic matrix exp(-t B0); a 1-d array t gives the
    (k, n, n) stack, each slice equal bit for bit to the scalar call.

    A birth-death generator evaluates its cached eigendecomposition; every
    other one calls linalg.expm.  Raises ValueError when t*B0 is not finite.
    """
    t = np.asarray(t, dtype=float)
    lo, hi = (float(t.min()), float(t.max())) if t.size else (0.0, 0.0)
    if lo < 0:
        raise ValueError("propagator requires t >= 0")
    spectral = gen._spectral
    if spectral is None:
        return expm(gen.b0, -t)
    if t.ndim > 1:
        raise ValueError("propagator expects a scalar or 1-d array of times")
    sq, w, qs, scale = spectral
    if not hi * scale < np.inf:  # a nan or an overflow on the way
        raise ValueError("propagator expects finite t and a finite product t*B0")
    # a scalar runs as a stack of one, so that slices match it exactly; the
    # entries are bounded by the spread of s, so the result is finite
    out = (sq * np.exp(-t.reshape(-1, 1) * w)[:, None, :]) @ qs
    return out.reshape(t.shape + w.shape * 2)


def steady_state(gen: Generator, tol: float = 1e-9) -> np.ndarray:
    """The unique kernel vector of B0, normalized to total 1.

    A tridiagonal B0 with positive upper rates gives it in closed form, from
    its detailed-balance vector (exactly e_1 at zero temperature); for every
    other generator it is extracted from an SVD and must be one-dimensional.
    """
    s = gen._balance
    if s is not None:
        p = np.square(s / s.max())
        return p / p.sum()
    _, sv, vt = np.linalg.svd(gen.b0)
    null_dim = int(np.sum(sv <= tol * max(sv[0], 1.0)))
    if null_dim != 1:
        raise ValueError(f"B0 kernel is {null_dim}-dimensional; flow is not relaxing")
    v = vt[-1]
    if abs(v.sum()) < 1e-12:
        raise ValueError("kernel vector has vanishing total; flow is not relaxing")
    v = v / v.sum()
    if np.min(v) < -1e-10:
        raise ValueError("kernel vector has a negative entry beyond tolerance")
    return v


# ---------------------------------------------------------------------------
# matrix-level dissipator, for cross-checking the diagonal reduction
# ---------------------------------------------------------------------------

def lowering_raising_ops(rates: BathRates) -> list[np.ndarray]:
    """The Lindblad pair N+ = sum a_j |e_j><e_{j+1}|, N- = sum b_j |e_{j+1}><e_j|."""
    return [np.diag(rates.a, 1).astype(complex), np.diag(rates.b, -1).astype(complex)]


def sigma_plus(n: int) -> np.ndarray:
    """Spin lowering ladder sum_j sqrt(j(n-j)) |e_j><e_{j+1}|."""
    if n < 1:
        raise ValueError("n must be positive")
    j = np.arange(1, n)
    return np.diag(np.sqrt(j * (n - j)), 1).astype(complex)


def apply_gamma(ops, rho: np.ndarray) -> np.ndarray:
    """GKSL dissipator value sum_j [ (V_j^*V_j rho + rho V_j^*V_j)/2 - V_j rho V_j^* ]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("rho must be square")
    out = np.zeros_like(rho)
    for v in ops:
        v = np.asarray(v, dtype=complex)
        if v.shape != rho.shape:
            raise ValueError("Lindblad operator dimension mismatch")
        vv = v.conj().T @ v
        out += 0.5 * (vv @ rho + rho @ vv) - v @ rho @ v.conj().T
    return out


__all__ = [
    "BathRates",
    "Generator",
    "apply_gamma",
    "b0_from_rates",
    "check_zero_temperature",
    "equidistant_d",
    "flow",
    "gibbs_vector",
    "lowering_raising_ops",
    "propagator",
    "sigma_plus",
    "steady_state",
    "thermal_angles",
    "thermal_rates",
    "zero_temperature_rates",
]
