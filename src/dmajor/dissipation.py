"""Bath-coupling dissipation on diagonal states.

A pair of nearest-neighbour lowering/raising Lindblad operators induces, on
the diagonal of the density matrix, a tridiagonal rate matrix B0 whose flow
exp(-t B0) is a semigroup of column-stochastic matrices.  Thermal rates make
a prescribed positive probability vector the unique fixed point; rates with
zero raising part relax everything into the first basis vector.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

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


# levels of a bath generator built from rates: B0 is a dense n x n matrix and
# a zero-temperature one caches 38 more.  At the cap, synthesize takes 1.1 s
# and its endpoint check 0.3 s, with a 32 MB tracemalloc peak (2-core VM)
MAX_BATH_DIM = 256
# largest max(s) / min(s), s = sqrt(fixed point), for which the spectral
# propagator is used: its gap from expm grows about linearly with the spread
# and stays below 1e-13 up to 16 (n <= 8, t <= 100)
_MAX_SPECTRAL_SPREAD = 16.0
# degree of the zero-temperature Taylor series; each exponential sums it at
# h ||N||_1 <= 1/2, where the first omitted term is below 2^-19 / 19! ~ 2e-23
_SERIES_DEGREE = 18
_SERIES_POWERS = np.arange(_SERIES_DEGREE + 1.0)


def _check_levels(n: int) -> None:
    if n > MAX_BATH_DIM:
        raise ValueError(f"n = {n} exceeds the cap MAX_BATH_DIM = {MAX_BATH_DIM}")


class _Series:
    """exp(t (N - mu I)) for an upper triangular N whose entries are all
    >= 0, or all of the sign (-1)^(i+j), from the cached terms N^p / p!,
    p = 0..18.

    Every term of an entry then has one sign, so the scaled sum and
    its squarings are accurate entry by entry (Xue & Ye, Math. Comp. 2013).
    The leading m x m block of N^p is the p-th power of N's, so the one stack
    serves every leading block.  With complement, row 0 of the result is set
    to 1 minus the rest of its column: for a column-stochastic flow into e_1
    that is the row where the rounding of the squarings collects.
    """

    def __init__(self, n_mat: np.ndarray, mu: float, complement: bool):
        terms = np.empty((_SERIES_DEGREE + 1,) + n_mat.shape)
        terms[0] = np.eye(n_mat.shape[0])
        for p in range(1, _SERIES_DEGREE + 1):
            terms[p] = terms[p - 1] @ n_mat / p
        terms.setflags(write=False)     # shared by generators with the same B0
        self.terms, self.mu, self.complement = terms, mu, complement
        # a leading block's columns are N's, cut above the zeros below the
        # diagonal, so its 1-norm is the largest of N's first m column sums
        self.norms = np.maximum.accumulate(np.abs(n_mat).sum(axis=0))
        walk = self.walk(n_mat.shape[0])
        self.full = lambda t: next(walk(t))[1]

    def walk(self, m: int) -> Callable[[float], Iterator[tuple[float, np.ndarray]]]:
        """t -> the pairs (u, exp(u (N - mu I))) of the leading m x m block
        for u = t, 2t, 4t, ...  Each u is evaluated afresh while u ||N||_1 <
        1/2 and then by one squaring, equal bit for bit to a walk started at
        u.  Raises ValueError when u*N or the result is not finite, which is
        tested where it can fail: past e^(u ||N||_1) = e^700, or at h^18 = inf."""
        flat = self.terms[:, :m, :m].reshape(_SERIES_DEGREE + 1, m * m)
        norm, mu, complement = float(self.norms[m - 1]), self.mu, self.complement

        def walk(t: float) -> Iterator[tuple[float, np.ndarray]]:
            s = 0
            while True:
                if not t * norm < np.inf:  # a nan or an overflow on the way
                    raise ValueError("exponential expects finite t and a finite product t*B0")
                if s:
                    # doubling t ||N||_1 adds one squaring of the same h (at N = 0, e = I)
                    s = 1
                else:
                    # s squarings of the step h = t / 2^s, h ||N||_1 <= 1/2
                    s = max(0, math.frexp(t * norm)[1] + 1)
                    h = math.ldexp(t, -s)
                    e = (h ** _SERIES_POWERS @ flat).reshape(m, m)
                    if mu:
                        e *= math.exp(-h * mu)
                # past e^700 an overflow is reported below, not warned about
                with (np.errstate(over="ignore", invalid="ignore") if t * norm > 700.0
                      else contextlib.nullcontext()):
                    for _ in range(s):
                        e = e @ e
                # row 0 of the triangular e feeds no other row, so the next
                # squaring may start from the complement
                if complement:
                    e[0] = 1.0 - e[1:].sum(axis=0)
                elif (t * norm > 700.0 or h > 2.0 ** 56) and not np.isfinite(e).all():
                    raise ValueError("matrix exponential overflows")
                yield t, e
                t *= 2.0

        return walk


@dataclass(frozen=True)
class Generator:
    """Rate matrix B0 with zero column sums; exp(-t B0) is column-stochastic."""

    b0: np.ndarray

    def __post_init__(self):
        b0 = np.asarray(self.b0, dtype=float)
        object.__setattr__(self, "b0", b0)
        if b0.ndim != 2 or b0.shape[0] != b0.shape[1]:
            raise ValueError("B0 must be square")
        # reductions and strided views only: no n x n temporaries for a large B0
        hi, lo = float(b0.max()), float(b0.min())
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("entries of B0 must be finite")
        scale = max(hi, -lo)
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
        # count only: no n x n temporaries for a large B0
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

    @cached_property
    def _ladder(self) -> tuple[_Series, _Series] | None:
        """(forward, backward) series for exp(-t B0) and exp(t B0), for a
        zero-temperature B0 of at most MAX_BATH_DIM levels, shared by every
        generator with the same B0 of at most 64 levels (_ladder_of, at most
        10.2 MB); None for every other generator.

        B0 is upper bidiagonal with diagonal >= 0 and superdiagonal <= 0.  The
        forward flow is exp(-t B0) = e^{-t mu} exp(t (mu I - B0)), mu = max
        diag B0, with mu I - B0 >= 0; its columns are made exactly stochastic.
        The backward flow is exp(t B0) = D exp(t |B0|) D, D = diag((-1)^j),
        which is the series of B0 itself, since B0 = D |B0| D.
        """
        b0 = self.b0
        if self.n > MAX_BATH_DIM or self._balance is None or np.diagonal(b0, -1).any():
            return None
        return (_ladder_of if self.n <= 64 else _ladder_of.__wrapped__)(b0.tobytes(), self.n)


# the last 8 ladders of at most 64 levels, by B0's bytes: 8 x (2 x 19 + 1) x 64^2 doubles,
# 10.2 MB at most.  A build is 5-40 % of a synthesis at every n; one of 256 levels is 20 MB
@lru_cache(maxsize=8)
def _ladder_of(key: bytes, n: int) -> tuple[_Series, _Series]:
    b0 = np.frombuffer(key).reshape(n, n)
    mu = float(np.diagonal(b0).max())
    return (_Series(mu * np.eye(n) - b0, mu, complement=True),
            _Series(b0, 0.0, complement=False))


def check_zero_temperature(gen: Generator) -> None:
    """Raise ValueError unless B0 is a zero-temperature generator of at most
    MAX_BATH_DIM levels: tridiagonal with positive upper and exactly zero
    lower rates, so it cools into e_1."""
    _check_levels(gen.n)
    if gen._ladder is None:
        raise ValueError("generator is not of the zero-temperature upper-bidiagonal form")


def b0_from_rates(rates: BathRates) -> Generator:
    """Tridiagonal rate matrix: sum_j a_j^2 |e_{j+1}-e_j><e_{j+1}|
    + b_j^2 |e_j-e_{j+1}><e_j|.  Column sums vanish exactly.  Raises
    ValueError above MAX_BATH_DIM levels."""
    n = rates.n
    _check_levels(n)
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
    _check_levels(n)
    j = np.arange(1, n)
    return BathRates(n=n, a=np.sqrt(j * (n - j)), b=np.zeros(n - 1))


def thermal_rates(d) -> BathRates:
    """Rates making d the fixed point of the induced flow:
    a_j = sqrt(j(n-j) d_j / (d_j + d_{j+1})), b_j likewise with d_{j+1}.
    The rates depend on the ratios of d alone; d is scaled by a power of two
    to a largest entry in [1/2, 1), exactly, so that no sum overflows."""
    d = as_weight_vector(d)
    d = np.ldexp(d, -math.frexp(float(d.max()))[1])
    n = d.size
    j = np.arange(1, n)
    w = j * (n - j)
    a = np.sqrt(w * d[:-1] / (d[:-1] + d[1:]))
    b = np.sqrt(w * d[1:] / (d[:-1] + d[1:]))
    return BathRates(n=n, a=a, b=b)


def gibbs_vector(energies, temperature: float) -> np.ndarray:
    """Boltzmann weights exp(-E_j/T), normalized.  Energies are shifted by
    their minimum before exponentiating (overflow-safe, same distribution);
    a gap (E_j - min E)/T beyond the float range gives the weight 0."""
    e = as_vector(energies)
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    with np.errstate(over="ignore"):
        w = np.exp(-(e - e.min()) / temperature)
    return w / w.sum()


def equidistant_d(alpha: float, n: int) -> np.ndarray:
    """Geometric weight vector (1-alpha)/(1-alpha^n) * (1, alpha, ..., alpha^{n-1});
    the Gibbs vector of an equidistant energy ladder, normalized to total 1."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    _check_levels(n)
    d = alpha ** np.arange(n)
    return (1.0 - alpha) / (1.0 - alpha ** n) * d


def flow(gen: Generator, x, t: float) -> np.ndarray:
    """Propagate x for time t >= 0: exp(-t B0) x, or for k copies of the n
    levels (k n entries) (I_k (x) exp(-t B0)) x, applied blockwise."""
    if t < 0:
        raise ValueError("flow requires t >= 0")
    x = as_vector(x)
    if x.size % gen.n:
        raise ValueError(f"state length must be a multiple of the generator's {gen.n} levels")
    return (x.reshape(-1, gen.n) @ propagator(gen, t).T).reshape(-1)


def propagator(gen: Generator, t: float | np.ndarray) -> np.ndarray:
    """The column-stochastic matrix exp(-t B0); a 1-d array t gives the
    (k, n, n) stack, each slice equal bit for bit to the scalar call.

    A birth-death generator evaluates its cached eigendecomposition, and a
    zero-temperature one its cached forward series, whose columns sum to 1
    exactly; every other one calls linalg.expm.  Raises ValueError when t*B0
    is not finite.
    """
    t = np.asarray(t, dtype=float)
    lo, hi = (float(t.min()), float(t.max())) if t.size else (0.0, 0.0)
    if lo < 0:
        raise ValueError("propagator requires t >= 0")
    spectral, ladder = gen._spectral, gen._ladder
    if spectral is None and ladder is None:
        return expm(gen.b0, -t)
    if t.ndim > 1:
        raise ValueError("propagator expects a scalar or 1-d array of times")
    if spectral is None:
        forward = ladder[0].full
        if t.ndim == 0:
            return forward(float(t))
        return np.array([forward(tk) for tk in t.tolist()]).reshape(t.shape + (gen.n,) * 2)
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
    null_dim = int(np.sum(sv <= tol * sv[0]))
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
    "thermal_rates",
    "zero_temperature_rates",
]
