"""Bath-coupling dissipation on diagonal states.

A pair of nearest-neighbour lowering/raising Lindblad operators induces, on
the diagonal of the density matrix, a tridiagonal rate matrix B0 whose flow
exp(-t B0) is a semigroup of column-stochastic matrices.  Thermal rates make
a prescribed positive probability vector the unique fixed point; rates with
zero raising part relax everything into the first basis vector.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import accumulate
from operator import add, mul, neg, truediv

import numpy as np

from .linalg import check_square, expm
from .majorize import _finite_entries, _real_number, _unchecked, as_real_array, as_vector


@dataclass(frozen=True)
class BathRates:
    """Nearest-neighbour lowering (a) and raising (b) amplitudes, length n-1."""

    n: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_real_array(self.a))
        object.__setattr__(self, "b", as_real_array(self.b))
        if self.a.shape != (self.n - 1,) or self.b.shape != (self.n - 1,):
            raise ValueError("rate arrays must have length n-1")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
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
_CHAIN_CAP = 16     # entries kept per doubling chain; a walk that needs more squares on


def _check_levels(n: int) -> None:
    """Refuse n unless it is a level count: an integer in 1..MAX_BATH_DIM."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_BATH_DIM:
        raise ValueError(f"n = {n} exceeds the cap MAX_BATH_DIM = {MAX_BATH_DIM}")


class _Series:
    """exp(t (N - mu I)) for an upper triangular N whose entries are all
    >= 0, or all of the sign (-1)^(i+j), from the cached terms (N / nu)^p / p!,
    p = 0..18, nu the power of two just above ||N||_1, at the powers (h nu)^p
    <= 1 of a step h: both lie in the float range at every time unit of N,
    and each product is h^p N^p / p! bit for bit.

    Every term of an entry then has one sign, so the scaled sum and
    its squarings are accurate entry by entry (Xue & Ye, Math. Comp. 2013).
    The leading m x m block of N^p is the p-th power of N's, so the one stack
    serves every leading block.  With complement, row 0 of the result is set
    to 1 minus the rest of its column: for a column-stochastic flow into e_1
    that is the row where the rounding of the squarings collects.
    """

    def __init__(self, n_mat: np.ndarray, mu: float, complement: bool):
        # a leading block's columns are N's, cut above the zeros below the
        # diagonal, so its 1-norm is the largest of N's first m column sums
        self.norms = np.maximum.accumulate(np.abs(n_mat).sum(axis=0))
        # nu = 2^k, at most 2^1023 so that it is finite
        k = min(math.frexp(float(self.norms[-1]))[1], 1023)
        self.nu, scaled = math.ldexp(1.0, k), np.ldexp(n_mat, -k)
        terms = np.empty((_SERIES_DEGREE + 1,) + n_mat.shape)
        terms[0] = np.eye(n_mat.shape[0])
        for p in range(1, _SERIES_DEGREE + 1):
            terms[p] = terms[p - 1] @ scaled / p
        terms.setflags(write=False)     # shared by generators with the same B0
        self.terms, self.mu, self.complement = terms, mu, complement
        # the walk's chain refers to the series, at does not: no cycle keeps it alive
        self.full = self.walk(n_mat.shape[0]).at
        self.chains: dict[int, list] = {}       # block m -> [start, times, stack]
        self.room = terms.size if n_mat.shape[0] <= 64 else 0   # doubles left for chains

    def walk(self, m: int) -> Callable[..., Iterator[tuple[float, np.ndarray]]]:
        """(t, e) -> the pairs (u, exp(u (N - mu I))) of the leading m x m block for
        u = t, 2t, 4t, ..., squared on from e, the matrix at t / 2, if given.  Each u
        is evaluated afresh while u ||N||_1 < 1/2 and then by one squaring, equal bit
        for bit to a walk started at u, whose first value walk.at(u) gives by the same
        code; walk.norm is ||N||_1.  Raises ValueError when u*N is not finite, or past
        e^(u ||N||_1) = e^700 when the result is not.  Where (h nu)^18 overflows, a block
        far below nu sums the terms of its own series."""
        flat = self.terms[:, :m, :m].reshape(_SERIES_DEGREE + 1, m * m)
        norm, mu, complement, nu = float(self.norms[m - 1]), self.mu, self.complement, self.nu
        if norm and nu > 2.0 ** 57 * norm:  # h nu may pass 2^56: N's block, exactly, on its own
            own = _Series(np.ldexp(self.terms[1, :m, :m], math.frexp(nu)[1] - 1), mu, complement)

        def step(t: float, s: int, e: np.ndarray | None) -> tuple[int, np.ndarray]:
            # (s, exp at t): e squared s times, or the sum at h = t / 2^s squared s times
            if not t * norm < np.inf:  # a nan or an overflow on the way
                raise ValueError("exponential expects finite t and a finite product t*B0")
            if e is None:
                s = max(0, math.frexp(t * norm)[1] + 1)
                h = math.ldexp(t, -s)
                # a block with N = 0 (one level, a first block) sums no power of h
                x = h * nu if norm else 0.0
                if x > 2.0 ** 56:
                    with np.errstate(over="ignore"):
                        far = not (x ** _SERIES_POWERS)[-1] < np.inf
                    if far:
                        return s, own.full(t)
                e = (x ** _SERIES_POWERS @ flat).reshape(m, m)
                if mu:
                    e *= math.exp(-h * mu)
                if complement:
                    # row 0 of the triangular e feeds no other row and is
                    # set below, so it is not squared: its rounding would
                    # grow as (1 + u)^(2^s), to inf and then NaN
                    e[0] = 0.0
            if t * norm > 700.0:
                # an overflow is reported below, not warned about
                with np.errstate(over="ignore", invalid="ignore"):
                    for _ in range(s):
                        e = e @ e
            else:
                for _ in range(s):
                    e = e @ e
            # row 0 of the triangular e feeds no other row, so the next
            # squaring may start from the complement
            if complement:
                e[0] = 1.0 - e[1:].sum(axis=0)
            elif t * norm > 700.0 and not np.isfinite(e).all():
                raise ValueError("matrix exponential overflows")
            return s, e

        def walk(t: float, e: np.ndarray | None = None) -> Iterator[tuple[float, np.ndarray]]:
            # s > 0: a walk that reached t / 2 squared its step, as e was
            s = 0 if e is None else max(0, math.frexp(0.5 * t * norm)[1] + 1)
            while True:
                # doubling t ||N||_1 adds one squaring of the same h (at N = 0, e = I)
                s, e = step(t, min(s, 1), e if s else None)
                yield t, e
                t *= 2.0

        walk.at, walk.norm, walk.chain = lambda t: step(t, 0, None)[1], norm, partial(self.chain, m)
        return walk

    def chain(self, m: int, t: float, walk=None) -> Iterator[tuple[list[float], np.ndarray]]:
        """walk(t) as stretches (times, stack of the exponentials), bit for bit,
        walk being walk(m) unless given.  Block m keeps, read-only, up to _CHAIN_CAP
        entries that walks from its first t (a search's start, reach._doubling) build
        while its series' chains hold fewer doubles than the terms (none past 64
        levels), and yields them as one stretch; then the walk squares on.  An entry
        that raises is not kept."""
        kept = self.chains.get(m)
        if kept is None and self.room >= m * m:
            kept = self.chains[m] = [t, [], np.empty((0, m, m))]
        times, stack = kept[1:] if kept is not None and kept[0] == t else ([], None)
        i = len(times)
        if i:
            yield times[:], stack
        for u, e in (walk or self.walk(m))(2.0 * times[-1] if i else t, stack[-1] if i else None):
            if stack is not None and len(times) == i < _CHAIN_CAP and self.room >= m * m:
                times.append(u)
                kept[2] = stack = np.concatenate((stack, e[None]))
                stack.setflags(write=False)
                self.room -= m * m
            i += 1
            yield [u], e[None]


def _balance(b0: np.ndarray) -> np.ndarray | None:
    """s = sqrt(pi) for a tridiagonal B0 with positive upper rates, which is
    in detailed balance with pi_{j+1} / pi_j = B0[j+1, j] / B0[j, j+1] (a
    zero lower rate cuts pi off above it: at zero temperature s = e_1);
    None for every other generator."""
    diag, sup, sub = b0.diagonal().tolist(), b0.diagonal(1).tolist(), b0.diagonal(-1).tolist()
    if sup and not (max(sup) < 0.0 and max(sub) <= 0.0):
        return None
    # one count: no n x n temporaries for a large B0
    if np.count_nonzero(b0) != (len(diag) - diag.count(0.0) + len(sup)
                                + len(sub) - sub.count(0.0)):
        return None
    # the cumulative product of sqrt(-sub) / sqrt(-sup) from 1, on Python floats, in
    # np.cumprod's order (the same bits); past the float range a ratio or product is
    # inf without a warning, and no ratio is NaN, so s is finite if its last entry is
    ratios = map(truediv, map(math.sqrt, map(neg, sub)), map(math.sqrt, map(neg, sup)))
    s = list(accumulate(ratios, mul, initial=1.0))
    return np.array(s) if math.isfinite(s[-1]) else None


@dataclass(frozen=True)
class Generator:
    """Rate matrix B0 with zero column sums; exp(-t B0) is column-stochastic."""

    b0: np.ndarray

    def __post_init__(self):
        b0 = as_real_array(self.b0)
        object.__setattr__(self, "b0", b0)
        if b0.ndim != 2 or b0.shape[0] != b0.shape[1]:
            raise ValueError("B0 must be square")
        # reductions and strided views only: no n x n temporaries for a large B0
        hi, lo = float(b0.max()), float(b0.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError("entries of B0 must be finite")
        scale = max(hi, -lo)
        if np.abs(b0.sum(axis=0)).max() > 1e-12 * scale:
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
    def _spectral(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
        """(s Q, w, Q^T / s, max |B0_ij|) with exp(-t B0) = (s Q) diag(exp(-t w)) (Q^T / s),
        for a birth-death B0; None for every other generator.

        With s = _balance(B0), diag(1/s) B0 diag(s) is the symmetric tridiagonal
        matrix with the same diagonal and off-diagonal -sqrt(B0[j, j+1]
        B0[j+1, j]), and one eigh of it gives every exponential.  Its rounding
        is amplified up to the spread max(s) / min(s), so the factors are kept
        only when that spread is at most _MAX_SPECTRAL_SPREAD.
        """
        s, b0 = _balance(self.b0), self.b0
        # also false for a zero entry of s, where the spread is infinite
        if s is None or not max(spread := s.tolist()) <= _MAX_SPECTRAL_SPREAD * min(spread):
            return None
        diag, sup, sub = b0.diagonal().tolist(), b0.diagonal(1).tolist(), b0.diagonal(-1).tolist()
        n = len(diag)
        sym = np.zeros(n * n)     # filled in place, + 0.0 as in a sum of np.diag matrices
        sym[::n + 1] = [v + 0.0 for v in diag]
        sym[1::n + 1] = sym[n::n + 1] = [-math.sqrt(-u) * math.sqrt(-v)
                                         for u, v in zip(sup, sub)]
        w, q = np.linalg.eigh(sym.reshape(n, n))
        # B0 has zero column sums and nonpositive off-diagonal entries, so its
        # spectrum lies in [0, inf) and holds 0; pinning the smallest
        # eigenvalue there makes long flows end on the fixed point
        w = np.maximum(w, 0.0)
        w[0] = 0.0
        return s[:, None] * q, w, q.T / s, max(map(abs, diag + sup + sub))

    @cached_property
    def _ladder(self) -> tuple[_Series, _Series] | None:
        """(forward, backward) series for exp(-t B0) and exp(t B0), for a
        zero-temperature B0 of at most MAX_BATH_DIM levels, shared by every
        generator with the same B0 of at most 64 levels (_ladder_of, at most
        20.2 MB, looked up before B0's form is checked); None for every other
        generator.

        B0 is upper bidiagonal with diagonal >= 0 and superdiagonal <= 0.  The
        forward flow is exp(-t B0) = e^{-t mu} exp(t (mu I - B0)), mu = max
        diag B0, with mu I - B0 >= 0; its columns are made exactly stochastic.
        The backward flow is exp(t B0) = D exp(t |B0|) D, D = diag((-1)^j),
        which is the series of B0 itself, since B0 = D |B0| D.
        """
        b0 = self.b0
        if self.n > MAX_BATH_DIM or b0.diagonal(-1).any():
            return None
        try:
            return (_ladder_of if self.n <= 64 else _ladder_of.__wrapped__)(b0.tobytes(), self.n)
        except LookupError:
            return None


# the last 8 ladders of at most 64 levels, by B0's bytes, with chains: 8 x (4 x 19 + 1) x 64^2
# doubles, 20.2 MB.  A build is 5-40 % of a synthesis at every n; one of 256 levels is 20 MB
@lru_cache(maxsize=8)
def _ladder_of(key: bytes, n: int) -> tuple[_Series, _Series]:
    """The ladder of the B0 with these bytes and no lower rates; LookupError,
    which lru_cache does not store, unless its upper rates are positive."""
    b0 = np.frombuffer(key).reshape(n, n)
    if _balance(b0) is None:
        raise LookupError("B0 is not a zero-temperature ladder")
    mu = float(b0.diagonal().max())
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
    + b_j^2 |e_j-e_{j+1}><e_j|.  Each column sums to within an ulp of its diagonal
    entry, by rounding: Generator's checks but finiteness hold by construction.
    Raises ValueError above MAX_BATH_DIM levels or for an entry past the float range."""
    n = rates.n
    _check_levels(n)
    # float_power squares by pow, as a scalar a_j ** 2 does; a ** 2 runs a * a,
    # which can differ in the last bit
    a2, b2 = np.float_power(rates.a, 2).tolist(), np.float_power(rates.b, 2).tolist()
    diag = list(map(add, [0.0] + a2, b2 + [0.0]))   # a2 before b2, as sums onto zeros
    if not max(diag) < math.inf:
        raise ValueError("entries of B0 must be finite")
    b0 = np.zeros((n, n))
    flat = b0.reshape(-1)
    flat[::n + 1] = diag
    # subtracting from 0.0 keeps +0.0 at a zero rate
    flat[1::n + 1] = [0.0 - v for v in a2]
    flat[n::n + 1] = [0.0 - v for v in b2]
    return _unchecked(Generator, b0=b0)


def zero_temperature_rates(n: int) -> BathRates:
    """Pure lowering at ladder weights: a_j = sqrt(j(n-j)), b = 0."""
    _check_levels(n)
    a = [math.sqrt(j * (n - j)) for j in range(1, n)]
    return _unchecked(BathRates, n=n, a=np.array(a), b=np.zeros(n - 1))


def thermal_rates(d) -> BathRates:
    """Rates making d the fixed point of the induced flow, on Python floats (which
    round as numpy does): a_j = sqrt(j(n-j) d_j / (d_j + d_{j+1})), b_j likewise with
    d_{j+1}.  The rates depend on the ratios of d alone; d is scaled by a power of two
    to a largest entry in [1/2, 1), exactly, so that no sum overflows."""
    d = _finite_entries(d)      # as_weight_vector(d).tolist(), with its refusals
    if min(d) <= 0:
        raise ValueError("weight vector entries must be strictly positive")
    k = math.frexp(max(d))[1]
    d = [math.ldexp(v, -k) for v in d]
    n = len(d)
    a, b = [], []
    for j, lo, hi in zip(range(1, n), d, d[1:]):
        w, pair = j * (n - j), lo + hi
        a.append(math.sqrt(w * lo / pair))
        b.append(math.sqrt(w * hi / pair))
    return _unchecked(BathRates, n=n, a=np.array(a), b=np.array(b))


def gibbs_vector(energies, temperature: float) -> np.ndarray:
    """Boltzmann weights exp(-E_j/T), normalized.  Energies are shifted by
    their minimum before exponentiating (overflow-safe, same distribution);
    a gap (E_j - min E)/T beyond the float range gives the weight 0."""
    e = as_vector(energies)
    temperature = _real_number(temperature, "temperature must be a real number")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    with np.errstate(over="ignore"):
        w = np.exp(-(e - e.min()) / temperature)
    return w / w.sum()


def equidistant_d(alpha: float, n: int) -> np.ndarray:
    """Geometric weight vector (1-alpha)/(1-alpha^n) * (1, alpha, ..., alpha^{n-1});
    the Gibbs vector of an equidistant energy ladder, normalized to total 1."""
    alpha = _real_number(alpha, "alpha must be a real number")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
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
    if type(t) is float:    # a Python float passes the gate, and is its own bounds
        lo = hi = t
        t = np.array(t)
    else:
        t = as_real_array(t)
        lo, hi = (float(t.min()), float(t.max())) if t.size else (0.0, 0.0)
    if lo < 0:
        raise ValueError("propagator requires t >= 0")
    ladder = gen._ladder    # a memo hit skips _balance; a ladder has no spectral form
    spectral = gen._spectral if ladder is None else None
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
    s = _balance(gen.b0)
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
    """Spin lowering ladder sum_j sqrt(j(n-j)) |e_j><e_{j+1}| of n <= MAX_BATH_DIM levels."""
    _check_levels(n)
    j = np.arange(1, n)
    return np.diag(np.sqrt(j * (n - j)), 1).astype(complex)


def apply_gamma(ops, rho: np.ndarray) -> np.ndarray:
    """GKSL dissipator value sum_j [ (V_j^*V_j rho + rho V_j^*V_j)/2 - V_j rho V_j^* ]."""
    rho = check_square(rho, "rho")
    out = np.zeros_like(rho)
    for v in ops:
        v = check_square(v, "Lindblad operator")
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
