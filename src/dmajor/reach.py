"""Hybrid switched dynamics on the probability simplex: instantaneous
permutations interleaved with dissipative flow exp(-t B0).

Provides trajectory simulation, constructive steering synthesis for the
zero-temperature bath (global and local single-qudit coupling), the
finite-temperature majorization envelope, and reproducible random sampling
of reachable points.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dissipation import Generator, _check_levels, b0_from_rates, check_zero_temperature, flow, \
    propagator, thermal_rates, zero_temperature_rates
from .linalg import check_permutation
from .majorize import SimplexViolationError, _integer, _real_number, _scaled_tol, _unchecked, \
    as_vector, as_weight_vector, majorizes

MAX_LOCAL_DIM = 4096
MAX_TRAJECTORY_ROWS = 10 ** 6
# rows times state length held by simulate: the row cap at 8 levels, 64 MB
MAX_TRAJECTORY_ENTRIES = 8 * 10 ** 6
MAX_SAMPLE_DEPTH = 12
# schedules per envelope: 2.3 s, 68 MB max RSS at n = 8, depth 12 (2-core VM)
MAX_SAMPLE_COUNT = 100_000
# the envelope reads its facets off polytope.constraint_matrix, capped at MAX_VERTEX_DIM
MAX_ENVELOPE_DIM = 8
# schedules propagated together; bounds the (block, depth, n, n) propagator stack
_SAMPLE_BLOCK = 1024
_GIVE_UP = 2.0 ** 59     # t ||N||_1 past which a doubling search gives up (_doubling)


def _check_simplex(x, size: int | None = None, tol: float = 1e-9) -> np.ndarray:
    """x as a state: a finite vector of the given size (any size for None),
    entries >= -tol and total within tol of 1; ValueError otherwise.

    An accepted state has no entry above 1 + n tol, up to the rounding of its
    total, so an entry above twice that is refused before the total is
    formed: the sum of entries in [-tol, 2 (1 + n tol)] cannot overflow."""
    x = as_vector(x)
    if size is not None and x.size != size:
        raise ValueError(f"state of length {x.size} where {size} is needed")
    if not (x.min() >= -tol and x.max() <= 2.0 * (1.0 + x.size * tol)) \
            or abs(x.sum() - 1.0) > tol:
        raise ValueError(f"state is outside the simplex beyond {tol}")
    return x


def _clamp_simplex(x: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Clamp numerical dust to zero and renormalize each state (the last
    axis of x); raise on real violations.

    Without a negative entry there is nothing to clamp, and x + 0.0 is
    max(x, 0) bit for bit (it turns a -0.0 into 0.0), so x is normalized as
    it is; a NaN entry fails that test and is refused below."""
    if x.min() >= 0.0:
        return (x + 0.0) / x.sum(axis=-1, keepdims=True)
    deficit = -np.minimum(x, 0.0).sum(axis=-1)
    if not (deficit <= tol).all():  # a NaN entry makes the deficit NaN
        raise SimplexViolationError(
            f"negative mass {np.max(deficit):.3e} exceeds tolerance {tol}")
    y = np.maximum(x, 0.0)
    return y / y.sum(axis=-1, keepdims=True)


_DURATION_REFUSAL = "segment duration must be a finite nonnegative number"


@dataclass(frozen=True, eq=False)
class Segment:
    """One control step: apply the permutation instantaneously, then dissipate
    for the given duration.  perm is an owned, read-only integer array, and
    segments compare by value; they are unhashable.  The duration is read by
    the number rule (a Python float as it is, anything else as a 0-d real
    array) and stored as a finite nonnegative Python float."""

    perm: np.ndarray
    duration: float

    def __post_init__(self):
        p = check_permutation(self.perm)    # copied where it is the caller's array or a view
        p = p.copy() if p is self.perm or not p.flags.owndata else p
        p.setflags(write=False)
        object.__setattr__(self, "perm", p)
        t = _real_number(self.duration, _DURATION_REFUSAL)
        if not 0.0 <= t < math.inf:
            raise ValueError(_DURATION_REFUSAL)
        object.__setattr__(self, "duration", t)

    def __eq__(self, other):
        if not isinstance(other, Segment):
            return NotImplemented
        return self.duration == other.duration and np.array_equal(self.perm, other.perm)


def _segment(perm: np.ndarray, duration: float) -> Segment:
    """Segment(perm, duration) for a permutation the library built (a swap,
    an arange, a _placement or a composition of these) and a finite,
    nonnegative Python float, without the checks: perm is handed over, marked
    read-only and stored without a copy or a second sort."""
    perm.setflags(write=False)
    return _unchecked(Segment, perm=perm, duration=duration)


@dataclass
class Schedule:
    segments: list[Segment] = field(default_factory=list)

    @property
    def total_duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    def __len__(self) -> int:
        return len(self.segments)

    def to_dict(self) -> dict:
        return {"segments": [
            {"perm": s.perm.tolist(), "duration": s.duration} for s in self.segments
        ]}

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        return cls([Segment(seg["perm"], seg["duration"])
                    for seg in data["segments"]])


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]


def _steps(gen: Generator, x0, schedule: Schedule, dt: float,
           max_entries: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (times, states) of the run from x0 sampled every dt: x0, then
    per segment the permuted state, the flow's samples and its end.  x0 may
    hold k copies of the n = gen.n levels, each flowing under exp(-t B0)
    (see flow).  Raises ValueError before the first block when x0 is not a
    state (_check_simplex), its length is not a multiple of n, a
    permutation's length differs from x0's, or the rows would exceed
    MAX_TRAJECTORY_ROWS or max_entries entries.

    A flow's end is the clamped flow over its whole duration, as in
    endpoint.  Its samples are the permuted state times P^j, P = exp(-dt
    B0)^T, j = 1..K, formed by doubling (rows [m, 2m) are rows [0, m) times
    P^m, P^m squared once per run: about log2 K matmuls) and clamped
    together.  Sample j lies within 4e-15 j (1-norm) of the clamped
    propagator(gen, j dt) @ x: the rounding of P compounds over the j steps,
    as it does one matvec at a time (n <= 8, j <= 1500, measured)."""
    x = _check_simplex(x0)
    n = gen.n
    if x.size % n or any(len(seg.perm) != x.size for seg in schedule.segments):
        raise ValueError(f"state and permutation lengths must be equal multiples of {n}")
    # one row per permutation, plus the dt samples and the end of each flow
    rows = 1.0 + sum(2.0 + seg.duration // dt if seg.duration > 0 else 1.0
                     for seg in schedule.segments)
    if rows > MAX_TRAJECTORY_ROWS:
        raise ValueError(f"trajectory of {rows:.3g} rows exceeds the cap {MAX_TRAJECTORY_ROWS}")
    if rows * x.size > max_entries:
        raise ValueError(f"trajectory of {rows * x.size:.3g} entries exceeds the cap {max_entries}")
    t, powers, k = 0.0, [], x.size // n     # powers: P^(2^j), squared once per run
    yield np.zeros(1), x[None].copy()
    for seg in schedule.segments:
        x = x[seg.perm]
        yield np.array([t]), x[None]
        if seg.duration > 0:
            n_steps = int(seg.duration // dt)
            if n_steps >= 1:
                # the unclamped state is propagated by doubling, in row blocks
                # of the k copies; its samples are clamped together
                powers = powers or [propagator(gen, dt).T]
                samples = np.empty((n_steps * k, n))
                samples[:k] = x.reshape(k, n) @ powers[0]
                for j in range((n_steps - 1).bit_length()):     # m = 2^j < n_steps
                    m = 1 << j
                    if j == len(powers):
                        powers.append(powers[-1] @ powers[-1])
                    samples[m * k:2 * m * k] = samples[:min(m, n_steps - m) * k] @ powers[j]
                yield (t + np.arange(1.0, n_steps + 1.0) * dt,
                       _clamp_simplex(samples.reshape(n_steps, x.size)))
            x = _clamp_simplex(flow(gen, x, seg.duration))
            t += seg.duration
            yield np.array([t]), x[None]


def simulate(gen: Generator, x0, schedule: Schedule, dt: float) -> Trajectory:
    """Run the schedule from x0, sampling the dissipative stretches every dt.

    Segment endpoints come from one matrix exponential each, matching the
    closed-form product of permutations and flows to machine precision.  The
    dt samples between them are powers of one step, formed by doubling; the
    j-th lies within 4e-15 j of its own exponential.  See _steps for these,
    for x0, which may hold k copies of the n levels, and for the checks made
    before any step; MAX_TRAJECTORY_ENTRIES caps the trajectory's entries."""
    dt = _real_number(dt, "dt must be a real number")
    if not dt > 0:
        raise ValueError("dt must be positive")
    times, states = zip(*_steps(gen, x0, schedule, dt, MAX_TRAJECTORY_ENTRIES))
    return Trajectory(times=np.concatenate(times), states=np.concatenate(states))


def endpoint(gen: Generator, x0, schedule: Schedule) -> np.ndarray:
    """Final state of a schedule: the last state of simulate with no sampling,
    under the same checks and row cap, holding one state at a time."""
    for _, states in _steps(gen, x0, schedule, np.inf, np.inf):
        pass
    return states[-1]


# ---------------------------------------------------------------------------
# zero-temperature synthesis
# ---------------------------------------------------------------------------

def _doubling(norm: float, seed: float) -> tuple[float, float]:
    """The time rule of every doubling search over the walk of a block N, ||N||_1 = norm:
    (start, limit), t = seed 2^k with 1/4 < t norm <= 1/2 (k of either sign) and _GIVE_UP
    / norm, or (seed, inf) at N = 0.  2^j N searches N's times over 2^j, bit for bit."""
    frac, k = math.frexp(seed * norm)
    return math.ldexp(seed, -k - (frac > 0.5)), _GIVE_UP / norm if norm else math.inf


def _first_face_hit(b0: np.ndarray, z: np.ndarray,
                    walk: Callable[[float], Iterator[tuple[float, np.ndarray]]]
                    ) -> tuple[float, int, np.ndarray]:
    """First time the backward flow w(t) = exp(t B0) z hits a vanishing coordinate,
    where walk is a _Series.walk: walk(t) yields (u, exp(u B0)) for u = t, 2t, 4t,
    ..., with walk.norm = ||B0||_1, walk.chain(t, walk) and walk.at(t).

    B0 is a block of a zero-temperature generator: upper bidiagonal, with a
    diagonal >= 0 and a superdiagonal < 0.  So w never re-enters the simplex
    (at the highest J with w_J < 0, w_J' = b_JJ w_J + b_J,J+1 w_J+1 <= 0 until
    a coordinate above J is negative), and min w > 0 holds on one interval
    [0, tau).  The bracket ends at the first state of the doubling search
    from the seed 1e-6 (_doubling) outside the open simplex.  Safeguarded
    Newton steps toward the earliest crossing of a falling coordinate, on
    Python floats, each probe a walk.at, then shrink it to 2e-15 * tau, a
    few ulps.  Returns (time, index, w(time)), ties toward the lowest index.
    """
    scale = max(1.0, float(np.add.reduce(np.abs(z))))
    lo, wt = 0.0, z.tolist()
    if min(wt) <= 1e-12 * scale:
        return 0.0, wt.index(min(wt)), z.copy()

    start, limit = _doubling(walk.norm, 1e-6)
    for hi, w_hi in ((u, w) for ts, e in walk.chain(start, walk) for u, w in zip(ts, e @ z)):
        if hi > limit:
            raise SimplexViolationError("backward flow never hits a face")
        w = w_hi.tolist()
        if not min(w) > 0.0:
            break
        lo, wt = hi, w

    diag, upper = b0.diagonal().tolist(), b0.diagonal(1).tolist() + [0.0]
    t, at_lo, cross = lo, True, 0.25
    move_before = move = hi - lo
    # the midpoint test ends a bracket of subnormal times, where 2e-15 * hi rounds to 0
    while hi - lo > 2e-15 * hi and lo < lo + 0.5 * (hi - lo) < hi:
        # Newton toward the earliest crossing of a falling coordinate (w' = B0 w),
        # landing a quarter of the stop past it so that both ends close in; from
        # within the stop, by a share of it that doubles each time, to outgrow the
        # rounding of w.  Bisect when that leaves the bracket or fails to halve
        stop = 2e-15 * hi
        probe = 0.5 * (lo + hi)
        slope = [d * a + u * b for d, u, a, b in zip(diag, upper, wt, wt[1:] + [0.0])]
        step = min((-a / s for a, s in zip(wt, slope) if s < 0.0), default=None)
        if step is not None:
            near = abs(step) <= stop
            share = cross if near else 0.25
            cross *= 2.0 if near else 1.0
            newton = t + step + (share if at_lo else -share) * stop
            if lo < newton < hi and (near or 2.0 * abs(newton - t) <= move_before):
                probe = newton
        move_before, move = move, abs(probe - t)
        t, w_t = probe, walk.at(probe) @ z
        wt = w_t.tolist()
        at_lo = min(wt) > 0.0
        if at_lo:
            lo = t
        else:
            hi, w_hi, w = t, w_t, wt
    floor = min(w) + 1e-13 * scale
    return hi, next(i for i, a in enumerate(w) if a <= floor), w_hi


def _two_level_face_hit(b0: list[list[float]], z0: float, z1: float) -> tuple[float, int]:
    """_first_face_hit's (time, index) on an upper triangular 2 x 2 block
    b0 = [[b00, b01], [0, b11]] with b01 < 0, in closed form on Python floats,
    with the same zero-time exit.

    The backward flow is w1(t) = z1 e^{b11 t} and w0(t) = e^{b00 t} (z0 + b01
    z1 (e^{d t} - 1) / d), d = b11 - b00, so only w0 can fall, and it vanishes
    at tau = log1p(x) / d, x = d z0 / (-b01 z1).  A flow that never reaches
    the face (x <= -1, possible only for d < 0), reaches it once the search
    gives up (tau ||b0||_1 > _GIVE_UP) or overflows w1 raises SimplexViolationError.
    """
    # np.abs(z).sum(), z.min() and z.argmin() of the pair, bit for bit
    if min(z0, z1) <= 1e-12 * max(1.0, abs(z0) + abs(z1)):
        return 0.0, 0 if z0 <= z1 else 1
    (b00, b01), (_, b11) = b0
    delta = b11 - b00
    ratio = z0 / z1
    # d / -b01 is exactly 1 for b0_from_rates, where then x = z0 / z1
    x = delta / -b01 * ratio
    if not x > -1.0:
        raise SimplexViolationError("backward flow never hits a face")
    tau = math.log1p(x) / delta if x else ratio / -b01
    if not (tau * max(abs(b00), abs(b01) + abs(b11)) <= _GIVE_UP and b11 * tau < 700.0):
        raise SimplexViolationError("backward flow leaves range before it hits a face")
    return tau, 0


def _ground_error_bound(x: np.ndarray) -> float:
    """synthesize_from_ground's error bound, held against x itself."""
    z = np.maximum(x, 0.0)
    return 2.1e-12 * x.size + float(np.abs(z / z.sum() - x).sum())


def _swap(j: int, k: int, n: int) -> np.ndarray:
    """The transposition of j and k among n coordinates, a new array."""
    swap = np.arange(n)
    swap[j], swap[k] = k, j
    return swap


def _ground_steps(gen: Generator, z: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """The forward (swap, tau) steps of synthesize_from_ground for a state z
    of gen.n levels with no negative entry and total 1, which it overwrites;
    each swap is a new array."""
    n, series = gen.n, gen._ladder[1]
    backward: list[tuple[np.ndarray, float]] = []
    m = n
    while True:
        while m > 1 and z[m - 1] <= 1e-13:
            m -= 1
        if m < 3:
            break
        tau, j, w = _first_face_hit(gen.b0[:m, :m], z[:m], series.walk(m))
        w = np.maximum(w, 0.0)
        z[:m] = w / np.add.reduce(w) * np.add.reduce(z[:m])
        z[j], z[m - 1] = z[m - 1], z[j]
        # a transposition is its own inverse, so the forward step reuses it
        backward.append((_swap(j, m - 1, n), tau))
        m -= 1
    if m == 2:
        tau, j = _two_level_face_hit(gen.b0[:2, :2].tolist(), *z[:2].tolist())
        backward.append((_swap(j, 1, n), tau))
    return backward[::-1]


def _block_steps(gen: Generator, c: np.ndarray, mass: float) -> list[tuple[np.ndarray, float]]:
    """The forward (swap, tau) steps from e_1 to c / mass clamped to its
    nonnegative part and normalized, for a zero-temperature gen, without
    checks.  A two-level block runs on Python floats, in the order of
    operations of the arrays, to the same bits."""
    if gen.n != 2:
        z = np.maximum(c / mass, 0.0)
        return _ground_steps(gen, z / z.sum())
    z0, z1 = (max(v / mass, 0.0) for v in c.tolist())
    total = z0 + z1
    z0, z1 = z0 / total, z1 / total
    if z1 <= 1e-13:
        return []
    tau, j = _two_level_face_hit(gen.b0.tolist(), z0, z1)
    return [(_swap(j, 1, 2), tau)]


def synthesize_from_ground(gen: Generator, x) -> Schedule:
    """Schedule of at most n-1 segments steering e_1 to x.

    Built backwards: evolve x backward until a coordinate vanishes while the
    state stays in the simplex, permute that face into the last active slot,
    and recurse on the shrunken support.  The backward flows run on the
    generator's cached series.  The last step, on the leading 2 x 2 block,
    has the closed form of _two_level_face_hit, within an ulp of the exact
    time, so every schedule ends without a search and an n = 2 generator
    never searches.  It lands within 2.1e-12 n of x' = max(x, 0) / its total
    in the 1-norm: a step may take a coordinate up to 1e-12 for zero, at
    twice its mass, and rounding adds at most 5e-16 n on seeded Dirichlet
    targets at n = 2..256 (1.4e-15 at n = 3, 1.2e-14 at 256).  The searches
    read time in units of 1 / ||B0||_1 (_doubling): 2^k B0 gets this schedule
    with durations over 2^k, bit for bit (k = -200..200 tested).
    """
    check_zero_temperature(gen)
    steps = _block_steps(gen, _check_simplex(x, gen.n), 1.0)
    return Schedule([_segment(p, t) for p, t in steps])


def _relax_time(gen: Generator, x, target, budget: float,
                what: str) -> tuple[float, np.ndarray]:
    """First t of the doubling search from the seed 1 (_doubling) on the
    forward series' N = mu I - B0 with ||exp(-t B0) x - target||_1 < budget,
    and exp(-t B0) x at that t, for a zero-temperature generator; x and
    target are one state, or one per column.

    The exact error falls with t.  The forward series' columns sum to 1
    exactly, so the computed error falls to the gap between the rounded
    totals of the relaxed state and of target, which is zero when they round
    alike.  Once a doubling no longer lowers it, or the search gives up, the
    budget is out of reach and SimplexViolationError(what) is raised.  The
    forward chain (_Series.chain) gives propagator(gen, t) bit for bit, a
    stretch of it as stack @ x with its errors in one reduction.
    """
    series, last = gen._ladder[0], np.inf
    start, limit = _doubling(float(series.norms[-1]), 1.0)
    for times, stack in series.chain(gen.n, start):
        if times[-1] > limit:
            raise SimplexViolationError(what)
        states = stack @ x
        errs = np.abs(states - target).reshape(len(times), -1).sum(axis=1).tolist()
        for t, state, err in zip(times, states, errs):
            if err < budget:
                return t, state
            if not err < last:
                raise SimplexViolationError(what)
            last = err


def synthesize(gen: Generator, x0, x, eps: float) -> Schedule:
    """Cool x0 toward e_1 within eps/2, then run the ground schedule.

    Every later step is a 1-norm contraction, so the cooling error (< eps/2)
    carries through unchanged.  The ground schedule adds its own error: each
    face hit is located to 2e-15 tau, a few ulps (the last, two-level one to
    an ulp, in closed form), and the state is renormalized onto the face,
    leaving ~2e-15 (1-norm) at n = 8 and ~1.2e-14 at 256 on seeded Dirichlet
    states (synthesize_from_ground states a bound).  The endpoint error is at
    most eps/2 plus that, and a smaller eps is not met; measure it with endpoint.
    The cooling flow's columns sum to 1 exactly, so it reaches e_1 up to the
    rounding of x0's total: SimplexViolationError is raised only when eps/2
    lies below that, as for an x0 whose total does not round to 1.  Cooling
    searches by the time rule of the ground schedule, so 2^k B0 scales it too.
    """
    eps = _real_number(eps, "eps must be a real number")
    if not eps > 0:
        raise ValueError("eps must be positive")
    check_zero_temperature(gen)
    n = gen.n
    x0, e1 = _check_simplex(x0, n), np.eye(1, n)[0]
    cool_t = 0.0 if np.abs(x0 - e1).sum() <= eps / 2.0 else \
        _relax_time(gen, x0, e1, eps / 2.0, "cooling did not converge")[0]
    return Schedule([_segment(np.arange(n), cool_t)] + synthesize_from_ground(gen, x).segments)


# ---------------------------------------------------------------------------
# local (tensor-chain) synthesis
# ---------------------------------------------------------------------------

def _placement(slots, sources, total: int) -> np.ndarray:
    """Permutation whose action moves old coordinate sources[k] to slot
    slots[k]; the other coordinates fill the free slots in ascending order."""
    images = np.full(total, -1)
    images[slots] = sources
    free = np.ones(total, bool)
    free[sources] = False
    images[images < 0] = np.flatnonzero(free)
    return images


def _merge_parallel(block_steps: dict[int, list[tuple[np.ndarray, float]]], n: int,
                    total: int, first: np.ndarray) -> list[Segment]:
    """Interleave the (perm, duration) steps of n-level schedules acting on
    disjoint blocks.

    Blocks are aligned to finish together: the longest starts immediately,
    shorter ones are delayed (their masses rest at flow-invariant block
    heads until they start).  One segment per event time applies the
    permutations due then, after first for the earliest, and flows until the
    next event or the end; first is handed over to the first segment.  A
    block's length is summed as Schedule.total_duration sums it."""
    events: list[tuple[float, int, np.ndarray]] = []
    lengths = {blk: sum(t for _, t in steps) for blk, steps in block_steps.items()}
    t_max = max(lengths.values(), default=0.0)
    for blk in sorted(block_steps):
        t_local = t_max - lengths[blk]
        for perm, t in block_steps[blk]:
            events.append((t_local, blk, perm))
            t_local += t
    events.sort(key=lambda e: (e[0], e[1]))
    if not events:
        return [_segment(first, 0.0)]
    segments: list[Segment] = []
    combined = first
    i = 0
    while i < len(events):
        clock = events[i][0]
        # events due together apply in schedule order, each on its block
        while i < len(events) and events[i][0] <= clock + 1e-15:
            _, blk, perm_n = events[i]
            sl = slice(blk * n, (blk + 1) * n)
            combined[sl] = combined[sl][perm_n]
            i += 1
        until = events[i][0] if i < len(events) else t_max
        segments.append(_segment(combined, max(until - clock, 0.0)))
        combined = np.arange(total)
    return segments


@lru_cache(maxsize=8)
def _block_b0(n: int) -> np.ndarray:
    """synthesize_local's block B0, read-only, once per plain int n <= 64.  A
    new Generator wraps it on each call, so its ladder lives in _ladder_of only."""
    b0 = b0_from_rates(zero_temperature_rates(n)).b0
    b0.setflags(write=False)
    return b0


def synthesize_local(n: int, m: int, x0, x, eps: float) -> Schedule:
    """Steering for the chain of m n-level systems with local noise.

    Step 1 collapses the state onto e_1 in m relax-and-gather rounds, each
    within eps / (2m); a round relaxes the n^(m-1) blocks together, as the
    columns of one matrix, on the n-level block's doubling chain.  Step 2
    splits the target block masses down the block-head hierarchy and
    finishes with the ground steps of every block (the steps of
    synthesize_from_ground) run in parallel.  Its maps are 1-norm
    contractions, so the endpoint error is at most eps/2 plus the ground
    steps' own error, which grows with n (see synthesize); at eps = 1e-12 on
    seeded Dirichlet states the endpoint error measured 3e-14 at 2^6, 8e-14
    at 2^12 and 1.2e-14 at 4^6.  For n = 2 every face hit is in closed form,
    on Python floats.  Each round's flow carries every block onto its head up
    to the rounding of the block's total, so SimplexViolationError is raised
    only when a round's budget lies below that rounding.  x0 and x are
    checked once, here.  One segment per event time: each gather and scatter
    rides on the next one.
    """
    eps = _real_number(eps, "eps must be a real number")
    if not eps > 0:
        raise ValueError("eps must be positive")
    _check_levels(n)
    m = _integer(m, "m must be an integer")
    if not 1 <= m <= 12:    # MAX_LOCAL_DIM = 2^12: no chain of more systems fits
        raise ValueError(f"m must lie in 1..12, got {m}")
    total = n ** m
    if total > MAX_LOCAL_DIM:
        raise ValueError(f"n^m = {total} exceeds the cap {MAX_LOCAL_DIM}")
    gen_block = _unchecked(Generator, b0=_block_b0(n)) if type(n) is int and n <= 64 else \
        b0_from_rates(zero_temperature_rates(n))
    x0 = _check_simplex(x0, total)
    x = _check_simplex(x, total)
    n_blocks = n ** (m - 1)

    segments: list[Segment] = []
    pending = np.arange(total)      # permutation riding on the next segment
    cur = np.maximum(x0, 0.0)
    cur = cur / cur.sum()

    # Step 1: m rounds of (relax every block to its head, gather the heads
    # of the still-active blocks into the leading coordinates).
    round_budget = eps / (2.0 * m)
    for r in range(1, m + 1):
        collapsed = np.zeros(total)
        collapsed[::n] = cur.reshape(n_blocks, n).sum(axis=1)
        t_relax, relaxed = _relax_time(gen_block, cur.reshape(n_blocks, n).T,
                                       collapsed.reshape(n_blocks, n).T, round_budget,
                                       "relaxation budget not reachable")
        segments.append(_segment(pending, t_relax))
        cur = _clamp_simplex(relaxed.T.reshape(total))
        heads = n * np.arange(n ** (m - r))
        pending = _placement(np.arange(heads.size), heads, total)
        cur = cur[pending]

    # Step 2: planned on the ideal collapsed state e_1; all remaining maps
    # are 1-norm contractions so the step-1 error rides along unchanged.
    blocks = x.reshape(n_blocks, n)
    block_mass = blocks.sum(axis=1)

    for level in range(1, m):
        span = n ** (m - level)            # coordinates per child subtree
        # parent k sits at coordinate k * span * n, i.e. at block k * span;
        # its i-th child subtree holds span / n consecutive fine blocks
        child_masses = block_mass.reshape(-1, n, span // n).sum(axis=2)
        parent_mass = child_masses.sum(axis=1).tolist()
        steer = {k * span: _block_steps(gen_block, c, mass)
                 for k, (c, mass) in enumerate(zip(child_masses, parent_mass)) if mass > 1e-15}
        segments.extend(_merge_parallel(steer, n, total, pending))
        # scatter the split masses from block slots to the child head positions
        parents = (span * n * np.arange(n ** (level - 1)))[:, None]
        pending = _placement((parents + span * np.arange(n)).ravel(),
                             (parents + np.arange(n)).ravel(), total)

    final = {k: _block_steps(gen_block, b, mass)
             for k, (b, mass) in enumerate(zip(blocks, block_mass.tolist())) if mass > 1e-15}
    segments.extend(_merge_parallel(final, n, total, pending))
    return Schedule(segments)


# ---------------------------------------------------------------------------
# finite-temperature envelope
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeReport:
    initial_majorized: bool
    tangential_margin: float
    tangential_witness: tuple[int, ...]
    sampled_violations: int
    samples_checked: int

    @property
    def tangential_ok(self) -> bool:
        return self.tangential_margin <= 1.0


def majorization_envelope(x0, d, sample_count: int = 100, sample_depth: int = 4,
                          seed: int = 0) -> tuple[np.ndarray, EnvelopeReport]:
    """Envelope vertex z bounding the reachable set of the thermal model.

    Requires n <= MAX_ENVELOPE_DIM, constant neighbour ratios of d
    (equidistant energy levels), x0 >= 0 within 1e-12 of its positive part's
    finite positive total, and sample_count <= MAX_SAMPLE_COUNT.
    z is the maximal corner of the d-majorization polytope of x0.  The report
    checks, without raising, that (a) x0 is majorized by z, (b) {x < z} is
    invariant under dx/dt = -B0 x and (c) no sampled schedule (schedule i is
    random_schedule's of seed + i; one propagator stack per 1024) leaves it,
    read off the half-space form of {x < z}, the d-majorization polytope of
    z at d = e, within majorizes' tolerance.

    (b) is Nagumo's condition on each facet F_S, S a nonempty proper subset:
    the field is linear, so the largest flux c . x = 1_S . (-B0 x) over F_S
    sets z sorted descending against S's entries, then the rest, each by c
    descending.  The largest flux (at least 0, the empty set's) must be
    <= 8 n u ||B0||_1 ||z||_1, u the unit roundoff; tangential_margin is it
    over that bound (<= 1 passes), at the vertex z[tangential_witness].
    """
    # here, so simulate and synthesize start without loading polytope
    from .polytope import constraint_matrix, halfspace_bounds, max_corner

    x0 = as_vector(x0)
    d = as_weight_vector(d)
    if x0.size != d.size:
        raise ValueError("x0 and d must have equal length")
    if x0.size > MAX_ENVELOPE_DIM:
        raise ValueError(f"n = {x0.size} exceeds the cap {MAX_ENVELOPE_DIM}")
    with np.errstate(over="ignore"):
        total = float(np.maximum(x0, 0.0).sum())
    if x0.min() < -1e-12 * total:
        raise ValueError("x0 must be entrywise nonnegative")
    sample_count = _integer(sample_count, "sample_count must be an integer")
    sample_depth = _integer(sample_depth, "sample_depth must be an integer")
    seed = _integer(seed, "seed must be an integer")
    if not 0 <= sample_count <= MAX_SAMPLE_COUNT:
        raise ValueError("sample_count must be nonnegative and at most MAX_SAMPLE_COUNT = "
                         f"{MAX_SAMPLE_COUNT}, got {sample_count}")
    if not 0 <= sample_depth <= MAX_SAMPLE_DEPTH:
        raise ValueError(f"sample_depth must lie in [0, {MAX_SAMPLE_DEPTH}], got {sample_depth}")
    steps = np.diff(np.log(d))      # log neighbour ratios: no overflow
    if (np.abs(steps - steps[:1]) > 1e-10).any():
        raise ValueError("d must have constant neighbour ratios (equidistant levels)")

    n = d.size
    if not 0.0 < total < np.inf:
        raise ValueError(f"x0 must have a finite positive total, got {total}")
    x0 = np.maximum(x0, 0.0) / total
    z = max_corner(x0, d)
    gen = b0_from_rates(thermal_rates(d))

    # the empty set first, the 0 floor (also at n = 1), then the proper subsets
    rows = np.vstack((np.zeros(n), constraint_matrix(n)[:-2]))
    c = -(rows @ gen.b0)
    order = np.lexsort((-c, -rows), axis=1)
    desc = np.argsort(-z, kind="stable")
    flux = (np.take_along_axis(c, order, axis=1) * z[desc]).sum(axis=1)
    k = int(flux.argmax())
    witness = desc[np.argsort(order[k])]    # z[witness] is the arrangement
    bound = 8 * n * (np.finfo(float).eps / 2) * np.abs(gen.b0).sum(axis=0).max() * np.abs(z).sum()
    margin = float(flux[k] / bound) if flux[k] > 0 else 0.0

    facets = constraint_matrix(n).T
    limit = halfspace_bounds(z, np.ones(n)).b + _scaled_tol(z, 1e-9)
    violations = 0
    for lo in range(0, sample_count, _SAMPLE_BLOCK):
        count = min(_SAMPLE_BLOCK, sample_count - lo)
        pts = _sample_paths(gen, x0, sample_depth, seed + lo, count)
        violations += int(np.count_nonzero(~(pts @ facets <= limit).all(axis=(1, 2))))

    report = EnvelopeReport(
        initial_majorized=majorizes(x0, z),
        tangential_margin=margin,
        tangential_witness=tuple(witness.tolist()),
        sampled_violations=violations,
        samples_checked=sample_count,
    )
    return z, report


# ---------------------------------------------------------------------------
# reproducible random sampling
# ---------------------------------------------------------------------------

def _draws(n: int, depth: int, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutations (count, depth, n) and durations (count, depth) of the
    random schedules of the seeds seed, ..., seed + count - 1 (mod 2^64).
    Seed s has the 64-bit splitmix stream mix(s + j gamma), j = 1, 2, ..., read
    as uniforms (output >> 11) / 2^53, n + 1 per segment: the permutation is
    the stable argsort of the first n, and the last u gives the duration
    exp(log 1e-3 + u log 1e5).  The states s + j gamma of all seeds form one
    uint64 array, mixed at once."""
    if not 0 <= depth <= MAX_SAMPLE_DEPTH:
        raise ValueError(f"depth must lie in [0, {MAX_SAMPLE_DEPTH}], got {depth}")
    z = (np.uint64(seed % 2 ** 64) + np.arange(count, dtype=np.uint64))[:, None] \
        + np.arange(1, depth * (n + 1) + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).reshape(count, depth, n + 1) / float(1 << 53)
    lo, hi = np.log(1e-3), np.log(1e2)
    return np.argsort(u[..., :n], axis=-1, kind="stable"), np.exp(lo + u[..., n] * (hi - lo))


def random_schedule(n: int, depth: int, seed: int) -> Schedule:
    """Deterministic pseudo-random schedule: uniform permutations and
    log-uniform durations on [1e-3, 1e2], from the splitmix stream of seed
    mod 2^64 (see _draws).  n, depth and seed are read by the number rule."""
    n = _integer(n, "n must be an integer")
    depth = _integer(depth, "depth must be an integer")
    seed = _integer(seed, "seed must be an integer")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    perms, durations = _draws(n, depth, seed, 1)
    return Schedule([Segment(p, t) for p, t in zip(perms[0], durations[0].tolist())])


def _sample_paths(gen: Generator, x0, depth: int, seed: int, count: int) -> np.ndarray:
    """States visited by the random schedules of the seeds seed, ...,
    seed + count - 1, x0 first: shape (count, depth + 1, n).

    The schedules are drawn together (_draws) and all propagators come from
    one stacked evaluation; the states of all schedules then advance one
    segment at a time, by one matvec per schedule as a single schedule would.
    """
    x = _check_simplex(x0, gen.n)
    perms, durations = _draws(gen.n, depth, seed, count)
    flows = propagator(gen, durations.ravel()).reshape(count, depth, gen.n, gen.n)
    out = np.empty((count, depth + 1, gen.n))
    out[:, 0] = x
    rows = np.arange(count)[:, None]
    for j in range(depth):
        permuted = out[:, j][rows, perms[:, j]]
        out[:, j + 1] = _clamp_simplex(np.matmul(flows[:, j], permuted[:, :, None])[:, :, 0])
    return out


def reachable_sample(gen: Generator, x0, depth: int, seed: int) -> np.ndarray:
    """States visited by one random schedule, including x0 (depth+1 points).
    depth and seed are read by the number rule."""
    depth = _integer(depth, "depth must be an integer")
    seed = _integer(seed, "seed must be an integer")
    return _sample_paths(gen, x0, depth, seed, 1)[0]


__all__ = [
    "EnvelopeReport",
    "Schedule",
    "Segment",
    "SimplexViolationError",
    "Trajectory",
    "endpoint",
    "majorization_envelope",
    "random_schedule",
    "reachable_sample",
    "simulate",
    "synthesize",
    "synthesize_from_ground",
    "synthesize_local",
]
