import itertools
import json
import math
import re
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

import dmajor.dissipation
import dmajor.polytope
import dmajor.reach
from dmajor.dissipation import BathRates, Generator, b0_from_rates, equidistant_d, flow, \
    propagator, thermal_rates, zero_temperature_rates
from dmajor.linalg import expm
from dmajor.majorize import majorizes
from dmajor.reach import (
    EnvelopeReport,
    Schedule,
    Segment,
    SimplexViolationError,
    endpoint,
    majorization_envelope,
    random_schedule,
    reachable_sample,
    simulate,
    synthesize,
    synthesize_from_ground,
    synthesize_local,
)
from helpers import perm_matrix


def _gen(n):
    return b0_from_rates(zero_temperature_rates(n))


def _bisection_face_hit(b0, z):
    """Reference: a fresh exponential per probe, doubling from 1e-6, bisection
    to 1e-12 relative and a 31-point grid against an earlier crossing."""

    def w(t):
        return scipy.linalg.expm(t * b0) @ z

    scale = max(1.0, float(np.abs(z).sum()))
    if float(np.min(z)) <= 1e-12 * scale:
        return 0.0, int(np.argmin(z))
    t_hi = 1e-6
    while np.min(w(t_hi)) > 0.0:
        t_hi *= 2.0
    t_lo = 0.0 if t_hi == 1e-6 else t_hi / 2.0
    tau = t_hi
    for _ in range(4):
        lo, hi = t_lo, t_hi
        while hi - lo > 1e-12 * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if np.min(w(mid)) > 0.0:
                lo = mid
            else:
                hi = mid
        tau = hi
        bad = [t for t in np.linspace(t_lo, tau, 33)[1:-1]
               if np.min(w(t)) < -1e-13 * scale]
        if not bad:
            break
        t_hi = bad[0]
    wt = w(tau)
    return tau, int(np.nonzero(wt <= np.min(wt) + 1e-13 * scale)[0][0])


def _search_start(seed, norm):
    """Reference: where a doubling search over the walk of a block of 1-norm
    norm starts, seed 2^k with 1/4 < t norm <= 1/2, by doubling and halving."""
    t = seed
    while 2.0 * t * norm <= 0.5:
        t *= 2.0
    while t * norm > 0.5:
        t *= 0.5
    return t


def _loop_face_hit(b0, z, walk):
    """Reference: _walk_face_hit's Newton search with its slopes summed over
    every entry of B0, and a guard grid against a skipped crossing checked
    one state at a time: 31 states from the bracket's start to the hit,
    stepped by one exponential, the bracket moved to the first below the
    face and searched again.  walk(t) yields (u, exp(u B0)) for u = t, 2t, 4t, ...  Also returns
    the number of bracket passes, one more than the moves of the grid."""
    scale = max(1.0, float(np.abs(z).sum()))
    if float(np.min(z)) <= 1e-12 * scale:
        return 0.0, int(np.argmin(z)), z.copy(), 0
    norm = float(np.abs(b0).sum(axis=0).max())
    t_lo, w_lo = 0.0, z
    for t_hi, e in walk(_search_start(1e-6, norm)):
        if t_hi * norm > 2.0 ** 59:
            raise SimplexViolationError("backward flow never hits a face")
        w_hi = e @ z
        if not np.min(w_hi) > 0.0:
            break
        t_lo, w_lo = t_hi, w_hi
    rows = b0.tolist()
    for passes in range(1, 5):
        lo, hi = t_lo, t_hi
        t, wt, at_lo = lo, w_lo, True
        move_before = move = hi - lo
        cross = 0.25
        while hi - lo > 2e-15 * hi:
            stop = 2e-15 * hi
            w = wt.tolist()
            slope = [math.fsum(r * a for r, a in zip(row, w)) for row in rows]
            steps = [-a / s for a, s in zip(w, slope) if s < 0.0]
            probe = 0.5 * (lo + hi)
            if steps:
                step = min(steps)
                if abs(step) <= stop:
                    newton = t + step + (cross if at_lo else -cross) * stop
                    cross *= 2.0
                else:
                    newton = t + step + (0.25 if at_lo else -0.25) * stop
                if lo < newton < hi and (abs(step) <= stop
                                         or 2.0 * abs(newton - t) <= move_before):
                    probe = newton
            move_before, move = move, abs(probe - t)
            t, wt = probe, next(walk(probe))[1] @ z
            at_lo = bool(np.min(wt) > 0.0)
            if at_lo:
                lo = t
            else:
                hi, w_hi = t, wt
        tau, w_tau = hi, w_hi
        h = (tau - t_lo) / 32.0
        step = next(walk(h))[1]
        v = w_lo
        for k in range(1, 32):
            v = step @ v
            if np.min(v) < -1e-13 * scale:
                t_hi, w_hi = t_lo + k * h, v
                break
        else:
            break
    hit = np.nonzero(w_tau <= np.min(w_tau) + 1e-13 * scale)[0]
    return tau, int(hit[0]), w_tau, passes


# rotating (b0, z) pairs, not generators, whose first bracket holds an earlier
# crossing than the one the Newton and bisection steps find: the reference's
# guard grid moves the bracket.  They have no cached series, so _expm_walk
# evaluates them
_SKIPPED_CROSSINGS = [
    (np.array([[-0.1, -0.30262018940639035, 3.1588265459827496, -6.140176616045918],
               [0.30262018940639035, -0.1, -2.4062495063544427, 3.43847493769642],
               [-3.1588265459827496, 2.4062495063544427, -0.1, 7.3718477035095695],
               [6.140176616045918, -3.43847493769642, -7.3718477035095695, -0.1]]),
     np.array([0.45005841680449127, 0.4003493877492151, 0.036861512639811043,
               0.11273068280648271])),
    (np.array([[-0.1, -13.654704424351078, 7.85620990110225],
               [13.654704424351078, -0.1, -4.803971698510563],
               [-7.85620990110225, 4.803971698510563, -0.1]]),
     np.array([0.16010613672705667, 0.1509030921120871, 0.6889907711608562])),
]


def _expm_walk(b0):
    """walk(t) for a B0 without a series: (u, expm(u B0)) for u = t, 2t, 4t, ...,
    with the norm, chain and first value of _Series.walk's walks."""
    def walk(t):
        for k in itertools.count():
            yield t * 2.0 ** k, expm(b0, t * 2.0 ** k)
    walk.norm = float(np.abs(b0).sum(axis=0).max())
    walk.chain = lambda t, walk: (([u], e[None]) for u, e in walk(t))
    walk.at = lambda t: next(walk(t))[1]
    return walk


def _relax_norm(gen):
    """||mu I - B0||_1, mu = max diag B0: the norm of the forward series' N."""
    return float(np.abs(gen.b0.diagonal().max() * np.eye(gen.n) - gen.b0).sum(axis=0).max())


def _exact_relax_time(gen, x, target, budget):
    """Reference: the first t of the doubling search from the seed 1 whose
    exact propagator brings x within budget of target; None where the error
    stops falling first or t ||N||_1 passes 2^59."""
    norm, last = _relax_norm(gen), np.inf
    t = _search_start(1.0, norm)
    while t * norm <= 2.0 ** 59:
        err = np.abs(propagator(gen, t) @ x - target).sum()
        if err < budget:
            return t
        if not err < last:
            return None
        t, last = 2.0 * t, err
    return None


def _relax_or_none(gen, x, target, budget):
    """_relax_time as (t, state), or (None, None) where it raises."""
    try:
        return dmajor.reach._relax_time(gen, x, target, budget, "no")
    except SimplexViolationError:
        return None, None


def _walk_relax_time(gen, x, target, budget, what):
    """Reference: _relax_time one exponential at a time, on the forward
    series' walk from the search's start, each error reduced on its own."""
    norm, last = _relax_norm(gen), np.inf
    for t, e in gen._ladder[0].walk(gen.n)(_search_start(1.0, norm)):
        if t * norm > 2.0 ** 59:
            raise SimplexViolationError(what)
        state = e @ x
        err = np.abs(state - target).sum()
        if err < budget:
            return t, state
        if not err < last:
            raise SimplexViolationError(what)
        last = err


def _walk_face_hit(b0, z, walk):
    """Reference: the face hit by safeguarded Newton steps, each probe a
    walk.at, that _first_face_hit took before its Taylor model, with its
    bracket on walk(t_first), one exponential at a time, squared on by the
    walk itself."""
    scale = max(1.0, float(np.abs(z).sum()))
    if float(z.min()) <= 1e-12 * scale:
        return 0.0, int(np.argmin(z)), z.copy()
    norm = float(np.abs(b0).sum(axis=0).max())
    lo, wt = 0.0, z.tolist()
    for hi, e in walk(_search_start(1e-6, norm)):
        if hi * norm > 2.0 ** 59:
            raise SimplexViolationError("backward flow never hits a face")
        w_hi = e @ z
        w = w_hi.tolist()
        if not min(w) > 0.0:
            break
        lo, wt = hi, w
    diag, upper = b0.diagonal().tolist(), b0.diagonal(1).tolist() + [0.0]
    t, at_lo, cross = lo, True, 0.25
    move_before = move = hi - lo
    while hi - lo > 2e-15 * hi:
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
        t, w_t = probe, next(walk(probe))[1] @ z
        wt = w_t.tolist()
        at_lo = min(wt) > 0.0
        if at_lo:
            lo = t
        else:
            hi, w_hi, w = t, w_t, wt
    floor = min(w) + 1e-13 * scale
    return hi, next(i for i, a in enumerate(w) if a <= floor), w_hi


def _outcome(fn, *args):
    """fn(*args) as ("ok", its values as bytes or floats), or the class and
    message of what it raised."""
    try:
        out = fn(*args)
    except (ValueError, SimplexViolationError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", [v.tobytes() if isinstance(v, np.ndarray) else v for v in out]


def _assert_same_hit(b0, z, walk):
    """_first_face_hit, run first (so that it meets a cold chain first),
    against _walk_face_hit: the same refusal, or hits within the figures of
    _assert_near_reference, whose verdict it returns."""
    try:
        got = dmajor.reach._first_face_hit(b0, z, walk)
    except (ValueError, SimplexViolationError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _walk_face_hit(b0, z, walk)
        return False
    return _assert_near_reference(b0, z, got, _walk_face_hit(b0, z, walk))


def _assert_near_reference(b0, z, got, ref):
    """A face hit (tau, j, w) against ref, the hit of the Newton search with a
    walk.at per probe (_walk_face_hit, _loop_face_hit): the same index, tau
    within 6e-15 tau (three stops) and w within 1e-14 max(1, ||z||_1).
    Returns whether the hit lies outside those figures, which each caller
    bounds in number: on stiff blocks the series' rounding, which its
    squarings grow with tau ||B0||_1, moves either search's hit by more, and
    the two read it at different times.  Such a hit must still lie within the
    figure of w grown by max(1, tau ||B0||_1), in w and in tau read through
    the slope of w_j."""
    (tau, j, w), (tau_ref, j_ref, w_ref) = got, ref
    scale = max(1.0, float(np.abs(z).sum()))
    assert j == j_ref
    if abs(tau - tau_ref) <= 6e-15 * tau_ref and np.abs(w - w_ref).max() <= 1e-14 * scale:
        return False
    grown = 1e-14 * scale * max(1.0, tau_ref * np.linalg.norm(b0, 1))
    assert np.abs(w - w_ref).max() <= grown
    assert abs(tau - tau_ref) <= 6e-15 * tau_ref or abs(tau - tau_ref) * abs(b0[j] @ w_ref) <= grown
    return True


@pytest.fixture(scope="module")
def faces():
    """Seeded (B0 block, state, walk) triples as synthesize_from_ground
    meets them: n = 2..8, leading m x m block with the backward series' walk
    of that block, Dirichlet states of three concentrations."""
    rng = np.random.default_rng(11)
    out = []
    for n in range(2, 9):
        gen = _gen(n)
        for conc in (0.3, 1.0, 3.0):
            for _ in range(25):
                m = int(rng.integers(2, n + 1))
                out.append((gen.b0[:m, :m], rng.dirichlet(np.full(m, conc)),
                            gen._ladder[1].walk(m)))
    return out


@pytest.fixture(scope="module")
def rate_faces():
    """Seeded (B0 block, state, walk) triples on pure-birth blocks of other
    rates: the unit ladders of 12 to 64 levels and 30 ladders with rates
    a_j = 10^U(-3, 3), 300 faces each, m = 3..n, Dirichlet states of three
    concentrations."""
    rng = np.random.default_rng(7)
    gens = [_gen(n) for n in (12, 16, 24, 32, 48, 64)]
    for _ in range(30):
        n = int(rng.integers(3, 17))
        gens.append(b0_from_rates(BathRates(n, 10.0 ** rng.uniform(-3, 3, n - 1), np.zeros(n - 1))))
    out = []
    for gen in gens:
        for _ in range(300):
            m = int(rng.integers(3, gen.n + 1))
            out.append((gen.b0[:m, :m], rng.dirichlet(np.full(m, rng.choice([0.3, 1.0, 3.0]))),
                        gen._ladder[1].walk(m)))
    return out


# hand-made zero-temperature generators on three levels, (b00, b01, b11) of
# the leading block, with b00 and b11 + b01 inside the column-sum tolerance
_TOLERATED_BLOCKS = [(1e-13, -0.5, 0.5 + 3e-13), (3e-13, -0.7, 0.7 - 2e-13),
                     (-2e-13, -0.3, 0.3), (0.0, -1e-3, 1e-3 + 5e-13)]


def _tolerated_gen(b00, b01, b11):
    return Generator(np.array([[b00, b01, 0.0], [0.0, b11, -1.0], [0.0, 0.0, 1.0]]))


@pytest.fixture(scope="module")
def two_level_faces():
    """Seeded (B0 block, state, walk) triples at m = 2: for the leading block
    of n = 2, 3, 4, 5, 8, 16 and 64, Dirichlet states of three
    concentrations, ratios z0 / z1 from 1e-11 to 1e11 and both sides of the
    zero-time exit; for the generators of _TOLERATED_BLOCKS, Dirichlet
    states and the zero-time exits."""
    rng = np.random.default_rng(13)
    edge = 1e-12
    above = np.nextafter(edge, 1.0)
    exits = [np.array([t, 1.0 - t]) for t in (edge, above)]
    exits += [z[::-1] for z in exits]
    ratios = [np.array([r, 1.0]) / (1.0 + r) for r in 10.0 ** np.arange(-11.0, 11.5, 0.5)]
    gens = [_gen(n) for n in (2, 3, 4, 5, 8, 16, 64)]
    out = []
    for gen in gens:
        states = [rng.dirichlet(np.full(2, c)) for c in (0.3, 1.0, 3.0) for _ in range(30)]
        out += [(gen.b0[:2, :2], z, gen._ladder[1].walk(2)) for z in states + ratios + exits]
    for gen in map(_tolerated_gen, *zip(*_TOLERATED_BLOCKS)):
        out += [(gen.b0[:2, :2], z, gen._ladder[1].walk(2))
                for z in list(rng.dirichlet(np.ones(2), size=30)) + exits]
    return out


def _scalar_majorizes(x, y, tol=1e-9):
    eps = tol * max(1.0, float(np.abs(y).sum()))
    if abs(x.sum() - y.sum()) > eps:
        return False
    xs = np.cumsum(np.sort(x)[::-1])
    ys = np.cumsum(np.sort(y)[::-1])
    return bool(np.all(xs[:-1] <= ys[:-1] + eps))


def _splitmix64(seed):
    """Reference: the SplitMix64 output stream of seed mod 2^64, one Python
    int at a time."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def _reference_uniforms(n, depth, seed):
    """Reference: one schedule's uniforms drawn from the scalar stream, n + 1
    a segment: the sort keys (depth, n) and the duration uniforms (depth,)."""
    stream = _splitmix64(seed)
    u = np.array([(next(stream) >> 11) / float(1 << 53) for _ in range(depth * (n + 1))])
    u = u.reshape(depth, n + 1)
    return u[:, :n], u[:, n]


def _log_uniform(u):
    lo, hi = np.log(1e-3), np.log(1e2)
    return np.exp(lo + u * (hi - lo))


def _per_point_sample(b0, x, depth, seed):
    """Reference: the schedule's uniforms from the scalar stream, each
    segment's keys ranked by Python's stable sort, then one exponential, one
    clamp and one copy per segment."""
    keys, u = _reference_uniforms(b0.shape[0], depth, seed)
    points = [x.copy()]
    for key, duration in zip(keys, _log_uniform(u)):
        perm = sorted(range(key.size), key=key.__getitem__)     # a stable ranking
        x = scipy.linalg.expm(-float(duration) * b0) @ x[perm]
        assert -np.minimum(x, 0.0).sum() <= 1e-10
        x = np.maximum(x, 0.0)
        x = x / x.sum()
        points.append(x.copy())
    return np.array(points)


def _tangent_partials(z, b0):
    """Reference: the tangent test one vertex at a time.  For each
    permutation P, the largest partial sum (at least 0, the empty one) of
    v = -B0 P z taken in the order of P z descending, ties by v descending,
    leaving out the full sum; and the bound 8 n u ||B0||_1 ||z||_1."""
    n = z.size
    bound = 8 * n * 2.0 ** -53 * np.abs(b0).sum(axis=0).max() * np.abs(z).sum()
    worst = {}
    for perm in itertools.permutations(range(n)):
        pz = z[list(perm)]
        v = -(b0 @ pz)
        total = top = 0.0
        for i in sorted(range(n), key=lambda i: (-pz[i], -v[i]))[:-1]:
            total += v[i]
            top = max(top, total)
        worst[perm] = top
    return worst, bound


def _per_point_envelope(x0, d, sample_count, depth, seed):
    """Reference: majorization_envelope with the tangent test run one vertex
    at a time and one scalar majorization test per sampled point."""
    x0 = np.maximum(x0, 0.0)
    x0 = x0 / x0.sum()
    z = dmajor.polytope.max_corner(x0, d)
    b0 = b0_from_rates(thermal_rates(d)).b0
    worst, bound = _tangent_partials(z, b0)
    witness = max(worst, key=worst.get)
    margin = worst[witness] / bound if worst[witness] > 0 else 0.0
    violations = sum(any(not _scalar_majorizes(p, z)
                         for p in _per_point_sample(b0, x0, depth, seed + s))
                     for s in range(sample_count))
    return z, EnvelopeReport(_scalar_majorizes(x0, z), margin, witness, violations, sample_count)


def _assert_tangent_matches(z, b0, report):
    """The facet pass against the vertex reference: the same verdict, the
    worst flux (margin times bound) within 1e-12 ||B0||_1 ||z||_1, and a
    witness vertex that reaches the reference maximum within that."""
    worst, bound = _tangent_partials(z, b0)
    top = max(worst.values())
    tol = 1e-12 * np.abs(b0).sum(axis=0).max() * np.abs(z).sum()
    assert report.tangential_ok == ((top / bound if top > 0 else 0.0) <= 1.0)
    assert abs(report.tangential_margin * bound - top) <= tol
    assert worst[report.tangential_witness] >= top - tol


def _assert_matches_reference(x0, d, count, depth, seed, z, report):
    """z and every count exactly as the per-point reference, the tangent
    test as the vertex reference."""
    z_ref, report_ref = _per_point_envelope(x0, d, count, depth, seed)
    assert np.array_equal(z, z_ref)
    exact = ("initial_majorized", "tangential_ok", "sampled_violations", "samples_checked")
    assert [getattr(report, f) for f in exact] == [getattr(report_ref, f) for f in exact]
    _assert_tangent_matches(z, b0_from_rates(thermal_rates(d)).b0, report)


def _leaves_after_short_flow(b0, pz, z):
    """Whether exp(-1e-4 B0) P z has a top-k sum above z's."""
    out = np.sort(scipy.linalg.expm(-1e-4 * b0) @ pz)[::-1].cumsum()
    return bool(np.any(out[:-1] > np.sort(z)[::-1].cumsum()[:-1]))


def _reference_synthesize(gen, x0, x, eps):
    """Reference: synthesize with the cooling time doubled in a bounded loop
    from the search's start."""
    n = gen.n
    x0 = np.asarray(x0, dtype=float)
    e1 = np.eye(n)[0]
    cool_t = 0.0
    if np.abs(x0 - e1).sum() > eps / 2.0:
        cool_t = _search_start(1.0, _relax_norm(gen))
        for _ in range(2 ** 16):
            if np.abs(flow(gen, x0, cool_t) - e1).sum() < eps / 2.0:
                break
            cool_t *= 2.0
    ground = synthesize_from_ground(gen, x)
    return Schedule([Segment(tuple(range(n)), cool_t)] + ground.segments)


def _reference_embed_block_perm(perm_n, block, n, total):
    p = np.arange(total)
    base = block * n
    for j, img in enumerate(perm_n):
        p[base + j] = base + img
    return p


def _reference_gather_perm(sources, total):
    source_set = set(sources)
    rest = [i for i in range(total) if i not in source_set]
    return np.array(list(sources) + rest)


def _reference_merge_parallel(block_schedules, n, total):
    """Reference: events due together composed through embedded full-length
    permutations."""
    if not block_schedules:
        return []
    events = []
    t_max = max(s.total_duration for s in block_schedules.values())
    for blk in sorted(block_schedules):
        sched = block_schedules[blk]
        t_local = t_max - sched.total_duration
        for seg in sched.segments:
            events.append((t_local, blk, seg.perm))
            t_local += seg.duration
    events.sort(key=lambda e: (e[0], e[1]))
    segments = []
    clock = 0.0
    i = 0
    while i < len(events):
        t_evt = events[i][0]
        if t_evt > clock + 1e-15:
            segments.append(Segment(tuple(range(total)), t_evt - clock))
            clock = t_evt
        combined = np.arange(total)
        while i < len(events) and events[i][0] <= clock + 1e-15:
            _, blk, perm_n = events[i]
            combined = _reference_embed_block_perm(perm_n, blk, n, total)[combined]
            i += 1
        segments.append(Segment(tuple(combined), 0.0))
    if t_max > clock:
        segments.append(Segment(tuple(range(total)), t_max - clock))
    return segments


def _reference_synthesize_local(n, m, x0, x, eps):
    """Reference: synthesize_local with per-block loops, the fill loop for
    the scatter and a bounded doubling loop from the search's start for each
    relaxation."""
    total = n ** m
    gen_block = _gen(n)
    x = np.asarray(x, dtype=float)
    n_blocks = n ** (m - 1)

    def block_flow(state, t):
        step = expm(gen_block.b0, -t)
        return (step @ state.reshape(n_blocks, n).T).T.reshape(total)

    segments = []
    cur = np.maximum(np.asarray(x0, dtype=float), 0.0)
    cur = cur / cur.sum()
    round_budget = eps / (2.0 * max(m, 1))
    for r in range(1, m + 1):
        collapsed = np.zeros(total)
        for k in range(n_blocks):
            collapsed[k * n] = cur[k * n:(k + 1) * n].sum()
        t_relax = _search_start(1.0, _relax_norm(gen_block))
        for _ in range(2 ** 16):
            if np.abs(block_flow(cur, t_relax) - collapsed).sum() < round_budget:
                break
            t_relax *= 2.0
        segments.append(Segment(tuple(range(total)), t_relax))
        cur = dmajor.reach._clamp_simplex(block_flow(cur, t_relax))
        gather = _reference_gather_perm([k * n for k in range(n ** (m - r))], total)
        segments.append(Segment(tuple(gather), 0.0))
        cur = cur[gather]

    block_mass = np.array([x[k * n:(k + 1) * n].sum() for k in range(n_blocks)])
    for level in range(1, m):
        span = n ** (m - level)
        child_blocks = span // n
        parents = [k * span * n for k in range(n ** (level - 1))]
        steer = {}
        for p_pos in parents:
            first_block = p_pos // n
            child_masses = np.array([
                block_mass[first_block + i * child_blocks:
                           first_block + (i + 1) * child_blocks].sum()
                for i in range(n)
            ])
            mass = child_masses.sum()
            if mass <= 1e-15:
                continue
            steer[p_pos // n] = synthesize_from_ground(gen_block, child_masses / mass)
        segments.extend(_reference_merge_parallel(steer, n, total))
        images = np.full(total, -1, dtype=int)
        for p_pos in parents:
            for i in range(n):
                images[p_pos + i * span] = p_pos + i
        used = set(int(v) for v in images if v >= 0)
        remaining = iter(i for i in range(total) if i not in used)
        for slot in range(total):
            if images[slot] < 0:
                images[slot] = next(remaining)
        segments.append(Segment(tuple(images), 0.0))

    final = {}
    for k in range(n_blocks):
        if block_mass[k] <= 1e-15:
            continue
        final[k] = synthesize_from_ground(gen_block, x[k * n:(k + 1) * n] / block_mass[k])
    segments.extend(_reference_merge_parallel(final, n, total))
    return Schedule(segments)


def _steer_global(rng):
    gen = _gen(int(rng.integers(3, 7)))
    return gen, gen.n, lambda x0, target, eps: synthesize(gen, x0, target, eps=eps)


def _steer_local(rng):
    n, m = [(2, 2), (3, 2), (2, 3)][int(rng.integers(3))]
    return _gen(n), n ** m, lambda x0, target, eps: synthesize_local(n, m, x0, target, eps)


def _assert_same_schedule(got, want):
    assert [s.perm.tolist() for s in got.segments] == [s.perm.tolist() for s in want.segments]
    assert [s.duration for s in got.segments] == [s.duration for s in want.segments]


def _steps(schedule):
    """(composite permutation, duration) of each flow, the permutations of
    zero-duration segments composed into the flow after them; a composite
    left after the last flow ends the list with duration 0."""
    steps, pending = [], None
    for seg in schedule.segments:
        p = np.array(seg.perm) if pending is None else pending[list(seg.perm)]
        if seg.duration > 0:
            steps.append((tuple(p.tolist()), seg.duration))
            pending = None
        else:
            pending = p
    if pending is not None:
        steps.append((tuple(pending.tolist()), 0.0))
    return steps


def _segment_doubling_simulate(gen, x0, schedule, dt):
    """Reference: simulate's times and states with the powers P^(2^j) of
    the step squared anew in every segment."""
    x, n = np.asarray(x0, dtype=float), gen.n
    t, step, k = 0.0, None, x.size // n
    times, states = [np.zeros(1)], [x[None].copy()]
    for seg in schedule.segments:
        x = x[seg.perm]
        times.append(np.array([t]))
        states.append(x[None])
        if seg.duration > 0:
            n_steps = int(seg.duration // dt)
            if n_steps >= 1:
                if step is None:
                    step = propagator(gen, dt).T
                samples = np.empty((n_steps * k, n))
                samples[:k] = x.reshape(k, n) @ step
                m, power = 1, step
                while m < n_steps:
                    samples[m * k:2 * m * k] = samples[:min(m, n_steps - m) * k] @ power
                    m, power = 2 * m, power @ power
                times.append(t + np.arange(1.0, n_steps + 1.0) * dt)
                states.append(dmajor.reach._clamp_simplex(samples.reshape(n_steps, x.size)))
            x = dmajor.reach._clamp_simplex(flow(gen, x, seg.duration))
            t += seg.duration
            times.append(np.array([t]))
            states.append(x[None])
    return np.concatenate(times), np.concatenate(states)


@pytest.fixture(scope="module")
def local_cases():
    """Seeded (n, m, x0, target, eps): every fifth target has half its
    entries zero."""
    rng = np.random.default_rng(707)
    out = []
    for case, ((n, m), eps, _) in enumerate(itertools.product(
            [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 6)],
            [1e-3, 1e-6, 1e-9], range(2))):
        total = n ** m
        x0 = rng.dirichlet(np.full(total, rng.choice([0.3, 1.0, 3.0])))
        target = rng.dirichlet(np.full(total, rng.choice([0.3, 1.0, 3.0])))
        if case % 5 == 0:
            target[rng.permutation(total)[:total // 2]] = 0.0
            target = target / target.sum()
        out.append((n, m, x0, target, eps))
    return out


@pytest.fixture(scope="module")
def envelope_cases():
    """Seeded (x0, d, sample_count, depth, seed): n = 2..5, depth 0..6,
    sample_count 0..50; x0 of three concentrations, with zeros, or Gibbs."""
    rng = np.random.default_rng(404)
    out = []
    for case in range(200):
        n = int(rng.integers(2, 6))
        d = rng.uniform(0.1, 0.9) ** np.arange(n)
        d = d / d.sum()
        if case % 10 == 0:
            x0 = d.copy()
        else:
            x0 = rng.dirichlet(np.full(n, rng.choice([0.3, 1.0, 3.0])))
            if case % 10 == 1:
                x0[rng.integers(n)] = 0.0
        out.append((x0, d, int(rng.integers(0, 51)), int(rng.integers(0, 7)),
                    int(rng.integers(0, 2 ** 40))))
    return out


class TestSimulate:
    def test_pure_flow(self):
        gen = _gen(3)
        x0 = np.array([0.2, 0.3, 0.5])
        traj = simulate(gen, x0, Schedule([Segment((0, 1, 2), 1.0)]), dt=0.25)
        from dmajor.dissipation import flow
        assert np.max(np.abs(traj.endpoint - flow(gen, x0, 1.0))) <= 1e-10
        assert np.all(np.diff(traj.times) >= 0)

    def test_instant_swap(self):
        gen = _gen(2)
        traj = simulate(gen, [0.7, 0.3], Schedule([Segment((1, 0), 0.0)]), dt=0.1)
        assert np.allclose(traj.endpoint, [0.3, 0.7])

    def test_states_stay_in_simplex(self):
        gen = _gen(4)
        sched = random_schedule(4, 6, seed=5)
        traj = simulate(gen, np.full(4, 0.25), sched, dt=0.5)
        assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-10
        assert traj.states.min() >= -1e-10

    def test_matches_closed_form_product(self):
        gen = _gen(3)
        sched = random_schedule(3, 4, seed=9)
        x0 = np.array([0.5, 0.25, 0.25])
        traj = simulate(gen, x0, sched, dt=0.3)
        mat = np.eye(3)
        from scipy.linalg import expm as sexpm
        for seg in sched.segments:
            mat = sexpm(-seg.duration * gen.b0) @ perm_matrix(seg.perm) @ mat
        assert np.max(np.abs(traj.endpoint - mat @ x0)) <= 1e-10

    def test_rejects_states_outside_simplex(self):
        with pytest.raises(ValueError, match="outside the simplex"):
            simulate(_gen(2), [0.9, 0.4], Schedule([]), dt=0.1)

    # plain indexing would truncate the state with a short permutation
    @pytest.mark.parametrize("last", [Segment((1, 0), 0.0), Segment((1, 0), 0.5),
                                      Segment((0, 2, 1, 3), 0.0), Segment((0, 2, 1, 3), 0.5)])
    def test_rejects_permutation_of_wrong_length(self, last):
        gen = _gen(3)
        sched = Schedule([Segment((2, 0, 1), 0.1), last])
        x0 = np.array([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="lengths"):
            endpoint(gen, x0, sched)
        with pytest.raises(ValueError, match="lengths"):
            simulate(gen, x0, sched, dt=0.05)

    def test_endpoint_rejects_state_of_wrong_length(self):
        with pytest.raises(ValueError, match="lengths"):
            endpoint(_gen(3), [0.5, 0.5], Schedule([]))

    def test_row_cap(self, monkeypatch):
        gen = _gen(3)
        x0 = np.full(3, 1 / 3)
        with pytest.raises(ValueError, match="cap"):
            simulate(gen, x0, Schedule([Segment((0, 1, 2), 1000.0)]), dt=1e-6)
        # the count is exact: rows for x0, each permutation, each dt sample
        # and each flow end; a zero-duration segment adds one row
        sched = Schedule([Segment((1, 0, 2), 1.0), Segment((0, 2, 1), 0.0),
                          Segment((2, 1, 0), 0.55)])
        rows = len(simulate(gen, x0, sched, dt=0.25).times)
        assert rows == 1 + (2 + 4) + 1 + (2 + 2)
        monkeypatch.setattr(dmajor.reach, "MAX_TRAJECTORY_ROWS", rows)
        simulate(gen, x0, sched, dt=0.25)
        with pytest.raises(ValueError, match="cap"):
            simulate(gen, x0, sched, dt=0.18)

    def test_endpoint_is_the_last_simulated_state(self):
        def stepwise(gen, x, sched):
            # reference: apply each permutation, then one propagator per flow
            for seg in sched.segments:
                x = x[list(seg.perm)]
                if seg.duration > 0:
                    x = dmajor.reach._clamp_simplex(dmajor.reach.propagator(gen, seg.duration) @ x)
            return x

        rng = np.random.default_rng(61)
        for seed in range(40):
            n = 2 + seed % 4
            gen = _gen(n) if seed % 2 else b0_from_rates(thermal_rates(rng.dirichlet(np.ones(n))))
            segments = []
            for seg in random_schedule(n, 1 + seed % 5, seed).segments:
                segments += [seg, Segment(tuple(rng.permutation(n).tolist()), 0.0)]
            sched = Schedule(segments)
            x0 = rng.dirichlet(np.ones(n))
            out = endpoint(gen, x0, sched)
            assert np.array_equal(out, stepwise(gen, x0, sched))
            for dt in (0.05, 1.0, np.inf):
                assert np.array_equal(out, simulate(gen, x0, sched, dt).states[-1])

    @pytest.mark.parametrize("route", ["spectral", "ladder", "copies"])
    def test_samples_within_the_stated_bound(self, route):
        # reference: each dt sample from its own propagator, each flow's end
        # from flow, times summed as t + j*dt; sample j within 4e-15 j
        # (1-norm; up to 1.7e-15 j measured), the rest bit for bit
        rng = np.random.default_rng({"spectral": 71, "ladder": 72, "copies": 73}[route])
        worst = 0.0
        for n in range(2, 9):
            if route == "spectral":
                gen = b0_from_rates(thermal_rates(rng.uniform(0.2, 1.0, n)))
                assert gen._spectral is not None
            else:
                gen = _gen(n)
            size = n * (int(rng.integers(2, 4)) if route == "copies" else 1)
            x = rng.dirichlet(np.ones(size))
            durations = rng.uniform(0.2, 2.0, 3)
            dt = float(durations.max()) / float(rng.integers(200, 1001))
            sched = Schedule([Segment(rng.permutation(size), float(t)) for t in durations])
            traj = simulate(gen, x, sched, dt)
            t, row = 0.0, 1
            assert np.array_equal(traj.states[0], x) and traj.times[0] == 0.0
            for seg in sched.segments:
                x = x[seg.perm]
                assert np.array_equal(traj.states[row], x) and traj.times[row] == t
                steps = int(seg.duration // dt)
                ref = dmajor.reach._clamp_simplex(np.einsum(
                    "kij,cj->kci", propagator(gen, dt * np.arange(1.0, steps + 1.0)),
                    x.reshape(-1, n)).reshape(steps, size))
                got = traj.states[row + 1:row + 1 + steps]
                err = np.abs(got - ref).sum(axis=1) / np.arange(1.0, steps + 1.0)
                worst = max(worst, float(err.max(initial=0.0)))
                assert traj.times[row + 1:row + 1 + steps].tolist() == \
                    [t + k * dt for k in range(1, steps + 1)]
                x = dmajor.reach._clamp_simplex(flow(gen, x, seg.duration))
                t += seg.duration
                row += steps + 2
                assert np.array_equal(traj.states[row - 1], x) and traj.times[row - 1] == t
            assert row == len(traj.times)
        assert worst <= 4e-15

    @pytest.mark.parametrize("route", ["spectral", "ladder", "expm"])
    def test_matches_per_segment_doubling_reference(self, route):
        # the powers of the step are squared once per run and shared by its
        # segments: times and states equal those of the per-segment doubling
        # bit for bit, with k copies, 1 to 5 segments, zero durations and dt
        # past a duration
        rng = np.random.default_rng({"spectral": 74, "ladder": 75, "expm": 76}[route])
        for case in range(45):
            n = int(rng.integers(2, 7))
            if route == "spectral":
                gen = b0_from_rates(thermal_rates(rng.uniform(0.2, 1.0, n)))
            elif route == "ladder":
                gen = _gen(n)
            else:
                b0 = -rng.uniform(0.0, 1.0, (n, n))
                np.fill_diagonal(b0, 0.0)
                np.fill_diagonal(b0, -b0.sum(axis=0))
                gen = Generator(b0)
            size = n * (1 + case % 3)
            durations = rng.uniform(0.0, 2.0, 1 + case % 5)
            durations[rng.random(durations.size) < 0.3] = 0.0
            dt = float(rng.choice([0.013, 0.05, 0.3, 2.5]))
            sched = Schedule([Segment(rng.permutation(size), float(t)) for t in durations])
            x0 = rng.dirichlet(np.ones(size))
            traj = simulate(gen, x0, sched, dt)
            times, states = _segment_doubling_simulate(gen, x0, sched, dt)
            assert traj.times.tobytes() == times.tobytes()
            assert traj.states.tobytes() == states.tobytes()

    def test_entry_cap(self, monkeypatch):
        gen = _gen(2)
        x0 = np.full(6, 1 / 6)
        sched = Schedule([Segment((1, 0, 2, 3, 5, 4), 1.0)])
        # x0, the permuted state, three samples and the flow's end
        states = simulate(gen, x0, sched, dt=0.3).states
        entries = states.size
        assert entries == 6 * 6
        monkeypatch.setattr(dmajor.reach, "MAX_TRAJECTORY_ENTRIES", entries)
        simulate(gen, x0, sched, dt=0.3)
        monkeypatch.setattr(dmajor.reach, "MAX_TRAJECTORY_ENTRIES", entries - 1)
        with pytest.raises(ValueError, match="36 entries exceeds the cap 35"):
            simulate(gen, x0, sched, dt=0.3)
        # endpoint holds one state, so only the row cap bounds it
        monkeypatch.setattr(dmajor.reach, "MAX_TRAJECTORY_ENTRIES", 1)
        assert np.array_equal(endpoint(gen, x0, sched), states[-1])

    def test_entry_cap_refuses_before_any_step(self):
        # one row above the cap for 256 levels; refused without a step
        cap, n = dmajor.reach.MAX_TRAJECTORY_ENTRIES, 256
        rows = cap // n + 1
        sched = Schedule([Segment(np.arange(n), float(rows - 3))])
        assert (rows - 1) * n <= cap < rows * n
        above = re.escape(f"{rows * n:.3g} entries exceeds the cap {cap}")
        with pytest.raises(ValueError, match=above):
            simulate(_gen(n), np.eye(n)[0], sched, dt=1.0)
        assert np.abs(endpoint(_gen(n), np.eye(n)[0], sched) - np.eye(n)[0]).sum() <= 1e-15

    def test_endpoint_shares_the_row_cap(self, monkeypatch):
        gen = _gen(3)
        x0 = np.full(3, 1 / 3)
        # x0, two rows for the flowing segment and one for the swap
        sched = Schedule([Segment((1, 0, 2), 1.0), Segment((0, 2, 1), 0.0)])
        monkeypatch.setattr(dmajor.reach, "MAX_TRAJECTORY_ROWS", 4)
        endpoint(gen, x0, sched)
        monkeypatch.setattr(dmajor.reach, "MAX_TRAJECTORY_ROWS", 3)
        with pytest.raises(ValueError, match="cap"):
            endpoint(gen, x0, sched)

    def test_schedule_roundtrip(self):
        sched = random_schedule(3, 5, seed=1)
        again = Schedule.from_dict(sched.to_dict())
        assert again.segments == sched.segments


class TestSegment:
    def test_perm_is_a_read_only_int_array(self):
        seg = Segment([2, 0, 1], 0.5)
        assert isinstance(seg.perm, np.ndarray) and seg.perm.dtype.kind == "i"
        assert not seg.perm.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            seg.perm[0] = 1

    def test_perm_is_a_copy_of_the_source(self):
        source = np.array([2, 0, 1])
        seg = Segment(source, 0.5)
        source[:] = [0, 1, 2]
        assert seg.perm.tolist() == [2, 0, 1]
        assert source.flags.writeable

    def test_owns_its_perm_and_builds_one_array_from_a_sequence(self, monkeypatch):
        # an array of the caller's, a view of one or a buffer it shares is
        # copied; a list or tuple is made into one array, which is kept
        base = np.array([9, 2, 0, 1])
        for source in (np.array([2, 0, 1]), base[1:], memoryview(np.array([2, 0, 1]))):
            seg = Segment(source, 0.5)
            assert seg.perm.flags.owndata and not np.shares_memory(seg.perm, np.asarray(source))
        made = []
        real = dmajor.reach.check_permutation
        monkeypatch.setattr(dmajor.reach, "check_permutation",
                            lambda p: made.append(real(p)) or made[-1])
        for source in ([2, 0, 1], (2, 0, 1), [np.int64(2), 0, 1]):
            seg = Segment(source, 0.5)
            assert seg.perm is made[-1] and seg.perm.tolist() == [2, 0, 1]
            assert _schedule_bytes(Schedule([seg])) == \
                _schedule_bytes(Schedule([Segment(np.array(source), 0.5)]))

    def test_value_equality(self):
        assert Segment((1, 0), 0.5) == Segment(np.array([1, 0]), 0.5)
        assert Segment((1, 0), 0.5) != Segment((0, 1), 0.5)
        assert Segment((1, 0), 0.5) != Segment((1, 0), 0.25)
        assert Segment((1, 0), 0.5) != Segment((1, 0, 2), 0.5)
        assert Segment((1, 0), 0.5) != ((1, 0), 0.5)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Segment((1, 0), 0.5))

    def test_to_dict_is_json(self):
        sched = Schedule([Segment(np.array([1, 0, 2]), 0.5), Segment((0, 1, 2), 2)])
        assert json.dumps(sched.to_dict()) == \
            '{"segments": [{"perm": [1, 0, 2], "duration": 0.5}, ' \
            '{"perm": [0, 1, 2], "duration": 2.0}]}'

    @pytest.mark.parametrize("perm", [[0.0, 1.0], [True, False], ["0", "1"], [[0, 1]], [],
                                      [0, 0], [1, 2], [-1, 0], [0, 2 ** 64]])
    def test_refuses_a_perm_that_is_not_an_integer_permutation(self, perm):
        with pytest.raises(ValueError):
            Segment(perm, 0.5)

    @pytest.mark.parametrize("duration", ["0.5", "1e3", True, None, 1j, [0.5], {"t": 1},
                                          -1.0, float("nan"), float("inf")])
    def test_refuses_a_duration_that_is_not_a_finite_nonnegative_number(self, duration):
        with pytest.raises(ValueError, match="real numbers|finite nonnegative"):
            Segment((1, 0), duration)

    @pytest.mark.parametrize("duration", [0.5, np.float64(0.5), 2, np.int64(3), True, "0.5",
                                          float("nan"), float("inf"), -0.0, 0.0, -1e-300,
                                          np.array(0.25), [0.5]])
    def test_duration_reads_as_a_zero_d_real_array(self, duration):
        # a Python float is read as it is: accepted, refused and stored exactly
        # as the gate's 0-d array read of every duration
        try:
            t = dmajor.majorize.as_real_array(duration)
            want = float(t) if t.ndim == 0 and 0.0 <= t < np.inf else None
        except ValueError:
            want = None
        if want is None:
            with pytest.raises(ValueError):
                Segment((1, 0), duration)
        else:
            got = Segment((1, 0), duration).duration
            assert type(got) is float and got.hex() == want.hex()
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestPrivateSegment:
    def test_equals_the_checked_segment(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 5, 64):
            for t in (0.0, 0.5, float(rng.exponential()), 1e300):
                p = rng.permutation(n)
                seg, want = dmajor.reach._segment(p.copy(), t), Segment(p, t)
                assert seg == want and type(seg) is Segment
                assert seg.perm.dtype == want.perm.dtype and seg.duration == want.duration
                assert not seg.perm.flags.writeable

    def test_library_schedules_own_their_perms(self, local_cases):
        # every perm is read-only and owns its memory, so no segment shares
        # it with another segment or with the synthesis' working arrays
        scheds = [synthesize_local(n, m, x0, target, eps)
                  for n, m, x0, target, eps in local_cases[::3]]
        rng = np.random.default_rng(18)
        for n in (2, 3, 6):
            x0, x = rng.dirichlet(np.ones(n), size=2)
            scheds += [synthesize(_gen(n), x0, x, 1e-9), synthesize_from_ground(_gen(n), x)]
        for sched in scheds:
            perms = [seg.perm for seg in sched.segments]
            assert all(p.base is None and not p.flags.writeable for p in perms)
            assert len({id(p) for p in perms}) == len(perms)


def _reference_check_simplex(x, tol=1e-9):
    """_check_simplex's acceptance as the total under errstate decides it."""
    x = dmajor.majorize.as_vector(x)
    with np.errstate(over="ignore"):
        total = x.sum()
    return not (abs(total - 1.0) > tol or np.min(x) < -tol)


def _reference_clamp(x, tol=1e-10):
    deficit = -np.minimum(x, 0.0).sum(axis=-1)
    assert (deficit <= tol).all()
    y = np.maximum(x, 0.0)
    return y / y.sum(axis=-1, keepdims=True)


class TestStateChecks:
    @pytest.mark.parametrize("x", [[1 + 1.5e-9, -0.9e-9, 0.0], [1 + 3e-9, -1e-9, -1e-9]])
    def test_accepts_states_at_the_tolerance(self, x):
        assert _reference_check_simplex(x)
        assert dmajor.reach._check_simplex(x, 3).tolist() == x

    @pytest.mark.parametrize("x", [[1e308, 1e308, 0.0], [-1e308, -1e308, 1.0], [1e308, -1e308, 1.0]])
    def test_refuses_a_total_past_the_float_range_without_a_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"state is outside the simplex beyond 1e-09"):
                dmajor.reach._check_simplex(x)

    def test_accepts_exactly_the_states_the_total_accepts(self):
        # states near every edge of the test: entries near -tol, totals near
        # 1 +- tol, one large entry offset by negative dust, and huge entries
        rng = np.random.default_rng(39)
        accepted = 0
        for n in (1, 2, 3, 5, 8, 64):
            for k in range(400):
                x = rng.dirichlet(np.ones(n))
                x[rng.integers(n)] += rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2.5e-9)
                if k % 4 == 1:
                    x[rng.integers(n)] = -rng.uniform(0.5e-9, 1.5e-9)
                if k % 4 == 2:
                    x[:] = -1e-9
                    x[0] = 1.0 + (n - 1) * 1e-9 + rng.uniform(-2e-9, 2e-9)
                if k % 8 == 3:
                    x[rng.integers(n)] = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(0, 308)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        dmajor.reach._check_simplex(x)
                        got = True
                    except ValueError:
                        got = False
                assert got == _reference_check_simplex(x), x.tolist()
                accepted += got
        assert 0.2 * 2400 < accepted < 0.8 * 2400

    @pytest.mark.parametrize("shape", [(5,), (30, 5), (1, 8)])
    def test_clamp_of_a_nonnegative_block_equals_maximum_then_normalize(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        x = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1] or None)
        x[..., 1] = -0.0
        x[..., -1] = 0.0
        got = dmajor.reach._clamp_simplex(x)
        assert got.tobytes() == _reference_clamp(x).tobytes()
        assert not np.signbit(got).any()

    def test_clamp_of_a_block_with_one_dusty_row(self):
        rng = np.random.default_rng(40)
        x = rng.dirichlet(np.ones(5), size=30)
        x[17, 2] = -3e-11
        got = dmajor.reach._clamp_simplex(x)
        assert got.tobytes() == _reference_clamp(x).tobytes()
        assert got[17, 2] == 0.0 and got.min() >= 0.0

    def test_clamp_refuses_negative_mass(self):
        with pytest.raises(SimplexViolationError, match="negative mass 1.000e-09 exceeds"):
            dmajor.reach._clamp_simplex(np.array([[0.5, 0.5], [1.0 + 1e-9, -1e-9]]))


class TestGroundSynthesis:
    def test_ground_state_gives_empty_schedule(self):
        sched = synthesize_from_ground(_gen(3), [1.0, 0.0, 0.0])
        assert len(sched) == 0

    def test_two_level_closed_form(self):
        sched = synthesize_from_ground(_gen(2), [0.75, 0.25])
        assert len(sched) == 1
        assert tuple(sched.segments[0].perm) == (1, 0)
        # log1p(0.75 / 0.25) at the unit rate
        assert abs(sched.segments[0].duration - np.log(4)) <= 2 * np.spacing(np.log(4))
        out = endpoint(_gen(2), [1.0, 0.0], sched)
        assert np.abs(out - np.array([0.75, 0.25])).sum() <= 1e-8

    def test_random_targets_three_level(self):
        gen = _gen(3)
        rng = np.random.default_rng(2)
        for _ in range(100):
            target = rng.dirichlet(np.ones(3))
            sched = synthesize_from_ground(gen, target)
            assert len(sched) <= 2
            out = endpoint(gen, [1.0, 0.0, 0.0], sched)
            assert np.abs(out - target).sum() <= 1e-8

    def test_boundary_targets(self):
        gen = _gen(4)
        for target in ([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.25, 0.0, 0.75, 0.0]):
            sched = synthesize_from_ground(gen, target)
            assert len(sched) <= 3
            out = endpoint(gen, [1.0, 0.0, 0.0, 0.0], sched)
            assert np.abs(out - np.array(target)).sum() <= 1e-8

    @pytest.mark.parametrize("n,count,bound", [(8, 20, 1e-12), (64, 4, 1e-11), (256, 2, 1e-10)])
    def test_seeded_ground_error(self, n, count, bound):
        # each face hit stops within a few ulps of its time, so what is left
        # is the rounding of the flows; worst errors measured: 1.0e-15,
        # 3.5e-15 and 5.3e-15 here (5e-14, 1.3e-12 and 2.8e-11 with a stop
        # of 2e-15 * max(1, tau))
        gen = _gen(n)
        rng = np.random.default_rng(n)
        for _ in range(count):
            target = rng.dirichlet(np.full(n, rng.choice([0.3, 1.0, 3.0])))
            sched = synthesize_from_ground(gen, target)
            assert np.abs(endpoint(gen, np.eye(n)[0], sched) - target).sum() <= bound

    def test_rejects_thermal_generator(self):
        gen = b0_from_rates(thermal_rates([0.6, 0.3, 0.1]))
        with pytest.raises(ValueError):
            synthesize_from_ground(gen, [0.5, 0.3, 0.2])

    @pytest.mark.parametrize("s", [1e3, 1e6])
    def test_fast_time_units_keep_the_error(self, s):
        # the face-hit stop is relative to tau, so s B0 with durations / s
        # meets the target as B0 does (3.9e-12 and 3.9e-9 with a stop of
        # 2e-15 * max(1, tau))
        gen, target = Generator(_gen(4).b0 * s), np.array([0.1, 0.2, 0.3, 0.4])
        sched = synthesize_from_ground(gen, target)
        assert np.abs(endpoint(gen, np.eye(4)[0], sched) - target).sum() <= 1e-14

    @pytest.mark.parametrize("k", [-60, -30, 0, 20, 30, 40, 50, 60, 100, 200])
    def test_power_of_two_time_units_scale_the_schedule(self, k):
        # the search's first bracket starts at 1e-6 2^j with
        # 1/4 < t ||B0||_1 <= 1/2 for j of either sign, so 2^k B0 gets the
        # schedule of B0 with durations 2^-k times as long, bit for bit; at
        # k = 30 a start that only doubled from 1e-6 overflowed the
        # exponential, and from k = 60 the unscaled series terms did
        target = np.array([0.1, 0.2, 0.3, 0.4])
        ref = synthesize_from_ground(_gen(4), target)
        gen = Generator(_gen(4).b0 * 2.0 ** k)
        sched = synthesize_from_ground(gen, target)
        assert [tuple(s.perm) for s in sched.segments] == [tuple(s.perm) for s in ref.segments]
        assert [s.duration * 2.0 ** k for s in sched.segments] == \
            [s.duration for s in ref.segments]
        assert np.abs(endpoint(gen, np.eye(4)[0], sched) - target).sum() <= 1e-14

    def test_within_the_stated_bound(self):
        # 2.1e-12 n from x' = max(x, 0) / its total, measured against x
        # itself; targets with entries near the 1e-12 zero-time exit are
        # where the bound is spent
        rng = np.random.default_rng(41)
        for n in (2, 3, 5, 8, 16, 64):
            gen = _gen(n)
            for k in range(12):
                x = rng.dirichlet(np.full(n, (0.3, 1.0, 3.0)[k % 3]))
                if k % 4 == 0:
                    x[rng.integers(n)] = 9e-13
                    x = x / x.sum()
                x[rng.integers(n)] -= 1e-10 * (k % 2)    # within _check_simplex's tolerance
                err = np.abs(endpoint(gen, np.eye(n)[0], synthesize_from_ground(gen, x)) - x).sum()
                assert err <= dmajor.reach._ground_error_bound(x)

    def test_schedules_equal_with_a_fresh_ladder(self):
        # a ladder shared from an earlier generator gives the same schedule
        # bit for bit as one built for this generator
        rng = np.random.default_rng(43)
        for n in (3, 6):
            x0, x = rng.dirichlet(np.ones(n), size=2)
            shared = synthesize(_gen(n), x0, x, 1e-9)
            dmajor.dissipation._ladder_of.cache_clear()
            _assert_same_schedule(synthesize(_gen(n), x0, x, 1e-9), shared)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 16, 64])
    def test_ground_steps_match_the_array_reference(self, n, monkeypatch):
        # the schedules bit for bit, on seeded Dirichlet targets of every
        # concentration, with and without entries at the 1e-13 floor
        rng = np.random.default_rng(n + 60)
        gen = _gen(n)
        targets = [rng.dirichlet(np.full(n, c)) for c in (0.2, 1.0, 5.0) for _ in range(4)]
        targets += [np.where(np.arange(n) == n - 2, 0.0, 1.0 / (n - 1)), np.eye(n)[n - 1]]
        got = [synthesize_from_ground(gen, x) for x in targets]
        monkeypatch.setattr(dmajor.reach, "_ground_steps", _array_ground_steps)
        want = [synthesize_from_ground(gen, x) for x in targets]
        assert [_schedule_bytes(s) for s in got] == [_schedule_bytes(s) for s in want]

    @pytest.mark.parametrize("n,m", [(4, 6), (2, 12), (3, 4)])
    def test_local_ground_steps_match_the_array_reference(self, n, m, monkeypatch):
        x0, x = np.random.default_rng(n * m).dirichlet(np.ones(n ** m), size=2)
        got = synthesize_local(n, m, x0, x, 1e-6)
        monkeypatch.setattr(dmajor.reach, "_ground_steps", _array_ground_steps)
        assert _schedule_bytes(got) == _schedule_bytes(synthesize_local(n, m, x0, x, 1e-6))


def _array_ground_steps(gen, z):
    """Reference: _ground_steps with the library's face hit, renormalized and
    swapped by array operations, so that the bookkeeping is checked bit for
    bit."""
    n, series = gen.n, gen._ladder[1]
    backward = []
    m = n
    while True:
        while m > 1 and z[m - 1] <= 1e-13:
            m -= 1
        if m < 3:
            break
        tau, j, w = dmajor.reach._first_face_hit(gen.b0[:m, :m], z[:m], series.walk(m))
        w = np.maximum(w, 0.0)
        w = w / w.sum() * z[:m].sum()
        swap = np.arange(n)
        swap[j], swap[m - 1] = m - 1, j
        z[:m] = w
        z = z[swap]
        backward.append((swap, tau))
        m -= 1
    if m == 2:
        tau, j = dmajor.reach._two_level_face_hit(gen.b0[:2, :2].tolist(), *z[:2].tolist())
        swap = np.arange(n)
        swap[j], swap[1] = 1, j
        backward.append((swap, tau))
    return backward[::-1]


def _schedule_bytes(schedule):
    return [(s.perm.dtype.str, s.perm.tobytes(), s.duration.hex()) for s in schedule.segments]


class TestFirstFaceHit:
    def test_matches_bisection_reference(self, faces):
        assert len(faces) >= 500
        for b0, z, walk in faces:
            tau, j, _ = dmajor.reach._first_face_hit(b0, z, walk)
            tau_ref, j_ref = _bisection_face_hit(b0, z)
            # the reference stops at 1e-12 * max(1, t), so compare on that scale
            assert abs(tau - tau_ref) <= 1e-10 * max(1.0, tau_ref)
            assert j == j_ref

    def test_matches_state_by_state_grid(self, faces, rate_faces):
        # on pure-birth blocks the grid never moves the bracket, so the search
        # without it returns the reference's hit, within the figures of
        # _assert_near_reference
        assert len(rate_faces) >= 10000
        outside = 0
        for b0, z, walk in faces + rate_faces:
            tau, j, w = dmajor.reach._first_face_hit(b0, z, walk)
            tau_ref, j_ref, w_ref, passes = _loop_face_hit(b0, z, walk)
            assert passes == 1 or tau_ref == 0.0
            outside += _assert_near_reference(b0, z, (tau, j, w), (tau_ref, j_ref, w_ref))
            # the hit state lies on the face to the rounding of w
            assert w.min() >= -1e-13 * max(1.0, np.abs(z).sum())
        # 14 of these 11,325 faces with OpenBLAS's SkylakeX kernel, 12
        # with its Haswell, Zen, Sandybridge and Prescott kernels
        assert outside <= 16

    def test_backward_flow_never_reenters_the_simplex(self, faces, rate_faces):
        # the premise of the grid-free search: past the hit, the highest
        # negative coordinate only falls
        for b0, z, walk in faces[::5] + rate_faces[::40]:
            tau, _, _ = dmajor.reach._first_face_hit(b0, z, walk)
            for t in tau * np.linspace(1.0, 4.0, 13)[1:]:
                assert (scipy.linalg.expm(t * b0) @ z).min() < 0.0

    def test_grid_moves_on_blocks_outside_the_premise(self):
        # rotating blocks, not pure-birth ones: the first bracket of each
        # holds two crossings, and the reference's grid moves the bracket
        # onto the earlier one, where the search alone may take a later one.
        # The search's model follows B0's two diagonals only, so here it takes
        # the fourth crossing of the first block (t = 2.049181) and the third
        # of the second (t = 1.046096), and places them to within 1e-4
        for (b0, z), (j_ref, root), (j_hit, hit) in zip(
                _SKIPPED_CROSSINGS, [(3, 1.452367), (0, 0.664595)], [(3, 2.049181), (0, 1.046096)]):
            walk = _expm_walk(b0)
            tau_ref, j, _, passes = _loop_face_hit(b0, z, walk)
            assert passes >= 2
            assert j == j_ref and abs(tau_ref - root) <= 1e-6
            tau, j, _ = dmajor.reach._first_face_hit(b0, z, walk)
            assert j == j_hit and abs(tau - hit) <= 1e-4

    def test_few_exponentials_per_face(self, monkeypatch):
        # exponentials evaluated per face: one per probe outside the model's
        # reach, plus the bracket's chain entries that the face builds (a kept
        # entry is read, not built).  The faces are those of the faces
        # fixture, on fresh ladders, whose chains start empty: 7 at worst
        # (13 with a walk.at per Newton probe)
        built = []
        series_walk = dmajor.dissipation._Series.walk

        def counted(series, m):
            walk = series_walk(series, m)

            def counting(t, e=None):
                for pair in walk(t, e):
                    built.append(t)
                    yield pair

            counting.chain, counting.norm = walk.chain, walk.norm
            counting.at = lambda t: next(counting(t))[1]
            return counting

        monkeypatch.setattr(dmajor.dissipation._Series, "walk", counted)
        rng = np.random.default_rng(11)
        worst = 0
        for n in range(2, 9):
            gen = _gen(n)
            backward = dmajor.dissipation._ladder_of.__wrapped__(gen.b0.tobytes(), n)[1]
            for conc in (0.3, 1.0, 3.0):
                for _ in range(25):
                    m = int(rng.integers(2, n + 1))
                    z = rng.dirichlet(np.full(m, conc))
                    built.clear()
                    dmajor.reach._first_face_hit(gen.b0[:m, :m], z, backward.walk(m))
                    worst = max(worst, len(built))
        assert worst <= 8

    def test_about_one_series_evaluation_per_face(self, faces, monkeypatch):
        # walk.at evaluations per face of the faces fixture: 1.08 on average
        # with probes read off the quartic model, about 5.3 with one per
        # Newton probe
        calls = []
        for _, _, walk in faces:
            monkeypatch.setattr(walk, "at", lambda t, at=walk.at: calls.append(t) or at(t))
        for b0, z, walk in faces:
            dmajor.reach._first_face_hit(b0, z, walk)
        assert len(calls) <= 1.5 * len(faces)

    def test_matches_the_walk_reference(self, faces, rate_faces):
        # the bracket reads the block's kept chain: the hit is that of the
        # Newton search one exponential at a time, within the figures of
        # _assert_near_reference
        outside = sum(_assert_same_hit(b0, z, walk) for b0, z, walk in faces + rate_faces)
        # 14 of these 11,325 faces with OpenBLAS's SkylakeX kernel, 12
        # with its Haswell, Zen, Sandybridge and Prescott kernels
        assert outside <= 16

    def test_matches_the_walk_reference_from_cold_chains(self):
        # fresh ladders, in time units 2^-3 .. 2^3 of the unit ones: the
        # first face on a block builds its chain, later ones read and extend it
        rng = np.random.default_rng(79)
        outside = 0
        for n in range(3, 9):
            for k in (-3, 0, 3):
                gen = Generator(np.ldexp(_gen(n).b0, k))
                backward = dmajor.dissipation._ladder_of.__wrapped__(gen.b0.tobytes(), n)[1]
                for m in rng.integers(3, n + 1, 12):
                    z = rng.dirichlet(np.full(m, rng.choice([0.1, 1.0, 3.0])))
                    outside += _assert_same_hit(gen.b0[:m, :m], z, backward.walk(m))
                assert backward.chains and all(c[1] for c in backward.chains.values())
        # none of these 216 faces with OpenBLAS's SkylakeX kernel, one with its
        # Haswell and Zen kernels
        assert outside <= 1

    def test_hits_the_face_at_tiny_rates(self):
        # upper rates of 1e-20 put the face near 1e40, which the search,
        # read in units of 1 / ||B0||_1, reaches as at unit rates (an absolute
        # give-up at t = 2^59 refused it): the walk's hit on a cold chain and
        # on the kept one, on the face of the exact exponential
        gen = b0_from_rates(BathRates(4, np.full(3, 1e-20), np.zeros(3)))
        backward = dmajor.dissipation._ladder_of.__wrapped__(gen.b0.tobytes(), 4)[1]
        b0 = gen.b0[:3, :3]
        for z in ([0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.2, 0.3, 0.5]):
            z = np.array(z)
            assert not _assert_same_hit(b0, z, backward.walk(3))
            tau, j, w = dmajor.reach._first_face_hit(b0, z, backward.walk(3))
            assert 1e39 < tau < 1e41
            exact = scipy.linalg.expm(tau * b0) @ z
            assert abs(exact[j]) <= 1e-12 and exact.min() >= -1e-12
            assert np.max(np.abs(w - exact)) <= 1e-12

    def test_returns_the_state_at_the_hit(self, faces):
        for b0, z, walk in faces[::7]:
            tau, j, w = dmajor.reach._first_face_hit(b0, z, walk)
            assert np.max(np.abs(w - scipy.linalg.expm(tau * b0) @ z)) <= 1e-12
            assert abs(w[j]) <= 1e-10
            assert w.min() >= -1e-10

    def test_clamp_rejects_nan_states(self):
        with pytest.raises(SimplexViolationError):
            dmajor.reach._clamp_simplex(np.array([np.nan, 0.5, 0.5]))


def _exact_two_level_root(b0, z):
    """log1p(d z0 / (-b01 z1)) / d, d = b11 - b00, from the float entries at
    40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        (b00, b01), (_, b11) = (map(mpmath.mpf, row) for row in b0.tolist())
        z0, z1 = map(mpmath.mpf, z.tolist())
        delta = b11 - b00
        return float(mpmath.log1p(delta * z0 / (-b01 * z1)) / delta)


def _two_level_hit(b0, z):
    """_two_level_face_hit on a 2 x 2 array block and a 2-vector."""
    return dmajor.reach._two_level_face_hit(np.asarray(b0).tolist(), *np.asarray(z).tolist())


class TestTwoLevelFaceHit:
    def test_matches_the_search(self, two_level_faces):
        # the search stops once its bracket is 2e-15 * tau wide, as judged
        # on rounded states: up to 2.8e-15 * tau from the closed form here
        assert len(two_level_faces) >= 1000
        for b0, z, walk in two_level_faces:
            tau, j = _two_level_hit(b0, z)
            tau_ref, j_ref, _ = dmajor.reach._first_face_hit(b0, z, walk)
            assert j == j_ref
            assert abs(tau - tau_ref) <= 2.5e-15 * max(1.0, tau_ref)
            if tau_ref == 0.0:
                assert tau == 0.0

    def test_within_a_few_ulps_of_the_exact_root(self, two_level_faces):
        for b0, z, _ in two_level_faces:
            tau, _ = _two_level_hit(b0, z)
            if tau > 0.0:
                assert abs(tau - _exact_two_level_root(b0, z)) <= 4 * np.spacing(tau)

    def test_hits_the_face(self, two_level_faces):
        for b0, z, _ in two_level_faces[::5]:
            tau, j = _two_level_hit(b0, z)
            if tau > 0.0:
                assert abs((scipy.linalg.expm(tau * b0) @ z)[j]) <= 1e-12

    def test_refuses_a_flow_that_never_hits(self):
        # b11 - b00 < 0 inside the column-sum tolerance: w0 tends to
        # e^{b00 t} (z0 - z1), which vanishes only when z0 < z1
        gen = _tolerated_gen(2e-13, -1e-13, 1e-13)
        for z in ([0.6, 0.4], [0.5, 0.5]):
            with pytest.raises(SimplexViolationError, match="never hits a face"):
                _two_level_hit(gen.b0[:2, :2], z)
            with pytest.raises(SimplexViolationError, match="never hits a face"):
                synthesize_from_ground(gen, z + [0.0])
        z = np.array([0.3, 0.7])
        tau, j = _two_level_hit(gen.b0[:2, :2], z)
        assert j == 0
        assert abs(tau - _exact_two_level_root(gen.b0[:2, :2], z)) <= 4 * np.spacing(tau)

    def test_equal_diagonal_takes_the_limit(self):
        # b11 = b00: w0(t) = e^{b00 t} (z0 + b01 z1 t) vanishes at z0 / (-b01 z1)
        gen = _tolerated_gen(1e-13, -1e-13, 1e-13)
        for z in np.array([[0.3, 0.7], [0.7, 0.3], [0.01, 0.99]]):
            tau, j = _two_level_hit(gen.b0[:2, :2], z)
            tau_ref, j_ref, _ = dmajor.reach._first_face_hit(gen.b0[:2, :2], z,
                                                             gen._ladder[1].walk(2))
            assert j == j_ref == 0
            assert abs(tau - z[0] / (1e-13 * z[1])) <= 2 * np.spacing(tau)
            assert abs(tau - tau_ref) <= 2.5e-15 * tau_ref

    def test_hits_the_face_at_a_tiny_rate(self):
        # an upper rate of 1e-40 puts the face near 7e39, at tau ||b0||_1
        # = 2 log 2, far below the 2^59 where the search gives up (an
        # absolute give-up at t = 2^59 refused it): the closed-form root
        gen, z = _tolerated_gen(0.0, -1e-40, 1e-40), np.array([0.5, 0.5])
        tau, j = _two_level_hit(gen.b0[:2, :2], z)
        assert j == 0
        assert abs(tau - _exact_two_level_root(gen.b0[:2, :2], z)) <= 4 * np.spacing(tau)
        sched = synthesize_from_ground(gen, [0.5, 0.5, 0.0])
        assert [(s.perm.tolist(), s.duration) for s in sched.segments] == [([1, 0, 2], tau)]

    @pytest.mark.parametrize("block,z", [
        # b00 = 5e-13 > 0 and b11 - b00 = 5e-16: the face comes at 4.8e15,
        # where w1 = z1 e^{b11 tau} is beyond the float range
        ((5e-13, -5e-13, 5.005e-13), [1.0 - 1e-4, 1e-4]),
    ])
    def test_refuses_a_hit_out_of_range(self, block, z):
        gen = _tolerated_gen(*block)
        with pytest.raises(SimplexViolationError, match="leaves range before it hits a face"):
            _two_level_hit(gen.b0[:2, :2], z)
        with pytest.raises(SimplexViolationError, match="leaves range before it hits a face"):
            synthesize_from_ground(gen, z + [0.0])


class TestFullSynthesis:
    def test_cooling_from_ground_is_zero(self):
        sched = synthesize(_gen(3), [1.0, 0.0, 0.0], [0.2, 0.5, 0.3], eps=1e-6)
        assert sched.segments[0].duration == 0.0

    def test_uniform_to_excited(self):
        gen = _gen(3)
        sched = synthesize(gen, np.full(3, 1 / 3), [0.0, 1.0, 0.0], eps=1e-6)
        out = endpoint(gen, np.full(3, 1 / 3), sched)
        assert np.abs(out - np.array([0.0, 1.0, 0.0])).sum() <= 1e-6

    def test_error_bounded_by_budget(self):
        rng = np.random.default_rng(3)
        gen = _gen(4)
        for _ in range(20):
            x0 = rng.dirichlet(np.ones(4))
            target = rng.dirichlet(np.ones(4))
            sched = synthesize(gen, x0, target, eps=1e-5)
            assert np.abs(endpoint(gen, x0, sched) - target).sum() <= 1e-5

    @pytest.mark.parametrize("steer", [_steer_global, _steer_local],
                             ids=["synthesize", "synthesize_local"])
    def test_error_within_half_eps_plus_ground_error(self, steer):
        # the documented bound: eps/2 from cooling (or from the m relaxation
        # rounds) plus the ground schedules' own face-hit error, which is far
        # below 1e-10
        rng = np.random.default_rng(23)
        for eps in (1e-6, 1e-9, 1e-12):
            for _ in range(25):
                gen, size, run = steer(rng)
                x0 = rng.dirichlet(np.ones(size))
                target = rng.dirichlet(np.full(size, rng.choice([0.3, 1.0, 3.0])))
                sched = run(x0, target, eps)
                err = np.abs(endpoint(gen, x0, sched) - target).sum()
                assert err <= eps / 2 + 1e-10

    def test_eps_below_rounding_floor_raises(self):
        # the total of x0 rounds to 1 - 2^-53, so the flow's error stops at
        # 1.1e-16; the doubling search gives up there instead of running t
        # into overflow
        x0 = np.array([0.7, 0.2, 0.1])
        assert x0.sum() < 1.0
        with pytest.raises(SimplexViolationError, match="cooling"):
            synthesize(_gen(3), x0, [0.1, 0.6, 0.3], eps=1e-17)
        with pytest.raises(SimplexViolationError, match="relaxation"):
            dmajor.reach._relax_time(_gen(3), x0, np.eye(3)[0], 5e-18,
                                     "relaxation budget not reachable")

    def test_exact_total_cools_onto_the_ground_state(self):
        # the forward flow's columns sum to 1 exactly, so an x0 whose total
        # rounds to 1 puts all of it on e_1 and the rest decays below any
        # eps; the ground schedule's own error is what is left
        gen, x0, target = _gen(3), np.array([0.1, 0.2, 0.7]), np.array([0.1, 0.6, 0.3])
        assert x0.sum() == 1.0
        sched = synthesize(gen, x0, target, eps=1e-17)
        assert sched.segments[0].duration == 32.0
        cooled = propagator(gen, 32.0) @ x0
        assert cooled[0] == 1.0 and cooled[1:].sum() < 0.5e-17
        assert np.abs(endpoint(gen, x0, sched) - target).sum() <= 1e-11
        rng = np.random.default_rng(29)
        for n, m in [(2, 2), (3, 2), (2, 3)] * 20:
            x0, target = rng.dirichlet(np.ones(n ** m), size=2)
            sched = synthesize_local(n, m, x0, target, 1e-17)
            assert np.abs(endpoint(_gen(n), x0, sched) - target).sum() <= 1e-11

    def test_cooling_time_matches_exact_doubling(self):
        rng = np.random.default_rng(37)
        for n in range(2, 9):
            gen = _gen(n)
            e1 = np.eye(n)[0]
            for x0 in rng.dirichlet(np.full(n, 0.5), size=4):
                for eps in [10.0 ** -k for k in range(2, 13)] + [1e-17, 1e-300]:
                    t, state = _relax_or_none(gen, x0, e1, eps / 2)
                    assert t == _exact_relax_time(gen, x0, e1, eps / 2)
                    if t is not None:
                        assert np.array_equal(state, propagator(gen, t) @ x0)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_relaxation_rounds_match_exact_doubling(self, n, m):
        rng = np.random.default_rng(53)
        total, n_blocks = n ** m, n ** (m - 1)
        gen = _gen(n)
        for eps in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
            for _ in range(4):
                cur = rng.dirichlet(np.full(total, rng.choice([0.3, 1.0, 3.0])))
                for r in range(1, m + 1):
                    collapsed = np.zeros(total)
                    collapsed[::n] = cur.reshape(n_blocks, n).sum(axis=1)
                    budget = eps / (2 * m)
                    # every block a column, as synthesize_local relaxes them
                    x, target = cur.reshape(n_blocks, n).T, collapsed.reshape(n_blocks, n).T
                    t, state = _relax_or_none(gen, x, target, budget)
                    assert t == _exact_relax_time(gen, x, target, budget)
                    assert np.array_equal(state, propagator(gen, t) @ x)
                    heads = n * np.arange(n ** (m - r))
                    gather = dmajor.reach._placement(np.arange(heads.size), heads, total)
                    cur = dmajor.reach._clamp_simplex(state.T.reshape(total))[gather]

    def test_relaxation_matches_the_walk_reference(self):
        # the kept stretch of the chain is relaxed as one stacked product
        # with one reduction: the same t, state and refusal as the walk one
        # exponential at a time, on the memo's ladders and on fresh ones in
        # other time units
        rng = np.random.default_rng(83)
        for n in range(2, 9):
            for gen in (_gen(n), Generator(np.ldexp(_gen(n).b0, int(rng.integers(-4, 5))))):
                e1 = np.eye(n)[0]
                for x0 in rng.dirichlet(np.full(n, 0.5), size=3):
                    for eps in [10.0 ** -k for k in range(2, 13)] + [1e-17, 1e-300]:
                        args = (gen, x0, e1, eps / 2, "no")
                        assert _outcome(dmajor.reach._relax_time, *args) == \
                            _outcome(_walk_relax_time, *args)

    @pytest.mark.parametrize("n,m", [(4, 6), (2, 12)])
    def test_column_blocks_match_the_walk_reference(self, n, m):
        # one round of synthesize_local at its caps: every block a column
        rng = np.random.default_rng(89)
        total, n_blocks = n ** m, n ** (m - 1)
        for eps in (1e-3, 1e-6, 1e-9, 1e-12, 1e-17):
            cur = rng.dirichlet(np.full(total, rng.choice([0.3, 1.0, 3.0])))
            collapsed = np.zeros(total)
            collapsed[::n] = cur.reshape(n_blocks, n).sum(axis=1)
            args = (_gen(n), cur.reshape(n_blocks, n).T, collapsed.reshape(n_blocks, n).T,
                    eps / (2 * m), "no")
            assert _outcome(dmajor.reach._relax_time, *args) == _outcome(_walk_relax_time, *args)

    @pytest.mark.parametrize("n", [3, 6])
    def test_entries_past_the_return_raise_nothing(self, n):
        # at 2^k B0, k = 1015..1018, the forward walk from t = 1 raises within
        # 8 doublings: the relaxation starts at 1/4 < t ||N||_1 <= 1/2 and
        # returns B0's time over 2^k, and raises where the walk one
        # exponential at a time does, cold and warm
        x0 = np.random.default_rng(n).dirichlet(np.ones(n))
        e1 = np.eye(n)[0]
        unit = dmajor.reach._relax_time(_gen(n), x0, e1, 1e-6, "no")[0]
        for k in range(1015, 1019):
            gen = Generator(np.ldexp(_gen(n).b0, k))
            with pytest.raises(ValueError, match="finite"):
                for _ in itertools.islice(gen._ladder[0].walk(n)(1.0), 9):
                    pass
            for budget in (1e-6, 1e-6, 0.0, 0.0):
                args = (gen, x0, e1, budget, "no")
                assert _outcome(dmajor.reach._relax_time, *args) == \
                    _outcome(_walk_relax_time, *args)
            assert dmajor.reach._relax_time(gen, x0, e1, 1e-6, "no")[0] == math.ldexp(unit, -k)

    def test_matches_doubling_loop_reference(self):
        rng = np.random.default_rng(31)
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            for case in range(25):
                n = int(rng.integers(2, 7))
                gen = _gen(n)
                x0 = np.eye(n)[0] if case == 0 else rng.dirichlet(np.ones(n))
                target = rng.dirichlet(np.full(n, rng.choice([0.3, 1.0, 3.0])))
                _assert_same_schedule(synthesize(gen, x0, target, eps),
                                      _reference_synthesize(gen, x0, target, eps))


def _unit_pairs(sizes):
    """Seeded (n, x0, target) at each n: two Dirichlet pairs below 64
    levels, one from there."""
    for n in sizes:
        rng = np.random.default_rng(n + 97)
        for _ in range(2 if n < 64 else 1):
            yield (n, *rng.dirichlet(np.full(n, rng.choice([0.3, 1.0, 3.0])), size=2))


def _unit_schedules(gen, x0, x):
    """(route, schedule, start, bound): synthesize_from_ground from e_1 and
    synthesize from x0 at eps 1e-6 and 1e-12, each with its endpoint bound."""
    e1 = np.eye(gen.n)[0]
    yield "ground", synthesize_from_ground(gen, x), e1, dmajor.reach._ground_error_bound(x)
    for eps in (1e-6, 1e-12):
        yield eps, synthesize(gen, x0, x, eps), x0, eps


class TestTimeUnitCampaign:
    """The reachable set of exp(-t s B0) does not depend on s: synthesis in
    the time unit s gives B0's schedule with its durations over s."""

    POWERS = list(range(-200, 201, 5))

    @pytest.mark.parametrize("sizes,powers", [(range(2, 9), POWERS), ((64, 256), [-60, 60])],
                             ids=["n2-8", "n64-256"])
    def test_powers_of_two_scale_every_duration_bit_for_bit(self, sizes, powers):
        # the searches start at 1/4 < t ||N||_1 <= 1/2 and give up at
        # t ||N||_1 > 2^59, so 2^k B0 gets B0's permutations and durations
        # 2^-k times as long, bit for bit; with absolute rules the routes
        # failed from k = -60 (ground) and k = -50 (cooling)
        for n, x0, x in _unit_pairs(sizes):
            b0 = _gen(n).b0
            want = [(route, [(seg.perm.tolist(), seg.duration) for seg in sched.segments])
                    for route, sched, _, _ in _unit_schedules(Generator(b0), x0, x)]
            for k in powers:
                gen = Generator(np.ldexp(b0, k))
                got = []
                for route, sched, start, bound in _unit_schedules(gen, x0, x):
                    got.append((route, [(seg.perm.tolist(), math.ldexp(seg.duration, k))
                                        for seg in sched.segments]))
                    assert np.abs(endpoint(gen, start, sched) - x).sum() <= bound, (n, k, route)
                assert got == want, (n, k)

    def test_a_bracket_of_subnormal_times_ends(self):
        # at 2^1020 B0 the face hits fall near 1e-309, where 2e-15 * hi rounds
        # to 0: the bracket ends once its midpoint rounds to an end (the
        # relative stop alone never ended it), with B0's permutations and
        # durations within the subnormals' rounding of B0's over 2^1020
        b0 = _gen(4).b0
        x = np.random.default_rng(4).dirichlet(np.ones(4))
        want = synthesize_from_ground(Generator(b0), x).segments
        got = synthesize_from_ground(Generator(np.ldexp(b0, 1020)), x).segments
        assert [s.perm.tolist() for s in got] == [s.perm.tolist() for s in want]
        for g, w in zip(got, want):
            assert 1e-310 < g.duration < 1e-307
            assert abs(math.ldexp(g.duration, 1020) - w.duration) <= 1e-14 * w.duration

    @pytest.mark.parametrize("s", [1e-40, 1e-20, 1e-12, 1e12, 1e20])
    def test_other_time_units_meet_the_bound(self, s):
        # not a power of two: the search's times fall elsewhere on the
        # doubling grid, and every endpoint still meets its bound
        for n, x0, x in _unit_pairs(range(2, 9)):
            gen = Generator(_gen(n).b0 * s)
            for route, sched, start, bound in _unit_schedules(gen, x0, x):
                assert np.abs(endpoint(gen, start, sched) - x).sum() <= bound, (n, s, route)


class TestLocalSynthesis:
    def test_one_level_blocks_relax_at_the_seed(self):
        # N = 0 at one level: the search starts at its seed 1 and has no
        # give-up time (2^59 / ||N||_1 would divide by zero); a budget out of
        # reach still stops once a doubling no longer lowers the error
        for m in (1, 3):
            sched = synthesize_local(1, m, [1.0], [1.0], 1e-6)
            assert [s.duration for s in sched.segments] == [1.0] * m + [0.0] * m
        with pytest.raises(SimplexViolationError, match="cooling did not converge"):
            synthesize(_gen(1), [1.0 + 1e-10], [1.0], 1e-12)

    def test_round_one_collapse(self):
        x0 = np.array([0.1, 0.2, 0.3, 0.4])
        sched = synthesize_local(2, 2, x0, np.full(4, 0.25), eps=1e-6)
        # round one's gather rides on round two's flow
        prefix = Schedule([sched.segments[0], Segment(sched.segments[1].perm, 0.0)])
        state = endpoint(_gen(2), x0, prefix)
        assert np.abs(state - np.array([0.3, 0.7, 0.0, 0.0])).sum() <= 1e-6

    def test_target_ground_state(self):
        gen = _gen(2)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        sched = synthesize_local(2, 2, e1, e1, eps=1e-6)
        assert np.abs(endpoint(gen, e1, sched) - e1).sum() <= 1e-6

    def test_random_targets(self):
        gen = _gen(2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x0 = rng.dirichlet(np.ones(4))
            target = rng.dirichlet(np.ones(4))
            sched = synthesize_local(2, 2, x0, target, eps=1e-5)
            assert np.abs(endpoint(gen, x0, sched) - target).sum() <= 1e-5

    def test_three_level_blocks(self):
        gen = _gen(3)
        rng = np.random.default_rng(5)
        x0 = rng.dirichlet(np.ones(9))
        target = rng.dirichlet(np.ones(9))
        sched = synthesize_local(3, 2, x0, target, eps=1e-5)
        assert np.abs(endpoint(gen, x0, sched) - target).sum() <= 1e-5

    def test_block_generator_consistency(self):
        # the block's flow on a chain state equals stitching per-block flows
        blk = _gen(2)
        x0 = np.array([0.4, 0.1, 0.3, 0.2])
        t = 0.8
        full = flow(blk, x0, t)
        parts = np.concatenate([flow(blk, x0[:2] / 0.5, t) * 0.5,
                                flow(blk, x0[2:] / 0.5, t) * 0.5])
        assert np.max(np.abs(full - parts)) <= 1e-12

    def test_eps_checked_by_endpoint_at_4_to_the_5(self):
        # one 4 x 4 exponential per flowing segment, applied to the 256 copies
        n, m, eps = 4, 5, 1e-6
        x0, target = np.random.default_rng(45).dirichlet(np.ones(n ** m), size=2)
        sched = synthesize_local(n, m, x0, target, eps)
        start = time.perf_counter()
        assert np.abs(endpoint(_gen(n), x0, sched) - target).sum() <= eps
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3), (4, 3)])
    def test_block_runs_match_the_dense_chain_generator(self, n, m):
        # against I_k (x) B0 built densely, whose flows go through scipy's
        # expm: within 1e-15 for a block that takes that route too (pure
        # raising); the zero-temperature block runs on its Taylor series,
        # which differs from expm by up to ~1e-14 in 1-norm here, at k = 1
        # as at k > 1
        rng = np.random.default_rng(n * 10 + m)
        raising = b0_from_rates(BathRates(n=n, a=np.zeros(n - 1), b=np.ones(n - 1)))
        blocks = [(raising, 1e-15), (_gen(n), 2e-14)]
        for blk, bound in blocks:
            dense = Generator(np.kron(np.eye(n ** (m - 1)), blk.b0))
            for _ in range(5):
                x0, target = rng.dirichlet(np.ones(n ** m), size=2)
                sched = synthesize_local(n, m, x0, target, 1e-6)
                assert np.abs(endpoint(blk, x0, sched) - endpoint(dense, x0, sched)).sum() <= bound
                t = float(rng.uniform(0.0, 3.0))
                assert np.abs(flow(blk, x0, t) - flow(dense, x0, t)).sum() <= bound
                sched = Schedule(sched.segments[:4])
                got, want = simulate(blk, x0, sched, 0.5), simulate(dense, x0, sched, 0.5)
                assert np.array_equal(got.times, want.times)
                assert np.abs(got.states - want.states).sum(axis=1).max() <= bound

    def test_matches_loop_reference(self, local_cases):
        for n, m, x0, target, eps in local_cases:
            assert _steps(synthesize_local(n, m, x0, target, eps)) == \
                _steps(_reference_synthesize_local(n, m, x0, target, eps))

    def test_no_zero_duration_segment_before_an_identity(self, local_cases):
        # a permutation rides on the next flow, not on a segment of its own
        for n, m, x0, target, eps in local_cases:
            segments = synthesize_local(n, m, x0, target, eps).segments
            identity = tuple(range(n ** m))
            assert not any(a.duration == 0.0 and tuple(b.perm) == identity
                           for a, b in zip(segments, segments[1:]))

    @pytest.mark.parametrize("n,m", [(2, 12), (4, 6)])
    def test_checks_each_state_once_and_no_permutation(self, n, m, monkeypatch):
        calls = {"check_permutation": 0, "_check_simplex": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(dmajor.reach, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(dmajor.reach, name, counted)
        x0, x = np.random.default_rng(46).dirichlet(np.ones(n ** m), size=2)
        synthesize_local(n, m, x0, x, 1e-6)
        assert calls == {"check_permutation": 0, "_check_simplex": 2}

    def test_block_generator_is_built_once_per_n(self, monkeypatch):
        # plain ints up to 64 share one read-only B0; the schedule is that of
        # a fresh generator; other n keep the checked path
        built = []
        real = dmajor.reach.b0_from_rates
        monkeypatch.setattr(dmajor.reach, "b0_from_rates", lambda r: built.append(r.n) or real(r))
        dmajor.reach._block_b0.cache_clear()
        x0, x = np.random.default_rng(47).dirichlet(np.ones(9), size=2)
        runs = [synthesize_local(3, 2, x0, x, 1e-6) for _ in range(3)]
        assert built == [3]
        b0 = dmajor.reach._block_b0(3)
        assert not b0.flags.writeable
        assert np.array_equal(b0, real(zero_temperature_rates(3)).b0)
        for run in runs[1:]:
            assert [(s.perm.tolist(), s.duration.hex()) for s in run.segments] == \
                [(s.perm.tolist(), s.duration.hex()) for s in runs[0].segments]
        synthesize_local(np.int64(3), 2, x0, x, 1e-6)
        assert built == [3, 3]
        for n in (True, 3.0):
            with pytest.raises(ValueError, match="n must be an integer"):
                synthesize_local(n, 2, x0, x, 1e-6)

    def test_qubit_blocks_match_the_array_path(self):
        # the float path against the clamp, the normalizations and the
        # zero-time exit on arrays, at zero and signed-zero entries, small
        # negative ones, and entries at and next to the 1e-13 and 1e-12
        # thresholds, for block masses from 1e-15 up
        gen = _gen(2)

        def array_steps(c, mass):
            z = np.maximum(c / mass, 0.0)
            z = z / z.sum()
            if z[1] <= 1e-13:
                return []
            if z.min() <= 1e-12 * max(1.0, float(np.abs(z).sum())):
                tau, j = 0.0, int(np.argmin(z))
            else:
                tau, j = dmajor.reach._two_level_face_hit(gen.b0.tolist(), *z.tolist())
            swap = np.arange(2)
            swap[j], swap[1] = 1, j
            return [(swap, tau)]

        rng = np.random.default_rng(22)
        edges = [0.0, -0.0, 1e-13, 1e-12, 2e-13, 5e-13, -1e-10]
        edges += [np.nextafter(e, d) for e in (1e-13, 1e-12) for d in (0.0, 1.0)]
        cases = 0
        for _ in range(4000):
            c = rng.dirichlet(np.full(2, rng.choice([0.1, 1.0, 10.0])))
            if rng.random() < 0.5:
                c[rng.integers(2)] = rng.choice(edges)
            c = c * 10.0 ** rng.uniform(-14.9, 0.0)
            mass = float(c.sum())
            if mass <= 1e-15:
                continue
            cases += 1
            got, want = dmajor.reach._block_steps(gen, c, mass), array_steps(c, mass)
            assert [(p.tolist(), t.hex()) for p, t in got] == \
                [(p.tolist(), t.hex()) for p, t in want]
        assert cases >= 3800

    def test_merge_applies_simultaneous_events_in_schedule_order(self):
        sched = Schedule([Segment((1, 0, 2), 0.0), Segment((0, 2, 1), 0.0),
                          Segment((0, 1, 2), 1.0)])
        steps = [(seg.perm, seg.duration) for seg in sched.segments]
        merged = Schedule(dmajor.reach._merge_parallel({0: steps}, 3, 3, np.arange(3)))
        gen = _gen(3)
        x = np.array([0.5, 0.3, 0.2])
        assert np.abs(endpoint(gen, x, merged) - endpoint(gen, x, sched)).sum() <= 1e-15

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            synthesize_local(2, 13, np.full(2 ** 13, 2.0 ** -13),
                             np.full(2 ** 13, 2.0 ** -13), 1e-3)


class TestEnvelope:
    def test_gibbs_initial_state(self):
        d = equidistant_d(0.5, 3)
        z, report = majorization_envelope(d, d, sample_count=20, seed=1)
        assert np.allclose(z, d)
        assert report.initial_majorized
        assert report.tangential_ok
        assert report.sampled_violations == 0

    def test_random_initial_states(self):
        rng = np.random.default_rng(6)
        d = equidistant_d(0.5, 3)
        for s in range(5):
            x0 = rng.dirichlet(np.ones(3))
            z, report = majorization_envelope(x0, d, sample_count=50, seed=s)
            assert report.initial_majorized
            assert report.tangential_ok
            assert report.sampled_violations == 0

    def test_matches_per_point_loop(self, envelope_cases):
        for x0, d, count, depth, seed in envelope_cases:
            z, report = majorization_envelope(x0, d, count, depth, seed)
            _assert_matches_reference(x0, d, count, depth, seed, z, report)

    def test_sweep_slice_matches_per_point_loop(self):
        # a seeded slice of the sweep over n = 1..8, alpha and the Dirichlet
        # concentration of x0, with schedules of the sampler's full depth
        rng, depth = np.random.default_rng(196), dmajor.reach.MAX_SAMPLE_DEPTH
        for n in range(1, 9):
            for _ in range(2 if n < 8 else 1):
                d = equidistant_d(rng.choice([0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]), n)
                x0 = rng.dirichlet(np.full(n, rng.choice([0.3, 1.0, 3.0, 10.0])))
                seed = int(rng.integers(0, 2 ** 40))
                z, report = majorization_envelope(x0, d, 8, depth, seed)
                _assert_matches_reference(x0, d, 8, depth, seed, z, report)
                assert report.initial_majorized and report.sampled_violations == 0

    def test_one_stacked_exponential_per_block(self, monkeypatch):
        calls = []
        real = dmajor.reach.propagator

        def counting(gen, t):
            calls.append(np.shape(t))
            return real(gen, t)

        monkeypatch.setattr(dmajor.reach, "propagator", counting)
        d = equidistant_d(0.5, 3)
        x0 = np.array([0.2, 0.3, 0.5])
        for count in (1, 20, 1024):
            calls.clear()
            majorization_envelope(x0, d, sample_count=count, sample_depth=2)
            assert calls == [(2 * count,)]
        # smaller blocks, so the block loop runs several times
        monkeypatch.setattr(dmajor.reach, "_SAMPLE_BLOCK", 8)
        d = equidistant_d(0.4, 4)
        x0 = np.array([0.1, 0.2, 0.3, 0.4])
        calls.clear()
        z, report = majorization_envelope(x0, d, sample_count=20, sample_depth=2, seed=5)
        assert calls == [(16,), (16,), (8,)]
        _assert_matches_reference(x0, d, 20, 2, 5, z, report)

    def test_sample_i_is_the_schedule_of_seed_plus_i(self, monkeypatch):
        # blocks of 8 from the seed -3, so the seeds cross a block boundary
        # and pass 2^64 - 1 to 0: path i is reachable_sample's at seed - 3 + i
        paths, real = [], dmajor.reach._sample_paths

        def recording(*args):
            out = real(*args)
            paths.extend(out)
            return out

        monkeypatch.setattr(dmajor.reach, "_SAMPLE_BLOCK", 8)
        monkeypatch.setattr(dmajor.reach, "_sample_paths", recording)
        d, x0 = equidistant_d(0.4, 4), np.array([0.1, 0.2, 0.3, 0.4])
        majorization_envelope(x0, d, sample_count=20, sample_depth=3, seed=-3)
        monkeypatch.undo()
        assert len(paths) == 20
        gen = b0_from_rates(thermal_rates(d))
        for i, path in enumerate(paths):
            assert np.array_equal(path, reachable_sample(gen, x0, 3, -3 + i))
            assert np.array_equal(path, reachable_sample(gen, x0, 3, 2 ** 64 - 3 + i))

    def test_dimension_cap(self):
        x0 = np.arange(1.0, 9.0) / 36.0
        d = equidistant_d(0.5, 8)
        z, report = majorization_envelope(x0, d, sample_count=0)
        assert report.initial_majorized
        _assert_matches_reference(x0, d, 0, 4, 0, z, report)
        # x0 = d is its own maximal corner, so no polytope code sees n
        d = equidistant_d(0.5, 9)
        with pytest.raises(ValueError, match="n = 9 exceeds the cap 8"):
            majorization_envelope(d, d, sample_count=0)

    def test_genuine_corners_pass(self):
        rng = np.random.default_rng(16)
        for n in range(2, 9):
            for alpha in (0.1, 0.5, 0.9):
                x0 = rng.dirichlet(np.ones(n))
                z, report = majorization_envelope(x0, equidistant_d(alpha, n), sample_count=0)
                assert report.tangential_ok
                # rounding fills at most a quarter of the bound
                assert report.tangential_margin <= 0.25

    def test_non_invariant_corner_fails(self, monkeypatch):
        # the sorted x0 is no maximal corner: the flow lifts its top entries
        monkeypatch.setattr(dmajor.polytope, "max_corner", lambda x0, d: np.sort(x0))
        x0 = np.array([0.1, 0.2, 0.3, 0.4])
        d = equidistant_d(0.5, 4)
        z, report = majorization_envelope(x0, d, sample_count=200, seed=3)
        assert not report.tangential_ok
        _assert_matches_reference(x0, d, 200, 4, 3, z, report)
        assert report.tangential_margin > 1e9
        assert 0 < report.sampled_violations <= report.samples_checked == 200
        b0 = b0_from_rates(thermal_rates(d)).b0
        assert _leaves_after_short_flow(b0, z[list(report.tangential_witness)], z)

    def test_tangent_test_matches_short_flow(self, monkeypatch):
        rng = np.random.default_rng(1606)
        corners = {}
        monkeypatch.setattr(dmajor.polytope, "max_corner", lambda x0, d: corners["z"])
        vertices = failed = 0
        for n in (3, 4, 5):
            for _ in range(30):
                corners["z"] = z = rng.dirichlet(np.ones(n))
                d = equidistant_d(rng.uniform(0.1, 0.9), n)
                b0 = b0_from_rates(thermal_rates(d)).b0
                worst, bound = _tangent_partials(z, b0)
                fails = {p: w > bound for p, w in worst.items()}
                for perm, fail in fails.items():
                    assert fail == _leaves_after_short_flow(b0, z[list(perm)], z)
                    vertices += 1
                    failed += fail
                _, report = majorization_envelope(np.full(n, 1.0 / n), d, sample_count=0)
                assert report.tangential_ok == (not any(fails.values()))
        assert vertices == 30 * (6 + 24 + 120)
        assert 0 < failed < vertices

    def test_facet_pass_matches_vertex_pass(self, monkeypatch):
        # n = 2..8: maximal corners, corners perturbed by 1e-6 and random z
        rng = np.random.default_rng(2026)
        corners = {}
        max_corner = dmajor.polytope.max_corner
        monkeypatch.setattr(dmajor.polytope, "max_corner", lambda x0, d: corners["z"])
        verdicts = []
        for n in range(2, 9):
            for _ in range({7: 4, 8: 1}.get(n, 20)):
                d = equidistant_d(rng.uniform(0.1, 0.9), n)
                corner = max_corner(rng.dirichlet(np.ones(n)), d)
                perturbed = corner * (1.0 + 1e-6 * rng.standard_normal(n))
                for z in (corner, perturbed / perturbed.sum(), rng.dirichlet(np.ones(n))):
                    corners["z"] = z
                    _, report = majorization_envelope(np.full(n, 1.0 / n), d, sample_count=0)
                    _assert_tangent_matches(z, b0_from_rates(thermal_rates(d)).b0, report)
                    verdicts.append(report.tangential_ok)
        assert 0 < sum(verdicts) < len(verdicts) == 3 * (5 * 20 + 4 + 1)

    def test_single_level(self):
        # no proper subset at n = 1: the empty set's 0 is the only flux
        z, report = majorization_envelope([2.5], [1.0], sample_count=5, sample_depth=3)
        assert z.tolist() == [1.0]
        assert report == EnvelopeReport(True, 0.0, (0,), 0, 5)

    def test_sample_count_cap(self, monkeypatch):
        cap = dmajor.reach.MAX_SAMPLE_COUNT

        def refuse(*args):
            raise AssertionError("drawn before the cap was checked")

        monkeypatch.setattr(dmajor.reach, "_sample_paths", refuse)
        monkeypatch.setattr(dmajor.polytope, "max_corner", refuse)
        d = equidistant_d(0.5, 3)
        with pytest.raises(ValueError, match=f"at most MAX_SAMPLE_COUNT = {cap}, got {cap + 1}"):
            majorization_envelope([0.2, 0.3, 0.5], d, sample_count=cap + 1)

    def test_negative_dust_is_judged_relative_to_x0(self):
        # negative dust is measured against x0's total: 5e-13 of it passes
        # at every scale and 5e-12 fails
        d = equidistant_d(0.5, 3)
        z_one, _ = majorization_envelope([0.6, 0.4 + 5e-13, -5e-13], d, sample_count=0)
        for s in [2.0 ** k for k in range(-40, 41)]:
            z, report = majorization_envelope(s * np.array([0.6, 0.4 + 5e-13, -5e-13]), d,
                                              sample_count=0)
            assert np.abs(z - z_one).sum() <= 1e-15 and report.initial_majorized
            with pytest.raises(ValueError, match="x0 must be entrywise nonnegative"):
                majorization_envelope(s * np.array([0.6, 0.4 + 5e-12, -5e-12]), d,
                                      sample_count=0)

    def test_rejects_negative_sample_count(self):
        d = equidistant_d(0.5, 3)
        with pytest.raises(ValueError, match="sample_count must be nonnegative"):
            majorization_envelope([0.2, 0.3, 0.5], d, sample_count=-5)
        z, report = majorization_envelope([0.2, 0.3, 0.5], d, sample_count=0)
        assert report.samples_checked == 0
        assert report.sampled_violations == 0

    @pytest.mark.parametrize("count", [0, 3])
    @pytest.mark.parametrize("depth", [-3, 13])
    def test_rejects_sample_depth_out_of_range(self, count, depth):
        d = equidistant_d(0.5, 3)
        with pytest.raises(ValueError, match=r"sample_depth must lie in \[0, 12\]"):
            majorization_envelope([0.2, 0.3, 0.5], d, sample_count=count, sample_depth=depth)

    def test_rejects_non_equidistant(self):
        from dmajor.dissipation import gibbs_vector
        d = gibbs_vector([0.0, 0.25, 4.25], 1.0)
        with pytest.raises(ValueError):
            majorization_envelope([0.2, 0.3, 0.5], d)

    def test_non_equidistant_flow_breaks_majorization(self):
        # the flow for a non-equidistant Gibbs vector pumps up the top entry
        from dmajor.dissipation import flow, gibbs_vector
        d = gibbs_vector([0.0, 0.25, 4.25], 1.0)
        gen = b0_from_rates(thermal_rates(d))
        x = np.array([d[2], d[0], d[1]])
        out = flow(gen, x, 0.1)
        assert out.max() > x.max()
        assert not majorizes(out, x)
        assert not majorizes(out, d)


class TestSampling:
    def test_depth_zero(self):
        gen = _gen(3)
        pts = reachable_sample(gen, np.full(3, 1 / 3), depth=0, seed=0)
        assert pts.shape == (1, 3)
        assert np.allclose(pts[0], 1 / 3)

    def test_deterministic_under_seed(self):
        gen = _gen(3)
        a = reachable_sample(gen, np.full(3, 1 / 3), depth=5, seed=123)
        b = reachable_sample(gen, np.full(3, 1 / 3), depth=5, seed=123)
        assert np.array_equal(a, b)
        c = reachable_sample(gen, np.full(3, 1 / 3), depth=5, seed=124)
        assert not np.array_equal(a, c)

    def test_long_durations_cluster_near_ground(self):
        gen = _gen(3)
        x0 = np.full(3, 1 / 3)
        sched = Schedule([Segment((0, 1, 2), 80.0)])
        out = endpoint(gen, x0, sched)
        assert np.abs(out - np.array([1.0, 0.0, 0.0])).sum() <= 1e-8

    def test_points_in_simplex(self):
        gen = b0_from_rates(thermal_rates(equidistant_d(0.4, 4)))
        for seed in range(10):
            pts = reachable_sample(gen, np.full(4, 0.25), depth=6, seed=seed)
            assert np.max(np.abs(pts.sum(axis=1) - 1.0)) <= 1e-10
            assert pts.min() >= -1e-10

    def test_matches_per_point_loop(self, envelope_cases):
        for x0, d, _, depth, seed in envelope_cases:
            gen = b0_from_rates(thermal_rates(d))
            x0 = x0 / x0.sum()
            pts = reachable_sample(gen, x0, depth, seed)
            assert pts.shape == (depth + 1, d.size)
            assert np.max(np.abs(pts - _per_point_sample(gen.b0, x0, depth, seed))) <= 1e-14

    def test_draws_equal_the_scalar_reference(self):
        # three consecutive seeds from each, so that 2^64 - 1 and -1 step on
        # to 0 mod 2^64: the durations carry the reference's uniforms bit for
        # bit, and each permutation is the stable argsort of its keys
        seeds = [0, 1, 7, 2 ** 31 - 1, -1, -5, -2 ** 63, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
                 2 ** 70 + 5, 12345678901234567890]
        for n in range(1, 9):
            for depth in range(dmajor.reach.MAX_SAMPLE_DEPTH + 1):
                for seed in seeds:
                    perms, durations = dmajor.reach._draws(n, depth, seed, 3)
                    assert perms.shape == (3, depth, n)
                    assert durations.shape == (3, depth)
                    for i in range(3):
                        keys, u = _reference_uniforms(n, depth, seed + i)
                        assert np.array_equal(perms[i], np.argsort(keys, axis=-1, kind="stable"))
                        assert np.array_equal(durations[i], _log_uniform(u))
                    sched = random_schedule(n, depth, seed)
                    assert [seg.perm.tolist() for seg in sched.segments] == perms[0].tolist()
                    assert [seg.duration for seg in sched.segments] == durations[0].tolist()

    @pytest.mark.parametrize("n", [3, 4])
    def test_draws_reach_every_permutation_alike(self, n):
        # 24,000 seeded segments: each permutation within 15 % of its share
        perms = dmajor.reach._draws(n, 12, 5, 2000)[0].reshape(-1, n)
        seen, counts = np.unique(perms, axis=0, return_counts=True)
        assert seen.tolist() == [list(p) for p in itertools.permutations(range(n))]
        share = len(perms) / math.factorial(n)
        assert np.abs(counts - share).max() <= 0.15 * share

    def test_splitmix_reference_values(self):
        first = next(_splitmix64(0))
        assert first == 0xE220A8397B1DCDAF  # splitmix64 reference stream
        assert next(_splitmix64(2 ** 64)) == first
        # the first key of seed 0 is that output's top 53 bits
        keys, _ = _reference_uniforms(1, 1, 0)
        assert keys[0, 0] == (first >> 11) / float(1 << 53)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            random_schedule(3, 13, seed=0)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="depth must lie in"):
            random_schedule(3, -1, seed=0)
        with pytest.raises(ValueError, match="depth must lie in"):
            reachable_sample(_gen(3), np.full(3, 1 / 3), depth=-3, seed=0)
