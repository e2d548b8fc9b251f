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
    SplitMix64,
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


def _loop_face_hit(b0, z, walk):
    """Reference: _first_face_hit with Newton slopes summed over every entry
    of B0, and a guard grid against a skipped crossing checked one state at a
    time: 31 states from the bracket's start to the hit, stepped by one
    exponential, the bracket moved to the first below the face and searched
    again.  walk(t) yields (u, exp(u B0)) for u = t, 2t, 4t, ...  Also returns
    the number of bracket passes, one more than the moves of the grid."""
    scale = max(1.0, float(np.abs(z).sum()))
    if float(np.min(z)) <= 1e-12 * scale:
        return 0.0, int(np.argmin(z)), z.copy(), 0
    norm = float(np.abs(b0).sum(axis=0).max())
    t_first = 1e-6
    while 2.0 * t_first * norm <= 0.5:
        t_first *= 2.0
    while t_first * norm > 0.5:
        t_first *= 0.5
    t_lo, w_lo = 0.0, z
    for t_hi, e in walk(t_first):
        w_hi = e @ z
        if not np.min(w_hi) > 0.0:
            break
        if t_hi > 2.0 ** 59:
            raise SimplexViolationError("backward flow never hits a face")
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
    """walk(t) for a B0 without a series: (u, expm(u B0)) for u = t, 2t, 4t, ..."""
    def walk(t):
        for k in itertools.count():
            yield t * 2.0 ** k, expm(b0, t * 2.0 ** k)
    return walk


def _exact_relax_time(gen, x, target, budget):
    """Reference: the first t = 1, 2, 4, ... whose exact propagator brings
    x within budget of target; None where the error stops falling first."""
    t, last = 1.0, np.inf
    while True:
        err = np.abs(propagator(gen, t) @ x - target).sum()
        if err < budget:
            return t
        if not err < last:
            return None
        t, last = 2.0 * t, err


def _relax_or_none(gen, x, target, budget):
    """_relax_time as (t, state), or (None, None) where it raises."""
    try:
        return dmajor.reach._relax_time(gen, x, target, budget, "no")
    except SimplexViolationError:
        return None, None


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


def _per_point_sample(b0, x, depth, seed):
    """Reference: the schedule drawn one segment at a time, one exponential,
    one clamp and one copy per segment."""
    rng = SplitMix64(seed)
    lo, hi = np.log(1e-3), np.log(1e2)
    points = [x.copy()]
    for _ in range(depth):
        perm = rng.permutation(b0.shape[0])
        duration = float(np.exp(lo + rng.uniform() * (hi - lo)))
        x = scipy.linalg.expm(-duration * b0) @ x[perm]
        assert -np.minimum(x, 0.0).sum() <= 1e-10
        x = np.maximum(x, 0.0)
        x = x / x.sum()
        points.append(x.copy())
    return np.array(points)


def _class_draws(n, depth, seed):
    """Reference: one schedule's permutations and durations drawn from the
    class, and the state the stream ends in."""
    rng = SplitMix64(seed)
    perms, u = np.empty((depth, n), dtype=int), np.empty(depth)
    for i in range(depth):
        perms[i] = rng.permutation(n)
        u[i] = rng.uniform()
    lo, hi = np.log(1e-3), np.log(1e2)
    return perms, np.exp(lo + u * (hi - lo)), rng.state


def _forged_seed(k, out):
    """A seed whose k-th SplitMix64 output is out: the xor-shifts of the
    mixer undone and its multipliers inverted, then k steps taken back."""
    mask = (1 << 64) - 1

    def unshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unshift(out, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & mask
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & mask
    return (unshift(z, 30) - k * 0x9E3779B97F4A7C15) & mask


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
    """Reference: synthesize with the cooling time doubled in a bounded loop."""
    n = gen.n
    x0 = np.asarray(x0, dtype=float)
    e1 = np.eye(n)[0]
    cool_t = 0.0
    if np.abs(x0 - e1).sum() > eps / 2.0:
        cool_t = 1.0
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
    the scatter and a bounded doubling loop for each relaxation."""
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
        t_relax = 1.0
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
        # without it returns the reference's hit bit for bit
        assert len(rate_faces) >= 10000
        for b0, z, walk in faces + rate_faces:
            tau, j, w = dmajor.reach._first_face_hit(b0, z, walk)
            tau_ref, j_ref, w_ref, passes = _loop_face_hit(b0, z, walk)
            assert passes == 1 or tau_ref == 0.0
            assert (tau, j) == (tau_ref, j_ref)
            assert np.array_equal(w, w_ref)
            # the hit state lies on the face to the rounding of w
            assert w.min() >= -1e-13 * max(1.0, np.abs(z).sum())

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
        # onto the earlier one, where the search alone may take the later
        for (b0, z), (j_ref, root) in zip(_SKIPPED_CROSSINGS, [(3, 1.452367), (0, 0.664595)]):
            walk = _expm_walk(b0)
            tau_ref, j, _, passes = _loop_face_hit(b0, z, walk)
            assert passes >= 2
            assert j == j_ref and abs(tau_ref - root) <= 1e-6
        b0, z = _SKIPPED_CROSSINGS[1]
        assert dmajor.reach._first_face_hit(b0, z, _expm_walk(b0))[0] > 1.0

    def test_few_exponentials_per_face(self, faces):
        starts = []
        worst = 0
        for b0, z, walk in faces:
            starts.clear()

            def counting(t, walk=walk):
                starts.append(t)
                return walk(t)

            dmajor.reach._first_face_hit(b0, z, counting)
            worst = max(worst, len(starts))
        assert worst <= 15

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

    @pytest.mark.parametrize("block,z", [
        # an upper rate of 1e-40 puts the face near 7e39, past the 2^59
        # where the search gives up
        ((0.0, -1e-40, 1e-40), [0.5, 0.5]),
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


class TestLocalSynthesis:
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

    def test_draws_equal_the_class_streams(self):
        seeds = [0, 1, 7, 2 ** 31 - 1, -1, -5, -2 ** 63, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
                 2 ** 70 + 5, 12345678901234567890]
        for n in range(1, 9):
            for depth in range(dmajor.reach.MAX_SAMPLE_DEPTH + 1):
                perms, durations = dmajor.reach._draws(n, depth, seeds)
                assert perms.shape == (len(seeds), depth, n)
                assert durations.shape == (len(seeds), depth)
                for s, seed in enumerate(seeds):
                    want_perms, want_durations, _ = _class_draws(n, depth, seed)
                    assert np.array_equal(perms[s], want_perms)
                    assert np.array_equal(durations[s], want_durations)
                sched = random_schedule(n, depth, seeds[-1])
                assert [seg.perm.tolist() for seg in sched.segments] == perms[-1].tolist()
                assert [seg.duration for seg in sched.segments] == durations[-1].tolist()

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 8])
    def test_draws_take_rejected_outputs_from_the_class(self, n):
        # a seed whose k-th output is 2^64 - 1, which every draw below a bound
        # other than a power of two rejects, at each such draw of 4 segments
        depth, mask, gamma = 4, (1 << 64) - 1, dmajor.reach._GAMMA
        for segment in range(depth):
            for col, bound in enumerate(range(n, 1, -1)):
                if (1 << 64) % bound == 0:
                    continue
                k = segment * n + col + 1
                seed = _forged_seed(k, mask)
                rng = SplitMix64(seed)
                assert [rng.next_u64() for _ in range(k)][-1] == mask
                want_perms, want_durations, state = _class_draws(n, depth, seed)
                # the stream took one output more than n per segment
                assert state == (seed + (depth * n + 1) * gamma) & mask
                seeds = [3, seed, seed - 2 ** 64, seed + 2 ** 64, 4]
                perms, durations = dmajor.reach._draws(n, depth, seeds)
                for s in (1, 2, 3):
                    assert np.array_equal(perms[s], want_perms)
                    assert np.array_equal(durations[s], want_durations)
                for s in (0, 4):
                    assert np.array_equal(perms[s], _class_draws(n, depth, seeds[s])[0])

    def test_splitmix_reference_values(self):
        rng = SplitMix64(0)
        first = rng.next_u64()
        assert first == 0xE220A8397B1DCDAF  # splitmix64 reference stream
        rng2 = SplitMix64(0)
        assert rng2.next_u64() == first

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            random_schedule(3, 13, seed=0)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="depth must lie in"):
            random_schedule(3, -1, seed=0)
        with pytest.raises(ValueError, match="depth must lie in"):
            reachable_sample(_gen(3), np.full(3, 1 / 3), depth=-3, seed=0)
