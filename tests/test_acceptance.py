"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (with timing where a budget applies)
once its assertions hold; pytest -s shows the full checklist.
"""

import time

import numpy as np

from dmajor.channels import (
    d_matrix_majorizes_2x2,
    channel_between,
    choi,
    matrix_majorizes,
    trace_norm,
)
from dmajor.cnr import c_numerical_range_sample, unitary_orbit_extrema
from dmajor.dissipation import (
    BathRates,
    apply_gamma,
    b0_from_rates,
    equidistant_d,
    gibbs_vector,
    lowering_raising_ops,
    propagator,
    steady_state,
    thermal_rates,
    zero_temperature_rates,
)
from dmajor.linalg import hermitian_eig
from dmajor.majorize import (
    D_MAJORIZE_METHODS,
    d_majorizes,
    d_stochastic_transfer,
    majorizes,
)
from dmajor.polytope import (
    contains,
    halfspace_bounds,
    lipschitz_constant,
    max_corner,
    vertices,
)
from dmajor.reach import (
    endpoint,
    majorization_envelope,
    random_schedule,
    synthesize,
    synthesize_local,
)


def _announce(num: int, message: str) -> None:
    print(f"PASS criterion {num}: {message}")


def _rand_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def test_criterion_1_polytope_golden():
    start = time.time()
    poly = halfspace_bounds([4, -2, 2], [4, 2, 1])
    assert np.max(np.abs(poly.b - np.array([5, 3, 2, 5, 6, 4, 4, -4]))) <= 1e-9
    got = {tuple(np.round(p, 9)) for p in vertices([4, -2, 2], [4, 2, 1]).points}
    want = {(5, 0, -1), (5, -2, 1), (2, 3, -1), (0, 3, 1), (4, -2, 2), (0, 2, 2)}
    assert got == {tuple(float(v) for v in p) for p in want}

    poly2 = halfspace_bounds([1, 1, -1], [1, 2, 3])
    assert np.max(np.abs(poly2.b - np.array([1, 1.5, 2, 2, 5 / 3, 4 / 3, 1, -1]))) <= 1e-9
    got2 = vertices([1, 1, -1], [1, 2, 3]).points
    want2 = np.array([
        [1, 1, -1], [1, -2 / 3, 2 / 3], [0.5, 1.5, -1],
        [-1 / 3, 1.5, -1 / 6], [-1 / 3, -2 / 3, 2],
    ])
    assert len(got2) == 5
    for w in want2:
        assert min(np.abs(got2 - w).sum(axis=1)) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 1.0
    _announce(1, f"both reference polytopes reproduced ({elapsed:.3f}s)")


def test_criterion_2_flow_numerics():
    start = time.time()
    # non-equidistant Gibbs vector; reference flow uses weighted ladders
    d1 = gibbs_vector([0.0, 0.25, 4.25], 1.0)
    gen1 = b0_from_rates(thermal_rates(d1))
    x1 = np.array([d1[2], d1[0], d1[1]])
    out1 = propagator(gen1, 0.1) @ x1
    assert np.max(np.abs(out1 - np.array([0.0683, 0.5730, 0.3587]))) <= 5e-4
    assert not majorizes(out1, x1)
    assert not majorizes(out1, d1)

    # equidistant Gibbs vector; the reference t=1 values use unit ladder
    # weights (for n=3 the weighted generator at half speed)
    d2 = gibbs_vector([-0.64, 0.0, 0.64], 1.0)
    theta2 = d2[:-1] / (d2[:-1] + d2[1:])
    gen2 = b0_from_rates(BathRates(n=3, a=np.sqrt(theta2), b=np.sqrt(1 - theta2)))
    x2 = np.array([0.55, 0.4, 0.05])
    out2 = propagator(gen2, 1.0) @ x2
    assert np.max(np.abs(out2 - np.array([0.5783, 0.3098, 0.1119]))) <= 5e-4
    assert not majorizes(out2, d2)
    assert not majorizes(out2, x2)
    # the weighted generator reaches the same state at t = 1/2 and gives the
    # same verdicts at t = 1
    gen2w = b0_from_rates(thermal_rates(d2))
    assert np.max(np.abs(propagator(gen2w, 0.5) @ x2 - out2)) <= 1e-12
    out2w = propagator(gen2w, 1.0) @ x2
    assert not majorizes(out2w, d2)
    assert not majorizes(out2w, x2)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _announce(2, f"both reference flow values and verdicts reproduced ({elapsed:.3f}s)")


def test_criterion_3_lipschitz_constants():
    assert lipschitz_constant(2) == 2.0
    assert lipschitz_constant(3) == 3.0
    _announce(3, "lipschitz constants 2 (n=2) and 3 (n=3), exact")


def test_criterion_4_criterion_equivalence_and_lp():
    start = time.time()
    rng = np.random.default_rng(2024)
    positives = 0
    for trial in range(2000):
        n = int(rng.integers(2, 6))
        d = rng.uniform(0.1, 3.0, size=n)
        y = rng.standard_normal(n)
        if trial % 2 == 0:
            verts = vertices(y, d).points
            weights = rng.dirichlet(np.ones(len(verts)))
            x = weights @ verts
        else:
            x = rng.standard_normal(n)
            if rng.uniform() < 0.5:
                x += (y.sum() - x.sum()) / n
        verdicts = [d_majorizes(x, y, d, method=m) for m in D_MAJORIZE_METHODS]
        verdicts.append(contains(x, halfspace_bounds(y, d)))
        assert len(set(verdicts)) == 1, (x, y, d, verdicts)
        if verdicts[0]:
            positives += 1
            cert = d_stochastic_transfer(x, y, d).matrix
            residual = max(
                float(np.abs(cert @ y - x).sum()),
                float(np.abs(cert @ d - d).sum()),
                float(np.max(np.abs(cert.sum(axis=0) - 1.0))),
            )
            assert residual <= 1e-8
            assert cert.min() >= -1e-12
    elapsed = time.time() - start
    assert elapsed < 30.0
    assert positives >= 900
    _announce(4, f"2000 triples, 4-way agreement, {positives} certificates "
                 f"({elapsed:.1f}s)")


def test_criterion_5_global_synthesis():
    start = time.time()
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        gen = b0_from_rates(zero_temperature_rates(n))
        x0 = rng.dirichlet(np.ones(n))
        target = rng.dirichlet(np.ones(n))
        sched = synthesize(gen, x0, target, eps=1e-6)
        assert np.abs(endpoint(gen, x0, sched) - target).sum() <= 1e-6
        assert len(sched.segments) - 1 <= n - 1  # ground phase after cooling
    elapsed = time.time() - start
    assert elapsed < 30.0
    _announce(5, f"200 syntheses, endpoint error <= 1e-6, <= n-1 ground segments "
                 f"({elapsed:.1f}s)")


def test_criterion_6_local_synthesis():
    start = time.time()
    rng = np.random.default_rng(12)
    gen = b0_from_rates(zero_temperature_rates(2))
    for _ in range(50):
        x0 = rng.dirichlet(np.ones(4))
        target = rng.dirichlet(np.ones(4))
        sched = synthesize_local(2, 2, x0, target, eps=1e-5)
        assert np.abs(endpoint(gen, x0, sched) - target).sum() <= 1e-5
    elapsed = time.time() - start
    assert elapsed < 30.0
    _announce(6, f"50 local syntheses (n=2, m=2), endpoint error <= 1e-5 "
                 f"({elapsed:.1f}s)")


def test_criterion_7_envelope_containment():
    start = time.time()
    d = equidistant_d(0.5, 3)
    x0 = np.array([0.15, 0.25, 0.60])
    z, report = majorization_envelope(x0, d, sample_count=0)
    assert report.initial_majorized
    assert sorted(report.tangential_witness) == [0, 1, 2]
    assert report.tangential_ok

    gen = b0_from_rates(thermal_rates(d))
    violations = 0
    for seed in range(10_000):
        depth = seed % 7  # depths 0..6
        sched = random_schedule(3, depth, seed)
        state = endpoint(gen, x0, sched)
        if not majorizes(state, z):
            violations += 1
    assert violations == 0
    elapsed = time.time() - start
    assert elapsed < 60.0
    _announce(7, f"10^4 schedule endpoints inside the envelope, tangential "
                 f"condition at all 6 corners ({elapsed:.1f}s)")


def test_criterion_8_max_corner_properties():
    rng = np.random.default_rng(13)
    for trial in range(500):
        n = int(rng.integers(2, 6))
        d = rng.uniform(0.1, 3.0, size=n)
        y = rng.uniform(0.0, 2.0, size=n)
        z = max_corner(y, d)
        verts = vertices(y, d).points
        assert min(np.abs(verts - z).sum(axis=1)) <= 1e-9
        order = np.argsort(-d, kind="stable")
        assert np.all(np.diff((z / d)[order]) <= 1e-9)
        weights = rng.dirichlet(np.ones(len(verts)), size=100)
        for x in weights @ verts:
            assert majorizes(x, z)
    # similarly ordered inputs: z equals y exactly
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = np.sort(rng.uniform(0.1, 3.0, size=n))[::-1]
        ratios = np.sort(rng.uniform(0.0, 2.0, size=n))[::-1]
        y = ratios * d
        assert np.array_equal(max_corner(y, d), y)
    _announce(8, "max corner: vertex membership, dominance, ordering, exactness")


def test_criterion_9_channel_construction():
    rng = np.random.default_rng(14)
    for _ in range(200):
        b = _rand_hermitian(rng, 3)
        a = _rand_hermitian(rng, 3)
        a += (np.trace(b).real - np.trace(a).real) / 3 * np.eye(3)
        center = np.trace(b).real / 3 * np.eye(3)
        while trace_norm(a) > trace_norm(b):
            a = 0.7 * a + 0.3 * center
        t = channel_between(a, b)
        c = choi(t)
        w = np.linalg.eigvalsh((c + c.conj().T) / 2)
        assert w.min() >= -1e-9
        for j in range(3):
            for k in range(3):
                unit = np.zeros((3, 3), dtype=complex)
                unit[j, k] = 1.0
                assert abs(np.trace(t.apply(unit)) - (j == k)) <= 1e-9
        assert trace_norm(t.apply(b) - a) <= 1e-8
    _announce(9, "200 random Hermitian pairs mapped by verified CPTP channels")


def test_criterion_10_qubit_d_majorization():
    rng = np.random.default_rng(15)
    for _ in range(500):
        b = _rand_hermitian(rng, 2)
        if rng.uniform() < 0.5:
            a = _rand_hermitian(rng, 2)
            a += (np.trace(b).real - np.trace(a).real) / 2 * np.eye(2)
        else:
            lam = rng.uniform(0, 1)
            _, u = hermitian_eig(_rand_hermitian(rng, 2))
            a = (lam * b + (1 - lam) * u @ b @ u.conj().T)
            a = (a + a.conj().T) / 2
        assert d_matrix_majorizes_2x2(a, b, np.ones(2)) == matrix_majorizes(a, b)
    for _ in range(500):
        d = rng.uniform(0.1, 1.0, size=2)
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        if rng.uniform() < 0.6:
            x += (y.sum() - x.sum()) / 2
        lhs = d_matrix_majorizes_2x2(np.diag(x).astype(complex),
                                     np.diag(y).astype(complex), d)
        assert lhs == d_majorizes(x, y, d)
    _announce(10, "2x2 tests agree with eigenvalue and vector majorization, 500+500")


def _extreme_points_regime_one(d1, d2, d3):
    return [
        np.eye(3),
        [[1, 0, 0], [0, 1 - d3 / d2, 1], [0, d3 / d2, 0]],
        [[1 - d3 / d1, 0, 1], [0, 1, 0], [d3 / d1, 0, 0]],
        [[1 - d2 / d1, 1, 0], [(d2 - d3) / d1, 0, 1], [d3 / d1, 0, 0]],
        [[1 - d3 / d1, d3 / d2, 0], [0, 1 - d3 / d2, 1], [d3 / d1, 0, 0]],
        [[1 - d2 / d1, 1, 0], [d2 / d1, 0, 0], [0, 0, 1]],
        [[1 - d3 / d1, 0, 1], [d3 / d1, 1 - d3 / d2, 0], [0, d3 / d2, 0]],
        [[1 - (d2 - d3) / d1, 1 - d3 / d2, 0], [(d2 - d3) / d1, 0, 1], [0, d3 / d2, 0]],
        [[1 - d2 / d1, 1 - d3 / d2, 1], [d2 / d1, 0, 0], [0, d3 / d2, 0]],
        [[1 - (d2 + d3) / d1, 1, 1], [d2 / d1, 0, 0], [d3 / d1, 0, 0]],
    ]


def _extreme_points_regime_two(d1, d2, d3):
    shared = _extreme_points_regime_one(d1, d2, d3)[:9]
    extra = [
        [[0, 1, (d1 - d2) / d3], [d2 / d1, 0, 0], [1 - d2 / d1, 0, 1 - (d1 - d2) / d3]],
        [[0, (d1 - d3) / d2, 1], [1 - d3 / d1, 1 - (d1 - d3) / d2, 0], [d3 / d1, 0, 0]],
        [[0, (d1 - d3) / d2, 1], [d2 / d1, 0, 0], [1 - d2 / d1, 1 - (d1 - d3) / d2, 0]],
        [[0, 1, (d1 - d2) / d3], [1 - d3 / d1, 0, 1 - (d1 - d2) / d3], [d3 / d1, 0, 0]],
    ]
    return shared + extra


def test_criterion_11_extreme_point_certificates():
    for d, matrices in [
        (np.array([4.0, 2.0, 1.0]), _extreme_points_regime_one(4.0, 2.0, 1.0)),
        (np.array([5.0, 3.0, 1.5]), _extreme_points_regime_one(5.0, 3.0, 1.5)),
        (np.array([3.0, 2.5, 2.0]), _extreme_points_regime_two(3.0, 2.5, 2.0)),
        (np.array([2.0, 1.8, 0.5]), _extreme_points_regime_two(2.0, 1.8, 0.5)),
    ]:
        assert d[0] > d[1] > d[2]
        for mat in matrices:
            a = np.array(mat, dtype=float)
            assert a.min() >= -1e-12
            assert np.max(np.abs(a.sum(axis=0) - 1.0)) <= 1e-12
            assert np.max(np.abs(a @ d - d)) <= 1e-12
    two = np.array([2.0, 1.8, 0.5])
    assert two[0] < two[1] + two[2]
    _announce(11, "10 + 13 extreme-point certificates are d-stochastic to 1e-12")


def test_criterion_12_orbit_extrema():
    rng = np.random.default_rng(16)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        c = _rand_hermitian(rng, n)
        t = _rand_hermitian(rng, n)
        ext = unitary_orbit_extrema(c, t)
        samples = c_numerical_range_sample(c, t, 10_000,
                                           seed=int(rng.integers(0, 2 ** 31))).real
        assert samples.max() <= ext.sup + 1e-9
        assert samples.min() >= ext.inf - 1e-9
    for _ in range(200):
        n = int(rng.integers(2, 5))
        rho = _rand_hermitian(rng, n)
        rho = rho @ rho.conj().T + 1e-3 * np.eye(n)
        rho /= np.trace(rho).real
        omega = _rand_hermitian(rng, n)
        omega = omega @ omega.conj().T + 1e-3 * np.eye(n)
        omega /= np.trace(omega).real
        lr = np.sort(np.linalg.eigvalsh(rho))[::-1]
        lo = np.sort(np.linalg.eigvalsh(omega))[::-1]
        link = all(
            unitary_orbit_extrema(rho, np.diag([1.0] * k + [0.0] * (n - k))).sup
            <= unitary_orbit_extrema(omega, np.diag([1.0] * k + [0.0] * (n - k))).sup + 1e-12
            for k in range(1, n + 1)
        )
        assert link == majorizes(lr, lo)
    _announce(12, "orbit extrema bracket 10^4 Haar samples x100; majorization "
                  "link exact x200")


def test_criterion_13_dissipation_invariants():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        rates = BathRates(n=n, a=rng.uniform(0, 2, size=n - 1),
                          b=rng.uniform(0, 2, size=n - 1))
        gen = b0_from_rates(rates)
        for t in (0.1, 1.0, 10.0):
            p = propagator(gen, t)
            assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-10
            assert p.min() >= -1e-10
    for _ in range(30):
        d = rng.dirichlet(np.ones(int(rng.integers(2, 6))))
        gen = b0_from_rates(thermal_rates(d))
        assert np.abs(steady_state(gen) - d).sum() <= 1e-8
    for _ in range(30):
        n = int(rng.integers(2, 6))
        rates = BathRates(n=n, a=rng.uniform(0, 2, size=n - 1),
                          b=rng.uniform(0, 2, size=n - 1))
        gen = b0_from_rates(rates)
        ops = lowering_raising_ops(rates)
        x = rng.dirichlet(np.ones(n))
        image = apply_gamma(ops, np.diag(x).astype(complex))
        assert np.max(np.abs(np.diag(image).real - gen.b0 @ x)) <= 1e-12
        assert np.max(np.abs(image - np.diag(np.diag(image)))) <= 1e-12
    _announce(13, "column-stochastic flows, thermal steady states, and the "
                  "diagonal dissipator reduction verified")
