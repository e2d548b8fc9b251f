import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import dmajor.dissipation
from dmajor.dissipation import (
    BathRates,
    Generator,
    apply_gamma,
    b0_from_rates,
    check_zero_temperature,
    equidistant_d,
    flow,
    gibbs_vector,
    lowering_raising_ops,
    propagator,
    sigma_plus,
    steady_state,
    thermal_rates,
    zero_temperature_rates,
)
from helpers import thermal_angles


class TestB0FromRates:
    def test_two_level_form(self):
        a1, b1 = 0.8, 0.3
        gen = b0_from_rates(BathRates(n=2, a=[a1], b=[b1]))
        assert np.allclose(gen.b0, [[b1 ** 2, -a1 ** 2], [-b1 ** 2, a1 ** 2]])

    def test_zero_temperature_three_level(self):
        gen = b0_from_rates(zero_temperature_rates(3))
        expected = np.array([[0, -2, 0], [0, 2, -2], [0, 0, 2]], dtype=float)
        assert np.allclose(gen.b0, expected, atol=1e-12)

    def test_zero_rates(self):
        gen = b0_from_rates(BathRates(n=3, a=np.zeros(2), b=np.zeros(2)))
        assert np.array_equal(gen.b0, np.zeros((3, 3)))

    def test_column_sums_vanish_exactly(self):
        rng = np.random.default_rng(0)
        rates = BathRates(n=5, a=rng.uniform(0, 2, 4), b=rng.uniform(0, 2, 4))
        gen = b0_from_rates(rates)
        assert np.max(np.abs(gen.b0.sum(axis=0))) == 0.0

    def test_bits_match_per_entry_loop(self):
        # the entry-by-entry construction, scalar squares included; the bytes
        # are compared, so a last-bit or a -0.0 difference fails
        rng = np.random.default_rng(16)
        for case in range(300):
            n = case % 9 + 1
            if case % 3 == 0:
                rates = zero_temperature_rates(n)
            elif case % 3 == 1:
                rates = thermal_rates(rng.uniform(0.01, 1.0, n))
            else:
                rates = BathRates(n=n, a=np.where(rng.random(n - 1) < 0.3, 0.0,
                                                  rng.uniform(0, 10, n - 1)),
                                  b=np.where(rng.random(n - 1) < 0.3, 0.0,
                                             rng.uniform(0, 10, n - 1)))
            b0 = np.zeros((n, n))
            n_plus = np.zeros((n, n), dtype=complex)
            n_minus = np.zeros((n, n), dtype=complex)
            for j in range(n - 1):
                a2, b2 = rates.a[j] ** 2, rates.b[j] ** 2
                b0[j + 1, j + 1] += a2
                b0[j, j + 1] -= a2
                b0[j, j] += b2
                b0[j + 1, j] -= b2
                n_plus[j, j + 1] = rates.a[j]
                n_minus[j + 1, j] = rates.b[j]
            assert b0_from_rates(rates).b0.tobytes() == b0.tobytes()
            ops = lowering_raising_ops(rates)
            assert [op.dtype for op in ops] == [np.complex128] * 2
            assert ops[0].tobytes() == n_plus.tobytes()
            assert ops[1].tobytes() == n_minus.tobytes()


class TestGenerator:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rejects_each_positive_off_diagonal_entry(self, n):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                b0 = np.zeros((n, n))
                b0[i, j], b0[j, j] = 1e-6, -1e-6  # columns still sum to zero
                with pytest.raises(ValueError, match="off-diagonal entries of B0"):
                    Generator(b0)

    def test_rejects_nonzero_column_sum(self):
        b0 = b0_from_rates(zero_temperature_rates(4)).b0.copy()
        b0[3, 2] += 1e-9
        with pytest.raises(ValueError, match="columns of B0 must sum to zero"):
            Generator(b0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="entries of B0 must be finite"):
            Generator(np.array([[bad]]))
        for i, j in ((0, 0), (0, 2), (2, 1)):
            b0 = b0_from_rates(zero_temperature_rates(3)).b0.copy()
            b0[i, j] = bad
            with pytest.raises(ValueError, match="entries of B0 must be finite"):
                Generator(b0)

    def test_tolerance_scales_with_largest_entry(self):
        b0 = 1e6 * b0_from_rates(zero_temperature_rates(3)).b0
        b0[0, 1] += 1e-7  # column-sum error 1e-7 <= 1e-12 * scale
        Generator(b0)
        b0[0, 1] += 1e-5
        with pytest.raises(ValueError, match="columns of B0 must sum to zero"):
            Generator(b0)

    def test_largest_local_generator_validates_without_full_size_temporaries(self):
        # the 4096 x 4096 matrix itself is 134 MB; validation adds vectors only
        block = b0_from_rates(zero_temperature_rates(4)).b0
        tracemalloc.start()
        try:
            gen = Generator(np.kron(np.eye(4 ** 5), block))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.n == 4096
        assert peak < 150e6


class TestThermalRates:
    def test_uniform_d(self):
        n = 4
        rates = thermal_rates(np.full(n, 1.0 / n))
        j = np.arange(1, n)
        assert np.allclose(rates.a, np.sqrt(j * (n - j) / 2))
        assert np.allclose(rates.b, np.sqrt(j * (n - j) / 2))

    def test_two_level_example(self):
        rates = thermal_rates([0.9, 0.1])
        assert np.isclose(rates.a[0], np.sqrt(0.9))
        assert np.isclose(rates.b[0], np.sqrt(0.1))

    def test_amplitude_identity(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5):
            d = rng.uniform(0.1, 1.0, size=n)
            rates = thermal_rates(d)
            j = np.arange(1, n)
            assert np.allclose(rates.a ** 2 + rates.b ** 2, j * (n - j), atol=1e-12)

    def test_kernel(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = rng.uniform(0.05, 1.0, size=4)
            gen = b0_from_rates(thermal_rates(d))
            assert np.abs(gen.b0 @ d).sum() <= 1e-12 * max(1.0, d.sum())

    @pytest.mark.parametrize("top", [1.7e308, np.finfo(float).max])
    def test_weights_near_the_float_range(self, top):
        # the rates depend on neighbour ratios alone, so weights whose sums
        # overflow give the rates of the same weights scaled by 2^-1024,
        # bit for bit and without an overflow warning
        d = np.array([top, top, 2.0 ** 1000])
        rates, scaled = thermal_rates(d), thermal_rates(np.ldexp(d, -1024))
        assert np.array_equal(rates.a, scaled.a) and np.array_equal(rates.b, scaled.b)
        p = np.ldexp(d, -1024)
        assert np.allclose(steady_state(b0_from_rates(rates)), p / p.sum(), rtol=1e-12)

    def test_angles(self):
        d = np.array([0.7, 0.2, 0.1])
        theta = thermal_angles(d)
        assert np.allclose(np.cos(theta) ** 2, d[:-1] / (d[:-1] + d[1:]))
        assert np.all((theta > 0) & (theta < np.pi / 2))


class TestGibbs:
    def test_three_level_example(self):
        d = gibbs_vector([0.0, 0.25, 4.25], 1.0)
        assert np.allclose(d, [0.5577, 0.4343, 0.0080], atol=5e-5)

    def test_symmetric_ladder_example(self):
        d = gibbs_vector([-0.64, 0.0, 0.64], 1.0)
        assert np.allclose(d, [0.5539, 0.2921, 0.1540], atol=5e-5)

    def test_high_temperature_limit(self):
        d = gibbs_vector([0.3, 1.4, 2.2], 1e9)
        assert np.max(np.abs(d - 1.0 / 3.0)) <= 1e-8

    def test_shift_invariance(self):
        e = np.array([100.0, 101.0, 105.0])
        assert np.allclose(gibbs_vector(e, 2.0), gibbs_vector(e - 100.0, 2.0))

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            gibbs_vector([0.0, 1.0], 0.0)


class TestEquidistant:
    def test_half(self):
        assert np.allclose(equidistant_d(0.5, 3), [4 / 7, 2 / 7, 1 / 7])

    def test_normalized(self):
        for alpha in (0.1, 0.37, 0.9):
            assert np.isclose(equidistant_d(alpha, 5).sum(), 1.0)

    def test_constant_ratio(self):
        d = equidistant_d(0.3, 6)
        assert np.allclose(d[1:] / d[:-1], 0.3)

    def test_matches_gibbs_of_arithmetic_ladder(self):
        t, gap, n = 1.7, 0.9, 5
        d1 = gibbs_vector(gap * np.arange(n), t)
        d2 = equidistant_d(np.exp(-gap / t), n)
        assert np.max(np.abs(d1 - d2)) <= 1e-12

    def test_range_guard(self):
        with pytest.raises(ValueError):
            equidistant_d(1.0, 3)


class TestFlow:
    def test_time_zero(self):
        gen = b0_from_rates(thermal_rates([0.5, 0.5]))
        x = np.array([0.3, 0.7])
        assert np.allclose(flow(gen, x, 0.0), x)

    def test_three_level_thermal_example(self):
        # weighted-ladder convention, fixed by this example
        d = gibbs_vector([0.0, 0.25, 4.25], 1.0)
        gen = b0_from_rates(thermal_rates(d))
        x = np.array([d[2], d[0], d[1]])
        out = flow(gen, x, 0.1)
        assert np.allclose(out, [0.0683, 0.5730, 0.3587], atol=5e-4)

    def test_three_level_unit_ladder_example(self):
        # reference values computed with unit ladder weights, which
        # for n = 3 is exactly the weighted generator at half speed
        d = gibbs_vector([-0.64, 0.0, 0.64], 1.0)
        theta2 = d[:-1] / (d[:-1] + d[1:])
        rates = BathRates(n=3, a=np.sqrt(theta2), b=np.sqrt(1 - theta2))
        gen = b0_from_rates(rates)
        out = flow(gen, [0.55, 0.4, 0.05], 1.0)
        assert np.allclose(out, [0.5783, 0.3098, 0.1119], atol=5e-4)
        gen_w = b0_from_rates(thermal_rates(d))
        assert np.allclose(flow(gen_w, [0.55, 0.4, 0.05], 0.5), out, atol=1e-12)

    def test_preserves_total_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.uniform(0.05, 1.0, size=4)
            gen = b0_from_rates(thermal_rates(d))
            x = rng.dirichlet(np.ones(4))
            out = flow(gen, x, rng.uniform(0, 5))
            assert abs(out.sum() - 1.0) <= 1e-10
            assert out.min() >= -1e-10

    def test_rejects_negative_time(self):
        gen = b0_from_rates(thermal_rates([0.5, 0.5]))
        with pytest.raises(ValueError):
            flow(gen, [1.0, 0.0], -0.1)

    def test_propagator_column_stochastic(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = rng.integers(2, 6)
            rates = BathRates(n=n, a=rng.uniform(0, 1.5, n - 1), b=rng.uniform(0, 1.5, n - 1))
            gen = b0_from_rates(rates)
            for t in (0.1, 1.0, 10.0):
                p = propagator(gen, t)
                assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-10
                assert p.min() >= -1e-10


def _birth_death_generators():
    """Seeded birth-death generators, n = 2..8: thermal rates of Gibbs vectors
    with energy spreads up to 40 T, and random rates a, b in (0, 2)."""
    rng = np.random.default_rng(41)
    out = []
    for n in range(2, 9):
        for spread in (0.1, 1.0, 5.0, 20.0, 40.0):
            for _ in range(3):
                energies = rng.uniform(0.0, spread, n)
                energies[:2] = 0.0, spread
                d = gibbs_vector(rng.permutation(energies), 1.0)
                out.append(b0_from_rates(thermal_rates(d)))
        for _ in range(10):
            rates = BathRates(n=n, a=rng.uniform(0, 2, n - 1), b=rng.uniform(0, 2, n - 1))
            out.append(b0_from_rates(rates))
    return out


SPECTRAL_TIMES = (1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0)


@pytest.fixture
def expm_calls(monkeypatch):
    """Arguments of every linalg.expm call made by the propagator."""
    calls = []
    real = dmajor.dissipation.expm

    def counting(a, t=1.0):
        calls.append(np.shape(t))
        return real(a, t)

    monkeypatch.setattr(dmajor.dissipation, "expm", counting)
    return calls


class TestSpectralPropagator:
    def test_matches_scipy_expm(self):
        gens = _birth_death_generators()
        # the spectral route serves most of them; the rest run on expm
        assert sum(g._spectral is not None for g in gens) >= len(gens) // 2
        for gen in gens:
            for t in SPECTRAL_TIMES:
                p = propagator(gen, t)
                assert np.max(np.abs(p - scipy.linalg.expm(-t * gen.b0))) <= 1e-12
                assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-12
                assert p.min() >= -1e-13

    def test_stack_slices_equal_scalar_calls(self):
        rng = np.random.default_rng(43)
        for gen in _birth_death_generators()[::3]:
            t = np.r_[SPECTRAL_TIMES, rng.uniform(0, 5, 4), 0.0]
            stack = propagator(gen, t)
            assert stack.shape == (t.size, gen.n, gen.n)
            for k, tk in enumerate(t):
                assert np.array_equal(stack[k], propagator(gen, float(tk)))
        assert propagator(gen, np.array([])).shape == (0, gen.n, gen.n)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
    def test_rejects_non_finite_product(self, bad):
        gen = b0_from_rates(thermal_rates(equidistant_d(0.5, 4)))
        assert gen._spectral is not None
        with pytest.raises(ValueError, match="finite"):
            propagator(gen, bad)
        with pytest.raises(ValueError, match="finite"):
            propagator(gen, np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            flow(gen, np.full(4, 0.25), bad)

    def test_thermal_generators_never_call_expm(self, expm_calls):
        rng = np.random.default_rng(47)
        for n in range(2, 9):
            for d in (equidistant_d(rng.uniform(0.2, 0.8), n),
                      gibbs_vector(rng.uniform(0.0, 5.0, n), 1.0)):
                gen = b0_from_rates(thermal_rates(d))
                propagator(gen, 0.5)
                propagator(gen, np.array([0.1, 2.0]))
                flow(gen, d, 3.0)
        assert expm_calls == []

    def test_zero_temperature_generators_never_call_expm(self, expm_calls):
        # at n = 1, B0 = 0 is also birth-death and runs on the spectral route
        for n in range(2, 9):
            gen = b0_from_rates(zero_temperature_rates(n))
            assert gen._spectral is None and gen._ladder is not None
            propagator(gen, 0.5)
            propagator(gen, np.array([0.1, 2.0]))
            flow(gen, np.eye(n)[-1], 3.0)
        assert expm_calls == []

    def test_other_generators_call_expm(self, expm_calls):
        dense = Generator(3.0 * np.eye(3) - np.ones((3, 3)))
        gap = b0_from_rates(BathRates(n=4, a=[1.0, 0.0, 1.0], b=[1.0, 1.0, 1.0]))
        # a 40 T spread is beyond the spread the spectral route accepts
        steep = b0_from_rates(thermal_rates(gibbs_vector([0.0, 20.0, 40.0], 1.0)))
        chain = Generator(np.kron(np.eye(2), b0_from_rates(zero_temperature_rates(2)).b0))
        gens = [chain, gap, dense, steep]
        for gen in gens:
            assert gen._spectral is None and gen._ladder is None
            p = propagator(gen, 0.5)
            assert np.array_equal(p, scipy.linalg.expm(-0.5 * gen.b0))
        assert expm_calls == [()] * len(gens)


def _mp_expm(a, t):
    """exp(t a) from mpmath at 30 digits, rounded to floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist()) * t).tolist(), dtype=float)


FORWARD_TIMES = (1e-6, 1e-2, 1.0, 16.0, 1024.0)
BACKWARD_TIMES = (1e-6, 1e-2, 0.5, 4.0)


class TestZeroTemperatureSeries:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_mpmath(self, n):
        gen = b0_from_rates(zero_temperature_rates(n))
        b0, (forward, backward) = gen.b0, gen._ladder
        for t in FORWARD_TIMES:
            assert np.max(np.abs(forward.full(t) - _mp_expm(b0, -t))) <= 1e-14
        for t in BACKWARD_TIMES:
            ref = _mp_expm(b0, t)
            err = np.abs(backward.full(t) - ref).sum(axis=0).max()
            assert err <= 1e-13 * np.abs(ref).sum(axis=0).max()

    def test_leading_blocks_match_mpmath(self):
        gen = b0_from_rates(zero_temperature_rates(8))
        b0, backward = gen.b0, gen._ladder[1]
        for m in range(1, 8):
            ref = _mp_expm(b0[:m, :m], 1.0)
            err = np.abs(next(backward.walk(m)(1.0))[1] - ref).sum(axis=0).max()
            assert err <= 1e-13 * np.abs(ref).sum(axis=0).max()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_forward_columns_are_stochastic(self, n):
        gen = b0_from_rates(zero_temperature_rates(n))
        for t in np.r_[0.0, np.geomspace(1e-9, 1e4, 27)]:
            p = propagator(gen, t)
            assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-15
            assert p.min() >= -1e-15

    @pytest.mark.parametrize("n", range(1, 9))
    def test_time_zero_is_the_identity(self, n):
        gen = b0_from_rates(zero_temperature_rates(n))
        assert np.array_equal(propagator(gen, 0.0), np.eye(n))
        assert np.array_equal(gen._ladder[1].full(0.0), np.eye(n))

    def test_stack_slices_equal_scalar_calls(self):
        rng = np.random.default_rng(59)
        for n in range(1, 9):
            gen = b0_from_rates(zero_temperature_rates(n))
            t = np.r_[FORWARD_TIMES, rng.uniform(0, 5, 4), 0.0]
            stack = propagator(gen, t)
            assert stack.shape == (t.size, n, n)
            for k, tk in enumerate(t):
                assert np.array_equal(stack[k], propagator(gen, float(tk)))
            assert propagator(gen, np.array([])).shape == (0, n, n)

    @pytest.mark.parametrize("n", [*range(1, 9), 16, 64, 256])
    def test_doublings_equal_the_propagator(self, n):
        # at t = 2^k, t ||N||_1 is exact, so the series keeps its step h and
        # squares once more per doubling; at n = 1, N = 0 and s stays put
        gen = b0_from_rates(zero_temperature_rates(n))
        assert (float(gen._ladder[0].norms[-1]) == 0.0) == (n == 1)
        chain = gen._ladder[0].walk(n)(1.0)
        for k in range(14):
            t, e = next(chain)
            assert t == 2.0 ** k
            assert np.array_equal(e, propagator(gen, t))

    def test_doublings_restart_below_half_norm(self):
        # while t ||N||_1 < 1/2 no squaring is taken and the step is t
        # itself, so the chain evaluates each such t afresh
        gen = b0_from_rates(BathRates(4, np.full(3, 0.1), np.zeros(3)))
        assert float(gen._ladder[0].norms[-1]) < 0.5 / 4
        chain = gen._ladder[0].walk(4)(1.0)
        for k in range(10):
            t, e = next(chain)
            assert t == 2.0 ** k
            assert np.array_equal(e, propagator(gen, t))

    @pytest.mark.parametrize("n", [2, 5, 8, 64])
    def test_backward_walks_equal_fresh_starts(self, n):
        # the face hit walks each leading block from t = 1e-6 * 2^k: every
        # doubling must equal the first value of a walk started there
        backward = b0_from_rates(zero_temperature_rates(n))._ladder[1]
        for m in {2, (n + 2) // 2, n}:
            walk = backward.walk(m)
            for k in (0, 9, 17):
                for u, e in walk(1e-6 * 2.0 ** k):
                    assert np.array_equal(e, next(walk(u))[1])
                    if u * backward.norms[m - 1] > 100.0:
                        break

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e308])
    def test_rejects_non_finite_product(self, bad):
        gen = b0_from_rates(zero_temperature_rates(4))
        with pytest.raises(ValueError, match="finite"):
            propagator(gen, bad)
        with pytest.raises(ValueError, match="finite"):
            propagator(gen, np.array([0.5, bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            next(gen._ladder[1].walk(3)(bad))

    def test_backward_overflow_raises(self):
        backward = b0_from_rates(zero_temperature_rates(4))._ladder[1]
        with pytest.raises(ValueError, match="overflows"):
            backward.full(200.0)

    def test_backward_overflow_of_the_step_powers_raises(self):
        # at ||B0||_1 = 6e-20 the step h is t itself, and h^18 leaves the
        # float range at t = 1e18, where t ||B0||_1 is far below e^700
        backward = Generator(b0_from_rates(zero_temperature_rates(4)).b0 * 1e-20)._ladder[1]
        assert float(backward.norms[-1]) * 1e18 < 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="overflows"):
                backward.full(1e18)


class TestLadderMemo:
    def test_generators_with_the_same_b0_share_one_ladder(self):
        for n in (1, 2, 5, 64):
            first = b0_from_rates(zero_temperature_rates(n))._ladder
            again = Generator(b0_from_rates(zero_temperature_rates(n)).b0.copy())._ladder
            assert again is first

    def test_terms_are_read_only(self):
        forward, backward = b0_from_rates(zero_temperature_rates(4))._ladder
        for series in (forward, backward):
            with pytest.raises(ValueError):
                series.terms[1, 0, 1] = 0.0

    def test_a_hit_equals_a_fresh_build(self):
        gen = b0_from_rates(BathRates(5, np.array([0.3, 2.0, 1.5, 0.7]), np.zeros(4)))
        shared = gen._ladder
        dmajor.dissipation._ladder_of.cache_clear()
        fresh = Generator(gen.b0.copy())._ladder
        assert fresh is not shared
        for a, b in zip(shared, fresh):
            assert np.array_equal(a.terms, b.terms) and np.array_equal(a.norms, b.norms)
            assert (a.mu, a.complement) == (b.mu, b.complement)
            for t in (1e-3, 0.7, 9.0):
                assert np.array_equal(a.full(t), b.full(t))

    def test_keeps_only_built_ladders_of_at_most_64_levels(self):
        memo = dmajor.dissipation._ladder_of
        memo.cache_clear()
        zero = b0_from_rates(zero_temperature_rates(3))._ladder
        thermal = [b0_from_rates(thermal_rates(d)) for d in
                   np.random.default_rng(3).dirichlet(np.ones(3), size=20)]
        assert all(gen._ladder is None for gen in thermal)
        assert memo.cache_info().currsize == 1
        assert b0_from_rates(zero_temperature_rates(3))._ladder is zero
        big = b0_from_rates(zero_temperature_rates(65))
        assert big._ladder is not b0_from_rates(zero_temperature_rates(65))._ladder
        assert memo.cache_info().currsize == 1
        for n in range(2, 12):
            b0_from_rates(zero_temperature_rates(n))._ladder
        assert memo.cache_info().currsize == memo.cache_info().maxsize == 8


@pytest.fixture
def svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


class TestSteadyState:
    def test_zero_temperature(self):
        for n in range(1, 9):
            gen = b0_from_rates(zero_temperature_rates(n))
            assert np.array_equal(steady_state(gen), np.eye(n)[0])

    def test_zero_temperature_long_time_propagator(self):
        gen = b0_from_rates(zero_temperature_rates(3))
        p = propagator(gen, 60.0)
        target = np.zeros((3, 3))
        target[0] = 1.0
        assert np.max(np.abs(p - target)) <= 1e-8

    def test_thermal(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = rng.dirichlet(np.ones(4))
            gen = b0_from_rates(thermal_rates(d))
            assert np.abs(steady_state(gen) - d).sum() <= 1e-8

    def test_single_level(self):
        gen = Generator(np.zeros((1, 1)))
        assert np.array_equal(steady_state(gen), [1.0])

    def test_relaxation(self):
        rng = np.random.default_rng(6)
        d = rng.dirichlet(np.ones(3))
        gen = b0_from_rates(thermal_rates(d))
        x = rng.dirichlet(np.ones(3))
        horizon = 50.0 / np.min(np.diag(gen.b0)[1:])
        assert np.abs(flow(gen, x, horizon) - d).sum() <= 1e-8

    def test_rejects_multidimensional_kernel(self):
        with pytest.raises(ValueError):
            steady_state(b0_from_rates(BathRates(n=3, a=np.zeros(2), b=np.zeros(2))))

    def test_thermal_in_closed_form(self, svd_calls):
        rng = np.random.default_rng(29)
        for n in range(2, 9):
            for _ in range(20):
                d = rng.dirichlet(np.ones(n))
                p = steady_state(b0_from_rates(thermal_rates(d)))
                assert np.max(np.abs(p - d) / d) <= 1e-14 * n
        assert svd_calls == []

    def test_zero_lower_rate_cuts_the_fixed_point(self, svd_calls):
        # nothing climbs past the zero lower rate, so levels 2 and 3 drain
        gen = b0_from_rates(BathRates(n=4, a=[1.0, 2.0, 0.5], b=[0.5, 0.0, 1.0]))
        p = steady_state(gen)
        assert np.array_equal(p[2:], [0.0, 0.0])
        assert abs(p.sum() - 1.0) <= 1e-15
        assert np.max(np.abs(gen.b0 @ p)) <= 1e-15
        assert svd_calls == []

    def test_dense_generator_uses_the_svd(self, svd_calls):
        gen = Generator(3.0 * np.eye(3) - np.ones((3, 3)))
        assert np.max(np.abs(steady_state(gen) - 1.0 / 3.0)) <= 1e-14
        assert len(svd_calls) == 1


class TestZeroTemperatureCheck:
    MESSAGE = "zero-temperature upper-bidiagonal form"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_accepts_zero_temperature_rates(self, n):
        check_zero_temperature(b0_from_rates(zero_temperature_rates(n)))

    def test_rejects_thermal_rates(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            check_zero_temperature(b0_from_rates(thermal_rates(equidistant_d(0.5, 4))))

    def test_level_cap(self):
        cap = dmajor.dissipation.MAX_BATH_DIM
        gen = b0_from_rates(zero_temperature_rates(cap))
        check_zero_temperature(gen)
        assert gen._ladder is not None
        # one level more, built by hand: no series, and synthesis refuses it
        b0 = np.zeros((cap + 1, cap + 1))
        b0[:cap, :cap] = gen.b0
        b0[cap - 1, cap], b0[cap, cap] = -1.0, 1.0
        big = Generator(b0)
        assert big._ladder is None
        with pytest.raises(ValueError, match=f"MAX_BATH_DIM = {cap}"):
            check_zero_temperature(big)
        with pytest.raises(ValueError, match=f"MAX_BATH_DIM = {cap}"):
            zero_temperature_rates(cap + 1)

    # -1e-14 lies within the column-sum tolerance, so B0 stays a valid Generator
    @pytest.mark.parametrize("i, j", [(1, 0), (3, 2), (2, 0), (3, 1)])
    def test_rejects_one_nonzero_lower_entry(self, i, j):
        b0 = b0_from_rates(zero_temperature_rates(4)).b0.copy()
        b0[i, j] = -1e-14
        with pytest.raises(ValueError, match=self.MESSAGE):
            check_zero_temperature(Generator(b0))


class TestDissipator:
    def test_normal_operator_annihilates_identity(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        normal = m + m.conj().T  # Hermitian, hence normal
        out = apply_gamma([normal], np.eye(3, dtype=complex))
        assert np.max(np.abs(out)) <= 1e-12

    def test_hand_evaluated_two_level(self):
        v = np.zeros((2, 2), dtype=complex)
        v[0, 1] = 1.0  # |e1><e2|
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = apply_gamma([v], rho)
        assert np.allclose(out, np.diag([-1.0, 1.0]))

    def test_diagonal_reduction_matches_rate_matrix(self):
        rng = np.random.default_rng(8)
        for n in range(2, 6):
            rates = BathRates(n=n, a=rng.uniform(0, 2, n - 1), b=rng.uniform(0, 2, n - 1))
            gen = b0_from_rates(rates)
            ops = lowering_raising_ops(rates)
            x = rng.dirichlet(np.ones(n))
            out = apply_gamma(ops, np.diag(x).astype(complex))
            assert np.max(np.abs(out - np.diag(np.diag(out)))) <= 1e-12
            assert np.max(np.abs(np.diag(out).real - gen.b0 @ x)) <= 1e-12

    def test_entrywise_formula_on_general_input(self):
        # the dissipator of a ladder pair has a closed entrywise form; check
        # it on a random non-diagonal matrix
        rng = np.random.default_rng(9)
        n = 5
        a = rng.uniform(0, 2, n - 1)
        b = rng.uniform(0, 2, n - 1)
        ops = lowering_raising_ops(BathRates(n=n, a=a, b=b))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out = apply_gamma(ops, y)
        a_prev = np.concatenate(([0.0], a))
        b_next = np.concatenate((b, [0.0]))
        for j in range(n):
            for k in range(n):
                val = 0.5 * (a_prev[j] ** 2 + a_prev[k] ** 2
                             + b_next[j] ** 2 + b_next[k] ** 2) * y[j, k]
                if j + 1 < n and k + 1 < n:
                    val -= a[j] * a[k] * y[j + 1, k + 1]
                if j >= 1 and k >= 1:
                    val -= b[j - 1] * b[k - 1] * y[j - 1, k - 1]
                assert abs(out[j, k] - val) <= 1e-12

    def test_sigma_plus_matches_zero_temperature_rates(self):
        n = 4
        ops = lowering_raising_ops(zero_temperature_rates(n))
        assert np.allclose(ops[0], sigma_plus(n))
        assert np.max(np.abs(ops[1])) == 0.0
        for n in range(1, 9):
            ladder = np.zeros((n, n), dtype=complex)
            for j in range(1, n):
                ladder[j - 1, j] = np.sqrt(j * (n - j))
            assert sigma_plus(n).tobytes() == ladder.tobytes()
        with pytest.raises(ValueError, match="n must be positive"):
            sigma_plus(0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_gamma([np.eye(2, dtype=complex)], np.eye(3, dtype=complex))
