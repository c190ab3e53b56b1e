"""Tests for lag-time moments, the ambiguity transform, and normalization."""

import warnings

import numpy as np
import pytest
from scipy import stats

import ambishrink.ambiguity as ambiguity
from ambishrink.ambiguity import (
    AmbiguityGrid,
    LagTimeMoments,
    NormalizationField,
    emaf,
    denormalize,
    lag_matrix,
    lag_support_mask,
    normalization,
    normalize,
    raw_moments,
    smooth_kernel,
)
from ambishrink.covariance import invert_af
from ambishrink.procgen import gen_white_noise
from ambishrink.series import AnalyticSeries, TimeSeries, analytic_signal, demean


def random_moments(n: int, seed: int, dt: float = 1.0) -> LagTimeMoments:
    rng = np.random.default_rng(seed)
    z = AnalyticSeries(
        rng.standard_normal(n) + 1j * rng.standard_normal(n), dt=dt
    )
    return raw_moments(z)


def pipeline_grid(n: int, seed: int, normalized: bool = False) -> AmbiguityGrid:
    z = analytic_signal(demean(gen_white_noise(n, seed=seed)))
    a = emaf(raw_moments(z))
    if not normalized:
        return a
    return normalize(a, normalization(n, a.dt, 0.5))


class TestLagTimeMomentsType:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(2n-1, n\)"):
            LagTimeMoments(np.zeros((4, 3), dtype=complex), dt=1.0)

    def test_rejects_values_off_support(self):
        entries = np.zeros((5, 3), dtype=complex)
        entries[4, 0] = 1.0  # lag +2 starts at t=2, so t=0 is off support
        with pytest.raises(ValueError, match="support"):
            LagTimeMoments(entries, dt=1.0)

    def test_support_mask_matches_definition(self):
        n = 5
        mask = lag_support_mask(n)
        for tau in range(-(n - 1), n):
            for t in range(n):
                expected = max(0, tau) <= t <= n - 1 + min(0, tau)
                assert mask[tau + n - 1, t] == expected

    def test_cached_mask_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            ambiguity._off_support(6)[0, 0] = True

    def test_mutating_a_returned_mask_changes_no_later_result(self):
        n = 6
        expected = lag_support_mask(n)
        lag_support_mask(n)[...] = True
        np.testing.assert_array_equal(lag_support_mask(n), expected)
        entries = np.zeros((2 * n - 1, n), dtype=complex)
        entries[0, 1] = 1.0  # lag -(n-1) lives at t = 0 alone
        with pytest.raises(ValueError, match="support"):
            LagTimeMoments(entries, dt=1.0)
        m = invert_af(pipeline_grid(n, seed=3))
        assert not np.any(m.entries[~expected])


class TestRawMoments:
    def test_zero_lag_row_is_squared_magnitude(self):
        rng = np.random.default_rng(1)
        z = AnalyticSeries(rng.standard_normal(8) + 1j * rng.standard_normal(8), dt=1.0)
        m = raw_moments(z)
        row = m.entries[m.n - 1]
        np.testing.assert_allclose(row.imag, 0.0, atol=1e-15)
        assert np.all(row.real >= 0)
        np.testing.assert_allclose(row.real, np.abs(z.samples) ** 2)

    def test_two_sample_arithmetic(self):
        z = AnalyticSeries(np.array([1.0, 1j]), dt=1.0)
        m = raw_moments(z)
        assert m.at(1, 1) == 1j  # z_1 * conj(z_0)
        assert m.at(-1, 0) == -1j  # z_0 * conj(z_1)
        assert m.at(0, 0) == 1.0
        assert m.at(0, 1) == 1.0

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(2)
        z = AnalyticSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4), dt=1.0)
        m = raw_moments(z)
        for tau in range(-3, 4):
            for t in range(4):
                if 0 <= t < 4 and 0 <= t - tau < 4:
                    expected = z.samples[t] * np.conj(z.samples[t - tau])
                else:
                    expected = 0.0
                assert m.entries[tau + 3, t] == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_grid_is_each_outer_product_through_lag_matrix_bitwise(self, n):
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        expected = np.zeros((3, 2 * n - 1, n), dtype=complex)
        for z, grid in zip(stack, expected):
            lag_matrix(grid)[...] = np.outer(z, z.conj())
        grids = ambiguity._lag_products(stack)
        np.testing.assert_array_equal(grids.view(np.uint64), expected.view(np.uint64))
        one = raw_moments(AnalyticSeries(stack[1])).entries
        np.testing.assert_array_equal(one.view(np.uint64), expected[1].view(np.uint64))
        # a product with a zero can be -0.0; every cell off the lag support must be +0.0
        off = grids.view(float).reshape(3, 2 * n - 1, n, 2)[:, ~lag_support_mask(n)]
        assert not np.any(np.signbit(off))

    @pytest.mark.parametrize("seed", range(4))
    def test_conjugate_lag_symmetry(self, seed):
        m = random_moments(6, seed)
        n = m.n
        for tau in range(-(n - 1), n):
            for t in range(max(0, tau), n + min(0, tau)):
                assert m.at(tau, t) == pytest.approx(np.conj(m.at(-tau, t - tau)))


class TestEmaf:
    def test_zero_frequency_bin_is_dt_times_row_sum(self):
        m = random_moments(6, 3, dt=0.5)
        a = emaf(m)
        for tau in range(-5, 6):
            expected = 0.5 * np.sum(m.entries[tau + 5])
            assert a.at(tau, 0) == pytest.approx(expected, abs=1e-12)

    def test_zero_moments_give_zero_grid(self):
        m = LagTimeMoments(np.zeros((7, 4), dtype=complex), dt=1.0)
        a = emaf(m)
        np.testing.assert_array_equal(a.entries, np.zeros((7, 8), dtype=complex))

    def test_matches_direct_summation(self):
        m = random_moments(4, 4, dt=0.25)
        a = emaf(m)
        n, dt = 4, 0.25
        for tau in range(-(n - 1), n):
            for k in range(-n, n):
                nu = k / (2 * n * dt)
                t = np.arange(n)
                direct = dt * np.sum(m.entries[tau + n - 1] * np.exp(-2j * np.pi * nu * t * dt))
                assert a.at(tau, k) == pytest.approx(direct, abs=1e-10)

    def test_origin_is_dt_times_total_energy(self):
        rng = np.random.default_rng(5)
        z = AnalyticSeries(rng.standard_normal(16) + 1j * rng.standard_normal(16), dt=2.0)
        a = emaf(raw_moments(z))
        origin = a.at(0, 0)
        assert origin.imag == pytest.approx(0.0, abs=1e-12)
        assert origin.real >= 0
        assert origin.real == pytest.approx(2.0 * np.sum(np.abs(z.samples) ** 2))

    @pytest.mark.parametrize("seed", range(3))
    def test_inversion_round_trip(self, seed):
        m = random_moments(12, seed + 10)
        back = invert_af(emaf(m))
        scale = np.max(np.abs(m.entries))
        np.testing.assert_allclose(back.entries, m.entries, atol=1e-10 * scale)

    def test_overflowing_coefficients_are_rejected_without_warnings(self):
        m = random_moments(8, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infinity"):
                emaf(LagTimeMoments(1e10 * m.entries, dt=1e300))


class TestNormalizationField:
    def test_origin_plugins(self):
        for n, dt in ((16, 1.0), (64, 0.25)):
            f = normalization(n, dt, 0.5)
            assert f.kappa[n - 1, n] == pytest.approx(n / (2 * dt**2))

    def test_clamped_edge_column(self):
        n, dt = 16, 0.5
        f = normalization(n, dt, 0.5)
        # column k = -n sits at |nu| = 1/(2 dt) where the bandwidth factor
        # would vanish; it must be floored at one grid cell 1/(2 n dt)
        span = n - np.abs(np.arange(-(n - 1), n))
        np.testing.assert_allclose(f.kappa[:, 0], span * (1 / (2 * n * dt)) / dt)

    def test_strictly_positive_everywhere(self):
        f = normalization(32, 0.1, 0.25)
        assert np.all(f.kappa > 0)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_delta_outside_open_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            normalization(16, 1.0, delta)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="positive"):
            NormalizationField(np.zeros((3, 4)))

    def test_rejects_infinite_field(self):
        with pytest.raises(ValueError, match="finite"):
            NormalizationField(np.full((3, 4), np.inf))

    def test_overflowing_dt_is_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                normalization(16, 1e-300, 0.5)


class TestNormalize:
    def test_unit_field_is_identity(self):
        a = pipeline_grid(8, 0)
        f = NormalizationField(np.ones_like(a.entries, dtype=float))
        out = normalize(a, f)
        np.testing.assert_array_equal(out.entries, a.entries)
        assert out.normalized

    def test_round_trip(self):
        a = pipeline_grid(16, 1)
        f = normalization(16, a.dt, 0.5)
        back = denormalize(normalize(a, f), f)
        scale = np.max(np.abs(a.entries))
        np.testing.assert_allclose(back.entries, a.entries, atol=1e-12 * scale)
        assert not back.normalized

    def test_delta_of_the_field_is_recorded_and_checked(self):
        a = pipeline_grid(16, 4)
        f = normalization(16, a.dt, 0.3)
        an = normalize(a, f)
        assert an.delta == 0.3
        assert denormalize(an, f).delta == 0.3
        with pytest.raises(ValueError, match="delta"):
            denormalize(an, normalization(16, a.dt, 0.5))

    def test_double_normalization_rejected(self):
        a = pipeline_grid(8, 2)
        f = normalization(8, a.dt, 0.5)
        with pytest.raises(ValueError, match="already normalized"):
            normalize(normalize(a, f), f)

    def test_shape_mismatch_rejected(self):
        a = pipeline_grid(8, 3)
        with pytest.raises(ValueError, match="shape"):
            normalize(a, normalization(16, a.dt, 0.5))

    def test_overflowing_quotients_are_rejected_without_warnings(self):
        a = pipeline_grid(8, 5)
        big = AmbiguityGrid(1e300 * a.entries, dt=a.dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="infinity"):
                normalize(big, NormalizationField(np.full(a.entries.shape, 1e-30)))

    def test_white_noise_interior_variance_is_flat(self):
        # Sample variance of the normalized coefficients over replicates
        # should not depend on the grid position away from the clamped edge
        # and the short-lag rows.
        n, reps = 32, 1000
        f = normalization(n, 1.0, 0.5)
        acc = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        acc2 = np.zeros((2 * n - 1, 2 * n))
        for rep in range(reps):
            a = normalize(pipeline_grid(n, 100 + rep), f)
            acc += a.entries
            acc2 += np.abs(a.entries) ** 2
        var = acc2 / reps - np.abs(acc / reps) ** 2
        taus = np.arange(-(n - 1), n)
        ks = np.arange(-n, n)
        interior = np.outer(np.abs(taus) <= n // 2, np.abs(ks) <= n // 2)
        interior[n - 1, n] = False
        values = var[interior]
        med = np.median(values)
        assert np.max(values) <= 1.2 * med
        assert np.min(values) >= 0.8 * med


class TestSmoothKernel:
    def test_unit_kernel_is_identity(self):
        a = pipeline_grid(8, 4)
        out = smooth_kernel(a, np.ones_like(a.entries, dtype=float))
        np.testing.assert_array_equal(out.entries, a.entries)

    def test_zero_kernel_gives_zero_grid(self):
        a = pipeline_grid(8, 5)
        out = smooth_kernel(a, np.zeros_like(a.entries, dtype=float))
        np.testing.assert_array_equal(out.entries, np.zeros_like(a.entries))

    @pytest.mark.parametrize("value", [1.5, np.nan])
    def test_rejects_amplifying_kernel(self, value):
        a = pipeline_grid(8, 6)
        omega = np.ones_like(a.entries, dtype=float)
        omega[0, 0] = value
        with pytest.raises(ValueError, match="magnitude"):
            smooth_kernel(a, omega)

    def test_gaussian_kernel_matches_time_domain_convolution(self):
        # A frequency-domain Gaussian narrow enough to be negligible at the
        # grid edge corresponds, through the dual-grid DFT, to circular
        # convolution of each padded moment row with the sampled transform
        # Delta t * sqrt(2 pi) b exp(-2 pi^2 b^2 t^2), alias-wrapped at 2 n dt.
        n, dt, b = 16, 1.0, 0.05
        m = random_moments(n, 7, dt=dt)
        nus = np.arange(-n, n) / (2 * n * dt)
        omega_row = np.exp(-(nus**2) / (2 * b**2))
        omega = np.tile(omega_row, (2 * n - 1, 1))
        smoothed = invert_af(smooth_kernel(emaf(m), omega))

        offsets = np.arange(2 * n, dtype=float)
        offsets[offsets >= n] -= 2 * n  # circular distances
        g = np.zeros(2 * n)
        for wrap in (-1, 0, 1):
            t = (offsets + wrap * 2 * n) * dt
            g += dt * np.sqrt(2 * np.pi) * b * np.exp(-2 * np.pi**2 * b**2 * t**2)
        padded = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        padded[:, :n] = m.entries
        expected = np.zeros((2 * n - 1, n), dtype=complex)
        for t in range(n):
            expected[:, t] = np.sum(padded * g[(t - np.arange(2 * n)) % (2 * n)], axis=1)
        expected[~m.support_mask()] = 0.0
        scale = np.max(np.abs(m.entries))
        np.testing.assert_allclose(smoothed.entries, expected, atol=1e-8 * scale)


class TestWhiteNoiseDistribution:
    def test_squared_magnitudes_pass_ks_against_exponential(self):
        # Off-origin normalized coefficients should be near exponential in
        # squared magnitude; 50 randomly drawn cells, KS at the 1% level.
        n = 128
        a = pipeline_grid(n, 0, normalized=True)
        rng = np.random.default_rng(99)
        qsq = np.abs(a.entries) ** 2
        flat = np.delete(qsq.ravel(), (n - 1) * 2 * n + n)
        cells = rng.choice(flat.size, size=50, replace=False)
        sample = flat[cells]
        result = stats.kstest(sample, "expon", args=(0, np.mean(sample)))
        assert result.pvalue > 0.01
