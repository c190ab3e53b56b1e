"""Tests for the synthetic process generators and their population references."""

from dataclasses import replace

import numpy as np
import pytest

from ambishrink.procgen import (
    AggregationProcess,
    ModulatedMAProcess,
    TheoreticalCovariance,
    TimeVaryingFilterProcess,
    aggregation_components,
    chirp_filter_process,
    cyclostationary_process,
    gen_aggregation,
    gen_modulated_ma,
    gen_tv_filter,
    gen_white_noise,
    locally_stationary_process,
    stationary_emaf_expectation,
    theoretical_covariance,
    whitenoise_af_covariance,
    whitenoise_af_covariance_limit,
)
from ambishrink.series import analytic_spectrum_weights


def flat_modulation(t: np.ndarray) -> np.ndarray:
    return np.ones(len(t))


class TestTheoreticalCovarianceType:
    @pytest.mark.parametrize("scale", [1e-300, 1e-13, 1.0, 1e20])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        with pytest.raises(ValueError, match="Hermitian"):
            TheoreticalCovariance(scale * np.array([[0.1, 1.0], [0.0, 0.1]]))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            TheoreticalCovariance(np.diag([1.0, -2.0]))

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e20])
    def test_rejects_negative_diagonal_at_any_scale(self, scale):
        with pytest.raises(ValueError, match="diagonal"):
            TheoreticalCovariance(scale * np.diag([1.0, -1e-9]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="NaN or infinity"):
            TheoreticalCovariance(np.diag([1.0, np.nan]))

    def test_accepts_complex_hermitian(self):
        c = TheoreticalCovariance(np.array([[2.0, 1j], [-1j, 2.0]]))
        assert c.n == 2


class TestGenModulatedMa:
    def test_identity_filter_reproduces_innovation_stream(self):
        p = ModulatedMAProcess((1.0,), flat_modulation, seed=5)
        out = gen_modulated_ma(p, 64)
        expected = np.random.default_rng(5).standard_normal(64)
        np.testing.assert_array_equal(out.samples, expected)

    def test_reproducible_and_seed_sensitive(self):
        p = locally_stationary_process(length=128, seed=3)
        a = gen_modulated_ma(p, 128)
        b = gen_modulated_ma(p, 128)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = gen_modulated_ma(replace(p, seed=4), 128)
        assert np.any(a.samples != c.samples)

    def test_cyclostationary_component_definition(self):
        p = cyclostationary_process(seed=9)
        assert p.weights == (1.0, 0.5, 0.0, 0.3, 0.0, 0.1)
        t = np.arange(20)
        np.testing.assert_allclose(
            p.modulation(t), 4.0 * np.abs(np.sin(2 * np.pi * 0.09 * t))
        )

    def test_locally_stationary_component_definition(self):
        p = locally_stationary_process(length=512, seed=0)
        assert p.weights == (1.0, 0.33, 0.266, 0.2, 0.133, 0.066)
        t = np.arange(0, 512, 37)
        u = t / 512
        np.testing.assert_allclose(p.modulation(t), 0.25 + u * (1 - u))

    def test_modulation_scales_samples(self):
        base = ModulatedMAProcess((1.0, 0.5), flat_modulation, seed=1)
        doubled = ModulatedMAProcess(
            (1.0, 0.5), lambda t: 2.0 * np.ones(len(t)), seed=1
        )
        a = gen_modulated_ma(base, 32)
        b = gen_modulated_ma(doubled, 32)
        np.testing.assert_allclose(b.samples, 2.0 * a.samples)

    def test_rejects_invalid_length(self):
        p = ModulatedMAProcess((1.0,), flat_modulation, seed=0)
        with pytest.raises(ValueError, match="n >="):
            gen_modulated_ma(p, 0)


class TestGenAggregation:
    def test_length_and_default_reproducibility(self):
        a = gen_aggregation(512, seed=7)
        b = gen_aggregation(512, seed=7)
        assert a.n == 512
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_is_sum_of_component_draws(self):
        n, seed = 64, 11
        p1, p2 = aggregation_components(n, seed)
        expected = gen_modulated_ma(p1, n).samples + gen_modulated_ma(p2, n).samples
        np.testing.assert_array_equal(gen_aggregation(n, seed=seed).samples, expected)

    def test_seeds_change_path_not_covariance(self):
        a = gen_aggregation(64, seed=0)
        b = gen_aggregation(64, seed=1)
        assert np.any(a.samples != b.samples)
        ca = theoretical_covariance(AggregationProcess(seed=0), 64)
        cb = theoretical_covariance(AggregationProcess(seed=1), 64)
        np.testing.assert_array_equal(ca.entries, cb.entries)

    def test_minimal_length_boundary(self):
        out = gen_aggregation(6, seed=0)
        assert out.n == 6


class TestGenTvFilter:
    def test_identity_filter_is_white_noise(self):
        p = TimeVaryingFilterProcess(
            filt=lambda k, t: np.broadcast_to((k == 0).astype(float), np.broadcast_shapes(k.shape, t.shape)),
            half_width=0,
            noise_floor=0.0,
            seed=21,
        )
        out = gen_tv_filter(p, 64)
        expected = np.random.default_rng(21).standard_normal(64)
        np.testing.assert_array_equal(out.samples, expected)

    def test_separable_filter_covariance_matches_modulated_ma(self):
        # h(k, t) = w_k sigma_t over causal taps reproduces the moving
        # average construction, so the two theoretical covariance paths must
        # agree exactly.
        ma = locally_stationary_process(length=48, seed=0)
        w = np.asarray(ma.weights)

        def filt(k, t):
            k = np.asarray(k)
            t = np.asarray(t)
            taps = np.where((k >= 0) & (k < w.size), w[np.clip(k, 0, w.size - 1)], 0.0)
            return taps * ma.modulation(t)

        tv = TimeVaryingFilterProcess(filt=filt, half_width=5, noise_floor=0.0, seed=0)
        c_tv = theoretical_covariance(tv, 48)
        c_ma = theoretical_covariance(ma, 48)
        np.testing.assert_allclose(c_tv.entries, c_ma.entries, atol=1e-12)

    def test_chirp_covariance_matches_monte_carlo(self):
        # 2e4 replicates; entrywise z-scores against the exact covariance
        # should show near-nominal 3-sigma coverage.
        n, reps = 48, 20_000
        p = chirp_filter_process(seed=0)
        truth = theoretical_covariance(p, n).entries.real
        acc = np.zeros((n, n))
        acc2 = np.zeros((n, n))
        for rep in range(reps):
            x = gen_tv_filter(replace(p, seed=rep + 1000), n).samples
            outer = np.outer(x, x)
            acc += outer
            acc2 += outer**2
        mean = acc / reps
        se = np.sqrt(np.maximum(acc2 / reps - mean**2, 0.0) / reps)
        z = (mean - truth) / np.maximum(se, 1e-15)
        assert np.mean(np.abs(z) < 3) > 0.99
        assert np.max(np.abs(z)) < 6.0

    def test_noise_floor_adds_to_diagonal_only(self):
        p = chirp_filter_process(seed=0)
        quiet = theoretical_covariance(replace(p, noise_floor=0.0), 32).entries
        loud = theoretical_covariance(replace(p, noise_floor=0.5), 32).entries
        np.testing.assert_allclose(loud - quiet, 0.25 * np.eye(32), atol=1e-14)

    def test_rejects_too_short_record(self):
        with pytest.raises(ValueError, match="n >="):
            gen_tv_filter(chirp_filter_process(), 1)


class TestTheoreticalCovariance:
    def test_white_noise_is_scaled_identity(self):
        p = ModulatedMAProcess((1.5,), flat_modulation, seed=0)
        c = theoretical_covariance(p, 5)
        np.testing.assert_allclose(c.entries, 2.25 * np.eye(5), atol=1e-14)

    def test_ma1_three_sample_arithmetic(self):
        p = ModulatedMAProcess((1.0, 1.0), flat_modulation, seed=0)
        c = theoretical_covariance(p, 3)
        np.testing.assert_allclose(
            c.entries, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], atol=1e-14
        )

    def test_aggregation_matches_monte_carlo(self):
        n, reps = 512, 10_000
        truth = theoretical_covariance(AggregationProcess(seed=0), n).entries.real
        draws = np.empty((reps, n))
        for rep in range(reps):
            draws[rep] = gen_aggregation(n, seed=rep + 50_000).samples
        mean = draws.T @ draws / reps
        sq = (draws**2).T @ (draws**2) / reps
        se = np.sqrt(np.maximum(sq - mean**2, 0.0) / reps)
        z = (mean - truth) / np.maximum(se, 1e-15)
        assert np.mean(np.abs(z) < 3) > 0.99
        assert np.max(np.abs(z)) < 6.0

    @pytest.mark.parametrize("n", [8, 9, 15, 16])
    def test_short_chirp_truth_is_the_leading_block(self, n):
        p = chirp_filter_process(seed=0)
        long = theoretical_covariance(p, 40).entries
        np.testing.assert_allclose(theoretical_covariance(p, n).entries, long[:n, :n], rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "proc",
        [
            locally_stationary_process(length=64, seed=0),
            cyclostationary_process(seed=0),
            AggregationProcess(seed=0),
            chirp_filter_process(seed=0),
        ],
        ids=["locstat", "cyclo", "aggregation", "chirp"],
    )
    def test_outputs_are_positive_semidefinite(self, proc):
        c = theoretical_covariance(proc, 64)
        eig = np.linalg.eigvalsh(c.entries)
        trace = float(np.real(np.trace(c.entries)))
        assert eig[0] >= -1e-10 * trace


class TestStationaryEmafExpectation:
    def test_zero_frequency_is_span_times_autocovariance(self):
        for tau in (0, 1, -1):
            value = stationary_emaf_expectation([2.0, 1.0], 32, 1.0, tau, 0.0)
            assert value == pytest.approx((32 - abs(tau)) * (2.0 if tau == 0 else 1.0))

    def test_dirichlet_null_frequency(self):
        for tau in (0, 3, -2):
            nu = 1.0 / ((32 - abs(tau)) * 0.5)
            value = stationary_emaf_expectation([1.0, 0.5, 0.25, 0.1], 32, 0.5, tau, nu)
            assert abs(value) < 1e-10

    def test_lags_beyond_autocovariance_have_zero_expectation(self):
        assert stationary_emaf_expectation([2.0, 1.0], 32, 1.0, 5, 0.01) == 0.0

    def test_rejects_out_of_range_lag(self):
        with pytest.raises(ValueError, match="lag"):
            stationary_emaf_expectation([1.0], 8, 1.0, 8, 0.0)

    def test_ma1_matches_monte_carlo_mean(self):
        # MA(1) with weights (1, 1) has autocovariance (2, 1); the expected
        # ambiguity coefficient at (tau=1, nu=0.03) follows the Dirichlet
        # ridge formula.  10^4 replicates, vectorized directly from the
        # definition (no library transform involved).
        n, reps, tau, nu = 32, 10_000, 1, 0.03
        rng = np.random.default_rng(123)
        eps = rng.standard_normal((reps, n + 1))
        x = eps[:, 1:] + eps[:, :-1]
        prods = x[:, tau:] * x[:, : n - tau]
        t_idx = np.arange(tau, n)
        coeffs = prods @ np.exp(-2j * np.pi * nu * t_idx)
        mean = coeffs.mean()
        se_re = coeffs.real.std(ddof=1) / np.sqrt(reps)
        se_im = coeffs.imag.std(ddof=1) / np.sqrt(reps)
        expected = stationary_emaf_expectation([2.0, 1.0], n, 1.0, tau, nu)
        assert abs(mean.real - expected.real) < 3 * se_re
        assert abs(mean.imag - expected.imag) < 3 * se_im


class TestWhitenoiseAfCovariance:
    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("oracle", [whitenoise_af_covariance, whitenoise_af_covariance_limit])
    def test_rejects_sigma2_not_finite_and_positive(self, oracle, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            oracle(16, 1.0, sigma2, 0, 0, 0, 0)

    def test_distinct_frequency_indices_are_uncorrelated(self):
        assert whitenoise_af_covariance(64, 1.0, 1.0, 0, 1, 2, 3) == 0.0
        assert whitenoise_af_covariance_limit(64, 1.0, 1.0, 0, 1, 2, 3) == 0.0

    def test_origin_limit_is_half_n_sigma4(self):
        for n, sigma2 in ((16, 1.0), (64, 1.0), (64, 2.0)):
            value = whitenoise_af_covariance_limit(n, 1.0, sigma2, 0, 0, 0, 0)
            assert value == pytest.approx(n * sigma2**2 / 2)

    def test_exact_origin_approaches_limit(self):
        exact = whitenoise_af_covariance(64, 1.0, 1.0, 0, 0, 0, 0)
        assert exact.imag == pytest.approx(0.0, abs=1e-12)
        assert exact.real == pytest.approx(32.0, rel=0.03)

    def test_variance_is_real_nonnegative(self):
        value = whitenoise_af_covariance(48, 0.5, 2.0, 3, 5, 3, 5)
        assert value.imag == pytest.approx(0.0, abs=1e-10 * abs(value))
        assert value.real > 0

    def test_limit_converges_at_equal_lags(self):
        rels = []
        for n in (128, 256):
            exact = whitenoise_af_covariance(n, 1.0, 1.0, 2, 3, 2, 3)
            limit = whitenoise_af_covariance_limit(n, 1.0, 1.0, 2, 3, 2, 3)
            rels.append(abs(limit - exact) / abs(exact))
        assert rels[0] < 0.02
        assert 0.4 < rels[1] / rels[0] < 0.6  # halves when n doubles

    def test_matches_monte_carlo_covariance(self):
        # Empirical ambiguity coefficients of analytic white noise at
        # (tau, j) = (0, 3) and (2, 3) on the support-matched grid; 10^5
        # replicates.  sigma2 is the analytic spectral level 4 dt var.
        n, reps = 64, 100_000
        rng = np.random.default_rng(77)
        x = rng.standard_normal((reps, n))
        w = analytic_spectrum_weights(n)
        z = np.fft.ifft(w * np.fft.fft(x, axis=1), axis=1)
        nu = 3 / (n - 2)
        a1 = (z * np.conj(z)) @ np.exp(-2j * np.pi * nu * np.arange(n))
        a2 = (z[:, 2:] * np.conj(z[:, :-2])) @ np.exp(
            -2j * np.pi * nu * np.arange(2, n)
        )
        d1, d2 = a1 - a1.mean(), a2 - a2.mean()
        prods = d1 * np.conj(d2)
        cov = prods.mean()
        se_re = prods.real.std(ddof=1) / np.sqrt(reps)
        se_im = prods.imag.std(ddof=1) / np.sqrt(reps)
        oracle = whitenoise_af_covariance(n, 1.0, 4.0, 0, 3, 2, 3)
        assert abs(cov.real - oracle.real) < 3 * se_re
        assert abs(cov.imag - oracle.imag) < 3 * se_im


class TestReproducibility:
    def test_white_noise_bitwise_reproducible(self):
        a = gen_white_noise(128, seed=5, sigma=2.0, dt=0.5)
        b = gen_white_noise(128, seed=5, sigma=2.0, dt=0.5)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.dt == 0.5

    def test_tv_filter_bitwise_reproducible(self):
        p = chirp_filter_process(seed=3)
        np.testing.assert_array_equal(
            gen_tv_filter(p, 48).samples, gen_tv_filter(p, 48).samples
        )
