"""Tests for bilinear time-frequency surfaces and analysis windows."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambishrink.ambiguity import AmbiguityGrid, LagTimeMoments, lag_support_mask, raw_moments
from ambishrink.series import AnalyticSeries, analytic_signal, demean
from ambishrink.procgen import gen_aggregation, gen_white_noise
from ambishrink.shrinkage import shrink
from ambishrink.tfr import (
    TFRGrid,
    _interpolated_moment_rows,
    bilinear,
    dual_frequency,
    spectrogram,
    window_bank,
)


def random_moments(n: int, seed: int, dt: float = 1.0) -> LagTimeMoments:
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((2 * n - 1, n)) + 1j * rng.standard_normal((2 * n - 1, n))
    entries[~lag_support_mask(n)] = 0.0
    return LagTimeMoments(entries, dt=dt)


def hermitian_moments(n: int, seed: int, dt: float = 1.0) -> LagTimeMoments:
    """Exact moment grid of a genuine covariance: m[tau, t] = K[t, t - tau]."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 3 * n)) + 1j * rng.standard_normal((n, 3 * n))
    cov = g @ g.conj().T / (3 * n)
    entries = np.zeros((2 * n - 1, n), dtype=complex)
    for r in range(2 * n - 1):
        tau = r - (n - 1)
        for t in range(max(0, tau), n + min(0, tau)):
            entries[r, t] = cov[t, t - tau]
    return LagTimeMoments(entries, dt=dt)


def interp_moment(m: LagTimeMoments, tau: int, u: float) -> complex:
    """Linear interpolation of row tau at fractional time index u, zero off-record."""
    row = m.entries[tau + m.n - 1]
    lo = int(np.floor(u))
    frac = u - lo
    left = row[lo] if 0 <= lo < m.n else 0.0
    right = row[lo + 1] if 0 <= lo + 1 < m.n else 0.0
    return (1.0 - frac) * left + frac * right


def per_cell_rows(m: LagTimeMoments, alpha: float) -> np.ndarray:
    """Re-centred rows from one index and one fraction per cell, zero off the record."""
    n = m.n
    taus = np.arange(-(n - 1), n, dtype=float)
    base = np.arange(n)[None, :] + (0.5 - alpha) * taus[:, None]
    lo = np.floor(base).astype(int)
    frac = base - lo
    row_idx = np.broadcast_to(np.arange(2 * n - 1)[:, None], base.shape)

    def value_at(idx: np.ndarray) -> np.ndarray:
        inside = (idx >= 0) & (idx < n)
        out = np.zeros(base.shape, dtype=complex)
        out[inside] = m.entries[row_idx[inside], idx[inside]]
        return out

    return (1.0 - frac) * value_at(lo) + frac * value_at(lo + 1)


def bilinear_reference(m: LagTimeMoments, alpha: float, kernel=None) -> np.ndarray:
    """Triple-loop evaluation of the bilinear surface; ``kernel`` is a time profile."""
    n, dt = m.n, m.dt
    centre = 0 if kernel is None else (len(kernel) - 1) // 2
    out = np.zeros((n, 2 * n), dtype=complex)
    taus = range(-(n - 1), n)
    for t in range(n):
        for c in range(2 * n):
            f = (c - n) / (2.0 * n * dt)
            total = 0.0 + 0.0j
            for tau in taus:
                phase = np.exp(-2j * np.pi * tau * f * dt)
                if kernel is None:
                    total += dt * interp_moment(m, tau, t + (0.5 - alpha) * tau) * phase
                else:
                    # base times k off the record hold no moment row
                    for k in range(n):
                        j = k - t + centre
                        if 0 <= j < len(kernel):
                            w = kernel[j]
                            total += dt * w * interp_moment(m, tau, k + (0.5 - alpha) * tau) * phase
            out[t, c] = total
    return out


class TestTFRGridType:
    def test_rejects_non_doubled_shape(self):
        with pytest.raises(ValueError, match="shape"):
            TFRGrid(np.zeros((4, 6)))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            TFRGrid(np.zeros((4, 8)), dt=0.0)

    def test_rejects_nonfinite_values(self):
        values = np.zeros((4, 8))
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TFRGrid(values)

    def test_axes(self):
        g = TFRGrid(np.zeros((4, 8)), dt=0.5)
        np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5])
        np.testing.assert_allclose(g.frequencies(), (np.arange(-4, 4)) / 4.0)


class TestBilinear:
    def test_stationary_moments_collapse_to_line_spectrum(self):
        # Stationary autocovariance supported on |tau| <= 2; away from the
        # record edges every contributing lag is observed, so the surface
        # loses its time dependence there.
        n, width = 8, 2
        rng = np.random.default_rng(0)
        c = rng.standard_normal(2 * width + 1) + 1j * rng.standard_normal(2 * width + 1)
        entries = np.zeros((2 * n - 1, n), dtype=complex)
        for tau in range(-width, width + 1):
            for t in range(max(0, tau), n + min(0, tau)):
                entries[tau + n - 1, t] = c[tau + width]
        m = LagTimeMoments(entries, dt=1.0)
        surface = bilinear(m, alpha=0.5)
        f = surface.frequencies()
        taus = np.arange(-width, width + 1)
        expected = np.sum(c[:, None] * np.exp(-2j * np.pi * taus[:, None] * f[None, :]), axis=0)
        for t in range(width, n - width):
            np.testing.assert_allclose(surface.values[t], expected, atol=1e-12)

    def test_white_noise_moments_give_flat_surface(self):
        n, sigma2 = 6, 2.5
        entries = np.zeros((2 * n - 1, n), dtype=complex)
        entries[n - 1, :] = sigma2
        m = LagTimeMoments(entries, dt=0.25)
        for alpha in (0.5, 0.0):
            surface = bilinear(m, alpha=alpha)
            np.testing.assert_allclose(surface.values, sigma2 * 0.25, atol=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, -0.3, 0.0, 0.3])
    def test_matches_triple_loop_with_interpolation(self, alpha):
        m = random_moments(4, seed=1, dt=0.5)
        surface = bilinear(m, alpha=alpha)
        expected = bilinear_reference(m, alpha=alpha)
        np.testing.assert_allclose(surface.values, expected, atol=1e-10)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        n=st.sampled_from([2, 3, 7, 16, 33]),
        seed=st.integers(0, 2**16),
        alpha=st.floats(-0.5, 0.5) | st.integers(-128, 128).map(lambda k: k / 256),
    )
    def test_recentred_rows_match_the_per_cell_formula(self, n, seed, alpha):
        # one shift per row rounds once; k + shift per cell may round again in its last bit
        m = random_moments(n, seed)
        got = _interpolated_moment_rows(m, alpha)
        expected = per_cell_rows(m, alpha)
        if (256 * alpha).is_integer():
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        else:
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))

    def test_wigner_peak_memory_in_grid_units(self):
        n = 256
        unit = (2 * n - 1) * n * 16  # one complex (2n-1, n) moment grid
        m = random_moments(n, seed=13)
        bilinear(m, alpha=0.0)  # warm-up: FFT plans and caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bilinear(m, alpha=0.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the re-centred rows add one unit to the three the lag transform holds at alpha = 1/2
        assert peak <= 4.25 * unit

    def test_rihaczek_matches_triple_loop(self):
        m = random_moments(4, seed=2)
        surface = bilinear(m, alpha=0.5)
        expected = bilinear_reference(m, alpha=0.5)
        np.testing.assert_allclose(surface.values, expected, atol=1e-10)

    def test_rihaczek_skips_interpolation_bitwise(self):
        # -0.0 off the lag support, which the blend below would turn into
        # +0.0, shows whether the surface blends at all
        shrunk = shrink(gen_aggregation(48, seed=2)).m_eb
        n = shrunk.n
        entries = shrunk.entries.copy()
        entries[~lag_support_mask(n)] = complex(-0.0, -0.0)
        m = LagTimeMoments(entries, dt=shrunk.dt)
        # the blend at base time t: frac = 0, left = m[tau, t], right = m[tau, t + 1]
        right = np.zeros_like(m.entries)
        right[:, :-1] = m.entries[:, 1:]
        frac = np.zeros(m.entries.shape)
        rows = (1.0 - frac) * m.entries + frac * right
        padded = np.zeros((2 * n, n), dtype=complex)
        padded[:n] = rows[n - 1 :]
        padded[n + 1 :] = rows[: n - 1]
        expected = m.dt * np.fft.fftshift(np.fft.fft(padded, axis=0), axes=0).T
        got = np.ascontiguousarray(bilinear(m, alpha=0.5).values)
        expected = np.ascontiguousarray(expected)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_one_tap_profile_equals_default(self):
        m = random_moments(5, seed=3, dt=0.5)
        np.testing.assert_allclose(
            bilinear(m, alpha=0.5, kernel=np.array([1.0])).values,
            bilinear(m, alpha=0.5).values,
            atol=1e-12,
        )

    def test_smoothing_profile_matches_triple_loop(self):
        m = random_moments(4, seed=4)
        gauss = np.exp(-0.5 * (np.arange(-3, 4) / 1.5) ** 2)
        surface = bilinear(m, alpha=0.0, kernel=gauss)
        expected = bilinear_reference(m, alpha=0.0, kernel=gauss)
        np.testing.assert_allclose(surface.values, expected, atol=1e-10)

    # p[c] weights the sample itself, p[c + 1] the next one: a mirrored profile would fail
    @pytest.mark.parametrize(
        "profile", [[0.1, 0.5, 0.2, 0.7], [0.3, 1.0, 0.0, 0.0, 0.2], [0.0, 2.0]], ids=["even", "odd", "two"]
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_orientation_of_asymmetric_profiles_matches_triple_loop(self, profile, alpha):
        m = random_moments(5, seed=10, dt=0.37)
        surface = bilinear(m, alpha=alpha, kernel=np.array(profile))
        expected = bilinear_reference(m, alpha=alpha, kernel=profile)
        np.testing.assert_allclose(surface.values, expected, atol=1e-10)

    @pytest.mark.parametrize("length", [15, 16, 40])
    def test_profile_longer_than_the_lag_axis_equals_its_trimmed_centre(self, length):
        n = 4
        m = random_moments(n, seed=11)
        profile = np.random.default_rng(length).uniform(size=length)
        centre = (length - 1) // 2
        trimmed = profile[centre - (n - 1) : centre + n]  # 2n - 1 taps, centred on the same one
        long = bilinear(m, alpha=0.0, kernel=profile).values
        np.testing.assert_array_equal(long, bilinear(m, alpha=0.0, kernel=trimmed).values)
        np.testing.assert_allclose(long, bilinear_reference(m, 0.0, profile), atol=1e-10)

    def test_kernel_surface_past_where_dt_squared_overflows(self):
        # the profile's weights are dimensionless, so the surface scales as dt
        profile = np.exp(-0.5 * (np.arange(-4, 5) / 1.5) ** 2)
        unit = bilinear(random_moments(6, seed=12), alpha=0.0, kernel=profile)
        huge = bilinear(random_moments(6, seed=12, dt=1e160), alpha=0.0, kernel=profile)
        np.testing.assert_array_equal(huge.values, 1e160 * unit.values)

    def test_wigner_of_exact_moments_is_real(self):
        m = hermitian_moments(8, seed=5)
        surface = bilinear(m, alpha=0.0)
        assert np.max(np.abs(surface.values.imag)) < 1e-12

    def test_frequency_marginal_recovers_zero_lag_moment(self):
        m = hermitian_moments(8, seed=6, dt=0.5)
        surface = bilinear(m, alpha=0.0)
        marginal = surface.values.sum(axis=1) / (2 * m.n * m.dt)
        np.testing.assert_allclose(marginal, m.entries[m.n - 1], atol=1e-8)

    def test_deterministic(self):
        m = random_moments(6, seed=7)
        a = bilinear(m, alpha=0.0)
        b = bilinear(m, alpha=0.0)
        assert np.array_equal(a.values, b.values)

    def test_rejects_alpha_out_of_range(self):
        m = random_moments(4, seed=8)
        with pytest.raises(ValueError, match="alpha"):
            bilinear(m, alpha=0.75)

    @pytest.mark.parametrize(
        "kernel",
        [np.ones((2, 3)), np.array([]), np.array([0.2, np.nan]), np.array([np.inf]), lambda tau, offsets: offsets],
        ids=["2d", "empty", "nan", "inf", "callable"],
    )
    def test_rejects_a_kernel_that_is_not_a_finite_profile(self, kernel):
        m = random_moments(4, seed=9)
        with pytest.raises(ValueError, match="kernel"):
            bilinear(m, alpha=0.5, kernel=kernel)


class TestSpectrogram:
    def test_tone_energy_lands_in_its_own_column(self):
        # An on-grid tone concentrates the windowed spectrum at its own
        # frequency; on the doubled grid the half-bin columns pick up
        # Dirichlet sidelobes, so the single-column share tops out well
        # below one even in this best case.
        n, k0 = 32, 5
        t = np.arange(n)
        z = AnalyticSeries(np.exp(2j * np.pi * k0 * t / n), dt=1.0)
        surface = spectrogram(z, np.ones(n))
        energy = surface.values.real.sum(axis=0)
        j0 = n + 2 * k0
        assert np.argmax(energy) == j0
        assert np.all(np.argmax(surface.values.real, axis=1) == j0)
        assert energy[j0] / energy.sum() > 0.35
        runner_up = np.sort(energy)[-2]
        assert energy[j0] > 1.7 * runner_up

    def test_parseval_per_time_slice(self):
        n = 16
        z = analytic_signal(demean(gen_white_noise(n, seed=11)))
        h = window_bank("hann", 0, 7)
        surface = spectrogram(z, h)
        half = (h.size - 1) // 2
        for t in range(n):
            lo, hi = max(0, t - half), min(n, t - half + h.size)
            truncated = h[lo - (t - half) : hi - (t - half)]
            direct = np.sum(truncated**2 * np.abs(z.samples[lo:hi]) ** 2)
            slice_mass = surface.values[t].real.sum() / (2 * n)
            assert slice_mass == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8])
    def test_matches_double_loop(self, length):
        n = 8
        rng = np.random.default_rng(12)
        z = AnalyticSeries(rng.standard_normal(n) + 1j * rng.standard_normal(n), dt=0.5)
        h = rng.uniform(0.1, 1.0, size=length)  # asymmetric, so a mirrored window would fail
        surface = spectrogram(z, h)
        hn = h / np.sqrt(np.sum(h * h))
        half = (h.size - 1) // 2
        expected = np.zeros((n, 2 * n))
        for t in range(n):
            for c in range(2 * n):
                j = c - n
                total = 0.0 + 0.0j
                for s in range(n):
                    offset = s - (t - half)
                    if 0 <= offset < h.size:
                        total += hn[offset] * z.samples[s] * np.exp(-2j * np.pi * j * s / (2 * n))
                expected[t, c] = 0.5 * abs(total) ** 2
        np.testing.assert_allclose(surface.values.real, expected, atol=1e-10)

    def test_values_real_and_nonnegative(self):
        z = analytic_signal(demean(gen_white_noise(24, seed=13)))
        surface = spectrogram(z, window_bank("gaussian", 0, 9))
        assert np.all(surface.values.imag == 0.0)
        assert np.all(surface.values.real >= 0.0)

    def test_rejects_empty_window(self):
        z = analytic_signal(demean(gen_white_noise(8, seed=14)))
        with pytest.raises(ValueError, match="empty"):
            spectrogram(z, np.array([]))

    def test_rejects_window_longer_than_record(self):
        z = analytic_signal(demean(gen_white_noise(8, seed=15)))
        with pytest.raises(ValueError, match="length"):
            spectrogram(z, np.ones(9))

    def test_rejects_zero_window(self):
        z = analytic_signal(demean(gen_white_noise(8, seed=16)))
        with pytest.raises(ValueError, match="energy"):
            spectrogram(z, np.zeros(4))


class TestDualFrequency:
    def test_zero_frequency_row_transforms_lag_marginal(self):
        n = 6
        rng = np.random.default_rng(17)
        entries = rng.standard_normal((2 * n - 1, 2 * n)) + 1j * rng.standard_normal(
            (2 * n - 1, 2 * n)
        )
        a = AmbiguityGrid(entries, dt=0.5)
        grid = dual_frequency(a)
        assert grid.shape == (2 * n, 2 * n)
        taus = np.arange(-(n - 1), n)
        js = np.arange(-n, n)
        marginal = a.entries[:, n]
        expected = a.dt * np.sum(
            marginal[:, None] * np.exp(-2j * np.pi * js[None, :] * taus[:, None] / (2 * n)),
            axis=0,
        )
        np.testing.assert_allclose(grid[n], expected, atol=1e-12)

    def test_zero_grid_maps_to_zero(self):
        a = AmbiguityGrid(np.zeros((7, 8), dtype=complex), dt=1.0)
        np.testing.assert_array_equal(dual_frequency(a), 0.0)

    def test_matches_direct_summation(self):
        n = 4
        z = analytic_signal(demean(gen_white_noise(n, seed=18)))
        from ambishrink.ambiguity import emaf

        a = emaf(raw_moments(z))
        grid = dual_frequency(a)
        taus = np.arange(-(n - 1), n)
        for nu_idx in range(2 * n):
            for c in range(2 * n):
                j = c - n
                expected = a.dt * np.sum(
                    a.entries[:, nu_idx] * np.exp(-2j * np.pi * j * taus / (2 * n))
                )
                assert grid[nu_idx, c] == pytest.approx(expected, abs=1e-12)


class TestWindowBank:
    def test_hermite_order_zero_is_sampled_gaussian(self):
        bank = window_bank("hermite", 0, 64)
        assert bank.shape == (1, 64)
        x = np.linspace(-5.0, 5.0, 64)
        gauss = np.exp(-0.5 * x * x)
        gauss /= np.sqrt(np.sum(gauss**2))
        np.testing.assert_allclose(bank[0], gauss, atol=1e-10)
        assert np.sum(bank[0] ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_kind_matches_order_zero_hermite(self):
        np.testing.assert_array_equal(
            window_bank("gaussian", 3, 32), window_bank("hermite", 0, 32)[0]
        )

    def test_hermite_bank_is_orthonormal(self):
        bank = window_bank("hermite", 1, 64)
        assert abs(np.dot(bank[0], bank[1])) < 1e-6
        wide = window_bank("hermite", 4, 128)
        gram = wide @ wide.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-6)

    def test_every_row_has_unit_energy(self):
        bank = window_bank("hermite", 5, 33)
        np.testing.assert_allclose(np.sum(bank**2, axis=1), 1.0, atol=1e-12)

    def test_hann_endpoints_vanish(self):
        h = window_bank("hann", 0, 9)
        assert h[0] == 0.0
        assert h[-1] == 0.0
        assert np.sum(h**2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unsupported_kind(self):
        with pytest.raises(ValueError, match="kind"):
            window_bank("kaiser", 0, 16)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError, match="length"):
            window_bank("hann", 0, 1)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="order"):
            window_bank("hermite", -1, 16)

    def test_rejects_zero_energy_window_without_warnings(self):
        # both samples of a 2-tap Hann window are zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="hann window of length 2 has zero energy"):
                window_bank("hann", 0, 2)

    @pytest.mark.parametrize("order", [200, 400])
    def test_rejects_overflowing_bank_without_warnings(self, order):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                window_bank("hermite", order, 5)
