"""Tests for QQ extraction, risk reports, and the variance-reduction probe."""

import tracemalloc

import numpy as np
import pytest

from ambishrink.ambiguity import AmbiguityGrid, emaf, normalization, normalize, raw_moments
from ambishrink.covariance import HermitianCovariance, assemble, correct, invert_af
from ambishrink.diagnostics import (
    QQData,
    RiskReport,
    qq_normalized_af,
    risk_report,
    variance_reduction_probe,
)
from ambishrink.procgen import (
    AggregationProcess,
    TheoreticalCovariance,
    gen_aggregation,
    gen_white_noise,
    theoretical_covariance,
)
from ambishrink.series import analytic_signal, demean
from ambishrink.shrinkage import apply_threshold, fit, shrink, threshold_field


def ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def iid_normal_grid(n: int, vbar: float, seed: int) -> AmbiguityGrid:
    rng = np.random.default_rng(seed)
    shape = (2 * n - 1, 2 * n)
    entries = np.sqrt(vbar / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )
    return AmbiguityGrid(entries, dt=1.0, normalized=True)


def analytic_covariance_of(real_cov: np.ndarray) -> np.ndarray:
    """Covariance of the demeaned analytic signal driven by a real one."""
    n = real_cov.shape[0]
    centering = np.eye(n) - np.ones((n, n)) / n
    weights = np.zeros(n)
    weights[0] = 1.0
    weights[1 : (n + 1) // 2] = 2.0
    if n % 2 == 0:
        weights[n // 2] = 1.0
    op = np.fft.ifft(weights[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    t = op @ centering @ real_cov @ centering @ op.conj().T
    return (t + t.conj().T) / 2.0


def aggregation_pipeline(n: int, seed: int):
    x = gen_aggregation(n, seed=seed)
    z = analytic_signal(demean(x))
    m_raw = raw_moments(z)
    a_raw = emaf(m_raw)
    a_norm = normalize(a_raw, normalization(n, 1.0))
    params = fit(a_norm)
    return m_raw, a_raw, a_norm, params


class TestQQDataType:
    @pytest.mark.parametrize("sample", [[1.0, 0.0], [0.0, np.nan, -1.0]])
    def test_rejects_unsorted_samples(self, sample):
        with pytest.raises(ValueError, match="sorted"):
            QQData(np.array(sample), np.arange(len(sample), dtype=float))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equally long"):
            QQData(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))

class TestQQNormalizedAF:
    def test_matched_background_gives_unit_slope(self):
        a = iid_normal_grid(64, vbar=2.3, seed=21)
        for qq in qq_normalized_af(a, 2.3):
            slope = ls_slope(qq.theoretical_quantiles, qq.sample_quantiles)
            assert 0.95 <= slope <= 1.05

    def test_constant_grid_degenerates_to_flat_line(self):
        entries = np.full((7, 8), 0.4 - 0.9j)
        a = AmbiguityGrid(entries, dt=1.0, normalized=True)
        qq_re, qq_im = qq_normalized_af(a, 1.0)
        assert np.all(qq_re.sample_quantiles == qq_re.sample_quantiles[0])
        assert np.all(qq_im.sample_quantiles == qq_im.sample_quantiles[0])
        assert abs(ls_slope(qq_re.theoretical_quantiles, qq_re.sample_quantiles)) < 1e-12

    def test_aggregation_signal_shows_heavy_tails(self):
        _, _, a_norm, params = aggregation_pipeline(512, seed=0)
        for qq in qq_normalized_af(a_norm, params.vbar):
            upper = qq.sample_quantiles[-1] / qq.theoretical_quantiles[-1]
            lower = qq.sample_quantiles[0] / qq.theoretical_quantiles[0]
            assert max(upper, lower) > 1.3

    def test_permutation_invariant_off_origin(self):
        a = iid_normal_grid(8, vbar=1.0, seed=22)
        rng = np.random.default_rng(23)
        flat = a.entries.ravel().copy()
        origin = 7 * 16 + 8
        others = np.delete(np.arange(flat.size), origin)
        flat[others] = flat[rng.permutation(others)]
        shuffled = AmbiguityGrid(flat.reshape(a.entries.shape), dt=1.0, normalized=True)
        for before, after in zip(qq_normalized_af(a, 1.0), qq_normalized_af(shuffled, 1.0)):
            np.testing.assert_array_equal(before.sample_quantiles, after.sample_quantiles)
            np.testing.assert_array_equal(
                before.theoretical_quantiles, after.theoretical_quantiles
            )

    def test_peak_memory_in_grid_units(self):
        n = 256
        unit = (2 * n - 1) * 2 * n * 16  # one complex (2n-1, 2n) grid
        _, _, a_norm, params = aggregation_pipeline(n, seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            qq_normalized_af(a_norm, params.vbar)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # an off-origin complex copy, then a scaled part and its sorted copy, held 2.0 units;
        # one real part at a time, scaled and sorted in place, holds 0.5
        assert peak <= 0.75 * unit

    def test_rejects_unnormalized_grid(self):
        rng = np.random.default_rng(24)
        entries = rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8))
        with pytest.raises(ValueError, match="normalized"):
            qq_normalized_af(AmbiguityGrid(entries, dt=1.0), 1.0)

    def test_rejects_nonpositive_vbar(self):
        a = iid_normal_grid(4, vbar=1.0, seed=25)
        with pytest.raises(ValueError, match="vbar"):
            qq_normalized_af(a, 0.0)


class TestRiskReportType:
    @pytest.mark.parametrize("err", [np.array([[0.0, -0.5], [0.0, 0.0]]), np.full((2, 2), np.nan)])
    def test_rejects_negative_or_nan_error_entries(self, err):
        with pytest.raises(ValueError, match="nonnegative"):
            RiskReport(err, 1.0)

    def test_rejects_negative_or_nan_ratio(self):
        err = np.zeros((2, 2))
        with pytest.raises(ValueError, match="frobenius_ratio"):
            RiskReport(err, -1.0)
        with pytest.raises(ValueError, match="frobenius_ratio"):
            RiskReport(err, float("nan"))


class TestRiskReportOp:
    @staticmethod
    def psd(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
        return g @ g.conj().T / (2 * n)

    def test_perfect_estimate_scores_zero(self):
        t = self.psd(6, 30)
        report = risk_report(
            HermitianCovariance(t),
            HermitianCovariance(self.psd(6, 31)),
            TheoreticalCovariance(t),
        )
        np.testing.assert_array_equal(report.normalized_error, 0.0)
        assert report.frobenius_ratio == 0.0

    def test_perfect_raw_marks_infinite_ratio(self):
        t = self.psd(6, 32)
        report = risk_report(
            HermitianCovariance(self.psd(6, 33)),
            HermitianCovariance(t),
            TheoreticalCovariance(t),
        )
        assert report.frobenius_ratio == np.inf

    def test_zero_truth_entries_stay_finite(self):
        t = self.psd(4, 34)
        t[0, 3] = 0.0
        t[3, 0] = 0.0
        report = risk_report(
            HermitianCovariance(self.psd(4, 35)),
            HermitianCovariance(self.psd(4, 36)),
            TheoreticalCovariance(t),
        )
        assert np.all(np.isfinite(report.normalized_error))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            risk_report(
                HermitianCovariance(self.psd(4, 40)),
                HermitianCovariance(self.psd(4, 41)),
                TheoreticalCovariance(self.psd(5, 42)),
            )

    def test_shrinkage_beats_raw_outer_product_on_aggregation_signal(self):
        n = 512
        m_raw, a_raw, a_norm, params = aggregation_pipeline(n, seed=0)
        theta = threshold_field(params, a_norm)
        m_eb = invert_af(apply_threshold(a_raw, theta))
        est = correct(assemble(m_eb), "clip")
        raw = assemble(m_raw)
        truth_real = theoretical_covariance(AggregationProcess(seed=0), n).entries
        truth = TheoreticalCovariance(analytic_covariance_of(truth_real))
        report = risk_report(est, raw, truth)
        assert report.frobenius_ratio < 0.5


class TestVarianceReductionProbe:
    def test_thresholding_cuts_moment_variance(self):
        # One probe run feeds three checks: ordering, agreement of the raw
        # branch with a direct recomputation on the same draws, and the
        # closed-form white-noise variance from the covariance algebra of
        # the demean + analytic-transform map.
        n, reps, seed = 64, 500, 0
        var_eb, var_raw = variance_reduction_probe(n, reps, seed)
        assert 0.0 <= var_eb <= var_raw

        tau, t_probe = 5, n // 2
        vals = np.empty(reps, dtype=complex)
        for rep in range(reps):
            z = analytic_signal(demean(gen_white_noise(n, seed=seed + rep)))
            vals[rep] = raw_moments(z).entries[tau + n - 1, t_probe]
        assert var_raw == pytest.approx(float(np.var(vals)), rel=1e-12)

        d = np.eye(n) - np.ones((n, n)) / n
        weights = np.zeros(n)
        weights[0] = 1.0
        weights[1 : n // 2] = 2.0
        weights[n // 2] = 1.0
        op = np.fft.ifft(weights[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
        tmat = op @ d
        k = tmat @ tmat.conj().T
        p = tmat @ tmat.T
        s = t_probe - tau
        var_exact = k[t_probe, t_probe].real * k[s, s].real + abs(p[t_probe, s]) ** 2
        deviations = np.abs(vals - vals.mean()) ** 2
        se = float(np.std(deviations, ddof=1) / np.sqrt(reps))
        assert abs(var_raw - var_exact) < 3 * se

    @pytest.mark.parametrize("n", [8, 9])
    def test_short_records_probe_on_the_lag_support(self, n):
        # at time n // 2 = 4 < 5 lag 5 has no support, and both variances read 0
        reps, seed = 100, 0
        _, var_raw = variance_reduction_probe(n, reps, seed)
        vals = [
            raw_moments(analytic_signal(demean(gen_white_noise(n, seed=seed + rep)))).at(5, 5)
            for rep in range(reps)
        ]
        assert var_raw > 0
        assert var_raw == float(np.var(vals))

    @pytest.mark.parametrize("seed", [0, 1000])
    @pytest.mark.parametrize(
        "n, reps",
        # blocks of 682 (n=8), 606 (9), 15 (64) and 3 (128) records; 137 is 9 blocks of 15 and 2
        [(8, 100), (9, 100), (10, 100), (16, 100), (33, 100), (64, 100), (64, 137), (128, 100)],
        ids=["8", "9", "10", "16", "33", "64", "64x137", "128"],
    )
    def test_equals_the_shrink_loop(self, n, reps, seed):
        # the probe as one full shrink per replicate; its tail runs on lag row 5 alone
        tau, t = 5, max(n // 2, 5)
        raw_vals = np.empty(reps, dtype=complex)
        eb_vals = np.empty(reps, dtype=complex)
        live_rows = 0
        for rep in range(reps):
            est = shrink(gen_white_noise(n, seed=seed + rep))
            raw_vals[rep] = est.m_raw.entries[tau + n - 1, t]
            eb_vals[rep] = est.m_eb.entries[tau + n - 1, t]
            live_rows += bool(np.any(est.m_eb.entries[tau + n - 1]))
        # both a row with a kept cell and a row with none are probed
        assert 0 < live_rows < reps
        expected = (float(np.var(eb_vals)), float(np.var(raw_vals)))
        assert variance_reduction_probe(n, reps, seed) == expected

    @pytest.mark.parametrize("n", [64, 256])
    def test_peak_memory_of_a_block(self, n):
        variance_reduction_probe(n, 100, 0)  # builds the per-length caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            variance_reduction_probe(n, 100, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        if n == 256:
            # a block of one record: the probe record by record peaked at 3.21 grids, with the
            # last record's moments and EMAF rows still live during the next one's head
            assert peak <= 3.2 * (2 * n - 1) * 2 * n * 16
        else:
            # a block of 15 records, whose EMAF rows fill at most 1 MiB: with its raw moments
            # (2 MiB at most), its normalized rows and one FFT work array, 5 MiB
            assert peak <= 5 * 2**20

    def test_rejects_too_few_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            variance_reduction_probe(64, 99, 0)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="length"):
            variance_reduction_probe(4, 100, 0)
