"""Acceptance benchmarks for the full estimation pipeline.

Each test is one numbered criterion with its tolerance pinned in the
assertions; the pytest -v line for the test doubles as the pass/fail
record.  Several criteria share the ten aggregation analysis runs, which
a module fixture executes once and caches.
"""

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import i0e
from scipy.stats import kstest

from ambishrink.ambiguity import (
    AmbiguityGrid,
    LagTimeMoments,
    emaf,
    lag_support_mask,
    normalization,
    normalize,
    raw_moments,
)
from ambishrink.cli import PipelineConfig, run_analyze
from ambishrink.covariance import HermitianCovariance, assemble, correct, invert_af
from ambishrink.diagnostics import risk_report, variance_reduction_probe
from ambishrink.procgen import (
    AggregationProcess,
    TheoreticalCovariance,
    gen_aggregation,
    gen_white_noise,
    stationary_emaf_expectation,
    theoretical_covariance,
    whitenoise_af_covariance,
)
from ambishrink.series import analytic_signal, analytic_spectrum_weights, demean
from ambishrink.shrinkage import (
    FitConvergenceError,
    ShrinkageParams,
    ThresholdField,
    apply_threshold,
    equivalent_kernel,
    fit,
    posterior_rho,
    threshold_field,
)
from ambishrink.textio import read_matrix


def read_summary(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        values[key] = value
    return values


def whitenoise_pipeline(n: int, seed: int):
    z = analytic_signal(demean(gen_white_noise(n, seed=seed)))
    a = emaf(raw_moments(z))
    return a, normalize(a, normalization(n, a.dt))


def fit_forgiving(a: AmbiguityGrid) -> ShrinkageParams:
    try:
        return fit(a)
    except FitConvergenceError as err:
        return err.best


def analytic_covariance_of(real_cov: np.ndarray) -> np.ndarray:
    n = real_cov.shape[0]
    centering = np.eye(n) - np.ones((n, n)) / n
    op = np.fft.ifft(
        analytic_spectrum_weights(n)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0
    )
    t = op @ centering @ real_cov @ centering @ op.conj().T
    return (t + t.conj().T) / 2.0


def exact_posterior_median(vbar: float, rho: float, sigma2: float, qhat: float) -> float:
    """Median of the point-mass + Rice posterior by adaptive quadrature."""
    lam = sigma2 / (sigma2 + vbar)
    rho_post = posterior_rho(ShrinkageParams(vbar, rho, sigma2), qhat)
    level = 1.0 - 1.0 / (2.0 * rho_post)
    if level <= 0:
        return 0.0
    nu = lam * qhat
    s2 = lam * vbar / 2.0

    def rice_pdf(x):
        z = x * nu / s2
        return x / s2 * np.exp(-(x * x + nu * nu) / (2 * s2) + z) * i0e(z)

    upper = nu + 12 * np.sqrt(s2)
    norm, _ = quad(rice_pdf, 0, upper, limit=200)

    def cdf_gap(m):
        value, _ = quad(rice_pdf, 0, m, limit=200)
        return value / norm - level

    return brentq(cdf_gap, 1e-12, upper, xtol=1e-13)


@pytest.fixture(scope="module")
def aggregation_runs():
    """Ten full analyze runs on the aggregation benchmark, artifacts read back."""
    rhos, runtimes, covariances, reported_mineigs = [], [], [], []
    for seed in range(10):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = PipelineConfig(input="aggregation512", outdir=tmp, seed=seed)
            start = time.monotonic()
            code = run_analyze(cfg)
            runtimes.append(time.monotonic() - start)
            assert code == 0, f"analyze failed for seed {seed}"
            summary = read_summary(Path(tmp) / "summary.txt")
            rhos.append(float(summary["rho"]))
            cov, trailing = read_matrix(Path(tmp) / "cov_eb.mat")
            covariances.append(cov)
            reported_mineigs.append(trailing)
    return rhos, runtimes, covariances


def test_criterion_01_aggregation_rho_is_sparse(aggregation_runs):
    rhos, runtimes, _ = aggregation_runs
    small = sum(1 for r in rhos if r < 1e-2)
    median = float(np.median(rhos))
    print(
        f"criterion 1: rho<1e-2 in {small}/10 seeds, median rho={median:.3e}, "
        f"max runtime {max(runtimes):.1f}s"
    )
    assert small >= 9
    assert median < 1e-3
    assert max(runtimes) < 60.0


def test_criterion_02_risk_dominance_over_raw():
    n, reps = 512, 20
    truth_real = theoretical_covariance(AggregationProcess(seed=0), n).entries
    truth = TheoreticalCovariance(analytic_covariance_of(truth_real))
    field = normalization(n, 1.0)
    ratios = []
    for rep in range(reps):
        z = analytic_signal(demean(gen_aggregation(n, seed=rep)))
        m_raw = raw_moments(z)
        a_raw = emaf(m_raw)
        params = fit_forgiving(normalize(a_raw, field))
        theta = threshold_field(params, normalize(a_raw, field))
        m_eb = invert_af(apply_threshold(a_raw, theta))
        est = correct(assemble(m_eb), "clip")
        raw = assemble(m_raw)
        ratios.append(risk_report(est, raw, truth).frobenius_ratio)
    mean_ratio = float(np.mean(ratios))
    print(f"criterion 2: mean Frobenius ratio over {reps} replicates = {mean_ratio:.4f}")
    assert mean_ratio < 0.5


def test_criterion_03_white_noise_null_calibration():
    n = 128
    passes = 0
    for seed in range(10):
        _, a_norm = whitenoise_pipeline(n, seed)
        params = fit_forgiving(a_norm)
        flat = np.abs(a_norm.entries.ravel()) ** 2
        offs = np.delete(flat, (n - 1) * 2 * n + n)
        cells = np.random.default_rng(1000 + seed).choice(offs.size, size=50, replace=False)
        result = kstest(offs[cells], "expon", args=(0, params.vbar))
        passes += result.pvalue > 0.01
    print(f"criterion 3: KS calibration passed in {passes}/10 seeds")
    assert passes >= 8


def test_criterion_04_white_noise_af_covariance_oracle():
    n, dt, reps = 64, 1.0, 100_000
    rng = np.random.default_rng(77)
    x = rng.standard_normal((reps, n))
    z = np.fft.ifft(analytic_spectrum_weights(n) * np.fft.fft(x, axis=1), axis=1)
    sigma2 = 4.0

    def af(tau, nu):
        times = np.arange(max(0, tau), n + min(0, tau))
        if tau >= 0:
            prods = z[:, tau:] * np.conj(z[:, : n - tau])
        else:
            prods = z[:, : n + tau] * np.conj(z[:, -tau:])
        return prods @ np.exp(-2j * np.pi * nu * times)

    pairs = [
        (0, 3, 0, 3),
        (2, 3, 0, 3),
        (1, 5, 1, 5),
        (-2, 7, -2, 7),
        (3, 0, 1, 0),
        (4, 10, 2, 10),
        (-1, 8, -3, 8),
        (0, 3, 0, 4),
        (2, 5, 2, 6),
        (1, 2, 3, 9),
    ]
    worst = 0.0
    for tau1, j1, tau2, j2 in pairs:
        span = n - max(abs(tau1), abs(tau2))
        a1 = af(tau1, j1 / (dt * span))
        a2 = af(tau2, j2 / (dt * span))
        prods = (a1 - a1.mean()) * np.conj(a2 - a2.mean())
        mc = prods.mean()
        exact = whitenoise_af_covariance(n, dt, sigma2, tau1, j1, tau2, j2)
        # identically-zero components make the standard error collapse, so a
        # tiny absolute slack keeps the 3-sigma rule meaningful there
        slack = 1e-8 * (1.0 + abs(exact))
        for diff, se in (
            (mc.real - exact.real, prods.real.std(ddof=1) / np.sqrt(reps)),
            (mc.imag - exact.imag, prods.imag.std(ddof=1) / np.sqrt(reps)),
        ):
            assert abs(diff) <= 3 * se + slack, (tau1, j1, tau2, j2, diff, se)
            if se > slack:
                worst = max(worst, abs(diff) / se)
    print(f"criterion 4: all 10 covariance pairs within 3 SE (worst |z|={worst:.2f})")


def test_criterion_05_stationary_emaf_expectation():
    reps, n, b = 40_000, 32, 0.6
    rng = np.random.default_rng(55)
    eps = rng.standard_normal((reps, n + 1))
    x = eps[:, 1:] + b * eps[:, :-1]
    m_tilde = np.array([1.0 + b * b, b])
    points = [
        (0, 0),
        (0, 5),
        (1, 3),
        (1, -7),
        (-1, 4),
        (2, 2),
        (-2, -3),
        (1, 16),
        (0, -12),
        (-1, -1),
    ]
    worst = 0.0
    for tau, k in points:
        times = np.arange(max(0, tau), n + min(0, tau))
        if tau >= 0:
            prods = x[:, tau:] * x[:, : n - tau]
        else:
            prods = x[:, : n + tau] * x[:, -tau:]
        vals = prods @ np.exp(-1j * np.pi * k * times / n)
        exact = stationary_emaf_expectation(m_tilde, n, 1.0, tau, k / (2 * n))
        mc = vals.mean()
        for diff, se in (
            (mc.real - exact.real, vals.real.std(ddof=1) / np.sqrt(reps)),
            (mc.imag - exact.imag, vals.imag.std(ddof=1) / np.sqrt(reps)),
        ):
            assert abs(diff) <= 3 * se + 1e-12, (tau, k, diff, se)
            if se > 1e-12:
                worst = max(worst, abs(diff) / se)
    print(f"criterion 5: all 10 expectation points within 3 SE (worst |z|={worst:.2f})")


def test_criterion_06_posterior_median_accuracy():
    # 20 combinations: for each of 10 lambda values one strongly and one
    # weakly separated magnitude.  rho is chosen so every coefficient is
    # kept (the medians being compared are nonzero): flat 0.3 in the strong
    # regime, and solved for posterior mass 0.9 in the weak one.
    vbar = 1.0
    n = 4
    checked = 0
    for lam in np.linspace(0.10, 0.99, 10):
        sigma2 = lam / (1.0 - lam) * vbar
        for snr, band in ((6.0, 0.02), (2.8, 0.10)):
            q = snr / np.sqrt(2.0 * lam)
            if snr > 3.0:
                rho = 0.3
            else:
                odds = 9.0 / ((1.0 - lam) * np.exp(snr**2 / 2.0))
                rho = odds / (1.0 + odds)
            mags = np.full((2 * n - 1) * 2 * n, 1e-3)
            mags[5] = q
            grid = AmbiguityGrid(
                mags.reshape(2 * n - 1, 2 * n).astype(complex), dt=1.0, normalized=True
            )
            field = threshold_field(ShrinkageParams(vbar, rho, sigma2), grid)
            approx = field.theta[0, 5] * q
            exact = exact_posterior_median(vbar, rho, sigma2, q)
            assert exact > 0, (lam, snr)
            rel = abs(approx - exact) / exact
            assert rel < band, (lam, snr, rel)
            checked += 1
    print(f"criterion 6: {checked} median comparisons inside their 2%/10% bands")
    assert checked == 20


def test_criterion_07_psd_validity(aggregation_runs):
    _, _, covariances = aggregation_runs
    for cov in covariances:
        eigs = np.linalg.eigvalsh(cov)
        trace = float(np.real(np.trace(cov)))
        assert eigs[0] >= -1e-8 * trace

    rng = np.random.default_rng(7)
    for _ in range(100):
        g = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        h = (g + g.conj().T) / 2.0
        once = correct(HermitianCovariance(h), "clip")
        twice = correct(once, "clip")
        scale = max(float(np.max(np.abs(once.entries))), 1.0)
        np.testing.assert_allclose(
            twice.entries, once.entries, atol=1e-10 * scale, rtol=0.0
        )
    print("criterion 7: 10 emitted covariances PSD within tolerance; clip idempotent on 100 matrices")


def test_criterion_08_round_trip_exactness():
    n = 16
    mask = lag_support_mask(n)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        entries = rng.standard_normal((2 * n - 1, n)) + 1j * rng.standard_normal(
            (2 * n - 1, n)
        )
        entries[~mask] = 0.0
        m = LagTimeMoments(entries, dt=0.5)
        a = emaf(m)
        m_back = invert_af(a)
        assert np.linalg.norm(m_back.entries - m.entries) <= 1e-10 * np.linalg.norm(
            m.entries
        )
        a_back = emaf(m_back)
        assert np.linalg.norm(a_back.entries - a.entries) <= 1e-10 * np.linalg.norm(
            a.entries
        )
    print("criterion 8: both round trips within 1e-10 relative on 100 grids")


def test_criterion_09_variance_reduction():
    n, reps, seed = 128, 500, 0
    var_eb, var_raw = variance_reduction_probe(n, reps, seed)
    ratio = var_eb / var_raw
    assert ratio < 0.05

    tau, t_probe = 5, n // 2
    vals = np.empty(reps, dtype=complex)
    for rep in range(reps):
        z = analytic_signal(demean(gen_white_noise(n, seed=seed + rep)))
        vals[rep] = raw_moments(z).entries[tau + n - 1, t_probe]
    centering = np.eye(n) - np.ones((n, n)) / n
    op = np.fft.ifft(
        analytic_spectrum_weights(n)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0
    )
    tmat = op @ centering
    k = tmat @ tmat.conj().T
    p = tmat @ tmat.T
    s = t_probe - tau
    var_exact = k[t_probe, t_probe].real * k[s, s].real + abs(p[t_probe, s]) ** 2
    deviations = np.abs(vals - vals.mean()) ** 2
    se = float(np.std(deviations, ddof=1) / np.sqrt(reps))
    z_score = (var_raw - var_exact) / se
    print(
        f"criterion 9: var_eb/var_raw={ratio:.5f}; raw variance z={z_score:.2f} "
        f"against the closed form"
    )
    assert abs(var_raw - var_exact) < 3 * se


def test_criterion_10_kernel_equivalence():
    n = 12
    for seed in range(20):
        z = analytic_signal(demean(gen_white_noise(n, seed=100 + seed)))
        m = raw_moments(z)
        a = emaf(m)
        rng = np.random.default_rng(200 + seed)
        theta = rng.random((2 * n - 1, 2 * n))
        theta[n - 1, n] = 1.0
        t = ThresholdField(theta, dt=a.dt)
        direct = invert_af(apply_threshold(a, t))

        kernel = equivalent_kernel(t)
        padded = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        padded[:, :n] = m.entries
        conv = np.zeros((2 * n - 1, n), dtype=complex)
        for tt in range(n):
            conv[:, tt] = a.dt * np.sum(
                padded * kernel[:, (tt - np.arange(2 * n)) % (2 * n)], axis=1
            )
        conv[~m.support_mask()] = 0.0
        scale = np.max(np.abs(m.entries))
        np.testing.assert_allclose(direct.entries, conv, atol=1e-8 * scale)
    print("criterion 10: threshold-then-invert equals kernel convolution on 20 grids")
