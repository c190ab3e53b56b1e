"""The library pipeline the ``estimate`` workload times, and the quality guards.

Every stage is looked up in this module's namespace, so a traced run can
wrap ``fit``, ``assemble`` and the rest here exactly as it does in
``ambishrink.cli``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ambishrink.ambiguity import LagTimeMoments, emaf, normalization, normalize, raw_moments
from ambishrink.covariance import HermitianCovariance, assemble, correct, invert_af
from ambishrink.diagnostics import risk_report
from ambishrink.procgen import (
    AggregationProcess,
    TheoreticalCovariance,
    gen_aggregation,
    gen_white_noise,
    theoretical_covariance,
)
from ambishrink.series import TimeSeries, analytic_signal, analytic_spectrum_weights, demean
from ambishrink.shrinkage import (
    FitConvergenceError,
    ShrinkageParams,
    ThresholdField,
    apply_threshold,
    fit,
    threshold_field,
)
from ambishrink.tfr import TFRGrid, bilinear


@dataclass(frozen=True)
class Estimate:
    """What one pipeline call hands back."""

    params: ShrinkageParams
    theta: ThresholdField
    m_raw: LagTimeMoments
    cov: HermitianCovariance
    surface: TFRGrid


def shrink(
    x: TimeSeries, strict: bool = True
) -> tuple[ShrinkageParams, ThresholdField, LagTimeMoments, LagTimeMoments]:
    """demean -> analytic -> raw_moments -> emaf -> normalize -> fit -> threshold -> invert.

    Returns the fit, the threshold field, and the raw and shrunk moments.
    With ``strict`` a fit that exhausts its budget raises; otherwise its
    best-so-far parameters are used, as ``riskbench`` does.
    """
    z = analytic_signal(demean(x))
    m_raw = raw_moments(z)
    a_raw = emaf(m_raw)
    a_norm = normalize(a_raw, normalization(x.n, x.dt))
    try:
        params = fit(a_norm)
    except FitConvergenceError as err:
        if strict:
            raise
        params = err.best
    theta = threshold_field(params, a_norm)
    return params, theta, m_raw, invert_af(apply_threshold(a_raw, theta))


def estimate(x: TimeSeries) -> Estimate:
    """One timed pipeline call: :func:`shrink`, then assemble, correct("clip"), bilinear."""
    params, theta, m_raw, m_eb = shrink(x)
    cov = correct(assemble(m_eb), "clip")
    return Estimate(params, theta, m_raw, cov, bilinear(m_eb))


def analytic_truth(n: int) -> TheoreticalCovariance:
    """Exact covariance of the demeaned analytic signal of an aggregation record.

    The pipeline estimates moments of ``analytic(demean(x))``, so risk is
    judged against ``P D C D P*``, with ``D`` the centering and ``P`` the
    analytic-signal operator.
    """
    real_cov = theoretical_covariance(AggregationProcess(seed=0), n).entries
    centering = np.eye(n) - np.ones((n, n)) / n
    op = np.fft.ifft(analytic_spectrum_weights(n)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    t = op @ centering @ real_cov @ centering @ op.conj().T
    return TheoreticalCovariance((t + t.conj().T) / 2.0)


def risk_ratio(n: int, seeds: list[int], truth: TheoreticalCovariance) -> float:
    """Mean Frobenius risk ratio, shrunk over raw, on aggregation records.

    Matches what ``riskbench`` computes per replicate, so the value equals
    its ``mean_ratio`` over the same seeds.
    """
    ratios = []
    for seed in seeds:
        _, _, m_raw, m_eb = shrink(gen_aggregation(n, seed=seed), strict=False)
        est = correct(assemble(m_eb), "clip")
        ratios.append(risk_report(est, assemble(m_raw), truth).frobenius_ratio)
    return float(np.mean(ratios))


def null_kept_cells(n: int, seeds: list[int]) -> int:
    """Cells with a positive threshold factor on white-noise records, origin included.

    Each record keeps its origin cell, so the count is at least
    ``len(seeds)``; everything above that is a false discovery.
    """
    kept = 0
    for seed in seeds:
        _, theta, _, _ = shrink(gen_white_noise(n, seed=seed), strict=False)
        kept += int(np.count_nonzero(theta.theta > 0))
    return kept
