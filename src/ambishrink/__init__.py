"""Empirical Bayes shrinkage of empirical ambiguity functions.

The package turns a single real-valued recording into a shrunk estimate of
its time-varying second-order structure.  The pipeline is: analytic signal,
lag-time products, ambiguity-domain transform, mixture-model fit of the
normalized coefficient magnitudes, posterior-median thresholding, and
inversion back to moments, covariance, or a time-frequency surface.

The commonly used entry points are re-exported here; the submodules hold the
full API (``series``, ``procgen``, ``ambiguity``, ``shrinkage``,
``covariance``, ``tfr``, ``diagnostics``, ``textio``, ``cli``).
"""

from .ambiguity import (
    AmbiguityGrid,
    LagTimeMoments,
    NormalizationField,
    denormalize,
    emaf,
    normalization,
    normalize,
    raw_moments,
    smooth_kernel,
)
from .covariance import HermitianCovariance, assemble, correct, invert_af
from .diagnostics import (
    QQData,
    RiskReport,
    qq_normalized_af,
    risk_report,
    variance_reduction_probe,
)
from .series import AnalyticSeries, TimeSeries, analytic_signal, demean
from .shrinkage import (
    FitConvergenceError,
    ShrinkageParams,
    Shrunk,
    ThresholdField,
    apply_threshold,
    equivalent_kernel,
    fit,
    marginal_nll,
    posterior_rho,
    shrink,
    threshold_field,
)
from .tfr import TFRGrid, bilinear, dual_frequency, spectrogram, window_bank

__version__ = "0.1.0"

__all__ = [
    "AmbiguityGrid",
    "AnalyticSeries",
    "FitConvergenceError",
    "HermitianCovariance",
    "LagTimeMoments",
    "NormalizationField",
    "QQData",
    "RiskReport",
    "ShrinkageParams",
    "Shrunk",
    "TFRGrid",
    "ThresholdField",
    "TimeSeries",
    "analytic_signal",
    "apply_threshold",
    "assemble",
    "bilinear",
    "correct",
    "demean",
    "denormalize",
    "dual_frequency",
    "emaf",
    "equivalent_kernel",
    "fit",
    "invert_af",
    "marginal_nll",
    "normalization",
    "normalize",
    "posterior_rho",
    "qq_normalized_af",
    "raw_moments",
    "risk_report",
    "shrink",
    "smooth_kernel",
    "spectrogram",
    "threshold_field",
    "variance_reduction_probe",
    "window_bank",
]
