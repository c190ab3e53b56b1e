"""Two-point mixture fit and posterior-median shrinkage of ambiguity grids.

Normalized off-origin coefficient magnitudes are modeled as draws from

    f(q) = (1 - rho) * 2 q / vbar * exp(-q^2 / vbar)
         + rho * 2 q / (vbar + sigma2) * exp(-q^2 / (vbar + sigma2)),

a Rayleigh background of scale ``vbar`` spiked with a fraction ``rho`` of
signal-bearing coefficients whose extra energy is ``sigma2``.  The fitted
parameters drive a coefficient-wise posterior-median attenuation factor
that is exactly zero for coefficients indistinguishable from background.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import minimize
from scipy.special import expit, logit, ndtr, ndtri

from .ambiguity import AmbiguityGrid, LagTimeMoments, emaf, normalization, normalize, raw_moments
from .covariance import invert_af
from .series import TimeSeries, analytic_signal, check_dt, demean

__all__ = [
    "ShrinkageParams",
    "ThresholdField",
    "FitConvergenceError",
    "marginal_nll",
    "fit",
    "posterior_rho",
    "threshold_field",
    "apply_threshold",
    "equivalent_kernel",
    "Shrunk",
    "shrink",
]


@dataclass(frozen=True)
class ShrinkageParams:
    """Mixture parameters: background scale, signal fraction, signal energy.

    ``nll`` and ``iterations`` are optional fit metadata left ``None`` when
    the parameters were not produced by :func:`fit`.
    """

    vbar: float
    rho: float
    sigma2: float
    nll: float | None = None
    iterations: int | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.vbar) and self.vbar > 0):
            raise ValueError(f"vbar must be positive, got {self.vbar!r}")
        if not (np.isfinite(self.rho) and 0 <= self.rho <= 1):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2!r}")


@dataclass(frozen=True)
class ThresholdField:
    """Attenuation factors ``theta`` on the ``(2n-1, 2n)`` grid of a record sampled at ``dt``.

    The origin coefficient carries the total energy of the series and is
    never shrunk, so ``theta`` must be exactly 1 there.
    """

    theta: np.ndarray
    dt: float = 1.0

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2:
            raise ValueError(f"theta must be a 2-d field, got shape {theta.shape}")
        rows, cols = theta.shape
        if cols != rows + 1 or rows % 2 == 0:
            raise ValueError(f"expected a (2n-1, 2n) field, got {theta.shape}")
        if np.any(theta < 0) or np.any(theta > 1):
            raise ValueError("theta values must lie in [0, 1]")
        if theta[(rows - 1) // 2, cols // 2] != 1.0:
            raise ValueError("the origin coefficient must keep theta = 1")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "dt", check_dt(self.dt))


class FitConvergenceError(RuntimeError):
    """Raised when the quasi-Newton search stops without converging.

    Carries the best parameters seen so far in ``best`` so callers can
    report or persist them.
    """

    def __init__(self, message: str, best: ShrinkageParams):
        super().__init__(message)
        self.best = best


def _log_density_terms(
    vbar: float, rho: float, sigma2: float, qsq: np.ndarray
) -> np.ndarray:
    """Log mixture density of the magnitudes, without the ``log(2 q)`` part."""
    wide = vbar + sigma2
    with np.errstate(divide="ignore"):
        log_bg = np.log1p(-rho) - np.log(vbar) - qsq / vbar
        log_sig = np.log(rho) - np.log(wide) - qsq / wide
    return np.logaddexp(log_bg, log_sig)


def marginal_nll(params: ShrinkageParams, magnitudes: np.ndarray) -> float:
    """Negative log-likelihood of magnitudes under the two-point mixture.

    Zero magnitudes have vanishing density, so any zero entry yields
    ``+inf``; non-finite or negative entries are rejected.
    """
    q = np.asarray(magnitudes, dtype=float).ravel()
    if q.size == 0:
        raise ValueError("magnitudes must be non-empty")
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError("magnitudes must be finite and nonnegative")
    if np.any(q == 0):
        return float("inf")
    qsq = q * q
    log_f = np.log(2.0 * q) + _log_density_terms(params.vbar, params.rho, params.sigma2, qsq)
    return float(-np.sum(log_f))


def _log_odds(
    logit_rho: float, vbar: float, sigma2: float, qsq: float | np.ndarray
) -> float | np.ndarray:
    """Log posterior odds ``alpha + beta q^2`` that a coefficient carries signal.

    With ``wide = vbar + sigma2``, ``alpha = logit(rho) + log(vbar) -
    log(wide)`` and ``beta = 1 / vbar - 1 / wide``; the log mixture density
    of :func:`_log_density_terms` is the background term plus ``softplus``
    of these odds, and the posterior signal probability is their ``expit``.
    No product or ratio of the scales is formed, so they may lie anywhere in
    the floating-point range.
    """
    wide = vbar + sigma2
    return logit_rho + np.log(vbar) - np.log(wide) + (1.0 / vbar - 1.0 / wide) * qsq


def _fit_cells(a: AmbiguityGrid) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes and weights of the cells entering the mixture fit.

    Only the central block of the grid is fitted: rows with ``|tau| <= n/2``
    and columns whose dual frequency is at most half the Nyquist rate.  Rows
    with short lag spans average too few products to have Gaussian
    coefficients, and extreme dual frequencies pool energy from so narrow a
    spectral band that their scale is set by the realized spectrum of the
    one observed draw rather than by the process; both regions can capture
    the background component of the mixture on unlucky draws.  Each retained
    row is weighted by ``span / (2 n)``, its share of independent
    coefficients among the ``2 n`` redundant columns, so heavily oversampled
    rows do not dominate the composite likelihood.  The origin cell never
    participates.  Cells come in row-major order.
    """
    n, h = a.n, a.n // 2
    block = a.entries[n - 1 - h : n + h, n - h : n + h + 1]
    origin = h * block.shape[1] + h
    taus = np.arange(-h, h + 1)
    weights = np.repeat((n - np.abs(taus)) / (2.0 * n), block.shape[1])
    return np.delete(np.abs(block).ravel(), origin), np.delete(weights, origin)


@cache
def _scipy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with scipy, if it has a thread-local thread cap, else None."""
    root = Path(scipy.__file__).parent
    # Linux and Windows wheels keep it in scipy.libs, macOS wheels in scipy/.dylibs.
    bundled = [*root.parent.glob("scipy.libs/libscipy_openblas*"), *root.glob(".dylibs/libscipy_openblas*")]
    for path in sorted(bundled):
        try:
            lib = ctypes.CDLL(str(path))
            lib.openblas_set_num_threads_local.restype = ctypes.c_int
            return lib
        except (OSError, AttributeError):
            continue
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Cap scipy's OpenBLAS at one thread for the calling thread inside the block.

    L-BFGS-B calls into OpenBLAS on every iteration, even for three
    parameters.  With two threads allowed, a fit takes the same wall time
    but twice the CPU time: the pool's workers spin on a second core, so
    how long a fit takes on a shared machine depends on what else runs
    there.
    """
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    previous = lib.openblas_set_num_threads_local(1)
    try:
        yield
    finally:
        lib.openblas_set_num_threads_local(previous)


def fit(a: AmbiguityGrid) -> ShrinkageParams:
    """Weighted maximum-likelihood mixture fit to the grid magnitudes.

    Minimizes the row-weighted negative log-likelihood of the central-block
    magnitudes (see :func:`_fit_cells`) in ``(log vbar, logit rho, log
    sigma2)`` from moment-based starting values, by L-BFGS-B with the
    closed-form gradient: every evaluation needs only the weighted sums of
    the posterior signal probabilities ``r`` and of ``q^2 r``.  The search
    stops once a step lowers the objective by less than 1e-12 of its size
    or the largest gradient component drops below 1e-8, with a budget of
    10000 iterations.  A search that stops any other way raises
    :class:`FitConvergenceError` carrying the best parameters found.  The
    returned ``nll`` is the attained weighted objective.  The search runs
    with scipy's OpenBLAS held to one thread (see :func:`_one_blas_thread`).
    Magnitudes whose weighted squares sum past the float range raise
    ``ValueError`` before the search, without a floating-point warning.
    """
    if not a.normalized:
        raise ValueError("fit expects a normalized grid")
    q, w = _fit_cells(a)
    if np.any(q == 0):
        raise ValueError("zero magnitudes make the mixture likelihood singular")
    with np.errstate(over="ignore"):
        qsq = q * q
        wqsq = w * qsq
        w_sum, wqsq_sum = float(np.sum(w)), float(np.sum(wqsq))
    if not np.isfinite(wqsq_sum):
        raise ValueError("squared magnitudes overflow floating point")
    const = -float(np.sum(w * np.log(2.0 * q)))

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        vbar = np.exp(np.clip(x[0], -700.0, 700.0))
        sigma2 = np.exp(np.clip(x[2], -700.0, 700.0))
        wide = vbar + sigma2
        d = _log_odds(x[1], vbar, sigma2, qsq)
        r = expit(d)
        # np.sum of products, not BLAS dots: threaded ddot is slower here
        r_sum, qsq_r_sum = float(np.sum(w * r)), float(np.sum(wqsq * r))
        # log density = log(1 - rho) - log vbar - q^2 / vbar + softplus(d)
        value = const + w_sum * (np.logaddexp(0.0, x[1]) + np.log(vbar)) + wqsq_sum / vbar
        value -= float(np.sum(w * np.logaddexp(0.0, d)))
        # partial derivatives in (log vbar, logit rho, log sigma2)
        share = sigma2 / wide
        grad = [
            w_sum - wqsq_sum / vbar - share * (r_sum - qsq_r_sum * (1.0 / vbar + 1.0 / wide)),
            expit(x[1]) * w_sum - r_sum,
            share * (r_sum - qsq_r_sum / wide),
        ]
        return value, np.array(grad)

    vbar0 = float(np.median(qsq)) / np.log(2.0)
    if vbar0 <= 0:
        raise ValueError("degenerate magnitudes: zero median energy")
    top = max(1, int(round(0.01 * qsq.size)))
    tail_mean = float(np.mean(np.partition(qsq, qsq.size - top)[-top:]))
    sigma2_0 = max(tail_mean - vbar0, vbar0)
    x0 = np.array([np.log(vbar0), logit(0.01), np.log(sigma2_0)])
    with _one_blas_thread():
        res = minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"ftol": 1e-12, "gtol": 1e-8, "maxiter": 10000},
        )
    params = ShrinkageParams(
        vbar=float(np.exp(res.x[0])),
        rho=float(expit(res.x[1])),
        sigma2=float(np.exp(res.x[2])),
        nll=float(res.fun),
        iterations=int(res.nit),
    )
    if not res.success:
        raise FitConvergenceError(
            f"L-BFGS-B search stopped without converging after {res.nit} iterations", params
        )
    return params


def posterior_rho(params: ShrinkageParams, qhat: float | np.ndarray) -> float | np.ndarray:
    """Posterior probability that a coefficient of magnitude ``qhat`` carries signal."""
    q = np.asarray(qhat, dtype=float)
    if np.any(q < 0):
        raise ValueError("magnitudes must be nonnegative")
    out = expit(_log_odds(logit(params.rho), params.vbar, params.sigma2, q * q))
    return float(out) if np.isscalar(qhat) else out


def threshold_field(params: ShrinkageParams, a: AmbiguityGrid) -> ThresholdField:
    """Posterior-median attenuation factors for every grid coefficient.

    With ``lam = sigma2 / (sigma2 + vbar)``, a coefficient of magnitude
    ``q`` is zeroed whenever ``rho_post * (1 - eta) <= 1/2`` where
    ``eta = Phi(-sqrt(2 lam) q / sqrt(vbar))``; otherwise the attenuation is

        theta = clip((lam q + sqrt(lam vbar / 2) * Phi^{-1}(1 - 1/(2 rho_post))) / q, 0, 1).

    The origin coefficient is never shrunk (``theta = 1``): it carries the
    total energy of the series.
    """
    if not a.normalized:
        raise ValueError("threshold_field expects a normalized grid")
    vbar, sigma2 = params.vbar, params.sigma2
    q = np.abs(a.entries)
    rho_post = np.asarray(posterior_rho(params, q))
    lam = sigma2 / (sigma2 + vbar)
    eta = ndtr(-np.sqrt(2.0 * lam) * q / np.sqrt(vbar))
    keep = (rho_post * (1.0 - eta) > 0.5) & (q > 0)
    theta = np.zeros_like(q)
    if np.any(keep):
        qk = q[keep]
        qmed = lam * qk + np.sqrt(lam * vbar / 2.0) * ndtri(
            1.0 - 1.0 / (2.0 * rho_post[keep])
        )
        theta[keep] = np.clip(qmed / qk, 0.0, 1.0)
    theta[a.n - 1, a.n] = 1.0
    return ThresholdField(theta, dt=a.dt)


def apply_threshold(a: AmbiguityGrid, t: ThresholdField) -> AmbiguityGrid:
    """Attenuate grid entries by the threshold factors."""
    a.check_shape("field", t.theta.shape)
    return replace(a, entries=a.entries * t.theta)


def equivalent_kernel(t: ThresholdField) -> np.ndarray:
    """Lag-domain convolution kernel realizing the attenuation.

    Row ``tau`` of the result is the inverse DFT of the threshold row over
    the doubled dual-frequency grid, scaled by ``1/dt``: attenuating in the
    ambiguity domain equals circular convolution of each zero-padded moment
    row with this kernel.  An all-ones row comes back as a discrete delta
    of height ``1/dt``.
    """
    spectra = np.fft.ifftshift(t.theta, axes=1)
    return np.fft.ifft(spectra, axis=1) / t.dt


@dataclass(frozen=True)
class Shrunk:
    """Every stage of one :func:`shrink` run; ``converged`` is False for a best-so-far fit."""

    m_raw: LagTimeMoments
    a_raw: AmbiguityGrid
    a_norm: AmbiguityGrid
    params: ShrinkageParams
    converged: bool
    theta: ThresholdField
    af_eb: AmbiguityGrid
    m_eb: LagTimeMoments


def shrink(x: TimeSeries, delta: float = 0.5) -> Shrunk:
    """Demean, analytic signal, lag products, EMAF, normalize, fit, threshold, invert.

    A fit that exhausts its budget does not raise: its best parameters are
    used and ``converged`` is False.
    """
    m_raw = raw_moments(analytic_signal(demean(x)))
    a_raw = emaf(m_raw)
    a_norm = normalize(a_raw, normalization(x.n, x.dt, delta))
    try:
        params, converged = fit(a_norm), True
    except FitConvergenceError as err:
        params, converged = err.best, False
    theta = threshold_field(params, a_norm)
    af_eb = apply_threshold(a_raw, theta)
    return Shrunk(m_raw, a_raw, a_norm, params, converged, theta, af_eb, invert_af(af_eb))
