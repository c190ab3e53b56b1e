"""Synthetic nonstationary processes and exact second-order references.

Generators draw from seeded numpy generators so every series is
reproducible.  Alongside the samplers, this module provides the matching
population quantities used to validate estimators: dense covariance
matrices, the expected ambiguity transform of a stationary moving average,
and the covariance of empirical ambiguity coefficients under white noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import toeplitz

from .covariance import HermitianCovariance
from .series import TimeSeries, analytic_spectrum_weights, check_dt, check_n

__all__ = [
    "ModulatedMAProcess",
    "TimeVaryingFilterProcess",
    "AggregationProcess",
    "TheoreticalCovariance",
    "gen_modulated_ma",
    "gen_aggregation",
    "gen_tv_filter",
    "gen_white_noise",
    "theoretical_covariance",
    "stationary_emaf_expectation",
    "whitenoise_af_covariance",
    "whitenoise_af_covariance_limit",
    "locally_stationary_process",
    "cyclostationary_process",
    "aggregation_components",
    "chirp_filter_process",
]


@dataclass(frozen=True)
class ModulatedMAProcess:
    """Amplitude-modulated moving average ``Y_t = sigma(t) * sum_l w_l e_{t-l}``.

    ``modulation`` maps an integer sample-index array to the amplitudes
    ``sigma(t)``; innovations ``e`` are i.i.d. standard normal.
    """

    weights: tuple[float, ...]
    modulation: Callable[[np.ndarray], np.ndarray]
    seed: int = 0

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        if len(weights) == 0:
            raise ValueError("weights must be non-empty")
        if not all(np.isfinite(w) for w in weights):
            raise ValueError("weights contain NaN or infinity")
        if not callable(self.modulation):
            raise ValueError("modulation must be callable")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class TimeVaryingFilterProcess:
    """Filtered noise ``Z_t = dt * sum_{|k|<=M} h(k, t) e_{t-k} + floor * xi_t``.

    ``filt`` maps broadcastable arrays ``(k, t)`` to filter values; ``xi`` is
    an independent standard normal stream scaled by ``noise_floor``.
    """

    filt: Callable[[np.ndarray, np.ndarray], np.ndarray]
    half_width: int
    noise_floor: float = 0.0
    seed: int = 0
    dt: float = 1.0

    def __post_init__(self) -> None:
        if not callable(self.filt):
            raise ValueError("filt must be callable")
        if int(self.half_width) < 0:
            raise ValueError(f"half_width must be nonnegative, got {self.half_width!r}")
        if not (np.isfinite(self.noise_floor) and self.noise_floor >= 0):
            raise ValueError(f"noise_floor must be nonnegative, got {self.noise_floor!r}")
        object.__setattr__(self, "half_width", int(self.half_width))
        object.__setattr__(self, "noise_floor", float(self.noise_floor))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "dt", check_dt(self.dt))


@dataclass(frozen=True)
class AggregationProcess:
    """Sum of the locally stationary and cyclostationary example components."""

    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))


class TheoreticalCovariance(HermitianCovariance):
    """Dense population covariance matrix: a :class:`HermitianCovariance` with a nonnegative diagonal.

    Generator truths are real and symmetric; derived truths (for instance
    the covariance of the analytic signal implied by a real one) are
    genuinely complex, so entries are stored complex either way.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        peak = np.max(np.abs(self.entries))
        if not np.all(np.diagonal(self.entries).real >= -1e-12 * peak):
            raise ValueError("diagonal entries must be nonnegative")


def locally_stationary_process(length: int = 512, seed: int = 0) -> ModulatedMAProcess:
    """Slowly breathing moving average: amplitude follows a parabola over the record."""
    length = check_n(length)

    def modulation(t: np.ndarray) -> np.ndarray:
        u = np.asarray(t, dtype=float) / length
        return 0.25 + u * (1.0 - u)

    return ModulatedMAProcess(
        weights=(1.0, 0.33, 0.266, 0.2, 0.133, 0.066),
        modulation=modulation,
        seed=seed,
    )


def cyclostationary_process(seed: int = 0) -> ModulatedMAProcess:
    """Moving average with periodic amplitude ``4 |sin(2 pi 0.09 t)|``."""

    def modulation(t: np.ndarray) -> np.ndarray:
        return 4.0 * np.abs(np.sin(2.0 * np.pi * 0.09 * np.asarray(t, dtype=float)))

    return ModulatedMAProcess(
        weights=(1.0, 0.5, 0.0, 0.3, 0.0, 0.1),
        modulation=modulation,
        seed=seed,
    )


def aggregation_components(
    n: int, seed: int = 0
) -> tuple[ModulatedMAProcess, ModulatedMAProcess]:
    """Independent component pair whose sum is the aggregation benchmark."""
    return (
        locally_stationary_process(length=n, seed=2 * seed),
        cyclostationary_process(seed=2 * seed + 1),
    )


def chirp_filter_process(seed: int = 0) -> TimeVaryingFilterProcess:
    """Time-varying filter whose passband center drifts linearly upward."""
    half_width = 8

    def filt(k: np.ndarray, t: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        t = np.asarray(t, dtype=float)
        taper = 0.5 * (1.0 + np.cos(np.pi * k / (half_width + 1)))
        taper = np.where(np.abs(k) <= half_width, taper, 0.0)
        return taper * np.cos(2.0 * np.pi * (0.1 + 5e-4 * t) * k)

    return TimeVaryingFilterProcess(
        filt=filt, half_width=half_width, noise_floor=0.1, seed=seed
    )


def gen_modulated_ma(p: ModulatedMAProcess, n: int, dt: float = 1.0) -> TimeSeries:
    """Draw ``n`` samples of a modulated moving average."""
    n = check_n(n)
    w = np.asarray(p.weights)
    lags = w.size - 1
    rng = np.random.default_rng(p.seed)
    eps = rng.standard_normal(n + lags)
    driven = np.convolve(eps, w)[lags : lags + n]
    sigma = np.asarray(p.modulation(np.arange(n)), dtype=float)
    if sigma.shape != (n,):
        raise ValueError(f"modulation returned shape {sigma.shape}, expected ({n},)")
    return TimeSeries(sigma * driven, dt=dt)


def gen_aggregation(n: int, seed: int = 0, dt: float = 1.0) -> TimeSeries:
    """Sum of independent draws from the two aggregation components."""
    p1, p2 = aggregation_components(n, seed)
    y1 = gen_modulated_ma(p1, n, dt=dt)
    y2 = gen_modulated_ma(p2, n, dt=dt)
    return TimeSeries(y1.samples + y2.samples, dt=dt)


def gen_tv_filter(p: TimeVaryingFilterProcess, n: int) -> TimeSeries:
    """Draw ``n`` samples through a time-varying filter plus a white floor."""
    n = check_n(n)
    m = p.half_width
    rng = np.random.default_rng(p.seed)
    eps = rng.standard_normal(n + 2 * m)
    ks = np.arange(-m, m + 1)
    ts = np.arange(n)
    h = np.asarray(p.filt(ks[:, None], ts[None, :]), dtype=float)
    if h.shape != (2 * m + 1, n):
        raise ValueError(f"filter returned shape {h.shape}, expected {(2 * m + 1, n)}")
    # eps index t - k lives in [-m, n-1+m]; offset by m into the drawn block.
    idx = ts[None, :] - ks[:, None] + m
    # an overflowing sample is reported by TimeSeries as a non-finite one
    with np.errstate(over="ignore", invalid="ignore"):
        driven = p.dt * np.sum(h * eps[idx], axis=0)
    floor = p.noise_floor * rng.standard_normal(n)
    return TimeSeries(driven + floor, dt=p.dt)


def gen_white_noise(n: int, seed: int = 0, sigma: float = 1.0, dt: float = 1.0) -> TimeSeries:
    """I.i.d. Gaussian samples with standard deviation ``sigma``."""
    n = check_n(n)
    rng = np.random.default_rng(seed)
    return TimeSeries(sigma * rng.standard_normal(n), dt=dt)


def theoretical_covariance(
    p: ModulatedMAProcess | TimeVaryingFilterProcess | AggregationProcess, n: int
) -> TheoreticalCovariance:
    """Population covariance matrix of ``n`` consecutive samples of ``p``."""
    n = check_n(n)
    if isinstance(p, ModulatedMAProcess):
        w = np.asarray(p.weights)
        lags = w.size - 1
        # two-sided autocorrelation sum_l w_l w_{l-d}, at index d + lags for d in [-lags, lags]
        acf = np.convolve(w, w[::-1])
        col = np.zeros(n)
        col[: min(lags + 1, n)] = acf[lags : lags + min(lags + 1, n)]
        sigma = np.asarray(p.modulation(np.arange(n)), dtype=float)
        entries = np.outer(sigma, sigma) * toeplitz(col)
        return TheoreticalCovariance(entries)
    if isinstance(p, TimeVaryingFilterProcess):
        m = p.half_width
        ks = np.arange(-m, m + 1)
        ts = np.arange(n)
        h = np.asarray(p.filt(ks[:, None], ts[None, :]), dtype=float)
        entries = np.zeros((n, n))
        # dt * dt overflows to inf where dt**2 raises; TheoreticalCovariance rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            # lags beyond n - 1 pair no samples (and d <= -n would wrap the slice below)
            for d in range(max(-2 * m, 1 - n), min(2 * m, n - 1) + 1):
                s = ts[max(0, d) : n + min(0, d)]
                k_lo, k_hi = max(-m, d - m), min(m, d + m)
                kv = np.arange(k_lo, k_hi + 1)
                # sum over k of h(k, s) h(k-d, s-d), aligned on valid filter taps
                prods = h[kv[:, None] + m, s[None, :]] * h[kv[:, None] - d + m, s[None, :] - d]
                entries[s, s - d] = p.dt * p.dt * prods.sum(axis=0)
        entries[np.diag_indices(n)] += p.noise_floor**2
        return TheoreticalCovariance(entries)
    if isinstance(p, AggregationProcess):
        p1, p2 = aggregation_components(n, p.seed)
        c1 = theoretical_covariance(p1, n)
        c2 = theoretical_covariance(p2, n)
        return TheoreticalCovariance(c1.entries + c2.entries)
    raise TypeError(f"unsupported process type {type(p).__name__}")


def _dirichlet(count: int, x: float) -> float:
    """Periodic sinc ratio ``sin(pi count x) / sin(pi x)`` with removable poles."""
    s = np.sin(np.pi * x)
    if abs(s) < 1e-12:
        p = int(round(x))
        return count * (1.0 if (p * (count - 1)) % 2 == 0 else -1.0)
    return float(np.sin(np.pi * count * x) / s)


def stationary_emaf_expectation(
    m_tilde: Sequence[float], n: int, dt: float, tau: int, nu: float
) -> complex:
    """Expected ambiguity coefficient of a stationary series, exactly at finite ``n``.

    For autocovariance ``m_tilde[|tau|]`` the expectation concentrates on a
    Dirichlet ridge along ``nu``:

    ``dt * m_tilde[|tau|] * D_{n-|tau|}(dt nu) * exp(-i pi nu dt (n + tau - 1))``

    where ``D_c(x) = sin(pi c x)/sin(pi x)``.  Lags beyond the autocovariance
    length have expectation zero.
    """
    n, dt, tau = check_n(n), check_dt(dt), int(tau)
    if not -n < tau < n:
        raise ValueError(f"lag {tau} out of range for n={n}")
    m_tilde = np.asarray(m_tilde, dtype=float)
    if abs(tau) >= m_tilde.size:
        return 0.0 + 0.0j
    count = n - abs(tau)
    ridge = _dirichlet(count, dt * nu)
    phase = np.exp(-1j * np.pi * nu * dt * (n + tau - 1))
    return complex(dt * m_tilde[abs(tau)] * ridge * phase)


def _analytic_noise_covariances(n: int, sigma_x2: float) -> tuple[np.ndarray, np.ndarray]:
    """Covariance ``m(d)`` and relation ``r(d)`` of discrete analytic white noise.

    Index ``d`` is taken modulo ``n`` (the transform is circulant).
    """
    w = analytic_spectrum_weights(n)
    m = sigma_x2 * np.fft.ifft(w * w)
    w_neg = np.roll(w[::-1], 1)  # w at index (-k) mod n
    r = sigma_x2 * np.fft.ifft(w * w_neg)
    return m, r


def _check_sigma2(sigma2: float) -> float:
    """The spectral level of the white-noise oracles as a float: finite and above zero."""
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")
    return float(sigma2)


def whitenoise_af_covariance(
    n: int, dt: float, sigma2: float, tau1: int, j1: int, tau2: int, j2: int
) -> complex:
    """Covariance of two empirical ambiguity coefficients under white noise.

    Coefficients are evaluated on the support-matched frequency grid
    ``nu_j = j / (dt (n - max(|tau1|, |tau2|)))``; distinct ``j`` indices are
    uncorrelated and return exactly zero.  ``sigma2`` is the one-sided
    spectral level of the analytic signal (``4 dt var`` for real noise of
    variance ``var``).  The value is the exact finite-``n`` fourth-moment
    sum over both lag supports, including the circulant analytic-transform
    covariance and its relation term, so Monte Carlo averages match it
    without an asymptotic gap.
    """
    n, dt, sigma2 = check_n(n), check_dt(dt), _check_sigma2(sigma2)
    tau1, j1, tau2, j2 = int(tau1), int(j1), int(tau2), int(j2)
    for tau in (tau1, tau2):
        if not -n < tau < n:
            raise ValueError(f"lag {tau} out of range for n={n}")
    if j1 != j2:
        return 0.0 + 0.0j
    sigma_x2 = sigma2 / (4.0 * dt)
    m, r = _analytic_noise_covariances(n, sigma_x2)
    nu = j1 / (dt * (n - max(abs(tau1), abs(tau2))))
    s1 = np.arange(max(0, tau1), n + min(0, tau1))
    s2 = np.arange(max(0, tau2), n + min(0, tau2))
    d = s1[:, None] - s2[None, :]
    main = m[d % n] * np.conj(m[(d - tau1 + tau2) % n])
    rel = r[(d + tau2) % n] * np.conj(r[(d - tau1) % n])
    phase = np.exp(-2j * np.pi * dt * nu * d)
    return complex(dt**2 * np.sum((main + rel) * phase))


def whitenoise_af_covariance_limit(
    n: int, dt: float, sigma2: float, tau1: int, j1: int, tau2: int, j2: int
) -> complex:
    """Large-``n`` closed form for :func:`whitenoise_af_covariance`.

    ``(n - max|tau|) sigma2^2 * integral of exp(2i pi f dt (tau1 - tau2))``
    over the frequency window ``[max(-nu, 0), min(1/(2 dt) - nu, 1/(2 dt))]``
    scaled by ``dt``.  Converges to the exact value at ``O(1/n)`` relative
    error when ``tau1 == tau2``; for distinct lags the neglected transform
    edge terms stay at the percent level regardless of ``n``, so the exact
    evaluation is preferred whenever the value matters.
    """
    n, dt, sigma2 = check_n(n), check_dt(dt), _check_sigma2(sigma2)
    tau1, j1, tau2, j2 = int(tau1), int(j1), int(tau2), int(j2)
    if j1 != j2:
        return 0.0 + 0.0j
    span = n - max(abs(tau1), abs(tau2))
    if span <= 0:
        raise ValueError("lags leave no overlap")
    nu = j1 / (dt * span)
    half = 1.0 / (2.0 * dt)
    lo, hi = max(-nu, 0.0), min(half - nu, half)
    diff = tau1 - tau2
    if diff == 0:
        bracket = dt * (hi - lo)
    else:
        bracket = (
            np.exp(2j * np.pi * hi * dt * diff) - np.exp(2j * np.pi * lo * dt * diff)
        ) / (2j * np.pi * diff)
    return complex(span * sigma2**2 * bracket)
