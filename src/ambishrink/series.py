"""Uniformly sampled time series and their discrete analytic representation.

The analytic representation is built in the DFT domain: negative-frequency
bins are zeroed, strictly positive bins are doubled, and the DC and (for
even length) Nyquist bins are kept with unit weight.  With that weighting
the real part of the analytic samples reproduces the input exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TimeSeries", "AnalyticSeries", "check_dt", "check_n", "demean", "analytic_signal"]


def check_dt(dt: float) -> float:
    """The sampling period as a float: any finite real number above zero, but not a bool."""
    try:  # a real number too large for a float is not finite
        ok = isinstance(dt, numbers.Real) and not isinstance(dt, bool) and math.isfinite(dt)
    except OverflowError:
        ok = False
    if not (ok and float(dt) > 0):
        raise ValueError(f"dt must be a positive finite float, got {dt!r}")
    return float(dt)


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, once they pass the finiteness check whose message names them ``what``."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contain NaN or infinity")
    return values


def check_n(n: int) -> int:
    """The record length as an int: at least two samples."""
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return n


@dataclass(frozen=True)
class _Series:
    """Finite one-dimensional samples on the uniform grid ``t_k = k * dt``."""

    samples: np.ndarray
    dt: float = 1.0
    n: int = field(init=False)

    @staticmethod
    def _values(raw: np.ndarray) -> np.ndarray:
        return np.asarray(raw, dtype=complex)

    def __post_init__(self) -> None:
        samples = self._values(np.asarray(self.samples))
        if samples.ndim != 1:
            raise ValueError(f"samples must be one-dimensional, got shape {samples.shape}")
        object.__setattr__(self, "n", check_n(samples.size))
        object.__setattr__(self, "samples", _finite(samples, "samples"))
        object.__setattr__(self, "dt", check_dt(self.dt))

    def times(self) -> np.ndarray:
        """Sample times ``k * dt`` for ``k = 0, ..., n-1``."""
        return self.dt * np.arange(self.n)


class TimeSeries(_Series):
    """Real-valued samples on the uniform grid ``t_k = k * dt``."""

    @staticmethod
    def _values(raw: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(raw):
            raise ValueError("samples must be real-valued")
        return raw.astype(float)


class AnalyticSeries(_Series):
    """Complex-valued analytic samples on the same grid as the source series."""


def demean(x: TimeSeries) -> TimeSeries:
    """Subtract the sample mean.  Idempotent up to rounding."""
    return TimeSeries(_demeaned(x.samples), dt=x.dt)


def _demeaned(samples: np.ndarray) -> np.ndarray:
    """The :func:`demean` of any stack of records, each row by its own mean."""
    return samples - samples.mean(axis=-1, keepdims=True)


def analytic_spectrum_weights(n: int) -> np.ndarray:
    """DFT bin weights of the analytic representation for length ``n``.

    Weight 1 at DC, 2 on strictly positive frequencies, 0 on negative ones.
    For even ``n`` the Nyquist bin sits on the boundary and keeps weight 1.
    """
    n = check_n(n)
    w = np.zeros(n)
    w[0] = 1.0
    if n % 2 == 0:
        w[1 : n // 2] = 2.0
        w[n // 2] = 1.0
    else:
        w[1 : (n + 1) // 2] = 2.0
    return w


def analytic_signal(x: TimeSeries) -> AnalyticSeries:
    """Discrete analytic representation of ``x``.

    Computed as ``ifft(weights * fft(samples))`` with the one-sided weights
    of :func:`analytic_spectrum_weights`.  The real part of the result
    equals the input samples to rounding accuracy.
    """
    return AnalyticSeries(_analytic_rows(x.samples), dt=x.dt)


def _analytic_rows(samples: np.ndarray) -> np.ndarray:
    """The :func:`analytic_signal` samples of any stack of records, each transformed on its own."""
    spectrum = np.fft.fft(samples, axis=-1)
    return np.fft.ifft(analytic_spectrum_weights(samples.shape[-1]) * spectrum, axis=-1)
