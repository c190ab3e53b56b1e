"""Bilinear time-frequency surfaces computed from lag-time moment grids.

A moment grid (raw, shrunk, or exact) is turned into a surface over time
and frequency by Fourier transforming the lag axis, optionally after
smoothing in time and re-centering the moment argument.  The ``alpha``
parameter selects the member of the bilinear family: ``alpha = 1/2``
evaluates moments exactly on the sample grid (Rihaczek), ``alpha = 0``
needs the moment at half-integer times (Wigner) and interpolates linearly.
Spectrograms are provided on the same frequency grid for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ambiguity import AmbiguityGrid, LagTimeMoments
from .series import AnalyticSeries, check_dt

__all__ = [
    "TFRGrid",
    "bilinear",
    "spectrogram",
    "dual_frequency",
    "window_bank",
    "check_alpha",
]

TimeKernel = Callable[[int, np.ndarray], np.ndarray]


def check_alpha(alpha: float) -> float:
    """The re-centering parameter as a float in ``[-1/2, 1/2]``."""
    if not -0.5 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [-1/2, 1/2], got {alpha!r}")
    return float(alpha)


@dataclass(frozen=True)
class TFRGrid:
    """Complex surface over (time, frequency).

    ``values[n, c]`` is the surface at time ``n * dt`` and frequency
    ``(c - N) / (2 N dt)``, the same doubled dual grid the ambiguity domain
    uses, so the column count is exactly twice the row count.
    """

    values: np.ndarray
    dt: float = 1.0
    n: int = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 2 or values.shape[1] != 2 * values.shape[0]:
            raise ValueError(
                f"surface must have shape (n, 2 n), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("surface values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dt", check_dt(self.dt))
        object.__setattr__(self, "n", values.shape[0])

    def frequencies(self) -> np.ndarray:
        """Frequency of each column, ``j / (2 n dt)`` for ``j in [-n, n)``."""
        return np.arange(-self.n, self.n) / (2.0 * self.n * self.dt)

    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


def _lag_axis_transform(rows: np.ndarray, n: int) -> np.ndarray:
    """DFT over the lag axis onto the ``2 n`` frequency columns.

    ``rows`` has one row per lag ``tau in [-(n-1), n-1]`` and an arbitrary
    second axis; the result swaps the lag axis for a frequency axis ordered
    ``j in [-n, n)``.  Lags are placed modulo ``2 n`` so a single FFT
    evaluates ``sum_tau rows[tau] exp(-2 pi i j tau / (2 n))`` exactly.
    """
    padded = np.zeros((2 * n,) + rows.shape[1:], dtype=complex)
    padded[:n] = rows[n - 1 :]
    padded[n + 1 :] = rows[: n - 1]
    return np.fft.fftshift(np.fft.fft(padded, axis=0), axes=0)


def _interpolated_moment_rows(m: LagTimeMoments, alpha: float) -> np.ndarray:
    """Moment rows re-centered at ``t = k + (1/2 - alpha) tau``.

    Linear interpolation between adjacent integer-indexed moments; times
    outside ``[0, n-1]`` contribute zero, matching the support of the raw
    estimator.  For ``alpha = 1/2`` the argument is always on-grid and the
    rows come back unchanged.
    """
    if alpha == 0.5:
        return m.entries
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


def bilinear(m: LagTimeMoments, alpha: float = 0.5, kernel: TimeKernel | None = None) -> TFRGrid:
    """Bilinear surface of the moment grid at re-centering ``alpha``.

    Computes ``S(t_n, f_j) = dt^2 sum_tau sum_k w_tau((k - n) dt)
    M_tau((k + (1/2 - alpha) tau) dt) exp(-2 pi i tau f_j dt)`` where the
    default kernel is the discrete delta of height ``1/dt`` at offset zero,
    i.e. no time smoothing.  A custom kernel is a callable mapping
    ``(tau, offsets)`` to one weight per time offset.
    """
    alpha = check_alpha(alpha)
    n = m.n
    recentred = _interpolated_moment_rows(m, alpha)
    if kernel is None:
        smoothed = recentred
        factor = m.dt
    else:
        offsets = np.arange(-(n - 1), n) * m.dt
        smoothed = np.empty_like(recentred)
        for i, tau in enumerate(range(-(n - 1), n)):
            weights = np.asarray(kernel(tau, offsets), dtype=float)
            if weights.shape != offsets.shape:
                raise ValueError(
                    f"kernel returned {weights.shape} weights for {offsets.size} offsets"
                )
            # one dt of the dt^2 factor scales the weights, so dt^2 is never formed to overflow
            full = np.convolve(recentred[i], m.dt * weights[::-1])
            smoothed[i] = full[n - 1 : 2 * n - 1]
        factor = m.dt
    values = factor * _lag_axis_transform(smoothed, n).T
    return TFRGrid(values, dt=m.dt)


def spectrogram(z: AnalyticSeries, window: np.ndarray) -> TFRGrid:
    """Squared short-time Fourier magnitude on the doubled frequency grid.

    The window is centered on each output time (offsets ``s - n`` run over
    ``[-(L-1)//2, L-1-(L-1)//2)]``), normalized internally to unit energy,
    and truncated where it overhangs the record.  Values are
    ``|sqrt(dt) sum_s h(s - n) z_s exp(-2 pi i f_j s dt)|^2``, real and
    nonnegative by construction.
    """
    h = np.asarray(window, dtype=float).ravel()
    if h.size == 0:
        raise ValueError("window must be non-empty")
    n = z.n
    if h.size > n:
        raise ValueError(f"window length {h.size} exceeds series length {n}")
    if not np.all(np.isfinite(h)) or not np.any(h):
        raise ValueError("window must be finite with some nonzero energy")
    h = h / np.sqrt(np.sum(h * h))
    half = (h.size - 1) // 2
    samples = np.asarray(z.samples, dtype=complex)
    windowed = np.zeros((n, n), dtype=complex)
    for t in range(n):
        lo = max(0, t - half)
        hi = min(n, t - half + h.size)
        windowed[t, lo:hi] = h[lo - (t - half) : hi - (t - half)] * samples[lo:hi]
    spectra = np.fft.fftshift(np.fft.fft(windowed, n=2 * n, axis=1), axes=1)
    values = z.dt * np.abs(spectra) ** 2
    return TFRGrid(values.astype(complex), dt=z.dt)


def dual_frequency(a: AmbiguityGrid) -> np.ndarray:
    """Dual-frequency spectrum: per-column DFT of the ambiguity grid over lag.

    Returns a complex grid indexed ``(nu, f)``, both on the doubled dual
    grid, with entries ``dt * sum_tau A_tau(nu) exp(-2 pi i f tau dt)``.
    """
    return (a.dt * _lag_axis_transform(a.entries, a.n)).T


def _hermite_rows(order: int, length: int) -> np.ndarray:
    span = np.sqrt(2.0 * order + 1.0) + 4.0
    x = np.linspace(-span, span, length)
    envelope = np.exp(-0.5 * x * x)
    rows = np.empty((order + 1, length))
    # high orders overflow to inf or NaN; window_bank rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(order + 1):
            coeffs = np.zeros(r + 1)
            coeffs[r] = 1.0
            rows[r] = np.polynomial.hermite.hermval(x, coeffs) * envelope
    return rows


def window_bank(kind: str, order: int, length: int) -> np.ndarray:
    """Unit-energy analysis window(s) of the requested family.

    ``gaussian`` and ``hann`` return a single window (``order`` is ignored
    for them); ``hermite`` returns the full bank of orders ``0..order`` as
    rows sharing one symmetric sampling grid, so the bank stays mutually
    orthogonal to sampling accuracy.  Every returned row has
    ``sum(h^2) == 1``.  A bank whose energies overflow (``hermite`` from
    order 150 or so) raises ``ValueError`` instead of returning rows of NaN
    or zeros.
    """
    if length < 2:
        raise ValueError(f"window length must be at least 2, got {length}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if kind == "gaussian":
        rows = _hermite_rows(0, length)
    elif kind == "hann":
        i = np.arange(length)
        rows = 0.5 * (1.0 - np.cos(2.0 * np.pi * i / (length - 1)))[None, :]
    elif kind == "hermite":
        rows = _hermite_rows(order, length)
    else:
        raise ValueError(f"unsupported window kind {kind!r}")
    with np.errstate(over="ignore"):
        energy = np.sum(rows * rows, axis=1, keepdims=True)
    if not np.all(np.isfinite(energy)):
        raise ValueError(f"{kind} window bank of order {order} overflows floating point")
    rows = rows / np.sqrt(energy)
    return rows[0] if kind in ("gaussian", "hann") else rows
