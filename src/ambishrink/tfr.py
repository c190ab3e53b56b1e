"""Bilinear time-frequency surfaces computed from lag-time moment grids.

A moment grid (raw, shrunk, or exact) is turned into a surface over time
and frequency by Fourier transforming the lag axis, optionally after
smoothing in time and re-centering the moment argument, as ``dt sum_tau
sum_j p_j M_tau(...) exp(...)`` for one time profile ``p`` of per-sample
weights (:func:`bilinear`).  The ``alpha`` parameter selects the member of
the bilinear family: ``alpha = 1/2`` evaluates moments exactly on the
sample grid (Rihaczek), ``alpha = 0`` needs the moment at half-integer
times (Wigner).  Each lag row ``tau`` is read at ``t + (1/2 - alpha) tau``,
one shift per row, interpolating linearly between the two neighbouring
samples.  Every surface is time-major, one C-contiguous row per time;
spectrograms share the frequency grid, each window a view of the padded record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _lag_axis_transform(rows: np.ndarray, n: int, dt: float) -> np.ndarray:
    """``dt`` times the DFT over lag, time-major, onto the ``2 n`` frequency columns.

    ``rows`` has one row per lag ``tau in [-(n-1), n-1]``; the result has one
    C-contiguous row per column of ``rows``, frequencies ``j in [-n, n)`` along it.
    Lags are placed modulo ``2 n`` along the last axis so a single FFT evaluates
    ``sum_tau rows[tau] exp(-2 pi i j tau / (2 n))`` exactly.
    """
    padded = np.zeros(rows.shape[1:] + (2 * n,), dtype=complex)
    padded[:, :n] = rows[n - 1 :].T
    padded[:, n + 1 :] = rows[: n - 1].T
    padded = np.fft.fft(padded, axis=-1)
    shifted = np.fft.fftshift(padded, axes=-1)
    return np.multiply(dt, shifted, out=shifted)  # dt first: x *= dt gives underflowed zeros other signs


def _interpolated_moment_rows(m: LagTimeMoments, alpha: float) -> np.ndarray:
    """Moment rows re-centered at ``t = k + (1/2 - alpha) tau``.

    Each lag row ``tau`` is shifted by one ``s = (1/2 - alpha) tau``, split
    into an offset ``floor(s)`` and a fraction ``f``: cell ``k`` blends the
    samples ``k + floor(s)`` and ``k + floor(s) + 1`` with weights ``1 - f``
    and ``f``, read as one window of ``n + 1`` samples from a zero-padded
    copy of the row, so times outside ``[0, n-1]`` contribute zero, matching
    the support of the raw estimator.  For ``alpha = 1/2`` the argument is
    always on-grid and the rows come back unchanged.
    """
    if alpha == 0.5:
        return m.entries
    n = m.n
    shift = (0.5 - alpha) * np.arange(-(n - 1), n)
    lo = np.floor(shift).astype(int)
    frac = (shift - lo)[:, None]
    left = max(0, -lo.min())
    padded = np.pad(m.entries, ((0, 0), (left, max(0, lo.max() + 1))))
    taps = sliding_window_view(padded, n + 1, axis=1)[np.arange(2 * n - 1), left + lo]
    del padded  # 1 + |1 - 2 alpha| grids wide; freed before the blend
    return (1.0 - frac) * taps[:, :-1] + frac * taps[:, 1:]


def bilinear(m: LagTimeMoments, alpha: float = 0.5, kernel: np.ndarray | None = None) -> TFRGrid:
    """Bilinear surface of the moment grid at re-centering ``alpha``.

    Computes ``S(t dt, f) = dt sum_tau sum_j p_j M_tau(t + j - c + (1/2 -
    alpha) tau) exp(-2 pi i tau f dt)``, times counted in samples and
    moments off the record zero.  ``kernel`` is one profile ``p`` of
    dimensionless per-sample weights, centred on ``c = (len(p) - 1) // 2``,
    that smooths every lag row alike in time; ``None`` is ``[1]``, no
    smoothing, and leaves the rows as they are.  The smoothing is one FFT
    convolution along time, less the taps that cannot reach the record.
    """
    alpha = check_alpha(alpha)
    n = m.n
    rows = _interpolated_moment_rows(m, alpha)
    if kernel is not None:
        p = np.asarray([] if callable(kernel) else kernel, dtype=float)
        if p.ndim != 1 or p.size == 0 or not np.all(np.isfinite(p)):
            raise ValueError("kernel must be a non-empty 1-d array of finite weights")
        c = (p.size - 1) // 2
        p = p[max(0, c - n + 1) : c + n]  # only offsets -(n-1) .. n-1 reach the record
        start, size = p.size - 1 - min(c, n - 1), n + p.size - 1
        with np.errstate(over="ignore", invalid="ignore"):  # as in ambiguity._emaf_rows
            spectra = np.fft.fft(rows, n=size, axis=-1)
            spectra *= np.fft.fft(p[::-1], n=size)
            rows = np.fft.ifft(spectra, axis=-1)[:, start : start + n]
    return TFRGrid(_lag_axis_transform(rows, n, m.dt), dt=m.dt)


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
    c = (h.size - 1) // 2
    padded = np.pad(np.asarray(z.samples, dtype=complex), (c, h.size - 1 - c))
    # row t holds samples t - c .. t - c + L - 1; the phase its offset adds drops out of |.|^2
    windowed = sliding_window_view(padded, h.size) * h
    spectra = np.fft.fft(windowed, n=2 * n, axis=1)
    values = np.fft.fftshift(z.dt * np.abs(spectra) ** 2, axes=1)
    return TFRGrid(values.astype(complex), dt=z.dt)


def dual_frequency(a: AmbiguityGrid) -> np.ndarray:
    """Dual-frequency spectrum: per-column DFT of the ambiguity grid over lag.

    Returns a complex grid indexed ``(nu, f)``, both on the doubled dual
    grid, with entries ``dt * sum_tau A_tau(nu) exp(-2 pi i f tau dt)``.
    """
    return _lag_axis_transform(a.entries, a.n, a.dt)


def _hermite_rows(order: int, length: int) -> np.ndarray:
    span = np.sqrt(2.0 * order + 1.0) + 4.0
    x = np.linspace(-span, span, length)
    envelope = np.exp(-0.5 * x * x)
    # high orders overflow to inf or NaN; window_bank rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        return np.polynomial.hermite.hermvander(x, order).T * envelope


def window_bank(kind: str, order: int, length: int) -> np.ndarray:
    """Unit-energy analysis window(s) of the requested family.

    ``gaussian`` and ``hann`` return a single window (``order`` is ignored
    for them); ``hermite`` returns the full bank of orders ``0..order`` as
    rows sharing one symmetric sampling grid, so the bank stays mutually
    orthogonal to sampling accuracy.  Every returned row has
    ``sum(h^2) == 1``.  A bank whose energies overflow (``hermite`` from
    order 150 or so) or vanish (``hann`` of length 2) raises ``ValueError``
    instead of returning rows of NaN or zeros.
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
    if not np.all(energy > 0):
        raise ValueError(f"{kind} window of length {length} has zero energy")
    rows = rows / np.sqrt(energy)
    return rows[0] if kind in ("gaussian", "hann") else rows
