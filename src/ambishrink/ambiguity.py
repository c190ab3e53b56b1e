"""Lag-time moments, the empirical ambiguity function, and its normalization.

Grid conventions used throughout the package, for a series of length ``n``:

* lag rows: ``tau = -(n-1), ..., n-1`` stored as row ``r = tau + n - 1``;
* dual frequencies: ``nu_k = k / (2 n dt)`` for ``k = -n, ..., n-1`` stored
  as column ``c = k + n``;
* the lag-``tau`` moment sequence is supported on sample indices
  ``max(0, tau) <= t <= n - 1 + min(0, tau)``; entries off that support are
  identically zero.

The ambiguity transform is a plain DFT along time of each lag row, scaled
by ``dt``; one inverse DFT per row recovers the moments exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .series import AnalyticSeries, check_dt, check_n

__all__ = [
    "LagTimeMoments",
    "AmbiguityGrid",
    "NormalizationField",
    "raw_moments",
    "emaf",
    "normalization",
    "normalize",
    "denormalize",
    "smooth_kernel",
    "lag_support_mask",
    "lag_matrix",
    "check_delta",
]


def check_delta(delta: float) -> float:
    """The normalization exponent as a float, strictly inside ``(0, 1)``."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly inside (0, 1), got {delta!r}")
    return float(delta)


@cache
def _off_support(n: int) -> np.ndarray:
    """Read-only complement of :func:`lag_support_mask`, built once per length."""
    taus = np.arange(-(n - 1), n)[:, None]
    times = np.arange(n)[None, :]
    off = (times < np.maximum(0, taus)) | (times > n - 1 + np.minimum(0, taus))
    off.flags.writeable = False
    return off


def lag_support_mask(n: int) -> np.ndarray:
    """Boolean mask of shape ``(2n-1, n)``: True where lag row ``tau`` is supported."""
    return ~_off_support(n)


def lag_matrix(entries: np.ndarray) -> np.ndarray:
    """The ``n x n`` view ``B[t, s] = entries[t - s + n - 1, t]`` of a ``(2n-1, n)`` lag grid.

    Cell ``(t, s)`` is lag ``t - s`` at time ``t``; the view covers exactly
    the lag support, so writing through it fills that support.  It is built
    from the strides of ``entries`` itself, so any memory layout works.
    """
    n = entries.shape[-1]
    if entries.shape != (2 * n - 1, n):
        raise ValueError(f"expected shape (2n-1, n), got {entries.shape}")
    return _lag_view(entries)


def _lag_view(entries: np.ndarray) -> np.ndarray:
    """The :func:`lag_matrix` view of each ``(2n-1, n)`` grid of a stack, for a checked shape."""
    n = entries.shape[-1]
    *stack, rows, cols = entries.strides
    shape = (*entries.shape[:-2], n, n)
    return as_strided(entries[..., n - 1 :, :], shape=shape, strides=(*stack, rows + cols, -rows))


@dataclass(frozen=True)
class LagTimeMoments:
    """Second-moment estimates ``m[tau, t]`` on the lag/time grid.

    ``entries`` has shape ``(2n-1, n)``; row ``r`` holds lag ``tau = r - (n-1)``
    and entries outside the lag support must be zero.
    """

    entries: np.ndarray
    dt: float = 1.0
    n: int = field(init=False)

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2:
            raise ValueError(f"entries must be a 2-d grid, got shape {entries.shape}")
        rows, cols = entries.shape
        if rows != 2 * cols - 1:
            raise ValueError(f"expected shape (2n-1, n), got {entries.shape}")
        object.__setattr__(self, "n", check_n(cols))
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries contain NaN or infinity")
        object.__setattr__(self, "dt", check_dt(self.dt))
        if np.any(entries, where=_off_support(cols)):
            raise ValueError("entries must vanish outside the lag support")
        object.__setattr__(self, "entries", entries)

    def support_mask(self) -> np.ndarray:
        return lag_support_mask(self.n)

    def at(self, tau: int, t: int) -> complex:
        """Entry for lag ``tau`` at sample index ``t``."""
        if not -self.n < tau < self.n:
            raise ValueError(f"lag {tau} out of range for n={self.n}")
        if not 0 <= t < self.n:
            raise ValueError(f"time index {t} out of range for n={self.n}")
        return complex(self.entries[tau + self.n - 1, t])


@dataclass(frozen=True)
class AmbiguityGrid:
    """Ambiguity coefficients ``a[tau, nu_k]`` on the doubled dual-frequency grid.

    ``entries`` has shape ``(2n-1, 2n)``; row ``r`` holds lag ``tau = r - (n-1)``
    and column ``c`` holds dual frequency ``nu = (c - n) / (2 n dt)``.
    ``normalized`` records whether entries were divided by the square root of
    the variance field built with exponent ``delta``.
    """

    entries: np.ndarray
    dt: float = 1.0
    normalized: bool = False
    delta: float = 0.5
    n: int = field(init=False)

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2:
            raise ValueError(f"entries must be a 2-d grid, got shape {entries.shape}")
        rows, cols = entries.shape
        if cols % 2 != 0 or rows != cols - 1:
            raise ValueError(f"expected shape (2n-1, 2n), got {entries.shape}")
        object.__setattr__(self, "n", check_n(cols // 2))
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries contain NaN or infinity")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dt", check_dt(self.dt))
        object.__setattr__(self, "delta", check_delta(self.delta))

    def check_shape(self, what: str, shape: tuple[int, ...]) -> None:
        """Reject a field or kernel (named by ``what``) whose ``shape`` is not the grid's."""
        if shape != self.entries.shape:
            raise ValueError(f"{what} shape {shape} does not match grid shape {self.entries.shape}")

    def at(self, tau: int, k: int) -> complex:
        """Entry for lag ``tau`` and dual-frequency index ``k``."""
        if not -self.n < tau < self.n:
            raise ValueError(f"lag {tau} out of range for n={self.n}")
        if not -self.n <= k < self.n:
            raise ValueError(f"frequency index {k} out of range for n={self.n}")
        return complex(self.entries[tau + self.n - 1, k + self.n])


@dataclass(frozen=True)
class NormalizationField:
    """Variance field ``kappa`` of the white-noise coefficients, built with exponent ``delta``.

    ``kappa`` is a 2-d grid of finite, strictly positive values.
    """

    kappa: np.ndarray
    delta: float = 0.5

    def __post_init__(self) -> None:
        kappa = np.asarray(self.kappa, dtype=float)
        if kappa.ndim != 2:
            raise ValueError(f"kappa must be a 2-d grid, got shape {kappa.shape}")
        if not (np.all(np.isfinite(kappa)) and np.all(kappa > 0)):
            raise ValueError("the normalization field must be finite and strictly positive")
        object.__setattr__(self, "kappa", kappa)


def raw_moments(z: AnalyticSeries) -> LagTimeMoments:
    """Raw lag products ``z[t] * conj(z[t - tau])`` on the lag support."""
    return LagTimeMoments(_lag_products(z.samples), dt=z.dt)


def _lag_products(z: np.ndarray) -> np.ndarray:
    """The :func:`raw_moments` grid of each analytic record in a stack, shape ``(..., 2n-1, n)``."""
    n = z.shape[-1]
    entries = np.zeros((*z.shape[:-1], 2 * n - 1, n), dtype=complex)
    # an overflowing product is reported by LagTimeMoments as non-finite entries
    with np.errstate(over="ignore", invalid="ignore"):
        # z[t] * conj(z[s]), each record's np.outer(z, z.conj()) product
        _lag_view(entries)[...] = z[..., :, None] * z.conj()[..., None, :]
    return entries


def _emaf_rows(rows: np.ndarray, dt: float) -> np.ndarray:
    """The :func:`emaf` coefficients of any stack of lag rows, each transformed on its own."""
    n = rows.shape[-1]
    spectra = np.fft.fft(rows, n=2 * n, axis=-1)
    # fftshift and the dt scale in one pass: column k + n holds bin k mod 2n
    shifted = np.empty_like(spectra)
    # an overflowing coefficient is reported by AmbiguityGrid as a non-finite entry
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(dt, spectra[..., n:], out=shifted[..., :n])
        np.multiply(dt, spectra[..., :n], out=shifted[..., n:])
    return shifted


def emaf(m: LagTimeMoments) -> AmbiguityGrid:
    """Empirical ambiguity function: ``dt``-scaled DFT of each lag row.

    ``a[tau, nu_k] = dt * sum_t m[tau, t] exp(-2i pi nu_k t dt)`` evaluated on
    the doubled grid ``nu_k = k / (2 n dt)`` by zero-padding rows to ``2n``.
    """
    return AmbiguityGrid(_emaf_rows(m.entries, m.dt), dt=m.dt)


def _kappa(n: int, dt: float, delta: float, taus: np.ndarray) -> np.ndarray:
    """The :func:`normalization` field on the lag rows ``taus`` alone, for checked arguments."""
    span = (n - np.abs(taus[:, None])).astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        nus = np.abs(np.arange(-n, n))[None, :] / (2 * n * dt)
        band = np.maximum(1.0 / (2 * dt) - nus, 1.0 / (2 * n * dt))
        return span ** (4 * delta - 1) * band / dt


def normalization(n: int, dt: float = 1.0, delta: float = 0.5) -> NormalizationField:
    """Variance field of the white-noise ambiguity coefficients.

    For lag ``tau`` and dual frequency ``nu``,

    ``kappa = (n - |tau|)^(4 delta - 1) * (1/dt) * max(1/(2 dt) - |nu|, 1/(2 n dt))``

    The inner ``max`` clamps the shrinking bandwidth at the grid resolution so
    the field stays strictly positive out to the edge column ``k = -n``.  A
    ``dt`` so small that ``kappa`` overflows is rejected by
    :class:`NormalizationField`, without a floating-point warning.
    """
    n, dt, delta = check_n(n), check_dt(dt), check_delta(delta)
    return NormalizationField(_kappa(n, dt, delta, np.arange(-(n - 1), n)), delta)


def _normalized(entries: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Coefficients divided by ``sqrt(kappa)``, cell by cell, on any rows."""
    with np.errstate(over="ignore", invalid="ignore"):  # as in _emaf_rows
        return entries / np.sqrt(kappa)


def normalize(a: AmbiguityGrid, f: NormalizationField) -> AmbiguityGrid:
    """Divide entries by ``sqrt(kappa)`` so white-noise coefficients sit on a flat scale."""
    if a.normalized:
        raise ValueError("grid is already normalized")
    a.check_shape("field", f.kappa.shape)
    return replace(a, entries=_normalized(a.entries, f.kappa), normalized=True, delta=f.delta)


def denormalize(a: AmbiguityGrid, f: NormalizationField) -> AmbiguityGrid:
    """Undo :func:`normalize` by multiplying entries back with ``sqrt(kappa)``."""
    if not a.normalized:
        raise ValueError("grid is not normalized")
    a.check_shape("field", f.kappa.shape)
    if f.delta != a.delta:
        raise ValueError(f"grid was normalized with delta={a.delta!r}, field has {f.delta!r}")
    return replace(a, entries=a.entries * np.sqrt(f.kappa), normalized=False)


def smooth_kernel(a: AmbiguityGrid, omega: np.ndarray) -> AmbiguityGrid:
    """Multiply the grid entrywise by a taper ``omega`` with ``|omega| <= 1``."""
    omega = np.asarray(omega)
    a.check_shape("kernel", omega.shape)
    if not np.all(np.abs(omega) <= 1 + 1e-12):
        raise ValueError("kernel magnitude exceeds 1")
    return replace(a, entries=a.entries * omega)
