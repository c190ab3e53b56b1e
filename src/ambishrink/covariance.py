"""Covariance assembly from lag-time moments, with eigenvalue repair.

The ambiguity transform is inverted row by row, the resulting moments are
laid out as a matrix ``B[t, t - tau] = m[tau, t]``, and the Hermitian part
is kept.  Estimated matrices routinely carry small negative eigenvalues;
``correct`` repairs them either by shifting the whole spectrum or by
clipping the negative part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ambiguity import AmbiguityGrid, LagTimeMoments, lag_index, lag_support_mask

__all__ = ["CORRECTIONS", "HermitianCovariance", "invert_af", "assemble", "correct"]

CORRECTIONS = ("shift", "clip")


@dataclass(frozen=True)
class HermitianCovariance:
    """Hermitian covariance estimate.

    ``eigenvalues`` are real and sorted in non-increasing order.  They come
    from one ``np.linalg.eigh`` of ``entries``, run on first use and shared
    with :func:`correct`, whose result is handed the spectrum it already
    knows and is never decomposed.
    """

    entries: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        if not np.all(np.isfinite(entries.view(float))):
            raise ValueError("entries contain NaN or infinity")
        scale = max(float(np.max(np.abs(entries))), 1.0)
        if np.max(np.abs(entries - entries.conj().T)) > 1e-10 * scale:
            raise ValueError("entries are not Hermitian")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n", entries.shape[0])

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of ``entries``."""
        return np.linalg.eigh(self.entries)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh[0][::-1].copy()

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


def invert_af(a: AmbiguityGrid) -> LagTimeMoments:
    """Inverse ambiguity transform: one inverse DFT per lag row.

    ``m[tau, t] = 1/(2 n dt) * sum_k a[tau, nu_k] exp(2i pi nu_k t dt)`` for
    ``t`` on the lag support; entries off the support are zeroed so the
    result is a valid lag-time moment grid.  Only the rows holding a nonzero
    coefficient are transformed; the others invert to exact zeros.
    Normalized grids must be denormalized first.
    """
    if a.normalized:
        raise ValueError("grid is normalized; denormalize before inverting")
    n = a.n
    live = np.flatnonzero(np.any(a.entries != 0, axis=1))
    spectra = np.fft.ifftshift(a.entries[live], axes=1)
    rows = np.fft.ifft(spectra, axis=1) / a.dt
    entries = np.zeros((2 * n - 1, n), dtype=complex)
    entries[live] = rows[:, :n] * lag_support_mask(n)[live]
    return LagTimeMoments(entries, dt=a.dt)


def assemble(m: LagTimeMoments) -> HermitianCovariance:
    """Arrange moments as ``B[t, t - tau] = m[tau, t]`` and keep the Hermitian part."""
    b = m.entries[lag_index(m.n)]
    return HermitianCovariance(0.5 * (b + b.conj().T))


def _with_spectrum(entries: np.ndarray, ascending: np.ndarray) -> HermitianCovariance:
    """The covariance of ``entries``, whose ``ascending`` eigenvalues the caller already holds."""
    out = HermitianCovariance(entries)
    object.__setattr__(out, "eigenvalues", ascending[::-1].copy())
    return out


def correct(c: HermitianCovariance, method: str = "clip") -> HermitianCovariance:
    """Repair negative eigenvalues by spectrum shift or eigenvalue clipping.

    ``shift`` adds ``-min_eig * I`` when the smallest eigenvalue is negative
    and leaves an already nonnegative matrix untouched.  ``clip`` replaces
    negative eigenvalues with zero in the eigenbasis.  Either way the result
    has eigenvalues bounded below by a rounding-level multiple of the trace.
    """
    if method not in CORRECTIONS:
        raise ValueError(f"method must be 'shift' or 'clip', got {method!r}")
    eigvals, eigvecs = c._eigh
    if method == "shift":
        low = min(float(eigvals[0]), 0.0)
        entries = c.entries - low * np.eye(c.n) if low < 0 else c.entries
        return _with_spectrum(entries, eigvals - low)
    clipped = np.maximum(eigvals, 0.0)
    entries = (eigvecs * clipped) @ eigvecs.conj().T
    return _with_spectrum(0.5 * (entries + entries.conj().T), clipped)
