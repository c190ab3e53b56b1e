"""Covariance assembly from lag-time moments, with eigenvalue repair.

The ambiguity transform is inverted row by row, the resulting moments are
laid out as a matrix ``B[t, t - tau] = m[tau, t]``, and the Hermitian part
is kept.  Estimated matrices routinely carry small negative eigenvalues;
``correct`` repairs them either by shifting the whole spectrum or by
clipping the negative part.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import eigh

from .ambiguity import AmbiguityGrid, LagTimeMoments, _off_support, lag_matrix
from .series import _finite

__all__ = ["CORRECTIONS", "HermitianCovariance", "invert_af", "assemble", "correct"]

CORRECTIONS = ("shift", "clip")


@cache
def _bundled_openblas() -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS libraries bundled with scipy and with numpy that have a thread-local thread cap."""
    libs = []
    for package in (scipy, np):
        root = Path(package.__file__).parent
        # Linux and Windows wheels keep it in <package>.libs, macOS wheels in <package>/.dylibs.
        bundled = [*root.parent.glob(f"{root.name}.libs/libscipy_openblas*"), *root.glob(".dylibs/libscipy_openblas*")]
        for path in sorted(bundled):
            try:
                lib = ctypes.CDLL(str(path))
                lib.openblas_set_num_threads_local.argtypes = [ctypes.c_int]
                lib.openblas_set_num_threads_local.restype = ctypes.c_int
            except (OSError, AttributeError):
                continue
            libs.append(lib)
            break
    return tuple(libs)


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Cap the OpenBLAS of scipy and of numpy at one thread for the calling thread inside the block.

    The eigensolver of :func:`correct` runs on scipy's OpenBLAS and the
    product of its eigenvectors on numpy's.  With two threads allowed, the
    pool's workers spin on a second core, during the call and after it, so
    either call takes up to twice the CPU time and, on a shared machine,
    more wall time too.
    """
    libs = _bundled_openblas()
    previous = [lib.openblas_set_num_threads_local(1) for lib in libs]
    try:
        yield
    finally:
        for lib, count in zip(libs, previous):
            lib.openblas_set_num_threads_local(count)


@dataclass(frozen=True)
class HermitianCovariance:
    """Finite covariance matrix, Hermitian to ``1e-10`` of its largest entry, in any memory layout.

    :meth:`min_eigenvalue` asks the eigensolver for the smallest eigenvalue
    alone, on first use.  :func:`correct` records it on its input and its
    result from the one decomposition it makes, so neither is decomposed
    again.
    """

    entries: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        _finite(entries, "entries")
        if np.max(np.abs(entries - entries.conj().T)) > 1e-10 * np.max(np.abs(entries)):
            raise ValueError("entries are not Hermitian")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n", entries.shape[0])

    @cached_property
    def _min_eig(self) -> float:
        with _one_blas_thread():
            low = eigh(self.entries, eigvals_only=True, subset_by_index=[0, 0])
        return float(low[0])

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    def min_eigenvalue(self) -> float:
        return self._min_eig


def _inverted_rows(
    entries: np.ndarray, dt: float, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero rows of any stack of grid rows, as indices, and their :func:`invert_af` moments.

    ``off`` marks the cells off the lag support of those rows; each row is
    transformed on its own.
    """
    n = entries.shape[1] // 2
    live = np.flatnonzero(np.any(entries != 0, axis=1))
    spectra = np.fft.ifftshift(entries[live], axes=1)
    rows = np.fft.ifft(spectra, axis=1)[:, :n] / dt
    rows[off[live]] = 0.0
    return live, rows


def invert_af(a: AmbiguityGrid) -> LagTimeMoments:
    """Inverse ambiguity transform: one inverse DFT per lag row.

    ``m[tau, t] = 1/(2 n dt) * sum_k a[tau, nu_k] exp(2i pi nu_k t dt)`` for
    ``t`` on the lag support; entries off the support hold ``+0.0`` so the
    result is a valid lag-time moment grid.  Only the rows holding a nonzero
    coefficient are transformed; the others invert to exact zeros.
    Normalized grids must be denormalized first.
    """
    if a.normalized:
        raise ValueError("grid is normalized; denormalize before inverting")
    live, rows = _inverted_rows(a.entries, a.dt, _off_support(a.n))
    entries = np.zeros((2 * a.n - 1, a.n), dtype=complex)
    entries[live] = rows
    return LagTimeMoments(entries, dt=a.dt)


def assemble(m: LagTimeMoments) -> HermitianCovariance:
    """Arrange moments as ``B[t, t - tau] = m[tau, t]`` and keep the Hermitian part."""
    b = lag_matrix(m.entries)
    return HermitianCovariance(0.5 * (b + b.conj().T))


def _known_min(c: HermitianCovariance, low: float) -> HermitianCovariance:
    """``c``, whose smallest eigenvalue ``low`` the caller already holds."""
    object.__setattr__(c, "_min_eig", low)
    return c


def correct(c: HermitianCovariance, method: str = "clip") -> HermitianCovariance:
    """Repair negative eigenvalues by spectrum shift or eigenvalue clipping.

    ``shift`` adds ``-min_eig * I`` when the smallest eigenvalue is negative
    and leaves an already nonnegative matrix untouched; it needs only that
    eigenvalue.  ``clip`` subtracts ``V diag(lam) V^H`` over the negative
    eigenpairs ``(lam, V)``, which one ``scipy.linalg.eigh`` call returns
    together with the smallest eigenvalue: it asks for the eigenvalues up to
    the larger of zero and the smallest diagonal entry, plus a rounding
    margin, and the smallest eigenvalue lies at or below every diagonal
    entry.  That value-range search fails on some matrices far below unit
    size (LAPACK's "Internal Error"), so it runs on ``c`` divided by the
    power of two that brings ``max|c|`` into ``[1/2, 1)``, which rounds
    nothing.  Either way the result has eigenvalues bounded below by a
    rounding-level multiple of the trace.
    """
    if method not in CORRECTIONS:
        raise ValueError(f"method must be 'shift' or 'clip', got {method!r}")
    if method == "shift":
        low = c.min_eigenvalue()
        entries = c.entries - low * np.eye(c.n) if low < 0 else c.entries
        return _known_min(HermitianCovariance(entries), max(low, 0.0))
    big = float(np.max(np.abs(c.entries)))
    top = max(float(np.min(np.real(np.diag(c.entries)))), 0.0)
    # rounding margin: n eps times n max|c|, a bound on the spectral norm
    top += c.n**2 * np.finfo(float).eps * big
    scale = np.ldexp(1.0, np.frexp(big)[1])
    with _one_blas_thread():
        lam, vecs = eigh(c.entries / scale, subset_by_value=(-np.inf, top / scale))
        lam *= scale
        neg = lam < 0
        entries = c.entries - (vecs[:, neg] * lam[neg]) @ vecs[:, neg].conj().T
    low = float(lam[0])
    _known_min(c, low)
    return _known_min(HermitianCovariance(0.5 * (entries + entries.conj().T)), max(low, 0.0))
