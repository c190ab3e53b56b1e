"""Fixtures shared by several test modules."""

import numpy as np
import pytest

import ambishrink.covariance as covariance
from ambishrink.series import analytic_spectrum_weights


@pytest.fixture
def eig_calls(monkeypatch):
    """Record calls of ``np.linalg.eigh``, ``np.linalg.eigvalsh`` and the ``eigh`` of ``covariance``.

    Each call is recorded as the function's name and the shape of the matrix
    it decomposes, such as ``("eigh", (3, 3))``.
    """
    calls = []
    for namespace, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (covariance, "eigh")):
        original = getattr(namespace, name)

        def counted(a, *args, _original=original, **kwargs):
            calls.append((_original.__name__, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(namespace, name, counted)
    return calls


def emaf_variance_field(real_cov: np.ndarray, dt: float = 1.0) -> np.ndarray:
    """Exact variance of each EMAF cell of a zero-mean Gaussian record whose covariance is ``real_cov``.

    The pipeline transforms ``z = P D x``, where ``D`` removes the mean and
    ``P`` is the analytic-signal operator.  Its covariance is
    ``C = P D Cr D P*`` and its relation matrix ``R = P D Cr D P^T``.  By
    Isserlis' theorem the lag products ``m(tau, t) = z_t conj z_{t-tau}``
    on the support ``t, s in [tau, n)`` have the covariance
    ``S(t, s) = C(t, s) conj C(t-tau, s-tau) + R(t, s-tau) conj R(t-tau, s)``.
    Summed along its diagonals ``d = t - s`` into ``S(d)``, it gives
    ``Var a(tau, k) = dt^2 sum_d S(d) exp(-i pi k d / n)``, one FFT of length
    ``2n`` per lag row, placed at column ``k + n`` as the EMAF places it.
    Returns the ``(n, 2n)`` rows ``tau >= 0``; a row ``-tau`` holds the
    variances of row ``tau`` at the columns ``-k``.  Cell ``(0, -n)`` is
    identically zero for an analytic record, so its value is rounding.
    """
    n = real_cov.shape[0]
    w = analytic_spectrum_weights(n)
    centred = real_cov - real_cov.mean(axis=0)
    centred -= centred.mean(axis=1, keepdims=True)
    left = np.fft.ifft(w[:, None] * np.fft.fft(centred, axis=0), axis=0)  # P D Cr D
    rel = np.fft.ifft(w * np.fft.fft(left, axis=1), axis=1)  # (P (P D Cr D)^T)^T = R
    cov = np.fft.ifft(w * np.fft.fft(left.conj(), axis=1), axis=1).conj()  # the same with P* = C
    diagonal = np.subtract.outer(np.arange(n), np.arange(n)) % (2 * n)  # t - s, mod 2n
    field = np.empty((n, 2 * n))
    for tau in range(n):
        m = n - tau
        terms = cov[tau:, tau:] * cov[:m, :m].conj() + rel[tau:, :m] * rel[:m, tau:].conj()
        index = diagonal[:m, :m].ravel()
        sums = np.bincount(index, terms.real.ravel(), 2 * n)
        sums = sums + 1j * np.bincount(index, terms.imag.ravel(), 2 * n)
        row = dt * dt * np.fft.fft(sums)
        field[tau] = np.concatenate((row[n:], row[:n])).real  # S(-d) = conj S(d): a real row
    return field
