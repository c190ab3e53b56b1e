"""Distributional diagnostics and estimation-risk summaries.

Three consumers of the pipeline live here: QQ data extraction for checking
the complex-normal background model of normalized ambiguity coefficients,
covariance risk reports comparing shrunk and raw estimates against a known
truth, and a Monte Carlo probe measuring how much coefficient thresholding
reduces the variance of a single moment estimate under white noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .ambiguity import AmbiguityGrid
from .covariance import HermitianCovariance
from .procgen import TheoreticalCovariance, gen_white_noise
from .shrinkage import _shrunk_rows

__all__ = [
    "QQ_POINTS",
    "QQData",
    "RiskReport",
    "qq_normalized_af",
    "qq_ranks",
    "risk_report",
    "variance_reduction_probe",
]


@dataclass(frozen=True)
class QQData:
    """Sorted sample quantiles paired with standard-normal positions."""

    sample_quantiles: np.ndarray
    theoretical_quantiles: np.ndarray

    def __post_init__(self) -> None:
        sample = np.asarray(self.sample_quantiles, dtype=float)
        theory = np.asarray(self.theoretical_quantiles, dtype=float)
        if sample.ndim != 1 or sample.shape != theory.shape:
            raise ValueError(
                f"quantile sequences must be 1-d and equally long, "
                f"got {sample.shape} and {theory.shape}"
            )
        if not (np.all(np.diff(sample) >= 0) and np.all(np.diff(theory) >= 0)):
            raise ValueError("quantile sequences must be sorted ascending")
        object.__setattr__(self, "sample_quantiles", sample)
        object.__setattr__(self, "theoretical_quantiles", theory)


@dataclass(frozen=True)
class RiskReport:
    """Elementwise and Frobenius comparison of two estimates to a truth.

    ``normalized_error`` is the shrunk estimate's elementwise error grid;
    ``frobenius_ratio`` is its Frobenius error divided by the raw
    estimate's, with ``inf`` marking a degenerate zero-error denominator.
    """

    normalized_error: np.ndarray
    frobenius_ratio: float

    def __post_init__(self) -> None:
        err = np.asarray(self.normalized_error, dtype=float)
        if err.ndim != 2 or not np.all(err >= 0):
            raise ValueError("normalized_error must be a nonnegative 2-d grid")
        if not self.frobenius_ratio >= 0:
            raise ValueError(f"frobenius_ratio must be >= 0, got {self.frobenius_ratio!r}")
        object.__setattr__(self, "normalized_error", err)
        object.__setattr__(self, "frobenius_ratio", float(self.frobenius_ratio))


QQ_POINTS = 1001


def qq_ranks(count: int) -> np.ndarray:
    """Zero-based ranks of the order statistics a QQ plot of ``count`` values keeps.

    All ``count`` ranks up to :data:`QQ_POINTS` values; beyond that the
    :data:`QQ_POINTS` ranks ``floor(i (count - 1) / (QQ_POINTS - 1))``,
    evenly spaced from the first to the last, so both extremes are kept.
    """
    if count <= QQ_POINTS:
        return np.arange(count)
    return np.arange(QQ_POINTS) * (count - 1) // (QQ_POINTS - 1)


def qq_normalized_af(a: AmbiguityGrid, vbar: float) -> tuple[QQData, QQData]:
    """Plot-sized QQ data of the real and imaginary parts of a normalized grid, in that order.

    All ``m`` off-origin coefficients are standardized by ``sqrt(vbar / 2)``,
    the per-component standard deviation the background model implies, and
    sorted.  The order statistics at :func:`qq_ranks` ``(m)`` are kept, each
    paired with the standard-normal quantile at its own plotting position
    ``(i - 0.5) / m`` (``i = rank + 1``), so every kept pair is exactly the
    pair the full QQ plot holds at that rank.  Under a pure-noise grid both
    components should hug the identity line; signal shows up as heavy
    extreme quantiles.
    """
    if not a.normalized:
        raise ValueError("qq_normalized_af expects a normalized grid")
    flat = a.entries.ravel()
    origin = (a.n - 1) * (2 * a.n) + (a.n)
    # one real copy per part, half a complex grid at a time
    parts = (flat.real, flat.imag)
    return tuple(_qq_data(np.concatenate((p[:origin], p[origin + 1 :])), vbar) for p in parts)


def _qq_data(values: np.ndarray, vbar: float) -> QQData:
    """The :func:`qq_normalized_af` data of one part's off-origin ``values``, sorted in place."""
    if not (np.isfinite(vbar) and vbar > 0):
        raise ValueError(f"vbar must be positive, got {vbar!r}")
    count = values.size
    if count < 10:
        raise ValueError(f"need at least 10 coefficients, got {count}")
    ranks = qq_ranks(count)
    values /= np.sqrt(vbar / 2.0)
    values.sort()
    return QQData(values[ranks], ndtri((ranks + 0.5) / count))


def risk_report(
    est: HermitianCovariance,
    raw: HermitianCovariance,
    truth: TheoreticalCovariance,
) -> RiskReport:
    """Compare a shrunk and a raw covariance estimate to the exact truth.

    The elementwise error grid is ``|est - truth|`` over a scale that is
    the truth magnitude floored at ``1e-12`` times its largest entry, so
    structural zeros in the truth do not blow up the picture.  The headline
    number is the ratio of Frobenius errors, shrunk over raw.  Neither
    estimate is decomposed, and the norms are summed without BLAS, whose
    threaded dot product rounds differently with the thread count.
    """
    t = truth.entries
    if est.entries.shape != t.shape or raw.entries.shape != t.shape:
        raise ValueError(
            f"dimension mismatch: est {est.entries.shape}, raw {raw.entries.shape}, "
            f"truth {t.shape}"
        )
    peak = np.max(np.abs(t))
    scale = np.maximum(np.abs(t), 1e-12 * peak) if peak > 0 else np.ones_like(t, dtype=float)
    err_grid = np.abs(est.entries - t) / scale
    num, den = (
        float(np.sqrt(np.sum(d.real * d.real + d.imag * d.imag)))
        for d in (est.entries - t, raw.entries - t)
    )
    if num == 0.0:
        ratio = 0.0
    elif den == 0.0:
        ratio = float("inf")
    else:
        ratio = num / den
    return RiskReport(err_grid, ratio)


def _probe_entries(n: int, seeds: range) -> tuple[np.ndarray, np.ndarray]:
    """The probe's ``(raw, shrunk)`` entries of the white-noise records drawn with ``seeds``.

    The records run as one stack; ``raw`` is a copy, so its lag products are freed on return.
    """
    tau, t, dt = 5, max(n // 2, 5), 1.0
    samples = np.stack([gen_white_noise(n, seed=s, dt=dt).samples for s in seeds])
    m_raw, _, _, live, rows = _shrunk_rows(samples, dt, 0.5, slice(tau, tau + 1))
    eb_vals = np.zeros(len(seeds), dtype=complex)
    eb_vals[live] = rows[:, t]  # live indexes the records whose lag row kept a cell
    return m_raw[:, tau + n - 1, t].copy(), eb_vals


def _probe_walk(
    n: int, seeds: range, claims: np.ndarray, raw: np.ndarray, eb: np.ndarray, backward: bool = False
) -> None:
    """Run the probe's blocks of ``seeds`` into ``raw`` and ``eb``.

    A block is as many records as fit their raw lag products in 2 MiB, and
    at least one, counted from the first of ``seeds``.  The walk goes from
    the first block on, or with ``backward`` from the last one back.  It
    claims each block at its first record's byte of ``claims`` before it
    runs the block, and stops at the first block already claimed, so walks
    that share ``claims`` split the blocks; where two meet both may run one
    block, with identical bits.
    """
    size = max(1, 2**21 // ((2 * n - 1) * n * np.dtype(complex).itemsize))
    for start in range(0, len(seeds), size)[:: -1 if backward else 1]:
        if claims[start]:
            break
        claims[start] = 1
        span = slice(start, start + size)
        raw[span], eb[span] = _probe_entries(n, seeds[span])


def variance_reduction_probe(n: int, reps: int, seed: int) -> tuple[float, float]:
    """Monte Carlo variance of one shrunk moment entry versus its raw value.

    Each replicate draws unit white noise of length ``n`` and records the
    moment at lag 5 and time ``max(n // 2, 5)``, which lies on that lag's
    support for every ``n >= 8``, from the raw lag products and from the
    :func:`~ambishrink.shrinkage.shrink` estimate.  Only what that entry
    needs is computed: the chain ``shrink`` runs, thresholded and inverted
    on lag row 5 alone, which gives the entry bit for bit as ``shrink``
    does.

    The replicates run in the blocks of :func:`_probe_walk`, each one stack
    of records for that chain: 16 records at ``n = 64``, 4 at ``n = 128``,
    and one from ``n = 182`` up, where the probe runs record by record.
    Every row is transformed on its own, so the block size, and any split of
    the blocks between walks, moves no bit.  A replicate whose fit exhausts
    its search budget still contributes its best parameters, so long runs do
    not abort on one stubborn draw.
    Returns ``(var_eb, var_raw)`` over the replicates.
    """
    if reps < 100:
        raise ValueError(f"need at least 100 replicates, got {reps}")
    if n < 8:
        raise ValueError(f"series length must be at least 8, got {n}")
    raw, eb = np.empty(reps, dtype=complex), np.empty(reps, dtype=complex)
    _probe_walk(n, range(seed, seed + reps), np.zeros(reps, np.uint8), raw, eb)
    return float(np.var(eb)), float(np.var(raw))
