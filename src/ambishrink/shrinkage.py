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

import math
import sys
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from scipy.special import expit, logit, ndtr, ndtri

from .ambiguity import (
    AmbiguityGrid,
    LagTimeMoments,
    NormalizationField,
    _emaf_rows,
    _in_row_blocks,
    _kappa,
    _lag_products,
    _normalized,
    _off_support,
    check_delta,
)
from .covariance import _inverted_rows
from .series import TimeSeries, _analytic_rows, _demeaned, _finite, check_dt

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
        if not (np.all(theta >= 0) and np.all(theta <= 1)):
            raise ValueError("theta values must lie in [0, 1]")
        if theta[(rows - 1) // 2, cols // 2] != 1.0:
            raise ValueError("the origin coefficient must keep theta = 1")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "dt", check_dt(self.dt))


class FitConvergenceError(RuntimeError):
    """Raised when the mixture search exhausts its step budget.

    Carries the best parameters seen so far in ``best`` so callers can
    report or persist them.
    """

    def __init__(self, message: str, best: ShrinkageParams):
        super().__init__(message)
        self.best = best

    def __reduce__(self) -> tuple[type, tuple[str, ShrinkageParams]]:
        # unpickling calls the class with ``args``, which would leave out ``best``
        return type(self), (self.args[0], self.best)


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


def _expit_softplus(d: np.ndarray, out: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``expit(d)`` and ``softplus(d) = log(1 + e^d)``, both from one ``e = exp(-|d|)``.

    ``expit(d)`` is ``1 / (1 + e)`` for ``d >= 0`` and ``e / (1 + e)``
    below, and ``softplus(d) = max(d, 0) + log1p(e)``; neither overflows.
    ``out`` holds three float arrays of ``d``'s shape that the kernel
    overwrites in full: a scratch array, then ``expit`` and ``softplus``,
    which it returns.
    """
    e, r, softplus = out
    np.abs(d, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # e <= 1, so the numerator 1 or e is max(e, [d >= 0]); it waits in r
    np.greater_equal(d, 0.0, out=r)
    np.maximum(e, r, out=r)
    np.add(e, 1.0, out=softplus)  # 1 + e, until log1p(e) replaces it
    np.divide(r, softplus, out=r)
    np.log1p(e, out=softplus)
    np.maximum(d, 0.0, out=e)
    np.add(e, softplus, out=softplus)
    return r, softplus


# Worst relative gap between an EMAF block magnitude and its point mirror, on
# aggregation records at dt 1 and 0.37: 7.9e-16 (n=9), 4.2e-15 (n=64), 6.6e-14
# (n=512), 4.7e-13 (n=1024), 5.8e-13 (n=2048).  1e-10 is over 100x the largest.
_MIRROR_RTOL = 1e-10


@cache
def _block_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weight and cell count of each row ``tau = 0 .. n // 2`` that :func:`_half_cells` returns.

    Only these ``O(n)`` arrays are cached: a cached weight per cell raised
    the peak RSS of an n=512 estimate by 5 MB.
    """
    h = n // 2
    taus = np.arange(h + 1)
    weights = (n - taus) / n
    counts = np.where(taus == 0, h, 2 * h + 1)
    weights.flags.writeable = counts.flags.writeable = False
    return weights, counts


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

    A record's EMAF is point-symmetric in magnitude, ``|a(-tau, -nu)| =
    |a(tau, nu)|``, and the block is centred on the origin, so each cell's
    mirror is the same cell of the block reversed on both axes.  When every
    cell matches its mirror within a relative ``1e-10``, only the cells
    after the origin are returned (the ``k > 0`` rest of row ``tau = 0``,
    then rows ``tau = 1 .. n/2``), each with twice its weight: the weighted
    likelihood is the full block's up to rounding.  Any other grid, such as
    i.i.d. magnitudes, gets the whole block.
    """
    n, h = a.n, a.n // 2
    after, weights = _half_cells(a.entries[n - 1 :], n)
    before = np.abs(a.entries[n - 1 - h : n, n - h : n + h + 1]).ravel()[: -(h + 1)]
    if np.allclose(after, before[::-1], rtol=_MIRROR_RTOL, atol=0.0):
        return after, weights
    # the rows before the origin weigh what their mirrors after it do, each cell once
    return np.concatenate([before, after]), np.concatenate([weights[::-1], weights]) / 2


def _half_cells(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells of :func:`_fit_cells` after the origin, from the lag rows ``tau >= 0`` alone."""
    h = n // 2
    cells = np.abs(rows[: h + 1, n - h : n + h + 1]).ravel()[h + 1 :]
    return cells, np.repeat(*_block_rows(n))


# Trust-region steps the search may take: 4-13 on records of 64 samples or more, and up to
# 119 creeping along the degenerate ridge on 3,600 records of 8-32 samples.
_MAX_ITERATIONS = 1000


def _start(qsq: np.ndarray) -> tuple[float, np.ndarray]:
    """Moment-based start scale ``vbar0`` and start point ``x0``, in units of ``vbar0``.

    ``vbar0`` matches the Rayleigh median to the median energy, ``sigma2``
    starts at the excess of the top 1% of energies (at least ``vbar0``) and
    ``rho`` at 0.01.  One partition places the two middle order statistics
    and the top 1%; the median is taken from them as ``np.median`` does.
    """
    size = qsq.size
    top = max(1, int(round(0.01 * size)))
    low, high = (size - 1) // 2, size // 2
    part = np.partition(qsq, [low, high, size - top])
    median = float(part[low]) if low == high else float(part[low] + part[high]) / 2.0
    vbar0 = median / math.log(2.0)
    if vbar0 <= 0:
        raise ValueError("degenerate magnitudes: zero median energy")
    tail_mean = float(np.mean(part[size - top :]))
    sigma2_0 = max(tail_mean - vbar0, vbar0)
    return vbar0, np.array([0.0, logit(0.01), np.log(sigma2_0 / vbar0)])


def _mixture_objective(y: np.ndarray, w: np.ndarray):
    """Value, gradient and Hessian of the weighted nll of energies ``y`` at ``x``.

    ``x = (log vbar, logit rho, log sigma2)`` in the units of ``y``; the
    value lacks ``-sum(w log(2 q))``, and for ``y = q^2 / s`` also ``sum(w)
    log s``.  The log-odds ``d`` of :func:`_posterior_log_odds` are affine
    in ``y``, and so are their partial derivatives in ``x``; so the weighted
    sums of ``r = expit(d)`` times ``{1, y}`` and of ``r (1 - r)`` times
    ``{1, y, y^2}`` give the exact gradient and Hessian.  One ``exp`` per cell (see
    :func:`_expit_softplus`), and one reduction: the six weighted products
    are written into one buffer and summed row by row, which gives each sum
    bit for bit as ``np.sum`` of that product alone.

    The per-cell arrays are made once, here, and each evaluation overwrites
    them; everything else it computes is a Python float.  It returns the
    value as a float and new gradient and Hessian arrays, which share no
    memory with those buffers.  The returned function carries ``sums =
    (sum(w), sum(w y))``, which the null fit of :func:`fit` reads.
    """
    wy = w * y
    w_sum, wy_sum = float(np.sum(w)), float(np.sum(wy))
    # per cell, made once and overwritten by each evaluation: the log-odds d,
    # r (1 - r), and the scratch, r = expit(d) and softplus(d) of _expit_softplus
    d, rv, *kernel = np.empty((5, y.size))
    r, softplus = kernel[1:]
    products = np.empty((6, y.size))
    # its rows: w r, w y r, w rv, w y rv, w y^2 rv (rv = r (1 - r)) and w softplus
    terms = list(zip((w, wy, w, wy, wy * y, w), (r, r, rv, rv, rv, softplus), products))

    def objective(x) -> tuple[float, np.ndarray, np.ndarray]:
        x0, x1, x2 = map(float, x)
        vbar = math.exp(min(max(x0, -700.0), 700.0))
        sigma2 = math.exp(min(max(x2, -700.0), 700.0))
        wide = vbar + sigma2
        log_vbar = math.log(vbar)
        # d = alpha + beta y, the log-odds of _posterior_log_odds in the units of y
        np.multiply(y, 1.0 / vbar - 1.0 / wide, out=d)
        np.add(d, x1 + log_vbar - math.log(wide), out=d)
        _expit_softplus(d, kernel)
        np.subtract(1.0, r, out=rv)
        np.multiply(rv, r, out=rv)
        for weight, cell, out in terms:
            np.multiply(weight, cell, out=out)
        # summed by np.sum, not BLAS dots: threaded ddot is slower here
        r0, r1, v0, v1, v2, softplus_sum = products.sum(axis=1).tolist()
        # rho = expit(x1), 1 - rho = expit(-x1) and logaddexp(0, x1), from one exp
        e1 = math.exp(-abs(x1))
        above, below = 1.0 / (1.0 + e1), e1 / (1.0 + e1)  # expit(|x1|), expit(-|x1|)
        rho, rho_c = (above, below) if x1 >= 0 else (below, above)
        # log density = log(1 - rho) - log vbar - y / vbar + softplus(d)
        value = w_sum * (max(x1, 0.0) + math.log1p(e1) + log_vbar) + wy_sum / vbar
        value -= softplus_sum
        # d's first partial derivatives are alpha_i + beta_i y; share and curl are
        # sigma2 / wide and sigma2 vbar / wide^2, taken without wide^2, which under- or overflows
        inv_sum, share = 1.0 / vbar + 1.0 / wide, sigma2 / wide
        curl = share * (vbar / wide)
        alpha, beta = (share, 1.0, -share), (-share * inv_sum, 0.0, share / wide)
        grad = np.array([
            w_sum - wy_sum / vbar - share * (r0 - r1 * inv_sum),
            rho * w_sum - r0,
            share * (r0 - r1 / wide),
        ])
        # background terms less sum(w r d_ij), with d_ij affine in y as well
        aa = wy_sum / vbar + curl * r0 - share * (inv_sum + 2.0 * (vbar / wide) / wide) * r1
        ac = -curl * r0 + 2.0 * curl / wide * r1
        cc = curl * r0 - share * ((vbar - sigma2) / wide) / wide * r1
        background = ((aa, 0.0, ac), (0.0, w_sum * rho * rho_c, 0.0), (ac, 0.0, cc))
        # less sum(w r (1 - r) d_i d_j)
        hess = np.array([
            [
                h - (ai * aj * v0 + (ai * bj + aj * bi) * v1 + bi * bj * v2)
                for h, aj, bj in zip(row, alpha, beta)
            ]
            for row, ai, bi in zip(background, alpha, beta)
        ])
        return value, grad, hess

    objective.sums = (w_sum, wy_sum)
    return objective


def _dot(u: list[float], v: list[float]) -> float:
    """``u . v`` of two 3-vectors, on Python floats."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _trust_step(lam: list[float], g: list[float], radius: float) -> np.ndarray:
    """Minimizer of ``g . s + sum(lam s^2) / 2`` over ``|s| <= radius``, to 10%.

    ``lam`` are the Hessian's ascending eigenvalues, ``g`` the gradient in its
    eigenbasis, both 3-vectors of floats.  The Newton step ``-g / lam`` if
    ``lam > 0`` and it fits, else ``s = -g / (lam + mu)``, cut to the radius,
    for ``mu`` near the root of ``1/|s| - 1/radius`` (Moré–Sorensen): Newton
    steps, bisecting the bracket ``[max(0, -lam[0]), that + |g| / radius]``
    when they leave it.  The algebra runs on Python floats; the step comes
    back as an array.
    """
    if lam[0] > 0:
        newton = [-gi / li for gi, li in zip(g, lam)]
        if math.sqrt(_dot(newton, newton)) <= radius:
            return np.array(newton)
    lo = max(0.0, -lam[0])
    hi = lo + math.sqrt(_dot(g, g)) / radius
    mu = lo if lam[0] > 0 else hi  # lam + lo has a zero unless lam[0] > 0
    while True:
        s = [-gi / (li + mu) for gi, li in zip(g, lam)]
        squared = _dot(s, s)
        length = math.sqrt(squared)
        if abs(length - radius) <= 0.1 * radius:
            break
        lo, hi = (lo, mu) if length < radius else (mu, hi)
        slope = sum(si * si / (li + mu) for si, li in zip(s, lam))
        mu += squared / slope * (length - radius) / radius
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
            if not lo < mu < hi:  # closed on lo: g is orthogonal to the lowest eigenvector
                break
    scale = radius / max(length, radius)
    return np.array([si * scale for si in s])


def _newton(objective, x: list[float], w_sum: float) -> tuple[list[float], float, int, bool]:
    """Trust-region Newton search: final ``x``, its value, steps taken, and convergence.

    Each step takes one ``eigh`` of the Hessian; the rest of a step, the
    3-vector algebra in and out of its eigenbasis, runs on Python floats.
    It converges once that is positive definite with Newton decrement
    ``grad . hess^-1 . grad`` at most ``1e-13 w_sum`` (then one last Newton
    step, kept unless it raises the value, takes ``x`` to rounding level),
    once a step predicts less reduction than the rounding of the value, or
    at a stationary point.  The radius starts at 1, shrinks to a quarter of
    a poor step and grows to twice a good one.
    """

    def evaluate(x: list[float]) -> tuple[float, list[float], np.ndarray]:
        value, grad, hess = objective(x)
        return value, grad.tolist(), hess

    value, grad, hess = evaluate(x)
    radius = 1.0
    for taken in range(_MAX_ITERATIONS + 1):
        if not any(grad):
            return x, value, taken, True
        lam, vecs = (m.tolist() for m in np.linalg.eigh(hess))
        g = [_dot(column, grad) for column in zip(*vecs)]
        if lam[0] > 0 and sum(gi * gi / li for gi, li in zip(g, lam)) <= 1e-13 * w_sum:
            step = [gi / li for gi, li in zip(g, lam)]
            newton = [xi - _dot(row, step) for xi, row in zip(x, vecs)]
            final = objective(newton)[0]
            if final <= value:
                return newton, final, taken + 1, True
            return x, value, taken, True
        if taken == _MAX_ITERATIONS:
            break
        s = _trust_step(lam, g, radius).tolist()
        predicted = -(_dot(g, s) + 0.5 * sum(li * si * si for li, si in zip(lam, s)))
        if predicted <= sys.float_info.epsilon * (abs(value) + w_sum):
            return x, value, taken, True
        moved = [xi + _dot(row, s) for xi, row in zip(x, vecs)]
        trial = evaluate(moved)
        ratio = (value - trial[0]) / predicted if math.isfinite(trial[0]) else -math.inf
        length = math.sqrt(_dot(s, s))
        if ratio < 0.25:
            radius = 0.25 * length
        elif ratio > 0.75:
            radius = max(radius, 2.0 * length)
        if ratio > 1e-4:
            x, (value, grad, hess) = moved, trial
    return x, value, _MAX_ITERATIONS, False


def fit(a: AmbiguityGrid) -> ShrinkageParams:
    """Weighted maximum-likelihood mixture fit to the grid magnitudes.

    Minimizes the row-weighted negative log-likelihood of the central-block
    magnitudes (see :func:`_fit_cells`) in ``(log vbar, logit rho, log
    sigma2)`` from moment-based starting values (see :func:`_start`).  On a
    point-symmetric grid, which every record's EMAF is, each mirror pair of
    cells enters once with doubled weight; any other grid is fitted over its
    whole block.  The search is trust-region Newton on the closed-form
    gradient and Hessian (:func:`_newton`, :func:`_mixture_objective`), run
    on the energies divided by the start scale ``vbar0``, so that every sum
    stays of order one and no stopping rule depends on the amplitude.
    Where the mixture degenerates (``rho -> 0``, or ``rho -> 1`` with
    ``sigma2 -> 0``), the null fit ``rho = sigma2 = 0``, ``vbar = sum(w
    q^2) / sum(w)`` is returned if its objective is within ``1e-12 sum(w)``
    of the search's.  A search that exhausts its budget raises
    :class:`FitConvergenceError` carrying the best parameters found.  The
    returned ``nll`` is the attained weighted objective, the same on either
    set of cells up to rounding.  Magnitudes whose weighted squares sum
    past the float range raise ``ValueError`` before the search, without a
    floating-point warning.
    """
    if not a.normalized:
        raise ValueError("fit expects a normalized grid")
    return _fit_magnitudes(*_fit_cells(a))


def _fit_magnitudes(q: np.ndarray, w: np.ndarray) -> ShrinkageParams:
    """The :func:`fit` of magnitudes ``q`` with weights ``w``, wherever on a grid they lie."""
    if np.any(q == 0):
        raise ValueError("zero magnitudes make the mixture likelihood singular")
    with np.errstate(over="ignore"):
        qsq = q * q
        wqsq_sum = float(np.sum(w * qsq))
    if not np.isfinite(wqsq_sum):
        raise ValueError("squared magnitudes overflow floating point")
    vbar0, x0 = _start(qsq)
    objective = _mixture_objective(qsq / vbar0, w)
    w_sum, wy_sum = objective.sums
    x, value, iterations, converged = _newton(objective, x0.tolist(), w_sum)
    null_vbar = wy_sum / w_sum
    null_value = w_sum * (np.log(null_vbar) + 1.0)
    if null_value <= value + 1e-12 * w_sum:
        x, value = [np.log(null_vbar), -np.inf, -np.inf], null_value
    shift = np.log(vbar0)
    params = ShrinkageParams(
        vbar=float(np.exp(x[0] + shift)),
        rho=float(expit(x[1])),
        sigma2=float(np.exp(x[2] + shift)),
        nll=float(value - np.sum(w * np.log(2.0 * q)) + w_sum * shift),
        iterations=iterations,
    )
    if not converged:
        raise FitConvergenceError(
            f"trust-region Newton search stopped without converging after {iterations} steps", params
        )
    return params


def _posterior_log_odds(params: ShrinkageParams, q: np.ndarray) -> np.ndarray:
    """Log posterior odds ``alpha + beta q^2`` that magnitudes ``q`` carry signal.

    With ``wide = vbar + sigma2``, ``alpha = logit(rho) + log(vbar) -
    log(wide)`` and ``beta = 1 / vbar - 1 / wide``; the log mixture density
    of :func:`_log_density_terms` is the background term plus ``softplus``
    of these odds, and the posterior signal probability is their ``expit``.
    ``1 / vbar`` overflows once ``vbar`` is subnormal, so the odds are
    evaluated in units of ``vbar``, where ``vbar`` is 1.
    """
    wide = 1.0 + params.sigma2 / params.vbar
    # logit(rho) - log(wide) + (1 - 1 / wide) (q / sqrt(vbar))^2, in one buffer
    d = np.divide(q, np.sqrt(params.vbar), out=np.empty(np.shape(q)))
    np.square(d, out=d)
    np.multiply(1.0 - 1.0 / wide, d, out=d)
    return np.add(logit(params.rho) - np.log(wide), d, out=d)


def posterior_rho(params: ShrinkageParams, qhat: float | np.ndarray) -> float | np.ndarray:
    """Posterior probability that a coefficient of magnitude ``qhat`` carries signal."""
    q = np.asarray(qhat, dtype=float)
    if not np.all(q >= 0):
        raise ValueError("magnitudes must be nonnegative")
    out = expit(_posterior_log_odds(params, q))
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
    theta = _theta(params, a.entries, np.empty(a.entries.shape))
    theta[a.n - 1, a.n] = 1.0
    return ThresholdField(theta, dt=a.dt)


def _theta(params: ShrinkageParams, entries: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The :func:`threshold_field` rule on the magnitudes of any rows ``entries``, bar the origin.

    It is written into ``out``, a float array of their shape, in row blocks.
    """
    vbar, sigma2 = params.vbar, params.sigma2
    lam = sigma2 / (sigma2 + vbar)

    def fill(block: slice) -> None:
        q = np.abs(entries[block], out=out[block])
        d = _posterior_log_odds(params, q)
        # rho_post > 1/2, which keeping needs, holds only where the log-odds are positive
        rows, cols = np.nonzero(d > 0)
        qc, rho_post = q[rows, cols], expit(d[rows, cols])
        eta = ndtr(-np.sqrt(2.0 * lam) * qc / np.sqrt(vbar))
        keep = (rho_post * (1.0 - eta) > 0.5) & (qc > 0)
        qk = qc[keep]
        qmed = lam * qk + np.sqrt(lam * vbar / 2.0) * ndtri(1.0 - 1.0 / (2.0 * rho_post[keep]))
        q.fill(0.0)
        q[rows[keep], cols[keep]] = np.clip(qmed / qk, 0.0, 1.0)

    _in_row_blocks(fill, len(out), out.shape[-1])
    return out


def apply_threshold(a: AmbiguityGrid, t: ThresholdField) -> AmbiguityGrid:
    """Attenuate grid entries by the threshold factors; dropped cells hold ``+0.0``."""
    a.check_shape("field", t.theta.shape)
    return replace(a, entries=_attenuate(a.entries, t.theta))


def _attenuate(entries: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The :func:`apply_threshold` product on any rows: kept cells times theta, else ``+0.0``."""
    out = np.zeros_like(entries)

    def fill(rows: slice) -> None:
        block, factors = entries[..., rows, :], theta[..., rows, :]
        kept = factors > 0
        out[..., rows, :][kept] = block[kept] * factors[kept]

    _in_row_blocks(fill, entries.shape[-2], entries[..., 0, :].size)
    return out


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
    """The stages one :func:`shrink` run computes; ``converged`` is False for a best-so-far fit.

    No grid is kept: ``apply_threshold(emaf(m_raw), theta)`` is the shrunk EMAF.
    """

    m_raw: LagTimeMoments
    params: ShrinkageParams
    converged: bool
    theta: ThresholdField
    m_eb: LagTimeMoments


def _point_mirror(half: np.ndarray) -> np.ndarray:
    """The ``(2n-1, 2n)`` field whose rows ``tau >= 0`` are ``half``, mirrored through the origin.

    Row ``-tau`` is row ``tau`` with column ``c`` at ``(2n - c) mod 2n``.
    """
    n = half.shape[0]
    full = np.empty((2 * n - 1, 2 * n), dtype=half.dtype)
    full[n - 1 :] = half
    full[n - 2 :: -1, 0] = half[1:, 0]
    full[n - 2 :: -1, 1:] = half[1:, :0:-1]
    return full


def _hermitian_moments(live: np.ndarray, rows: np.ndarray, dt: float) -> LagTimeMoments:
    """The moments with rows ``tau = live`` from ``rows`` and ``m(-tau, t) = conj m(tau, t + tau)``.

    The rows ``tau < 0`` are read through one strided view of the rows
    ``tau > 0``, shifted by ``tau``.  Past the support of lag ``-tau`` that
    view reads the zeros off the support at the start of lag ``tau + 1``, or
    for ``tau = n - 1`` a spare zero row past the grid (numpy checks that
    the view stays inside the buffer), so every cell is written.  The
    imaginary parts are negated as ``0.0 - im``, so that no ``-0.0`` appears.
    """
    n = rows.shape[1]
    buffer = np.zeros((2 * n, n), dtype=complex)
    buffer[n - 1 + live] = rows
    size = buffer.itemsize
    # source[tau - 1, t] is buffer[n - 1 + tau, t + tau]
    source = np.ndarray((n - 1, n), complex, buffer, (n * n + 1) * size, ((n + 1) * size, size))
    target = buffer[n - 2 :: -1]
    np.copyto(target.real, source.real)
    np.subtract(0.0, source.imag, out=target.imag)
    return LagTimeMoments(buffer[: 2 * n - 1], dt=dt)


def _shrunk_rows(
    samples: np.ndarray, dt: float, delta: float, rows: slice
) -> tuple[np.ndarray, list[tuple[ShrinkageParams, bool]], np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`shrink` chain on a stack of records, thresholded and inverted on the lag rows ``rows``.

    ``samples`` holds one record of ``n`` samples per row, all sampled at
    ``dt``; ``rows`` is a slice ``start:stop`` of the lag rows ``tau >= 0``.
    Returns the raw moment grids, ``(R, 2n-1, n)``, each record's fitted
    parameters with whether its fit converged, theta on ``rows``, and the
    :func:`_inverted_rows` of the shrunk ``rows``, taken record by record.
    The stages before the fit run once over the stack, on the lag rows
    below the larger of ``stop`` and ``n // 2 + 1``, which hold every cell
    :func:`fit` takes; each row is transformed on its own, so a record's
    rows, fit and moments are the same in any stack and for any ``rows``.
    Each check is the one-record stage's, on the whole stack.  A non-finite
    lag product makes row ``tau = 0`` non-finite (``|z_t z_s| <= max(|z_t|^2,
    |z_s|^2)``), so the check of the normalized rows covers the products.
    """
    if np.any(np.ptp(samples, axis=-1) == 0):
        raise ValueError("a constant record has zero magnitudes: nothing to fit")
    delta = check_delta(delta)
    # checked as TimeSeries and AnalyticSeries check them
    z = _finite(_analytic_rows(_finite(_demeaned(samples), "samples")), "samples")
    m_raw = _lag_products(z)
    del z
    n = samples.shape[-1]
    count = max(n // 2 + 1, rows.stop)
    a_half = _emaf_rows(m_raw[:, n - 1 : n - 1 + count], dt)
    kappa = NormalizationField(_kappa(n, dt, delta, np.arange(count)), delta).kappa
    # as AmbiguityGrid checks emaf's and normalize's grids
    a_norm = _finite(_normalized(a_half, kappa), "entries")
    del kappa
    fits = []
    for record in a_norm:
        try:
            fits.append((_fit_magnitudes(*_half_cells(record, n)), True))
        except FitConvergenceError as err:
            fits.append((err.best, False))
    # made after the fits: their per-cell buffers set the peak, and theta beside them raised it
    theta = np.empty((len(samples), rows.stop - rows.start, 2 * n))
    for (params, _), record, out in zip(fits, a_norm, theta):
        _theta(params, record[rows], out)
    del a_norm
    if rows.start == 0:
        theta[:, 0, n] = 1.0  # the origin carries the record's energy and is never shrunk
    kept = _attenuate(a_half[:, rows], theta)
    del a_half
    off = np.broadcast_to(_off_support(n)[n - 1 :][rows], (*theta.shape[:2], n))
    live, moments = _inverted_rows(kept.reshape(-1, 2 * n), dt, off.reshape(-1, n))
    return m_raw, fits, theta, live, moments


def shrink(x: TimeSeries, delta: float = 0.5) -> Shrunk:
    """Demean, analytic signal, lag products, EMAF, normalize, fit, threshold, invert.

    A record's lag products are Hermitian, so every stage after them runs on
    the lag rows ``tau >= 0`` alone (:func:`_shrunk_rows`), through the
    cores of the stage functions, which treat each row on its own: these
    rows, and the cells :func:`fit` takes, are the full-grid chain's.  The
    rows ``tau < 0`` of theta and of the shrunk moments are exact mirrors
    (:func:`_point_mirror`, :func:`_hermitian_moments`).

    A fit that exhausts its budget does not raise: its best parameters are
    used and ``converged`` is False.  A record whose samples are all equal
    raises ``ValueError``: demeaned it is zero, up to rounding residue that
    the fit must not take for structure.
    """
    n, dt = x.n, x.dt
    # a stack of one record: m_raw, the fits and theta have a first axis of length 1
    (m_raw,), ((params, converged),), (theta,), live, rows = _shrunk_rows(
        x.samples[None], dt, delta, slice(0, n)
    )
    theta = ThresholdField(_point_mirror(theta), dt=dt)
    m_eb = _hermitian_moments(live, rows, dt)
    return Shrunk(LagTimeMoments(m_raw, dt=dt), params, converged, theta, m_eb)
