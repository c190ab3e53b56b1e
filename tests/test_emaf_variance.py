"""The exact variance field of the EMAF against Monte Carlo, on every preset.

:func:`conftest.emaf_variance_field` builds the variance of each EMAF cell
from a preset's exact covariance by Isserlis' theorem.  Each preset draws
records with the seeds ``0 .. RECORDS - 1``, as ``analyze`` would, and their
EMAFs give each cell's sample variance with its standard error.
"""

import numpy as np
import pytest

import ambishrink.cli as cli
from ambishrink.ambiguity import _emaf_rows, _lag_products
from ambishrink.series import _analytic_rows, _demeaned
from conftest import emaf_variance_field

N, RECORDS, CHUNK = 32, 4000, 500
# Every cell bar the zero one within 5 standard errors.  Over the 5 x 2047 cells at these
# settings the largest |z| measured was 3.79 (ma-locstat); without the relation term R of the
# field, aggregation512, ma-cyclo and tvchirp reach |z| = 8.5, 11.4 and 5.7.
Z_BOUND = 5.0


@pytest.mark.parametrize("preset", cli.PRESETS)
def test_field_matches_monte_carlo(preset):
    spec = cli._PRESETS[preset]
    exact = emaf_variance_field(spec.truth(N, 1.0).entries)
    blocks = []
    for lo in range(0, RECORDS, CHUNK):
        x = np.stack([spec.sample(N, seed, 1.0).samples for seed in range(lo, lo + CHUNK)])
        # the rows tau >= 0 of each record's EMAF, as shrink builds them
        blocks.append(_emaf_rows(_lag_products(_analytic_rows(_demeaned(x)))[:, N - 1 :], 1.0))
    a = np.concatenate(blocks)
    spread = np.abs(a - a.mean(axis=0)) ** 2
    sample = spread.sum(axis=0) / (RECORDS - 1)
    se = spread.std(axis=0, ddof=1) / np.sqrt(RECORDS)
    zero = exact <= 1e-9 * exact.max()
    assert np.argwhere(zero).tolist() == [[0, 0]]  # tau = 0, k = -n
    assert sample[zero].max() <= 1e-9 * exact.max()
    sample, exact, se = sample[~zero], exact[~zero], se[~zero]
    z = (sample - exact) / se
    error = np.median(np.abs(sample / exact - 1))
    print(f"\n{preset}: median |sample/exact - 1| {error:.4f}, max |z| {np.abs(z).max():.2f}")
    assert np.abs(z).max() <= Z_BOUND
