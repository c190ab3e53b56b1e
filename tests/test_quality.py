"""The estimator's quality table: risk ratios of every preset and the white-noise null count.

Each ratio is a mean, over seeds, of the Frobenius error of the shrunk and
corrected covariance over that of the raw one, against the exact covariance
of the analytic signal: the calls ``riskbench`` makes, at n=128 (seeds 0-19)
and n=256 (seeds 0-9).  The bounds are one-sided.  An estimator that gets
worse fails; one that gets better passes, and its new values become the
records below.  Run with ``-s`` to print the table.  Printed, it has an
oracle column beside each size, with no bound: the same ratio when
``shrink`` divides by the square root of the EMAF's exact variance field
(:func:`conftest.emaf_variance_field` of the preset's truth) instead of
``kappa``.  The oracle needs the truth, so it is a reference, not an
estimator; it is computed only for the printed table, where its shrinks
would double the file's run time.
"""

import numpy as np
import pytest

import ambishrink.cli as cli
import ambishrink.shrinkage as shrinkage
from ambishrink.cli import main
from ambishrink.covariance import assemble, correct
from ambishrink.diagnostics import risk_report
from ambishrink.procgen import TheoreticalCovariance
from ambishrink.shrinkage import shrink
from conftest import emaf_variance_field

SIZES = ((128, 20), (256, 10))  # (n, seeds 0 .. reps - 1)

# Mean risk ratio per preset at each of SIZES.
RECORDED = {
    "aggregation512": (0.12803233346456583, 0.07303480501106285),
    "whitenoise": (0.06275874815207211, 0.036404692000374765),
    "ma-locstat": (0.1535153120944905, 0.1079105008802235),
    "ma-cyclo": (0.12417885379276612, 0.07444942845411093),
    "tvchirp": (0.9540892148657798, 0.9690232453686235),
}
# Cells with theta > 0 over white-noise records at n=128, seeds 0-15, origins included.
NULL_KEPT_CELLS = 2946
SLACK = 1.0 + 1e-6  # rounding-level moves pass


def mean_ratio(preset: str, n: int, reps: int) -> float:
    """``riskbench <preset> --n <n> --reps <reps> --seed 0``'s ``mean_ratio``, computed here."""
    spec = cli._PRESETS[preset]
    truth = TheoreticalCovariance(cli._analytic_truth(spec.truth(n, 1.0).entries))
    ratios = np.empty(reps)
    for seed in range(reps):
        est = shrink(spec.sample(n, seed, 1.0))
        shrunk = correct(assemble(est.m_eb), "clip")
        ratios[seed] = risk_report(shrunk, assemble(est.m_raw), truth).frobenius_ratio
    return float(np.mean(ratios))


def oracle_ratio(preset: str, n: int, reps: int) -> float:
    """:func:`mean_ratio` with ``shrink`` normalizing by the exact variance field instead of kappa."""
    field = emaf_variance_field(cli._PRESETS[preset].truth(n, 1.0).entries)
    field = np.maximum(field, 1e-12 * field.max())  # the cell (0, -n) is zero up to rounding
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shrinkage, "_kappa", lambda n, dt, delta, taus: field[taus])
        return mean_ratio(preset, n, reps)


@pytest.fixture(scope="module")
def table(pytestconfig) -> dict[str, tuple[float, ...]]:
    rows = {preset: tuple(mean_ratio(preset, n, reps) for n, reps in SIZES) for preset in RECORDED}
    if pytestconfig.getoption("capture") != "no":
        return rows  # the table is not shown
    print("\npreset          " + "".join(f"  n={n:<8}  oracle    " for n, _ in SIZES))
    for preset, ratios in rows.items():
        oracle = [oracle_ratio(preset, n, reps) for n, reps in SIZES]
        print(f"{preset:<16}" + "".join(f"  {r:.8f}  {o:.8f}" for r, o in zip(ratios, oracle)))
    return rows


@pytest.mark.parametrize("preset", RECORDED)
def test_risk_ratio_is_at_most_its_record(table, preset):
    for (n, _), got, record in zip(SIZES, table[preset], RECORDED[preset]):
        assert got <= record * SLACK, f"{preset} at n={n}: {got!r} > {record!r}"


def test_white_noise_keeps_at_most_the_recorded_null_cells():
    spec = cli._PRESETS["whitenoise"]
    kept = sum(np.count_nonzero(shrink(spec.sample(128, seed, 1.0)).theta.theta > 0) for seed in range(16))
    print(f"\nnull_kept_cells  {kept}")
    assert kept <= NULL_KEPT_CELLS


def test_table_entry_is_riskbench_mean_ratio_bit_for_bit(table, tmp_path):
    out = tmp_path / "rb.txt"
    assert main(["riskbench", "whitenoise", "--n", "128", "--reps", "20", "--seed", "0", "--out", str(out)]) == 0
    reported = out.read_text().splitlines()[-1]
    assert reported.startswith("mean_ratio=")
    assert float(reported.partition("=")[2]) == table["whitenoise"][0]
