"""Each input invariant has one rule, and every entry point that takes the input keeps it."""

from dataclasses import fields, replace

import numpy as np
import pytest

from ambishrink.ambiguity import (
    AmbiguityGrid,
    LagTimeMoments,
    denormalize,
    normalization,
    normalize,
    smooth_kernel,
)
from ambishrink.cli import PipelineConfig
from ambishrink.procgen import (
    TimeVaryingFilterProcess,
    chirp_filter_process,
    cyclostationary_process,
    gen_aggregation,
    gen_modulated_ma,
    gen_tv_filter,
    gen_white_noise,
    locally_stationary_process,
    stationary_emaf_expectation,
    theoretical_covariance,
    whitenoise_af_covariance,
    whitenoise_af_covariance_limit,
)
from ambishrink.series import AnalyticSeries, TimeSeries, analytic_spectrum_weights
from ambishrink.shrinkage import ThresholdField, apply_threshold
from ambishrink.tfr import TFRGrid


def _theta(n: int) -> np.ndarray:
    theta = np.full((2 * n - 1, 2 * n), 0.5)
    theta[n - 1, n] = 1.0
    return theta


# Entry points that store dt, each built from a dt.
DT_TYPES = {
    "TimeSeries": lambda dt: TimeSeries(np.ones(4), dt=dt),
    "AnalyticSeries": lambda dt: AnalyticSeries(np.ones(4), dt=dt),
    "LagTimeMoments": lambda dt: LagTimeMoments(np.zeros((3, 2)), dt=dt),
    "AmbiguityGrid": lambda dt: AmbiguityGrid(np.zeros((3, 4)), dt=dt),
    "ThresholdField": lambda dt: ThresholdField(_theta(2), dt=dt),
    "TFRGrid": lambda dt: TFRGrid(np.zeros((2, 4)), dt=dt),
    "TimeVaryingFilterProcess": lambda dt: TimeVaryingFilterProcess(
        lambda k, t: np.ones(np.broadcast(k, t).shape), half_width=1, dt=dt
    ),
    "PipelineConfig": lambda dt: PipelineConfig(input="whitenoise", outdir="out", dt=dt),
}

# Entry points that take dt and return a value computed with it.
DT_FUNCTIONS = {
    "normalization": lambda dt: normalization(8, dt),
    "stationary_emaf_expectation": lambda dt: stationary_emaf_expectation([1, 0.5], 8, dt, 0, 0.0),
    "whitenoise_af_covariance": lambda dt: whitenoise_af_covariance(8, dt, 1, 0, 0, 0, 0),
    "whitenoise_af_covariance_limit": lambda dt: whitenoise_af_covariance_limit(
        8, dt, 1, 0, 0, 0, 0
    ),
}

DT_ENTRY_POINTS = {**DT_TYPES, **DT_FUNCTIONS}


class TestSamplingPeriod:
    @pytest.mark.parametrize("name", DT_ENTRY_POINTS)
    @pytest.mark.parametrize("dt", [0, -1, np.nan, np.inf, True], ids=repr)
    def test_rejects(self, name, dt):
        with pytest.raises(ValueError, match="dt must be a positive finite float"):
            DT_ENTRY_POINTS[name](dt)

    @pytest.mark.parametrize("name", DT_TYPES)
    @pytest.mark.parametrize("dt", [2, np.float32(0.5)], ids=repr)
    def test_types_store_a_float(self, name, dt):
        stored = DT_TYPES[name](dt).dt
        assert type(stored) is float and stored == float(dt)

    @pytest.mark.parametrize("name", DT_FUNCTIONS)
    @pytest.mark.parametrize("dt", [2, np.float32(0.5)], ids=repr)
    def test_functions_accept(self, name, dt):
        value = DT_FUNCTIONS[name](dt)
        assert np.all(np.isfinite(getattr(value, "kappa", value)))


LENGTH_ENTRY_POINTS = {
    "TimeSeries": lambda n: TimeSeries(np.ones(n)),
    "AnalyticSeries": lambda n: AnalyticSeries(np.ones(n)),
    "analytic_spectrum_weights": analytic_spectrum_weights,
    "normalization": normalization,
    "PipelineConfig": lambda n: PipelineConfig(input="whitenoise", outdir="out", n=n),
    "locally_stationary_process": lambda n: locally_stationary_process(length=n),
    "gen_modulated_ma": lambda n: gen_modulated_ma(cyclostationary_process(), n),
    "gen_aggregation": gen_aggregation,
    "gen_tv_filter": lambda n: gen_tv_filter(chirp_filter_process(), n),
    "gen_white_noise": gen_white_noise,
    "theoretical_covariance": lambda n: theoretical_covariance(cyclostationary_process(), n),
    "stationary_emaf_expectation": lambda n: stationary_emaf_expectation([1.0], n, 1.0, 0, 0.0),
    "whitenoise_af_covariance": lambda n: whitenoise_af_covariance(n, 1.0, 1.0, 0, 0, 0, 0),
    "whitenoise_af_covariance_limit": lambda n: whitenoise_af_covariance_limit(
        n, 1.0, 1.0, 0, 0, 0, 0
    ),
}


class TestRecordLength:
    @pytest.mark.parametrize("name", LENGTH_ENTRY_POINTS)
    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_short_records(self, name, n):
        with pytest.raises(ValueError, match="n >="):
            LENGTH_ENTRY_POINTS[name](n)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: LagTimeMoments(np.zeros((1, 1))),
            lambda: AmbiguityGrid(np.zeros((1, 2))),
        ],
        ids=["LagTimeMoments", "AmbiguityGrid"],
    )
    def test_rejects_one_sample_grids(self, build):
        with pytest.raises(ValueError, match="n >="):
            build()


def _kept_fields(before: AmbiguityGrid, after: AmbiguityGrid, changed: set[str]) -> None:
    for f in fields(AmbiguityGrid):
        if f.name not in changed:
            assert getattr(after, f.name) == getattr(before, f.name), f.name


class TestDerivedGrids:
    n, dt = 6, 0.25

    @pytest.fixture
    def grid(self):
        rng = np.random.default_rng(4)
        entries = rng.standard_normal((2 * self.n - 1, 4 * self.n)).view(complex)
        return AmbiguityGrid(entries, dt=self.dt)

    def test_normalize_changes_only_entries_flag_and_delta(self, grid):
        out = normalize(grid, normalization(self.n, self.dt, 0.3))
        assert out.normalized and out.delta == 0.3
        _kept_fields(grid, out, {"entries", "normalized", "delta"})

    def test_denormalize_changes_only_entries_and_flag(self, grid):
        field = normalization(self.n, self.dt, 0.3)
        normalized = normalize(grid, field)
        out = denormalize(normalized, field)
        assert not out.normalized
        _kept_fields(normalized, out, {"entries", "normalized"})

    def test_smooth_kernel_changes_only_entries(self, grid):
        out = smooth_kernel(grid, np.full(grid.entries.shape, 0.5))
        np.testing.assert_array_equal(out.entries, 0.5 * grid.entries)
        _kept_fields(grid, out, {"entries"})

    def test_apply_threshold_changes_only_entries(self, grid):
        normalized = normalize(grid, normalization(self.n, self.dt, 0.3))
        out = apply_threshold(normalized, ThresholdField(_theta(self.n), dt=self.dt))
        _kept_fields(normalized, out, {"entries"})

    @pytest.mark.parametrize(
        "derive",
        [
            lambda a: normalize(a, normalization(5, a.dt)),
            lambda a: denormalize(replace(a, normalized=True), normalization(5, a.dt)),
            lambda a: smooth_kernel(a, np.ones((9, 10))),
            lambda a: apply_threshold(a, ThresholdField(_theta(5))),
        ],
        ids=["normalize", "denormalize", "smooth_kernel", "apply_threshold"],
    )
    def test_shape_mismatch_is_rejected(self, grid, derive):
        with pytest.raises(ValueError, match="does not match grid shape"):
            derive(grid)
