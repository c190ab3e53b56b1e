"""End-to-end tests of the command-line driver."""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import ambishrink.ambiguity as ambiguity
import ambishrink.cli as cli
import ambishrink.covariance as covariance
import ambishrink.diagnostics as diagnostics
from ambishrink.ambiguity import emaf, normalization, normalize
from ambishrink.cli import PipelineConfig, main, run_analyze
from ambishrink.diagnostics import qq_normalized_af, variance_reduction_probe
from ambishrink.procgen import gen_aggregation, gen_white_noise
from ambishrink.series import TimeSeries, analytic_spectrum_weights
from ambishrink.shrinkage import FitConvergenceError, ShrinkageParams, apply_threshold, shrink
from ambishrink.textio import read_matrix, read_signal, write_matrix, write_signal
from ambishrink.tfr import bilinear, window_bank

ARTIFACTS = (
    "emaf.mat",
    "psi.txt",
    "theta.mat",
    "af_eb.mat",
    "moments_eb.mat",
    "cov_eb.mat",
    "tfr.mat",
    "qq_re.txt",
    "qq_im.txt",
    "summary.txt",
)


def assert_one_error_line(capsys, fragment: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err, err


def read_summary(path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        values[key] = value
    return values


class TestConfigType:
    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            PipelineConfig(input="whitenoise", outdir="out", delta=1.0)

    def test_rejects_bad_correction(self):
        with pytest.raises(ValueError, match="correction"):
            PipelineConfig(input="whitenoise", outdir="out", correction="spectral")

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            PipelineConfig(input="whitenoise", outdir="out", alpha=2.0)


class TestSimulate:
    def test_aggregation_preset_writes_full_record(self, tmp_path):
        out = tmp_path / "agg.sig"
        assert main(["simulate", "aggregation512", "--seed", "7", "--out", str(out)]) == 0
        x = read_signal(out)
        assert x.n == 512
        header = out.read_text().splitlines()[0]
        assert header == "# signal v1 n=512 dt=1"

    def test_short_white_noise(self, tmp_path):
        out = tmp_path / "wn.sig"
        assert main(["simulate", "whitenoise", "--n", "64", "--out", str(out)]) == 0
        assert read_signal(out).n == 64

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "whitenoise", "--n", "16"]) == 0
        assert (tmp_path / "whitenoise.sig").exists()

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "nosuch", "--out", str(tmp_path / "x.sig")]) == 2
        assert "nosuch" in capsys.readouterr().err

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "w.sig"
        assert main(["simulate", "whitenoise", "--n", "16", "--out", str(out)]) == 2
        assert_one_error_line(capsys, "cannot write")

    def test_exit_code_crosses_process_boundary(self, tmp_path):
        # The child runs in tmp_path, where a relative PYTHONPATH (such as
        # "src") points nowhere, so put the directory holding the package
        # under test first on its path.
        package_root = str(Path(cli.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            package_root + os.pathsep + inherited if inherited else package_root
        )
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from ambishrink.cli import main; sys.exit(main(sys.argv[1:]))",
                "simulate",
                "nosuch",
            ],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert "nosuch" in result.stderr


class TestAnalyze:
    def test_aggregation_run_reports_sparse_fit(self, tmp_path):
        outdir = tmp_path / "run"
        code = main(
            ["analyze", "--input", "aggregation512", "--outdir", str(outdir), "--seed", "0"]
        )
        assert code == 0
        for name in ARTIFACTS:
            assert (outdir / name).exists(), name
        summary = read_summary(outdir / "summary.txt")
        assert float(summary["rho"]) < 1e-2
        assert float(summary["retained_fraction"]) < 0.01
        assert summary["converged"] == "1"

    def test_zero_signal_produces_zero_artifacts(self, tmp_path):
        sig = tmp_path / "zero.sig"
        write_signal(sig, TimeSeries(np.zeros(16)))
        outdir = tmp_path / "run"
        assert main(["analyze", "--input", str(sig), "--outdir", str(outdir)]) == 0
        for name in ("emaf.mat", "theta.mat", "af_eb.mat", "moments_eb.mat", "cov_eb.mat"):
            data, _ = read_matrix(outdir / name)
            np.testing.assert_array_equal(data, 0.0)
        assert read_summary(outdir / "summary.txt")["converged"] == "1"

    def test_repeated_runs_are_bitwise_identical(self, tmp_path):
        args = ["analyze", "--input", "whitenoise", "--n", "48", "--seed", "3"]
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(args + ["--outdir", str(first)]) == 0
        assert main(args + ["--outdir", str(second)]) == 0
        for name in ARTIFACTS:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_every_matrix_artifact_reserializes_bitwise(self, tmp_path):
        outdir = tmp_path / "run"
        assert main(
            ["analyze", "--input", "whitenoise", "--n", "32", "--outdir", str(outdir)]
        ) == 0
        for path in outdir.glob("*.mat"):
            data, trailing = read_matrix(path)
            copy = tmp_path / ("copy_" + path.name)
            write_matrix(copy, data, trailing=trailing)
            assert copy.read_bytes() == path.read_bytes(), path.name

    def test_smoothing_kernel_spec_is_applied_and_labeled(self, tmp_path):
        outdir = tmp_path / "run"
        code = main(
            [
                "analyze",
                "--input",
                "whitenoise",
                "--n",
                "32",
                "--kernel",
                "hann:5",
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 0
        _, trailing = read_matrix(outdir / "tfr.mat")
        assert trailing == ["# tfr alpha=0.5 kernel=hann:5"]

    def test_smoothed_tfr_is_the_library_surface_of_the_squared_window(self, tmp_path):
        outdir = tmp_path / "run"
        argv = ["analyze", "--input", "whitenoise", "--n", "32", "--seed", "5", "--dt", "0.37"]
        assert main(argv + ["--alpha", "0", "--kernel", "hann:5", "--outdir", str(outdir)]) == 0
        h = window_bank("hann", 0, 5)
        profile = h * h / np.sum(h * h)
        expected = bilinear(shrink(gen_white_noise(32, seed=5, dt=0.37)).m_eb, 0.0, profile).values
        tfr, _ = read_matrix(outdir / "tfr.mat")
        np.testing.assert_array_equal(tfr.view(np.uint64), np.ascontiguousarray(expected).view(np.uint64))

    def test_unrecognizable_input_exits_2(self, tmp_path, capsys):
        code = main(["analyze", "--input", "nosuchpreset", "--outdir", str(tmp_path / "r")])
        assert code == 2
        assert "neither a file nor a preset" in capsys.readouterr().err

    def test_corrupt_signal_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sig"
        bad.write_text("not a signal\n")
        assert main(["analyze", "--input", str(bad), "--outdir", str(tmp_path / "r")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_kernel_spec_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--input",
                "whitenoise",
                "--n",
                "16",
                "--kernel",
                "boxcar:5",
                "--outdir",
                str(tmp_path / "r"),
            ]
        )
        assert code == 2
        assert "window kind" in capsys.readouterr().err

    def test_nonconvergence_exits_3_with_best_so_far(self, tmp_path, capsys, monkeypatch):
        best = ShrinkageParams(1.0, 0.1, 2.0, nll=5.0, iterations=77)

        def no_fit(q, w):
            raise FitConvergenceError("search budget exhausted", best)

        # shrink fits through the core that fit wraps
        monkeypatch.setattr("ambishrink.shrinkage._fit_magnitudes", no_fit)
        outdir = tmp_path / "run"
        code = run_analyze(PipelineConfig(input="whitenoise", outdir=str(outdir), n=32))
        assert code == 3
        assert "did not converge" in capsys.readouterr().err
        summary = read_summary(outdir / "summary.txt")
        assert summary["converged"] == "0"
        assert float(summary["vbar"]) == 1.0
        assert (outdir / "psi.txt").exists()
        assert not (outdir / "theta.mat").exists()

    def test_uncreatable_outdir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        outdir = blocker / "run"
        assert main(["analyze", "--input", "whitenoise", "--n", "16", "--outdir", str(outdir)]) == 2
        assert_one_error_line(capsys, "cannot create")

    @pytest.mark.parametrize(
        "samples",
        [
            np.full(16, 3.0),
            np.full(31, 0.1),
            np.full(31, 0.3),
            1e-200 * np.random.default_rng(1).standard_normal(16),
        ],
        ids=["constant", "constant-0.1", "constant-0.3", "amplitude-1e-200"],
    )
    def test_degenerate_record_exits_2(self, tmp_path, capsys, samples):
        sig = tmp_path / "flat.sig"
        write_signal(sig, TimeSeries(samples))
        assert main(["analyze", "--input", str(sig), "--outdir", str(tmp_path / "r")]) == 2
        assert_one_error_line(capsys, "zero magnitudes")

    def test_amplitude_1e200_exits_2_without_warnings(self, tmp_path, capsys):
        sig = tmp_path / "loud.sig"
        write_signal(sig, TimeSeries(1e200 * np.random.default_rng(1).standard_normal(16)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--input", str(sig), "--outdir", str(tmp_path / "r")]) == 2
        assert_one_error_line(capsys, "NaN or infinity")

    def test_overflowing_hermite_bank_exits_2_before_writing(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        argv = ["analyze", "--input", "whitenoise", "--n", "16", "--kernel", "hermite:5:200"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--outdir", str(outdir)]) == 2
        assert_one_error_line(capsys, "overflows")
        assert not outdir.exists()

    def test_zero_energy_window_exits_2_before_writing(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        argv = ["analyze", "--input", "whitenoise", "--n", "16", "--kernel", "hann:2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--outdir", str(outdir)]) == 2
        assert_one_error_line(capsys, "zero energy")
        assert not outdir.exists()

    def test_overflowing_normalization_exits_2_without_warnings(self, tmp_path, capsys):
        argv = ["analyze", "--input", "tvchirp", "--n", "16", "--dt", "1e-300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--outdir", str(tmp_path / "r")]) == 2
        assert_one_error_line(capsys, "finite and strictly positive")

    def test_one_eigendecomposition_per_run(self, tmp_path, eig_calls):
        argv = ["analyze", "--input", "whitenoise", "--n", "32", "--outdir", str(tmp_path / "r")]
        assert main(argv) == 0
        # one decomposition of the 32 x 32 covariance; the fit decomposes only 3 x 3 Hessians
        assert [call for call in eig_calls if call != ("eigh", (3, 3))] == [("eigh", (32, 32))]

    def test_config_file_supplies_defaults_but_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# pipeline settings\n"
            "input=whitenoise\n"
            "n=32\n"
            "seed=5\n"
            f"outdir={tmp_path / 'from_config'}\n"
        )
        assert main(["analyze", "--config", str(cfg), "--n", "24"]) == 0
        summary = read_summary(tmp_path / "from_config" / "summary.txt")
        assert summary["n"] == "24"
        assert summary["seed"] == "5"

    @pytest.mark.parametrize("flag", [[], ["--dt", "7"]], ids=["default", "flag-7"])
    def test_summary_records_the_dt_of_a_file_record(self, tmp_path, flag):
        sig = tmp_path / "w.sig"
        write_signal(sig, gen_white_noise(32, seed=0, dt=0.5))
        outdir = tmp_path / "r"
        assert main(["analyze", "--input", str(sig), "--outdir", str(outdir), *flag]) == 0
        # the record is analysed at the dt of its header, so that is the dt its summary names
        assert read_summary(outdir / "summary.txt")["dt"] == "0.5"

    @pytest.mark.parametrize("flag", [[], ["--seed", "9"]], ids=["default", "seed-9"])
    def test_summary_of_a_file_record_names_no_seed(self, tmp_path, flag):
        sig = tmp_path / "w.sig"
        write_signal(sig, gen_white_noise(32, seed=0))
        outdir = tmp_path / "r"
        assert main(["analyze", "--input", str(sig), "--outdir", str(outdir), *flag]) == 0
        # the seed draws only preset records; a file's samples owe it nothing
        assert "seed" not in read_summary(outdir / "summary.txt")

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("input=whitenoise\nwindowing=hann\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "windowing" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--outdir", str(tmp_path / "r")]) == 2
        assert "--input" in capsys.readouterr().err


def dense_from_sparse(path) -> np.ndarray:
    """Rebuild the full grid from a sparse ``(tau, k, value)`` artifact."""
    table, trailing = read_matrix(path)
    assert trailing[-1].startswith("# dense shape=")
    rows, cols = map(int, trailing[-1].split("=")[1].split("x"))
    grid = np.zeros((rows, cols), dtype=table.dtype)
    n = cols // 2
    tau, k = table[:, 0].real.astype(int), table[:, 1].real.astype(int)
    grid[tau + n - 1, k + n] = table[:, 2]
    return grid


class TestCompactArtifacts:
    @pytest.fixture(scope="class", params=[None, 0.3], ids=["delta-default", "delta0.3"])
    def run(self, request, tmp_path_factory):
        root = tmp_path_factory.mktemp("compact")
        sig = root / "agg.sig"
        write_signal(sig, gen_aggregation(64, seed=4))
        outdir = root / "run"
        flags = [] if request.param is None else ["--delta", str(request.param)]
        assert main(["analyze", "--input", str(sig), "--outdir", str(outdir), *flags]) == 0
        x = read_signal(sig)
        delta = 0.5 if request.param is None else request.param
        est = shrink(x, delta)
        a_norm = normalize(emaf(est.m_raw), normalization(x.n, x.dt, delta))
        return outdir, est, a_norm

    @pytest.mark.parametrize("name, part", [("qq_re.txt", "real"), ("qq_im.txt", "imag")])
    def test_qq_rows_are_rows_of_the_full_qq(self, run, name, part):
        outdir, est, a_norm = run
        n = a_norm.n
        coeffs = np.delete(a_norm.entries.ravel(), (n - 1) * 2 * n + n)
        m = coeffs.size
        assert m > 1001
        full = np.column_stack(
            [
                ndtri((np.arange(1, m + 1) - 0.5) / m),
                np.sort(getattr(coeffs, part) / np.sqrt(est.params.vbar / 2.0)),
            ]
        )
        data, _ = read_matrix(outdir / name)
        assert 2 <= data.shape[0] <= 1001
        ranks = np.searchsorted(full[:, 0], data[:, 0])
        assert ranks[0] == 0 and ranks[-1] == m - 1
        assert np.all(np.diff(ranks) > 0)
        np.testing.assert_array_equal(full[ranks].view(np.uint64), data.view(np.uint64))

    def test_theta_has_one_row_per_kept_cell(self, run):
        outdir, est, _ = run
        table, _ = read_matrix(outdir / "theta.mat")
        assert table.shape == (np.count_nonzero(est.theta.theta > 0), 3)

    def test_dense_grids_rebuild_bitwise(self, run):
        outdir, est, _ = run
        theta = dense_from_sparse(outdir / "theta.mat")
        np.testing.assert_array_equal(theta.view(np.uint64), est.theta.theta.view(np.uint64))
        af_eb = dense_from_sparse(outdir / "af_eb.mat")
        expected = apply_threshold(emaf(est.m_raw), est.theta).entries
        np.testing.assert_array_equal(af_eb.view(np.uint64), expected.view(np.uint64))

    def test_dropped_cells_are_positive_zeros(self, tmp_path):
        outdir = tmp_path / "agg"
        assert main(["analyze", "--input", "aggregation512", "--n", "64", "--outdir", str(outdir)]) == 0
        est = shrink(gen_aggregation(64, seed=0))
        af_eb = dense_from_sparse(outdir / "af_eb.mat")
        assert np.count_nonzero(af_eb) < af_eb.size
        expected = apply_threshold(emaf(est.m_raw), est.theta).entries
        np.testing.assert_array_equal(af_eb.view(np.uint64), expected.view(np.uint64))

    def test_zero_signal_layouts_match_a_nonzero_run(self, tmp_path):
        sig = tmp_path / "zero.sig"
        write_signal(sig, TimeSeries(np.zeros(32)))
        zero, noise = tmp_path / "zero", tmp_path / "noise"
        assert main(["analyze", "--input", str(sig), "--outdir", str(zero)]) == 0
        assert main(["analyze", "--input", "whitenoise", "--n", "32", "--outdir", str(noise)]) == 0
        for name in ("theta.mat", "af_eb.mat"):
            table, trailing = read_matrix(zero / name)
            assert table.shape == (0, 3)
            assert trailing == ["# dense shape=63x64"]
        for name in ("qq_re.txt", "qq_im.txt"):
            assert {read_matrix(d / name)[0].shape for d in (zero, noise)} == {(1001, 2)}


class TestAnalyzeMemory:
    def test_live_grids_when_the_covariance_is_corrected(self, tmp_path, monkeypatch):
        n = 256
        unit = (2 * n - 1) * 2 * n * 16  # one complex (2n-1, 2n) grid
        live = []

        def traced_correct(cov, correction):
            live.append(tracemalloc.get_traced_memory()[0])
            return correct(cov, correction)

        correct = cli.correct
        monkeypatch.setattr(cli, "correct", traced_correct)
        argv = ["analyze", "--input", "aggregation512", "--n", str(n)]
        tracemalloc.start()
        try:
            assert main(argv + ["--outdir", str(tmp_path / "r")]) == 0
        finally:
            tracemalloc.stop()
        # m_raw, theta, m_eb and the covariance are live here (1.8 units); a dense af_eb,
        # or a_raw or a_norm kept past emaf.mat and the QQ files, adds one unit each
        assert len(live) == 1 and live[0] <= 2.25 * unit

    def test_traced_peak_of_a_whole_run(self, tmp_path):
        n = 256
        unit = (2 * n - 1) * 2 * n * 16  # one complex (2n-1, 2n) grid
        argv = ["analyze", "--input", "aggregation512", "--n", str(n)]
        tracemalloc.start()
        try:
            assert main(argv + ["--outdir", str(tmp_path / "r")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the forked child, which streams the EMAF in blocks of lag rows, is not traced here; the
        # parent builds no full ambiguity grid, and its peak (3.1 units) is in correct or bilinear
        assert peak <= 3.25 * unit

    def test_one_full_emaf_and_normalize_per_run(self, tmp_path, monkeypatch):
        n = 200  # three blocks of lag rows
        calls = {"_emaf_rows": [], "_normalized": []}

        def counted(name):
            stage = getattr(cli, name)

            def stage_call(rows, *args):
                calls[name].append(len(rows))
                return stage(rows, *args)

            return stage_call

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        # the child's calls are counted only when the fit files are written in this process
        monkeypatch.setattr(cli, "_fork_beside", lambda child, parent: (child(), parent())[1])
        argv = ["analyze", "--input", "whitenoise", "--n", str(n)]
        assert main(argv + ["--outdir", str(tmp_path / "converged")]) == 0
        # each of the 2n - 1 lag rows is transformed and normalized once, in more than one block
        assert calls["_emaf_rows"] == calls["_normalized"]
        assert len(calls["_emaf_rows"]) > 1 and sum(calls["_emaf_rows"]) == 2 * n - 1
        for rows in calls.values():
            rows.clear()
        monkeypatch.setattr("ambishrink.shrinkage._MAX_ITERATIONS", 1)
        assert main(argv + ["--outdir", str(tmp_path / "unconverged")]) == 3
        assert calls["_emaf_rows"] == calls["_normalized"]
        assert sum(calls["_emaf_rows"]) == 2 * n - 1

    def test_traced_peak_of_the_child(self, tmp_path, monkeypatch):
        n = 256
        unit = (2 * n - 1) * 2 * n * 16  # one complex (2n-1, 2n) grid
        peaks = []

        def traced_child(child, parent):
            # only what the child allocates is traced: its peak above what is live at the fork
            tracemalloc.start()
            try:
                child()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return parent()

        monkeypatch.setattr(cli, "_fork_beside", traced_child)
        argv = ["analyze", "--input", "aggregation512", "--n", str(n)]
        assert main(argv + ["--outdir", str(tmp_path / "r")]) == 0
        # the QQ parts (1 unit) and one 1 MiB block of lag rows (0.25 unit) with its kappa and
        # normalized rows: 1.79 units measured, bound with 0.21 to spare; a child that builds the
        # full raw grid, kappa and the normalized grid (3.03 units) fails it
        assert len(peaks) == 1 and peaks[0] <= 2.0 * unit


class TestRiskbench:
    def test_white_noise_benchmark_reports_variance_reduction(self, tmp_path):
        out = tmp_path / "bench.txt"
        code = main(
            [
                "riskbench",
                "whitenoise",
                "--reps",
                "100",
                "--n",
                "64",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# riskbench v1 preset=whitenoise n=64 reps=100")
        assert sum(1 for line in lines if line.startswith("rep=")) == 100
        pairs = dict(
            part.split("=") for line in lines[1:] for part in line.split() if "=" in part
        )
        assert float(pairs["var_eb"]) < float(pairs["var_raw"])
        assert "mean_ratio" in pairs

    def test_short_tvchirp_record_runs(self, tmp_path):
        # its filter is 17 taps wide: the truth must skip lags beyond n - 1
        out = tmp_path / "b.txt"
        assert main(["riskbench", "tvchirp", "--reps", "2", "--n", "8", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].startswith("mean_ratio=")

    @pytest.mark.parametrize("n", [8, 9, 64, 128])
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_fft_truth_matches_the_dense_operator_form(self, preset, n):
        real = cli._PRESETS[preset].truth(n, 1.0).entries
        centering = np.eye(n) - np.ones((n, n)) / n
        weights = analytic_spectrum_weights(n)
        op = np.fft.ifft(weights[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
        dense = op @ centering @ real @ centering @ op.conj().T
        got = cli._analytic_truth(real)
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))
        np.testing.assert_array_equal(got, got.conj().T)
        assert cli.TheoreticalCovariance(got).n == n

    def test_zero_reps_exits_2(self, tmp_path, capsys):
        code = main(
            ["riskbench", "whitenoise", "--reps", "0", "--out", str(tmp_path / "b.txt")]
        )
        assert code == 2
        assert "reps" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code = main(
            ["riskbench", "nosuch", "--reps", "5", "--out", str(tmp_path / "b.txt")]
        )
        assert code == 2
        assert "nosuch" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4, 1])
    def test_too_short_record_exits_2(self, tmp_path, capsys, n):
        out = tmp_path / "b.txt"
        code = main(["riskbench", "whitenoise", "--reps", "5", "--n", str(n), "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys, "at least 8")
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["0", "-1"])
    @pytest.mark.parametrize("preset", ["aggregation512", "whitenoise", "ma-locstat", "ma-cyclo"])
    def test_nonpositive_dt_exits_2(self, tmp_path, capsys, preset, dt):
        out = tmp_path / "b.txt"
        argv = ["riskbench", preset, "--reps", "2", "--n", "16", "--dt", dt, "--out", str(out)]
        assert main(argv) == 2
        assert_one_error_line(capsys, "dt must be")
        assert not out.exists()

    def test_one_eigendecomposition_per_replicate(self, tmp_path, eig_calls):
        out = tmp_path / "b.txt"
        assert main(["riskbench", "whitenoise", "--reps", "3", "--n", "16", "--out", str(out)]) == 0
        # one decomposition of each 16 x 16 covariance; the fit decomposes only 3 x 3 Hessians
        assert [call for call in eig_calls if call != ("eigh", (3, 3))] == [("eigh", (16, 16))] * 3

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "b.txt"
        code = main(["riskbench", "whitenoise", "--reps", "1", "--n", "16", "--out", str(out)])
        assert code == 2
        assert_one_error_line(capsys, "cannot write")

    @pytest.mark.parametrize("reps", [1, 100, 157])
    # one block of every record (n=8), blocks of 16 (n=64) and blocks of one record (n=200)
    @pytest.mark.parametrize("n", [8, 64, 200])
    def test_forked_probe_is_the_single_process_probe(self, tmp_path, n, reps):
        out = tmp_path / "b.txt"
        argv = ["riskbench", "whitenoise", "--n", str(n), "--reps", str(reps), "--seed", "3"]
        assert main(argv + ["--out", str(out)]) == 0
        assert_no_child_left()
        line = out.read_text().splitlines()[-2]
        got = {key: float(value).hex() for key, value in (part.split("=") for part in line.split())}
        var_eb, var_raw = variance_reduction_probe(n, max(reps, 100), 3)
        assert got == {"var_eb": var_eb.hex(), "var_raw": var_raw.hex()}

    def test_no_thread_count_call_between_the_fork_and_the_join(self, tmp_path, monkeypatch):
        log = tmp_path / "calls.log"
        cap, restore = log_thread_counts(monkeypatch, log)
        argv = ["riskbench", "aggregation512", "--n", "64", "--reps", "3"]
        assert main(argv + ["--out", str(tmp_path / "b.txt")]) == 0
        # replicate 0's correct caps itself before the fork; one cap then covers the other
        # replicates' correct and both processes' probe blocks, and only this process sets it,
        # before the fork, and lifts it after the join
        events = cap + restore + cap + ["fork", "join"] + restore
        assert log.read_text().splitlines() == [f"{os.getpid()} {event}" for event in events]
        assert_no_child_left()

    def test_replicate_failing_after_the_fork_stops_the_child(self, tmp_path, capsys, monkeypatch):
        log, shrink_record = tmp_path / "blocks.log", cli.shrink
        entries = diagnostics._probe_entries
        shrunk = []

        def refuse_the_second(x, *args):
            shrunk.append(x.n)
            if len(shrunk) == 2:
                raise ValueError("replicate refused")
            return shrink_record(x, *args)

        def logged_entries(n, seeds):
            append_line(log, str(os.getpid()))
            return entries(n, seeds)

        fork = os.fork

        def logged_fork():
            append_line(log, "fork")
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        monkeypatch.setattr(cli, "shrink", refuse_the_second)
        monkeypatch.setattr(diagnostics, "_probe_entries", logged_entries)
        out = tmp_path / "b.txt"
        # one record per block at n=256: 100 blocks of about 16 ms each
        assert main(["riskbench", "whitenoise", "--n", "256", "--reps", "2", "--out", str(out)]) == 2
        assert_no_child_left()
        assert capsys.readouterr().err == "error: cannot run riskbench on whitenoise: replicate refused\n"
        assert not out.exists()
        # rep 1 failed after the fork, and this process claimed every block before it re-raised
        lines = log.read_text().splitlines()
        assert len(shrunk) == 2 and lines[0] == "fork"
        assert str(os.getpid()) not in lines and len(lines) - 1 < 50, lines

    @pytest.mark.parametrize("first", ["child", "parent"])
    def test_one_side_running_every_block_writes_the_same_bytes(self, tmp_path, monkeypatch, first):
        argv = ["riskbench", "aggregation512", "--n", "64", "--reps", "3", "--seed", "2", "--out"]
        assert main(argv + [str(tmp_path / "forked.txt")]) == 0

        def in_turn(child, parent):
            if first == "child":
                child()
                return parent()
            parent_result = parent()
            child()
            return parent_result

        monkeypatch.setattr(cli, "_fork_beside", in_turn)
        assert main(argv + [str(tmp_path / "one.txt")]) == 0
        assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "forked.txt").read_bytes()

    def test_run_without_fork_writes_the_forked_report(self, tmp_path, monkeypatch):
        argv = ["riskbench", "aggregation512", "--n", "64", "--reps", "3", "--out"]
        assert main(argv + [str(tmp_path / "forked.txt")]) == 0
        monkeypatch.delattr(os, "fork")  # _fork_beside's fallback: the backward walk runs every block
        assert main(argv + [str(tmp_path / "unforked.txt")]) == 0
        assert (tmp_path / "unforked.txt").read_bytes() == (tmp_path / "forked.txt").read_bytes()

    def test_report_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        package_root = str(Path(cli.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = package_root + os.pathsep + inherited if inherited else package_root
            out = tmp_path / f"threads{threads}.txt"
            argv = ["riskbench", "whitenoise", "--n", "128", "--reps", "20", "--seed", "0"]
            code = "import sys; from ambishrink.cli import main; sys.exit(main(sys.argv[1:]))"
            command = [sys.executable, "-c", code, *argv, "--out", str(out)]
            run = subprocess.run(command, env=env, capture_output=True, timeout=120)
            assert run.returncode == 0 and run.stderr == b"", run.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_child_value_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        this_process, entries = os.getpid(), diagnostics._probe_entries

        def refuse_in_child(n, seeds):
            if os.getpid() != this_process:
                raise ValueError("probe refused")
            return entries(n, seeds)

        monkeypatch.setattr(diagnostics, "_probe_entries", refuse_in_child)
        out = tmp_path / "b.txt"
        assert main(["riskbench", "whitenoise", "--n", "64", "--reps", "1", "--out", str(out)]) == 2
        assert_no_child_left()
        err = capsys.readouterr().err
        assert err == "error: cannot run riskbench on whitenoise: probe refused\n"
        assert not out.exists()

    def test_child_killed_mid_report_names_its_signal(self, tmp_path, capsys, monkeypatch):
        this_process, walk = os.getpid(), cli._probe_walk

        def refuse_in_child(*args, **kwargs):
            if os.getpid() != this_process:
                raise ValueError("probe refused")
            walk(*args, **kwargs)

        def half_dumps(err):
            report = pickle.dumps(err)
            return report[: len(report) // 2]

        def killed(code):
            os.kill(os.getpid(), signal.SIGKILL)

        # the child fails, writes the first half of its report, then dies at its exit
        monkeypatch.setattr(cli, "_probe_walk", refuse_in_child)
        monkeypatch.setattr(cli, "pickle", SimpleNamespace(dumps=half_dumps, loads=pickle.loads))
        monkeypatch.setattr(os, "_exit", killed)
        out = tmp_path / "b.txt"
        assert main(["riskbench", "whitenoise", "--n", "16", "--reps", "1", "--out", str(out)]) == 2
        assert_no_child_left()
        kill = signal.SIGKILL
        killed_by = f"forked child killed by signal {int(kill)} ({signal.strsignal(kill)})"
        assert capsys.readouterr().err == f"error: cannot run riskbench on whitenoise: {killed_by}\n"
        assert not out.exists()


class TestUnallocatableSize:
    # Each request is larger than the 128 TiB of a 47-bit user address space, so
    # the allocation fails at once under any overcommit policy.  Never test a
    # size that can be allocated: the run would fill the memory instead.

    def test_riskbench_reps_exits_2(self, tmp_path, capsys):
        out = tmp_path / "b.txt"
        argv = ["riskbench", "whitenoise", "--n", "8", "--reps", "10000000000000"]
        # 72.8 TiB of ratios, refused as larger than memory before the 300 TiB shared probe buffer
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_error_line(capsys, "out of memory")
        assert not out.exists()

    def test_simulate_length_exits_2(self, tmp_path, capsys):
        out = tmp_path / "w.sig"
        argv = ["simulate", "whitenoise", "--n", "100000000000000"]
        assert main(argv + ["--out", str(out)]) == 2  # 728 TiB of samples
        assert_one_error_line(capsys, "out of memory")
        assert not out.exists()


def summary_keys(outdir) -> list[str]:
    return list(read_summary(outdir / "summary.txt"))


class TestNegativeSeed:
    def test_flag_exits_2_before_any_directory(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        argv = ["analyze", "--input", "whitenoise", "--n", "16", "--seed", "-1"]
        assert main(argv + ["--outdir", str(outdir)]) == 2
        assert_one_error_line(capsys, "seed must be non-negative")
        assert not outdir.exists()

    def test_config_file_exits_2_before_any_directory(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input=whitenoise\nn=16\nseed=-4\noutdir={outdir}\n")
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert_one_error_line(capsys, "seed must be non-negative")
        assert not outdir.exists()


class TestRiskbenchChecksFirst:
    @pytest.mark.parametrize(
        "flag, value, fragment",
        [
            ("--dt", "0", "dt must be"),
            ("--dt", "-1", "dt must be"),
            ("--dt", "nan", "dt must be"),
            ("--dt", "inf", "dt must be"),
            ("--n", "4", "at least 8"),
        ],
    )
    def test_bad_setting_exits_2_before_truth_and_probe(
        self, tmp_path, capsys, monkeypatch, flag, value, fragment
    ):
        def not_called(*args, **kwargs):
            raise AssertionError("ran before the settings were checked")

        monkeypatch.setattr(diagnostics, "_probe_entries", not_called)
        monkeypatch.setattr(cli, "_analytic_truth", not_called)
        out = tmp_path / "b.txt"
        argv = ["riskbench", "whitenoise", "--reps", "2", "--n", "128", flag, value]
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_error_line(capsys, fragment)
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, dt, fragment",
        [("whitenoise", "1e-300", "normalization field"), ("tvchirp", "1e120", "NaN or infinity")],
        ids=["normalization-overflow", "emaf-overflow"],
    )
    def test_failing_replicate_exits_2_before_the_probe(
        self, tmp_path, capsys, monkeypatch, preset, dt, fragment
    ):
        def not_called(*args, **kwargs):
            raise AssertionError("the probe ran before the first replicate")

        monkeypatch.setattr(diagnostics, "_probe_entries", not_called)
        out = tmp_path / "b.txt"
        argv = ["riskbench", preset, "--reps", "1", "--n", "64", "--dt", dt, "--out", str(out)]
        assert main(argv) == 2
        assert_one_error_line(capsys, fragment)
        assert not out.exists()


class TestArtifactWriters:
    FLAGS = ["--correction", "shift", "--alpha", "0", "--kernel", "hann:5"]

    @pytest.fixture(scope="class")
    def converged(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("converged") / "run"
        argv = ["analyze", "--input", "whitenoise", "--n", "32", "--outdir", str(outdir)]
        assert main(argv + self.FLAGS) == 0
        return outdir

    def test_zero_record_writes_every_file_with_its_trailers(self, tmp_path, converged):
        sig = tmp_path / "zero.sig"
        write_signal(sig, TimeSeries(np.zeros(32)))
        outdir = tmp_path / "zero"
        assert main(["analyze", "--input", str(sig), "--outdir", str(outdir)] + self.FLAGS) == 0
        names = sorted(path.name for path in outdir.iterdir())
        assert names == sorted(path.name for path in converged.iterdir()) == sorted(ARTIFACTS)
        psi = "vbar=0 rho=0 sigma2=0 nll=0 iterations=0\n"
        assert (outdir / "psi.txt").read_text() == psi
        assert read_matrix(outdir / "cov_eb.mat")[1] == ["# correction=shift mineig=0"]
        assert read_matrix(outdir / "tfr.mat")[1] == ["# tfr alpha=0 kernel=hann:5"]
        # a file record names no seed
        assert summary_keys(outdir) == [key for key in summary_keys(converged) if key != "seed"]

    def test_unconverged_run_writes_only_the_files_before_the_fit_is_judged(
        self, tmp_path, monkeypatch, converged
    ):
        best = ShrinkageParams(1.0, 0.1, 2.0, nll=5.0, iterations=77)

        def no_fit(q, w):
            raise FitConvergenceError("search budget exhausted", best)

        # shrink fits through the core that fit wraps
        monkeypatch.setattr("ambishrink.shrinkage._fit_magnitudes", no_fit)
        outdir = tmp_path / "run"
        argv = ["analyze", "--input", "whitenoise", "--n", "32", "--outdir", str(outdir)]
        assert main(argv + self.FLAGS) == 3
        names = {path.name for path in outdir.iterdir()}
        assert names == {"emaf.mat", "psi.txt", "qq_re.txt", "qq_im.txt", "summary.txt"}
        keys = summary_keys(converged)
        assert summary_keys(outdir) == keys[: keys.index("iterations") + 1]


class TestSingleSources:
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_every_preset_simulates_and_riskbenches(self, tmp_path, preset):
        sig = tmp_path / "x.sig"
        assert main(["simulate", preset, "--n", "16", "--out", str(sig)]) == 0
        assert read_signal(sig).n == 16
        out = tmp_path / "b.txt"
        assert main(["riskbench", preset, "--n", "16", "--reps", "1", "--out", str(out)]) == 0
        assert out.read_text().startswith(f"# riskbench v1 preset={preset} n=16 reps=1")

    def test_analyze_flags_are_the_config_fields(self):
        flags = set(vars(cli.build_parser().parse_args(["analyze"]))) - {"command"}
        assert flags == {field.name for field in fields(PipelineConfig)} | {"config"}

    def test_every_field_is_a_config_key(self, tmp_path):
        outdir = tmp_path / "run"
        values = {
            "input": "whitenoise",
            "outdir": str(outdir),
            "dt": "0.5",
            "delta": "0.25",
            "correction": "shift",
            "alpha": "0",
            "kernel": "hann:5",
            "seed": "2",
            "n": "16",
        }
        assert set(values) == {field.name for field in fields(PipelineConfig)}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        assert main(["analyze", "--config", str(cfg)]) == 0
        summary = read_summary(outdir / "summary.txt")
        for key, value in values.items():
            if key != "outdir":
                assert summary[key] == value, key


class TestWriteFailure:
    def test_unwritable_artifact_exits_2(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        (outdir / "emaf.mat").mkdir(parents=True)
        assert main(["analyze", "--input", "whitenoise", "--n", "16", "--outdir", str(outdir)]) == 2
        assert_one_error_line(capsys, "cannot write output")


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def append_line(path: Path, line: str) -> None:
    """Append one line to ``path``; a forked child's lines land there too, before it exits."""
    with open(path, "a") as fh:
        fh.write(line + "\n")


def log_thread_counts(monkeypatch, log: Path) -> tuple[list[str], list[str]]:
    """Log each OpenBLAS thread-count call, ``os.fork``, ``os.waitpid`` and ``threading.Thread.start``.

    They go to ``log``, from any process, one ``<pid> <event>`` line each; a
    started thread is the event ``thread``.  Returns the events of setting the
    cap and of restoring the counts found before it, one per bundled library.
    """
    libs = covariance._bundled_openblas()

    class Logged:
        """One bundled OpenBLAS whose thread-count calls go to ``log``."""

        def __init__(self, lib):
            self.lib = lib

        def openblas_set_num_threads_local(self, count):
            append_line(log, f"{os.getpid()} threads={count}")
            return self.lib.openblas_set_num_threads_local(count)

    fork, waitpid = os.fork, os.waitpid

    def logged_fork():
        append_line(log, f"{os.getpid()} fork")
        return fork()

    def logged_waitpid(pid, options):
        append_line(log, f"{os.getpid()} join")
        return waitpid(pid, options)

    start = threading.Thread.start

    def logged_start(thread):
        append_line(log, f"{os.getpid()} thread")
        return start(thread)

    before = [lib.openblas_set_num_threads_local(1) for lib in libs]
    for lib, count in zip(libs, before):
        lib.openblas_set_num_threads_local(count)
    monkeypatch.setattr(covariance, "_bundled_openblas", lambda: tuple(map(Logged, libs)))
    monkeypatch.setattr(os, "fork", logged_fork)
    monkeypatch.setattr(os, "waitpid", logged_waitpid)
    monkeypatch.setattr(threading.Thread, "start", logged_start)
    return ["threads=1"] * len(libs), [f"threads={count}" for count in before]


class TestForkBeside:
    """``_fork_beside`` returns only the parent's result; the child reports only a failure."""

    @pytest.fixture(params=["fork", "no-fork"])
    def forking(self, request, monkeypatch):
        if request.param == "no-fork":
            monkeypatch.delattr(os, "fork")  # the fallback runs the child, then the parent

    def test_parent_result_is_returned_and_the_child_value_ignored(self, forking):
        assert cli._fork_beside(lambda: "child value", lambda: ["parent value"]) == ["parent value"]
        assert_no_child_left()

    def test_child_fit_error_is_raised_with_its_best(self, forking):
        best = ShrinkageParams(1.0, 0.1, 2.0, nll=5.0, iterations=77)

        def no_fit():
            raise FitConvergenceError("search budget exhausted", best)

        with pytest.raises(FitConvergenceError, match="search budget exhausted") as info:
            cli._fork_beside(no_fit, lambda: "parent value")
        assert info.value.best == best
        assert_no_child_left()


class TestOneCoreBesideTheFork:
    """No helper thread is started between a fork and its join, in either process."""

    @pytest.mark.parametrize(
        "argv",
        [
            # shrink runs its 300 lag rows in three blocks before the fork
            ["analyze", "--input", "aggregation512", "--n", "300", "--outdir", "{tmp}/r"],
            # replicate 0's shrink runs two blocks before the fork; the probe runs beside it
            ["riskbench", "whitenoise", "--n", "200", "--reps", "1", "--out", "{tmp}/b.txt"],
        ],
        ids=["analyze", "riskbench"],
    )
    def test_threads_only_outside_the_fork(self, tmp_path, monkeypatch, argv):
        log = tmp_path / "calls.log"
        log_thread_counts(monkeypatch, log)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
        assert_no_child_left()
        events = [line.split()[1] for line in log.read_text().splitlines()]
        fork, join = events.index("fork"), events.index("join")
        assert "thread" not in events[fork:join]
        assert events.count("fork") == 1
        # the stages before the fork run on two threads wherever two CPUs are usable
        assert ("thread" in events[:fork]) == (ambiguity._usable_cpus() > 1)

    def test_parent_failure_lifts_the_cap(self):
        def refuse():
            raise ValueError("parent refused")

        with pytest.raises(ValueError, match="parent refused"):
            cli._fork_beside(lambda: None, refuse)
        assert_no_child_left()
        assert not ambiguity._capped
        seen = []

        def fill(block):
            seen.append(threading.get_ident())
            time.sleep(0.01)

        ambiguity._in_row_blocks(fill, 2, 2**16)  # two blocks of one row
        threads = min(2, ambiguity._usable_cpus())  # one CPU: one pass on this thread
        assert len(seen) == threads and len(set(seen)) == threads


class TestForkedFitWriter:
    """A converged run writes the files of its shrink result in a forked child, beside the rest."""

    ARGV = ["analyze", "--input", "whitenoise", "--n", "16"]
    # what the shrink result alone determines
    CHILD_FILES = (
        "emaf.mat", "psi.txt", "qq_re.txt", "qq_im.txt", "theta.mat", "af_eb.mat", "moments_eb.mat"
    )

    def failing_run(self, tmp_path, capsys, directories: tuple[str, ...]) -> str:
        outdir = tmp_path / "r"
        for name in directories:
            (outdir / name).mkdir(parents=True)
        assert main(self.ARGV + ["--outdir", str(outdir)]) == 2
        assert_no_child_left()
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert not (outdir / "summary.txt").exists()
        return err

    def test_child_os_error_reads_as_before(self, tmp_path, capsys):
        err = self.failing_run(tmp_path, capsys, ("emaf.mat",))
        path = tmp_path / "r" / "emaf.mat"
        assert err == f"error: cannot write output: [Errno 21] Is a directory: '{path}'\n"

    def test_child_value_error_is_one_line(self, tmp_path, capsys, monkeypatch):
        write = cli.write_matrix

        def refuse_emaf(path, array, trailing=()):
            if Path(path).name == "emaf.mat":
                raise ValueError("emaf refused")
            write(path, array, trailing)

        monkeypatch.setattr(cli, "write_matrix", refuse_emaf)
        assert self.failing_run(tmp_path, capsys, ()) == "error: emaf refused\n"

    @pytest.mark.parametrize("directories", [("tfr.mat",), ("emaf.mat", "tfr.mat")])
    def test_parent_failure_is_the_one_reported(self, tmp_path, capsys, directories):
        err = self.failing_run(tmp_path, capsys, directories)
        assert err.startswith("error: cannot write output: ") and "tfr.mat" in err, err

    def test_killed_child_names_its_signal(self, tmp_path, capsys, monkeypatch):
        def die(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(cli, "_write_shrink_files", die)
        err = self.failing_run(tmp_path, capsys, ())
        assert err.startswith("error: cannot write output: ") and f"signal {int(signal.SIGKILL)}" in err

    @pytest.mark.parametrize("correction", ["clip", "shift"])
    def test_no_thread_count_call_between_the_fork_and_the_join(self, tmp_path, monkeypatch, correction):
        log = tmp_path / "calls.log"
        cap, restore = log_thread_counts(monkeypatch, log)
        argv = self.ARGV + ["--correction", correction, "--outdir", str(tmp_path / "r")]
        assert main(argv) == 0
        # shrink makes no thread-count call, and every estimate stage runs inside the one cap
        events = cap + ["fork", "join"] + restore
        assert log.read_text().splitlines() == [f"{os.getpid()} {event}" for event in events]
        assert_no_child_left()

    @pytest.mark.parametrize("stage", ["assemble", "correct", "bilinear"])
    def test_stage_failing_beside_the_child_names_the_input(self, tmp_path, capsys, monkeypatch, stage):
        def refuse(*args, **kwargs):
            raise ValueError(f"{stage} refused")

        monkeypatch.setattr(cli, stage, refuse)
        err = self.failing_run(tmp_path, capsys, ())
        assert err == f"error: cannot analyze whitenoise: {stage} refused\n"
        # the child wrote its files beside it
        assert {path.name for path in (tmp_path / "r").iterdir()} == set(self.CHILD_FILES)

    def test_each_side_writes_its_files(self, tmp_path, monkeypatch):
        log = tmp_path / "files.log"
        write = cli.write_matrix

        def logged_write(path, array, trailing=()):
            append_line(log, f"{os.getpid()} {Path(path).name}")
            write(path, array, trailing)

        def logged_open(path, *args, **kwargs):
            if not isinstance(path, int):  # not the fork's pipe
                append_line(log, f"{os.getpid()} {Path(path).name}")
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "write_matrix", logged_write)
        monkeypatch.setattr(cli, "open", logged_open, raising=False)  # psi.txt and summary.txt
        assert main(self.ARGV + ["--outdir", str(tmp_path / "r")]) == 0
        assert_no_child_left()
        written: dict[str, list[str]] = {}
        for line in log.read_text().splitlines():
            pid, name = line.split()
            written.setdefault(pid, []).append(name)
        parent = written.pop(str(os.getpid()))
        assert sorted(parent) == ["cov_eb.mat", "summary.txt", "tfr.mat"]
        ((_, child),) = written.items()
        assert sorted(child) == sorted(self.CHILD_FILES)

    def test_threaded_fork_warning_is_ignored(self, tmp_path, monkeypatch):
        # what os.fork warns on Python >= 3.12 while other threads are alive
        fork = os.fork

        def warning_fork():
            message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead"
            warnings.warn(message + " to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        assert main(self.ARGV + ["--outdir", str(tmp_path / "r")]) == 0
        assert_no_child_left()

    def test_failed_fork_closes_the_pipe(self, tmp_path, capsys, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        before = len(os.listdir("/dev/fd"))
        assert main(self.ARGV + ["--outdir", str(tmp_path / "r")]) == 2
        assert len(os.listdir("/dev/fd")) == before
        assert_one_error_line(capsys, "cannot write output: [Errno 11]")

    WRITERS_ARGV = ["analyze", "--input", "aggregation512", "--n", "64", "--seed", "2"]
    WRITERS_ARGV += ["--alpha", "0", "--kernel", "hann:5", "--correction", "shift"]

    def test_run_without_fork_writes_the_forked_bytes(self, tmp_path, monkeypatch):
        argv = self.WRITERS_ARGV
        assert main(argv + ["--outdir", str(tmp_path / "forked")]) == 0
        monkeypatch.delattr(os, "fork")  # _fork_beside's fallback runs the two sides in turn
        assert main(argv + ["--outdir", str(tmp_path / "unforked")]) == 0
        assert sorted(p.name for p in (tmp_path / "unforked").iterdir()) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            forked, unforked = (tmp_path / run / name for run in ("forked", "unforked"))
            assert forked.read_bytes() == unforked.read_bytes(), name


class TestErrorsNameTheirSetting:
    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["analyze", "--input", "whitenoise", "--n", "16", "--kernel", "hann:x"], "kernel"),
            (["analyze", "--config", "{cfg}"], "'n'"),
            (["riskbench", "whitenoise", "--reps", "1", "--n", "16", "--seed", "-1"], "seed"),
            (["simulate", "tvchirp", "--n", "16", "--seed", "-1"], "seed"),
            (["analyze", "--input", "whitenoise", "--n", "16", "--dt", "nan"], "dt must be a"),
            (["analyze", "--input", "whitenoise", "--n", "abc"], "--n"),
            (["riskbench", "whitenoise", "--n", "16"], "--reps"),
            (["analyze", "--input", "whitenoise", "--correction", "foo"], "--correction"),
            (["analyze", "--input", "whitenoise", "--n", "16", "--bogus"], "--bogus"),
        ],
        ids=[
            "kernel-spec",
            "config-value",
            "riskbench-seed",
            "simulate-seed",
            "analyze-dt",
            "parse-int",
            "required-flag",
            "bad-choice",
            "unknown-flag",
        ],
    )
    def test_one_line_names_the_flag_or_key(self, tmp_path, capsys, argv, fragment):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("input=whitenoise\nn=abc\n")
        argv = [arg.format(cfg=cfg) for arg in argv]
        out = ["--outdir" if argv[0] == "analyze" else "--out", str(tmp_path / "r")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + out) == 2
        assert_one_error_line(capsys, fragment)
        assert not (tmp_path / "r").exists()


class TestAmplitudeRange:
    @pytest.fixture(scope="class")
    def record(self):
        return gen_aggregation(64, seed=1).samples

    @pytest.mark.parametrize("scale", [1e-78, 1e-75, 1e75])
    def test_scaled_record_is_estimated(self, tmp_path, record, scale):
        sig = tmp_path / "x.sig"
        write_signal(sig, TimeSeries(scale * record))
        assert main(["analyze", "--input", str(sig), "--outdir", str(tmp_path / "r")]) == 0

    def test_record_below_unit_amplitude_writes_every_artifact(self, tmp_path):
        # its shrunk covariance made clip's value-range eigensolver fail unless rescaled
        sig, outdir = tmp_path / "x.sig", tmp_path / "r"
        write_signal(sig, TimeSeries(1e-3 * gen_white_noise(33, seed=4).samples))
        assert main(["analyze", "--input", str(sig), "--outdir", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.iterdir()) == sorted(ARTIFACTS)

    def test_overflowing_record_exits_2_with_one_line(self, tmp_path, capsys, record):
        sig = tmp_path / "x.sig"
        write_signal(sig, TimeSeries(1e80 * record))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--input", str(sig), "--outdir", str(tmp_path / "r")]) == 2
        assert_one_error_line(capsys, "overflow")


def dense_from_half(path) -> np.ndarray:
    """Rebuild the full EMAF from its ``tau >= 0`` rows by the mirror rule."""
    half, trailing = read_matrix(path)
    n = half.shape[0]
    assert trailing == [f"# half shape={2 * n - 1}x{2 * n}"]
    k, taus = np.arange(-n, n), np.arange(1, n)
    phase = np.exp(1j * np.pi * ((taus[:, None] * k) % (2 * n)) / n)
    grid = np.empty((2 * n - 1, 2 * n), dtype=complex)
    grid[n - 1 :] = half
    grid[n - 2 :: -1] = phase * half[1:, (n - k) % (2 * n)].conj()
    return grid


class TestHalfEmaf:
    @pytest.fixture(
        scope="class",
        params=[
            ("aggregation512", 2, 1.0),
            ("aggregation512", 16, 1.0),
            ("aggregation512", 64, 1.0),
            ("tvchirp", 64, 0.5),
        ],
        ids=["agg-n2", "agg-n16", "agg-n64", "tvchirp-dt0.5"],
    )
    def run(self, request, tmp_path_factory):
        preset, n, dt = request.param
        outdir = tmp_path_factory.mktemp("half") / "run"
        argv = ["analyze", "--input", preset, "--n", str(n), "--dt", str(dt), "--seed", "1"]
        assert main(argv + ["--outdir", str(outdir)]) == 0
        x = cli._PRESETS[preset].sample(n, 1, dt)
        return outdir / "emaf.mat", emaf(shrink(x).m_raw).entries

    def test_rows_are_the_nonnegative_lags_bitwise(self, run):
        path, a_raw = run
        half, _ = read_matrix(path)
        n = a_raw.shape[1] // 2
        assert half.shape == (n, 2 * n)
        np.testing.assert_array_equal(half.view(np.uint64), a_raw[n - 1 :].view(np.uint64))

    def test_mirror_rule_rebuilds_the_grid(self, run):
        path, a_raw = run
        error = np.max(np.abs(dense_from_half(path) - a_raw))
        assert error <= 1e-15 * np.max(np.abs(a_raw))

    def test_every_exit_path_writes_the_same_layout(self, tmp_path, monkeypatch):
        zero = tmp_path / "zero.sig"
        write_signal(zero, TimeSeries(np.zeros(32)))
        noise = ["whitenoise", "--n", "32"]
        assert main(["analyze", "--input", str(zero), "--outdir", str(tmp_path / "z")]) == 0
        assert main(["analyze", "--input", *noise, "--outdir", str(tmp_path / "w")]) == 0
        monkeypatch.setattr("ambishrink.shrinkage._MAX_ITERATIONS", 1)
        assert main(["analyze", "--input", *noise, "--outdir", str(tmp_path / "u")]) == 3
        for name in ("z", "w", "u"):
            data, trailing = read_matrix(tmp_path / name / "emaf.mat")
            assert data.shape == (32, 64)
            assert trailing == ["# half shape=63x64"]


class TestStreamedEmaf:
    @pytest.mark.parametrize("preset, n", [("aggregation512", 129), ("tvchirp", 200)])
    def test_blocks_write_the_full_grid_files(self, tmp_path, preset, n):
        # 2n - 1 lag rows in blocks of 1 MiB: two blocks at n = 129 (the origin in the first),
        # three at n = 200 (the origin in the second)
        outdir = tmp_path / "run"
        assert main(["analyze", "--input", preset, "--n", str(n), "--outdir", str(outdir)]) == 0
        est = shrink(cli._PRESETS[preset].sample(n, 0, 1.0))
        a_raw = emaf(est.m_raw)
        half, _ = read_matrix(outdir / "emaf.mat")
        np.testing.assert_array_equal(half.view(np.uint64), a_raw.entries[n - 1 :].view(np.uint64))
        af_eb = dense_from_sparse(outdir / "af_eb.mat")
        expected = apply_threshold(a_raw, est.theta).entries
        np.testing.assert_array_equal(af_eb.view(np.uint64), expected.view(np.uint64))
        a_norm = normalize(a_raw, normalization(n, 1.0, 0.5))
        for name, part in zip(("qq_re.txt", "qq_im.txt"), qq_normalized_af(a_norm, est.params.vbar)):
            table = np.column_stack([part.theoretical_quantiles, part.sample_quantiles])
            written, _ = read_matrix(outdir / name)
            np.testing.assert_array_equal(written.view(np.uint64), table.view(np.uint64))


class TestReadmeSnippets:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_rebuild_snippets_match_shrink(self, tmp_path, monkeypatch):
        blocks = self.README.read_text().split("```python\n")[1:]
        snippets = [block.split("```")[0] for block in blocks if 'read_matrix("run/' in block]
        argv = ["analyze", "--input", "aggregation512", "--n", "64"]
        assert main(argv + ["--outdir", str(tmp_path / "run")]) == 0
        est = shrink(gen_aggregation(64, seed=0))
        monkeypatch.chdir(tmp_path)
        grids = {}
        for code in snippets:
            name = code.split('read_matrix("run/')[1].split('"')[0]
            scope: dict = {}
            exec(code, scope)
            grids[name] = scope["grid"]
        assert set(grids) == {"af_eb.mat", "emaf.mat"}
        a_raw = emaf(est.m_raw)
        af_eb = apply_threshold(a_raw, est.theta).entries
        assert np.count_nonzero(af_eb) > 0
        np.testing.assert_array_equal(grids["af_eb.mat"].view(np.uint64), af_eb.view(np.uint64))
        a_raw = a_raw.entries
        assert np.max(np.abs(grids["emaf.mat"] - a_raw)) <= 1e-15 * np.max(np.abs(a_raw))


class TestKernelOrder:
    def test_order_on_a_non_hermite_flag_exits_2(self, tmp_path, capsys):
        argv = ["analyze", "--input", "whitenoise", "--n", "16", "--kernel", "hann:5:2"]
        assert main(argv + ["--outdir", str(tmp_path / "r")]) == 2
        assert_one_error_line(capsys, "hann:5:2")
        assert not (tmp_path / "r").exists()

    def test_order_on_a_non_hermite_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("input=whitenoise\nn=16\nkernel=gaussian:5:1\n")
        assert main(["analyze", "--config", str(cfg), "--outdir", str(tmp_path / "r")]) == 2
        assert_one_error_line(capsys, "gaussian:5:1")
        assert not (tmp_path / "r").exists()


class TestFailureContract:
    """Every run exits 0, 2 or 3, writes at most one stderr line and raises nothing out of main."""

    @staticmethod
    def run(capsys, argv: list[str]) -> int:
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        assert err.count("\n") == (0 if code == 0 else 1), err
        assert code == 0 or err.startswith("error: "), err
        return code

    @settings(
        max_examples=40,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(8, 24),
        seed=st.integers(0, 2**16),
        amplitude=st.floats(-160, 160),
        dt=st.floats(-160, 160),
        kernel=st.sampled_from(["delta", "hann:5", "hermite:5:2"]),
        alpha=st.sampled_from(["-0.5", "0", "0.5"]),
        correction=st.sampled_from(["clip", "shift"]),
    )
    def test_analyze_at_any_scale(
        self, tmp_path, capsys, n, seed, amplitude, dt, kernel, alpha, correction
    ):
        sig = tmp_path / "x.sig"
        samples = 10.0**amplitude * gen_white_noise(n, seed=seed).samples
        write_signal(sig, TimeSeries(samples, dt=10.0**dt))
        argv = ["analyze", "--input", str(sig), "--outdir", str(tmp_path / "r"), "--kernel", kernel]
        self.run(capsys, argv + [f"--alpha={alpha}", "--correction", correction])

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["analyze", "--input", "tvchirp", "--n", "8", "--dt", "1e100"], "cannot analyze"),
            (
                ["riskbench", "tvchirp", "--n", "16", "--reps", "1", "--dt", "1e100"],
                "error: cannot run riskbench on tvchirp: entries contain NaN or infinity",
            ),
            (
                ["riskbench", "tvchirp", "--n", "16", "--reps", "1", "--dt", "1e300"],
                "error: cannot run riskbench on tvchirp: entries contain NaN or infinity",
            ),
            (
                ["simulate", "tvchirp", "--n", "16", "--dt", "1e308"],
                "error: cannot simulate tvchirp: samples contain NaN or infinity",
            ),
        ],
        ids=["analyze-1e100", "riskbench-1e100", "riskbench-truth-1e300", "simulate-1e308"],
    )
    def test_overflowing_preset_exits_2(self, tmp_path, capsys, argv, fragment):
        out = ["--outdir" if argv[0] == "analyze" else "--out", str(tmp_path / "r")]
        assert main(argv + out) == 2
        assert_one_error_line(capsys, fragment)

    @pytest.mark.parametrize(
        "scale, dt, kernel, code",
        [(1e10, 1e300, "delta", 2), (1e-100, 1e160, "hann:5", 0)],
        ids=["emaf-overflow", "kernel-tfr"],
    )
    def test_file_record_at_huge_dt(self, tmp_path, capsys, scale, dt, kernel, code):
        sig = tmp_path / "x.sig"
        write_signal(sig, TimeSeries(scale * gen_white_noise(16, seed=1).samples, dt=dt))
        argv = ["analyze", "--input", str(sig), "--outdir", str(tmp_path / "r"), "--kernel", kernel]
        assert self.run(capsys, argv) == code
