"""End-to-end command-line driver.

Three subcommands cover the whole workflow: ``simulate`` writes sample
paths of the built-in benchmark processes, ``analyze`` runs the full
estimate / normalize / fit / threshold / invert pipeline on a signal file
or preset and emits every intermediate artifact as a text file, and
``riskbench`` measures estimation risk against the exact covariance of a
preset over Monte Carlo replicates.

Everything written is plain text with 17 significant digits, so artifacts
round-trip bitwise through the bundled parsers and diff cleanly across
runs.  The shrunk grids are written as rows of their kept cells and the QQ
diagnostics as at most ``QQ_POINTS`` order statistics.  Exit codes: 0 on
success, 2 for usage or input errors, 3 when the mixture fit fails to
converge (best-so-far parameters are still written).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .covariance import assemble, correct
from .diagnostics import qq_normalized_af, qq_ranks, risk_report, variance_reduction_probe
from .procgen import (
    TheoreticalCovariance,
    chirp_filter_process,
    cyclostationary_process,
    gen_aggregation,
    gen_modulated_ma,
    gen_tv_filter,
    gen_white_noise,
    locally_stationary_process,
    theoretical_covariance,
)
from .series import TimeSeries, analytic_spectrum_weights
from .shrinkage import shrink
from .textio import (
    _fmt_real,
    format_psi_record,
    read_signal,
    write_matrix,
    write_signal,
)
from .tfr import bilinear, window_bank

__all__ = ["PipelineConfig", "main"]

PRESETS = ("aggregation512", "whitenoise", "ma-locstat", "ma-cyclo", "tvchirp")


@dataclass(frozen=True)
class PipelineConfig:
    """Validated bundle of every knob the analyze pipeline accepts."""

    input: str
    outdir: str
    dt: float = 1.0
    delta: float = 0.5
    correction: str = "clip"
    alpha: float = 0.5
    kernel: str = "delta"
    seed: int = 0
    n: int = 512

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (np.isfinite(self.delta) and 0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if self.correction not in ("shift", "clip"):
            raise ValueError(f"correction must be shift or clip, got {self.correction!r}")
        if not (np.isfinite(self.alpha) and -0.5 <= self.alpha <= 0.5):
            raise ValueError(f"alpha must lie in [-1/2, 1/2], got {self.alpha!r}")
        if self.n < 2:
            raise ValueError(f"series length must be at least 2, got {self.n}")


def _generate(preset: str, n: int, seed: int, dt: float) -> TimeSeries:
    if preset == "aggregation512":
        return gen_aggregation(n, seed=seed, dt=dt)
    if preset == "whitenoise":
        return gen_white_noise(n, seed=seed, dt=dt)
    if preset == "ma-locstat":
        return gen_modulated_ma(locally_stationary_process(length=n, seed=seed), n, dt=dt)
    if preset == "ma-cyclo":
        return gen_modulated_ma(cyclostationary_process(seed=seed), n, dt=dt)
    if preset == "tvchirp":
        p = replace(chirp_filter_process(seed=seed), dt=dt)
        return gen_tv_filter(p, n)
    raise ValueError(f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}")


def _preset_truth(preset: str, n: int, dt: float) -> TheoreticalCovariance:
    if preset == "aggregation512":
        from .procgen import AggregationProcess

        return theoretical_covariance(AggregationProcess(seed=0), n)
    if preset == "whitenoise":
        return TheoreticalCovariance(np.eye(n))
    if preset == "ma-locstat":
        return theoretical_covariance(locally_stationary_process(length=n, seed=0), n)
    if preset == "ma-cyclo":
        return theoretical_covariance(cyclostationary_process(seed=0), n)
    if preset == "tvchirp":
        return theoretical_covariance(replace(chirp_filter_process(seed=0), dt=dt), n)
    raise ValueError(f"unknown preset {preset!r}; choose from {', '.join(PRESETS)}")


def _analytic_truth(real_cov: np.ndarray) -> np.ndarray:
    """Covariance of the demeaned analytic signal implied by a real one.

    The pipeline estimates moments of ``Z = analytic(demean(X))``, so risk
    must be judged against ``P D C D P*`` where ``D`` removes the mean and
    ``P`` is the analytic-signal operator.
    """
    n = real_cov.shape[0]
    centering = np.eye(n) - np.ones((n, n)) / n
    weights = analytic_spectrum_weights(n)
    op = np.fft.ifft(weights[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    t = op @ centering @ real_cov @ centering @ op.conj().T
    return (t + t.conj().T) / 2.0


def _smoothing_kernel(spec: str, dt: float):
    """Translate a kernel flag into a time-smoothing callable and its label.

    ``delta`` means no smoothing.  ``<kind>:<length>`` squares the named
    unit-energy window into a nonnegative unit-mass kernel;
    ``hermite:<length>:<order>`` averages the squared windows of the whole
    bank, a uniform multitaper combination (the choice of combination
    weights is not pinned down anywhere authoritative, so uniform it is).
    """
    if spec == "delta":
        return None, "delta"
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"kernel spec {spec!r} must be 'delta', '<kind>:<length>' or 'hermite:<length>:<order>'"
        )
    kind = parts[0]
    length = int(parts[1])
    order = int(parts[2]) if len(parts) == 3 else 0
    rows = np.atleast_2d(window_bank(kind, order, length))
    profile = np.mean(rows * rows, axis=0)
    profile = profile / profile.sum()
    half = (length - 1) // 2

    def kern(tau: int, offsets: np.ndarray) -> np.ndarray:
        idx = np.rint(offsets / dt).astype(int) + half
        out = np.zeros(offsets.shape)
        ok = (idx >= 0) & (idx < profile.size)
        out[ok] = profile[idx[ok]] / dt
        return out

    return kern, spec


def _write_summary(path: Path, items: list[tuple[str, str]]) -> None:
    with open(path, "w") as fh:
        for key, value in items:
            fh.write(f"{key}={value}\n")


def _summary_items(cfg: PipelineConfig, n: int, **values: float | int | str) -> list[tuple[str, str]]:
    items: list[tuple[str, str]] = [
        ("input", cfg.input),
        ("n", str(n)),
        ("dt", _fmt_real(cfg.dt)),
        ("delta", _fmt_real(cfg.delta)),
        ("alpha", _fmt_real(cfg.alpha)),
        ("correction", cfg.correction),
        ("kernel", cfg.kernel),
        ("seed", str(cfg.seed)),
    ]
    for key, value in values.items():
        items.append((key, value if isinstance(value, str) else _fmt_real(float(value))))
    return items


def _write_shrunk(outdir: Path, theta: np.ndarray, af_eb: np.ndarray) -> None:
    """Write ``theta.mat`` and ``af_eb.mat`` as sparse rows of the cells with theta > 0.

    Each row is ``(tau, k, value)`` with ``tau``/``k`` as in
    :meth:`AmbiguityGrid.at`, in row-major grid order; every other cell is
    zero.  A trailing ``# dense shape=<rows>x<cols>`` line names the grid.
    """
    rows, cols = np.nonzero(theta > 0)
    n = theta.shape[1] // 2
    shape = [f"# dense shape={theta.shape[0]}x{theta.shape[1]}"]
    for name, grid in (("theta.mat", theta), ("af_eb.mat", af_eb)):
        table = np.column_stack([rows - (n - 1), cols - n, grid[rows, cols]])
        write_matrix(outdir / name, table, trailing=shape)


def _zero_artifacts(cfg: PipelineConfig, x: TimeSeries, outdir: Path) -> None:
    """Degenerate all-zero outputs for an identically zero input signal."""
    n = x.n
    czeros = np.zeros((2 * n - 1, 2 * n), dtype=complex)
    write_matrix(outdir / "emaf.mat", czeros)
    with open(outdir / "psi.txt", "w") as fh:
        fh.write(format_psi_record(0.0, 0.0, 0.0, 0.0, 0) + "\n")
    _write_shrunk(outdir, np.zeros((2 * n - 1, 2 * n)), czeros)
    write_matrix(outdir / "moments_eb.mat", np.zeros((2 * n - 1, n), dtype=complex))
    write_matrix(
        outdir / "cov_eb.mat",
        np.zeros((n, n), dtype=complex),
        trailing=[f"# correction={cfg.correction} mineig=0"],
    )
    write_matrix(
        outdir / "tfr.mat",
        np.zeros((n, 2 * n), dtype=complex),
        trailing=[f"# tfr alpha={_fmt_real(cfg.alpha)} kernel={cfg.kernel}"],
    )
    qq_rows = qq_ranks((2 * n - 1) * 2 * n - 1).size
    for name, tag in (("qq_re.txt", "real"), ("qq_im.txt", "imaginary")):
        write_matrix(outdir / name, np.zeros((qq_rows, 2)), trailing=[f"# component={tag}"])
    _write_summary(
        outdir / "summary.txt",
        _summary_items(
            cfg,
            n,
            converged="1",
            vbar=0.0,
            rho=0.0,
            sigma2=0.0,
            nll=0.0,
            iterations="0",
            min_eig_before=0.0,
            min_eig_after=0.0,
            retained_fraction=0.0,
        ),
    )


def run_analyze(cfg: PipelineConfig) -> int:
    path = Path(cfg.input)
    if path.exists():
        try:
            x = read_signal(path)
        except (OSError, ValueError) as err:
            print(f"error: cannot read {cfg.input}: {err}", file=sys.stderr)
            return 2
    elif cfg.input in PRESETS:
        x = _generate(cfg.input, cfg.n, cfg.seed, cfg.dt)
    else:
        print(f"error: input {cfg.input!r} is neither a file nor a preset", file=sys.stderr)
        return 2
    try:
        kernel, kernel_name = _smoothing_kernel(cfg.kernel, x.dt)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: cannot create output directory: {err}", file=sys.stderr)
        return 2

    if not np.any(x.samples):
        _zero_artifacts(cfg, x, outdir)
        return 0

    try:
        est = shrink(x, cfg.delta)
    except ValueError as err:
        print(f"error: cannot analyze {cfg.input}: {err}", file=sys.stderr)
        return 2
    params = est.params
    write_matrix(outdir / "emaf.mat", est.a_raw.entries)
    with open(outdir / "psi.txt", "w") as fh:
        fh.write(
            format_psi_record(
                params.vbar, params.rho, params.sigma2, params.nll, params.iterations
            )
            + "\n"
        )
    qq_re, qq_im = qq_normalized_af(est.a_norm, params.vbar)
    for qq, name in ((qq_re, "qq_re.txt"), (qq_im, "qq_im.txt")):
        write_matrix(
            outdir / name,
            np.column_stack([qq.theoretical_quantiles, qq.sample_quantiles]),
            trailing=[f"# component={qq.component}"],
        )
    if not est.converged:
        _write_summary(
            outdir / "summary.txt",
            _summary_items(
                cfg,
                x.n,
                converged="0",
                vbar=params.vbar,
                rho=params.rho,
                sigma2=params.sigma2,
                nll=params.nll,
                iterations=str(params.iterations),
            ),
        )
        print("error: mixture fit did not converge; best-so-far written", file=sys.stderr)
        return 3

    _write_shrunk(outdir, est.theta.theta, est.af_eb.entries)
    write_matrix(outdir / "moments_eb.mat", est.m_eb.entries)
    cov_est = assemble(est.m_eb)
    cov_fixed = correct(cov_est, cfg.correction)
    write_matrix(
        outdir / "cov_eb.mat",
        cov_fixed.entries,
        trailing=[
            f"# correction={cov_fixed.correction} "
            f"mineig={_fmt_real(cov_fixed.min_eigenvalue())}"
        ],
    )
    surface = bilinear(est.m_eb, alpha=cfg.alpha, kernel=kernel, kernel_name=kernel_name)
    write_matrix(
        outdir / "tfr.mat",
        surface.values,
        trailing=[f"# tfr alpha={_fmt_real(cfg.alpha)} kernel={kernel_name}"],
    )
    _write_summary(
        outdir / "summary.txt",
        _summary_items(
            cfg,
            x.n,
            converged="1",
            vbar=params.vbar,
            rho=params.rho,
            sigma2=params.sigma2,
            nll=params.nll,
            iterations=str(params.iterations),
            min_eig_before=cov_est.min_eigenvalue(),
            min_eig_after=cov_fixed.min_eigenvalue(),
            retained_fraction=float(np.mean(est.theta.theta > 0)),
        ),
    )
    return 0


def run_riskbench(
    preset: str, reps: int, n: int, seed: int, dt: float, correction: str, out: str
) -> int:
    if reps < 1:
        print(f"error: reps must be positive, got {reps}", file=sys.stderr)
        return 2
    try:
        truth_real = _preset_truth(preset, n, dt)
        var_eb, var_raw = variance_reduction_probe(n, max(reps, 100), seed)
        truth = TheoreticalCovariance(_analytic_truth(truth_real.entries))
        ratios = np.empty(reps)
        for rep in range(reps):
            est = shrink(_generate(preset, n, seed + rep, dt))
            shrunk = correct(assemble(est.m_eb), correction)
            ratios[rep] = risk_report(shrunk, assemble(est.m_raw), truth).frobenius_ratio
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        with open(out, "w") as fh:
            fh.write(f"# riskbench v1 preset={preset} n={n} reps={reps} seed={seed}\n")
            for rep, ratio in enumerate(ratios):
                fh.write(f"rep={rep} ratio={_fmt_real(float(ratio))}\n")
            fh.write(f"var_eb={_fmt_real(var_eb)} var_raw={_fmt_real(var_raw)}\n")
            fh.write(f"mean_ratio={_fmt_real(float(np.mean(ratios)))}\n")
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 2
    return 0


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


_ANALYZE_FIELDS: dict[str, type] = {
    "input": str,
    "outdir": str,
    "dt": float,
    "delta": float,
    "correction": str,
    "alpha": float,
    "kernel": str,
    "seed": int,
    "n": int,
}


def _analyze_config(args: argparse.Namespace) -> PipelineConfig:
    merged: dict[str, object] = {}
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in _ANALYZE_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _ANALYZE_FIELDS[key](raw)
    for key in _ANALYZE_FIELDS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    if "input" not in merged:
        raise ValueError("analyze needs --input (flag or config file)")
    merged.setdefault("outdir", "analysis")
    return PipelineConfig(**merged)  # type: ignore[arg-type]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambishrink",
        description="Shrinkage estimation of time-varying second-order structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a sample path of a benchmark process")
    sim.add_argument("preset", help=f"one of: {', '.join(PRESETS)}")
    sim.add_argument("--n", type=int, default=512, help="series length (default 512)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--dt", type=float, default=1.0)
    sim.add_argument("--out", default=None, help="output path (default <preset>.sig)")

    ana = sub.add_parser("analyze", help="run the full pipeline and write artifacts")
    ana.add_argument("--input", default=None, help="signal file or preset name")
    ana.add_argument("--outdir", default=None, help="artifact directory (default analysis)")
    ana.add_argument("--dt", type=float, default=None)
    ana.add_argument("--delta", type=float, default=None, help="normalization exponent")
    ana.add_argument("--correction", choices=("shift", "clip"), default=None)
    ana.add_argument("--alpha", type=float, default=None, help="surface re-centering")
    ana.add_argument("--kernel", default=None, help="delta, <kind>:<length>, or hermite:<length>:<order>")
    ana.add_argument("--seed", type=int, default=None, help="seed when input is a preset")
    ana.add_argument("--n", type=int, default=None, help="length when input is a preset")
    ana.add_argument("--config", default=None, help="key=value file; flags win on conflict")

    rb = sub.add_parser("riskbench", help="Monte Carlo risk against the exact covariance")
    rb.add_argument("preset", help=f"one of: {', '.join(PRESETS)}")
    rb.add_argument("--reps", type=int, required=True)
    rb.add_argument("--n", type=int, default=512)
    rb.add_argument("--seed", type=int, default=0)
    rb.add_argument("--dt", type=float, default=1.0)
    rb.add_argument("--correction", choices=("shift", "clip"), default="clip")
    rb.add_argument("--out", default="riskbench.txt")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        try:
            x = _generate(args.preset, args.n, args.seed, args.dt)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        try:
            write_signal(args.out or f"{args.preset}.sig", x)
        except OSError as err:
            print(f"error: cannot write output: {err}", file=sys.stderr)
            return 2
        return 0
    if args.command == "analyze":
        try:
            cfg = _analyze_config(args)
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        return run_analyze(cfg)
    if args.command == "riskbench":
        return run_riskbench(
            args.preset, args.reps, args.n, args.seed, args.dt, args.correction, args.out
        )
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
