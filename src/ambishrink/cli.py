"""End-to-end command-line driver.

Three subcommands cover the whole workflow: ``simulate`` writes sample
paths of the built-in benchmark processes, ``analyze`` runs the full
estimate / normalize / fit / threshold / invert pipeline on a signal file
or preset and emits every intermediate artifact as a text file, and
``riskbench`` measures estimation risk against the exact covariance of a
preset over Monte Carlo replicates.  ``_PRESETS`` is the one table of
presets: each one's sampler and the exact covariance of its real samples.

Everything written is plain text with 17 significant digits, so artifacts
round-trip bitwise through the bundled parsers and diff cleanly across
runs.  The raw EMAF is written as its ``tau >= 0`` rows, the half that its
point symmetry does not repeat; the shrunk grids as rows of their kept
cells; and the QQ diagnostics as at most ``QQ_POINTS`` order statistics.
Exit codes: 0 on success, 2 for usage or input errors and failed writes
(among them a negative seed, and a riskbench ``--n`` below 8 or ``--dt``
not finite and positive, both caught before any fit runs), 3 when the
mixture fit fails to converge (the files written before the fit is judged,
and ``summary.txt``, still are).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn, get_type_hints

import numpy as np

from .ambiguity import check_delta, emaf, normalization, normalize
from .covariance import CORRECTIONS, assemble, correct
from .diagnostics import qq_normalized_af, qq_ranks, risk_report, variance_reduction_probe
from .procgen import (
    AggregationProcess,
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
from .series import TimeSeries, analytic_spectrum_weights, check_dt, check_n
from .shrinkage import shrink
from .textio import _fmt_real, format_psi_record, read_signal, write_matrix, write_signal
from .tfr import bilinear, check_alpha, window_bank

__all__ = ["PipelineConfig", "main"]


class _Preset(NamedTuple):
    sample: Callable[[int, int, float], TimeSeries]  # (n, seed, dt)
    truth: Callable[[int, float], TheoreticalCovariance]  # (n, dt); the seed draws only noise


_PRESETS = {
    "aggregation512": _Preset(
        lambda n, seed, dt: gen_aggregation(n, seed=seed, dt=dt),
        lambda n, dt: theoretical_covariance(AggregationProcess(seed=0), n),
    ),
    "whitenoise": _Preset(
        lambda n, seed, dt: gen_white_noise(n, seed=seed, dt=dt),
        lambda n, dt: TheoreticalCovariance(np.eye(n)),
    ),
    "ma-locstat": _Preset(
        lambda n, seed, dt: gen_modulated_ma(
            locally_stationary_process(length=n, seed=seed), n, dt=dt
        ),
        lambda n, dt: theoretical_covariance(locally_stationary_process(length=n, seed=0), n),
    ),
    "ma-cyclo": _Preset(
        lambda n, seed, dt: gen_modulated_ma(cyclostationary_process(seed=seed), n, dt=dt),
        lambda n, dt: theoretical_covariance(cyclostationary_process(seed=0), n),
    ),
    "tvchirp": _Preset(
        lambda n, seed, dt: gen_tv_filter(replace(chirp_filter_process(seed=seed), dt=dt), n),
        lambda n, dt: theoretical_covariance(replace(chirp_filter_process(seed=0), dt=dt), n),
    ),
}
PRESETS = tuple(_PRESETS)


def _preset(name: str) -> _Preset:
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    return _PRESETS[name]


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _fail(message: str) -> int:
    """Report a usage or input error as one ``error:`` line on stderr; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


@dataclass(frozen=True)
class PipelineConfig:
    """Validated bundle of every knob the analyze pipeline accepts.

    Each field is also ``analyze``'s ``--<name>`` flag and config key, parsed
    by its type; its ``metadata`` holds the flag's ``help`` and ``choices``.
    """

    input: str = field(metadata={"help": "signal file or preset name"})
    outdir: str = field(default="analysis", metadata={"help": "artifact directory (default analysis)"})
    dt: float = 1.0
    delta: float = field(default=0.5, metadata={"help": "normalization exponent"})
    correction: str = field(default="clip", metadata={"choices": CORRECTIONS})
    alpha: float = field(default=0.5, metadata={"help": "surface re-centering"})
    kernel: str = field(
        default="delta", metadata={"help": "delta, <kind>:<length>, or hermite:<length>:<order>"}
    )
    seed: int = field(default=0, metadata={"help": "seed when input is a preset"})
    n: int = field(default=512, metadata={"help": "length when input is a preset"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "dt", check_dt(self.dt))
        object.__setattr__(self, "delta", check_delta(self.delta))
        if self.correction not in CORRECTIONS:
            raise ValueError(f"correction must be shift or clip, got {self.correction!r}")
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        _check_seed(self.seed)
        object.__setattr__(self, "n", check_n(self.n))


def _analytic_truth(real_cov: np.ndarray) -> np.ndarray:
    """Covariance of the demeaned analytic signal implied by a real one.

    The pipeline estimates moments of ``Z = analytic(demean(X))``, so risk
    must be judged against ``P D C D P*`` where ``D`` removes the mean and
    ``P`` is the analytic-signal operator.  ``D C D`` subtracts the column
    and then the row means of ``C``; ``P`` is applied down the columns and
    ``P*`` along the rows as ``conj(P conj(.))``, each by one FFT pair.
    """
    weights = analytic_spectrum_weights(real_cov.shape[0])
    centred = real_cov - real_cov.mean(axis=0)
    centred -= centred.mean(axis=1, keepdims=True)
    t = np.fft.ifft(weights[:, None] * np.fft.fft(centred, axis=0), axis=0)
    t = np.fft.ifft(weights * np.fft.fft(t.conj(), axis=1), axis=1).conj()
    return (t + t.conj().T) / 2.0


def _smoothing_kernel(spec: str) -> np.ndarray | None:
    """Translate a kernel flag into the unit-mass time profile of :func:`bilinear` (``None``: none).

    ``delta`` means no smoothing.  ``<kind>:<length>`` squares the named
    unit-energy window into a nonnegative unit-mass profile;
    ``hermite:<length>:<order>`` averages the squared windows of the whole
    bank, a uniform multitaper combination (the choice of combination
    weights is not pinned down anywhere authoritative, so uniform it is).
    Only ``hermite`` takes an order; any other spec is refused.
    """
    if spec == "delta":
        return None
    parts = spec.split(":")
    if len(parts) not in (2, 3) or (len(parts) == 3 and parts[0] != "hermite"):
        raise ValueError(
            f"kernel spec {spec!r} must be 'delta', '<kind>:<length>' or 'hermite:<length>:<order>'"
        )
    kind = parts[0]
    try:
        length, order = int(parts[1]), int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        raise ValueError(f"kernel spec {spec!r} has a non-integer length or order") from None
    rows = np.atleast_2d(window_bank(kind, order, length))
    profile = np.mean(rows * rows, axis=0)
    return profile / profile.sum()


def _write_fit(outdir: Path, emaf: np.ndarray, psi: tuple, qq: list[np.ndarray]) -> None:
    """Write the files a run has before its fit is judged: ``emaf.mat``, ``psi.txt``, QQ.

    ``emaf`` is the full ``(2n-1, 2n)`` grid.  A record's EMAF is
    point-symmetric, ``a(-tau, k) = exp(i pi k tau / n) conj a(tau, -k)``, so
    ``emaf.mat`` holds only its ``n`` rows ``tau >= 0`` (a view, not a copy),
    then a ``# half shape=<2n-1>x<2n>`` line naming the full grid.  ``psi``
    is ``(vbar, rho, sigma2, nll, iterations)``; ``qq`` holds the
    ``(theoretical, sample)`` quantile columns of the real and imaginary parts.
    """
    rows, cols = emaf.shape
    half = [f"# half shape={rows}x{cols}"]
    write_matrix(outdir / "emaf.mat", emaf[cols // 2 - 1 :], trailing=half)
    with open(outdir / "psi.txt", "w") as fh:
        fh.write(format_psi_record(*psi) + "\n")
    for name, tag, table in zip(("qq_re.txt", "qq_im.txt"), ("real", "imaginary"), qq):
        write_matrix(outdir / name, table, trailing=[f"# component={tag}"])


def _write_estimate(
    outdir: Path, cfg: PipelineConfig, theta, af_eb, moments, cov, mineig: float, tfr
) -> None:
    """Write the estimate files: ``theta``/``af_eb``, ``moments_eb``, ``cov_eb`` and ``tfr``.

    ``theta.mat`` and ``af_eb.mat`` hold sparse rows of the cells with
    theta > 0.  Each row is ``(tau, k, value)`` with ``tau``/``k`` as in
    :meth:`AmbiguityGrid.at`, in row-major grid order; every other cell is
    zero.  A trailing ``# dense shape=<rows>x<cols>`` line names the grid.
    ``af_eb`` holds only the shrunk EMAF's values at those cells, in that order.
    """
    rows, cols = np.nonzero(theta > 0)
    n = theta.shape[1] // 2
    shape = [f"# dense shape={theta.shape[0]}x{theta.shape[1]}"]
    for name, values in (("theta.mat", theta[rows, cols]), ("af_eb.mat", af_eb)):
        table = np.column_stack([rows - (n - 1), cols - n, values])
        write_matrix(outdir / name, table, trailing=shape)
    write_matrix(outdir / "moments_eb.mat", moments)
    trailer = f"# correction={cfg.correction} mineig={_fmt_real(mineig)}"
    write_matrix(outdir / "cov_eb.mat", cov, trailing=[trailer])
    trailer = f"# tfr alpha={_fmt_real(cfg.alpha)} kernel={cfg.kernel}"
    write_matrix(outdir / "tfr.mat", tfr, trailing=[trailer])


def _write_summary(
    outdir: Path, cfg: PipelineConfig, x: TimeSeries, preset: bool, psi: tuple, estimate: tuple | None
) -> None:
    """Write ``summary.txt``: the settings, the fit ``psi`` as in :func:`_write_fit`, the estimate.

    ``n`` and ``dt`` are the record's, so a file's ``dt`` is its header's;
    ``seed`` is named only when ``preset`` says the record was drawn from one.
    ``estimate`` is ``(min_eig_before, min_eig_after, retained_fraction)``,
    or ``None`` when the fit did not converge and no estimate was written.
    """
    items = [
        ("input", cfg.input),
        ("n", str(x.n)),
        ("dt", _fmt_real(x.dt)),
        ("delta", _fmt_real(cfg.delta)),
        ("alpha", _fmt_real(cfg.alpha)),
        ("correction", cfg.correction),
        ("kernel", cfg.kernel),
        *([("seed", str(cfg.seed))] if preset else []),
        ("converged", "0" if estimate is None else "1"),
    ]
    items += zip(("vbar", "rho", "sigma2", "nll"), map(_fmt_real, psi[:4]))
    items.append(("iterations", str(psi[4])))
    if estimate is not None:
        keys = ("min_eig_before", "min_eig_after", "retained_fraction")
        items += zip(keys, map(_fmt_real, estimate))
    with open(outdir / "summary.txt", "w") as fh:
        fh.writelines(f"{key}={value}\n" for key, value in items)


def run_analyze(cfg: PipelineConfig) -> int:
    """Estimate ``cfg.input`` into ``cfg.outdir``; any estimate stage's failure is one line."""
    path = Path(cfg.input)
    preset = not path.exists()
    if not preset:
        try:
            x = read_signal(path)
        except (OSError, ValueError) as err:
            return _fail(f"cannot read {cfg.input}: {err}")
    elif cfg.input in _PRESETS:
        x = _PRESETS[cfg.input].sample(cfg.n, cfg.seed, cfg.dt)
    else:
        return _fail(f"input {cfg.input!r} is neither a file nor a preset")
    kernel = _smoothing_kernel(cfg.kernel)
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        return _fail(f"cannot create output directory: {err}")

    n = x.n
    if not np.any(x.samples):
        grid = np.zeros((2 * n - 1, 2 * n), dtype=complex)
        psi = (0.0, 0.0, 0.0, 0.0, 0)
        qq = np.zeros((qq_ranks(grid.size - 1).size, 2))
        _write_fit(outdir, grid, psi, [qq, qq])
        # theta keeps no cell; moments, covariance and TFR are zero blocks of the grid
        _write_estimate(outdir, cfg, grid.real, grid[0, :0], grid[:, :n], grid[:n, :n], 0.0, grid[:n])
        _write_summary(outdir, cfg, x, preset, psi, (0.0, 0.0, 0.0))
        return 0

    try:
        est = shrink(x, cfg.delta)
        a_raw = emaf(est.m_raw)
        a_norm = normalize(a_raw, normalization(n, x.dt, cfg.delta))
        p = est.params
        psi = (p.vbar, p.rho, p.sigma2, p.nll, p.iterations)
        qq = [
            np.column_stack([q.theoretical_quantiles, q.sample_quantiles])
            for q in qq_normalized_af(a_norm, p.vbar)
        ]
        del a_norm
        _write_fit(outdir, a_raw.entries, psi, qq)
        if not est.converged:
            _write_summary(outdir, cfg, x, preset, psi, None)
            print("error: mixture fit did not converge; best-so-far written", file=sys.stderr)
            return 3
        theta = est.theta.theta
        kept = np.nonzero(theta > 0)
        af_eb = a_raw.entries[kept] * theta[kept]  # apply_threshold(a_raw, theta) at its kept cells
        del a_raw  # freed before the covariance and the TFR are built
        cov_est = assemble(est.m_eb)
        cov = correct(cov_est, cfg.correction)
        tfr = bilinear(est.m_eb, alpha=cfg.alpha, kernel=kernel).values
    except ValueError as err:
        return _fail(f"cannot analyze {cfg.input}: {err}")

    mineig = cov.min_eigenvalue()
    _write_estimate(outdir, cfg, theta, af_eb, est.m_eb.entries, cov.entries, mineig, tfr)
    estimate = (cov_est.min_eigenvalue(), mineig, np.mean(theta > 0))
    _write_summary(outdir, cfg, x, preset, psi, estimate)
    return 0


def run_riskbench(
    preset: str, reps: int, n: int, seed: int, dt: float, correction: str, out: str
) -> int:
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    spec = _preset(preset)
    if n < 8:
        raise ValueError(f"series length must be at least 8, got {n}")
    dt = check_dt(dt)
    _check_seed(seed)
    try:
        truth = TheoreticalCovariance(_analytic_truth(spec.truth(n, dt).entries))
        ratios = np.empty(reps)
        for rep in range(reps):
            est = shrink(spec.sample(n, seed + rep, dt))
            shrunk = correct(assemble(est.m_eb), correction)
            ratios[rep] = risk_report(shrunk, assemble(est.m_raw), truth).frobenius_ratio
        var_eb, var_raw = variance_reduction_probe(n, max(reps, 100), seed)
    except ValueError as err:
        return _fail(f"cannot run riskbench on {preset}: {err}")
    with open(out, "w") as fh:
        fh.write(f"# riskbench v1 preset={preset} n={n} reps={reps} seed={seed}\n")
        for rep, ratio in enumerate(ratios):
            fh.write(f"rep={rep} ratio={_fmt_real(float(ratio))}\n")
        fh.write(f"var_eb={_fmt_real(var_eb)} var_raw={_fmt_real(var_raw)}\n")
        fh.write(f"mean_ratio={_fmt_real(float(np.mean(ratios)))}\n")
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


# Field name -> type, which parses the field's flag and its config-file value.
_ANALYZE_FIELDS: dict[str, type] = get_type_hints(PipelineConfig)


def _analyze_config(args: argparse.Namespace) -> PipelineConfig:
    merged: dict[str, object] = {}
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in _ANALYZE_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            try:
                merged[key] = _ANALYZE_FIELDS[key](raw)
            except ValueError:
                raise ValueError(f"config key {key!r} has a bad value {raw!r}") from None
    for key in _ANALYZE_FIELDS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    if "input" not in merged:
        raise ValueError("analyze needs --input (flag or config file)")
    return PipelineConfig(**merged)  # type: ignore[arg-type]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Raise a usage error as ``ValueError``, which :func:`main` reports via :func:`_fail`."""
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ambishrink",
        description="Shrinkage estimation of time-varying second-order structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("preset", help=f"one of: {', '.join(PRESETS)}")
    sampling.add_argument("--n", type=int, default=512, help="series length (default 512)")
    sampling.add_argument("--seed", type=int, default=0)
    sampling.add_argument("--dt", type=float, default=1.0)

    sim = sub.add_parser("simulate", parents=[sampling], help="write a sample path of a benchmark process")
    sim.add_argument("--out", default=None, help="output path (default <preset>.sig)")

    ana = sub.add_parser("analyze", help="run the full pipeline and write artifacts")
    for f in fields(PipelineConfig):
        ana.add_argument(f"--{f.name}", type=_ANALYZE_FIELDS[f.name], default=None, **f.metadata)
    ana.add_argument("--config", default=None, help="key=value file; flags win on conflict")

    rb = sub.add_parser("riskbench", parents=[sampling], help="Monte Carlo risk against the exact covariance")
    rb.add_argument("--reps", type=int, required=True)
    rb.add_argument("--correction", choices=CORRECTIONS, default="clip")
    rb.add_argument("--out", default="riskbench.txt")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place that reports each error class as one line, exit code 2."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            _check_seed(args.seed)
            sample = _preset(args.preset).sample
            try:
                x = sample(args.n, args.seed, args.dt)
            except ValueError as err:
                return _fail(f"cannot simulate {args.preset}: {err}")
            write_signal(args.out or f"{args.preset}.sig", x)
            return 0
        if args.command == "analyze":
            try:
                cfg = _analyze_config(args)
            except OSError as err:  # an unreadable config file, not a failed write
                return _fail(str(err))
            return run_analyze(cfg)
        if args.command == "riskbench":
            return run_riskbench(
                args.preset, args.reps, args.n, args.seed, args.dt, args.correction, args.out
            )
    except ValueError as err:
        return _fail(str(err))
    except OSError as err:
        return _fail(f"cannot write output: {err}")
    except MemoryError as err:
        return _fail(f"out of memory: {err}")
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
