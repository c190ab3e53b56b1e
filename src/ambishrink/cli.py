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
import os
import pickle
import signal
import sys
import warnings
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn, get_type_hints

import numpy as np

from .ambiguity import _emaf_rows, _kappa, _normalized, _row_blocks, check_delta
from .covariance import CORRECTIONS, _one_blas_thread, assemble, correct
from .diagnostics import _qq_data, qq_ranks, risk_report
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
from .series import TimeSeries, _finite, analytic_spectrum_weights, check_dt, check_n
from .shrinkage import Shrunk, shrink
from .textio import RowBlocks, _fmt_real, format_psi_record, read_signal, write_matrix, write_signal
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


def _write_fit(outdir: Path, psi: tuple, qq: list[np.ndarray]) -> None:
    """Write ``psi.txt`` and the QQ tables, which with ``emaf.mat`` a run has before its fit is judged.

    ``psi`` is ``(vbar, rho, sigma2, nll, iterations)``; ``qq`` holds the
    ``(theoretical, sample)`` quantile columns of the real and imaginary parts.
    """
    with open(outdir / "psi.txt", "w") as fh:
        fh.write(format_psi_record(*psi) + "\n")
    for name, tag, table in zip(("qq_re.txt", "qq_im.txt"), ("real", "imaginary"), qq):
        write_matrix(outdir / name, table, trailing=[f"# component={tag}"])


def _write_shrunk(
    outdir: Path, theta: np.ndarray, kept: tuple, af_eb: np.ndarray, moments: np.ndarray
) -> None:
    """Write ``theta.mat`` and ``af_eb.mat`` at the cells ``kept``, and ``moments_eb.mat``.

    ``kept`` is ``np.nonzero(theta > 0)``.  Each row of the two sparse files
    is ``(tau, k, value)`` with ``tau``/``k`` as in :meth:`AmbiguityGrid.at`,
    in row-major grid order; every other cell is zero.  A trailing
    ``# dense shape=<rows>x<cols>`` line names the grid.  ``af_eb`` holds
    only the shrunk EMAF's values at those cells, in that order.
    """
    rows, cols = kept
    n = theta.shape[1] // 2
    shape = [f"# dense shape={theta.shape[0]}x{theta.shape[1]}"]
    for name, values in (("theta.mat", theta[kept]), ("af_eb.mat", af_eb)):
        table = np.column_stack([rows - (n - 1), cols - n, values])
        write_matrix(outdir / name, table, trailing=shape)
    write_matrix(outdir / "moments_eb.mat", moments)


def _write_shrink_files(outdir: Path, est: Shrunk, delta: float) -> None:
    """Write every file the ``shrink`` result ``est`` alone determines, from its EMAF in row blocks.

    Those are ``emaf.mat``, ``psi.txt`` and the QQ tables, and once the fit
    has converged ``theta.mat``, ``af_eb.mat`` and ``moments_eb.mat``
    (:func:`_write_shrunk`).  The EMAF of ``est.m_raw`` is built in the
    blocks of the grid stages, as many lag rows as fit 1 MiB and at least
    one, by :func:`_emaf_rows`, :func:`_kappa` and :func:`_normalized`.  Each block
    gives ``emaf.mat`` its rows ``tau >= 0``, ``af_eb`` its kept cells, and
    the QQ parts its normalized coefficients, all in row-major order; the
    last cell then takes the origin's place, an order the sorted QQ tables
    do not see.  A row's FFT does not depend on the rows beside it, so
    every file is the full grid's bit for bit, while no full raw or
    normalized grid is held.

    A record's EMAF is point-symmetric, ``a(-tau, k) = exp(i pi k tau / n)
    conj a(tau, -k)``, so ``emaf.mat`` holds only its ``n`` rows ``tau >= 0``,
    then a ``# half shape=<2n-1>x<2n>`` line naming the full grid.
    """
    m_raw, theta, psi = est.m_raw, est.theta.theta, astuple(est.params)
    n, dt, grid_rows = m_raw.n, m_raw.dt, 2 * m_raw.n - 1
    kept = np.nonzero(theta > 0)
    gathered = np.empty(kept[0].size, dtype=complex)
    parts = np.empty((2, grid_rows * 2 * n))  # the QQ parts of every cell

    def block(rows: slice) -> np.ndarray:
        """The rows ``tau >= 0`` of the EMAF's lag rows ``rows``, their cells taken."""
        start, stop = rows.start, rows.stop
        raw = _emaf_rows(m_raw.entries[rows], dt)  # a non-finite cell fails the normalized check
        lo, hi = np.searchsorted(kept[0], (start, stop))
        gathered[lo:hi] = raw[kept[0][lo:hi] - start, kept[1][lo:hi]]
        kappa = _kappa(n, dt, delta, np.arange(start, stop) - (n - 1))
        flat = _finite(_normalized(raw, kappa), "entries").ravel()
        cells = slice(start * 2 * n, stop * 2 * n)
        parts[0, cells], parts[1, cells] = flat.real, flat.imag
        return raw[max(n - 1 - start, 0) :]

    blocks = map(block, _row_blocks(grid_rows, 2 * n))  # each block freed before the next is built
    half = [f"# half shape={grid_rows}x{2 * n}"]
    write_matrix(outdir / "emaf.mat", RowBlocks(n, 2 * n, complex, blocks), trailing=half)
    parts[:, (n - 1) * 2 * n + n] = parts[:, -1]  # the last cell over the origin; QQ sorts its values
    qq = [_qq_data(part[:-1], psi[0]) for part in parts]
    _write_fit(outdir, psi, [np.column_stack([q.theoretical_quantiles, q.sample_quantiles]) for q in qq])
    if est.converged:
        # apply_threshold(emaf(m_raw), theta) at its kept cells
        _write_shrunk(outdir, theta, kept, gathered * theta[kept], est.m_eb.entries)


def _write_estimate(
    outdir: Path, cfg: PipelineConfig, cov: np.ndarray, mineig: float, tfr: np.ndarray
) -> None:
    """Write the files of the parent's stages: ``cov_eb.mat`` and ``tfr.mat``."""
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


def _fork_beside(child: Callable[[], object], parent: Callable[[], object]) -> object:
    """Run ``child`` in a forked process while this one runs ``parent``; return ``parent``'s result.

    The child reports only a failure: down a pipe it writes nothing once
    ``child`` returns, or the exception ``child`` raised, pickled.  It
    always leaves by ``os._exit``, with status 0 only once that report is
    written whole: it never returns into its caller's stack and writes
    nothing to stderr.  This process reads the pipe to its end and reaps the
    child on every path.  A failure of ``parent`` is the one raised;
    otherwise a child that ends any other way than a clean exit raises
    ``OSError`` before its report is read, and an exception the child raised
    is re-raised here.  Without ``os.fork`` the two run in turn.

    One BLAS cap covers both sides, from before the fork until after the
    join: a fork shuts the OpenBLAS pools down, and a thread-count call on
    either side would start workers that spin on the other's core.
    """
    with _one_blas_thread():
        if not hasattr(os, "fork"):
            child()
            return parent()
        read_fd, write_fd = os.pipe()
        with warnings.catch_warnings():
            # Python >= 3.12 warns that fork with other threads alive may deadlock the child, and
            # the idle OpenBLAS pool is such threads.  The child is safe: it takes no lock another
            # thread holds, starts no BLAS thread, and ends with os._exit.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
            )
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                try:
                    child()
                    report = b""
                except BaseException as err:
                    report = pickle.dumps(err)
                with open(write_fd, "wb") as pipe:
                    pipe.write(report)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        try:
            parent_result = parent()
        finally:
            try:
                with open(read_fd, "rb") as pipe:
                    report = pipe.read()
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    # a child killed while it wrote leaves a truncated report: judge its exit first
    if status < 0:
        raise OSError(f"forked child killed by signal {-status} ({signal.strsignal(-status)})")
    if status > 0:
        raise OSError(f"forked child exited with status {status}")
    if report:
        raise pickle.loads(report)
    return parent_result


def run_analyze(cfg: PipelineConfig) -> int:
    """Estimate ``cfg.input`` into ``cfg.outdir``; return the exit code.

    An unreadable record, an uncreatable directory or a record that
    ``shrink`` refuses is one ``error:`` line, exit 2, before any file.  An
    all-zero record writes a zero estimate, and an unconverged fit the fit
    files and ``summary.txt``, exit 3.  After a converged fit, a forked
    child writes the seven files that the ``shrink`` result alone determines
    (:func:`_write_shrink_files`), building the EMAF block by block of lag
    rows, so it holds no full raw or normalized grid.  Meanwhile this
    process runs ``assemble``, ``correct`` and ``bilinear`` and writes
    ``cov_eb.mat`` and ``tfr.mat``.  A stage that fails there is one
    ``error:`` line, exit 2, and the child's files may remain.
    ``summary.txt`` comes last, once both sides succeed.
    """
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
        write_matrix(outdir / "emaf.mat", grid[n - 1 :], trailing=[f"# half shape={2 * n - 1}x{2 * n}"])
        _write_fit(outdir, psi, [qq, qq])
        # theta keeps no cell; moments, covariance and TFR are zero blocks of the grid
        _write_shrunk(outdir, grid.real, np.nonzero(grid.real), grid[0, :0], grid[:, :n])
        _write_estimate(outdir, cfg, grid[:n, :n], 0.0, grid[:n])
        _write_summary(outdir, cfg, x, preset, psi, (0.0, 0.0, 0.0))
        return 0

    try:
        est = shrink(x, cfg.delta)
        psi = astuple(est.params)  # (vbar, rho, sigma2, nll, iterations)
        if not est.converged:
            _write_shrink_files(outdir, est, cfg.delta)
            _write_summary(outdir, cfg, x, preset, psi, None)
            print("error: mixture fit did not converge; best-so-far written", file=sys.stderr)
            return 3
    except ValueError as err:
        return _fail(f"cannot analyze {cfg.input}: {err}")

    def estimate() -> tuple[float, float, float]:
        try:
            cov_est = assemble(est.m_eb)
            cov = correct(cov_est, cfg.correction)
            tfr = bilinear(est.m_eb, alpha=cfg.alpha, kernel=kernel).values
        except ValueError as err:  # reported by main, after the child is reaped
            raise ValueError(f"cannot analyze {cfg.input}: {err}") from err
        _write_estimate(outdir, cfg, cov.entries, cov.min_eigenvalue(), tfr)
        return cov_est.min_eigenvalue(), cov.min_eigenvalue(), np.mean(est.theta.theta > 0)

    summary = _fork_beside(lambda: _write_shrink_files(outdir, est, cfg.delta), estimate)
    _write_summary(outdir, cfg, x, preset, psi, summary)
    return 0


def run_riskbench(
    preset: str, reps: int, n: int, seed: int, dt: float, correction: str, out: str
) -> int:
    """Write ``preset``'s risk ratios over ``reps`` replicates and their mean to ``out``.

    Replicate ``rep`` shrinks the record drawn with seed ``seed + rep`` and
    compares its corrected covariance and its raw one with the exact truth.
    The settings are checked before any fit runs.
    """
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
    except ValueError as err:
        return _fail(f"cannot run riskbench on {preset}: {err}")
    with open(out, "w") as fh:
        fh.write(f"# riskbench v1 preset={preset} n={n} reps={reps} seed={seed}\n")
        for rep, ratio in enumerate(ratios):
            fh.write(f"rep={rep} ratio={_fmt_real(float(ratio))}\n")
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
