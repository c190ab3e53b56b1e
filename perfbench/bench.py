"""Benchmark worker: one workload, one seed, one process.

Started by ``run.py``, which fixes the thread caps and points ``PYTHONPATH``
at the checkout's ``src``.  The load is a closed loop: the next operation
starts only when the previous one has returned and been checked.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

_T_START = time.perf_counter()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ambishrink  # noqa: E402
from ambishrink import cli, diagnostics, shrinkage  # noqa: E402
from ambishrink.textio import (  # noqa: E402
    format_psi_record,
    parse_psi_record,
    read_matrix,
    write_matrix,
)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pipeline  # noqa: E402
from tracing import COUNTERS, STAGE_METRICS, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

# Quality guards, computed outside the timed loop on every workload, on one
# fixed record set each, so two commits are compared on identical data.
GUARD_N = 128
RISK_SEEDS = tuple(range(20))  # aggregation records
NULL_SEEDS = tuple(range(16))  # white-noise records
SETUPS = 3  # set-up repetitions; setup_s reports their median

# The machine's speed drifts by tens of percent over minutes, so every timing
# is scaled by how long a fixed pure-Python loop takes just before and just
# after it.  REF_S is that loop's time at the speed timings are reported at.
REF_ITERS = 300_000
REF_S = 0.0175

RISKBENCH_REPS = 20
PROBE_REPS = 100  # variance_reduction_probe runs max(reps, 100) white-noise records


@dataclass(frozen=True)
class Sizes:
    n: int
    records: int  # distinct inputs the closed loop cycles through
    min_ops: int
    guard_n: int = GUARD_N
    risk_seeds: tuple[int, ...] = RISK_SEEDS
    null_seeds: tuple[int, ...] = NULL_SEEDS


FULL = {
    # min_ops > records: every untraced analyze run repeats an input.
    "analyze-agg128": Sizes(128, records=6, min_ops=7),
    "estimate-n512": Sizes(512, records=8, min_ops=8),
    "riskbench-n64": Sizes(64, records=1000, min_ops=3),
}
# Used by selftest.py: the same code paths at sizes that take seconds.
TINY = {
    name: Sizes(16, records=2, min_ops=3, guard_n=16, risk_seeds=(0, 1), null_seeds=(0, 1))
    for name in FULL
}


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def record_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + i for i in range(count)]


# -- workloads --------------------------------------------------------------


class Workload:
    """One workload: ``setup`` may run several times, then ``op`` and ``check`` alternate."""

    namespaces: tuple = ()  # (module, holds white-noise records?) pairs a traced run wraps
    reps_per_op = 1  # pipeline replicates one operation completes
    readback_s: float | None = None

    def __init__(self, sizes: Sizes, seed: int, work: Path):
        self.sizes, self.seed, self.work = sizes, seed, work


class Analyze(Workload):
    """``cli.main(["analyze", ...])`` on aggregation records written with ``simulate``."""

    namespaces = ((cli, False),)

    def __init__(self, sizes: Sizes, seed: int, work: Path):
        super().__init__(sizes, seed, work)
        self.digests: dict[int, dict[str, str]] = {}

    def setup(self, rep: int) -> None:
        folder = self.work / f"inputs{rep}"
        folder.mkdir()
        self.inputs = []
        for i, s in enumerate(record_seeds(self.seed, self.sizes.records)):
            path = folder / f"agg{i}.sig"
            argv = ["simulate", "aggregation512", "--n", str(self.sizes.n), "--seed", str(s)]
            if cli.main(argv + ["--out", str(path)]) != 0:
                raise CheckFailed(f"simulate exited nonzero for seed {s}")
            self.inputs.append(path)
        outdir = self.work / f"warmup{rep}"
        if cli.main(["analyze", "--input", str(self.inputs[0]), "--outdir", str(outdir)]) != 0:
            raise CheckFailed("warm-up analyze exited nonzero")
        shutil.rmtree(outdir)

    def op(self, record: int, index: int):
        outdir = self.work / f"out{index}"
        rc = cli.main(["analyze", "--input", str(self.inputs[record]), "--outdir", str(outdir)])
        return rc, outdir

    def check(self, record: int, result) -> None:
        """Exit 0 and converged; bitwise repeats; the first output round-trips."""
        rc, outdir = result
        try:
            if rc != 0:
                raise CheckFailed(f"analyze exited {rc}")
            summary = dict(
                line.split("=", 1) for line in (outdir / "summary.txt").read_text().splitlines()
            )
            if summary.get("converged") != "1":
                raise CheckFailed("analyze summary has converged != 1")
            digests = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())
            }
            if record not in self.digests:
                self.digests[record] = digests
            elif digests != self.digests[record]:
                raise CheckFailed(f"analyze of record {record} is not bitwise repeatable")
            if self.readback_s is None:
                self.readback_s = roundtrip(outdir, self.work)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


def roundtrip(outdir: Path, work: Path) -> float:
    """Parse every artifact with the bundled readers and require identical re-serialized bytes.

    Returns the seconds the parsing took.
    """
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        return _roundtrip(outdir, Path(scratch))


def _roundtrip(outdir: Path, scratch: Path) -> float:
    parse_s = 0.0
    for path in sorted(outdir.iterdir()):
        original = path.read_bytes()
        t0 = time.perf_counter()
        if path.name == "psi.txt":
            fields = parse_psi_record(original.decode().strip())
        elif path.name == "summary.txt":
            items = [line.split("=", 1) for line in original.decode().splitlines()]
        else:
            array, trailing = read_matrix(path)
        parse_s += time.perf_counter() - t0
        if path.name == "psi.txt":
            keys = ("vbar", "rho", "sigma2", "nll", "iterations")
            again = (format_psi_record(*(fields[k] for k in keys)) + "\n").encode()
        elif path.name == "summary.txt":
            again = "".join(f"{k}={v}\n" for k, v in items).encode()
        else:
            write_matrix(scratch / path.name, array, trailing=trailing)
            again = (scratch / path.name).read_bytes()
        if again != original:
            raise CheckFailed(f"{path.name} does not re-serialize to identical bytes")
    return parse_s


class Estimate(Workload):
    """One library pipeline call on an aggregation record, no file I/O."""

    namespaces = ((pipeline, False),)

    def setup(self, rep: int) -> None:
        self.inputs = [
            pipeline.gen_aggregation(self.sizes.n, seed=s)
            for s in record_seeds(self.seed, self.sizes.records)
        ]
        pipeline.estimate(self.inputs[0])

    def op(self, record: int, index: int):
        return pipeline.estimate(self.inputs[record])

    def check(self, record: int, est) -> None:
        n = self.sizes.n
        if est.theta.theta[n - 1, n] != 1.0:
            raise CheckFailed("threshold factor at the origin is not 1")
        eig = np.linalg.eigvalsh(est.cov.entries)
        if eig[0] < -1e-10 * max(float(eig[-1]), 1e-300):
            raise CheckFailed(f"corrected covariance is not PSD: min eigenvalue {eig[0]!r}")


class Riskbench(Workload):
    """``cli.main(["riskbench", ...])``: 20 aggregation reps plus 100 probe reps per call."""

    namespaces = ((cli, False), (diagnostics, True))
    reps_per_op = RISKBENCH_REPS + max(RISKBENCH_REPS, PROBE_REPS)

    def setup(self, rep: int) -> None:
        # One replicate of the per-call pipeline warms every code path riskbench uses.
        x = pipeline.gen_aggregation(self.sizes.n, seed=self.seed)
        pipeline.shrink(x, strict=False)

    def op(self, record: int, index: int):
        out = self.work / f"riskbench{index}.txt"
        argv = ["riskbench", "aggregation512", "--n", str(self.sizes.n)]
        seed = self.seed * 1000 + RISKBENCH_REPS * record
        argv += ["--reps", str(RISKBENCH_REPS), "--seed", str(seed)]
        return cli.main(argv + ["--out", str(out)]), out

    def check(self, record: int, result) -> None:
        rc, out = result
        if rc != 0:
            raise CheckFailed(f"riskbench exited {rc}")
        lines = out.read_text().splitlines()
        out.unlink()
        if not lines or not lines[0].startswith("# riskbench v1 "):
            raise CheckFailed("riskbench report has no v1 header")
        ratios = [float(line.split("ratio=", 1)[1]) for line in lines if line.startswith("rep=")]
        mean = [float(line.split("=", 1)[1]) for line in lines if line.startswith("mean_ratio=")]
        if len(ratios) != RISKBENCH_REPS or len(mean) != 1:
            raise CheckFailed("riskbench report is missing replicate or mean lines")
        if not mean[0] < 1.0:
            raise CheckFailed(f"riskbench mean_ratio {mean[0]!r} is not below 1")
        if abs(mean[0] - float(np.mean(ratios))) > 1e-12 * max(mean[0], 1.0):
            raise CheckFailed("riskbench mean_ratio does not match its replicates")


WORKLOADS = {"analyze-agg128": Analyze, "estimate-n512": Estimate, "riskbench-n64": Riskbench}


# -- measurement ------------------------------------------------------------


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "commit": commit_id(Path.cwd()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_cap": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def commit_id(root: Path) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, out_dir: Path) -> dict:
    """Set up, measure for ``seconds``, check; return the result record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        return _run(name, seed, seconds, trace, sizes, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def ref_loop_s() -> float:
    """Seconds the fixed reference loop takes now: median of five runs."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(fn, *args):
    """Run ``fn``; return its result, wall seconds, and seconds at reference speed."""
    before = ref_loop_s()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    after = ref_loop_s()
    return out, wall, wall * REF_S / (0.5 * (before + after))


def _run(name, seed, seconds, trace, sizes, work, out_dir) -> dict:
    workload = WORKLOADS[name](sizes, seed, work)
    import_s = IMPORT_S * REF_S / ref_loop_s()

    def setup(rep: int) -> None:
        workload.setup(rep)
        pipeline.analytic_truth(sizes.guard_n)

    setup_times = [timed(setup, rep)[1:] for rep in range(SETUPS)]
    setup_s = import_s + statistics.median(t for _, t in setup_times)

    tracer = Tracer() if trace else None
    ops = {True: [], False: []}  # traced? -> (wall, reference-speed) seconds per op
    scales: dict[int, float] = {}  # root span id of a traced op -> its speed scale
    attempted = failed = 0
    reps_done = 0
    t_end = time.perf_counter() + seconds
    while attempted < sizes.min_ops or time.perf_counter() < t_end or (trace and attempted % 2):
        # A traced run runs each input twice, traced then untraced, so the
        # difference between the two is the tracing overhead.
        record = (attempted // 2 if trace else attempted) % sizes.records
        traced = trace and attempted % 2 == 0
        attempted += 1
        if traced:
            for namespace, null_records in workload.namespaces:
                tracer.install(namespace, null_records)
            tracer.install_counters(shrinkage)
        try:
            if traced:
                root = len(tracer.spans)
                args = ("op", "harness", "self", workload.op, record, attempted)
                result, wall, ref = timed(tracer.span, *args)
                scales[root] = ref / wall
            else:
                result, wall, ref = timed(workload.op, record, attempted)
        except Exception as err:  # a failed operation is counted, not fatal
            print(f"operation {attempted} failed: {type(err).__name__}: {err}", file=sys.stderr)
            failed += 1
            continue
        finally:
            if traced:
                tracer.uninstall()
        try:
            workload.check(record, result)
        except (CheckFailed, OSError, ValueError) as err:
            print(f"operation {attempted} failed its check: {err}", file=sys.stderr)
            failed += 1
            continue
        ops[traced].append((wall, ref))
        reps_done += workload.reps_per_op

    checks_ok = True
    risk, null_kept = float("nan"), 0
    if not trace:  # the guards are end-to-end metrics, reported by untraced runs
        try:
            truth = pipeline.analytic_truth(sizes.guard_n)
            risk = pipeline.risk_ratio(sizes.guard_n, list(sizes.risk_seeds), truth)
            null_kept = pipeline.null_kept_cells(sizes.guard_n, list(sizes.null_seeds))
        except ValueError as err:
            print(f"quality guard failed: {err}", file=sys.stderr)
            checks_ok = False
    untraced = [ref for _, ref in ops[False]]
    correct = checks_ok and failed == 0 and bool(untraced)

    record = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "op_seconds_wall_ref": {"untraced": ops[False], "traced": ops[True]},
        "setup_seconds_wall_ref": setup_times,
        "import_seconds_wall_ref": [IMPORT_S, import_s],
    }
    if isinstance(workload, Analyze) and 0 in workload.digests:
        record["artifact_sha256"] = workload.digests[0]
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (statistics.median(untraced) if untraced else float("nan"), "s"),
            "reps_per_s": (reps_done / sum(untraced) if untraced else float("nan"), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "risk_ratio": (risk, "ratio"),
            "null_kept_cells": (null_kept, "count"),
        }
    else:
        metrics = layer_metrics(tracer, ops, scales, workload)
        tracer.dump(out_dir / f"{name}-seed{seed}.spans.tsv")
    # A value that could not be measured (every operation failed) is null, and
    # the run is not correct.
    record["metrics"] = {
        k: {"value": v if math.isfinite(v) else None, "unit": u} for k, (v, u) in metrics.items()
    }
    correct = correct and all(math.isfinite(v) for v, _ in metrics.values())
    record["correct"] = correct
    return record


def layer_metrics(tracer: Tracer, ops: dict, scales: dict[int, float], workload) -> dict:
    """Per-operation self time of every layer stage, counters, and tracing overhead.

    Times are at reference speed: each span is scaled like the operation it
    belongs to.
    """
    count = max(len(ops[True]), 1)
    selfs = tracer.self_times(scales)
    metrics = {key: (selfs.get(key[:-2], 0.0) / count, "s") for key in STAGE_METRICS}
    metrics["harness.self_s"] = (selfs.get("harness.self", 0.0) / count, "s")
    for key, unit in COUNTERS.items():
        metrics[key] = (tracer.counters[key] / count, unit)
    metrics["textio.readback_s"] = (workload.readback_s or 0.0, "s")
    program = sum(v for k, v in selfs.items() if not k.startswith("trace."))
    traced = statistics.fmean(ref for _, ref in ops[True]) if ops[True] else 0.0
    untraced = statistics.fmean(ref for _, ref in ops[False]) if ops[False] else 0.0
    metrics["trace.bookkeeping_s"] = (selfs.get("trace.bookkeeping", 0.0) / count, "s")
    metrics["trace.traced_op_s"] = (traced, "s")
    metrics["trace.untraced_op_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.unaccounted_s"] = (untraced - program / count, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if Path(ambishrink.__file__).resolve().parent.parent != src:
        print(f"error: ambishrink imported from {ambishrink.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir = Path.cwd() / "perfbench" / "out"
    sizes = FULL[args.workload]
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes, out_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(rec, indent=2) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(rec["environment"], sort_keys=True))
    if "artifact_sha256" in rec:
        print("artifact_sha256 " + json.dumps(rec["artifact_sha256"], sort_keys=True))
    print(f"fail_frac={rec['fail_frac']:.6g} ({rec['failed']}/{rec['attempted']})")
    for key, m in rec["metrics"].items():
        print(f"{key} = {m['value']} {m['unit']}")
    result = {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
