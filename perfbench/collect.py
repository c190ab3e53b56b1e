"""Run workloads over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py [--seeds 1-10] [--trace-seeds 1]
        [--workloads analyze-agg128,...] [--out perfbench/out/collect.json]

Run from the checkout root.  Runs ``run.py`` once per workload and seed, one
after another: untraced for ``--seeds``, traced for ``--trace-seeds``.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, and flags a spread above a third of the metric's bound in
``BENCHMARK.json``.  The summary, with the environment record and the
analyze artifact digests of the first seed, goes to ``--out``;
``baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else None,
        "values": values,
    }


def run_all(workload: str, seeds: list[int], trace: int, seconds: int) -> list[dict]:
    runs = []
    for seed in seeds:
        argv = ["--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), *argv], capture_output=True, text=True
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        stem = f"{workload}-seed{seed}-trace{trace}"
        record_file = Path.cwd() / "perfbench" / "out" / f"{stem}.json"
        result["record"] = json.loads(record_file.read_text())
        result["wall_s"] = wall
        runs.append(result)
        print(
            f"{workload} seed={seed} trace={trace} wall={wall:.1f}s correct={result['correct']}",
            flush=True,
        )
    return runs


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=str(HERE / "out" / "collect.json"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        entry: dict = {}
        for trace, seeds in ((0, parse_seeds(args.seeds)), (1, parse_seeds(args.trace_seeds))):
            if not seeds:
                continue
            runs = run_all(workload, seeds, trace, spec["run_seconds"])
            metrics = {
                key: summarize([r["metrics"][key]["value"] for r in runs])
                for key in runs[0]["metrics"]
            }
            first = runs[0]["record"]
            report.setdefault("environment", first["environment"])
            if "artifact_sha256" in first:
                entry["artifact_sha256"] = {"seed": seeds[0], "files": first["artifact_sha256"]}
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                "seeds": seeds,
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "wall_s": [r["wall_s"] for r in runs],
                "metrics": metrics,
            }
            for key, s in metrics.items():
                flag = ""
                if trace == 0 and key != "setup_s" and s["spread"] is not None:
                    if s["spread"] > bounds[key] / 3:
                        flag = f"  spread above bound/3 ({bounds[key] / 3:.3f})"
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {key:34s} median={s['median']:.6g} spread={spread}{flag}")
        report["workloads"][workload] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
