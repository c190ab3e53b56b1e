"""Harness self-test: every workload at tiny n, untraced and traced.

    python3 perfbench/selftest.py

Run from the checkout root.  Checks that each run emits exactly the metrics
``BENCHMARK.json`` names for its mode, each with its unit and a finite
value, and that the result record carries the environment.  Takes about a
minute; it says nothing about speed.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

ENV_KEYS = {"commit", "python", "numpy", "scipy", "blas", "thread_cap", "nproc", "seed"}


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for workload in spec["workloads"]:
            name = workload["name"]
            for trace in (0, 1):
                rec = bench.run(name, 0, 0.0, bool(trace), bench.TINY[name], Path(tmp))
                got = {k: m["unit"] for k, m in rec["metrics"].items()}
                where = f"{name} trace={trace}"
                want = expected[trace]
                if got != want:
                    missing = sorted(set(want) - set(got))
                    extra = sorted(set(got) - set(want))
                    wrong = sorted(k for k in got if k in want and got[k] != want[k])
                    problems.append(f"{where}: missing {missing}, extra {extra}, unit {wrong}")
                for key, m in rec["metrics"].items():
                    if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                        problems.append(f"{where}: {key} is {m['value']!r}")
                if set(rec["environment"]) != ENV_KEYS:
                    problems.append(f"{where}: environment keys {sorted(rec['environment'])}")
                if rec["attempted"] < 1:
                    problems.append(f"{where}: no operation attempted")
                print(f"{where}: {len(got)} metrics, correct={rec['correct']}", flush=True)
    for line in problems:
        print("FAIL " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
