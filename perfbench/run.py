"""Run one benchmark workload from the root of an ambishrink checkout.

    python3 perfbench/run.py --workload estimate-n512 --seed 1 --seconds 15 --trace 0

The launcher caps BLAS and OpenMP threads at the number of usable cores,
points ``PYTHONPATH`` at the checkout's ``src`` and runs ``bench.py`` in a
fresh process, so peak memory and set-up time belong to that workload.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv: list[str]) -> int:
    root = Path.cwd()
    if not (root / "src" / "ambishrink" / "__init__.py").is_file():
        print(f"error: {root} holds no src/ambishrink to benchmark", file=sys.stderr)
        return 2
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update(dict.fromkeys(THREAD_VARS, threads))
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    worker = Path(__file__).resolve().parent / "bench.py"
    try:
        proc = subprocess.run([sys.executable, str(worker), *argv], env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
