"""Check the installed ``ambishrink`` console script against a table of runs.

Each row holds an argv, the exit code it must return, and the number of
stderr lines it must write: 1 (a refusal, exactly one newline) or 0 (a silent
run, not one byte).  The runs go through the console script under Python's
default warning filters, which the test suite's ``filterwarnings = error``
never sees.  Every row's stderr is printed; the script exits 1 if any row
fails.  Run it with the console script on PATH:

    python .github/console_checks.py
"""

import subprocess
import sys
import tempfile

CHECKS = [
    # an overflowing record and an overflowing riskbench truth
    (["analyze", "--input", "tvchirp", "--n", "8", "--dt", "1e100", "--outdir", "{tmp}/r"], 2, 1),
    (["riskbench", "tvchirp", "--n", "16", "--reps", "1", "--dt", "1e300", "--out", "{tmp}/rb.txt"], 2, 1),
    # the TFR smoothed with a time profile
    (["analyze", "--input", "whitenoise", "--n", "64", "--kernel", "hann:5", "--outdir", "{tmp}/k"], 0, 0),
    # the Wigner re-centring (a sliding_window_view gather) and the hermvander bank
    (
        ["analyze", "--input", "whitenoise", "--n", "64", "--alpha", "0", "--kernel", "hermite:9:3", "--outdir", "{tmp}/w"],
        0,
        0,
    ),
    # the shift correction, whose smallest-eigenvalue solve runs beside the forked child under its cap
    (["analyze", "--input", "aggregation512", "--n", "64", "--correction", "shift", "--outdir", "{tmp}/s"], 0, 0),
    # the forked child's EMAF streamed in more than one block of lag rows
    (["analyze", "--input", "aggregation512", "--n", "512", "--outdir", "{tmp}/b"], 0, 0),
    # a zero-energy window, refused before the fit
    (["analyze", "--input", "whitenoise", "--n", "16", "--kernel", "hann:2", "--outdir", "{tmp}/z"], 2, 1),
    # an overflowing normalization field, refused by the first replicate before the variance probe
    (["riskbench", "whitenoise", "--reps", "1", "--dt", "1e-300", "--out", "{tmp}/wn.txt"], 2, 1),
    # the variance probe, split between this process and a forked child
    (["riskbench", "whitenoise", "--n", "16", "--reps", "1", "--out", "{tmp}/p.txt"], 0, 0),
    # one-record probe blocks, so the two walks claim every byte of the shared map
    (["riskbench", "whitenoise", "--n", "200", "--reps", "1", "--out", "{tmp}/p200.txt"], 0, 0),
    # the replicates after the first, run beside the forked child under one BLAS cap
    (["riskbench", "aggregation512", "--n", "64", "--reps", "3", "--out", "{tmp}/a.txt"], 0, 0),
    # unallocatable replicates: the ratios are allocated, and refused, before the shared probe buffer
    (["riskbench", "whitenoise", "--n", "8", "--reps", "10000000000000", "--out", "{tmp}/big.txt"], 2, 1),
]


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, code, lines in CHECKS:
            argv = ["ambishrink"] + [arg.format(tmp=tmp) for arg in argv]
            run = subprocess.run(argv, capture_output=True, text=True)
            newlines = run.stderr.count("\n")
            ok = run.returncode == code and (newlines == 1 if lines else run.stderr == "")
            failed += not ok
            got = f"exit {run.returncode} (want {code}), {newlines} newlines in {len(run.stderr)} stderr bytes"
            print(f"{'ok  ' if ok else 'FAIL'} {got} (want {lines} lines):")
            print("    $ " + " ".join(argv))
            print("".join(f"    | {line}\n" for line in run.stderr.splitlines()), end="")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} console-script checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
