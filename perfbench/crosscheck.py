"""Check that the benchmark's RMSE metric reproduces criterion 3's numbers.

Runs ``rcmkf simulate --case 1 --runs 500 --seed 42`` through the same op
definition and output check the benchmark uses, and compares the time-averaged
RMSE (steps >= 10) with the values the acceptance suite reports for that
input: RCMKF-U 3340.2 m and RCMKF-D 2953.6 m. Agreement to the printed
0.1 m shows the benchmark drives the program unchanged. It is not part of
the timed runs; it takes about a minute on two cores. From the repository
root::

    python3 perfbench/crosscheck.py
"""

from __future__ import annotations

import os
import shutil
import sys

import run

EXPECTED = {"rmse_u_m": 3340.2, "rmse_d_m": 2953.6}


def main() -> int:
    cli = run.load_program()
    import workloads  # imports rcmkf, so only after load_program

    work = run.TMP / f"crosscheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run.Runner(cli, None, 42, work)
        op = workloads.simulate_op(1, 500, 42, runner.out, runner.cfg, 1)
        seconds, quality = runner.run(op)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if quality is None:
        print(f"crosscheck: op failed: {runner.tally.reasons}")
        return 1
    ok = True
    for name, expected in EXPECTED.items():
        match = round(quality[name], 1) == expected
        ok &= match
        print(f"{name}: benchmark {quality[name]:.4f} m, criterion 3 {expected} m, "
              f"{'match' if match else 'MISMATCH'}")
    print(f"({seconds:.1f} s for the op)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
