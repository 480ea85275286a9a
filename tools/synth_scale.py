"""Time register-scale ``synth`` runs through the CLI, the plan-pair-at-scale probe.

    python3 tools/synth_scale.py [CHECKOUT]

Imports ``hybridsim`` from ``CHECKOUT/src`` (default: this checkout).  It runs
``synth X@1*X@2`` at angle 0.7 through ``cli.main``, in this process and a temporary
directory, on two layouts in turn:

* ``[qubit, qumode32, qumode32]`` (D = 2048) with ``n_blocks`` [4, 16, 64];
* ``[qubit, qumode64, qumode64]`` (D = 8192) with ``n_blocks`` [4, 16, 64, 256].

Every pulse of these plans touches each mode only through X, so each plan unitary is
a field of 2×2 spin unitaries over the 32² or 64² quadrature nodes
(``synthesis.power_distances``).  For each run it prints the exit code, the wall
seconds, the process's peak RSS so far (``ru_maxrss``, which includes the interpreter
and numpy), and, for a run that exits 0, one row per ``n_blocks`` with the measured and
predicted errors and the probe-state fidelity.  The address space is capped at
``LIMIT_GIB``, so a checkout that would form the D×D pair at D = 8192 (1 GiB per
complex matrix) exits with the CLI's out-of-memory code 3 instead of growing.  BLAS
runs on one thread unless the environment already sets
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

LIMIT_GIB = 2
RUNS = tuple({
    "experiment": "synth",
    "layout": ["qubit", {"kind": "qumode", "cutoff": cutoff}, {"kind": "qumode", "cutoff": cutoff}],
    "target": "X@1*X@2",
    "angle": 0.7,
    "n_blocks": blocks,
} for cutoff, blocks in ((32, [4, 16, 64]), (64, [4, 16, 64, 256])))


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_GIB << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
    sys.path.insert(0, str(checkout / "src"))
    from hybridsim import cli

    with tempfile.TemporaryDirectory() as work:
        for k, run in enumerate(RUNS):
            config, out = Path(work) / f"synth{k}.json", Path(work) / f"out{k}"
            config.write_text(json.dumps(run))
            start = time.perf_counter()
            code = cli.main(["synth", "--config", str(config), "--out", str(out)])
            seconds = time.perf_counter() - start
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            cutoff = run["layout"][1]["cutoff"]
            print(f"synth X@1*X@2 D={2 * cutoff**2} n_blocks={run['n_blocks']}: exit {code}, {seconds:.2f} s, "
                  f"peak RSS {peak_mib:.0f} MiB")
            if code != 0:
                continue
            results = json.loads((out / "summary.json").read_text())["results"]
            print("n_blocks measured_error predicted_error")
            for row in results["errors"]:
                print(f"{row['n_blocks']} {row['measured_error']!r} {row['predicted_error']!r}")
            print(f"probe_state_fidelity {results['probe_state_fidelity']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
