"""Time Trotter-method pointer spectroscopy at register scale through the CLI.

    python3 tools/pointer_scale.py [CHECKOUT]

Imports ``hybridsim`` from ``CHECKOUT/src`` (default: this checkout).  It runs
``spectrum`` and then ``robustness`` on five qubits with a 128-level pointer
(D = 4096), the coupling driven as 256 first-order Trotter rounds of two
``H_k (x) P`` pulses, through ``cli.main``, in this process and a temporary
directory.  For each run it prints the wall seconds, the process's peak RSS so
far (``ru_maxrss``, which includes the interpreter and numpy) and the sha256 of
the data rows of ``samples.csv``, so two checkouts can be compared run for run.
The two runs allocate well under 1 GiB.  BLAS runs on one thread unless the
environment already sets ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

# sz0 sz1 commutes with sx on all five qubits, so the levels are +-1.3 +- 0.5 and the Trotter rounds are exact
CONFIG = {
    "layout": ["qubit"] * 5,
    "hamiltonian": "1.3*sz@0*sz@1 + 0.5*sx@0*sx@1*sx@2*sx@3*sx@4",
    "beta": 4.0,
    "t_couple": 5.0,
    "pointer_cutoff": 128,
    "n_shots": 2000,
    "method": "trotter",
    "trotter_steps": 256,
}


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(checkout / "src"))
    from hybridsim import cli

    with tempfile.TemporaryDirectory() as work:
        for experiment in ("spectrum", "robustness"):
            config, out = Path(work) / f"{experiment}.json", Path(work) / experiment
            config.write_text(json.dumps(dict(CONFIG, experiment=experiment)))
            start = time.perf_counter()
            code = cli.main([experiment, "--config", str(config), "--seed", "5", "--out", str(out)])
            seconds = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"pointer_scale: the {experiment} run exited {code}")
            rows = [ln for ln in (out / "samples.csv").read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b"#")]
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{experiment} 5q D=4096 trotter256: {seconds:.2f} s, peak RSS {peak_mib:.0f} MiB, "
                  f"samples.csv data sha256 {hashlib.sha256(b''.join(rows)).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
