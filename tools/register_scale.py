"""Time pointer spectroscopy of a 10-qubit register through the CLI.

    python3 tools/register_scale.py [CHECKOUT]

Imports ``hybridsim`` from ``CHECKOUT/src`` (default: this checkout).  The
system is the open transverse-field Ising chain ``sum 0.2*sz@i*sz@i+1 + sum
0.1*sx@i`` on ten qubits, coupled to a 128-level pointer (D = 131,072).  It
runs ``spectrum`` with the coupling driven as 64 first-order Trotter rounds,
then ``robustness`` with the exact coupling, through ``cli.main``, in this
process and a temporary directory, at seed 5.  For each run it prints the
wall seconds, the process's peak RSS so far (``ru_maxrss``, which includes the
interpreter and numpy) and the sha256 of the data rows of ``samples.csv``, so
two checkouts can be compared run for run.  The address space is capped at
``LIMIT_GIB``, so a checkout that would allocate more exits with the CLI's
out-of-memory code 3 instead of growing.  BLAS runs on one thread unless the
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

QUBITS = 10
LIMIT_GIB = 2
CONFIG = {
    "layout": ["qubit"] * QUBITS,
    "hamiltonian": " + ".join([f"0.2*sz@{i}*sz@{i + 1}" for i in range(QUBITS - 1)]
                              + [f"0.1*sx@{i}" for i in range(QUBITS)]),
    "beta": 4.0,
    "t_couple": 5.0,
    "pointer_cutoff": 128,
    "n_shots": 2000,
}
RUNS = (("spectrum", {"method": "trotter", "trotter_steps": 64}), ("robustness", {"method": "exact"}))


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_GIB << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
    sys.path.insert(0, str(checkout / "src"))
    from hybridsim import cli

    with tempfile.TemporaryDirectory() as work:
        for experiment, method in RUNS:
            config, out = Path(work) / f"{experiment}.json", Path(work) / experiment
            config.write_text(json.dumps(dict(CONFIG, experiment=experiment, **method)))
            start = time.perf_counter()
            code = cli.main([experiment, "--config", str(config), "--seed", "5", "--out", str(out)])
            seconds = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"register_scale: the {experiment} run exited {code}")
            rows = [ln for ln in (out / "samples.csv").read_bytes().splitlines(keepends=True)
                    if not ln.startswith(b"#")]
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"{experiment} {QUBITS}q D={2**QUBITS * 128} {method['method']}: {seconds:.2f} s, "
                  f"peak RSS {peak_mib:.0f} MiB, samples.csv data sha256 {hashlib.sha256(b''.join(rows)).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
