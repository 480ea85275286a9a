"""Time pointer spectroscopy of 10- and 12-qubit registers through the CLI.

    python3 tools/register_scale.py [CHECKOUT]

Imports ``hybridsim`` from ``CHECKOUT/src`` (default: this checkout).  The
system is the open transverse-field Ising chain ``sum 0.2*sz@i*sz@i+1 + sum
0.1*sx@i``, coupled to a 128-level pointer.  Three runs go through
``cli.main`` in a temporary directory, at seed 5: ``spectrum`` with the
coupling driven as 64 first-order Trotter rounds on ten qubits (D = 131,072)
and on twelve (D = 524,288), then ``robustness`` with the exact coupling on
ten.  Each run has its own child process (this script given ``CHECKOUT`` and
the run's index in ``RUNS``), so its peak RSS (``ru_maxrss``, which includes
the interpreter and numpy) is its own.  For each run it prints the wall
seconds, that peak and the sha256 of the data rows of ``samples.csv``, so two
checkouts can be compared run for run.  The address space is capped at
``LIMIT_GIB``, so a checkout that would allocate more exits with the CLI's
out-of-memory code 3 instead of growing.  BLAS runs on one thread unless the
environment already sets ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LIMIT_GIB = 2
RUNS = ((10, "spectrum", {"method": "trotter", "trotter_steps": 64}),
        (12, "spectrum", {"method": "trotter", "trotter_steps": 64}),
        (10, "robustness", {"method": "exact"}))


def config(qubits: int) -> dict:
    return {
        "layout": ["qubit"] * qubits,
        "hamiltonian": " + ".join([f"0.2*sz@{i}*sz@{i + 1}" for i in range(qubits - 1)]
                                  + [f"0.1*sx@{i}" for i in range(qubits)]),
        "beta": 4.0,
        "t_couple": 5.0,
        "pointer_cutoff": 128,
        "n_shots": 2000,
    }


def run(checkout: Path, index: int) -> None:
    """One run of ``RUNS``, in this process, under the address-space cap."""
    qubits, experiment, method = RUNS[index]
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_GIB << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
    sys.path.insert(0, str(checkout / "src"))
    from hybridsim import cli

    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / f"{experiment}.json", Path(work) / experiment
        path.write_text(json.dumps(dict(config(qubits), experiment=experiment, **method)))
        start = time.perf_counter()
        code = cli.main([experiment, "--config", str(path), "--seed", "5", "--out", str(out)])
        seconds = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"register_scale: the {qubits}-qubit {experiment} run exited {code}")
        rows = [ln for ln in (out / "samples.csv").read_bytes().splitlines(keepends=True) if not ln.startswith(b"#")]
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{experiment} {qubits}q D={2**qubits * 128} {method['method']}: {seconds:.2f} s, "
          f"peak RSS {peak_mib:.0f} MiB, samples.csv data sha256 {hashlib.sha256(b''.join(rows)).hexdigest()}")


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    if len(argv) == 2:
        run(checkout, int(argv[1]))
        return 0
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for index in range(len(RUNS)):
        if subprocess.run([sys.executable, __file__, str(checkout), str(index)]).returncode != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
