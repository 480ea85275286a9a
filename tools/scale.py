"""Time the register- and shot-scale CLI runs, each in its own process: pointer spectroscopy and synth.

    python3 tools/scale.py [CHECKOUT]
    python3 tools/scale.py CHECKOUT INDEX

Imports ``hybridsim`` from ``CHECKOUT/src`` (default: this checkout) and runs the nine
cases of ``CASES`` through ``cli.main`` at seed 5, each in its own child process (this
script given ``CHECKOUT`` and the case's index) and temporary directory:

* ``spectrum`` and ``robustness`` of five qubits, ``1.3*sz@0*sz@1 + 0.5*sx@0*...*sx@4``,
  whose terms commute, driven as 256 first-order Trotter rounds (D = 4096);
* the open transverse-field Ising chain ``sum 0.2*sz@i*sz@i+1 + sum 0.1*sx@i``: ``spectrum``
  as 64 Trotter rounds on ten qubits (D = 131,072) and twelve (D = 524,288), and
  ``robustness`` with the exact coupling on ten;
* ``synth`` at angle 0.7 of ``X@1*X@2`` on ``[qubit, qumode32, qumode32]`` (D = 2048) and on
  ``[qubit, qumode64, qumode64]`` (D = 8192), and of ``sz@0*sz@1`` on ``[qubit, qubit,
  qumode64, qumode64]`` (D = 16,384), whose plan puts X and P on mode 2 and leaves mode 3
  untouched;
* ``spectrum`` of one qubit, ``0.7*sz@0 + 0.4*sx@0``, with the exact coupling and 10**6 shots,
  whose cost is its shot arrays and the 10**6 rows of ``samples.csv``.

Every pointer run couples a 128-level pointer at beta 4 for t = 5 and takes 2000 shots
unless its case says otherwise.
Each case prints one line: the CLI exit code, the wall seconds, its own process's peak RSS
(``ru_maxrss``, which includes the interpreter and numpy) and the sha256 of the data rows
of ``samples.csv``, so two checkouts can be compared case for case.  A ``synth`` case that
exits 0 also prints one row per ``n_blocks`` with the measured and predicted errors, and
its probe-state fidelity.  The address space of each case is capped at ``LIMIT_GIB``, so
a checkout that would allocate more exits with the CLI's out-of-memory code 3 instead of
growing.  BLAS runs on one thread unless the environment already sets
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``.

With ``INDEX``, only case ``CASES[INDEX]`` runs, in this process, and BLAS keeps the
thread count the environment gives it: set ``OPENBLAS_NUM_THREADS=1`` for the timings
above.  Alternating such runs of two checkouts, one case at a time, compares one case's
wall time with less drift than two full sweeps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LIMIT_GIB = 2
POINTER = {"beta": 4.0, "t_couple": 5.0, "pointer_cutoff": 128, "n_shots": 2000}
FIVE = dict(POINTER, layout=["qubit"] * 5, hamiltonian="1.3*sz@0*sz@1 + 0.5*sx@0*sx@1*sx@2*sx@3*sx@4",
            method="trotter", trotter_steps=256)


def chain(qubits: int, **method) -> dict:
    terms = [f"0.2*sz@{i}*sz@{i + 1}" for i in range(qubits - 1)] + [f"0.1*sx@{i}" for i in range(qubits)]
    return dict(POINTER, layout=["qubit"] * qubits, hamiltonian=" + ".join(terms), **method)


def synth(target: str, spins: int, cutoff: int, n_blocks: list[int]) -> dict:
    layout = ["qubit"] * spins + [{"kind": "qumode", "cutoff": cutoff}] * 2
    return {"layout": layout, "target": target, "angle": 0.7, "n_blocks": n_blocks}


CASES = (
    ("spectrum", FIVE),
    ("robustness", FIVE),
    ("spectrum", chain(10, method="trotter", trotter_steps=64)),
    ("spectrum", chain(12, method="trotter", trotter_steps=64)),
    ("robustness", chain(10, method="exact")),
    ("synth", synth("X@1*X@2", 1, 32, [4, 16, 64])),
    ("synth", synth("X@1*X@2", 1, 64, [4, 16, 64, 256])),
    ("synth", synth("sz@0*sz@1", 2, 64, [4, 16, 64, 256])),
    ("spectrum", dict(POINTER, layout=["qubit"], hamiltonian="0.7*sz@0 + 0.4*sx@0", method="exact",
                      n_shots=10**6)),
)


def label(experiment: str, config: dict) -> str:
    dim = math.prod(2 if sub == "qubit" else sub["cutoff"] for sub in config["layout"])
    if experiment == "synth":
        return f"synth {config['target']} D={dim} n_blocks={config['n_blocks']}"
    return (f"{experiment} {len(config['layout'])}q D={dim * config['pointer_cutoff']} "
            f"{config['method']}{config.get('trotter_steps', '')} {config['n_shots']} shots")


def run(checkout: Path, index: int) -> None:
    """One case of ``CASES``, in this process, under the address-space cap."""
    experiment, config = CASES[index]
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_GIB << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
    sys.path.insert(0, str(checkout / "src"))
    from hybridsim import cli

    with tempfile.TemporaryDirectory() as work:
        path, out = Path(work) / "config.json", Path(work) / "out"
        path.write_text(json.dumps(dict(config, experiment=experiment)))
        start = time.perf_counter()
        code = cli.main([experiment, "--config", str(path), "--seed", "5", "--out", str(out)])
        seconds = time.perf_counter() - start
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digest = "-"
        if code == 0:
            data = hashlib.sha256()
            with (out / "samples.csv").open("rb") as rows:  # line by line: 10**7 shots are 446 MB of rows
                for row in rows:
                    if not row.startswith(b"#"):
                        data.update(row)
            digest = data.hexdigest()
        print(f"{label(experiment, config)}: exit {code}, {seconds:.2f} s, peak RSS {peak_mib:.0f} MiB, "
              f"samples.csv data sha256 {digest}", flush=True)
        if experiment == "synth" and code == 0:
            results = json.loads((out / "summary.json").read_text())["results"]
            print("n_blocks measured_error predicted_error")
            for row in results["errors"]:
                print(f"{row['n_blocks']} {row['measured_error']!r} {row['predicted_error']!r}")
            print(f"probe_state_fidelity {results['probe_state_fidelity']!r}", flush=True)


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    if len(argv) == 2:
        run(checkout, int(argv[1]))
        return 0
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    codes = [subprocess.run([sys.executable, __file__, str(checkout), str(i)]).returncode for i in range(len(CASES))]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
