"""Time a register-scale ``synth`` run through the CLI, the plan-pair-at-scale probe.

    python3 tools/synth_scale.py [CHECKOUT]

Imports ``hybridsim`` from ``CHECKOUT/src`` (default: this checkout).  It runs
``synth X@1*X@2`` at angle 0.7 on ``[qubit, qumode32, qumode32]`` (D = 2048, two
1024-state parity sectors) with ``n_blocks`` [4, 16, 64] through ``cli.main``, in this
process and a temporary directory, and prints the run's wall seconds, the process's peak
RSS (``ru_maxrss``, which includes the interpreter and numpy), and one row per
``n_blocks`` with the measured and predicted errors.  The run allocates well under
1 GiB.  BLAS runs on one thread unless the environment already sets
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

CONFIG = {
    "experiment": "synth",
    "layout": ["qubit", {"kind": "qumode", "cutoff": 32}, {"kind": "qumode", "cutoff": 32}],
    "target": "X@1*X@2",
    "angle": 0.7,
    "n_blocks": [4, 16, 64],
}


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(checkout / "src"))
    from hybridsim import cli

    with tempfile.TemporaryDirectory() as work:
        config, out = Path(work) / "synth.json", Path(work) / "out"
        config.write_text(json.dumps(CONFIG))
        start = time.perf_counter()
        code = cli.main(["synth", "--config", str(config), "--out", str(out)])
        seconds = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"synth_scale: the run exited {code}")
        results = json.loads((out / "summary.json").read_text())["results"]
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"synth X@1*X@2 D=2048 n_blocks={CONFIG['n_blocks']}: {seconds:.2f} s, peak RSS {peak_mib:.0f} MiB")
    print("n_blocks measured_error predicted_error")
    for row in results["errors"]:
        print(f"{row['n_blocks']} {row['measured_error']!r} {row['predicted_error']!r}")
    print(f"probe_state_fidelity {results['probe_state_fidelity']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
