"""Digests of the benchmark experiments' output files, for an identity check of two checkouts.

    python3 tools/output_digests.py CHECKOUT > digests.txt

Imports ``hybridsim`` from ``CHECKOUT/src`` and the experiment lists from
``CHECKOUT/bench/workloads.py`` (read, never changed).  It runs every
experiment of the four benchmark workloads at seeds 5 and 7, and two
``qft-demo`` configs, in this process and in a temporary directory.  For each
experiment it prints one line: the label, the CLI exit code, the sha256
of the ``#`` header lines and of the data rows of ``samples.csv`` and of
``curve.dat`` (``h:`` and ``d:`` digests, in that order), and the sha256 of
``summary.json`` with ``wall_time_s`` removed.  A header line carries the
run's leakage, so a move there shows apart from the data.  Two checkouts
write the same outputs when ``diff`` of their listings is empty.  BLAS runs on one thread unless the
environment already sets ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (5, 7)
QFT_DEMOS = ({"cutoff": 48, "displace_x": 1.0}, {"cutoff": 64, "displace_x": 0.7, "displace_p": -0.4})


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(out: Path) -> str:
    files = []
    for name in ("samples.csv", "curve.dat"):
        if not (out / name).exists():
            files += ["h:-", "d:-"]
            continue
        lines = (out / name).read_bytes().splitlines(keepends=True)
        for tag, header in (("h", True), ("d", False)):
            files.append(f"{tag}:" + _sha256(b"".join(ln for ln in lines if ln.startswith(b"#") == header)))
    summary = out / "summary.json"
    if summary.exists():
        doc = json.loads(summary.read_text())
        doc.pop("wall_time_s", None)
        files.append(_sha256(json.dumps(doc, sort_keys=True).encode()))
    else:
        files.append("-")
    return " ".join(files)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from hybridsim import cli
    from workloads import WORKLOADS, experiments, write_config

    runs = []  # (label, experiment)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, exp in enumerate(experiments(workload, seed)):
                runs.append((f"{workload} seed={seed} #{i} {exp.label}", exp))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for n, (label, exp) in enumerate(runs):
            config, out = work / f"config{n}.json", work / f"out{n}"
            write_config(exp, config)
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(exp.argv(config, out))
            print(f"{label}\trc={rc}\t{_digests(out)}", flush=True)
        for n, demo in enumerate(QFT_DEMOS):
            config, out = work / f"qft{n}.json", work / f"qft{n}"
            config.write_text(json.dumps(dict(demo, experiment="qft-demo")))
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(["qft-demo", "--config", str(config), "--out", str(out)])
            print(f"qft-demo {json.dumps(demo, sort_keys=True)}\trc={rc}\t{_digests(out)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
