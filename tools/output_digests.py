"""Digests of the benchmark experiments' output files, for an identity check of two checkouts.

    python3 tools/output_digests.py CHECKOUT [OTHER] > digests.txt

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

With OTHER, both checkouts run, each in its own child process, and each
experiment's line gives the two exit codes, the digests that moved
(``samples.h``, ``samples.d``, ``curve.h``, ``curve.d``, ``summary``) and the
largest relative difference |a - b| / max(|a|, |b|) of the numeric data cells
of ``samples.csv`` and ``curve.dat``, so a rounding-level move shows as a
number; ``inf`` when the rows or a non-numeric cell differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from itertools import chain
from pathlib import Path

SEEDS = (5, 7)
QFT_DEMOS = ({"cutoff": 48, "displace_x": 1.0}, {"cutoff": 64, "displace_x": 0.7, "displace_p": -0.4})
DIGESTS = ("samples.h", "samples.d", "curve.h", "curve.d", "summary")


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


def _run_all(checkout: Path, work: Path) -> None:
    """Run every experiment with its outputs in ``work/out<n>``, printing one digest line each."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from hybridsim import cli
    from workloads import WORKLOADS, experiments, write_config

    runs = []  # (label, argv of cli.main)
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, exp in enumerate(experiments(workload, seed)):
                config = work / f"config{len(runs)}.json"
                write_config(exp, config)
                runs.append((f"{workload} seed={seed} #{i} {exp.label}", exp.argv(config, work / f"out{len(runs)}")))
    for demo in QFT_DEMOS:
        config = work / f"config{len(runs)}.json"
        config.write_text(json.dumps(dict(demo, experiment="qft-demo")))
        runs.append((f"qft-demo {json.dumps(demo, sort_keys=True)}",
                     ["qft-demo", "--config", str(config), "--out", str(work / f"out{len(runs)}")]))
    for n, (label, argv) in enumerate(runs):
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(argv)
        print(f"{label}\trc={rc}\t{_digests(work / f'out{n}')}", flush=True)


def _data_cells(path: Path) -> list[list[str]]:
    if not path.exists():
        return []
    return [re.split(r"[,\s]+", ln.strip()) for ln in path.read_text().splitlines() if not ln.startswith("#")]


def _max_relative_difference(a: Path, b: Path) -> float:
    """Largest relative difference of the numeric data cells of two runs' outputs."""
    worst = 0.0
    for name in ("samples.csv", "curve.dat"):
        rows_a, rows_b = _data_cells(a / name), _data_cells(b / name)
        if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
            return math.inf
        for x, y in zip(chain.from_iterable(rows_a), chain.from_iterable(rows_b)):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return math.inf
            worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return worst


def _compare(checkouts: list[Path]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        works, listings = [Path(tmp) / "a", Path(tmp) / "b"], []
        for checkout, work in zip(checkouts, works):
            work.mkdir()
            child = [sys.executable, __file__, str(checkout), "--keep", str(work)]
            listings.append(subprocess.run(child, check=True, capture_output=True, text=True).stdout.splitlines())
        for n, (line_a, line_b) in enumerate(zip(*listings)):
            label, rc_a, digests_a = line_a.split("\t")
            _, rc_b, digests_b = line_b.split("\t")
            moved = [d for d, x, y in zip(DIGESTS, digests_a.split(), digests_b.split()) if x != y]
            delta = _max_relative_difference(works[0] / f"out{n}", works[1] / f"out{n}")
            print(f"{label}\t{rc_a}/{rc_b.removeprefix('rc=')}\tmoved={','.join(moved) or '-'}\tmax_rel={delta:.1e}")


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--keep":  # one checkout of a comparison, outputs kept
        _run_all(Path(argv[0]).resolve(), Path(argv[2]))
    elif len(argv) == 2:
        _compare([Path(a).resolve() for a in argv])
    elif len(argv) == 1:
        with tempfile.TemporaryDirectory() as tmp:
            _run_all(Path(argv[0]).resolve(), Path(tmp))
    else:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
