"""hybridsim benchmark: CLI experiments in fresh worker processes, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hybridsim is imported from ./src.
Each experiment is one ``hybridsim.cli.main([...])`` call in a fresh
worker, because a CLI user pays cold caches on every run.  One worker runs
at a time and BLAS keeps its default thread count.

--trace 0 repeats the workload's sweep until S seconds have passed (at
least three times) and reports the end-to-end metrics.  --trace 1 runs one traced
sweep and one untraced sweep, reports the per-layer metrics and the
tracing overhead, and writes the spans to .bench/trace-NAME-seedN.jsonl.
Every output is checked against references computed by the benchmark and
every repeat of an experiment must write byte-identical samples.csv and
curve.dat.  The last stdout line is the JSON result; see bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from workloads import Experiment, WORKLOADS, experiments, write_config

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 9
MIN_SWEEPS = 3  # an experiment's median over three runs ignores one slow outlier
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "exp_s.p50": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Self-time share of the traced sweep that bench/README.md predicts per workload.
PREDICTED_SHARES = {
    "pointer-spectroscopy": (("kernel.eigh",), 0.5),
    "gate-synthesis": (("evolution.sequence_unitary",), 0.5),
    "lie-closure": (("operators.commutator", "synthesis.close_algebra"), 0.8),
    "shot-sampling": (("spectral.", "cli."), 0.7),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, or hybridsim does not import)."""


@dataclass
class Record:
    """One experiment execution."""

    index: int
    label: str
    setup_s: float
    wall_s: float = 0.0
    maxrss_kib: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    output_bytes: int = 0
    spans: list = field(default_factory=list)


def spawn(trace: bool, argv: list[str]) -> tuple[dict | None, float, str]:
    """Run one worker; returns (its JSON line or None, set-up seconds, failure text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), "1" if trace else "0", *argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, 0.0, f"worker timed out after {WORKER_TIMEOUT_S} s"
    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, 0.0, f"worker exited {proc.returncode}: {proc.stderr.decode().strip()[-2000:]}"
    if not Path(result["hybridsim"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported hybridsim from {result['hybridsim']}, not from {ROOT / 'src'}")
    result["stderr"] = proc.stderr.decode().strip()[-2000:]
    return result, result["ready"] - spawned, ""


def setup_sample() -> float:
    result, setup_s, failure = spawn(False, [])
    if result is None:
        raise BenchError(f"hybridsim does not import: {failure}")
    return setup_s


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_experiment(exp: Experiment, index: int, work: Path, trace: bool) -> Record:
    config, out = work / f"exp{index}.json", work / f"exp{index}"
    write_config(exp, config)
    result, setup_s, failure = spawn(trace, exp.argv(config, out))
    rec = Record(index, exp.label, setup_s)
    if result is None:
        rec.problems.append(failure)
        return rec
    rec.wall_s, rec.maxrss_kib, rec.spans = result["wall_s"], result["maxrss_kib"], result.get("spans", [])
    if result["rc"] != 0:
        rec.problems.append(f"exit code {result['rc']}: {result.get('error') or result['stderr']}")
    else:
        try:
            summary = json.loads((out / "summary.json").read_text())
            problems, rec.notes = exp.check(summary, out)
            rec.problems += problems
            rec.digests = {name: _sha256(out / name) for name in ("samples.csv", "curve.dat")}
            rec.output_bytes = sum(f.stat().st_size for f in out.iterdir())
        except (OSError, KeyError, TypeError, ValueError) as exc:
            rec.problems.append(f"unreadable output: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return rec


def sweep(exps: list[Experiment], work: Path, trace: bool) -> list[Record]:
    return [run_experiment(exp, i, work, trace) for i, exp in enumerate(exps)]


def check_digests(sweeps: list[list[Record]]) -> None:
    """Every repeat of an experiment must match the first one byte for byte."""
    first: dict[int, dict[str, str]] = {}
    for rec in (r for sw in sweeps for r in sw if r.digests):
        if rec.index not in first:
            first[rec.index] = rec.digests
        elif rec.digests != first[rec.index]:
            rec.problems.append("samples.csv/curve.dat differ from an earlier run of the same seed")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it says."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, seed: int) -> dict:
    digest, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def end_to_end(sweeps: list[list[Record]], setups: list[float]) -> dict[str, float]:
    records = [r for sw in sweeps for r in sw]
    per_exp = [statistics.median(r.wall_s for r in records if r.index == i) for i in range(len(sweeps[0]))]
    return {
        "wall_s": sum(per_exp),
        "exp_s.p50": statistics.median(per_exp),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(r.maxrss_kib for r in records) / 1024,
    }


def traced_metrics(traced: list[Record], plain: list[Record]) -> dict[str, float]:
    spans = []
    for rec in traced:
        offset = len(spans)
        spans += [[n, s, e, p + offset if p >= 0 else -1, a] for n, s, e, p, a in rec.spans]
    metrics = tracer.layer_metrics(spans, sum(r.output_bytes for r in traced))
    metrics["trace.wall_s"] = sum(r.wall_s for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(r.wall_s for r in plain)
    return metrics


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("dim"):
        return "dim"
    return {"flop_est": "flop", "bytes_est": "B", "output_bytes": "B", "accept_ratio": "1",
            "eig_reuse": "1", "share": "1", "max": "1"}.get(last, "count")


def write_trace(path: Path, traced: list[Record]) -> None:
    with path.open("w") as fh:
        for rec in traced:
            for i, (name, start, end, parent, attrs) in enumerate(rec.spans):
                fh.write(json.dumps({"exp": rec.index, "label": rec.label, "span": i, "name": name,
                                     "start": start, "end": end, "parent": parent, "attrs": attrs}) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; prints a report and returns the result object."""
    if not (ROOT / "src" / "hybridsim" / "cli.py").is_file():
        raise BenchError(f"no hybridsim source tree under {ROOT / 'src'}")
    bench_dir = ROOT / ".bench"
    work = bench_dir / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print(json.dumps({"provenance": provenance(workload, seed)}))
        exps = experiments(workload, seed, tiny)
        # Warm-up, not timed: the first worker after a pause pays OS-level cold
        # starts (page cache, bytecode compilation) that a steady run does not.
        sweep(experiments(workload, seed, tiny=True), work, False)

        if trace:
            traced, plain = sweep(exps, work, True), sweep(exps, work, False)
            sweeps = [traced, plain]
        else:
            sweeps, started = [], time.monotonic()
            while len(sweeps) < MIN_SWEEPS or time.monotonic() - started < seconds:
                sweeps.append(sweep(exps, work, False))
        check_digests(sweeps)
        records = [r for sw in sweeps for r in sw]
        setups = [r.setup_s for r in records if r.setup_s > 0]
        setups += [setup_sample() for _ in range(SETUP_SAMPLES - len(setups))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rec in records:
        status = "ok" if not rec.problems else "FAIL " + "; ".join(rec.problems)
        print(f"exp {rec.index} [{rec.label}] {rec.wall_s:.3f} s, setup {rec.setup_s:.3f} s: {status}")
        for note in rec.notes:
            print(f"  note: {note}")
    failed = sum(1 for r in records if r.problems)
    print(f"fail_ratio = {failed / len(records):.4g} 1 ({failed} of {len(records)} experiments)")
    timed = [plain] if trace else sweeps
    e2e = end_to_end(timed, setups)
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  samples: {len(exps)} experiments, each the median of {len(timed)} untraced runs; "
          f"{len(setups)} set-up samples")

    if trace:
        metrics = traced_metrics(traced, plain)
        bench_dir.mkdir(exist_ok=True)
        write_trace(bench_dir / f"trace-{workload}-seed{seed}.jsonl", traced)
        names, threshold = PREDICTED_SHARES[workload]
        share = sum(v for k, v in metrics.items()
                    if k.endswith(".self_s") and k.startswith(names)) / metrics["trace.wall_s"]
        print(f"self-time share of {' + '.join(names)} = {share:.3f} "
              f"(predicted > {threshold}: {'met' if share > threshold else 'MISSED'})")
        print(f"tracing overhead = {metrics['trace.overhead_s']:.4g} s on an untraced wall of "
              f"{metrics['trace.wall_s'] - metrics['trace.overhead_s']:.4g} s")
        reported = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": reported}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
