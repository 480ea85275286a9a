"""Self-tests of the benchmark harness at tiny sizes: python3 -m pytest -q bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = run.run(workload, seed=3, seconds=0.0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_SWEEPS * len(workloads.experiments(workload, 3, tiny=True))
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["pointer-spectroscopy", "lie-closure"])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    result = run.run(workload, seed=4, seconds=0.0, trace=True, tiny=True)
    assert result["correct"]  # includes traced and untraced digests agreeing
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert result["metrics"]["cli.main.calls"]["value"] == len(workloads.experiments(workload, 4, tiny=True))
    assert (ROOT / ".bench" / f"trace-{workload}-seed4.jsonl").is_file()


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        first = [(e.config, e.seed) for e in workloads.experiments(workload, 7)]
        assert first == [(e.config, e.seed) for e in workloads.experiments(workload, 7)]
        assert first != [(e.config, e.seed) for e in workloads.experiments(workload, 8)]


def test_reference_matrix_matches_the_program_grammar():
    from hybridsim.hilbert import new_register, qubit, qumode
    from hybridsim.operators import build, parse_expr

    terms = [(-0.7, ((0, "sz", 1), (2, "X", 2))), (1.3, ((1, "sx", 1), (2, "P", 1))), (0.4, ((0, "sy", 1),))]
    layout = new_register([qubit(), qubit(), qumode(6)])
    assert np.allclose(build(parse_expr(workloads.render(terms)), layout),
                       workloads.reference_matrix(terms, [2, 2, 6]), atol=1e-12)


def test_spectrum_check_flags_a_misplaced_or_misweighted_peak(tmp_path):
    terms = workloads.pointer_hamiltonian(np.random.default_rng(0), 1)
    check = workloads._spectrum_check(terms, 1, shots=2, robustness=False)
    levels = np.linalg.eigvalsh(workloads.reference_matrix(terms, [2]))
    (tmp_path / "samples.csv").write_text("# header\nshot,x,eigenvalue_estimate\n0,1,1\n1,1,1\n")
    born = workloads._born_levels(terms, 1)[1]
    good = [{"eigenvalue": e, "weight": w} for e, w in zip(levels, born)]
    assert check({"results": {"resolution": 0.1, "peaks": good}}, tmp_path) == ([], [])
    shifted = [dict(good[0], eigenvalue=levels[0] + 0.3), good[1]]
    assert check({"results": {"resolution": 0.1, "peaks": shifted}}, tmp_path)[0]
    reweighted = [dict(good[0], weight=born[0] + 0.2), good[1]]
    assert check({"results": {"resolution": 0.1, "peaks": reweighted}}, tmp_path)[0]


def test_install_rebinds_every_holder_and_uninstall_restores():
    import hybridsim.cli as cli
    import hybridsim.evolution as evolution
    import hybridsim.spectral as spectral
    import hybridsim.synthesis as synthesis

    originals = (evolution.run_sequence, evolution.sequence_unitary, np.linalg.eigh,
                 synthesis.ClosureReport.membership)
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        assert spectral.run_sequence is cli.run_sequence is evolution.run_sequence
        assert evolution.run_sequence is not originals[0]
        assert synthesis.sequence_unitary is evolution.sequence_unitary is not originals[1]
        np.linalg.eigh(np.eye(3))
        assert [s[0] for s in t.spans] == ["kernel.eigh"]
    finally:
        uninstall()
    assert (evolution.run_sequence, evolution.sequence_unitary, np.linalg.eigh,
            synthesis.ClosureReport.membership) == originals
    assert spectral.run_sequence is originals[0] and cli.sequence_unitary is originals[1]


def test_a_repeat_with_other_output_bytes_fails():
    def rec(index, digest):
        return run.Record(index, "exp", 0.1, digests={"samples.csv": digest, "curve.dat": "c"})

    sweeps = [[rec(0, "a"), rec(1, "b")], [rec(0, "a"), rec(1, "x")]]
    run.check_digests(sweeps)
    assert [r.problems for r in sweeps[0] + sweeps[1][:1]] == [[], [], []]
    assert sweeps[1][1].problems


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, {}],
        ["spectral.couple_pointer", 1.0, 7.0, 0, {}],
        ["evolution.run_sequence", 2.0, 6.0, 1, {"pulses": 3}],
        ["kernel.eigh", 2.5, 5.0, 2, {"dim": 4}],
        ["kernel.eigh", 8.0, 9.0, 0, {"dim": 2}],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.5, 2.5, 1.0]
    m = tracer.layer_metrics(spans, output_bytes=5)
    assert m["kernel.eigh.calls"] == 2 and m["kernel.eigh.self_s"] == 3.5
    assert m["kernel.eigh.flop_est"] == 4**3 + 2**3 and m["kernel.eigh.max_dim"] == 4
    assert m["evolution.eig_reuse"] == 3.0  # one of the two eigh calls sits under evolution
    assert m["kernel.share"] == 0.35 and m["cli.output_bytes"] == 5


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "shot-sampling", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
