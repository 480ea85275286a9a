"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 3 is expected to fail on its sigma_z sigma_z slope clause:
both inputs of that rule commute with their commutator (conjugate
quadratures), so the compiled block is exact up to truncation dust and no
first-order n^(-1/2) error law exists for it.  The remaining clauses of
criterion 3 hold and are checked first.
"""

import json
import time

import numpy as np
import pytest

from hybridsim.cli import main as cli_main
from hybridsim.evolution import Pulse, PulseSequence, cv_qft, expm_unitary, run_sequence, sequence_unitary
from hybridsim.hilbert import (
    StateVector,
    basis_state,
    compress_to_interior,
    new_register,
    qubit,
    qumode,
    reduced_density,
)
from hybridsim.operators import build, parse_expr, primitive_set
from hybridsim.spectral import (
    PointerSpec,
    _node_amplitudes,
    couple_pointer,
    estimate_spectrum,
    measure_position,
    prepare_gaussian_pointer,
    robustness_midmeasure,
)
from hybridsim.synthesis import (
    close_algebra,
    group_commutator,
    measure_plan_error,
    standard_registry,
    synthesize,
)

S_GRID = (0.2, 0.1, 0.05, 0.025)
BLOCK_GRID = (4, 16, 64, 256)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


def uniform_state(layout) -> StateVector:
    return StateVector(layout, np.ones(layout.total_dim, dtype=complex) / np.sqrt(layout.total_dim))


def eigenspace_projector(h_mat: np.ndarray, value: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h_mat)
    sel = np.abs(evals - value) < 1e-9
    vecs = evecs[:, sel]
    return vecs @ vecs.conj().T


def test_criterion_1_commutator_identity_suite():
    cases = {
        "[qubit, qumode(32)]": (
            new_register([qubit(), qumode(32)]),
            ["1.0*sx@0", "1.0*sz@0", "1.0*sy@0", "1.0*id@0", "1.0*sy@0*X@1^2", "1.0*sz@0*X@1^3"],
        ),
        "[qubit, qubit, qumode(32)]": (
            new_register([qubit(), qubit(), qumode(32)]),
            ["1.0*sx@0", "1.0*sz@0", "1.0*sy@0", "1.0*id@0", "1.0*sy@0*X@2^2",
             "1.0*sz@0*X@2^3", "1.0*sz@0*sz@1"],
        ),
        "[qubit, qumode(16), qumode(16)]": (
            new_register([qubit(), qumode(16), qumode(16)]),
            ["1.0*sx@0", "1.0*sz@0", "1.0*sy@0", "1.0*id@0", "1.0*sy@0*X@1^2",
             "1.0*sz@0*X@1^3", "1.0*sz@0*X@1*X@2"],
        ),
    }
    worst = 0.0
    n_rules = 0
    for name, (layout, expected) in cases.items():
        registry = standard_registry(layout)
        for direction in expected:
            rule = registry.rule_for(direction)
            assert rule is not None, f"{name}: no rule for {direction}"
            worst = max(worst, rule.residual)
            n_rules += 1
    # the two-mode layout also exposes the reset-effective mode-mode target
    assert standard_registry(cases["[qubit, qumode(16), qumode(16)]"][0]).alias_for("1.0*X@1*X@2")
    ok = worst <= 1e-8
    report(1, ok, f"{n_rules} named rules accepted across 3 layouts, worst residual {worst:.2e}")
    assert ok


def test_criterion_2_group_commutator_error_order():
    layout = new_register([qubit(), qubit(), qumode(12)])
    registry = standard_registry(layout)
    pairs = [
        ("1.0*sz@0*X@2", "1.0*sx@0*X@2"),
        ("1.0*sx@0*X@2", "1.0*sz@0*P@2"),
        ("1.0*sz@1*X@2", "1.0*sx@1*X@2"),
        ("1.0*sx@1*X@2", "1.0*sz@1*P@2"),
    ]
    slopes = []
    for a_id, b_id in pairs:
        a, b = (build(registry.record(g).expr, layout) for g in (a_id, b_id))
        k = 1j * (a @ b - b @ a)
        errs = []
        for s in S_GRID:
            u = sequence_unitary(group_commutator(a_id, b_id, s, registry), layout, registry.generators)
            errs.append(np.linalg.norm(compress_to_interior(u - expm_unitary(k, s * s), layout), 2))
        slopes.append(loglog_slope(S_GRID, errs))
    ok = len(slopes) >= 3 and all(2.7 <= s <= 3.3 for s in slopes)
    report(2, ok, f"{len(slopes)} non-commuting primitive pairs, slopes {[f'{s:.2f}' for s in slopes]}")
    assert ok


def test_criterion_3_synthesis_convergence():
    angle = np.pi / 4

    layout_y = new_register([qubit(), qumode(16)])
    reg_y = standard_registry(layout_y)
    errs_y = [measure_plan_error(synthesize("sy@0", angle, n, reg_y), reg_y) for n in BLOCK_GRID]
    slope_y = loglog_slope(BLOCK_GRID, errs_y)

    layout_zz = new_register([qubit(), qubit(), qumode(16)])
    reg_zz = standard_registry(layout_zz)
    plans = [synthesize("sz@0*sz@1", angle, n, reg_zz) for n in BLOCK_GRID]
    errs_zz = [measure_plan_error(p, reg_zz) for p in plans]
    slope_zz = loglog_slope(BLOCK_GRID, errs_zz)

    plus = np.ones(4) / 2.0
    probe = StateVector(layout_zz, np.kron(plus, np.eye(16)[0]).astype(complex))
    final = run_sequence(plans[-1].sequence, probe, reg_zz.generators)
    purity = reduced_density(final, [2]).purity()

    ok_y = -0.65 <= slope_y <= -0.35
    ok_purity = purity >= 0.99
    ok_zz = -0.65 <= slope_zz <= -0.35
    report(
        3,
        ok_y and ok_purity and ok_zz,
        f"sy slope {slope_y:.3f} ({'ok' if ok_y else 'out'}), "
        f"szsz slope {slope_zz:.3f} ({'ok' if ok_zz else 'out'}), "
        f"bus purity @256 {purity:.6f} ({'ok' if ok_purity else 'out'})",
    )
    assert ok_y, f"sigma_y slope {slope_y}"
    assert ok_purity, f"bus purity {purity}"
    # Expected red: both inputs of the szsz rule commute with their commutator
    # (conjugate quadratures), so the block is exact and only truncation-edge
    # noise remains; its decay is not the generic first-order law.
    assert ok_zz, (
        f"szsz slope {slope_zz:.3f} outside -0.5 +/- 0.15: the szsz block has no "
        f"third-order BCH error to scale (errors {[f'{e:.2e}' for e in errs_zz]})"
    )


def test_criterion_4_lie_closure_within_budget():
    started = time.time()
    runs = [
        (
            new_register([qubit(), qumode(32)]),
            [(0, 1)],
            ["sx@0", "sz@0", "sy@0", "id@0", "sy@0*X@1^2", "sz@0*X@1^3"],
            60,
        ),
        (
            new_register([qubit(), qubit(), qumode(32)]),
            [(0, 2), (1, 2)],
            ["sx@0", "sz@0", "sy@0", "id@0", "sy@0*X@2^2", "sz@0*X@2^3", "sz@0*sz@1"],
            90,
        ),
        (
            new_register([qubit(), qumode(16), qumode(16)]),
            [(0, 1), (0, 2)],
            ["sx@0", "sz@0", "sy@0", "id@0", "sy@0*X@1^2", "sz@0*X@1^3", "X@1*X@2"],
            80,
        ),
    ]
    worst = 0.0
    n_probes = 0
    for layout, pairs, probes, max_new in runs:
        registry = standard_registry(layout)
        seeds = [
            g.generator_id for spin, mode in pairs for g in primitive_set(layout, spin, mode).members
        ]
        rep = close_algebra(seeds, max_new=max_new, degree_cap=4, registry=registry)
        for probe in probes:
            resid = rep.membership(parse_expr(probe))
            worst = max(worst, resid)
            n_probes += 1
            assert resid <= 1e-8, f"{probe} residual {resid:.3e} on {layout.dims}"
    elapsed = time.time() - started
    ok = worst <= 1e-8 and elapsed <= 300.0
    report(4, ok, f"{n_probes} directions reached (degree_cap 4), worst residual {worst:.2e}, {elapsed:.0f}s")
    assert ok


def test_criterion_5_cv_fourier_transform():
    layout = new_register([qumode(64)])
    x_op = build(parse_expr("X@0"), layout)
    p_op = build(parse_expr("P@0"), layout)
    state = run_sequence(PulseSequence((Pulse(parse_expr("P@0"), 1.0),)),
                         basis_state(layout, [0]))  # (<X>, <P>) = (1, 0)
    rotated = cv_qft(state, 0)
    dx = abs(rotated.expectation(x_op) - 0.0)
    dp = abs(rotated.expectation(p_op) - (-1.0))

    cycled = state
    for _ in range(4):
        cycled = cv_qft(cycled, 0)
    fid = cycled.fidelity(state)

    ok = dx <= 1e-3 and dp <= 1e-3 and fid >= 1.0 - 1e-8
    report(5, ok, f"(<X>,<P>) -> (0,-1) within ({dx:.1e}, {dp:.1e}); four applications fidelity {fid:.12f}")
    assert ok


def test_criterion_6_spectrum_recovery():
    layout = new_register([qubit(), qubit()])
    psi = uniform_state(layout)
    h = parse_expr("sz@0*sz@1")
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    est = estimate_spectrum(h, psi, spec, 2000, seed=7)

    two_peaks = len(est.peaks) == 2
    eig_ok = two_peaks and all(
        abs(abs(p.eigenvalue) - 1.0) <= spec.resolution for p in est.peaks
    )
    weights_ok = two_peaks and all(abs(p.weight - 0.5) <= 0.05 for p in est.peaks)

    # collapsed system state lands in the matching eigenspace
    h_mat = build(h, layout)
    joint = couple_pointer(psi, h, prepare_gaussian_pointer(4.0, 128), 5.0)
    fid_min = 1.0
    for seed in range(5):
        x, collapsed = measure_position(joint, 2, np.random.default_rng(seed))
        amps, _ = _node_amplitudes(collapsed.layout, collapsed.amplitudes, 2)
        k = int(np.argmax(np.sum(np.abs(amps) ** 2, axis=0)))
        v = amps[:, k] / np.linalg.norm(amps[:, k])
        proj = eigenspace_projector(h_mat, 1.0 if x > 0 else -1.0)
        fid_min = min(fid_min, float(np.vdot(v, proj @ v).real))

    ok = two_peaks and eig_ok and weights_ok and fid_min >= 0.99 and est.valid
    report(
        6,
        ok,
        f"peaks {[f'{p.eigenvalue:+.4f}' for p in est.peaks]} weights "
        f"{[f'{p.weight:.3f}' for p in est.peaks]}, min eigenspace fidelity {fid_min:.4f}",
    )
    assert ok


def test_criterion_7_resolution_law():
    layout = new_register([qubit(), qubit()])
    psi = uniform_state(layout)
    h = parse_expr("sz@0*sz@1")

    betas = (1.0, 4.0, 16.0)
    sigma_x = []
    for beta in betas:
        est = estimate_spectrum(h, psi, PointerSpec(beta, 128, 5.0), 2000, seed=11)
        sigma_x.append(
            np.average([p.sigma_x for p in est.peaks], weights=[p.count for p in est.peaks])
        )
    beta_slope = loglog_slope(betas, sigma_x)

    times = (2.5, 5.0, 10.0)
    sigma_e = []
    for t in times:
        est = estimate_spectrum(h, psi, PointerSpec(4.0, 128, t), 2000, seed=13)
        sigma_e.append(
            np.average([p.sigma_x / t for p in est.peaks], weights=[p.count for p in est.peaks])
        )
    t_slope = loglog_slope(times, sigma_e)

    ok = abs(beta_slope + 0.5) <= 0.05 and abs(t_slope + 1.0) <= 0.1
    report(7, ok, f"cluster-sigma vs beta slope {beta_slope:.3f} (want -0.5 +/- 0.05); "
                  f"eigenvalue-sigma vs t slope {t_slope:.3f} (want -1.0 +/- 0.1)")
    assert ok


def test_criterion_8_midmeasure_robustness():
    layout = new_register([qubit(), qubit()])
    psi = uniform_state(layout)
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    rep = robustness_midmeasure(parse_expr("sz@0*sz@1"), psi, spec, 2000, seed=7)

    major = [p for p in rep.peaks if p.weight >= 0.2]
    branch_by_eig = {b.eigenvalue: b for b in rep.branches}
    shifts, fids = [], []
    for peak in major:
        branch = branch_by_eig[peak.eigenvalue]
        shifts.append(branch.shift)
        fids.append(min(branch.fidelity_before, branch.fidelity_after))
    ok = (
        len(major) == 2
        and all(s <= spec.resolution for s in shifts)
        and all(f >= 0.99 for f in fids)
    )
    report(8, ok, f"two main branches, peak shifts {[f'{s:.4f}' for s in shifts]} "
                  f"(resolution {spec.resolution}), min branch fidelity {min(fids):.4f}")
    assert ok


def test_criterion_9_trotterized_coupling():
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    h = parse_expr("sz@0+sx@0")
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    exact = estimate_spectrum(h, psi, spec, 2000, seed=21, method="exact")
    trot = estimate_spectrum(h, psi, spec, 2000, seed=21, method="trotter", trotter_steps=64)
    ok = len(exact.peaks) == len(trot.peaks) and all(
        abs(pe.eigenvalue - pt.eigenvalue) <= spec.resolution
        for pe, pt in zip(exact.peaks, trot.peaks)
    )
    report(
        9,
        ok,
        f"exact peaks {[f'{p.eigenvalue:+.4f}' for p in exact.peaks]} vs "
        f"trotter(64) {[f'{p.eigenvalue:+.4f}' for p in trot.peaks]} (resolution {spec.resolution})",
    )
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "experiment": "spectrum",
        "layout": ["qubit", "qubit"],
        "hamiltonian": "sz@0*sz@1",
        "initial_state": {"type": "uniform"},
        "beta": 4.0,
        "t_couple": 5.0,
        "pointer_cutoff": 128,
        "n_shots": 2000,
        "seed": 7,
    }
    cfg = tmp_path / "spectrum.json"
    cfg.write_text(json.dumps(config))
    assert cli_main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    same_csv = (tmp_path / "a/samples.csv").read_bytes() == (tmp_path / "b/samples.csv").read_bytes()
    same_curve = (tmp_path / "a/curve.dat").read_bytes() == (tmp_path / "b/curve.dat").read_bytes()
    ok = same_csv and same_curve
    report(10, ok, "repeated runs with the same seed produce byte-identical samples.csv and curve.dat")
    assert ok
