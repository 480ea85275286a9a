import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hybridsim
from hybridsim import evolution, spectral
from hybridsim.evolution import LEAKAGE_INVALID, Generators, run_sequence
from hybridsim.hilbert import StateVector, basis_state, new_register, qubit, qumode
from hybridsim.operators import build, fock_momentum, fock_position, parse_expr, weyl_symbol
from hybridsim.spectral import (
    PointerSpec,
    SpectralError,
    _node_amplitudes,
    couple_pointer,
    estimate_spectrum,
    measure_position,
    measure_position_binned,
    prepare_gaussian_pointer,
    reliable_shift,
    robustness_midmeasure,
)


def two_qubit_uniform():
    layout = new_register([qubit(), qubit()])
    return StateVector(layout, np.ones(4, dtype=complex) / 2)


def test_quadrature_basis_matches_gauss_hermite():
    basis = Generators(new_register([qumode(40)])).quadrature(40)
    nodes, _ = np.polynomial.hermite.hermgauss(40)
    assert np.max(np.abs(basis.nodes - nodes)) <= 1e-12
    assert np.all(np.diff(basis.nodes) > 0)
    gram = basis.vectors.conj().T @ basis.vectors
    assert np.max(np.abs(gram - np.eye(40))) <= 1e-10


def test_pointer_beta_one_is_vacuum():
    pointer = prepare_gaussian_pointer(1.0, 64)
    vac = basis_state(new_register([qumode(64)]), [0])
    assert pointer.fidelity(vac) >= 1.0 - 1e-10


def test_pointer_variance_tracks_beta():
    for beta, cutoff in ((0.5, 64), (4.0, 64), (16.0, 128)):
        x = fock_position(cutoff)
        pointer = prepare_gaussian_pointer(beta, cutoff)
        var = pointer.expectation(x @ x) - pointer.expectation(x) ** 2
        assert abs(var - 1.0 / (2 * beta)) <= 0.02 * (1.0 / (2 * beta))


def test_pointer_wavefunction_shape():
    # node amplitudes divided by the discrete measure follow e^{-beta x^2/2}
    beta, cutoff = 4.0, 64
    basis = Generators(new_register([qumode(cutoff)])).quadrature(cutoff)
    pointer = prepare_gaussian_pointer(beta, cutoff)
    node_coeff = basis.vectors.conj().T @ pointer.amplitudes
    phi0 = np.pi**-0.25 * np.exp(-basis.nodes**2 / 2)
    weights = (basis.vectors[0, :].real / phi0) ** 2
    psi_vals = (node_coeff / np.sqrt(weights)).real
    sel = np.abs(basis.nodes) <= 1.5
    ratio = psi_vals[sel] / np.exp(-beta * basis.nodes[sel] ** 2 / 2)
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-6


def test_pointer_rejects_unreachable_squeezing():
    with pytest.raises(SpectralError):
        prepare_gaussian_pointer(1e6, 64)
    with pytest.raises(SpectralError):
        prepare_gaussian_pointer(-1.0, 64)


def test_pointer_spec_validation():
    with pytest.raises(SpectralError):
        PointerSpec(beta=0.0, cutoff=64, t_couple=1.0)
    with pytest.raises(SpectralError):
        PointerSpec(beta=1.0, cutoff=1, t_couple=1.0)
    spec = PointerSpec(beta=4.0, cutoff=64, t_couple=5.0)
    assert abs(spec.resolution - 0.1) <= 1e-15


def test_couple_zero_operator_leaves_pointer_unshifted():
    # terms are individually nonzero but build to the zero operator
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    h = parse_expr("sz@0 - sz@0")
    pointer = prepare_gaussian_pointer(4.0, 64)
    joint = couple_pointer(psi, h, pointer, 5.0)
    expected = np.kron(psi.amplitudes, pointer.amplitudes)
    assert abs(abs(np.vdot(expected, joint.amplitudes)) ** 2 - 1.0) <= 1e-12


def test_couple_shifts_pointer_by_eigenvalue_times_time():
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])  # sz eigenvalue +1
    joint = couple_pointer(psi, parse_expr("sz@0"), prepare_gaussian_pointer(4.0, 128), 3.0)
    x_op = build(parse_expr("X@1"), joint.layout)
    assert abs(joint.expectation(x_op) - 3.0) <= 0.02 * 3.0


def test_couple_creates_equal_branches():
    joint = couple_pointer(
        two_qubit_uniform(), parse_expr("sz@0*sz@1"), prepare_gaussian_pointer(4.0, 128), 5.0
    )
    amps, basis = _node_amplitudes(joint.layout, joint.amplitudes, 2)
    probs = np.sum(np.abs(amps) ** 2, axis=0)
    assert abs(probs[basis.nodes > 0].sum() - 0.5) <= 1e-10
    assert abs(probs[basis.nodes < 0].sum() - 0.5) <= 1e-10


def test_couple_rejects_hamiltonian_on_pointer():
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    with pytest.raises(SpectralError):
        couple_pointer(psi, parse_expr("sz@1"), prepare_gaussian_pointer(1.0, 16), 1.0)
    with pytest.raises(SpectralError):
        couple_pointer(psi, parse_expr("sz@0"), prepare_gaussian_pointer(1.0, 16), -1.0)


def test_measure_position_on_node_state_is_deterministic():
    layout = new_register([qumode(32)])
    basis = Generators(new_register([qumode(32)])).quadrature(32)
    k = 13
    state = StateVector(layout, basis.vectors[:, k])
    for seed in range(5):
        x, collapsed = measure_position(state, 0, np.random.default_rng(seed))
        assert x == basis.nodes[k]
        assert collapsed.fidelity(state) >= 1.0 - 1e-12


def test_measure_position_vacuum_statistics():
    pointer = prepare_gaussian_pointer(1.0, 64)
    rng = np.random.default_rng(17)
    table = evolution.Generators(pointer.layout)
    xs = [measure_position(pointer, 0, rng, table)[0] for _ in range(10000)]
    assert abs(np.var(xs) - 0.5) <= 0.05 * 0.5


def test_measure_position_collapses_system_to_eigenvector():
    layout = new_register([qubit()])
    plus = StateVector(layout, np.array([1, 1], dtype=complex) / np.sqrt(2))
    joint = couple_pointer(plus, parse_expr("sz@0"), prepare_gaussian_pointer(4.0, 128), 5.0)
    for seed in range(6):
        x, collapsed = measure_position(joint, 1, np.random.default_rng(seed))
        amps, _ = _node_amplitudes(collapsed.layout, collapsed.amplitudes, 1)
        k = int(np.argmax(np.sum(np.abs(amps) ** 2, axis=0)))
        v = amps[:, k] / np.linalg.norm(amps[:, k])
        target = np.array([1, 0]) if x > 0 else np.array([0, 1])
        assert abs(np.vdot(target, v)) ** 2 >= 0.99
        assert abs(collapsed.norm - 1.0) <= 1e-12


def test_binned_measurement_keeps_outcome_statistics():
    pointer = prepare_gaussian_pointer(4.0, 64)
    rng = np.random.default_rng(23)
    table = evolution.Generators(pointer.layout)
    xs = [measure_position_binned(pointer, 0, rng, 0.35, table)[0] for _ in range(4000)]
    assert abs(np.mean(xs)) <= 0.03
    assert abs(np.var(xs) - 0.125) <= 0.15 * 0.125


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_binned_measurement_rejects_a_width_that_is_not_a_finite_resolution(width):
    # NaN would split every node into its own bin, and inf would bin the whole axis as one
    with pytest.raises(SpectralError, match="bin_width"):
        measure_position_binned(prepare_gaussian_pointer(1.0, 16), 0, np.random.default_rng(1), width)


def test_estimate_spectrum_single_peak():
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    est = estimate_spectrum(parse_expr("sz@0"), psi, spec, 500, seed=3)
    assert len(est.peaks) == 1
    assert abs(est.peaks[0].eigenvalue - 1.0) <= est.resolution
    assert est.valid


def test_estimate_spectrum_two_branches_and_rows():
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    est = estimate_spectrum(parse_expr("sz@0*sz@1"), two_qubit_uniform(), spec, 2000, seed=7)
    assert len(est.peaks) == 2
    assert abs(est.peaks[0].eigenvalue + 1.0) <= 0.1
    assert abs(est.peaks[-1].eigenvalue - 1.0) <= 0.1
    for peak in est.peaks:
        assert abs(peak.weight - 0.5) <= 0.05
    assert len(est.samples) == 2000 and est.samples[5] == est.nodes[est.shot_nodes[5]]


def test_pointer_shift_is_linear_in_coefficient():
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    for c in (-2.0, -1.0, 0.5, 1.0):
        est = estimate_spectrum(parse_expr(f"{c}*sz@0"), psi, spec, 600, seed=31)
        assert len(est.peaks) == 1
        assert abs(est.peaks[0].eigenvalue - c) <= est.resolution


def test_cluster_weights_match_spectral_decomposition():
    # |psi> = cos(theta)|0> + sin(theta)|1> under sz: weights cos^2, sin^2
    theta = 0.6
    layout = new_register([qubit()])
    psi = StateVector(layout, np.array([np.cos(theta), np.sin(theta)], dtype=complex))
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    n_shots = 2000
    est = estimate_spectrum(parse_expr("sz@0"), psi, spec, n_shots, seed=19)
    expect = {1.0: np.cos(theta) ** 2, -1.0: np.sin(theta) ** 2}
    assert len(est.peaks) == 2
    for peak in est.peaks:
        w = expect[round(peak.eigenvalue)]
        assert abs(peak.weight - w) <= 3 * np.sqrt(w * (1 - w) / n_shots)


def test_measurement_support_is_on_the_sampled_node():
    pointer = prepare_gaussian_pointer(1.0, 32)
    basis = Generators(new_register([qumode(32)])).quadrature(32)
    x, collapsed = measure_position(pointer, 0, np.random.default_rng(2))
    node_coeff = basis.vectors.conj().T @ collapsed.amplitudes
    k = int(np.argmin(np.abs(basis.nodes - x)))
    off_node = np.delete(np.abs(node_coeff), k)
    assert np.max(off_node) <= 1e-12
    assert abs(collapsed.norm - 1.0) <= 1e-12


def test_estimate_spectrum_deterministic_per_seed():
    spec = PointerSpec(beta=4.0, cutoff=64, t_couple=2.0)
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    a = estimate_spectrum(parse_expr("sx@0"), psi, spec, 200, seed=5)
    b = estimate_spectrum(parse_expr("sx@0"), psi, spec, 200, seed=5)
    assert a.samples == b.samples
    c = estimate_spectrum(parse_expr("sx@0"), psi, spec, 200, seed=6)
    assert a.samples != c.samples


def test_estimate_spectrum_trotter_matches_exact():
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    h = parse_expr("sz@0+sx@0")
    exact = estimate_spectrum(h, psi, spec, 1000, seed=21, method="exact")
    trot = estimate_spectrum(h, psi, spec, 1000, seed=21, method="trotter", trotter_steps=64)
    for pe, pt in zip(exact.peaks, trot.peaks):
        assert abs(pe.eigenvalue - pt.eigenvalue) <= spec.resolution


def test_estimate_flags_out_of_range_shift():
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    spec = PointerSpec(beta=1.0, cutoff=16, t_couple=8.0)
    est = estimate_spectrum(parse_expr("sz@0"), psi, spec, 100, seed=3)
    assert not est.valid
    assert est.notes
    assert reliable_shift(16) < 8.0


def test_a_small_branch_beyond_the_reliable_range_invalidates_a_run_with_little_leakage():
    layout = new_register([qubit()])
    psi = StateVector(layout, np.array([np.sqrt(4e-4), np.sqrt(1.0 - 4e-4)]))
    spec = PointerSpec(beta=4.0, cutoff=32, t_couple=7.5)  # the eigenvalue-1 branch shifts x by 7.5
    est = estimate_spectrum(parse_expr("0.5*id@0 + 0.5*sz@0"), psi, spec, 20000, seed=3)
    assert abs(est.leakage - 3.8e-4) <= 1e-5 and est.leakage < LEAKAGE_INVALID
    assert est.notes == ("peak beyond the reliable quadrature range |x| <= 7.00; "
                         "reduce t_couple or enlarge the pointer cutoff",)
    assert not est.valid


def test_robustness_single_branch_preserves_position():
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    rep = robustness_midmeasure(parse_expr("sz@0"), psi, spec, 800, seed=5)
    main = max(rep.peaks, key=lambda p: p.weight)
    base = max(rep.baseline.peaks, key=lambda p: p.weight)
    assert abs(main.eigenvalue - base.eigenvalue) <= spec.resolution
    assert abs(main.eigenvalue - 1.0) <= spec.resolution


def test_robustness_diagonalizes_the_coupling_once(monkeypatch):
    # baseline, first half and every branch's second half share one table
    layout = new_register([qubit()])
    psi = StateVector(layout, np.array([1, 1], dtype=complex) / np.sqrt(2))
    spec = PointerSpec(beta=4.0, cutoff=64, t_couple=3.0)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or eigh(h))
    rep = robustness_midmeasure(parse_expr("sz@0"), psi, spec, 200, seed=4)
    assert len(rep.samples) == 200
    # X once for both the pointer basis and the coupling's P factor, nothing at 2 * 64; sz is diagonal, so its
    # energies need no eigh
    assert [h.shape[-1] for h in calls] == [64]
    assert np.array_equal(calls[0], fock_position(64))


@pytest.mark.parametrize("cutoff", [12, 64, 128])
def test_the_tables_momentum_factor_rebuilds_the_truncated_p(cutoff):
    # P = F X F^dagger with F = diag(i^n): its factor is X's quadrature nodes and F times X's eigenvectors
    table = evolution.Generators(new_register([qumode(cutoff)]))
    factored = table.decomposition(evolution.Pulse("P@0", 1.0))
    ((axes, v),) = factored.groups
    assert axes == (0,) and np.array_equal(factored.energies, table.quadrature(cutoff)[0])
    assert np.max(np.abs((v * factored.energies) @ v.conj().T - fock_momentum(cutoff))) <= 1e-12


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_a_spectrum_run_makes_one_pointer_level_eigh(monkeypatch, method):
    # the pointer basis and the coupling's P factor both read the run's one quadrature
    dims = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: dims.append(m.shape[-1]) or eigh(m))
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=2.0)
    est = estimate_spectrum(parse_expr("1.1*sz@0*sz@1 + 0.5*sx@0*sx@1"), two_qubit_uniform(), spec, 200, 1, method)
    assert dims.count(128) == 1 and len(est.samples) == 200


def test_branch_fidelities_equal_the_projector_formula_on_a_degenerate_spectrum(monkeypatch):
    # sz@0*sz@1 has two doubly degenerate eigenspaces, whose projectors are (1 -+ ZZ)/2
    h = parse_expr("sz@0*sz@1")
    zz = build(h, two_qubit_uniform().layout)
    energies = evolution.Generators(two_qubit_uniform().layout).decomposition(evolution.Pulse(h, 1.0)).energies
    assert sorted(energies.flat) == [-1, -1, 1, 1]
    vectors = []
    system_vector = spectral._system_vector
    monkeypatch.setattr(spectral, "_system_vector", lambda *a: vectors.append(v := system_vector(*a)) or v)
    rep = robustness_midmeasure(h, two_qubit_uniform(), PointerSpec(beta=1.0, cutoff=32, t_couple=1.0), 300, 2)
    assert len(vectors) == 2 * len(rep.branches) > 0
    for branch, v1, v2 in zip(rep.branches, vectors[::2], vectors[1::2]):
        projector = (np.eye(4) + (1.0 if branch.eigenvalue > 0 else -1.0) * zz) / 2
        assert abs(branch.fidelity_before - np.vdot(v1, projector @ v1).real) <= 1e-12
        assert abs(branch.fidelity_after - np.vdot(v2, projector @ v2).real) <= 1e-12


def test_branch_fidelities_of_a_diagonal_system_equal_the_projector_formula(monkeypatch):
    # three keys, so H is a remaining group, and a diagonal one: no eigenvectors to read its branches in
    h, layout = parse_expr("0.8*sz@0 + 0.5*sz@1 + 0.3*sz@0*sz@1"), new_register([qubit(), qubit(), qumode(128)])
    factored = evolution.Generators(layout).factor(weyl_symbol(h, layout))
    assert factored.groups == () and factored.energies.shape == (2, 2, 1)
    energies = build(h, two_qubit_uniform().layout).diagonal().real  # 1.6, 0, -0.6, -1
    vectors = []
    system_vector = spectral._system_vector
    monkeypatch.setattr(spectral, "_system_vector", lambda *a: vectors.append(v := system_vector(*a)) or v)
    rep = robustness_midmeasure(h, two_qubit_uniform(), PointerSpec(beta=4.0, cutoff=128, t_couple=5.0), 1000, 2)
    assert len(vectors) == 2 * len(rep.branches) > 0
    for branch, v1, v2 in zip(rep.branches, vectors[::2], vectors[1::2]):
        nearest = energies[np.argmin(np.abs(energies - branch.eigenvalue))]
        projector = np.diag((np.abs(energies - nearest) <= 1e-9).astype(float))
        assert abs(branch.fidelity_before - np.vdot(v1, projector @ v1).real) <= 1e-12
        assert abs(branch.fidelity_after - np.vdot(v2, projector @ v2).real) <= 1e-12


@pytest.mark.parametrize("method, sizes", [("exact", [64, 4]), ("trotter", [64, 2, 4])])
def test_robustness_reads_the_system_eigenbasis_from_the_run_table(monkeypatch, method, sizes):
    # exact: the coupling's remaining group is H's, so H is diagonalized once; Trotter: the sx factor, then H
    dims = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: dims.append(m.shape[-1]) or eigh(m))
    spec = PointerSpec(beta=4.0, cutoff=64, t_couple=3.0)
    rep = robustness_midmeasure(parse_expr("1.1*sz@0*sz@1 + 0.5*sx@0*sx@1"), two_qubit_uniform(), spec, 200, 4,
                                method, 16)
    assert dims == sizes and rep.branches


def test_the_coupling_and_its_system_share_the_remaining_groups_eigenvectors():
    h = parse_expr("1.1*sz@0*sz@1 + 0.5*sx@0*sx@1")
    layout = new_register([qubit(), qubit(), qumode(16)])
    table = evolution.Generators(layout)
    coupling = table.decomposition(spectral._coupling_sequence(h, 2, 1.0, "exact", 1).pulses[0])
    ((system_axes, system_v),) = table.factor(weyl_symbol(h, layout)).groups
    assert system_axes == (0, 1) and dict(coupling.groups)[(0, 1)] is system_v


@pytest.mark.parametrize("text, degeneracy", [
    ("0.7*sz@0*sx@1 + 0.4*sz@0*sz@1", 4),  # sz@0 is a common factor, qubit 2 untouched: +-sqrt(0.65)
    ("0.7*sz@0*sy@2 + 0.4*sx@0*sz@2", 2),  # one complex group on axes 0 and 2 around untouched qubit 1: +-1.1, +-0.3
])
def test_branch_fidelities_equal_the_dense_projector_of_the_nearest_eigenspace(monkeypatch, text, degeneracy):
    layout = new_register([qubit()] * 3)
    h = parse_expr(text)
    rng = np.random.default_rng(4)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    vectors = []
    system_vector = spectral._system_vector
    monkeypatch.setattr(spectral, "_system_vector", lambda *a: vectors.append(v := system_vector(*a)) or v)
    rep = robustness_midmeasure(h, StateVector(layout, amps / np.linalg.norm(amps)),
                                PointerSpec(beta=4.0, cutoff=128, t_couple=5.0), 2000, 2)
    energies, eigenvectors = np.linalg.eigh(build(h, layout))
    assert len(vectors) == 2 * len(rep.branches) > 0
    for branch, v1, v2 in zip(rep.branches, vectors[::2], vectors[1::2]):
        nearest = energies[np.argmin(np.abs(energies - branch.eigenvalue))]
        space = eigenvectors[:, np.abs(energies - nearest) <= 1e-9]
        projector = space @ space.conj().T
        assert space.shape[1] == degeneracy
        assert abs(branch.fidelity_before - np.vdot(v1, projector @ v1).real) <= 1e-12
        assert abs(branch.fidelity_after - np.vdot(v2, projector @ v2).real) <= 1e-12


def test_exact_spectrum_of_five_qubits_never_diagonalizes_the_joint_space(monkeypatch):
    # D = 32 * 128 = 4096: H (x) P is diagonalized as H on the 32-dim system
    # and P on the 128-level pointer
    layout = new_register([qubit()] * 5)
    h = parse_expr(
        "sz@0*sz@1 + sz@1*sz@2 + sz@2*sz@3 + sz@3*sz@4"
        " + 0.5*sx@0 + 0.5*sx@1 + 0.5*sx@2 + 0.5*sx@3 + 0.5*sx@4"
    )
    energies, vectors = np.linalg.eigh(build(h, layout))
    picked = [0, 16, 31]  # the ends of the spectrum and its middle, 4.3 apart
    psi = StateVector(layout, vectors[:, picked].sum(axis=1) / np.sqrt(3.0))
    dims = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: dims.append(m.shape[-1]) or eigh(m))
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=2.0)
    est = estimate_spectrum(h, psi, spec, 2000, seed=3)
    assert 32 in dims and max(dims) <= 128
    assert est.valid
    assert len(est.peaks) == 3
    for peak, energy in zip(est.peaks, energies[picked]):
        assert abs(peak.eigenvalue - energy) <= spec.resolution
        assert abs(peak.weight - 1.0 / 3.0) <= 0.05


def test_a_trotter_pointer_coupling_rotates_the_pointer_axis_twice(monkeypatch):
    # 64 rounds of two pulses that share P on the pointer: into P's eigenbasis once, back once
    pointer_axes = []
    on_axes = evolution._on_axes
    monkeypatch.setattr(evolution, "_on_axes", lambda m, axes, dims, amps: pointer_axes.append(2 in axes)
                        or on_axes(m, axes, dims, amps))
    h = parse_expr("1.1*sz@0*sz@1 + 0.5*sx@0*sx@1")
    joint = couple_pointer(two_qubit_uniform(), h, prepare_gaussian_pointer(4.0, 32), 1.0, "trotter", 64)
    assert sum(pointer_axes) == 2
    exact = couple_pointer(two_qubit_uniform(), h, prepare_gaussian_pointer(4.0, 32), 1.0)
    assert joint.fidelity(exact) >= 1.0 - 1e-12  # the two terms commute


@pytest.mark.parametrize("method", ["exact", "trotter"])
def test_the_robustness_block_equals_per_bin_runs(monkeypatch, method):
    h, psi, seed = parse_expr("0.9*sz@0*sz@1 + 0.6*sx@0*sx@1"), two_qubit_uniform(), 3
    spec = PointerSpec(beta=4.0, cutoff=64, t_couple=3.0)
    blocks = []
    propagate = spectral._propagate
    monkeypatch.setattr(spectral, "_propagate", lambda *a: blocks.append(out := propagate(*a)) or out)
    rep = robustness_midmeasure(h, psi, spec, 500, seed, method, 16)
    (block,) = blocks
    # the reference: each occupied bin's projection, formed densely, run on its own
    joint = couple_pointer(psi, h, prepare_gaussian_pointer(4.0, 64), 1.5, method, 16)
    node_amps, basis = _node_amplitudes(joint.layout, joint.amplitudes, 2)
    members, bin_probs = spectral._position_bins(node_amps, basis.nodes, 1.0 / np.sqrt(8.0))
    rng = spectral._stream(seed, 1)
    shot_bins = rng.choice(len(members), size=500, p=bin_probs)
    occupied = np.flatnonzero(np.bincount(shot_bins))
    assert block.shape == (4 * 64, len(occupied)) and len(occupied) > 1
    second_half = spectral._coupling_sequence(h, 2, 1.5, method, 16)
    samples = np.empty(500)
    for j, i in enumerate(occupied):
        nodes = basis.vectors[:, members[i]]
        kept = np.kron(np.eye(4), nodes @ nodes.T) @ joint.amplitudes
        after = run_sequence(second_half, StateVector(joint.layout, kept / np.linalg.norm(kept)))
        assert np.max(np.abs(block[:, j] - after.amplitudes)) <= 1e-12
        probs = np.sum(np.abs(_node_amplitudes(after.layout, after.amplitudes, 2)[0]) ** 2, axis=0)
        in_bin = shot_bins == i
        samples[in_bin] = basis.nodes[rng.choice(64, size=int(in_bin.sum()), p=probs / probs.sum())]
    assert rep.samples == tuple(samples.tolist())


def test_robustness_identity_hamiltonian_mean_and_width():
    # single eigenvalue: the mid-run projection must not move the
    # distribution; the truncated binned collapse may widen it slightly
    layout = new_register([qubit()])
    psi = basis_state(layout, [0])
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    rep = robustness_midmeasure(parse_expr("0.7*id@0"), psi, spec, 1500, seed=9)
    assert abs(np.mean(rep.samples) - np.mean(rep.baseline.samples)) <= spec.resolution
    assert np.std(rep.samples) <= 1.5 * np.std(rep.baseline.samples)


def test_robustness_two_branches_persist():
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    rep = robustness_midmeasure(
        parse_expr("sz@0*sz@1"), two_qubit_uniform(), spec, 2000, seed=7
    )
    major = [b for b in rep.branches
             if any(p.weight >= 0.2 and abs(p.eigenvalue - b.eigenvalue) < 1e-12 for p in rep.peaks)]
    assert len(major) == 2
    for branch in major:
        assert branch.shift <= spec.resolution
        assert branch.fidelity_before >= 0.99
        assert branch.fidelity_after >= 0.99


def test_each_shot_stream_is_one_generator(monkeypatch):
    # one generator for the spectrum, one more for the robustness mid-run, whatever n_shots is
    layout = new_register([qubit()])
    psi = StateVector(layout, np.array([1, 1], dtype=complex) / np.sqrt(2))
    spec = PointerSpec(beta=4.0, cutoff=64, t_couple=3.0)
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or default_rng(*a))
    estimate_spectrum(parse_expr("sz@0"), psi, spec, 3000, seed=4)
    assert len(calls) == 1
    calls.clear()
    robustness_midmeasure(parse_expr("sz@0"), psi, spec, 3000, seed=4)
    assert len(calls) == 2


def test_spectrum_shots_are_a_prefix_of_a_longer_run():
    spec = PointerSpec(beta=4.0, cutoff=64, t_couple=2.0)
    h = parse_expr("sz@0*sz@1 + 0.5*sx@0")
    short = estimate_spectrum(h, two_qubit_uniform(), spec, 1000, seed=12)
    long = estimate_spectrum(h, two_qubit_uniform(), spec, 2000, seed=12)
    assert short.samples == long.samples[:1000]


def test_robustness_deterministic_per_seed():
    spec = PointerSpec(beta=4.0, cutoff=128, t_couple=5.0)
    h = parse_expr("sz@0*sz@1")
    a = robustness_midmeasure(h, two_qubit_uniform(), spec, 1000, seed=8)
    b = robustness_midmeasure(h, two_qubit_uniform(), spec, 1000, seed=8)
    assert a.samples == b.samples
    assert a.peaks == b.peaks
    assert a.branches == b.branches


def test_robustness_run_does_not_import_numpy_ma(tmp_path):
    # the first np.unique in a process imports numpy.ma, about 10 ms of every CLI run
    config = {"layout": ["qubit"], "hamiltonian": "0.8*sz@0 + 0.6*sx@0", "beta": 4.0, "t_couple": 5.0,
              "pointer_cutoff": 64, "n_shots": 200}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = ("import sys\nfrom hybridsim import cli\n"
            f"rc = cli.main(['robustness', '--config', {str(tmp_path / 'config.json')!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "print(rc, 'numpy.ma' in sys.modules)")
    src = str(Path(hybridsim.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert run.stdout.split()[-2:] == ["0", "False"]


_ONE_QUBIT = new_register([qubit()])


@pytest.mark.parametrize(("call", "fragment"), [
    pytest.param(lambda: PointerSpec(beta=1.0, cutoff=8, t_couple=0.0), "t_couple must be positive, got 0.0",
                 id="t-couple"),
    pytest.param(lambda: couple_pointer(basis_state(_ONE_QUBIT, [0]), parse_expr("sz@0"),
                                        prepare_gaussian_pointer(1.0, 8), 1.0, method="euler"),
                 "method must be 'exact' or 'trotter', got 'euler'", id="method"),
    pytest.param(lambda: couple_pointer(basis_state(_ONE_QUBIT, [0]), parse_expr("sz@0"),
                                        basis_state(_ONE_QUBIT, [0]), 1.0),
                 "pointer must be a single qumode state", id="pointer"),
    pytest.param(lambda: measure_position(basis_state(_ONE_QUBIT, [0]), 0, np.random.default_rng(0)),
                 "subsystem 0 is not a qumode", id="nodes-on-qubit"),
    pytest.param(lambda: estimate_spectrum(parse_expr("sz@0"), basis_state(_ONE_QUBIT, [0]),
                                           PointerSpec(beta=1.0, cutoff=8, t_couple=1.0), 0, 0),
                 "n_shots must be >= 1, got 0", id="n-shots"),
])
def test_each_spectral_check_raises_naming_its_fault(call, fragment):
    with pytest.raises(SpectralError, match=re.escape(fragment)):
        call()
