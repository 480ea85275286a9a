import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsim.evolution import (LEAKAGE_INVALID, Generators, Pulse, PulseSequence, expm_unitary, leakage, run_sequence,
                                 sequence_unitary, trotter)
from hybridsim.hilbert import (
    StateVector,
    basis_state,
    compress_to_interior,
    interior_levels,
    interior_mask,
    new_register,
    qubit,
    qumode,
    reduced_density,
)
from hybridsim.operators import OperatorError, build, fock_annihilate, generator_id, parse_expr, primitive_set, term
from hybridsim import cli, evolution, operators, synthesis
from hybridsim.synthesis import (
    NEW_DIRECTION_TOL,
    RULE_RESIDUAL_TOL,
    DerivationError,
    SynthesisError,
    SynthesisRegistry,
    close_algebra,
    closure_to_json,
    derive_rule,
    group_commutator,
    measure_plan_error,
    oscillator_drive,
    plan_to_json,
    power_distances,
    reset_spin,
    standard_registry,
    synthesize,
)


@pytest.fixture(scope="module")
def spin_mode_registry():
    return standard_registry(new_register([qubit(), qumode(16)]))


@pytest.fixture(scope="module")
def two_spin_registry():
    return standard_registry(new_register([qubit(), qubit(), qumode(16)]))


SZX = "1.0*sz@0*X@1"
SXX = "1.0*sx@0*X@1"
SZP = "1.0*sz@0*P@1"


def test_block_small_step_stays_near_identity(spin_mode_registry):
    reg = spin_mode_registry
    s = 1e-3
    u = sequence_unitary(group_commutator(SZX, SXX, s, reg), reg.layout, reg.generators)
    a, b = build(reg.record(SZX).expr, reg.layout), build(reg.record(SXX).expr, reg.layout)
    bound = 2 * s * (np.linalg.norm(a, 2) + np.linalg.norm(b, 2))
    assert np.linalg.norm(u - np.eye(reg.layout.total_dim), 2) <= bound


def test_block_of_commuting_pair_is_identity(two_spin_registry):
    reg = two_spin_registry
    a = reg.register(parse_expr("sz@0"), drivable=True)
    b = reg.register(parse_expr("sz@1"), drivable=True)
    u = sequence_unitary(group_commutator(a, b, 0.7, reg), reg.layout, reg.generators)
    assert np.linalg.norm(u - np.eye(reg.layout.total_dim), 2) <= 1e-10


def test_block_third_order_error_scaling():
    # the four-pulse product approaches exp(-i (i[A,B]) s^2) at third order
    reg = standard_registry(new_register([qubit(), qumode(12)]))
    layout = reg.layout
    a_id, b_id = "1.0*sz@0*X@1", "1.0*sx@0*X@1"
    a, b = (build(reg.record(g).expr, layout) for g in (a_id, b_id))
    k = 1j * (a @ b - b @ a)
    steps = [0.2, 0.1, 0.05, 0.025]
    errs = []
    for s in steps:
        u = sequence_unitary(group_commutator(a_id, b_id, s, reg), layout, reg.generators)
        errs.append(np.linalg.norm(compress_to_interior(u - expm_unitary(k, s * s), layout), 2))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert 2.7 <= slope <= 3.3


def test_block_is_exact_for_conjugate_quadrature_pair():
    # [szP, szX] commutes with both inputs away from the truncation corner,
    # so this block has no third-order error at all on the interior
    reg = standard_registry(new_register([qubit(), qumode(32)]))
    a, b = (build(reg.record(g).expr, reg.layout) for g in (SZP, SZX))
    k = 1j * (a @ b - b @ a)
    for s in (0.2, 0.1):
        u = sequence_unitary(group_commutator(SZP, SZX, s, reg), reg.layout, reg.generators)
        err = np.linalg.norm(compress_to_interior(u - expm_unitary(k, s * s), reg.layout), 2)
        assert err <= 1e-8


def test_derive_rule_examples(spin_mode_registry):
    reg = spin_mode_registry
    rule = reg.rule_for("1.0*sx@0")
    assert rule is not None and rule.residual <= 1e-8 and abs(rule.scale) > 0

    with pytest.raises(DerivationError):
        derive_rule(SZX, SZP, term(1.0, (0, "sx")), reg)


def test_derive_rule_rejects_a_candidate_with_a_residual(spin_mode_registry):
    # i[szP, szX] is the identity: it has a component along id + sx, and a residual as large
    with pytest.raises(DerivationError, match=r"rejected: residual 1\.000e\+00"):
        derive_rule(SZP, SZX, parse_expr("id@0 + sx@0"), spin_mode_registry)


def test_derive_rule_two_spin(two_spin_registry):
    rule = two_spin_registry.rule_for("1.0*sz@0*sz@1")
    assert rule is not None
    assert rule.residual <= 1e-8
    assert abs(rule.scale - 1.0) <= 1e-10


def test_derive_rule_rejects_zero_candidate(spin_mode_registry):
    with pytest.raises(SynthesisError):
        derive_rule(SZX, SXX, term(1e-30, (0, "sz")), spin_mode_registry)


def test_synthesize_sigma_y(spin_mode_registry):
    reg = spin_mode_registry
    plan = synthesize("sy@0", np.pi / 4, 256, reg)
    err = measure_plan_error(plan, reg)
    assert err <= plan.predicted_error
    u = sequence_unitary(plan.sequence, reg.layout, reg.generators)
    t = expm_unitary(build(parse_expr("sy@0"), reg.layout), np.pi / 4)
    d = reg.layout.total_dim
    fid = abs(np.trace(t.conj().T @ u) / d) ** 2
    assert fid >= 0.998

    fine = synthesize("sy@0", np.pi / 4, 512, reg)
    u = sequence_unitary(fine.sequence, reg.layout, reg.generators)
    assert abs(np.trace(t.conj().T @ u) / d) ** 2 >= 0.999


def test_synthesize_error_decreases_and_prediction_monotone(spin_mode_registry):
    reg = spin_mode_registry
    errs, preds = [], []
    for n in (4, 16, 64):
        plan = synthesize("sy@0", np.pi / 4, n, reg)
        errs.append(measure_plan_error(plan, reg))
        preds.append(plan.predicted_error)
    assert errs[0] > errs[1] > errs[2]
    assert preds[0] >= preds[1] >= preds[2]
    assert all(e <= p for e, p in zip(errs, preds))


def test_synthesize_negative_angle(spin_mode_registry):
    reg = spin_mode_registry
    plan = synthesize("sy@0", -np.pi / 5, 64, reg)
    assert measure_plan_error(plan, reg) <= 0.1


def test_plans_for_one_target_share_its_eigendecomposition(monkeypatch):
    layout = new_register([qubit(), qumode(8)])
    reg = standard_registry(layout)
    plans = [synthesize("sy@0", 0.6, 2, reg), synthesize("sy@0", -0.6, 8, reg)]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    counts, errors = [], []
    for plan in plans:
        before = len(calls)
        errors.append(measure_plan_error(plan, reg))
        counts.append(len(calls) - before)
    # the predictions left sx and sz in the table's local factors: the first call diagonalizes sy, the second nothing
    assert counts == [1, 0]
    monkeypatch.undo()
    for plan, err in zip(plans, errors):
        exact = expm_unitary(build(plan.target, layout), plan.angle)
        oracle = np.linalg.norm(sequence_unitary(plan.sequence, layout, reg.generators) - exact, 2)
        assert abs(err - oracle) <= 1e-12


def test_registry_pulses_diagonalize_only_subsystem_factors(monkeypatch):
    layout = new_register([qubit(), qumode(6), qumode(6)])
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape[0]) or eigh(h))
    reg = standard_registry(layout)
    plan = synthesize("sz@0*X@1*X@2", 0.3, 8, reg)
    err = measure_plan_error(plan, reg)
    monkeypatch.undo()
    # plan pulses and the exact target are factored per subsystem, never diagonalized at D = 72
    assert calls and max(calls) <= 6
    u = np.eye(layout.total_dim, dtype=complex)
    for p in plan.sequence.pulses * plan.sequence.repeats:
        u = expm_unitary(build(reg.record(p.generator_id).expr, reg.layout), p.sign * p.duration) @ u
    oracle = np.linalg.norm(u - expm_unitary(build(plan.target, layout), plan.angle), 2)
    assert abs(err - oracle) <= 1e-12


def test_synthesize_unreachable_target(spin_mode_registry):
    with pytest.raises(SynthesisError):
        synthesize("0.5*sx@0*P@1^2", 0.3, 8, spin_mode_registry)


def test_plan_pulses_are_registered_and_never_the_target(spin_mode_registry):
    reg = spin_mode_registry
    for target in ("sy@0", "1.0*sz@0*X@1^3"):
        plan = synthesize(target, 0.4, 8, reg)
        for pulse in plan.sequence.pulses:
            gid = pulse.generator_id
            assert reg.is_drivable(gid)
            assert gid != plan.target_id


def test_synthesize_mode_mode_coupling_via_shared_spin():
    layout = new_register([qubit(), qumode(12), qumode(12)])
    reg = standard_registry(layout)
    errs = []
    for n in (8, 64):
        plan = synthesize("X@1*X@2", 0.3, n, reg)
        assert plan.reset_spin_required == 0
        errs.append(measure_plan_error(plan, reg))
    assert errs[1] < errs[0]


def test_reset_spin_cases():
    layout = new_register([qubit(), qumode(4)])
    rng = np.random.default_rng(0)

    state = basis_state(layout, [0, 2])
    out = reset_spin(state, 0, rng)
    assert out.fidelity(state) >= 1.0 - 1e-12

    state = basis_state(layout, [1, 2])
    out = reset_spin(state, 0, rng)
    assert out.fidelity(basis_state(layout, [0, 2])) >= 1.0 - 1e-12

    # entangled case collapses the mode to the measured branch
    amps = np.zeros(8, dtype=complex)
    amps[0 * 4 + 1] = 1 / np.sqrt(2)  # |0>|1>
    amps[1 * 4 + 3] = 1 / np.sqrt(2)  # |1>|3>
    entangled = StateVector(layout, amps)
    seen = set()
    for seed in range(8):
        out = reset_spin(entangled, 0, np.random.default_rng(seed))
        probs = np.abs(out.amplitudes) ** 2
        branch = int(np.argmax(probs))
        seen.add(branch)
        assert abs(out.norm - 1.0) <= 1e-12
        assert probs[branch] >= 1.0 - 1e-12
        assert branch in (1, 3)  # spin reset to |0>, mode in the measured branch
        again = reset_spin(out, 0, np.random.default_rng(seed + 100))
        assert again.fidelity(out) >= 1.0 - 1e-12
    assert seen == {1, 3}


def test_oscillator_drive_matches_direct_exponential():
    layout = new_register([qubit(), qumode(32)])
    rng = np.random.default_rng(1)
    vac = basis_state(layout, [0, 0])

    assert oscillator_drive(vac, 1, "X", 0.0, 0, rng) is vac

    t = 0.8
    driven = oscillator_drive(vac, 1, "X", t, 0, rng, n_steps=64)
    direct = expm_unitary(build(parse_expr("X@1"), layout), t) @ vac.amplitudes
    assert abs(np.vdot(direct, driven.amplitudes)) ** 2 >= 0.999

    # a P drive displaces <X> by t inside the interior regime
    t = 2.0
    x_op = build(parse_expr("X@1"), layout)
    moved = oscillator_drive(vac, 1, "P", t, 0, rng, n_steps=64)
    assert abs(moved.expectation(x_op) - t) <= 0.02 * t

    with pytest.raises(SynthesisError):
        oscillator_drive(vac, 1, "Y", 1.0, 0, rng)


def test_closure_single_seed(spin_mode_registry):
    rep = close_algebra([SZX], max_new=10, degree_cap=3, registry=spin_mode_registry,
                        include_reset_effectives=False)
    assert len(rep.directions) == 1
    assert rep.depth_reached == 1


def test_closure_of_a_vanishing_seed_is_empty():
    reg = SynthesisRegistry(new_register([qubit(), qumode(8)]))
    rep = close_algebra([reg.register(parse_expr("X@1 - X@1"), drivable=True)],
                        max_new=5, degree_cap=3, registry=reg)
    assert rep.directions == ()
    assert rep.basis.shape == (0, 144)
    assert abs(rep.membership(parse_expr("sx@0")) - 1.0) <= 1e-15


def test_closure_reaches_the_derivation_chain(spin_mode_registry):
    reg = spin_mode_registry
    seeds = [g.generator_id for g in primitive_set(reg.layout, 0, 1).members]
    rep = close_algebra(seeds, max_new=60, degree_cap=4, registry=reg)
    for probe in ("sx@0", "sy@0", "sz@0", "id@0", "sy@0*X@1^2", "sz@0*X@1^3"):
        assert rep.membership(parse_expr(probe)) <= 1e-8, probe


def test_closure_momentum_chain(spin_mode_registry):
    reg = spin_mode_registry
    seeds = [g.generator_id for g in primitive_set(reg.layout, 0, 1).members]
    rep = close_algebra(seeds, max_new=250, degree_cap=5, registry=reg)
    assert rep.membership(parse_expr("sz@0*P@1^3")) <= 1e-8


def test_closure_without_reset_trick_cannot_reach_bare_paulis(spin_mode_registry):
    # the commutator algebra of {sxX, szX, szP} alone is graded: a bare
    # one-spin Pauli never appears; the repreparation resource is essential
    reg = spin_mode_registry
    seeds = [g.generator_id for g in primitive_set(reg.layout, 0, 1).members]
    rep = close_algebra(seeds, max_new=60, degree_cap=4, registry=reg,
                        include_reset_effectives=False)
    assert rep.membership(parse_expr("sx@0")) >= 0.9
    assert rep.membership(parse_expr("id@0")) <= 1e-8
    assert rep.membership(parse_expr("sy@0*X@1^2")) <= 1e-8


def test_closure_basis_is_orthonormal(spin_mode_registry):
    reg = spin_mode_registry
    seeds = [g.generator_id for g in primitive_set(reg.layout, 0, 1).members]
    rep = close_algebra(seeds, max_new=40, degree_cap=3, registry=reg)
    vecs = np.array([rep.basis[d.row] for d in rep.directions])
    gram = vecs.conj() @ vecs.T
    assert np.max(np.abs(gram - np.eye(len(vecs)))) <= 1e-8


def test_closure_membership_rejects_vanishing_query(spin_mode_registry):
    reg = spin_mode_registry
    seeds = [g.generator_id for g in primitive_set(reg.layout, 0, 1).members]
    rep = close_algebra(seeds, max_new=5, degree_cap=2, registry=reg)
    with pytest.raises(SynthesisError):
        rep.membership(np.zeros((reg.layout.total_dim, reg.layout.total_dim)))


def test_closure_membership_rejects_a_non_hermitian_query(spin_mode_registry):
    # the packed coordinates read only the upper triangle, so a non-Hermitian
    # query would otherwise get a residual of the wrong matrix
    reg = spin_mode_registry
    seeds = [g.generator_id for g in primitive_set(reg.layout, 0, 1).members]
    rep = close_algebra(seeds, max_new=5, degree_cap=2, registry=reg)
    with pytest.raises(SynthesisError, match="not Hermitian"):
        rep.membership(np.kron(np.eye(2), fock_annihilate(16)))


def _dense_reference_closure(mats, max_new, degree_cap, mask):
    """close_algebra's search in complex arithmetic: dense i[A, B], Gram-Schmidt on flattened interior blocks."""
    idx = np.ix_(mask, mask)
    full, degrees, sources, basis = [], [], [], []

    def residual(vec):
        for _ in range(2):
            for row in basis:
                vec = vec - np.vdot(row, vec) * row
        return vec, np.linalg.norm(vec)

    def try_add(mat, degree, source):
        comp = mat[idx].ravel()
        norm = np.linalg.norm(comp)
        if norm < 1e-12:
            return
        vec, resid = residual(comp / norm)
        if resid <= NEW_DIRECTION_TOL:
            return
        basis.append(vec / resid)
        full.append(mat / norm)
        degrees.append(degree)
        sources.append(source)

    for k, mat in enumerate(mats):
        try_add(mat, 1, k)
    n_seeds = len(degrees)
    for degree in range(2, degree_cap + 1):
        prev = [j for j, d in enumerate(degrees) if d == degree - 1]
        for i, j in [(i, j) for j in prev for i in range(len(degrees)) if degrees[i] < degree - 1 or i < j]:
            if len(degrees) - n_seeds >= max_new:
                break
            a, b = full[i], full[j]
            try_add(1j * (a @ b - b @ a), degree, f"i[{i},{j}]")

    def membership(query):
        comp = query[idx].ravel()
        return residual(comp / np.linalg.norm(comp))[1]

    return list(zip(degrees, sources)), membership


@pytest.mark.parametrize("max_new", [12, 40])  # stops inside degree 3 (residuals up to 0.64), or at degree 4
def test_closure_of_a_mixed_parity_seed_matches_the_complex_reference(max_new):
    layout = new_register([qubit(), qumode(8)])
    reg = SynthesisRegistry(layout)
    seeds = [reg.register(parse_expr(t), drivable=True)
             for t in ("0.8*sx@0*X@1 + 0.6*sy@0*X@1", "sz@0*P@1", "sz@0*X@1")]
    rep = close_algebra(seeds, max_new=max_new, degree_cap=4, registry=reg)
    mask = interior_mask(layout)
    order, membership = _dense_reference_closure([build(reg.record(g).expr, layout) for g in rep.seed_ids],
                                                 max_new, 4, mask)
    assert [(d.degree, d.source) for d in rep.directions] == [
        (degree, f"seed {rep.seed_ids[src]}" if degree == 1 else src) for degree, src in order]
    for probe in ("sx@0", "sy@0", "id@0", "sy@0*X@1^2", "sx@0*P@1 + sy@0*P@1", "X@1^2", "sz@0*X@1^3"):
        query = build(parse_expr(probe), layout)
        assert abs(rep.membership(query) - membership(query)) <= 1e-12, probe

    m = int(mask.sum())
    assert rep.basis.dtype == np.float64
    assert rep.basis.shape == (len(rep.directions), m * m)
    assert np.max(np.abs(rep.basis @ rep.basis.T - np.eye(len(rep.directions)))) <= 1e-12


def _bare_closure(specs, spins, max_new, degree_cap):
    """Closure of every listed spin's primitive set on the last mode, in a registry of the seeds only."""
    layout = new_register(specs)
    reg = SynthesisRegistry(layout)
    seeds = [reg.register(g.expr, drivable=True)
             for s in spins for g in primitive_set(layout, s, len(specs) - 1).members]
    return close_algebra(seeds, max_new=max_new, degree_cap=degree_cap, registry=reg)


# "degree:i,j" of each direction found beyond the seeds, in the order the
# closure accepted them when its Gram-Schmidt ran one basis vector at a time.
_CLOSURE_ORDER = {
    1: "2:0,1 2:0,2 2:1,2 2:2,3 2:0,4 3:0,5 3:1,5 3:2,5 3:4,5 3:0,6 3:2,6 3:4,6 3:5,6 3:5,8 3:6,8 3:5,9 3:6,9 "
       "3:8,9 4:0,10 4:5,10",
    2: "2:0,1 2:0,2 2:1,2 2:2,3 2:2,4 2:3,4 2:0,5 2:3,5 2:2,6 2:5,6 2:0,7 2:3,7 3:0,8 3:1,8 3:2,8 3:5,8 3:7,8 "
       "3:0,9 3:2,9 3:3,9 3:5,9 3:7,9 3:8,9 3:4,11 3:5,11 3:8,11 3:9,11 3:8,12 3:9,12 3:11,12 3:3,13 3:4,13 "
       "3:5,13 3:7,13 3:9,13 3:11,13 3:12,13 3:3,14 3:9,14 3:12,14",
}


@pytest.mark.parametrize("n_spins, max_new", [(1, 20), (2, 40)])
def test_closure_order_is_pinned(n_spins, max_new):
    rep = _bare_closure([qubit()] * n_spins + [qumode(8)], range(n_spins), max_new, 4)
    n_seeds = len(rep.seed_ids)
    assert n_seeds == 3 * n_spins + 2  # the primitives, then reset-effective X and P
    assert [(d.degree, d.source) for d in rep.directions[:n_seeds]] == [(1, f"seed {g}") for g in rep.seed_ids]
    found = [(int(d), f"i[{ij}]") for d, ij in (item.split(":") for item in _CLOSURE_ORDER[n_spins].split())]
    assert [(d.degree, d.source) for d in rep.directions[n_seeds:]] == found


def test_closure_basis_grows_with_the_directions_found():
    huge = _bare_closure([qubit(), qumode(6)], [0], 10**9, 3)
    capped = _bare_closure([qubit(), qumode(6)], [0], 1000, 3)
    assert [(d.degree, d.source) for d in huge.directions] == [(d.degree, d.source) for d in capped.directions]
    assert huge.basis.shape[0] == len(huge.directions)
    assert np.array_equal(huge.basis, capped.basis)


def _closure_without_resets(seed_texts, cutoff, degree_cap):
    reg = SynthesisRegistry(new_register([qubit(), qumode(cutoff)]))
    seeds = [reg.register(parse_expr(t), drivable=True) for t in seed_texts]
    return close_algebra(seeds, max_new=10**9, degree_cap=degree_cap, registry=reg, include_reset_effectives=False)


def test_closure_directions_do_not_depend_on_the_cutoff():
    # a closure of dense truncated products found 101, 100, 79 and 72 directions at degree 6
    found = {}
    for cutoff in (16, 24, 32, 48):
        rep = _closure_without_resets(("sx@0*X@1", "sz@0*P@1"), cutoff, 6)
        assert rep.directions_per_degree == {1: 2, 2: 1, 3: 2, 4: 6, 5: 20, 6: 74}, cutoff
        found[cutoff] = [(d.degree, d.source) for d in rep.directions]
    assert all(order == found[16] for order in found.values())


# Measured basis rows: at cutoff 8 the interaction set's even sector holds at
# most m²/2 = 72; at cutoff 10 the directions 55, 57 and 71 (sz x^11, sx x^11
# and x^10) lie in the span of lower powers of the truncated X.
@pytest.mark.parametrize("cutoff, rows, m2", [(8, 70, 144), (10, 99, 256)])
def test_closure_basis_keeps_only_directions_independent_on_the_interior(cutoff, rows, m2):
    rep = _closure_without_resets(("sx@0*X@1", "sz@0*X@1", "sz@0*P@1"), cutoff, 5)
    assert list(rep.directions_per_degree.values()) == [3, 3, 6, 19, 71]
    assert rep.basis.shape == (rows, m2)
    assert np.all(np.isfinite(rep.basis))
    assert np.max(np.abs(rep.basis @ rep.basis.T - np.eye(rows))) <= 1e-12
    without = [d for d in rep.directions if d.row is None]
    assert len(without) == len(rep.directions) - rows == len(rep.notes)
    assert rep.membership(parse_expr("sy@0*X@1^2")) <= 1e-8
    assert rep.membership(parse_expr("sx@0")) >= 0.9


@pytest.mark.parametrize("cutoff", [48, 64])
def test_closure_report_keeps_genuine_directions_of_a_large_interior(cutoff):
    # directions 50 (i[5,17]) and 91 (i[8,26]) are new in the exact algebra, with realized
    # interior residuals down to 2e-7; a dependent direction's residual is rounding, below 1e-13
    rep = _closure_without_resets(("sx@0*X@1", "sz@0*P@1"), cutoff, 6)
    assert len(rep.directions) == rep.basis.shape[0] == 105
    assert rep.notes == ()


def test_closure_report_and_membership_realize_only_the_interior(monkeypatch):
    layout = new_register([qubit(), qumode(12)])  # interior: 2 x 9 levels of 2 x 12
    reg = SynthesisRegistry(layout)
    seeds = [reg.register(g.expr, drivable=True) for g in primitive_set(layout, 0, 1).members]
    shapes = []
    realize = operators.realize

    def recording(*args):
        shapes.append((out := realize(*args)).shape)
        return out

    monkeypatch.setattr(operators, "realize", recording)
    monkeypatch.setattr(synthesis, "realize", recording)
    rep = close_algebra(seeds, max_new=40, degree_cap=4, registry=reg)
    assert rep.membership(parse_expr("sy@0*X@1^2")) <= 1e-8
    assert len(shapes) == len(rep.directions) + 1
    assert set(shapes) == {(18, 18)}


@st.composite
def _product_coordinate_cases(draw):
    """Two to four real symbols of one to three terms, each term a Pauli or a mixed x^a p^b (or
    nothing) per subsystem, on a layout of one to three subsystems."""
    dims = draw(st.sampled_from(((9,), (2, 11), (2, 2, 8), (2, 7, 6), (5, 2, 4))))
    symbols = []
    for _ in range(draw(st.integers(2, 4))):
        symbol = {}
        for _ in range(draw(st.integers(1, 3))):
            key = []
            for idx, dim in enumerate(dims):
                if dim == 2:
                    f = draw(st.sampled_from((None, "x", "y", "z")))
                else:
                    f = draw(st.sampled_from((None, (draw(st.integers(0, 3)), draw(st.integers(0, 3))))))
                if f is not None and f != (0, 0):
                    key.append((idx, f))
            symbol[tuple(key)] = draw(st.sampled_from((0.5, -1.0, 1.5, -2.25)))
        symbols.append(symbol)
    return dims, symbols


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=_product_coordinate_cases())
def test_product_coordinates_are_an_isometry_of_the_interior_blocks(case):
    dims, symbols = case
    layout = new_register([qubit() if d == 2 else qumode(d) for d in dims])
    levels = interior_levels(layout)
    local_bases, coords = operators.product_coordinates(symbols, layout, levels)
    packed = np.array([operators.packed(operators.realize(s, layout, levels)) for s in symbols])
    norms = np.linalg.norm(packed, axis=1)
    assert np.all(np.abs(coords @ coords.T - packed @ packed.T) <= 1e-12 * np.outer(norms, norms))

    # a report whose rows span the symbols: any combination of them is a member
    rows = np.linalg.qr(coords.T)[0].T
    rep = synthesis.ClosureReport(layout, (), (), local_bases, rows, 1)
    combined = {}
    for w, symbol in zip((1.0, -0.75, 0.5, 1.25), symbols):
        for key, c in symbol.items():
            combined[key] = combined.get(key, 0.0) + w * c
    assert rep.membership(operators.realize(combined, layout)) <= 1e-14


def test_closure_report_stays_inside_a_byte_budget_that_packed_rows_exceed():
    # interior 2 x 18 x 18 levels: m = 648, so one packed m² row is 3.4 MB and the 50
    # directions' rows alone would take 168 MB; the closure and three queries stay under 32 MB
    budget = 32e6
    layout = new_register([qubit(), qumode(24), qumode(24)])
    reg = SynthesisRegistry(layout)
    seeds = [reg.register(g.expr, drivable=True)
             for mode in (1, 2) for g in primitive_set(layout, 0, mode).members]
    tracemalloc.start()
    try:
        rep = close_algebra(seeds, max_new=40, degree_cap=4, registry=reg)
        residuals = [rep.membership(parse_expr(p)) for p in ("sy@0*X@1^2", "X@1*X@2", "sx@0")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.directions) == 50
    assert len(rep.directions) * (2 * 18 * 18) ** 2 * 8 > 5 * budget
    assert peak < budget
    assert "basis" not in rep.__dict__
    assert max(residuals) <= 1e-14


def test_a_closure_and_its_probes_form_each_sliced_factor_once(monkeypatch):
    calls = []
    local_factor = operators.local_factor
    monkeypatch.setattr(operators, "local_factor", lambda f, dim: calls.append((f, dim)) or local_factor(f, dim))
    rep = _bare_closure([qubit(), qumode(32)], [0], 60, 4)  # the lie-closure benchmark's first layout and size
    assert len(rep.directions) == 62
    for probe in ("sx@0", "sz@0", "sy@0", "id@0", "sy@0*X@1^2", "sz@0*X@1^3"):
        assert rep.membership(parse_expr(probe)) <= 1e-8
    assert len(calls) == len(rep.factors)
    assert sorted(calls, key=repr) == sorted(((f, dim) for f, dim, _ in rep.factors), key=repr)


def test_closures_own_their_factor_and_moyal_tables(monkeypatch):
    moyal_tables = []
    symbol_commutator = synthesis.symbol_commutator
    monkeypatch.setattr(synthesis, "symbol_commutator",
                        lambda a, b, *table: moyal_tables.append(table) or symbol_commutator(a, b, *table))
    first = _bare_closure([qubit(), qumode(8)], [0], 20, 4)
    calls = len(moyal_tables)
    second = _bare_closure([qubit(), qumode(8)], [0], 20, 4)
    assert first.factors.keys() == second.factors.keys() and first.factors is not second.factors
    assert not any(first.factors[k] is second.factors[k] for k in first.factors)
    assert all(len(t) == 1 and t[0] is moyal_tables[0][0] for t in moyal_tables[:calls])
    assert all(len(t) == 1 and t[0] is moyal_tables[calls][0] for t in moyal_tables[calls:])
    assert moyal_tables[0][0] is not moyal_tables[calls][0]


def test_closure_report_checks_its_product_coordinates_against_the_realized_block(monkeypatch):
    layout = new_register([qubit(), qumode(8)])
    reg = SynthesisRegistry(layout)
    seeds = [reg.register(g.expr, drivable=True) for g in primitive_set(layout, 0, 1).members]
    realize = operators.realize
    monkeypatch.setattr(synthesis, "realize", lambda *args: realize(*args) * (1.0 + 1e-11))
    with pytest.raises(SynthesisError, match="differs from its product coordinates"):
        close_algebra(seeds, max_new=5, degree_cap=2, registry=reg)


def _transpose_mixed_monomials(factors):
    return {k: v.T if isinstance(k[0], tuple) and all(k[0]) else v for k, v in factors.items()}


def _drop_position_factors(factors):
    return {k: np.eye(len(v)) if k[0] == (1, 0) else v for k, v in factors.items()}


@pytest.mark.parametrize("corrupt", [_transpose_mixed_monomials, _drop_position_factors])
def test_closure_report_catches_a_transposed_or_dropped_factor(monkeypatch, corrupt):
    layout = new_register([qubit(), qumode(8)])
    reg = SynthesisRegistry(layout)
    seeds = [reg.register(g.expr, drivable=True) for g in primitive_set(layout, 0, 1).members]
    realize = operators.realize
    monkeypatch.setattr(synthesis, "realize",
                        lambda symbol, layout, levels, factors: realize(symbol, layout, levels, corrupt(factors)))
    with pytest.raises(SynthesisError, match="differs from its product coordinates"):
        close_algebra(seeds, max_new=64, degree_cap=4, registry=reg)


def test_closure_stops_once_its_search_has_stopped():
    layout = new_register([qubit(), qumode(8)])
    reports = []
    for cap in (4, 10**9):
        reg = SynthesisRegistry(layout)
        seeds = [reg.register(g.expr, drivable=True) for g in primitive_set(layout, 0, 1).members]
        reports.append(close_algebra(seeds, max_new=20, degree_cap=cap, registry=reg))
    short, long = reports
    assert [(d.degree, d.source, d.row) for d in long.directions] == [(d.degree, d.source, d.row)
                                                                      for d in short.directions]
    assert np.array_equal(long.coordinates, short.coordinates)

    reg = SynthesisRegistry(layout)  # {sz·X, sz·P} saturates: a degree adds nothing
    seeds = [reg.register(parse_expr(text), drivable=True) for text in ("sz@0*X@1", "sz@0*P@1")]
    assert close_algebra(seeds, max_new=10**6, degree_cap=10**9, registry=reg).directions_per_degree == {1: 4, 2: 2}


@pytest.mark.parametrize("angle", [1e300, -1e300, float("inf"), float("nan")])
def test_synthesize_rejects_a_non_finite_prediction(spin_mode_registry, angle):
    with pytest.raises(SynthesisError, match="non-finite error"):
        synthesize("sy@0", angle, 4, spin_mode_registry)


def test_serialization_documents():
    reg = standard_registry(new_register([qubit(), qumode(8)]))
    plan = synthesize("sy@0", 0.5, 4, reg)
    doc = json.loads(plan_to_json(plan))
    assert doc["target"] == "1.0*sy@0"
    assert doc["n_blocks"] == 4
    assert doc["derivation"]["rule"]["scale"] != 0
    assert "inputs" in doc["derivation"]

    seeds = [g.generator_id for g in primitive_set(reg.layout, 0, 1).members]
    rep = close_algebra(seeds, max_new=10, degree_cap=2, registry=reg)
    cdoc = json.loads(closure_to_json(rep, probes={"1.0*id@0": rep.membership(parse_expr("id@0"))}))
    assert cdoc["n_directions"] == len(rep.directions)
    assert cdoc["probes"]["1.0*id@0"] <= 1e-8


def test_a_plan_past_the_index_range_serializes_its_pulse_count():
    # 4 * 2**61 pulses is past what len() can return; the plan holds its one block and is never run
    reg = standard_registry(new_register([qubit(), qumode(4)]))
    doc = json.loads(plan_to_json(synthesize("sy@0", 0.5, 2**61, reg)))
    assert (doc["n_blocks"], doc["n_pulses"]) == (2**61, 4 * 2**61)


def test_szsz_synthesis_disentangles_the_bus(two_spin_registry):
    reg = two_spin_registry
    plan = synthesize("sz@0*sz@1", np.pi / 4, 64, reg)
    plus = np.ones(4) / 2.0
    state = StateVector(reg.layout, np.kron(plus, np.eye(16)[0]).astype(complex))
    final = run_sequence(plan.sequence, state, reg.generators)
    assert leakage(final) <= LEAKAGE_INVALID
    assert reduced_density(final, [2]).purity() >= 0.99
    qubits = reduced_density(final, [0, 1])
    target = expm_unitary(
        build(parse_expr("sz@0*sz@1"), new_register([qubit(), qubit()])), np.pi / 4
    ) @ plus
    fid = float(np.real(target.conj() @ qubits.matrix @ target))
    assert fid >= 0.99


def _flat_plan_error(plan, reg):
    """Spectral-norm error of the plan's flat pulse list, on the spin-|0> block for a reset alias."""
    u = sequence_unitary(plan.sequence, reg.layout, reg.generators)
    u_target = sequence_unitary(plan.target_sequence, reg.layout, reg.generators)
    if plan.reset_spin_required is not None:
        assert plan.reset_spin_required == 0  # subsystem 0 is the slowest axis: |0> is the first half
        keep = slice(0, reg.layout.total_dim // 2)
        u, u_target = u[keep, keep], u_target[keep, keep]
    return float(np.linalg.norm(u - u_target, 2))


def test_plan_error_runs_one_block_and_the_target(two_spin_registry, monkeypatch):
    reg = two_spin_registry
    plan = synthesize("sz@0*sz@1", np.pi / 4, 256, reg)
    calls = []
    decomposition = Generators.decomposition
    monkeypatch.setattr(Generators, "decomposition", lambda self, p: calls.append(p) or decomposition(self, p))
    measure_plan_error(plan, reg)
    assert len(calls) <= 5  # the four block pulses and the target pulse, not 4 * 256 + 1


@pytest.mark.parametrize("n_blocks", [64, 256])
@pytest.mark.parametrize("dims, target", [
    ([qubit(), qubit(), qumode(16)], "sz@0*sz@1"),
    ([qubit(), qumode(6), qumode(6)], "X@1*X@2"),
])
def test_plan_error_matches_the_flat_sequence(dims, target, n_blocks):
    reg = standard_registry(new_register(dims))
    plan = synthesize(target, 0.6, n_blocks, reg)
    assert (plan.reset_spin_required is not None) == (target == "X@1*X@2")
    assert abs(measure_plan_error(plan, reg) - _flat_plan_error(plan, reg)) <= 1e-12


def _assert_probe_columns(final, exact, compiled, target):
    """The probe images are column 0 of the dense compiled and target unitaries within 1e-12."""
    assert np.abs(final.amplitudes - compiled[:, 0]).max() <= 1e-12
    assert np.abs(exact.amplitudes - target[:, 0]).max() <= 1e-12


@pytest.mark.parametrize("dims, target, angle, n_blocks", [
    ([qubit(), qumode(6), qumode(6)], "X@1*X@2", 0.35, 16),
    ([qubit(), qubit(), qumode(8)], "sz@0*sz@1", 0.3, 64),
    ([qubit(), qubit(), qumode(8)], "sy@0*X@2^2", -0.2, 16),
])
def test_plan_unitaries_are_the_sector_blocks_of_the_dense_pair(dims, target, angle, n_blocks):
    reg = standard_registry(new_register(dims))
    plan = synthesize(target, angle, n_blocks, reg)
    (error,), final, exact = power_distances([plan.sequence], plan.target_sequence, reg.layout,
                                             reg.generators, plan.reset_spin_required)
    assert abs(error - _flat_plan_error(plan, reg)) <= 1e-12
    block = sequence_unitary(PulseSequence(plan.sequence.pulses), reg.layout, reg.generators)
    _assert_probe_columns(final, exact, np.linalg.matrix_power(block, n_blocks),
                          sequence_unitary(plan.target_sequence, reg.layout, reg.generators))


def test_trotter_step_powers_are_the_sector_blocks_of_the_dense_power():
    layout = new_register([qubit(), qubit(), qumode(8)])
    h = parse_expr("0.9*sz@0*X@2 + 1.1*sx@0*X@2 + 0.5*sz@1*P@2")
    target = PulseSequence((Pulse(h, 0.5),))
    errors, final, exact = power_distances([trotter(h, 0.5, n) for n in (4, 16)], target, layout,
                                           Generators(layout))
    dense = sequence_unitary(target, layout)
    for n, error in zip((4, 16), errors):
        flat = sequence_unitary(trotter(h, 0.5, n), layout)
        assert abs(error - np.linalg.norm(flat - dense, 2)) <= 1e-12
    _assert_probe_columns(final, exact, flat, dense)


def _flat_distances(steps, target, layout, held_spin=None):
    """The dense flat reference: each step's pulses repeated n times as one dense unitary, its spectral-norm
    distance from the target's on the indices where ``held_spin`` is |0>, and the last flat unitary and the target."""
    keep = np.arange(layout.total_dim)
    if held_spin is not None:
        keep = keep[keep // int(np.prod(layout.dims[held_spin + 1:])) % 2 == 0]
    dense = sequence_unitary(target, layout)
    flats = [sequence_unitary(PulseSequence(step.pulses * step.repeats), layout) for step in steps]
    return [float(np.linalg.norm((u - dense)[np.ix_(keep, keep)], 2)) for u in flats], flats[-1], dense


def _assert_the_plan_matches_the_flat_plan(steps, target, layout, held_spin=None):
    """`power_distances`' errors and probe images are the dense flat plan's within 1e-12; returns the column
    count of each block it propagated."""
    widths, propagate = [], synthesis._propagate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_propagate", lambda *args: widths.append(args[-1].shape[1]) or propagate(*args))
        errors, final, exact = power_distances(steps, target, layout, Generators(layout), held_spin)
    flat_errors, flat, dense = _flat_distances(steps, target, layout, held_spin)
    assert np.abs(np.subtract(errors, flat_errors)).max() <= 1e-12
    _assert_probe_columns(final, exact, flat, dense)
    return widths


def _assert_the_node_field_matches_the_flat_plan(steps, target, layout, held_spin=None):
    pulses = [p for seq in (target, *steps) for p in seq.pulses * seq.repeats]
    touched = {i for p in pulses for key in operators.weyl_symbol(p.expr, layout) for i, _ in key}

    def parity_sectors(keys, sub):  # only the touched qubits' sectors: every mode is a node axis
        assert sub.subsystems == tuple(qubit() for i in sorted(touched) if layout.is_qubit(i))
        return operators.parity_sectors(keys, sub)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "parity_sectors", parity_sectors)
        _assert_the_plan_matches_the_flat_plan(steps, target, layout, held_spin)


@pytest.mark.parametrize("dims, target, angle", [
    ([qubit(), qumode(6), qumode(6)], "X@1*X@2", 0.35),  # x only, spin 0 held
    ([qumode(5), qubit(), qumode(6)], "X@0*X@2", -0.3),  # spin 1 held between the modes
    ([qubit(), qubit(), qumode(8)], "sy@0*X@2^2", -0.2),  # an X^2 factor; qubit 1 untouched
    ([qumode(8), qubit()], "sy@1*X@0^2", 0.3),  # [qumode, qubit] order
    ([qubit(), qumode(6), qumode(5)], "sy@0*X@1^2", 0.25),  # mode 2 untouched
    ([qubit(), qumode(6)], "sy@0", 0.4),  # spin only: one node
])
def test_a_single_quadrature_plan_matches_the_dense_flat_plan(dims, target, angle):
    reg = standard_registry(new_register(dims))
    plans = [synthesize(target, angle, n, reg) for n in (4, 16)]
    _assert_the_node_field_matches_the_flat_plan([p.sequence for p in plans], plans[-1].target_sequence,
                                                 reg.layout, plans[-1].reset_spin_required)


@pytest.mark.parametrize("dims, text", [
    ([qubit(), qumode(8)], "0.9*sz@0*P@1 + 1.1*sx@0*P@1 + 0.4*P@1^2"),  # p only
    ([qumode(7), qumode(5)], "0.7*X@0*P@1 + 0.3*X@0^2 + 0.5*P@1^2"),  # no qubit: d_spin = 1
    ([qubit(), qumode(6), qubit(), qumode(5)], "sz@2*X@3 + 0.5*sx@2*X@3^2"),  # qubit 0 and mode 1 untouched
])
def test_a_single_quadrature_trotter_run_matches_the_dense_flat_plan(dims, text):
    layout, h = new_register(dims), parse_expr(text)
    _assert_the_node_field_matches_the_flat_plan([trotter(h, 0.6, n) for n in (2, 8)],
                                                 PulseSequence((Pulse(h, 0.6),)), layout)


@st.composite
def _plan_cases(draw, mixed=False):
    """(layout, steps, target, held spin) on 1-3 subsystems, each mode touched through one quadrature, or with
    ``mixed`` through X, P or both."""
    layout = new_register(draw(st.lists(st.one_of(st.just(qubit()), st.integers(2, 5).map(qumode)),
                                        min_size=1, max_size=3)))
    n = len(layout)
    quadrature = {i: draw(st.sampled_from(("XP", "X", "P") if mixed else ("X", "P")))
                  for i in range(n) if layout.is_qumode(i)}

    def mode_op(i):  # a mode that carries both quadratures takes one of them per product
        return quadrature[i] if len(quadrature[i]) == 1 else draw(st.sampled_from(quadrature[i]))

    def product():
        sites = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        ops = [draw(st.sampled_from(("sx@{}", "sy@{}", "sz@{}"))).format(i) if layout.is_qubit(i)
               else f"{mode_op(i)}@{i}" + draw(st.sampled_from(("", "^2"))) for i in sorted(sites)]
        return "*".join([repr(draw(st.floats(0.2, 1.5)))] + ops)

    gens = [" + ".join(product() for _ in range(draw(st.integers(1, 2)))) for _ in range(draw(st.integers(1, 3)))]

    def sequence(min_size):
        pulses = draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((0.0, 0.3, 0.8)),
                                         st.sampled_from((1, -1))), min_size=min_size, max_size=4))
        return PulseSequence(tuple(Pulse(parse_expr(g), t, s) for g, t, s in pulses))

    repeats = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    steps = [dataclasses.replace(sequence(0), repeats=k) for k in repeats]
    held = draw(st.sampled_from([None] + [i for i in range(n) if layout.is_qubit(i)]))
    return layout, steps, sequence(1), held


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(case=_plan_cases())
def test_a_single_quadrature_pulse_sequence_matches_the_dense_flat_plan(case):
    layout, steps, target, held = case
    _assert_the_node_field_matches_the_flat_plan(steps, target, layout, held)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)  # 25 put X and P on one mode
@given(case=_plan_cases(mixed=True))
def test_a_pulse_sequence_with_both_quadratures_on_a_mode_matches_the_dense_flat_plan(case):
    layout, steps, target, held = case
    _assert_the_plan_matches_the_flat_plan(steps, target, layout, held)


# Mode 2 carries X and P, so it joins the qubits in the inner register: each unitary is read from one block
# of 2·2·8 = 32 columns, not D = 192.  Mode 3 is a node axis of the Trotter run and untouched by the synth plan.
def test_a_trotter_run_with_a_mixed_mode_beside_a_node_axis_matches_the_dense_flat_plan():
    layout = new_register([qubit(), qubit(), qumode(8), qumode(6)])
    h = parse_expr("0.9*sz@0*X@2 + 1.1*sx@0*X@2 + 0.5*sz@1*P@2 + 0.4*sz@1*X@3")
    widths = _assert_the_plan_matches_the_flat_plan([trotter(h, 0.6, n) for n in (2, 8)],
                                                    PulseSequence((Pulse(h, 0.6),)), layout)
    assert widths == [32] * 3


def test_a_mixed_synth_plan_beside_an_untouched_mode_matches_the_dense_flat_plan():
    reg = standard_registry(new_register([qubit(), qubit(), qumode(8), qumode(6)]))
    plans = [synthesize("sz@0*sz@1", 0.3, n, reg) for n in (4, 16)]  # sz@0*P@2 and sz@1*X@2
    steps = [p.sequence for p in plans]
    widths = _assert_the_plan_matches_the_flat_plan(steps, plans[-1].target_sequence, reg.layout,
                                                    plans[-1].reset_spin_required)
    assert widths == [32] * 3


def test_a_plan_with_x_and_p_on_one_mode_is_read_by_parity_sector(two_spin_registry, monkeypatch):
    calls = []
    parity_sectors = operators.parity_sectors
    monkeypatch.setattr(synthesis, "parity_sectors", lambda keys, layout: calls.append(layout)
                        or parity_sectors(keys, layout))
    plan = synthesize("sz@0*sz@1", 0.3, 16, two_spin_registry)  # sz@0*P@2 and sz@1*X@2
    assert abs(measure_plan_error(plan, two_spin_registry) - _flat_plan_error(plan, two_spin_registry)) <= 1e-12
    assert calls == [two_spin_registry.layout]


def test_a_node_block_that_is_not_unitary_raises(monkeypatch):
    propagate = synthesis._propagate
    # a leak between the nodes of mode 2: each Fock level takes 1e-6 of the level below it
    monkeypatch.setattr(synthesis, "_propagate", lambda *args: (out := propagate(*args)) + 1e-6 * np.roll(out, 1, 0))
    reg = standard_registry(new_register([qubit(), qumode(6), qumode(6)]))
    with pytest.raises(OperatorError, match="departs from unitarity"):
        measure_plan_error(synthesize("X@1*X@2", 0.35, 4, reg), reg)


def test_plan_sequence_is_the_block_repeated(two_spin_registry):
    reg = two_spin_registry
    angle, n = np.pi / 4, 16
    plan = synthesize("sz@0*sz@1", angle, n, reg)
    assert len(plan.sequence.pulses) == 4 and plan.sequence.repeats == n and len(plan.sequence) == 4 * n
    rule = reg.rule_for(plan.target_id)
    a_id, b_id = (rule.b_id, rule.a_id) if rule.scale * angle < 0 else (rule.a_id, rule.b_id)
    s = plan.block_step
    meta = (f"synthesize target={plan.target_id} angle={angle!r} n_blocks={n} s={s!r}",)
    assert plan.sequence == PulseSequence(group_commutator(a_id, b_id, s, reg).pulses, meta, n)
    doc = json.loads(plan_to_json(plan))
    assert (doc["n_blocks"], doc["n_pulses"]) == (n, 4 * n) and doc["sequence"] == plan.sequence.to_text()

    still = synthesize("sz@0*sz@1", 0.0, 8, reg)
    assert still.sequence.pulses == () and still.sequence.repeats == 8
    assert measure_plan_error(still, reg) == 0.0


def test_third_order_scale_is_computed_once_per_rule_pair(monkeypatch):
    reg = standard_registry(new_register([qubit(), qumode(8)]))
    first = synthesize("sy@0", 0.5, 4, reg)
    calls = []
    realize, symbol_commutator = evolution.realize, synthesis.symbol_commutator
    monkeypatch.setattr(evolution, "realize", lambda *a: calls.append("realize") or realize(*a))
    monkeypatch.setattr(synthesis, "symbol_commutator", lambda *a: calls.append("commutator") or symbol_commutator(*a))
    synthesize("sy@0", 0.5, 64, reg)
    assert calls == []
    assert synthesize("sy@0", 0.5, 4, reg).predicted_error == first.predicted_error


@pytest.mark.parametrize("dims", [(2, 2, 8), (2, 6, 6)])
def test_third_order_scale_matches_the_dense_formula(dims, monkeypatch):
    rules = []
    derive = synthesis.derive_rule
    monkeypatch.setattr(synthesis, "derive_rule", lambda *a, **k: rules.append(derive(*a, **k)) or rules[-1])
    reg = standard_registry(new_register([qubit() if d == 2 else qumode(d) for d in dims]))
    assert len(rules) >= 9
    for a_id, b_id in {pair for rule in rules for pair in ((rule.a_id, rule.b_id), (rule.b_id, rule.a_id))}:
        x, y = (operators.weyl_symbol(reg.record(gid).expr, reg.layout) for gid in (a_id, b_id))
        c = operators.symbol_commutator(x, y)
        exact = 0.5 * sum(np.abs(np.linalg.eigvalsh(operators.realize(operators.symbol_commutator(z, c), reg.layout)))
                          .max() for z in (x, y))
        scale = reg.third_order_scale(a_id, b_id)
        assert abs(scale - exact) <= 1e-12 * (exact or 1.0)
        # X and P of one mode meet only in a mixed pair, whose nested commutators vanish exactly; elsewhere
        # the truncated products agree with the exact symbols, which the dense formula checks too
        x_modes, p_modes = ({i for key in (*x, *y) for i, f in key if isinstance(f, tuple) and f[k]} for k in (0, 1))
        if x_modes & p_modes:
            assert scale == 0.0
            continue
        a, b = build(reg.record(a_id).expr, reg.layout), build(reg.record(b_id).expr, reg.layout)
        c = 1j * (a @ b - b @ a)
        dense = 0.5 * (np.linalg.norm(a @ c - c @ a, 2) + np.linalg.norm(b @ c - c @ b, 2))
        assert abs(scale - dense) <= 1e-12 * dense


def test_predicting_a_plan_forms_no_register_sized_matrix():
    reg = standard_registry(new_register([qubit(), qumode(32), qumode(32)]))  # D = 2048: 64 MiB per matrix
    tracemalloc.start()
    try:
        plan = synthesize("X@1*X@2", 0.7, 64, reg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert 0.0 < plan.predicted_error < np.inf


def _dense_rule_oracle(reg, rule):
    """Scale and residual of i(AB - BA) against the rule's direction, projected
    with a complex vdot on the compressed interior blocks."""
    a, b = build(reg.record(rule.a_id).expr, reg.layout), build(reg.record(rule.b_id).expr, reg.layout)
    k = compress_to_interior(1j * (a @ b - b @ a), reg.layout)
    g = compress_to_interior(build(rule.direction, reg.layout), reg.layout)
    scale = complex(np.vdot(g, k)) / np.vdot(g, g).real
    return scale, float(np.linalg.norm(k - scale * g) / (abs(scale) * np.linalg.norm(g)))


@pytest.mark.parametrize("dims", [(2, 16), (2, 2, 16), (2, 8, 8)])
def test_registry_rules_match_the_dense_complex_projection(dims, monkeypatch):
    rules = []
    derive = synthesis.derive_rule
    monkeypatch.setattr(synthesis, "derive_rule", lambda *a, **k: rules.append(derive(*a, **k)) or rules[-1])
    reg = standard_registry(new_register([qubit() if d == 2 else qumode(d) for d in dims]))
    assert rules
    for rule in rules:
        scale, residual = _dense_rule_oracle(reg, rule)
        assert abs(scale - rule.scale) <= 1e-12 * abs(rule.scale)
        assert residual <= RULE_RESIDUAL_TOL and rule.residual <= RULE_RESIDUAL_TOL


def test_reset_alias_is_the_sz_rule_under_the_mode_only_id():
    reg = standard_registry(new_register([qubit(), qumode(8), qumode(8)]))
    plan = synthesize("X@1*X@2", 0.3, 4, reg)
    assert plan.reset_spin_required == 0
    assert plan.derivation.generator_id == "1.0*sz@0*X@1*X@2"
    rule = reg.rule_for("1.0*sz@0*X@1*X@2")
    assert plan.derivation.rule == rule
    assert reg.alias_for("1.0*X@1*X@2") == rule
    assert reg.alias_for("1.0*sy@0") is None


# The rule table of [qubit, qumode12, qumode12], target id -> (a_id, b_id, direction id);
# the last entry is the reset alias.
_RULES_2_12_12 = {
    "1.0*sx@0": ("1.0*P@1", "1.0*sx@0*X@1", "1.0*sx@0"),
    "1.0*sz@0": ("1.0*P@1", "1.0*sz@0*X@1", "1.0*sz@0"),
    "1.0*sy@0": ("1.0*sz@0", "1.0*sx@0", "1.0*sy@0"),
    "1.0*id@0": ("1.0*sz@0*P@1", "1.0*sz@0*X@1", "1.0*id@0"),
    "1.0*sy@0*X@1^2": ("1.0*sz@0*X@1", "1.0*sx@0*X@1", "1.0*sy@0*X@1^2"),
    "1.0*sz@0*X@1^3": ("1.0*sy@0*X@1^2", "1.0*sx@0*X@1", "1.0*sz@0*X@1^3"),
    "1.0*sy@0*X@2^2": ("1.0*sz@0*X@2", "1.0*sx@0*X@2", "1.0*sy@0*X@2^2"),
    "1.0*sz@0*X@2^3": ("1.0*sy@0*X@2^2", "1.0*sx@0*X@2", "1.0*sz@0*X@2^3"),
    "1.0*sy@0*X@1": ("1.0*sz@0", "1.0*sx@0*X@1", "1.0*sy@0*X@1"),
    "1.0*sz@0*X@1*X@2": ("1.0*sy@0*X@1", "1.0*sx@0*X@2", "1.0*sz@0*X@1*X@2"),
    "1.0*X@1*X@2": ("1.0*sy@0*X@1", "1.0*sx@0*X@2", "1.0*sz@0*X@1*X@2"),
}


def test_standard_registry_derives_each_direction_once(monkeypatch):
    derived = []
    derive = synthesis.derive_rule
    monkeypatch.setattr(synthesis, "derive_rule", lambda *a, **k: derived.append(generator_id(a[2])) or derive(*a, **k))
    reg = standard_registry(new_register([qubit(), qumode(12), qumode(12)]))
    assert len(derived) == 10
    assert set(derived) == {d for _, _, d in _RULES_2_12_12.values()}
    table = {tid: reg.rule_for(tid) for tid in _RULES_2_12_12}
    assert {tid: (r.a_id, r.b_id, r.direction_id) for tid, r in table.items()} == _RULES_2_12_12


def test_standard_registry_rules_are_exact_and_build_no_matrix(monkeypatch):
    built = []
    dense_build = operators.build
    for module in (operators, cli):  # evolution imports no build
        monkeypatch.setattr(module, "build", lambda *a, **k: built.append("build") or dense_build(*a, **k))
    scales = []
    for cutoff in (8, 16, 32):
        reg = standard_registry(new_register([qubit(), qumode(cutoff), qumode(cutoff)]))
        scales.append({tid: (reg.rule_for(tid).scale, reg.rule_for(tid).residual) for tid in _RULES_2_12_12})
    two_spin = standard_registry(new_register([qubit(), qubit(), qumode(16)])).rule_for("1.0*sz@0*sz@1")
    assert built == []
    assert scales[0] == scales[1] == scales[2]
    pinned = {"1.0*sx@0": 1.0, "1.0*sz@0": 1.0, "1.0*sy@0": -2.0, "1.0*id@0": 1.0, "1.0*sy@0*X@1^2": -2.0,
              "1.0*sz@0*X@1^3": 2.0, "1.0*sz@0*X@1*X@2": 2.0}
    assert {tid: scales[0][tid] for tid in pinned} == {tid: (scale, 0.0) for tid, scale in pinned.items()}
    assert all(residual == 0.0 for _, residual in scales[0].values())
    assert (two_spin.scale, two_spin.residual) == (1.0, 0.0)


def test_derive_rule_validates_its_inputs_as_build_does(spin_mode_registry):
    reg = spin_mode_registry
    for text in ("sz@5", "X@0"):
        with pytest.raises(OperatorError):
            build(parse_expr(text), reg.layout)
        with pytest.raises(OperatorError):
            derive_rule(SZP, SZX, parse_expr(text), reg)
    with pytest.raises(SynthesisError, match="vanishes"):
        derive_rule(SZP, SZX, parse_expr("X@1 - X@1"), reg)
    with pytest.raises(SynthesisError, match="unknown generator id"):
        derive_rule("1.0*sy@0*P@1", SZX, parse_expr("id@0"), reg)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_closure_membership_rejects_a_query_that_is_not_finite(spin_mode_registry, bad):
    reg = spin_mode_registry
    rep = close_algebra([g.generator_id for g in primitive_set(reg.layout, 0, 1).members], max_new=5, degree_cap=2,
                        registry=reg)
    query = np.zeros((reg.layout.total_dim,) * 2)
    query[0, 0] = bad
    with pytest.raises(SynthesisError, match="not Hermitian"):
        rep.membership(query)


def _spin_only_rule():
    """A registry on [qubit, qumode4] whose rule i[sx@0, sy@0] = -2 sz@0 has inputs that are not drivable."""
    reg = SynthesisRegistry(new_register([qubit(), qumode(4)]))
    a_id, b_id = (reg.register(parse_expr(text), drivable=False) for text in ("sx@0", "sy@0"))
    return reg, derive_rule(a_id, b_id, parse_expr("sz@0"), reg)


def _spin_mode_state():
    return basis_state(new_register([qubit(), qumode(4)]), [0, 0])


def _spin_mode_closure():
    """The closure of the primitive set on [qubit, qumode4] (D = 8), to degree 2."""
    reg = SynthesisRegistry(new_register([qubit(), qumode(4)]))
    seeds = [reg.register(g.expr, drivable=True) for g in primitive_set(reg.layout, 0, 1).members]
    return close_algebra(seeds, max_new=5, degree_cap=2, registry=reg)


@pytest.mark.parametrize(("call", "fragment"), [
    pytest.param(lambda: SynthesisRegistry.add_reset_alias(*_spin_only_rule()),
                 "direction '1.0*sz@0' is not sz times mode operators", id="reset-alias"),
    pytest.param(lambda: group_commutator("1.0*sx@0", "1.0*sy@0", 0.0, _spin_only_rule()[0]),
                 "block step must be > 0, got 0.0", id="block-step"),
    pytest.param(lambda: synthesize("sz@0", 0.3, 0, _spin_only_rule()[0]), "n_blocks must be >= 1, got 0",
                 id="n-blocks"),
    pytest.param(lambda: synthesize("sz@0", 0.3, 4, _spin_only_rule()[0]), "is not drivable", id="not-drivable"),
    pytest.param(lambda: reset_spin(_spin_mode_state(), 1, np.random.default_rng(0)), "subsystem 1 is not a qubit",
                 id="reset-mode"),
    pytest.param(lambda: oscillator_drive(_spin_mode_state(), 0, "X", 0.1, 0, np.random.default_rng(0)),
                 "subsystem 0 is not a qumode", id="drive-qubit"),
    pytest.param(lambda: oscillator_drive(_spin_mode_state(), 1, "X", 0.1, 0, np.random.default_rng(0), n_steps=0),
                 "n_steps must be >= 1, got 0", id="drive-steps"),
    pytest.param(lambda: _spin_mode_closure().membership(np.zeros((2, 3))), "query must have shape (8, 8), got (2, 3)",
                 id="membership-not-square"),
    pytest.param(lambda: _spin_mode_closure().membership(np.zeros((4, 4))), "query must have shape (8, 8), got (4, 4)",
                 id="membership-wrong-size"),
])
def test_each_synthesis_check_raises_naming_its_fault(call, fragment):
    with pytest.raises(SynthesisError, match=re.escape(fragment)):
        call()
