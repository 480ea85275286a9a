import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridsim import evolution
from hybridsim.evolution import (
    PHASE_BUDGET,
    EvolutionError,
    Generators,
    Pulse,
    PulseSequence,
    UnknownGeneratorError,
    cv_qft,
    expm_apply,
    expm_unitary,
    leakage,
    run_sequence,
    sequence_unitary,
    trotter,
)
from hybridsim.hilbert import StateVector, basis_state, new_register, qubit, qumode
from hybridsim.operators import HamiltonianExpr, HamiltonianTerm, LocalOp, build, fock_position, parse_expr, weyl_symbol
from hybridsim.spectral import quadrature_basis


def test_expm_zero_time_is_identity():
    layout = new_register([qubit(), qumode(4)])
    state = basis_state(layout, [1, 2])
    out = expm_apply(build(parse_expr("sz@0*X@1"), layout), 0.0, state)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-14


def test_expm_translates_quadrature_eigenvector():
    # e^{-iPt}|x> = |x+t>: on the truncated mode the overlap with the node
    # nearest x+t must be the largest of all nodes
    cutoff = 48
    layout = new_register([qumode(cutoff)])
    basis = quadrature_basis(cutoff)
    j = cutoff // 2  # a central node
    state = StateVector(layout, basis.vectors[:, j])
    t = 1.3
    moved = expm_apply(build(parse_expr("P@0"), layout), t, state)
    overlaps = np.abs(basis.vectors.conj().T @ moved.amplitudes) ** 2
    expected = int(np.argmin(np.abs(basis.nodes - (basis.nodes[j] + t))))
    assert int(np.argmax(overlaps)) == expected


def test_expm_on_sigma_z_eigenstate():
    layout = new_register([qubit()])
    state = basis_state(layout, [0])
    out = expm_apply(build(parse_expr("sz@0"), layout), np.pi, state)
    assert abs(abs(out.amplitudes[0]) ** 2 - 1.0) <= 1e-12


def test_expm_validation():
    layout = new_register([qubit()])
    state = basis_state(layout, [0])
    with pytest.raises(EvolutionError):
        expm_apply(np.array([[0, 1], [0, 0]], dtype=complex), 1.0, state)
    with pytest.raises(EvolutionError):
        expm_apply(np.eye(3, dtype=complex), 1.0, state)


def test_expm_composition_and_norm():
    rng = np.random.default_rng(2)
    layout = new_register([qubit(), qumode(6)])
    h = build(parse_expr("sz@0*X@1+0.5*P@1^2"), layout)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    one = expm_apply(h, 0.7, expm_apply(h, 0.3, state))
    two = expm_apply(h, 1.0, state)
    assert abs(one.overlap(two)) >= 1.0 - 1e-10
    assert abs(one.norm - 1.0) <= 1e-10


def test_run_sequence_empty_and_inverse_pair():
    layout = new_register([qubit(), qumode(8)])
    state = basis_state(layout, [0, 1])
    rep = run_sequence(PulseSequence(), state)
    assert rep.final_state.fidelity(state) == 1.0

    gen = parse_expr("sx@0*X@1")
    seq = PulseSequence((Pulse(gen, 0.4, 1), Pulse(gen, 0.4, -1)))
    rep = run_sequence(seq, state)
    assert rep.final_state.fidelity(state) >= 1.0 - 1e-10
    assert rep.norm_drift <= 1e-10


def test_run_sequence_unknown_generator():
    layout = new_register([qubit()])
    state = basis_state(layout, [0])
    with pytest.raises(UnknownGeneratorError):
        run_sequence(PulseSequence((Pulse("no-such-generator", 1.0, 1),)), state)


def test_a_plain_mapping_is_not_a_generator_table():
    # pulses resolve by factoring their expression; a mapping of prebuilt matrices is refused
    layout = new_register([qubit()])
    state = basis_state(layout, [0])
    seq = PulseSequence((Pulse("H", np.pi / 2, 1),))
    sx = build(parse_expr("sx@0"), layout)
    with pytest.raises(EvolutionError):
        run_sequence(seq, state, {"H": sx})
    with pytest.raises(EvolutionError):
        sequence_unitary(seq, layout, {"H": sx})


def test_generator_table_layout_must_match():
    layout = new_register([qubit(), qumode(4)])
    other = Generators(new_register([qubit(), qumode(5)]))
    seq = PulseSequence((Pulse("sz@0*X@1", 0.3, 1),))
    with pytest.raises(EvolutionError):
        run_sequence(seq, basis_state(layout, [0, 0]), other)
    with pytest.raises(EvolutionError):
        sequence_unitary(seq, layout, other)


def test_generator_table_diagonalizes_each_id_once(monkeypatch):
    layout = new_register([qubit(), qumode(6)])
    table = Generators(layout)
    seq = PulseSequence((Pulse("sx@0*X@1", 0.2, 1), Pulse(parse_expr("sz@0*P@1"), 0.3, -1),
                         Pulse("sx@0*X@1", 0.1, -1)))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    u = sequence_unitary(seq, layout, table)
    rep = run_sequence(seq, basis_state(layout, [0, 1]), table)
    # the id and the inline sz@0*P@1 each once per factor, never at 12
    assert calls == [(2, 2), (6, 6), (2, 2), (6, 6)]
    assert np.max(np.abs(u @ basis_state(layout, [0, 1]).amplitudes - rep.final_state.amplitudes)) <= 1e-12


def test_an_explicit_identity_factor_is_not_diagonalized(monkeypatch):
    layout = new_register([qubit(), qumode(6)])
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    u = sequence_unitary(PulseSequence((Pulse(parse_expr("sz@0*id@1"), 0.4),)), layout)
    assert calls == [(2, 2)]
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert np.max(np.abs(u - expm_unitary(build(parse_expr("sz@0"), layout), 0.4))) <= 1e-14


@pytest.mark.parametrize(("text", "energy"), [("0.7*id@0", 0.7), ("X@1 - X@1", 0.0)])
def test_a_generator_that_touches_no_subsystem_only_phases(text, energy):
    layout = new_register([qubit(), qumode(6)])
    t = 1.3
    u = sequence_unitary(PulseSequence((Pulse(parse_expr(text), t),)), layout)
    assert np.max(np.abs(u - np.exp(-1j * energy * t) * np.eye(layout.total_dim))) <= 1e-15
    rng = np.random.default_rng(3)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    before = state.amplitudes.copy()
    assert not state.amplitudes.flags.writeable
    out = run_sequence(PulseSequence((Pulse(text, t, -1),)), state).final_state
    assert np.array_equal(state.amplitudes, before)
    assert np.max(np.abs(out.amplitudes - np.exp(1j * energy * t) * before)) <= 1e-15


@st.composite
def _pulse_cases(draw):
    """(layout, expr): one product term, terms sharing a factor, or a free sum of terms."""
    specs = draw(st.lists(st.one_of(st.just(qubit()), st.integers(2, 5).map(qumode)), min_size=2, max_size=4))
    layout = new_register(specs)

    def local(i):
        if layout.is_qubit(i):
            return LocalOp(draw(st.sampled_from(("sx", "sy", "sz", "id"))))
        tag = draw(st.sampled_from(("X", "P", "id")))
        return LocalOp(tag, 1 if tag == "id" else draw(st.integers(1, 3)))

    def product(sites, fixed=()):
        coeff = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from((1, -1)))
        return HamiltonianTerm(coeff, tuple(fixed) + tuple((i, local(i)) for i in sites))

    def sites(exclude=(), least=1):
        free = [i for i in range(len(layout)) if i not in exclude]
        return draw(st.lists(st.sampled_from(free), min_size=least, max_size=len(free), unique=True))

    shape = draw(st.sampled_from(("product", "common", "sum")))
    if shape == "product":
        terms = [product(sites())]
    elif shape == "common":
        j = draw(st.integers(0, len(layout) - 1))
        shared = (j, local(j))
        terms = [product(sites((j,), 0), (shared,)) for _ in range(draw(st.integers(2, 3)))]
    else:
        terms = [product(sites()) for _ in range(draw(st.integers(2, 3)))]
    return layout, HamiltonianExpr(tuple(terms))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@example(case=(new_register([qubit(), qumode(4), qubit()]), parse_expr("sz@0*P@1*sz@2 + sx@0*P@1*sx@2")), t=0.9, sign=1)
@example(case=(new_register([qubit(), qumode(3), qumode(2), qubit()]), parse_expr("sz@0*P@1*sz@3 + sx@0*P@1*sx@3")),
         t=0.6, sign=-1)
@example(case=(new_register([qubit(), qumode(5)]), parse_expr("0.5*sz@0*X@1^2 - sz@0*P@1^3")), t=1.1, sign=-1)
@example(case=(new_register([qumode(3), qubit(), qumode(4)]), parse_expr("0.7*X@0^2*sx@1*P@2^2")), t=1.5, sign=1)
@given(case=_pulse_cases(), t=st.floats(0.05, 1.5), sign=st.sampled_from((1, -1)))
def test_factored_propagation_matches_the_dense_exponential(case, t, sign):
    layout, expr = case
    seq = PulseSequence((Pulse(expr, t, sign), Pulse(expr, 0.5 * t, 1)))
    exact = expm_unitary(build(expr, layout), 0.5 * t) @ expm_unitary(build(expr, layout), sign * t)
    assert np.max(np.abs(sequence_unitary(seq, layout) - exact)) <= 1e-12
    rng = np.random.default_rng(0)
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    psi = StateVector(layout, amps / np.linalg.norm(amps))
    out = run_sequence(seq, psi).final_state.amplitudes
    assert np.max(np.abs(out - exact @ psi.amplitudes)) <= 1e-12


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@example(case=(new_register([qubit(), qumode(5)]), parse_expr("X@1 - X@1")))
@example(case=(new_register([qubit(), qumode(6), qumode(6)]), parse_expr("sx@0*X@1^2*X@2")))
@given(case=_pulse_cases())
def test_a_factored_symbol_has_the_dense_largest_energy(case):
    layout, expr = case
    energy = Generators(layout).factor(weyl_symbol(expr, layout)).max_energy
    dense = np.abs(np.linalg.eigvalsh(build(expr, layout))).max()
    assert abs(energy - dense) <= 1e-12 * max(dense, 1.0)


def test_sequence_text_round_trip_is_bit_exact():
    seq = PulseSequence(
        (
            Pulse("1.0*sz@0*X@1", 0.1234567890123456789, 1),
            Pulse(parse_expr("0.5*P@1^2"), 1e-7, -1),
        ),
        ("compiled block", "second note"),
    )
    text = seq.to_text()
    again = PulseSequence.from_text(text)
    assert again.to_text() == text
    assert [p.duration for p in again.pulses] == [p.duration for p in seq.pulses]
    with pytest.raises(EvolutionError):
        PulseSequence.from_text("1.0*sz@0 +1\n")


def test_pulse_validation():
    with pytest.raises(EvolutionError):
        Pulse("1.0*sz@0", -0.1, 1)
    with pytest.raises(EvolutionError):
        Pulse("1.0*sz@0", 0.1, 2)


def test_trotter_single_term_is_exact():
    layout = new_register([qubit(), qumode(8)])
    expr = parse_expr("sz@0*X@1")
    u = sequence_unitary(trotter(expr, 0.7, 5), layout)
    exact = expm_unitary(build(expr, layout), 0.7)
    assert np.max(np.abs(u - exact)) <= 1e-12


def test_trotter_error_halves_when_steps_double():
    layout = new_register([qubit(), qumode(16)])
    expr = parse_expr("sz@0*X@1+sx@0*X@1")
    exact = expm_unitary(build(expr, layout), 0.5)
    errs = [
        np.linalg.norm(sequence_unitary(trotter(expr, 0.5, n), layout) - exact, 2)
        for n in (4, 8, 16, 32)
    ]
    for a, b in zip(errs, errs[1:]):
        assert 0.8 * 2 <= a / b <= 1.2 * 2
    slope = np.polyfit(np.log([4, 8, 16, 32]), np.log(errs), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_trotter_commuting_terms_exact():
    layout = new_register([qubit(), qubit()])
    expr = parse_expr("sz@0+sz@1")
    exact = expm_unitary(build(expr, layout), 1.3)
    u = sequence_unitary(trotter(expr, 1.3, 3), layout)
    assert np.linalg.norm(u - exact, 2) <= 1e-10


def test_cv_qft_vacuum_invariant():
    layout = new_register([qumode(32)])
    vac = basis_state(layout, [0])
    assert cv_qft(vac, 0).fidelity(vac) >= 1.0 - 1e-10


def test_cv_qft_needs_no_eigendecomposition(monkeypatch):
    layout = new_register([qubit(), qumode(10), qumode(6)])
    rng = np.random.default_rng(2)
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    rot = build(parse_expr("0.5*X@1^2 + 0.5*P@1^2"), layout)
    expected = expm_unitary(rot, np.pi / 2) @ state.amplitudes
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    out = cv_qft(state, 1)
    assert calls == []
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


def test_cv_qft_builds_only_the_one_mode(monkeypatch):
    layout = new_register([qubit(), qumode(10), qumode(6)])
    amps = np.arange(1, layout.total_dim + 1, dtype=complex)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    shapes = []

    def recording(*args):
        shapes.append((out := build(*args)).shape)
        return out

    monkeypatch.setattr(evolution, "build", recording)
    cv_qft(state, 1)
    assert shapes and max(max(s) for s in shapes) <= 10


def test_cv_qft_fock_phases():
    # each |n> picks up e^{-i (n + 1/2) pi/2}; probabilities are untouched
    layout = new_register([qumode(32)])
    n = 3
    amps = np.zeros(32, dtype=complex)
    amps[0] = amps[n] = 1 / np.sqrt(2)
    out = cv_qft(StateVector(layout, amps), 0)
    assert np.allclose(np.abs(out.amplitudes) ** 2, np.abs(amps) ** 2, atol=1e-12)
    rel = (out.amplitudes[n] / out.amplitudes[0]) / np.exp(-1j * n * np.pi / 2)
    assert abs(rel - 1.0) <= 1e-10

    fock = basis_state(layout, [n])
    out = cv_qft(fock, 0)
    assert abs(out.amplitudes[n] - np.exp(-1j * (n + 0.5) * np.pi / 2)) <= 1e-10


def test_cv_qft_rotates_displaced_vacuum():
    layout = new_register([qumode(64)])
    x_op = build(parse_expr("X@0"), layout)
    p_op = build(parse_expr("P@0"), layout)
    state = expm_apply(p_op, 1.0, basis_state(layout, [0]))  # <X>=1, <P>=0
    out = cv_qft(state, 0)
    assert abs(out.expectation(x_op) - 0.0) <= 1e-3
    assert abs(out.expectation(p_op) - (-1.0)) <= 1e-3


def test_cv_qft_fourth_power_is_identity():
    layout = new_register([qumode(64)])
    state = expm_apply(build(parse_expr("P@0"), layout), 0.8, basis_state(layout, [0]))
    out = state
    for _ in range(4):
        out = cv_qft(out, 0)
    assert out.fidelity(state) >= 1.0 - 1e-8
    with pytest.raises(EvolutionError):
        cv_qft(basis_state(new_register([qubit()]), [0]), 0)


def test_report_flags_guard_band_population():
    layout = new_register([qumode(32)])
    ok = run_sequence(PulseSequence(), basis_state(layout, [0]))
    assert ok.valid and ok.leakage == 0.0
    bad = run_sequence(PulseSequence(), basis_state(layout, [30]))
    assert not bad.valid and bad.leakage == 1.0


def test_leakage_examples():
    layout = new_register([qumode(32)])
    assert leakage(basis_state(layout, [0])) == 0.0
    assert abs(leakage(basis_state(layout, [31])) - 1.0) <= 1e-15

    # coherent-like state |alpha| = 1: Poisson tail above the guard band
    import math

    alpha = 1.0
    n = np.arange(32)
    amps = np.exp(-abs(alpha) ** 2 / 2) * alpha**n / np.sqrt(
        np.array([math.factorial(int(k)) for k in n], dtype=float)
    )
    state = StateVector(layout, amps / np.linalg.norm(amps))
    tail = 1.0 - np.sum(np.abs(amps[:24]) ** 2) / np.sum(np.abs(amps) ** 2)
    assert leakage(state) < 1e-6
    assert abs(leakage(state) - tail) <= 1e-12


def test_leakage_is_the_guard_band_weight_alone():
    layout = new_register([qumode(32)])
    short = np.zeros(32, dtype=complex)
    short[0] = 1.0 - 1e-9  # a norm error, nothing in the guard band
    assert leakage(StateVector(layout, short)) == 0.0
    tiny = np.zeros(32, dtype=complex)
    tiny[0], tiny[30] = 1.0, 1e-10
    assert abs(leakage(StateVector(layout, tiny)) - 1e-20) <= 1e-32


def test_a_pulse_past_the_phase_budget_is_refused():
    layout = new_register([qubit(), qumode(4)])
    table = Generators(layout)
    factored = table.decomposition(Pulse("2.5*sz@0*X@1", 1.0))
    assert factored.max_energy == np.abs(factored.energies).max() > 0.0
    # a phase at the budget still runs, one past it is refused
    assert PHASE_BUDGET == 2.0**52
    run_sequence(PulseSequence((Pulse("sz@0", PHASE_BUDGET),)), basis_state(layout, [0, 0]), table)
    for pulse in (Pulse("sz@0", 2.0 * PHASE_BUDGET), Pulse("2.5*sz@0*X@1", PHASE_BUDGET, -1)):
        with pytest.raises(EvolutionError, match=r"exceeds the phase budget 2\*\*52 rad"):
            sequence_unitary(PulseSequence((pulse,)), layout, table)
