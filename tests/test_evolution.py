import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridsim import evolution
from hybridsim.evolution import (
    LEAKAGE_INVALID,
    PHASE_BUDGET,
    EvolutionError,
    Generators,
    Pulse,
    PulseSequence,
    UnknownGeneratorError,
    _propagate,
    cv_qft,
    expm_unitary,
    leakage,
    run_sequence,
    sequence_unitary,
    trotter,
)
from hybridsim.hilbert import RegisterLayout, StateVector, basis_state, new_register, qubit, qumode
from hybridsim.operators import (HamiltonianExpr, HamiltonianTerm, LocalOp, build, fock_momentum, generator_id,
                                 parse_expr, term, weyl_symbol)
from hybridsim.spectral import _coupling_sequence


def test_expm_zero_time_is_identity():
    layout = new_register([qubit(), qumode(4)])
    state = basis_state(layout, [1, 2])
    out = run_sequence(PulseSequence((Pulse(parse_expr("sz@0*X@1"), 0.0),)), state)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-14


def test_expm_translates_quadrature_eigenvector():
    # e^{-iPt}|x> = |x+t>: on the truncated mode the overlap with the node
    # nearest x+t must be the largest of all nodes
    cutoff = 48
    layout = new_register([qumode(cutoff)])
    basis = Generators(new_register([qumode(cutoff)])).quadrature(cutoff)
    j = cutoff // 2  # a central node
    state = StateVector(layout, basis.vectors[:, j])
    t = 1.3
    moved = run_sequence(PulseSequence((Pulse(parse_expr("P@0"), t),)), state)
    overlaps = np.abs(basis.vectors.conj().T @ moved.amplitudes) ** 2
    expected = int(np.argmin(np.abs(basis.nodes - (basis.nodes[j] + t))))
    assert int(np.argmax(overlaps)) == expected


def test_expm_on_sigma_z_eigenstate():
    layout = new_register([qubit()])
    state = basis_state(layout, [0])
    out = run_sequence(PulseSequence((Pulse(parse_expr("sz@0"), np.pi),)), state)
    assert abs(abs(out.amplitudes[0]) ** 2 - 1.0) <= 1e-12


def test_expm_composition_and_norm():
    rng = np.random.default_rng(2)
    layout = new_register([qubit(), qumode(6)])
    h = parse_expr("sz@0*X@1+0.5*P@1^2")
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    one = run_sequence(PulseSequence((Pulse(h, 0.7),)), run_sequence(PulseSequence((Pulse(h, 0.3),)), state))
    two = run_sequence(PulseSequence((Pulse(h, 1.0),)), state)
    assert abs(one.overlap(two)) >= 1.0 - 1e-10
    assert abs(one.norm - 1.0) <= 1e-10


def test_run_sequence_empty_and_inverse_pair():
    layout = new_register([qubit(), qumode(8)])
    state = basis_state(layout, [0, 1])
    out = run_sequence(PulseSequence(), state)
    assert out.fidelity(state) == 1.0

    gen = parse_expr("sx@0*X@1")
    seq = PulseSequence((Pulse(gen, 0.4, 1), Pulse(gen, 0.4, -1)))
    out = run_sequence(seq, state)
    assert out.fidelity(state) >= 1.0 - 1e-10
    assert abs(out.norm - 1.0) <= 1e-10


def test_run_sequence_unknown_generator():
    layout = new_register([qubit()])
    state = basis_state(layout, [0])
    with pytest.raises(UnknownGeneratorError):
        run_sequence(PulseSequence((Pulse("no-such-generator", 1.0, 1),)), state)


def test_a_plain_mapping_is_not_a_generator_table():
    # pulses resolve by factoring their expression; a mapping of prebuilt matrices is refused
    layout = new_register([qubit()])
    state = basis_state(layout, [0])
    seq = PulseSequence((Pulse("sx@0", np.pi / 2, 1),))
    sx = build(parse_expr("sx@0"), layout)
    with pytest.raises(EvolutionError):
        run_sequence(seq, state, {"sx@0": sx})
    with pytest.raises(EvolutionError):
        sequence_unitary(seq, layout, {"sx@0": sx})


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
    out = run_sequence(seq, basis_state(layout, [0, 1]), table)
    # the id and the inline sz@0*P@1 each once per factor, never at 12; P's eigenvectors come from X's, and the
    # diagonal sz is its own eigenbasis
    assert calls == [(2, 2), (6, 6)]
    assert np.max(np.abs(u @ basis_state(layout, [0, 1]).amplitudes - out.amplitudes)) <= 1e-12


@pytest.mark.parametrize("cutoff", [12, 64])
def test_a_tables_two_quadratures_share_their_nodes_and_one_eigh(monkeypatch, cutoff):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    table = Generators(new_register([qumode(cutoff)]))
    p, x = table.quadrature(cutoff, (0, 1)), table.quadrature(cutoff, (1, 0))
    assert np.array_equal(p.nodes, x.nodes)
    diagonal = p.vectors.conj().T @ fock_momentum(cutoff) @ p.vectors
    assert np.max(np.abs(diagonal - np.diag(p.nodes))) <= 1e-12
    assert not any(a.flags.writeable for a in (*p, *x))
    again = table.quadrature(cutoff, (0, 1))
    assert again.nodes is p.nodes and again.vectors is p.vectors
    assert calls == [(cutoff, cutoff)]


def test_an_explicit_identity_factor_is_not_diagonalized(monkeypatch):
    layout = new_register([qubit(), qumode(6)])
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    # sz is diagonal, so no eigh shows whether the id is formed: the matrices formed show it
    formed = []
    for name in ("local_factor", "realize"):
        form = getattr(evolution, name)
        monkeypatch.setattr(evolution, name, lambda *a, form=form: formed.append((out := form(*a)).shape) or out)
    u = sequence_unitary(PulseSequence((Pulse(parse_expr("sz@0*id@1"), 0.4),)), layout)
    assert calls == [] and formed and 6 not in {n for shape in formed for n in shape}
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert np.max(np.abs(u - expm_unitary(build(parse_expr("sz@0"), layout), 0.4))) <= 1e-14


def test_a_factored_generator_keeps_its_energies_on_the_axes_it_touches():
    layout = new_register([qubit(), qubit(), qumode(8)])
    factored = Generators(layout).factor(weyl_symbol(parse_expr("sz@0*X@2"), layout))
    assert factored.energies.shape == (2, 1, 8)
    assert factored.max_energy == np.abs(factored.energies).max()


def _chain(n: int) -> HamiltonianExpr:
    return parse_expr(" + ".join([f"0.2*sz@{i}*sz@{i + 1}" for i in range(n - 1)] + [f"0.1*sx@{i}" for i in range(n)]))


def test_the_pulse_loop_formats_each_pulse_id_once(monkeypatch):
    # a 64-round Trotter coupling of five terms repeats the same five pulses: 320 pulses, five formatted ids
    layout = new_register([qubit()] * 3 + [qumode(16)])
    seq = _coupling_sequence(_chain(3), 3, 5.0, "trotter", 64)
    calls = []
    monkeypatch.setattr(evolution, "generator_id", lambda expr: calls.append(expr) or generator_id(expr))
    run_sequence(seq, basis_state(layout, [0] * 4))
    assert len(seq) == 320 and len(calls) == 5


def _dense_product(seq: PulseSequence, layout) -> np.ndarray:
    dense = np.eye(layout.total_dim, dtype=complex)
    for p in seq.pulses * seq.repeats:
        dense = expm_unitary(build(p.generator, layout), p.sign * p.duration) @ dense
    return dense


@pytest.mark.parametrize(("text", "rotations"), [
    ("0.2*sz@0*sz@1 + 0.2*sz@1*sz@2", 0),  # every factor is diagonal: nothing is rotated into or back
    # a round rotates back the three sx axes the sz@i*sz@j terms meet, then into each sx again: 6 a round
    ("0.2*sz@0*sz@1 + 0.2*sz@1*sz@2 + 0.1*sx@0 + 0.1*sx@1 + 0.1*sx@2", 48),
], ids=["szsz", "szsz-sx"])
def test_a_trotter_round_rotates_no_diagonal_factor(monkeypatch, text, rotations):
    layout, seq = new_register([qubit()] * 3), trotter(parse_expr(text), 1.0, 8)
    calls = []
    on_axes = evolution._on_axes
    monkeypatch.setattr(evolution, "_on_axes", lambda *a: calls.append(a[1]) or on_axes(*a))
    u = sequence_unitary(seq, layout)
    assert len(calls) == rotations
    assert np.max(np.abs(u - _dense_product(seq, layout))) <= 1e-12


def test_a_diagonal_factor_meeting_an_owed_group_matches_the_dense_product():
    # sx@0*sx@1 + sz@0 leaves axes (0, 1) owed; the diagonal sz@0 meets them, sz@1*P@2 meets them and the
    # pointer, and (X^2 + P^2)/2 is a diagonal group on the mode
    layout = new_register([qubit(), qubit(), qumode(8)])
    pulses = [("0.7*sx@0*sx@1 + 0.4*sz@0", 0.3, 1), ("0.9*sz@0", 0.5, 1), ("sz@1*P@2", 0.2, -1),
              ("0.5*X@2^2 + 0.5*P@2^2", 0.7, 1), ("0.7*sx@0*sx@1 + 0.4*sz@0", 0.4, -1), ("sx@1*X@2", 0.6, 1),
              ("0.3*sz@0*sz@1", 0.8, 1), ("0.5*X@2^2 + 0.5*P@2^2", 0.1, -1)]
    seq = PulseSequence(tuple(Pulse(parse_expr(text), duration, sign) for text, duration, sign in pulses))
    assert np.max(np.abs(sequence_unitary(seq, layout) - _dense_product(seq, layout))) <= 1e-12


def _traced_peak(seq: PulseSequence, layout, table, amps: np.ndarray) -> int:
    tracemalloc.start()
    try:
        _propagate(seq, layout, table, amps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_trotter_coupling_keeps_no_register_sized_phases_per_term():
    # 15 terms on 8 qubits and a 64-level pointer (D = 16,384), each diagonalized in the run: every term's
    # energies and phases span only the axes it touches, so the state and its rotated copy dominate the peak
    layout = new_register([qubit()] * 8 + [qumode(64)])
    amps = basis_state(layout, [0] * 9).amplitudes
    assert _traced_peak(_coupling_sequence(_chain(8), 8, 5.0, "trotter", 4), layout, None, amps) < 4 * amps.nbytes


def test_an_exact_coupling_of_a_block_holds_no_third_block():
    # one pulse on every axis: each rotation holds its input and output blocks, and no name keeps a third alive
    layout = new_register([qubit()] * 6 + [qumode(64)])
    seq, table = _coupling_sequence(_chain(6), 6, 5.0, "exact", 1), Generators(layout)
    table.decomposition(seq.pulses[0])
    block = np.eye(layout.total_dim, 8, dtype=complex)
    assert _traced_peak(seq, layout, table, block) < 2.5 * block.nbytes


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
    out = run_sequence(PulseSequence((Pulse(text, t, -1),)), state)
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
    out = run_sequence(seq, psi).amplitudes
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


@st.composite
def _sequence_cases(draw):
    """(layout, pulses) on 1-4 subsystems: generators over few local factors, so pulses share factors and recur."""
    specs = draw(st.lists(st.one_of(st.just(qubit()), st.integers(2, 4).map(qumode)), min_size=1, max_size=4))
    layout = new_register(specs)
    n = len(layout)

    def product():
        sites = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        ops = [draw(st.sampled_from(("sx@{}", "sz@{}") if layout.is_qubit(i) else ("X@{}", "P@{}", "X@{}^2")))
               .format(i) for i in sorted(sites)]
        return "*".join([repr(draw(st.floats(0.2, 1.5)))] + ops)

    gens = [draw(st.one_of(  # a product, a sum (a common factor or a multi-axis group), or no group at all
        st.builds(product), st.builds(lambda k: " + ".join(product() for _ in range(k)), st.integers(2, 3)),
        st.just("0.7*id@0"))) for _ in range(draw(st.integers(1, 3)))]
    pulses = draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((0.0, 0.3, 0.3, 0.8)),
                                     st.sampled_from((1, -1))), min_size=1, max_size=8))
    return layout, [Pulse(parse_expr(g), t, s) for g, t, s in pulses]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@example(case=(new_register([qubit(), qubit(), qumode(4)]),  # a Trotter pointer coupling: P@2 stays rotated
               [Pulse(parse_expr(g), 0.4) for g in ["sz@0*sz@1*P@2", "0.5*sx@0*sx@1*P@2"] * 3]))
@example(case=(new_register([qubit(), qumode(3), qubit()]),  # a multi-axis group, then one of its axes alone
               [Pulse(parse_expr("sz@0*X@1 + sx@0*P@1"), 0.5), Pulse(parse_expr("sx@0*sz@2"), 0.7, -1),
                Pulse(parse_expr("0.7*id@0"), 0.3), Pulse(parse_expr("sz@0*X@1 + sx@0*P@1"), 0.0),
                Pulse(parse_expr("P@1"), 0.2)]))
@given(case=_sequence_cases())
def test_a_pulse_sequence_matches_the_dense_product(case):
    layout, pulses = case
    dense = np.eye(layout.total_dim, dtype=complex)
    for p in pulses:
        dense = expm_unitary(build(p.generator, layout), p.sign * p.duration) @ dense
    seq = PulseSequence(tuple(pulses))
    assert np.max(np.abs(sequence_unitary(seq, layout) - dense)) <= 1e-12
    rng = np.random.default_rng(1)
    for shape in ((layout.total_dim,), (layout.total_dim, 3)):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        before = amps.copy()
        out = _propagate(seq, layout, Generators(layout), amps)
        assert np.array_equal(amps, before)
        assert np.max(np.abs(out - dense @ amps)) <= 1e-12


def test_sequence_text_round_trip_is_bit_exact():
    seq = PulseSequence(
        (
            Pulse("1.0*sz@0*X@1", 0.1234567890123456789, 1),
            Pulse(parse_expr("0.5*P@1^2"), 1e-7, -1),
        ),
    )
    text = seq.to_text()
    again = PulseSequence.from_text(text)
    assert again.to_text() == text
    assert [p.duration for p in again.pulses] == [p.duration for p in seq.pulses]
    with pytest.raises(EvolutionError):
        PulseSequence.from_text("1.0*sz@0 +1\n")
    with pytest.raises(EvolutionError, match="line 2: duration"):
        PulseSequence.from_text("# note\n1.0*sz@0 +1 abc\n")


def test_a_trotter_sequence_holds_one_round_whatever_its_step_count():
    # 2**40 rounds are built and serialized, never propagated: the round is one pulse per term
    h = parse_expr("0.2*sz@0*sz@1 + 0.1*sx@0 + 0.1*sx@1")
    huge = trotter(h, 1.0, 2**40)
    assert len(huge.pulses) == len(h.terms) and len(huge) == len(h.terms) * 2**40
    texts = {n: trotter(h, 1.0, n).to_text() for n in (2, 2**40)}
    assert len(texts[2].splitlines()) == len(texts[2**40].splitlines()) == 1 + len(h.terms)
    for n, text in texts.items():
        again = PulseSequence.from_text(text)
        assert again.repeats == n and again.to_text() == text
        assert [p.duration for p in again.pulses] == [p.duration for p in trotter(h, 1.0, n).pulses]


def test_a_pulse_parses_its_text_once_into_the_canonical_id():
    # two texts of one generator are one id, and one table keeps one decomposition for both
    layout = new_register([qubit()])
    short, long = Pulse("sx@0", 1.0), Pulse("1.0*sx@0", 1.0)
    assert isinstance(short.generator, HamiltonianExpr) and short.generator == long.generator
    assert short.generator_id == long.generator_id == generator_id(parse_expr("sx@0"))
    table = Generators(layout)
    assert table.decomposition(short) is table.decomposition(long)
    # an id with spaces, cv_qft's, is written canonically and reads back
    qft = PulseSequence((Pulse("0.5*X@0^2 + 0.5*P@0^2", np.pi / 2),))
    assert PulseSequence.from_text(qft.to_text()) == qft


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

    realize = evolution.realize

    def recording(*args):
        shapes.append((out := realize(*args)).shape)
        return out

    monkeypatch.setattr(evolution, "realize", recording)
    cv_qft(state, 1)
    assert shapes and max(max(s) for s in shapes) <= 10


def test_cv_qft_is_bit_identical_to_its_inline_phases():
    # the oracle is the former inline formula: (X^2 + P^2)/2 built on the one mode, its diagonal's phases
    layout = new_register([qubit(), qumode(10), qumode(6)])
    rng = np.random.default_rng(5)
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    for mode_idx in (1, 2):
        mode = RegisterLayout((layout.subsystems[mode_idx],))
        energies = build(term(0.5, (0, "X", 2)) + term(0.5, (0, "P", 2)), mode).diagonal().real
        phases = np.exp(-1j * energies * (np.pi / 2)).reshape((-1,) + (1,) * (len(layout) - mode_idx - 1))
        assert np.array_equal(cv_qft(state, mode_idx).amplitudes, (phases * state.tensor()).reshape(-1))


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
    state = run_sequence(PulseSequence((Pulse(parse_expr("P@0"), 1.0),)), basis_state(layout, [0]))  # <X>=1, <P>=0
    out = cv_qft(state, 0)
    assert abs(out.expectation(x_op) - 0.0) <= 1e-3
    assert abs(out.expectation(p_op) - (-1.0)) <= 1e-3


def test_cv_qft_fourth_power_is_identity():
    layout = new_register([qumode(64)])
    state = run_sequence(PulseSequence((Pulse(parse_expr("P@0"), 0.8),)), basis_state(layout, [0]))
    out = state
    for _ in range(4):
        out = cv_qft(out, 0)
    assert out.fidelity(state) >= 1.0 - 1e-8
    with pytest.raises(EvolutionError):
        cv_qft(basis_state(new_register([qubit()]), [0]), 0)


def test_report_flags_guard_band_population():
    layout = new_register([qumode(32)])
    ok = run_sequence(PulseSequence(), basis_state(layout, [0]))
    assert leakage(ok) <= LEAKAGE_INVALID and leakage(ok) == 0.0
    bad = run_sequence(PulseSequence(), basis_state(layout, [30]))
    assert not leakage(bad) <= LEAKAGE_INVALID and leakage(bad) == 1.0


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


def _overflowing_pulse(text):
    """A one-pulse sequence on one 16-level mode whose generator overflows float range."""
    return lambda: run_sequence(PulseSequence((Pulse(text, 1e-12),)), basis_state(new_register([qumode(16)]), [0]))


@pytest.mark.parametrize(("call", "fragment"), [
    pytest.param(lambda: PulseSequence.from_text("1.0*sz@0 +2 0.5"), "line 1: sign must be +1 or -1, got '+2'",
                 id="text-sign"),
    pytest.param(lambda: evolution._check_hermitian(np.zeros((2, 3))), "generator must be square, got shape (2, 3)",
                 id="not-square"),
    pytest.param(lambda: evolution._check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]])),
                 "generator is not finite and Hermitian within 1e-10", id="not-hermitian"),
    pytest.param(lambda: evolution._check_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]])),
                 "generator is not finite and Hermitian within 1e-10", id="nan"),
    pytest.param(lambda: evolution._check_hermitian(np.array([[np.inf, 0.0], [0.0, 0.0]])),
                 "generator is not finite and Hermitian within 1e-10", id="inf"),
    pytest.param(_overflowing_pulse("1e306*X@0^6 + 1e306*P@0^6"), "generator is not finite and Hermitian within 1e-10",
                 id="group-overflow"),
    pytest.param(_overflowing_pulse("1e306*X@0^6"), "phase inf exceeds the phase budget", id="energy-overflow"),
    pytest.param(lambda: trotter(parse_expr("sz@0"), 1.0, 0), "n_steps must be >= 1, got 0", id="trotter-steps"),
    *[pytest.param(lambda v=v: PulseSequence.from_text(f"# note\n# repeats {v}\n1.0*sz@0 +1 0.5\n"),
                   f"line 2: repeats must be an integer >= 1, got '# repeats {v}'", id=f"text-repeats-{v}")
      for v in ("0", "-1", "1.5", "x")],
    pytest.param(lambda: Pulse(None, 0.5), "generator must be text or a HamiltonianExpr, got NoneType",
                 id="pulse-generator-type"),
    pytest.param(lambda: PulseSequence.from_text("no-such +1 0.5\n"), "line 1: cannot resolve generator id 'no-such'",
                 id="text-unknown-id"),
    pytest.param(lambda: PulseSequence.from_text("# repeats 2\n# repeats 3\n1.0*sz@0 +1 0.5\n"),
                 "line 2: a second repeats line, got '# repeats 3'", id="text-repeats-twice"),
    pytest.param(lambda: PulseSequence(repeats=0), "repeats must be an integer >= 1, got 0", id="repeats-0"),
    pytest.param(lambda: PulseSequence(repeats=True), "repeats must be an integer >= 1, got True", id="repeats-bool"),
])
def test_each_evolution_check_raises_naming_its_fault(call, fragment):
    # under the project's error::RuntimeWarning an overflow warning would fail the overflow cases
    with pytest.raises(EvolutionError, match=re.escape(fragment)):
        call()
