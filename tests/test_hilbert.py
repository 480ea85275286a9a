import re

import numpy as np
import pytest

from hybridsim.hilbert import (
    DensityMatrix,
    HilbertError,
    RegisterLayout,
    StateVector,
    SubsystemSpec,
    basis_state,
    compress_to_interior,
    guard_start,
    interior_mask,
    join_states,
    new_register,
    qubit,
    qumode,
    reduced_density,
)


def test_register_dims():
    assert new_register([qubit(), qubit()]).total_dim == 4
    assert new_register([qubit(), qumode(32)]).total_dim == 64
    assert new_register([qumode(16), qumode(16)]).total_dim == 256


def test_total_dim_does_not_wrap():
    # 2**64 wraps to 0 in int64; the layout allocates nothing
    assert RegisterLayout((qubit(),) * 64).total_dim == 2**64


def test_register_errors():
    with pytest.raises(HilbertError):
        new_register([])
    with pytest.raises(HilbertError):
        qumode(1)
    with pytest.raises(HilbertError):
        new_register([qubit()]).check_index(1)


def test_basis_state_examples():
    s = basis_state(new_register([qubit()]), [0])
    assert np.allclose(s.amplitudes, [1, 0])

    s = basis_state(new_register([qumode(4)]), [2])
    assert s.amplitudes[2] == 1.0 and np.count_nonzero(s.amplitudes) == 1

    # subsystem 0 is the slowest-varying factor: flat index = 1*3 + 2
    s = basis_state(new_register([qubit(), qumode(3)]), [1, 2])
    assert s.amplitudes[5] == 1.0 and np.count_nonzero(s.amplitudes) == 1

    with pytest.raises(HilbertError):
        basis_state(new_register([qumode(3)]), [3])


def test_basis_states_orthonormal():
    layout = new_register([qubit(), qumode(3)])
    states = [basis_state(layout, [q, n]) for q in range(2) for n in range(3)]
    gram = np.array([[abs(a.overlap(b)) for b in states] for a in states])
    assert np.allclose(gram, np.eye(6), atol=1e-14)


def test_reduced_density_product_state_is_pure():
    layout = new_register([qubit(), qumode(3)])
    rho = reduced_density(basis_state(layout, [1, 2]), [0])
    assert abs(rho.purity() - 1.0) <= 1e-10


def test_reduced_density_bell_state():
    layout = new_register([qubit(), qubit()])
    bell = StateVector(layout, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    rho = reduced_density(bell, [0])
    assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) <= 1e-12


def test_reduced_density_random_state_unit_trace():
    rng = np.random.default_rng(5)
    layout = new_register([qubit(), qumode(3), qubit()])
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    state = StateVector(layout, amps / np.linalg.norm(amps))
    for keep in ([0], [1], [0, 2], [1, 2]):
        rho = reduced_density(state, keep)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-10


def test_density_matrix_invariants_enforced():
    with pytest.raises(HilbertError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(HilbertError):
        DensityMatrix(np.eye(2))


def test_state_vector_is_immutable_and_normalized():
    layout = new_register([qubit()])
    state = basis_state(layout, [0])
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
    with pytest.raises(HilbertError):
        StateVector(layout, np.array([1.0, 1.0]))


def test_join_states():
    a = basis_state(new_register([qubit()]), [1])
    b = basis_state(new_register([qumode(3)]), [2])
    joint = join_states(a, b)
    assert joint.layout.total_dim == 6
    assert joint.amplitudes[5] == 1.0


def test_guard_band_levels():
    assert guard_start(32) == 24
    assert guard_start(16) == 12
    mask = interior_mask(new_register([qubit(), qumode(32)]))
    assert mask.sum() == 2 * 24

    op = np.arange(64 * 64, dtype=float).reshape(64, 64)
    sub = compress_to_interior(op, new_register([qubit(), qumode(32)]))
    assert sub.shape == (48, 48)


_QUBIT = new_register([qubit()])
_TWO_QUBITS = new_register([qubit(), qubit()])


@pytest.mark.parametrize(("call", "fragment"), [
    pytest.param(lambda: SubsystemSpec("qutrit"), "unknown subsystem kind 'qutrit'", id="unknown-kind"),
    pytest.param(lambda: SubsystemSpec("qubit", 2), "qubit takes no cutoff", id="qubit-cutoff"),
    pytest.param(lambda: StateVector(_QUBIT, [1.0, 0.0, 0.0]), "amplitude vector has shape (3,), expected (2,)",
                 id="state-shape"),
    pytest.param(lambda: StateVector(_QUBIT, [np.nan, 0.0]), "state norm deviates from 1 by nan", id="state-nan"),
    pytest.param(lambda: StateVector(_QUBIT, [np.inf, 0.0]), "state norm deviates from 1 by inf", id="state-inf"),
    pytest.param(lambda: DensityMatrix(np.zeros((2, 3))), "density matrix must be square", id="rho-shape"),
    pytest.param(lambda: DensityMatrix(np.diag([1.5, -0.5])), "density matrix has an eigenvalue below -1e-10",
                 id="rho-negative"),
    pytest.param(lambda: DensityMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]])),
                 "density matrix is not Hermitian within 1e-12", id="rho-nan"),
    pytest.param(lambda: DensityMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]])),
                 "density matrix is not Hermitian within 1e-12", id="rho-inf"),
    pytest.param(lambda: reduced_density(basis_state(_TWO_QUBITS, [0, 0]), []), "keep must name at least one subsystem",
                 id="keep-empty"),
    pytest.param(lambda: reduced_density(basis_state(_TWO_QUBITS, [0, 0]), [0, 0]), "repeated subsystem in keep=[0, 0]",
                 id="keep-repeated"),
])
def test_each_hilbert_check_raises_naming_its_fault(call, fragment):
    with pytest.raises(HilbertError, match=re.escape(fragment)):
        call()
