import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsim.hilbert import compress_to_interior, new_register, qubit, qumode
from hybridsim.operators import (
    ExprSyntaxError,
    HamiltonianExpr,
    HamiltonianTerm,
    LocalOp,
    OperatorError,
    build,
    commutator,
    commutator_parts,
    fock_create,
    fock_momentum,
    fock_position,
    format_expr,
    generator_id,
    hermitian_parts,
    parse_expr,
    pauli,
    primitive_set,
    term,
)


def test_position_matrix_elements():
    x = fock_position(2)
    assert abs(x[0, 1] - 1 / np.sqrt(2)) <= 1e-15
    x = fock_position(8)
    assert np.max(np.abs(x - x.conj().T)) == 0.0
    for n in range(7):
        assert abs(x[n, n + 1] - np.sqrt(n + 1) / np.sqrt(2)) <= 1e-14


def test_canonical_commutator_on_interior():
    n = 16
    c = commutator(fock_position(n), fock_momentum(n))
    assert np.max(np.abs(c[: n - 1, : n - 1] - 1j * np.eye(n - 1))) <= 1e-12
    # the top corner is corrupted by construction
    assert abs(c[n - 1, n - 1] - (-1j * (n - 1))) <= 1e-12


def test_momentum_properties():
    p = fock_momentum(8)
    assert np.max(np.abs(p - p.conj().T)) <= 1e-15
    assert abs((p @ p)[0, 0] - 0.5) <= 1e-14  # vacuum momentum variance 1/2
    assert abs(np.trace(p)) <= 1e-15


def test_cutoff_guard():
    with pytest.raises(OperatorError):
        fock_position(1)


def test_pauli_matrices():
    z = pauli("z")
    assert np.allclose(z @ np.array([1, 0]), [1, 0])  # |0> is the spin-up state
    assert np.allclose(commutator(z, pauli("x")), 2j * pauli("y"))
    assert np.allclose(pauli("x") @ pauli("x"), np.eye(2))
    with pytest.raises(OperatorError):
        pauli("q")


def test_build_single_term_matches_kron():
    layout = new_register([qubit(), qumode(16)])
    mat = build(parse_expr("sz@0*P@1"), layout)
    assert np.allclose(mat, np.kron(pauli("z"), fock_momentum(16)), atol=1e-14)


def test_build_oscillator_energy_spectrum():
    # dense-diagonalization oracle: under [X,P]=i the operator X^2+P^2 equals
    # 2n+1 below the truncation-corrupted top levels
    # (truncation also slides corrupted top levels down into the sorted list,
    # so each clean value is matched individually)
    layout = new_register([qumode(16)])
    evals = np.linalg.eigvalsh(build(parse_expr("X@0^2+P@0^2"), layout))
    for n in range(13):
        assert np.min(np.abs(evals - (2 * n + 1))) <= 1e-8
    half = np.linalg.eigvalsh(build(parse_expr("0.5*X@0^2+0.5*P@0^2"), layout))
    for n in range(13):
        assert np.min(np.abs(half - (n + 0.5))) <= 1e-8


def test_build_is_linear():
    rng = np.random.default_rng(7)
    layout = new_register([qubit(), qumode(6)])
    e1 = parse_expr("sz@0*X@1")
    e2 = parse_expr("sx@0+0.3*P@1^2")
    for _ in range(4):
        a, b = rng.normal(), rng.normal()
        lhs = build(a * e1 + b * e2, layout)
        rhs = a * build(e1, layout) + b * build(e2, layout)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_build_validation_errors():
    layout = new_register([qubit(), qumode(4)])
    with pytest.raises(OperatorError):
        HamiltonianExpr(())
    with pytest.raises(OperatorError):
        build(parse_expr("sx@1"), layout)  # pauli on a qumode
    with pytest.raises(OperatorError):
        build(parse_expr("X@0"), layout)  # oscillator op on a qubit
    with pytest.raises(OperatorError):
        build(parse_expr("sz@2"), layout)
    with pytest.raises(OperatorError):
        HamiltonianTerm(1.0, ((0, LocalOp("a")),))  # non-Hermitian factor
    with pytest.raises(OperatorError):
        HamiltonianTerm(0.0, ((0, LocalOp("sz")),))


def test_build_hermitian_on_random_exprs():
    rng = np.random.default_rng(3)
    layout = new_register([qubit(), qumode(8)])
    choices = ["sz@0", "sx@0*X@1", "P@1^2", "X@1^3", "sy@0*P@1"]
    for _ in range(6):
        text = "".join(
            f"{rng.choice(['+', '-'])}{abs(rng.normal()):.6f}*{rng.choice(choices)}"
            for _ in range(3)
        ).lstrip("+")
        mat = build(parse_expr(text), layout)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-10


def test_commutator_examples():
    layout = new_register([qubit(), qumode(16)])
    a = build(parse_expr("sz@0*P@1"), layout)
    b = build(parse_expr("sz@0*X@1"), layout)
    c = compress_to_interior(commutator(a, b), layout)
    assert np.max(np.abs(c - (-1j) * np.eye(c.shape[0]))) <= 1e-12
    assert np.max(np.abs(commutator(a, a))) == 0.0

    # i[P, sx X] points along sx; the constant is measured, not assumed
    p = build(parse_expr("P@1"), layout)
    sxx = build(parse_expr("sx@0*X@1"), layout)
    k = compress_to_interior(1j * commutator(p, sxx), layout)
    sx = compress_to_interior(build(parse_expr("sx@0"), layout), layout)
    scale = np.vdot(sx, k) / np.vdot(sx, sx)
    assert abs(scale.imag) <= 1e-12
    assert np.max(np.abs(k - scale.real * sx)) <= 1e-10
    assert abs(scale.real - 1.0) <= 1e-12

    with pytest.raises(OperatorError):
        commutator(np.eye(2), np.eye(3))


_GENERATOR_TEXTS = ("X@1^3", "sz@0*P@1", "sx@0*X@1", "sy@0*X@1^2", "0.5*P@1^2 - 1.5*sz@0*X@1^3", "sx@0")


@st.composite
def _hermitian_pairs(draw):
    """Two random Hermitian matrices of one dimension in 2..40, or two built generators."""
    if draw(st.booleans()):
        layout = new_register([qubit(), qumode(draw(st.integers(2, 12)))])
        return tuple(build(parse_expr(draw(st.sampled_from(_GENERATOR_TEXTS))), layout) for _ in range(2))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    return tuple(m + m.conj().T for m in mats)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(pair=_hermitian_pairs())
def test_commutator_of_hermitian_matrices_is_exactly_anti_hermitian(pair):
    a, b = pair
    c = commutator(a, b)
    bound = 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    assert np.max(np.abs(c - (a @ b - b @ a))) <= bound
    k = 1j * c
    assert np.array_equal(k, k.conj().T)


@pytest.mark.parametrize("a_text, b_text, homogeneous", [
    ("sx@0*X@1", "sz@0*X@1^2", True),  # real with real
    ("sz@0*P@1", "sy@0*X@1", True),  # imaginary with imaginary
    ("sx@0*X@1", "sz@0*P@1", True),  # real with imaginary
    ("sx@0*X@1 + sy@0*X@1", "sz@0*P@1", False),
    ("sx@0*X@1 + sy@0*X@1", "0.5*P@1^2 - sy@0*P@1 + sz@0*P@1", False),
])
def test_commutator_parts_match_the_complex_product(a_text, b_text, homogeneous):
    layout = new_register([qubit(), qumode(10)])
    a, b = (build(parse_expr(t), layout) for t in (a_text, b_text))
    kr, ki = commutator_parts(hermitian_parts(a), hermitian_parts(b))
    assert (sum(p is not None for p in (kr, ki)) == 1) if homogeneous else (kr is not None and ki is not None)
    k = np.zeros(a.shape, dtype=complex)
    for part, unit in ((kr, 1.0), (ki, 1j)):
        if part is not None:
            assert part.dtype == np.float64
            k += unit * part
    assert np.array_equal(k, k.conj().T)
    bound = 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    assert np.max(np.abs(k - 1j * (a @ b - b @ a))) <= bound
    c = commutator(a, b)
    assert np.array_equal(c, -c.conj().T)
    assert np.max(np.abs(c - (a @ b - b @ a))) <= bound


def test_primitive_set():
    layout = new_register([qubit(), qumode(8)])
    ps = primitive_set(layout, 0, 1)
    assert len(ps) == 3
    assert {g.name for g in ps.members} == {"sxX", "szX", "szP"}
    for g in ps.members:
        mat = build(g.expr, layout)
        assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
        assert abs(np.trace(compress_to_interior(mat, layout))) <= 1e-12
    szp = build(ps.by_name("szP").expr, layout)
    from hybridsim.hilbert import embed

    oracle = embed(pauli("z"), [0], layout) @ embed(fock_momentum(8), [1], layout)
    assert np.max(np.abs(szp - oracle)) <= 1e-12
    with pytest.raises(OperatorError):
        primitive_set(layout, 1, 0)
    with pytest.raises(OperatorError):
        ps.by_name("szY")


def test_ladder_matrices_available_for_oracles():
    a = fock_create(4)
    assert abs(a[3, 2] - np.sqrt(3)) <= 1e-14


# ---------------------------------------------------------------------------
# text grammar


def test_parse_examples_from_grammar():
    e = parse_expr("1.0*sz@0*sz@1")
    assert len(e.terms) == 1 and len(e.terms[0].factors) == 2

    e = parse_expr("0.5*X@1^2 + 0.5*P@1^2")
    assert len(e.terms) == 2

    with pytest.raises(ExprSyntaxError):
        parse_expr("sz@0*sx@0")  # two factors on one subsystem


@pytest.mark.parametrize(
    "text",
    [
        "1.5*sz@0*X@1+0.5*X@1^2",
        "-0.25*P@0^3",
        "sz@0*sz@1",
        "1e-05*X@0 - 2.0*id@0",
        "0.1*sy@2*P@0^2",
    ],
)
def test_round_trip_is_exact(text):
    expr = parse_expr(text)
    assert parse_expr(format_expr(expr)) == expr
    assert parse_expr(format_expr(expr, compact=True)) == expr
    assert parse_expr(generator_id(expr)) == expr


def test_canonical_form_sorts_factors():
    assert generator_id(parse_expr("X@1*sz@0")) == "1.0*sz@0*X@1"


def test_syntax_errors_carry_column():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("sz@0 + ?")
    assert err.value.column == 8
    with pytest.raises(ExprSyntaxError):
        parse_expr("sz@0^2")  # powers only for X and P
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("a@0")  # ladder operators are not Hamiltonian factors
    with pytest.raises(ExprSyntaxError):
        parse_expr("0.5 sz@0")


def test_expr_builder_matches_parser():
    built = term(0.5, (0, "sz"), (1, "X", 2)) + term(-1.0, (1, "P"))
    assert built == parse_expr("0.5*sz@0*X@1^2 - P@1")
