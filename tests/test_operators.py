import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsim import operators
from hybridsim.hilbert import compress_to_interior, new_register, qubit, qumode
from hybridsim.operators import (
    ExprSyntaxError,
    HamiltonianExpr,
    HamiltonianTerm,
    LocalOp,
    SECTOR_TOL,
    OperatorError,
    build,
    commutator,
    fock_create,
    fock_momentum,
    fock_position,
    format_expr,
    generator_id,
    local_factor,
    parse_expr,
    parity_sectors,
    pauli,
    primitive_set,
    realize,
    sector_blocks,
    symbol_commutator,
    symbol_product,
    term,
    weyl_symbol,
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
    bound = 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    c = commutator(a, b)
    assert np.array_equal(c, -c.conj().T)
    assert np.max(np.abs(c - (a @ b - b @ a))) <= bound


def _mccoy(a, b, cutoff):
    """Weyl-ordered x^a p^b on a truncated mode, 2^-a Σ_k C(a,k) X^(a-k) P^b X^k
    (McCoy, PNAS 18, 674 (1932))."""
    x, p = fock_position(cutoff), fock_momentum(cutoff)
    power = np.linalg.matrix_power
    return sum(math.comb(a, k) * power(x, a - k) @ power(p, b) @ power(x, k) for k in range(a + 1)) / 2**a


def _realize(symbol, layout):
    out = np.zeros((layout.total_dim,) * 2, dtype=complex)
    for key, c in symbol.items():
        factors = dict(key)
        mat = np.eye(1)
        for idx, dim in enumerate(layout.dims):
            f = factors.get(idx)
            mat = np.kron(mat, np.eye(dim) if f is None else pauli(f) if isinstance(f, str) else _mccoy(*f, dim))
        out += c * mat
    return out


@st.composite
def _pauli_mode_exprs(draw, dims):
    """One or two terms, each a Pauli string times X^a or P^b (or nothing) per mode."""
    expr = None
    for _ in range(draw(st.integers(1, 2))):
        factors = []
        for idx, dim in enumerate(dims):
            tag = draw(st.sampled_from(("", "sx", "sy", "sz") if dim == 2 else ("", "X", "P")))
            if tag:
                factors.append((idx, tag) if dim == 2 else (idx, tag, draw(st.integers(1, 3))))
        one = term(draw(st.sampled_from((0.5, -1.0, 1.5, -2.25))), *(factors or [(0, "id")]))
        expr = one if expr is None else expr + one
    return expr


@st.composite
def _commutator_cases(draw):
    dims = draw(st.sampled_from(((2, 14), (2, 2, 14), (2, 12, 12))))
    return dims, [draw(_pauli_mode_exprs(dims)) for _ in range(3)], draw(st.booleans())


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=_commutator_cases())
def test_exact_commutator_matches_the_dense_one_below_the_cutoff(case):
    # nested: A = i[E0, E1] carries mixed x^a p^b terms, and B = E2
    dims, exprs, nested = case
    layout = new_register([qubit() if d == 2 else qumode(d) for d in dims])
    symbols = [weyl_symbol(e, layout) for e in exprs]
    mats = [build(e, layout) for e in exprs]
    assert np.allclose(_realize(symbols[0], layout), mats[0], rtol=0, atol=1e-9)
    a_sym, a_mat = symbols[0], mats[0]
    if nested:
        a_sym, a_mat = symbol_commutator(symbols[0], symbols[1]), 1j * (mats[0] @ mats[1] - mats[1] @ mats[0])
    b_sym, b_mat = symbols[2 if nested else 1], mats[2 if nested else 1]
    k = symbol_commutator(a_sym, b_sym)
    assert all(isinstance(c, float) for c in k.values())
    exact, dense = _realize(k, layout), 1j * (a_mat @ b_mat - b_mat @ a_mat)

    # a product of `degree` quadratures is exact on Fock levels below cutoff - degree
    used = exprs[: 3 if nested else 2]
    powers = ([op.power for t in e.terms for _, op in t.factors if op.tag in ("X", "P")] for e in used)
    degree = sum(max(p, default=0) for p in powers)
    levels = np.unravel_index(np.arange(layout.total_dim), dims)
    keep = np.flatnonzero(np.all([lv < d - degree for lv, d in zip(levels, dims) if d > 2], axis=0))
    assert len(keep)
    block = np.ix_(keep, keep)
    assert np.max(np.abs(exact[block] - dense[block])) <= 1e-9 * max(1.0, np.max(np.abs(dense[block])))


def test_symbol_products_are_exact_and_a_non_hermitian_commutator_raises():
    layout = new_register([qubit(), qumode(4)])
    sx, sz, x, p = (weyl_symbol(parse_expr(t), layout) for t in ("sx@0", "sz@0", "X@1", "P@1"))
    assert symbol_product(x, p) == {((1, (1, 1)),): 1.0, (): 0.5j}  # XP = W(xp) + i/2
    assert symbol_commutator(x, p) == {(): -1.0}  # i[X, P] = -1
    assert symbol_commutator(sz, sx) == {((0, "y"),): -2.0}
    product = symbol_product(sx, sz)
    assert product == {((0, "y"),): -1j}  # sx sz = -i sy is not Hermitian
    with pytest.raises(OperatorError):
        symbol_commutator(product, sx)
    with pytest.raises(OperatorError):
        weyl_symbol(parse_expr("X@0"), layout)


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
    oracle = np.kron(pauli("z"), fock_momentum(8))
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


@st.composite
def _leading_block_cases(draw):
    """A symbol of one to three terms, each a Pauli or a mixed x^a p^b (or nothing) per subsystem,
    on a layout of one to three subsystems, with a leading level count per subsystem."""
    dims = draw(st.sampled_from(((9,), (2, 11), (2, 2, 8), (2, 7, 6), (5, 2, 4))))
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
    levels = tuple(draw(st.integers(1, dim)) for dim in dims)
    return dims, symbol, levels


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=_leading_block_cases())
def test_realize_on_leading_levels_is_the_slice_of_the_full_matrix(case):
    dims, symbol, levels = case
    layout = new_register([qubit() if d == 2 else qumode(d) for d in dims])
    full = realize(symbol, layout)
    flat = np.unravel_index(np.arange(layout.total_dim), dims)
    keep = np.flatnonzero(np.all([lv < n for lv, n in zip(flat, levels)], axis=0))
    block = realize(symbol, layout, levels)
    assert block.shape == (len(keep),) * 2
    assert np.array_equal(block, full[np.ix_(keep, keep)])


@st.composite
def _graded_symbol_pairs(draw):
    """Two symbols of one to three terms on a layout of one to three subsystems, each term a
    Pauli or a mixed x^a p^b (or nothing) per subsystem."""
    dims = draw(st.sampled_from(((7,), (2,), (2, 5), (2, 2, 4), (2, 4, 3), (3, 2, 2))))
    symbols = []
    for _ in range(2):
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
            symbol[tuple(key)] = draw(st.floats(-2.0, 2.0).filter(lambda c: abs(c) >= 0.1))
        symbols.append(symbol)
    return dims, symbols


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=_graded_symbol_pairs())
def test_sector_norm_is_the_dense_spectral_norm(case):
    dims, (s1, s2) = case
    layout = new_register([qubit() if d == 2 else qumode(d) for d in dims])
    sectors = parity_sectors([*s1, *s2], layout)
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(layout.total_dim))
    assert all(np.all(np.diff(s) > 0) for s in sectors)
    a, b = realize(s1, layout), realize(s2, layout)
    for m in (a, a @ b, a @ b - 0.7j * b):  # Hermitian and not
        dense = np.linalg.norm(m, 2)
        assert abs(max(np.linalg.norm(b, 2) for b in sector_blocks(m, sectors)) - dense) <= 1e-12 * dense


def test_sector_blocks_refuse_a_matrix_that_joins_two_sectors():
    layout = new_register([qubit(), qumode(4)])
    sectors = parity_sectors(weyl_symbol(parse_expr("sx@0*X@1 + sz@0*P@1^2"), layout), layout)
    assert [s.tolist() for s in sectors] == [[0, 2, 5, 7], [1, 3, 4, 6]]
    m = np.eye(layout.total_dim, dtype=complex)
    m[0, 1] = 0.5 * SECTOR_TOL
    assert [b.shape for b in sector_blocks(m, sectors)] == [(4, 4), (4, 4)]
    m[0, 1] = 2 * SECTOR_TOL
    with pytest.raises(OperatorError, match="joins two parity sectors"):
        sector_blocks(m, sectors)


def _two_product_commutator(a, b):
    """i[A, B] from both products st and ts of every term pair: the reference for
    `symbol_commutator`'s one product per pair."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            st, ts = symbol_product({ka: ca}, {kb: cb}), symbol_product({kb: cb}, {ka: ca})
            for key in {**st, **ts}:
                out[key] = out.get(key, 0.0) + 1j * (st.get(key, 0.0) - ts.get(key, 0.0))
    assert not any(c.imag for c in out.values())
    return {key: c.real for key, c in out.items() if c}


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=_graded_symbol_pairs())
def test_symbol_commutator_is_bit_identical_to_both_products_from_one_per_term_pair(case):
    _, (s1, s2) = case
    for a, b in ((s1, s2), (s2, s1), (s1, symbol_commutator(s1, s2))):
        expected = _two_product_commutator(a, b)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "symbol_product", lambda *args: calls.append(args) or symbol_product(*args))
            got = symbol_commutator(a, b)
        assert list(got.items()) == list(expected.items())
        assert len(calls) == len(a) * len(b)


def _kron_realize(symbol, layout, levels):
    """`realize` with ``np.kron`` of freshly formed sliced factors: the reference for its
    broadcast products and shared factor table."""
    out = np.zeros((math.prod(levels),) * 2, dtype=complex)
    for key, c in symbol.items():
        factors = dict(key)
        mat = np.ones((1, 1), dtype=complex)
        for idx, (dim, n) in enumerate(zip(layout.dims, levels)):
            mat = np.kron(mat, local_factor(factors.get(idx), dim)[:n, :n])
        mat *= c
        out += mat
    return out


@st.composite
def _shared_table_cases(draw):
    """Two symbols as in `_graded_symbol_pairs`, with a leading level count per subsystem."""
    dims, symbols = draw(_graded_symbol_pairs())
    return dims, symbols, tuple(draw(st.integers(1, dim)) for dim in dims)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=_shared_table_cases())
def test_realize_is_bit_identical_to_kronecker_products_of_its_shared_factors(case):
    dims, symbols, levels = case
    layout = new_register([qubit() if d == 2 else qumode(d) for d in dims])
    for lv in (layout.dims, levels):
        table = {}
        for symbol in symbols:  # the second symbol reads the factors the first one formed
            expected = _kron_realize(symbol, layout, lv)
            assert np.array_equal(realize(symbol, layout, lv, table), expected)
            assert np.array_equal(realize(symbol, layout, lv), expected)
        used = {(dict(key).get(idx), dim, n) for symbol in symbols for key in symbol
                for idx, (dim, n) in enumerate(zip(dims, lv))}
        assert set(table) == used
        for (f, dim, n), factor in table.items():
            assert not factor.flags.writeable
            assert np.array_equal(factor, local_factor(f, dim)[:n, :n])


def test_realize_forms_a_one_term_symbol_in_one_block_with_the_bits_of_a_zero_sum():
    layout, levels = new_register([qubit(), qubit(), qumode(32)]), (2, 2, 24)
    symbol = {((0, "z"), (2, (1, 0))): -1.25}  # a negative coefficient makes -0.0 products
    table = {}
    got = realize(symbol, layout, levels, table)
    assert got.tobytes() == _kron_realize(symbol, layout, levels).tobytes()  # array_equal takes -0.0 for 0.0
    head, last = np.kron(table["z", 2, 2], table[None, 2, 2]), table[(1, 0), 32, 24]

    def peak(form):
        tracemalloc.start()
        try:
            form()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the term's product is the one block formed: there is no zero block to add it into
    product = peak(lambda: head[:, None, :, None] * last[None, :, None, :])
    assert product >= got.nbytes
    assert peak(lambda: realize(symbol, layout, levels, table)) < product + 16384


def test_the_moyal_table_forms_each_monomial_pair_once(monkeypatch):
    monomials = [(a, b) for a in range(5) for b in range(5) if a or b]
    symbols = [{((0, m),): 1.0} for m in monomials]
    calls = []
    moyal = operators._moyal
    monkeypatch.setattr(operators, "_moyal", lambda f, g: calls.append((f, g)) or moyal(f, g))
    table = {}
    shared = [symbol_commutator(a, b, table) for a in symbols for b in symbols]
    assert len(calls) == len(table) == len(monomials) ** 2
    assert set(table) == {(f, g) for f in monomials for g in monomials}
    assert shared == [symbol_commutator(a, b) for a in symbols for b in symbols]
    for (f, g), terms in table.items():
        assert isinstance(terms, tuple) and terms == tuple(moyal(f, g))


def test_orthonormal_factors_closes_a_chain_of_supports_into_one_block():
    # supports chain a-b-c with a and c disjoint, so a and c meet only through b; d meets none of them
    rng = np.random.default_rng(5)
    support = {"a": [0, 1], "b": [1, 2, 3], "c": [3, 4], "d": [5, 6]}
    vecs = np.zeros((4, 7))
    for row, name in enumerate("acbd"):  # c before b: a's and c's blocks first meet through a later row
        vecs[row, support[name]] = rng.normal(size=len(support[name]))
    rows, coords = operators._orthonormal_factors(vecs)
    assert rows.shape == (4, 7) and coords.shape == (4, 4)
    chain, alone = [0, 1, 2], [3]
    assert not coords[np.ix_(chain, alone)].any() and not coords[np.ix_(alone, chain)].any()
    assert not rows[chain][:, support["d"]].any() and not np.delete(rows[3], support["d"]).any()
    assert np.abs(rows @ rows.T - np.eye(4)).max() <= 1e-14
    assert np.abs(coords.T @ rows - vecs).max() <= 1e-14


@pytest.mark.parametrize(("call", "error", "fragment"), [
    pytest.param(lambda: LocalOp("X", 0), OperatorError, "operator power must be >= 1, got 0", id="power-0"),
    pytest.param(lambda: HamiltonianTerm(1.0, ()), OperatorError, "term needs at least one factor", id="no-factor"),
    pytest.param(lambda: HamiltonianTerm(1.0, ((0, LocalOp("sx")), (0, LocalOp("sz")))), OperatorError,
                 "at most one factor per subsystem; repeated index in [0, 0]", id="repeated-index"),
    pytest.param(lambda: parse_expr("sx0"), ExprSyntaxError, "expected '@' after operator name, got '0'", id="no-at"),
    pytest.param(lambda: parse_expr("X@1^1.5"), ExprSyntaxError, "expected integer power, got '1.5'", id="power"),
    pytest.param(lambda: parse_expr("sx@0 sz@1"), ExprSyntaxError, "expected '+' or '-' between terms, got 'sz'",
                 id="no-sign"),
    pytest.param(lambda: parse_expr("0*sx@0"), ExprSyntaxError, "term coefficient must be finite and nonzero, got 0.0",
                 id="term-error"),
    pytest.param(lambda: primitive_set(new_register([qubit(), qubit()]), 0, 1), OperatorError,
                 "subsystem 1 is not a qumode", id="primitive-mode"),
])
def test_each_operator_check_raises_naming_its_fault(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as info:
        call()
    assert type(info.value) is error
