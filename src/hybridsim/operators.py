"""Local operators and the Hamiltonian-expression algebra.

Quadrature convention (normative for the whole package):

    X = (a + a†)/√2,   P = (a - a†)/(i√2),   so  [X, P] = i.

On a Fock space truncated at ``cutoff`` the identity ``[X, P] = i·I``
holds exactly on levels ``0 .. cutoff-2``; the ``(cutoff-1, cutoff-1)``
corner is corrupted by construction.  All commutator identities are
therefore asserted on the guard-banded interior block only.

Hamiltonians are real-weighted sums of tensor products of local Hermitian
operators, one factor per subsystem at most.  They have a canonical text
form, e.g. ``1.5 * sz@0 * X@1 + 0.5 * X@1^2``; see `parse_expr` for the
grammar.  The compact (space-free) rendering of an expression doubles as
the stable generator id used by pulse sequences and the synthesis registry.

Without a cutoff an expression is exactly its Weyl symbol (`weyl_symbol`), on
which `symbol_commutator` forms i[A, B] with no truncation corner.  Its keys
also give the register's parity sectors (`parity_sectors`), over which every
matrix built from them is block-diagonal, so it is read block by block
(`sector_blocks`).  One realizer, `realize`, turns a symbol into its dense
matrix on the truncated space or into only its block on leading levels (the
closure's interior); `build` is `realize` of an expression's symbol, and
`commutator` is the one dense one.
`product_coordinates` reads symbols on leading levels in a factored form: real
coordinates over products of per-subsystem orthonormal bases, whose dot
products are those of the realized blocks.  Both read sliced local factors
from a table the closure report owns (`sliced_factor`), and `symbol_product`
reads Moyal weights from one its search owns: a run forms each entry once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hilbert import RegisterLayout

QUBIT_TAGS = ("sx", "sy", "sz")
QUMODE_TAGS = ("X", "P")
ALL_TAGS = QUBIT_TAGS + QUMODE_TAGS + ("id",)


class OperatorError(ValueError):
    """Raised for ill-formed operators or Hamiltonian expressions."""


class ExprSyntaxError(OperatorError):
    """Hamiltonian text that does not parse; carries a 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


# ---------------------------------------------------------------------------
# local operator matrices


def fock_annihilate(cutoff: int) -> np.ndarray:
    if cutoff < 2:
        raise OperatorError(f"cutoff must be >= 2, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


def fock_create(cutoff: int) -> np.ndarray:
    return fock_annihilate(cutoff).conj().T


def fock_position(cutoff: int) -> np.ndarray:
    """Truncated X = (a + a†)/√2; Hermitian tridiagonal, <n|X|n+1> = √(n+1)/√2."""
    a = fock_annihilate(cutoff)
    return (a + a.conj().T) / np.sqrt(2.0)


def fock_momentum(cutoff: int) -> np.ndarray:
    """Truncated P = (a - a†)/(i√2)."""
    a = fock_annihilate(cutoff)
    return (a - a.conj().T) / (1j * np.sqrt(2.0))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(tag: str) -> np.ndarray:
    """Standard Pauli matrix; |0> = spin-up eigenstate of sigma_z."""
    if tag not in _PAULI:
        raise OperatorError(f"pauli tag must be one of x, y, z; got {tag!r}")
    return _PAULI[tag].copy()


@dataclass(frozen=True)
class LocalOp:
    """One local Hermitian factor: a Pauli, the identity, or X^n / P^n."""

    tag: str
    power: int = 1

    def __post_init__(self):
        if self.tag not in ALL_TAGS:
            raise OperatorError(f"unknown local operator tag {self.tag!r}")
        if self.power < 1:
            raise OperatorError(f"operator power must be >= 1, got {self.power}")
        if self.power > 1 and self.tag not in ("X", "P"):
            raise OperatorError(f"powers are only defined for X and P, not {self.tag!r}")


# ---------------------------------------------------------------------------
# Hamiltonian expressions


@dataclass(frozen=True)
class HamiltonianTerm:
    """Real coefficient times a tensor product of local Hermitian factors."""

    coefficient: float
    factors: tuple[tuple[int, LocalOp], ...]

    def __post_init__(self):
        coeff = float(self.coefficient)
        if not np.isfinite(coeff) or coeff == 0.0:
            raise OperatorError(f"term coefficient must be finite and nonzero, got {coeff}")
        if not self.factors:
            raise OperatorError("term needs at least one factor")
        idxs = [i for i, _ in self.factors]
        if len(set(idxs)) != len(idxs):
            raise OperatorError(f"at most one factor per subsystem; repeated index in {idxs}")
        object.__setattr__(self, "coefficient", coeff)
        object.__setattr__(self, "factors", tuple(sorted(self.factors, key=lambda f: f[0])))


@dataclass(frozen=True)
class HamiltonianExpr:
    """Sum of HamiltonianTerms; Hermitian by construction."""

    terms: tuple[HamiltonianTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise OperatorError("expression needs at least one term")

    def __add__(self, other: HamiltonianExpr) -> HamiltonianExpr:
        return HamiltonianExpr(self.terms + other.terms)

    def __rmul__(self, c: float) -> HamiltonianExpr:
        return HamiltonianExpr(tuple(HamiltonianTerm(c * t.coefficient, t.factors) for t in self.terms))

    def __neg__(self) -> HamiltonianExpr:
        return (-1.0) * self


def term(coefficient: float, *factors: tuple[int, str] | tuple[int, str, int]) -> HamiltonianExpr:
    """Single-term expression builder: term(0.5, (0, "sz"), (1, "X", 2))."""
    ops = []
    for f in factors:
        idx, tag = f[0], f[1]
        power = f[2] if len(f) > 2 else 1
        ops.append((idx, LocalOp(tag, power)))
    return HamiltonianExpr((HamiltonianTerm(coefficient, tuple(ops)),))


def check_factor(idx: int, op: LocalOp, layout: RegisterLayout) -> None:
    """Raise OperatorError unless ``op@idx`` names a subsystem of the right kind."""
    if not 0 <= idx < len(layout):
        raise OperatorError(f"factor {op.tag}@{idx}: no subsystem {idx} in a {len(layout)}-subsystem layout")
    if op.tag in QUBIT_TAGS and not layout.is_qubit(idx):
        raise OperatorError(f"{op.tag} at subsystem {idx}: not a qubit")
    if op.tag in QUMODE_TAGS and not layout.is_qumode(idx):
        raise OperatorError(f"{op.tag} at subsystem {idx}: not a qumode")


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA for Hermitian A and B, as C - C† with C = AB: one product.

    Precondition: A and B are Hermitian, so that BA = (AB)†; for other
    inputs the result is not their commutator.  The result is exactly
    anti-Hermitian, so i[A, B] is exactly Hermitian.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise OperatorError(f"commutator shape mismatch: {a.shape} vs {b.shape}")
    c = a @ b
    c -= c.conj().T  # from a copy of C, so C† is read before C is written
    return c


# ---------------------------------------------------------------------------
# exact Weyl-symbol algebra (no cutoff)

# A symbol maps a key to a coefficient.  The key lists a term's non-identity
# factors by subsystem: (idx, "x" | "y" | "z") for a Pauli on a qubit, and
# (idx, (a, b)) for the Weyl-ordered monomial x^a p^b on a mode.
Symbol = dict[tuple, complex]


def weyl_symbol(expr: HamiltonianExpr, layout: RegisterLayout) -> Symbol:
    """The Weyl symbol of an expression, its factors checked as `build` checks them:
    ``X^a`` and ``P^b`` become x^a and p^b, and ``id`` becomes 1."""
    out: Symbol = {}
    for t in expr.terms:
        for idx, op in t.factors:
            check_factor(idx, op, layout)
        key = tuple((idx, op.tag[1] if op.tag in QUBIT_TAGS else (op.power, 0) if op.tag == "X" else (0, op.power))
                    for idx, op in t.factors if op.tag != "id")
        out[key] = out.get(key, 0.0) + t.coefficient
    return {key: c for key, c in out.items() if c}


def parity_sectors(keys, layout: RegisterLayout) -> list[np.ndarray]:
    """The register's parity sectors under generators with these symbol keys, as ascending
    basis-index sets.

    A basis state's parity vector has bit i set for a qubit in |1> or an odd Fock number on
    mode i.  A key flips bit i for an x or y Pauli on qubit i, and for x^a p^b with a + b odd
    on mode i: truncated X and P change the Fock number by exactly one.  So every matrix
    realized from the keys only joins states whose parity vectors differ by an element of
    the keys' GF(2) span, and is block-diagonal over its cosets, the sectors.  A state's label
    is its vector reduced by an xor basis of the span (distinct leading bits, largest first)."""
    span: list[int] = []
    for key in keys:
        v = sum(1 << idx for idx, f in key if (f in "xy" if isinstance(f, str) else sum(f) % 2))
        for w in span:
            v = min(v, v ^ w)
        if v:
            span = sorted(span + [v], reverse=True)
    label = reduce(lambda acc, bits: (acc[:, None] + bits).ravel(),
                   [(np.arange(dim) % 2) << i for i, dim in enumerate(layout.dims)])
    for w in span:
        label = np.minimum(label, label ^ w)
    counts = np.bincount(label)
    return np.split(np.argsort(label, kind="stable"), np.cumsum(counts[counts > 0])[:-1])


# Where a matrix formed from the keys joins two of their sectors, its entries are rounding:
# at most 1.3e-15 in the gate-synthesis benchmark's step and target unitaries (seeds 5, 7, 11;
# unitary entries are at most 1), and exactly 0 in realized generators.  Each sector's stack of
# those unitaries' blocks (`synthesis.power_distances`) departs from unitarity by at most 2.5e-14.
SECTOR_TOL = 1e-10


def sector_blocks(m: np.ndarray, sectors: list[np.ndarray]) -> list[np.ndarray]:
    """The diagonal blocks of ``m``, a matrix or a stack (..., d, d) of them, on its parity sectors
    (`parity_sectors`, which partition the register; a subset would leave entries unread): each
    sector's columns are gathered, then their rows.  Raises OperatorError when an entry joining two
    sectors, which is every entry of those columns outside the block, exceeds SECTOR_TOL, so a
    matrix that does not conserve them is never read by its blocks.  One sector is all of ``m``,
    returned uncopied; more cost one pass over ``m``'s entries."""
    if len(sectors) == 1:
        return [m]
    blocks, leak = [], 0.0
    for s in sectors:
        columns = m.take(s, axis=-1)
        blocks.append(columns.take(s, axis=-2))
        columns[..., s, :] = 0.0
        leak = max(leak, float(np.abs(columns).max()))
    if leak > SECTOR_TOL:
        raise OperatorError(f"an entry of modulus {leak:.3e} joins two parity sectors (tolerance {SECTOR_TOL:g})")
    return blocks


def _moyal(f: tuple[int, int], g: tuple[int, int]) -> list[tuple[tuple[int, int] | None, complex]]:
    """x^a p^b ⋆ x^c p^d, None standing for the monomial 1.  Order n of the Moyal sum,
    (i/2)^n / n! Σ_k C(n,k) (-1)^k ∂x^(n-k) ∂p^k f · ∂x^k ∂p^(n-k) g, is x^(a+c-n) p^(b+d-n)
    times an integer weight."""
    (a, b), (c, d) = f, g
    out = []
    for n in range(min(a, d) + min(b, c) + 1):
        weight = sum((-1) ** k * math.comb(n, k) * math.perm(a, n - k) * math.perm(b, k) * math.perm(c, k)
                     * math.perm(d, n - k) for k in range(n + 1))
        mono = (a + c - n, b + d - n)
        out.append((mono if any(mono) else None, weight / (2**n * math.factorial(n)) * (1, 1j, -1, -1j)[n % 4]))
    return out


def symbol_product(a: Symbol, b: Symbol, moyal: dict | None = None) -> Symbol:
    """The symbol of the operator product AB: per subsystem, a Pauli product on a qubit
    and the Moyal product on a mode (Groenewold, Physica 12, 405 (1946); Moyal,
    Proc. Camb. Phil. Soc. 45, 99 (1949)).  ``moyal`` maps a monomial pair to its `_moyal`
    terms, filled on first use; without it, a table lasts this call."""
    moyal = {} if moyal is None else moyal
    out: Symbol = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            fa, fb = dict(ka), dict(kb)
            terms = [((), ca * cb)]
            for idx in sorted(fa.keys() | fb.keys()):
                f, g = fa.get(idx), fb.get(idx)
                if f is None or g is None:
                    local = [(f or g, 1.0)]
                elif isinstance(f, str):  # sigma_f sigma_g = i eps_fgh sigma_h
                    local = [(None, 1.0)] if f == g else [("xyz".strip(f + g), 1j if f + g in "xyzx" else -1j)]
                elif (f, g) in moyal:
                    local = moyal[f, g]
                else:
                    local = moyal[f, g] = tuple(_moyal(f, g))
                terms = [(key + ((idx, h),) if h else key, c * ch) for key, c in terms for h, ch in local]
            for key, c in terms:
                out[key] = out.get(key, 0.0) + c
    return {key: c for key, c in out.items() if c}


def symbol_commutator(a: Symbol, b: Symbol, moyal: dict | None = None) -> dict[tuple, float]:
    """i[A, B] from the symbols of two Hermitian operators, as real coefficients.

    Each pair of terms s, t adds i(st - ts) = -2 Im(st), from one `symbol_product` per pair, all
    sharing ``moyal``: for real s and t, ts is the exact conjugate of st.  An input coefficient
    that is not real raises OperatorError."""
    if any(c.imag for c in (*a.values(), *b.values())):
        raise OperatorError("an input symbol has an imaginary coefficient: it is not Hermitian")
    moyal = {} if moyal is None else moyal
    out: dict[tuple, float] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            for key, c in symbol_product({ka: ca}, {kb: cb}, moyal).items():
                out[key] = out.get(key, 0.0) - 2.0 * c.imag
    return {key: c for key, c in out.items() if c}


# ---------------------------------------------------------------------------
# dense realization on the truncated space


def _monomial_matrix(a: int, b: int, cutoff: int) -> np.ndarray:
    """Weyl-ordered x^a p^b on a truncated mode: the matrix power X^a or P^b of the truncated
    quadrature when pure, so products stay inside the truncated space (the corner caveat above
    applies), else McCoy's 2^-a Σ_k C(a,k) X^(a-k) P^b X^k (McCoy, PNAS 18, 674 (1932)).  A factor
    whose Frobenius norm overflows is refused with an OperatorError."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not a or not b:
            m = np.linalg.matrix_power(fock_position(cutoff) if a else fock_momentum(cutoff), a or b)
        else:
            x, power = fock_position(cutoff), np.linalg.matrix_power
            p = power(fock_momentum(cutoff), b)
            m = sum(math.comb(a, k) * power(x, a - k) @ p @ power(x, k) for k in range(a + 1)) / 2**a
        if not np.isfinite(np.linalg.norm(m)):
            raise OperatorError(f"mode factor x^{a} p^{b} on cutoff {cutoff} overflows (its norm is not finite)")
    return m


def local_factor(f: str | tuple[int, int] | None, dim: int) -> np.ndarray:
    """The matrix of one subsystem's factor of a symbol key on ``dim`` levels: the identity for
    None, the Pauli of a letter, or the mode monomial x^a p^b of (a, b) (`_monomial_matrix`)."""
    return np.eye(dim) if f is None else pauli(f) if isinstance(f, str) else _monomial_matrix(*f, dim)


def sliced_factor(table: dict, f: str | tuple[int, int] | None, dim: int, n: int) -> np.ndarray:
    """``local_factor(f, dim)[:n, :n]`` from ``table``, formed and stored read-only on first request."""
    if (f, dim, n) not in table:
        table[f, dim, n] = local_factor(f, dim)[:n, :n]
        table[f, dim, n].flags.writeable = False
    return table[f, dim, n]


def realize(symbol: Symbol, layout: RegisterLayout, levels: tuple[int, ...] | None = None,
            factors: dict | None = None) -> np.ndarray:
    """The dense matrix of a symbol on the layout's truncated space: each term is the Kronecker
    product over subsystems of its `local_factor`s.  A monomial of total degree n is exact on
    Fock levels below cutoff - n.  ``levels`` (one count per subsystem) forms only the block on
    each subsystem's leading levels: each factor is sliced before the Kronecker product, so the
    block is bit-identical to that slice of the full matrix.  Factors come from ``factors`` (a
    `sliced_factor` table, one per call by default); each Kronecker product is ``np.kron``'s multiply."""
    levels = layout.dims if levels is None else levels
    factors = {} if factors is None else factors
    out = np.zeros((math.prod(levels),) * 2, dtype=complex)
    for key, c in symbol.items():
        local = dict(key)
        mat = np.ones((1, 1), dtype=complex)
        for idx, (dim, n) in enumerate(zip(layout.dims, levels)):
            f = sliced_factor(factors, local.get(idx), dim, n)
            mat = (mat[:, None, :, None] * f[None, :, None, :]).reshape(len(mat) * n, -1)
        mat *= c
        out += mat
    return out


def build(expr: HamiltonianExpr, layout: RegisterLayout) -> np.ndarray:
    """Realize an expression as a dense Hermitian matrix on the layout."""
    return realize(weyl_symbol(expr, layout), layout)


# ---------------------------------------------------------------------------
# product coordinates of blocks on leading levels
#
# A symbol key's block on leading levels is a Kronecker product of its sliced local
# factors, so symbols that use few distinct factors per subsystem live in the span of
# products of short per-subsystem orthonormal bases of Hermitian matrices.  Their
# coordinates there are real, and their dot products are the Hilbert-Schmidt inner
# products of the blocks.


def packed(block: np.ndarray, upper: np.ndarray | None = None) -> np.ndarray:
    """Packed real coordinates of a Hermitian m×m block: the m diagonal entries, then √2·Re
    and √2·Im of the strict upper triangle (``upper``, its boolean mask, from a caller that
    packs many blocks), m² reals whose dot product is the Hilbert-Schmidt inner product of
    two such blocks.  Only the upper triangle is read, so the block must be Hermitian."""
    off = block[np.triu(np.ones(block.shape, dtype=bool), 1) if upper is None else upper]
    return np.concatenate([block.diagonal().real, np.sqrt(2.0) * off.real, np.sqrt(2.0) * off.imag])


def _hermitian(vec: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The Hermitian block of packed coordinates, `packed`'s inverse."""
    n, k = len(upper), int(upper.sum())
    block = np.zeros(upper.shape, dtype=complex)
    block[upper] = (vec[n:n + k] + 1j * vec[n + k:]) / np.sqrt(2.0)
    block += block.conj().T
    block[np.diag_indices(n)] = vec[:n]
    return block


def product_block(coords: np.ndarray, local_bases: tuple[np.ndarray, ...]) -> np.ndarray:
    """The m×m block Σ_α coords[α] ⊗ᵢ local_bases[i][αᵢ] of product coordinates."""
    t = coords.reshape([len(e) for e in local_bases])
    for e in local_bases:  # each contraction appends one subsystem's (row, column) axes
        t = np.tensordot(t, e, axes=([0], [0]))
    n = len(local_bases)
    m = math.prod(e.shape[1] for e in local_bases)
    return t.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(m, m)


def block_coordinates(block: np.ndarray, local_bases: tuple[np.ndarray, ...]) -> np.ndarray:
    """Product coordinates of a Hermitian m×m block's projection on the span of the products:
    its Hilbert-Schmidt inner product with each, ⟨⊗ᵢ eᵢ, block⟩ = Σ block[j, k] Πᵢ conj(eᵢ[jᵢ, kᵢ])."""
    n = len(local_bases)
    t = block.reshape([e.shape[1] for e in local_bases] * 2)
    for i, e in enumerate(local_bases):  # contracts subsystem i's (row, column) axes, appends its α axis
        t = np.tensordot(t, e.conj(), axes=([0, n - i], [1, 2]))
    return t.real.ravel()


def _orthonormal_factors(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the rows of ``vecs``, and each row's coordinates in them.

    Each row is scaled to unit norm before the QR, so that it keeps its own relative precision,
    and the coordinates are R's columns times the norms.  Rows whose supports connect form one
    block, orthonormalized by its own QR on its own support: the zeros a factor has by parity
    and reality stay exact, so a product block in the span of others leaves a residual of
    rounding squared against them, not a rounding leak from a reflector across blocks."""
    support = vecs != 0
    reach = support @ support.T
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    norms = np.linalg.norm(vecs, axis=1)
    rows, coords = [np.zeros((0, vecs.shape[1]))], [np.zeros((0, len(vecs)))]
    # one QR per component, from its first row; a factor that vanishes there reaches no row
    for first in [i for i in range(len(vecs)) if reach[i, i] and not reach[i, :i].any()]:
        members, cols = reach[first], support[reach[first]].any(axis=0)
        q, r = np.linalg.qr((vecs[members][:, cols] / norms[members, None]).T)
        rows.append(np.zeros((q.shape[1], vecs.shape[1])))
        rows[-1][:, cols] = q.T
        coords.append(np.zeros((len(r), len(vecs))))
        coords[-1][:, members] = r * norms[members]
    return np.concatenate(rows), np.concatenate(coords)


def product_coordinates(symbols: list[Symbol], layout: RegisterLayout, levels: tuple[int, ...],
                        factors: dict | None = None) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Local bases on each subsystem's ``levels`` leading levels, and the product coordinates
    of each symbol's block there.

    ``local_bases[i]`` (complex, r_i×n_i×n_i) orthonormally spans the distinct factors the
    symbols use on subsystem i (`sliced_factor` of ``factors``, as in `realize`), found once from
    their packed coordinates (`_orthonormal_factors`).  A symbol's coordinates are Σ_key c ⊗ᵢ (local
    coordinates of the key's factor on i), Π r_i reals, formed for all symbols at once by
    contracting a (symbol, factor on 0, factor on 1, ...) coefficient table with each
    subsystem's factor coordinates."""
    used = [list(dict.fromkeys(dict(key).get(idx) for symbol in symbols for key in symbol))
            for idx in range(len(levels))]
    table = np.zeros([len(symbols)] + [len(u) for u in used])
    index = [{f: j for j, f in enumerate(u)} for u in used]
    for k, symbol in enumerate(symbols):
        for key, c in symbol.items():
            local = dict(key)
            table[(k, *(ix[local.get(idx)] for idx, ix in enumerate(index)))] = c
    factors = {} if factors is None else factors
    bases = []
    for fs, dim, n in zip(used, layout.dims, levels):
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        vecs = np.array([packed(sliced_factor(factors, f, dim, n), upper) for f in fs]).reshape(-1, n * n)
        rows, coords = _orthonormal_factors(vecs)
        bases.append(np.array([_hermitian(row, upper) for row in rows]).reshape(-1, n, n))
        table = np.tensordot(table, coords, axes=([1], [1]))  # factor axis -> coordinate axis, at the end
    return tuple(bases), table.reshape(len(symbols), math.prod(len(e) for e in bases))


# ---------------------------------------------------------------------------
# canonical text form

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z]+)"
    r"|(?P<sym>[@^*+\-]))"
)


def format_expr(expr: HamiltonianExpr, compact: bool = False) -> str:
    """Canonical rendering; ``compact=True`` (no spaces) is the generator-id form.

    Round trip is exact: coefficients print via ``repr`` and factors are
    sorted by subsystem, so ``parse_expr(format_expr(e)) == e``.
    """
    sep = "" if compact else " "
    parts: list[str] = []
    for i, t in enumerate(expr.terms):
        mag = abs(t.coefficient)
        sign = "-" if t.coefficient < 0 else "+"
        factors = [
            f"{op.tag}@{idx}" + (f"^{op.power}" if op.power > 1 else "") for idx, op in t.factors
        ]
        body = f"{sep}*{sep}".join([repr(mag)] + factors)
        if i == 0:
            parts.append(body if sign == "+" else f"-{sep}{body}" if not compact else f"-{body}")
        else:
            parts.append(f"{sep}{sign}{sep}{body}")
    return "".join(parts)


def generator_id(expr: HamiltonianExpr) -> str:
    """Stable, space-free id for a Hamiltonian (used by pulses and registries)."""
    return format_expr(expr, compact=True)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                col = len(text) - len(stripped) + 1
                raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", col)
            kind = m.lastgroup or "sym"
            self.items.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", len(self.text) + 1)

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.i += 1
        return tok


def _parse_factor(toks: _Tokens) -> tuple[int, LocalOp]:
    kind, val, col = toks.next()
    if kind != "name":
        raise ExprSyntaxError(f"expected operator name, got {val!r}", col)
    if val not in ALL_TAGS:
        raise ExprSyntaxError(f"unknown operator {val!r} (use sx, sy, sz, id, X, P)", col)
    kind, sym, col = toks.next()
    if sym != "@":
        raise ExprSyntaxError(f"expected '@' after operator name, got {sym!r}", col)
    kind, idx_text, col = toks.next()
    if kind != "number" or not idx_text.isdigit():
        raise ExprSyntaxError(f"expected subsystem index, got {idx_text!r}", col)
    power = 1
    if toks.peek()[1] == "^":
        toks.next()
        kind, pow_text, col = toks.next()
        if kind != "number" or not pow_text.isdigit():
            raise ExprSyntaxError(f"expected integer power, got {pow_text!r}", col)
        power = int(pow_text)
    try:
        op = LocalOp(val, power)
    except OperatorError as exc:
        raise ExprSyntaxError(str(exc), col) from None
    return int(idx_text), op


def _parse_term(toks: _Tokens, sign: float) -> HamiltonianTerm:
    coeff = 1.0
    factors: list[tuple[int, LocalOp]] = []
    kind, val, col = toks.peek()
    if kind == "number":
        toks.next()
        coeff = float(val)
        kind, sym, col = toks.peek()
        if sym != "*":
            raise ExprSyntaxError("a coefficient must be followed by '*' and a factor", col)
        toks.next()
    factors.append(_parse_factor(toks))
    while toks.peek()[1] == "*":
        toks.next()
        factors.append(_parse_factor(toks))
    seen = [i for i, _ in factors]
    if len(set(seen)) != len(seen):
        raise ExprSyntaxError(
            "two factors on one subsystem in a single term; pre-multiply them instead", col
        )
    try:
        return HamiltonianTerm(sign * coeff, tuple(factors))
    except OperatorError as exc:
        raise ExprSyntaxError(str(exc), col) from None


def parse_expr(text: str) -> HamiltonianExpr:
    """Parse the canonical Hamiltonian grammar.

    ::

        expr    := ['-'] term (('+' | '-') term)*
        term    := [NUMBER '*'] factor ('*' factor)*
        factor  := NAME '@' INT ['^' INT]
        NAME    := sx | sy | sz | id | X | P

    Whitespace is insignificant.  Raises ExprSyntaxError with a 1-based
    column on malformed input.
    """
    toks = _Tokens(text)
    if toks.peek()[0] == "eof":
        raise ExprSyntaxError("empty expression", 1)
    sign = 1.0
    if toks.peek()[1] == "-":
        toks.next()
        sign = -1.0
    terms = [_parse_term(toks, sign)]
    while True:
        kind, sym, col = toks.peek()
        if kind == "eof":
            break
        if sym not in ("+", "-"):
            raise ExprSyntaxError(f"expected '+' or '-' between terms, got {sym!r}", col)
        toks.next()
        terms.append(_parse_term(toks, 1.0 if sym == "+" else -1.0))
    return HamiltonianExpr(tuple(terms))


# ---------------------------------------------------------------------------
# the primitive interaction set


@dataclass(frozen=True)
class NamedGenerator:
    """A Hamiltonian with a short name and its stable generator id."""

    name: str
    expr: HamiltonianExpr

    @property
    def generator_id(self) -> str:
        return generator_id(self.expr)


@dataclass(frozen=True)
class PrimitiveSet:
    """The three drivable spin/mode interactions {sx·X, sz·X, sz·P}."""

    spin: int
    mode: int
    members: tuple[NamedGenerator, ...]

    def __len__(self) -> int:
        return len(self.members)

    def by_name(self, name: str) -> NamedGenerator:
        for g in self.members:
            if g.name == name:
                return g
        raise OperatorError(f"no primitive named {name!r}; have {[g.name for g in self.members]}")


def primitive_set(layout: RegisterLayout, spin_idx: int, mode_idx: int) -> PrimitiveSet:
    """The interaction set for one spin/mode pair, each member available with +/- sign."""
    if not layout.is_qubit(spin_idx):
        raise OperatorError(f"subsystem {spin_idx} is not a qubit")
    if not layout.is_qumode(mode_idx):
        raise OperatorError(f"subsystem {mode_idx} is not a qumode")
    members = (
        NamedGenerator("sxX", term(1.0, (spin_idx, "sx"), (mode_idx, "X"))),
        NamedGenerator("szX", term(1.0, (spin_idx, "sz"), (mode_idx, "X"))),
        NamedGenerator("szP", term(1.0, (spin_idx, "sz"), (mode_idx, "P"))),
    )
    return PrimitiveSet(spin_idx, mode_idx, members)
