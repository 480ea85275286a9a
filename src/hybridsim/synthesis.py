"""The commutator compiler: group-commutator pulse blocks, derivation rules,
target synthesis, the spin-reset trick, and numerical Lie-algebra closure.

The compiled product for a generator pair (A, B) with step s is

    exp(+iBs) exp(+iAs) exp(-iBs) exp(-iAs)  =  exp(s^2 [A, B]) + O(s^3)
                                             =  exp(-i (i[A,B]) s^2) + O(s^3),

i.e. one block turns on the effective Hermitian generator i[A, B] for an
effective time s^2.  Directions of effective generators are taken from the
derivation-rule registry; their scale and sign are *computed* exactly in
the algebra of [X, P] = i, from the Weyl symbols of A, B and the direction
(`operators.symbol_commutator`), with no matrix and no cutoff, as are the
nested commutators of the block's third-order error prediction.  The tests
check them against the dense interior block.

The closure runs in the same exact algebra: its directions are Weyl
symbols, found and orthogonalized with no matrix, so their count and order
do not depend on the cutoff.  Its report reads each direction on the
guard-banded interior block (truncation corrupts the top Fock corner by
construction), in product coordinates: each key's block is a Kronecker
product of local factors, so a direction is a short real vector over
products of per-subsystem orthonormal bases, and membership is measured as
dot products there.  Synthesis *error*, in
contrast, is the spectral norm on the whole truncated space: it quantifies
what the compiled sequence does in this simulator.  One function,
`power_distances`, forms each unitary as the diagonal blocks its pulses
conserve: a field over the Gauss-Hermite nodes, the truncated X's eigenvalues
(Golub & Welsch, Math. Comp. 23, 221 (1969)), of each mode touched through one
quadrature, cut into the parity sectors (`operators.parity_sectors`) of the
rest of the touched register, so its cost follows the touched subsystems.  A
plan, like a Trotter run, is one round and its ``repeats`` (`PulseSequence`):
each block of the round's unitary is raised to the n-th power by repeated
squaring, at a cost of log n times the sum of the blocks' cubed sizes.  The
error is the largest block pair's distance; a run passes every plan in one call.

The spin-reset rule: with a spin held in |0>, a one-term generator sz(x)M
with M on modes only acts on the modes as M alone.  ``_reset_effective``
alone decides that form; through it the registry gets bare X and P, the
closure its mode-only seeds, and sz X1 X2 its alias X1 X2, which is stored
in the rule table as the sz X1 X2 rule under the id of X1 X2.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .evolution import HERMITICITY_TOL, Generators, Pulse, PulseSequence, _on_axes, _propagate, run_sequence
from .evolution import sequence_unitary  # not called here, but kept importable, which the benchmark's tracer pins
from .hilbert import RegisterLayout, StateVector, compress_to_interior, hermiticity_residual, interior_levels
from .operators import (
    SECTOR_TOL,
    HamiltonianExpr,
    HamiltonianTerm,
    OperatorError,
    Symbol,
    block_coordinates,
    generator_id,
    packed,
    parity_sectors,
    parse_expr,
    primitive_set,
    product_block,
    product_coordinates,
    realize,
    sector_blocks,
    symbol_commutator,
    term,
    weyl_symbol,
)

RULE_RESIDUAL_TOL = 1e-8

# A closure candidate whose novel component is below this fraction of its norm is
# already in the closure: in the search, of its symbol's coefficient vector; in the
# report, of its interior block's product coordinates.  Measured, dependent candidates
# leave at most 9e-17 in the search and genuine ones at least 1e-4.  In the report,
# dependent blocks leave rounding (at most 2.4e-16 at cutoffs 8 and 10) and genuine ones
# at least 2e-7 (degree-6 entries dominating a cutoff-64 interior's norm) while the
# monomials fit inside the cutoff.  Directions whose monomials exceed it can leave
# residuals in between (3e-13 to 6e-10 at degree cap 6 on a cutoff-16 mode), where the
# threshold, not the algebra, decides.
NEW_DIRECTION_TOL = 1e-10


class SynthesisError(ValueError):
    pass


class DerivationError(SynthesisError):
    """A candidate identity failed its interior-block residual check."""


@dataclass(frozen=True)
class DerivationRule:
    """Exact identity i[A, B] = scale * direction, with the residual of that projection."""

    a_id: str
    b_id: str
    direction: HamiltonianExpr
    direction_id: str
    scale: float
    residual: float


@dataclass(frozen=True)
class GeneratorRecord:
    expr: HamiltonianExpr
    drivable: bool


@dataclass(frozen=True)
class DerivationNode:
    """Provenance tree: how a generator is reached from drivable inputs."""

    generator_id: str
    rule: DerivationRule | None
    children: tuple[DerivationNode, ...] = ()


@dataclass(frozen=True)
class SynthPlan:
    """A compiled target: ``sequence`` is one four-pulse block (empty at angle 0), its ``repeats`` the n_blocks."""

    target: HamiltonianExpr
    target_id: str
    angle: float
    sequence: PulseSequence
    block_step: float
    predicted_error: float
    derivation: DerivationNode
    reset_spin_required: int | None = None

    @property
    def target_sequence(self) -> PulseSequence:
        """The exact target exp(-i build(target) angle) as one pulse of the target id."""
        return PulseSequence((Pulse(self.target_id, abs(self.angle), -1 if self.angle < 0 else 1),))


class SynthesisRegistry:
    """Named generators and the derivation rules over them, on one fixed layout.

    Generators are keyed by the compact canonical text of their Hamiltonian,
    so ids are stable, serializable, and parse back to the same expression;
    the registry stores expressions, never dense matrices.  Rules, the
    closure and the third-order prediction read symbols; ``generators``, the
    registry's ``Generators`` table, passed to run_sequence /
    sequence_unitary, factors each pulse's expression and each of the
    prediction's nested commutators.  One table maps a target id to its
    rule: a derived direction's own rule, or for a reset alias the
    sz(x)target rule whose direction differs from the target.
    """

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self._records: dict[str, GeneratorRecord] = {}
        self.generators = Generators(layout)
        self._rules: dict[str, DerivationRule] = {}
        self._third_order: dict[tuple[str, str], float] = {}

    # -- generators ---------------------------------------------------------

    def register(self, expr: HamiltonianExpr, *, drivable: bool) -> str:
        gid = generator_id(expr)
        if gid not in self._records:
            self._records[gid] = GeneratorRecord(expr, drivable)
        return gid

    def record(self, gid: str) -> GeneratorRecord:
        if gid not in self._records:
            raise SynthesisError(f"unknown generator id {gid!r}")
        return self._records[gid]

    def third_order_scale(self, a_id: str, b_id: str) -> float:
        """0.5 (||i[A, C]|| + ||i[B, C]||) with C = i[A, B], computed once per ordered pair (A, B).

        The nested commutators are exact symbols (`operators.symbol_commutator`), and each norm
        is the largest |eigenvalue| of its symbol on the truncated space, read from the symbol's
        factored eigendecomposition in the registry's table (`Generators.factor`)."""
        if (a_id, b_id) not in self._third_order:
            a, b = (weyl_symbol(self.record(gid).expr, self.layout) for gid in (a_id, b_id))
            c = symbol_commutator(a, b)
            norms = [self.generators.factor(symbol_commutator(x, c)).max_energy for x in (a, b)]
            self._third_order[(a_id, b_id)] = 0.5 * sum(norms)
        return self._third_order[(a_id, b_id)]

    def is_drivable(self, gid: str) -> bool:
        return self.record(gid).drivable

    # -- rules and aliases ---------------------------------------------------

    def add_rule(self, rule: DerivationRule) -> None:
        self._rules.setdefault(rule.direction_id, rule)

    def rule_for(self, target_id: str) -> DerivationRule | None:
        return self._rules.get(target_id)

    def add_reset_alias(self, rule: DerivationRule) -> str:
        """Store a sz(x)modes rule under its mode-only target id (spin held in |0>)."""
        reset = _reset_effective(rule.direction, self.layout)
        if reset is None:
            raise SynthesisError(f"direction {rule.direction_id!r} is not sz times mode operators")
        target_id = self.register(reset[1], drivable=False)
        self._rules.setdefault(target_id, rule)
        return target_id

    def alias_for(self, target_id: str) -> DerivationRule | None:
        """The rule stored under a reset alias's target id, else None."""
        rule = self._rules.get(target_id)
        return rule if rule is not None and rule.direction_id != target_id else None

    def derivation_tree(self, gid: str) -> DerivationNode:
        rule = self._rules.get(gid)
        if rule is None:
            return DerivationNode(gid, None)
        return DerivationNode(gid, rule, (self.derivation_tree(rule.a_id), self.derivation_tree(rule.b_id)))


def _reset_effective(expr: HamiltonianExpr, layout: RegisterLayout) -> tuple[int, HamiltonianExpr] | None:
    """(spin, M) when expr is one term sz@spin (x) M with M on modes only, else None."""
    if len(expr.terms) != 1:
        return None
    t = expr.terms[0]
    modes = tuple((i, op) for i, op in t.factors if layout.is_qumode(i))
    spins = [(i, op.tag) for i, op in t.factors if not layout.is_qumode(i)]
    if len(spins) != 1 or spins[0][1] != "sz" or not modes:
        return None
    return spins[0][0], HamiltonianExpr((HamiltonianTerm(t.coefficient, modes),))


def derive_rule(a_id: str, b_id: str, candidate_direction: HamiltonianExpr,
                registry: SynthesisRegistry) -> DerivationRule:
    """Compute i[A, B] exactly and project it on a candidate direction.

    With k the Weyl symbol of i[A, B] (`symbol_commutator`) and g the
    candidate's, as coefficient vectors, the scale is g.k / g.g and the
    residual |k - scale g| / |scale g|, exactly 0.0 for a true identity at
    any cutoff.  Raises DerivationError when the residual exceeds
    RULE_RESIDUAL_TOL, which signals a wrong identity; every raise comes
    before the candidate is registered as drivable with its rule.
    """
    k = symbol_commutator(*(weyl_symbol(registry.record(gid).expr, registry.layout) for gid in (a_id, b_id)))
    g = weyl_symbol(candidate_direction, registry.layout)
    g_norm2 = math.fsum(c * c for c in g.values())
    if g_norm2 <= 0.0:
        raise SynthesisError("candidate direction vanishes")
    scale = math.fsum(c * k.get(key, 0.0) for key, c in g.items()) / g_norm2
    denom = abs(scale) * math.sqrt(g_norm2)
    if denom == 0.0:
        raise DerivationError("i[A,B] has no component along the candidate direction")
    residual = math.sqrt(math.fsum((k.get(key, 0.0) - scale * g.get(key, 0.0)) ** 2 for key in {**k, **g})) / denom
    if residual > RULE_RESIDUAL_TOL:
        raise DerivationError(f"candidate {generator_id(candidate_direction)!r} rejected: "
                              f"residual {residual:.3e} > {RULE_RESIDUAL_TOL:g}")
    rule = DerivationRule(a_id, b_id, candidate_direction, generator_id(candidate_direction), scale, residual)
    registry.register(candidate_direction, drivable=True)
    registry.add_rule(rule)
    return rule


def _block_pulses(a_id: str, b_id: str, s: float) -> tuple[Pulse, ...]:
    # Applied left to right this realizes e^{+iBs} e^{+iAs} e^{-iBs} e^{-iAs}.
    return (Pulse(a_id, s, 1), Pulse(b_id, s, 1), Pulse(a_id, s, -1), Pulse(b_id, s, -1))


def group_commutator(a_id: str, b_id: str, s: float, registry: SynthesisRegistry) -> PulseSequence:
    """Four-pulse block approximating exp(-i (i[A,B]) s^2) to third order in s."""
    if s <= 0:
        raise SynthesisError(f"block step must be > 0, got {s}")
    registry.record(a_id)
    registry.record(b_id)
    return PulseSequence(_block_pulses(a_id, b_id, s), (f"group-commutator A={a_id} B={b_id} s={s!r}",))


def synthesize(
    target: HamiltonianExpr | str,
    angle: float,
    n_blocks: int,
    registry: SynthesisRegistry,
) -> SynthPlan:
    """Compile exp(-i build(target) angle) into group-commutator blocks.

    The target must have a rule in the registry's table; when that rule's
    direction is sz(x)target (a reset alias), the plan records the spin to
    hold in |0>.  Each of the ``n_blocks`` blocks pulses the rule's two input
    generators with step s = sqrt(|angle| / (n_blocks |scale|)); a negative
    effective angle is realized by swapping the pulse order of A and B.  The
    measured error of the plan decreases like n_blocks^(-1/2); an angle whose
    predicted error is not finite raises SynthesisError.
    """
    if n_blocks < 1:
        raise SynthesisError(f"n_blocks must be >= 1, got {n_blocks}")
    target_expr = parse_expr(target) if isinstance(target, str) else target
    tid = generator_id(target_expr)

    rule = registry.rule_for(tid)
    if rule is None:
        raise SynthesisError(
            f"target {tid!r} has no derivation rule in the registry; "
            "derive one from registered generators first"
        )
    reset_spin_required = None if rule.direction_id == tid else _reset_effective(rule.direction, registry.layout)[0]

    angle = float(angle)
    swap = rule.scale * angle < 0
    a_id, b_id = (rule.b_id, rule.a_id) if swap else (rule.a_id, rule.b_id)
    for gid in (a_id, b_id):
        if not registry.is_drivable(gid):
            raise SynthesisError(f"rule input {gid!r} is not drivable")
    s = float(np.sqrt(abs(angle) / (n_blocks * abs(rule.scale)))) if angle != 0.0 else 0.0

    meta = (
        f"synthesize target={tid} angle={angle!r} n_blocks={n_blocks} s={s!r}"
        + (f" reset_spin={reset_spin_required}" if reset_spin_required is not None else ""),
    )
    try:  # s**3 raises past float range; a NaN step (a NaN angle) is nonzero and reaches the check
        predicted = 1.5 * n_blocks * s**3 * registry.third_order_scale(a_id, b_id) if s else 0.0
    except OverflowError:
        predicted = math.inf
    if not math.isfinite(predicted):
        raise SynthesisError(f"angle {angle!r} over {n_blocks} blocks predicts a non-finite error {predicted}")
    return SynthPlan(
        target=target_expr,
        target_id=tid,
        angle=angle,
        sequence=PulseSequence(_block_pulses(a_id, b_id, s) if s > 0.0 else (), meta, n_blocks),
        block_step=s,
        predicted_error=predicted,
        derivation=registry.derivation_tree(rule.direction_id),
        reset_spin_required=reset_spin_required,
    )


def power_distances(sequences: list[PulseSequence], target: PulseSequence, layout: RegisterLayout,
                    table: Generators, held_spin: int | None = None) -> tuple[list[float], StateVector, StateVector]:
    """Each sequence's spectral-norm distance from ``target`` (propagated whole), read from one round raised to its
    ``repeats``, and the images of |0...0> under the last power and under the target.  The generators' keys, read
    once per id, fix the blocks: a mode whose keys are all x^a or all p^b is a node axis, read by W_m^†
    (`Generators.quadrature`); the qubits and every mode with both quadratures form the inner register, cut into the
    parity sectors of the keys' factors on it.  One propagated block, with columns |k> on the inner register,
    Σ_x W_m[:, x] on each node axis and |0> elsewhere, gives a (Π c_m, d_inner, d_inner) stack of U(x).  A U(x) not
    unitary within SECTOR_TOL, which is how a node axis shows it is not conserved, raises OperatorError where a node
    axis is read or the inner register is qubits alone.  Only a round's sector stacks are powered.  A distance is the
    largest block pair's, read with ``held_spin`` on the indices where that spin is |0>.  A probe image is column 0
    of the first sector, which holds inner index 0: Σ_x U(x)[:, 0] ⊗_m conj(W_m[0, x_m]) W_m[:, x_m]."""
    dims = layout.dims
    pulses = {p.generator_id: p for seq in (target, *sequences) for p in seq.pulses}  # one round holds every id
    keys = [key for p in pulses.values() for key in weyl_symbol(p.expr, layout)]
    # (subsystem, None for a Pauli, else (1, 0) for x^a or (0, 1) for p^b: a generator's monomials are pure)
    kinds = {(i, None if isinstance(f, str) else (min(f[0], 1), min(f[1], 1))) for key in keys for i, f in key}
    quads = dict(sorted(kinds))
    modes = [i for i, q in quads.items() if q and (i, q[::-1]) not in kinds]  # the other quadrature is absent
    inner = [i for i in quads if i not in modes]
    ws, d_inner = [table.quadrature(dims[i], quads[i])[1] for i in modes], math.prod(dims[i] for i in inner)
    position = {i: k for k, i in enumerate(inner)}
    sectors = parity_sectors([tuple((position[i], f) for i, f in key if i in position) for key in keys],
                             RegisterLayout(tuple(layout.subsystems[i] for i in inner))) if inner else [np.arange(1)]
    columns = {**{i: np.eye(dims[i]) for i in inner}, **{i: w.sum(axis=1, keepdims=True) for i, w in zip(modes, ws)}}
    block = reduce(np.kron, [columns.get(i, np.eye(d, 1)) for i, d in enumerate(dims)], np.ones((1, 1), complex))
    on_touched = tuple(slice(None) if i in quads else 0 for i in range(len(dims)))
    order = [list(quads).index(i) for i in modes + inner]  # a stack's axes: the nodes, then the inner register
    stride = math.prod(dims[i] for i in inner if i > held_spin) if held_spin in position else d_inner
    held = [np.flatnonzero(s // stride % 2 == 0) for s in sectors]  # the indices a distance reads in each sector
    checked = bool(modes) or all(layout.is_qubit(i) for i in inner)  # else the stack is U's exact restriction

    def read(seq: PulseSequence) -> list[np.ndarray]:
        out = _propagate(seq, layout, table, block)
        for i, w in zip(modes, ws):
            out = _on_axes(w.conj().T, (i,), dims, out)
        stack = out.reshape(dims + (d_inner,))[on_touched].transpose(order + [len(order)])
        blocks = sector_blocks(stack.reshape(-1, d_inner, d_inner), sectors)
        resid = max(np.abs(b.conj().swapaxes(1, 2) @ b - np.eye(b.shape[-1])).max() for b in blocks) if checked else 0
        if resid > SECTOR_TOL:
            raise OperatorError(f"a node block departs from unitarity by {resid:.3e} (tolerance {SECTOR_TOL:g})")
        return blocks

    def probe(blocks: list[np.ndarray]) -> StateVector:
        column, amps = np.zeros((len(blocks[0]), d_inner), dtype=complex), np.zeros(dims, dtype=complex)
        column[:, sectors[0]] = blocks[0][:, :, 0]
        amps[on_touched] = column.reshape([dims[i] for i in modes + inner]).transpose(np.argsort(order))
        for i, w in zip(modes, ws):
            amps = _on_axes(w * w[0].conj(), (i,), dims, amps.reshape(-1))
        return StateVector(layout, amps.reshape(-1))

    exact = read(target)
    distances = []
    for seq in sequences:
        power = [np.linalg.matrix_power(b, seq.repeats) for b in read(PulseSequence(seq.pulses))]
        distances.append(max(float(np.linalg.norm((u - v)[..., h[:, None], h], 2, axis=(-2, -1)).max())
                             for u, v, h in zip(power, exact, held) if len(h)))
        final = probe(power)
        del power  # only its probe column outlives it, before the next power is formed
    return distances, final, probe(exact)


def measure_plan_error(plan: SynthPlan, registry: SynthesisRegistry) -> float:
    """Spectral-norm distance between the compiled sequence and its target (`power_distances`)."""
    return power_distances([plan.sequence], plan.target_sequence, registry.layout,
                           registry.generators, plan.reset_spin_required)[0][0]


# Derivation templates (A, B, direction), i[A, B] = scale * direction, in the
# Hamiltonian grammar.  "pair" rows expand for every spin s and mode m;
# "spin2" rows for each further spin s2 on the first mode; "mode2" rows for
# each further mode m2 on the first spin.  A row marked "reset" also aliases
# its direction's mode-only part (spin s held in |0>).
_DERIVATIONS = {
    "pair": (
        ("P@{m}", "sx@{s}*X@{m}", "sx@{s}"),
        ("P@{m}", "sz@{s}*X@{m}", "sz@{s}"),
        ("sz@{s}", "sx@{s}", "sy@{s}"),
        ("sz@{s}*P@{m}", "sz@{s}*X@{m}", "id@0"),
        ("sz@{s}*X@{m}", "sx@{s}*X@{m}", "sy@{s}*X@{m}^2"),
        ("sy@{s}*X@{m}^2", "sx@{s}*X@{m}", "sz@{s}*X@{m}^3"),
    ),
    "spin2": (("sz@{s}*P@{m}", "sz@{s2}*X@{m}", "sz@{s}*sz@{s2}"),),
    "mode2": (
        ("sz@{s}", "sx@{s}*X@{m}", "sy@{s}*X@{m}"),
        ("sy@{s}*X@{m}", "sx@{s}*X@{m2}", "sz@{s}*X@{m}*X@{m2}", "reset"),
    ),
}


def spins_and_modes(layout: RegisterLayout) -> tuple[list[int], list[int]]:
    """The qubit and the qumode indices; the primitive set needs one of each."""
    spins = [i for i in range(len(layout)) if layout.is_qubit(i)]
    modes = [i for i in range(len(layout)) if layout.is_qumode(i)]
    if not spins or not modes:
        raise SynthesisError("layout needs at least one qubit and one qumode")
    return spins, modes


def standard_registry(layout: RegisterLayout) -> SynthesisRegistry:
    """Registry pre-loaded with the primitive sets and the derivation chain.

    Registers, for every (spin, mode) pair: the primitives sxX, szX, szP;
    reset-effective X and P on each mode; and the derived chain
    sx, sz, sy, the identity direction, sy X^2, sz X^3.  With a second spin
    sharing a mode it derives sz^1 sz^2; with a second mode sharing a spin,
    sy X_1 and sz X_1 X_2 (aliased to the mode-only X_1 X_2).  Each direction
    is derived once, by the first template row that names it.
    """
    reg = SynthesisRegistry(layout)
    spins, modes = spins_and_modes(layout)
    primitives = [gen.expr for s in spins for m in modes for gen in primitive_set(layout, s, m).members]
    for expr in primitives:
        reg.register(expr, drivable=True)
    for expr in primitives:
        reset = _reset_effective(expr, layout)
        if reset is not None:
            reg.register(reset[1], drivable=True)

    first, shared = spins[0], modes[0]
    slots = {
        "pair": [{"s": s, "m": m} for s in spins for m in modes],
        "spin2": [{"s": first, "m": shared, "s2": s2} for s2 in spins[1:]],
        "mode2": [{"s": first, "m": shared, "m2": m2} for m2 in modes[1:]],
    }
    for scope, rows in _DERIVATIONS.items():
        for fill in slots[scope]:
            for a, b, direction, *reset in rows:
                a_id, b_id = (generator_id(parse_expr(x.format(**fill))) for x in (a, b))
                target = parse_expr(direction.format(**fill))
                rule = reg.rule_for(generator_id(target)) or derive_rule(a_id, b_id, target, reg)
                if reset:
                    reg.add_reset_alias(rule)
    return reg


# ---------------------------------------------------------------------------
# spin reset and oscillator-only drives


def reset_spin(state: StateVector, spin_idx: int, rng: np.random.Generator) -> StateVector:
    """Projective sigma_z measurement followed by a flip on outcome |1>.

    Leaves the spin deterministically in |0>, the rest of the register
    collapsed onto the measured branch, renormalized (a documented collapse
    point).  Idempotent once the spin is in |0>.
    """
    if not state.layout.is_qubit(spin_idx):
        raise SynthesisError(f"subsystem {spin_idx} is not a qubit")
    p1 = float(np.sum(np.abs(np.take(state.tensor(), 1, axis=spin_idx)) ** 2))
    outcome = 1 if rng.random() < p1 else 0
    p = p1 if outcome == 1 else 1.0 - p1
    flip = np.array([[1 - outcome, outcome], [0, 0]], dtype=complex)  # |0><outcome|
    return StateVector(state.layout, _on_axes(flip, (spin_idx,), state.layout.dims, state.amplitudes) / np.sqrt(p))


def oscillator_drive(
    state: StateVector,
    mode_idx: int,
    which: str,
    t: float,
    spin_idx: int,
    rng: np.random.Generator,
    n_steps: int = 64,
) -> StateVector:
    """Drive one mode under bare X or P via sz-coupled pulses and spin resets.

    Each of the ``n_steps`` slices re-prepares the spin in |0> and applies
    exp(-i sz(x)W dt) with W in {X, P}; on the |0> branch that is exactly
    exp(-i W dt) on the mode, which is how coherent displacements are built
    from the primitive set.
    """
    if which not in ("X", "P"):
        raise SynthesisError(f"drive axis must be 'X' or 'P', got {which!r}")
    if not state.layout.is_qumode(mode_idx):
        raise SynthesisError(f"subsystem {mode_idx} is not a qumode")
    if n_steps < 1:
        raise SynthesisError(f"n_steps must be >= 1, got {n_steps}")
    if t == 0.0:
        return state
    gen = term(1.0, (spin_idx, "sz"), (mode_idx, which))
    step = PulseSequence((Pulse(gen, abs(t) / n_steps, 1 if t > 0 else -1),))
    table = Generators(state.layout)
    for _ in range(n_steps):
        state = run_sequence(step, reset_spin(state, spin_idx, rng), table)
    return state


# ---------------------------------------------------------------------------
# numerical Lie-algebra closure


@dataclass(frozen=True)
class ClosureDirection:
    """One direction of the generated algebra, found as an exact Weyl symbol.

    ``row`` is its row of the report's ``coordinates`` and packed ``basis`` (its m×m interior
    block in product coordinates, orthonormalized against the earlier rows), or None when that
    block depends on them within NEW_DIRECTION_TOL.
    """

    degree: int
    source: str
    row: int | None = None


@dataclass(frozen=True)
class ClosureReport:
    """The directions found in the exact algebra, and their interior blocks in product
    coordinates (`operators.product_coordinates`): ``local_bases``, one per subsystem, and
    ``coordinates``, the orthonormal row of each direction with a ``row``.  ``basis`` (float64,
    m² columns) is the same rows as packed coordinates of m×m blocks, formed on first read only.
    ``factors`` is the table of sliced local factors its blocks and queries read (`operators.sliced_factor`)."""

    layout: RegisterLayout
    seed_ids: tuple[str, ...]
    directions: tuple[ClosureDirection, ...]
    local_bases: tuple[np.ndarray, ...]
    coordinates: np.ndarray
    depth_reached: int
    notes: tuple[str, ...] = ()
    factors: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def directions_per_degree(self) -> dict[int, int]:
        """How many directions the search found at each degree, with or without a basis row."""
        return dict(Counter(d.degree for d in self.directions))

    @cached_property
    def basis(self) -> np.ndarray:
        """The rows of ``coordinates`` as packed real coordinates of m×m interior blocks."""
        m = math.prod(e.shape[1] for e in self.local_bases)
        upper = np.triu(np.ones((m, m), dtype=bool), 1)
        out = np.empty((len(self.coordinates), m * m))
        for k, coords in enumerate(self.coordinates):
            out[k] = packed(product_block(coords, self.local_bases), upper)
        return out

    def membership(self, query: HamiltonianExpr | np.ndarray) -> float:
        """Relative interior-block residual of a Hermitian direction against the rows.

        An expression's interior block is realized directly, a matrix's compressed to it.  With
        q that block at unit norm and c its product coordinates, the residual is
        hypot(‖q − block(c)‖, residual of c against ``coordinates``): the part outside the
        products of the local bases and the part inside them, each formed as a difference."""
        layout = self.layout
        if not isinstance(query, np.ndarray):
            block = realize(weyl_symbol(query, layout), layout, interior_levels(layout), self.factors)
        elif query.shape != (layout.total_dim,) * 2:
            raise SynthesisError(f"query must have shape {(layout.total_dim,) * 2}, got {query.shape}")
        elif not hermiticity_residual(query) <= HERMITICITY_TOL:
            raise SynthesisError(f"query is not Hermitian within {HERMITICITY_TOL:g}")
        else:
            block = compress_to_interior(query, layout)
        norm = np.linalg.norm(block)
        if not 0.0 < norm < math.inf:
            raise SynthesisError(f"query direction vanishes on the interior block or is not finite (norm {norm:.1e})")
        block = block / norm
        coords = block_coordinates(block, self.local_bases)
        _, inside = _orthonormal_residual(coords, self.coordinates)
        return math.hypot(float(np.linalg.norm(block - product_block(coords, self.local_bases))), inside)


def _orthonormal_residual(vec: np.ndarray, basis: np.ndarray, passes: int = 2) -> tuple[np.ndarray, float]:
    """vec minus its projection on the orthonormal rows of basis (``passes`` projections)."""
    for _ in range(passes):
        vec = vec - (basis @ vec) @ basis
    return vec, float(np.linalg.norm(vec))


def close_algebra(
    seed_ids: list[str] | tuple[str, ...],
    max_new: int,
    degree_cap: int,
    registry: SynthesisRegistry,
    *,
    include_reset_effectives: bool = True,
) -> ClosureReport:
    """Breadth-first commutator closure of the seed generators, in the exact algebra.

    Seeds sit at degree 1; a direction found as i[a, b] has degree
    max(deg a, deg b) + 1.  Exploration stops after ``max_new`` accepted
    directions beyond the seeds, after a degree that adds none, or once
    ``degree_cap`` is exhausted, and is strictly ordered, so the output is
    deterministic.

    With ``include_reset_effectives`` (default), every seed of the form
    sz(x)M with M acting on modes also contributes M itself as a degree-1
    seed: the repreparation of the spin in |0> makes those mode-only
    generators available, and without them the bare one-spin Paulis are
    provably outside the commutator closure of the interaction set.

    The search never touches a matrix: each direction is a Weyl symbol, each
    candidate the `symbol_commutator` of two unit-norm directions, and the
    Gram-Schmidt runs on symbol coefficient vectors, so the directions, their
    count and their order do not depend on the cutoff.  The report reads each
    direction's m×m interior block in product coordinates (`operators.product_coordinates`) and
    orthonormalizes those into ``coordinates``; a block that vanishes (norm below 1e-12)
    or depends on the earlier ones gets no row and a note that says which.  Each block is also realized once, alone
    (`operators.realize` on `hilbert.interior_levels`), and its norm must equal
    its coordinates' within 1e-12 relative (absolute below norm 1), which ties
    the product coordinates to the one dense realizer; SynthesisError otherwise.
    The search shares one Moyal table, the report one table of sliced factors
    (`operators.sliced_factor`): each is formed once per run.
    """
    layout = registry.layout
    notes: list[str] = []

    seeds = [(gid, registry.record(gid).expr) for gid in seed_ids]
    if include_reset_effectives:
        for gid, expr in list(seeds):
            reset = _reset_effective(expr, layout)
            if reset is None:
                continue
            eff_id = registry.register(reset[1], drivable=True)
            if eff_id not in [s[0] for s in seeds]:
                seeds.append((eff_id, reset[1]))
                notes.append(f"reset-effective seed {eff_id} from {gid}")

    moyal: dict = {}  # monomial pair -> `operators._moyal` terms, for every candidate
    columns: dict[tuple, int] = {}  # symbol key -> coefficient-vector coordinate
    found: list[tuple[Symbol, int, str]] = []  # unit-norm symbol, degree, source
    # orthonormal rows spanning the found symbols: the leading len(found) rows and
    # len(columns) columns, the rest zero; its capacity doubles when either runs out
    span = np.zeros((16, 64))

    def try_add(symbol: Symbol, degree: int, source: str) -> None:
        nonlocal span
        for key in symbol:
            columns.setdefault(key, len(columns))
        coords = np.zeros(len(columns))
        coords[[columns[key] for key in symbol]] = list(symbol.values())
        norm = np.linalg.norm(coords)
        if norm < 1e-12:
            return
        if len(columns) > span.shape[1]:
            span = np.pad(span, ((0, 0), (0, max(len(columns), 2 * span.shape[1]) - span.shape[1])))
        basis = span[:len(found), :len(columns)]
        vec, resid = _orthonormal_residual(coords / norm, basis, passes=1)
        if resid > NEW_DIRECTION_TOL:  # else rejected at once: a second pass only shrinks it
            vec, resid = _orthonormal_residual(vec, basis, passes=1)
        if resid <= NEW_DIRECTION_TOL:
            return
        if len(found) == len(span):
            span = np.pad(span, ((0, len(span)), (0, 0)))
        span[len(found), :len(columns)] = vec / resid
        found.append(({key: c / norm for key, c in symbol.items()}, degree, source))

    for gid, expr in seeds:
        try_add(weyl_symbol(expr, layout), 1, f"seed {gid}")

    n_seeds = len(found)
    for degree in range(2, degree_cap + 1):
        degrees = [d for _, d, _ in found]
        prev = [j for j, d in enumerate(degrees) if d == degree - 1]
        if not prev or len(found) - n_seeds >= max_new:
            break  # every candidate of a degree pairs a direction of the one before: none is left
        # every older direction with each of prev, and each pair within prev once
        pairs = [(i, j) for j in prev for i in range(len(degrees)) if degrees[i] < degree - 1 or i < j]
        for i, j in pairs:
            if len(found) - n_seeds >= max_new:
                break
            try_add(symbol_commutator(found[i][0], found[j][0], moyal), degree, f"i[{i},{j}]")

    levels, factors = interior_levels(layout), {}
    local_bases, all_coords = product_coordinates([symbol for symbol, _, _ in found], layout, levels, factors)
    rows = np.empty_like(all_coords)
    directions = []
    n_rows = 0
    for k, ((symbol, degree, source), coords) in enumerate(zip(found, all_coords)):
        norm = np.linalg.norm(coords)
        realized = np.linalg.norm(realize(symbol, layout, levels, factors))
        # relative to the block, or to its symbol's unit coefficient norm if larger: a block can vanish
        # on a small interior up to rounding (McCoy's x³p leaves a ±1e-17i diagonal on one level,
        # which `packed` does not read), and a gap that small is rounding, not a wrong coordinate
        if not abs(realized - norm) <= 1e-12 * max(realized, 1.0):  # also true of a non-finite block
            raise SynthesisError(f"direction {k} ({source}): realized interior norm {realized:.17g} "
                                 f"differs from its product coordinates' {norm:.17g}")
        vec, resid = _orthonormal_residual(coords / norm, rows[:n_rows]) if norm >= 1e-12 else (None, 0.0)
        if resid <= NEW_DIRECTION_TOL:
            why = (f"depends on the earlier ones on the interior block (residual {resid:.1e})" if norm >= 1e-12
                   else f"vanishes on the interior block (norm {norm:.1e})")
            notes.append(f"direction {k} ({source}) {why}: no basis row")
            directions.append(ClosureDirection(degree, source))
            continue
        rows[n_rows] = vec / resid
        directions.append(ClosureDirection(degree, source, n_rows))
        n_rows += 1

    return ClosureReport(
        layout=layout,
        seed_ids=tuple(s[0] for s in seeds),
        directions=tuple(directions),
        local_bases=local_bases,
        coordinates=rows[:n_rows],
        depth_reached=max((d.degree for d in directions), default=1),
        notes=tuple(notes),
        factors=factors,
    )


# ---------------------------------------------------------------------------
# JSON serialization


def _node_to_dict(node: DerivationNode) -> dict:
    out: dict = {"generator": node.generator_id}
    if node.rule is not None:
        out["rule"] = {
            "a": node.rule.a_id,
            "b": node.rule.b_id,
            "scale": node.rule.scale,
            "residual": node.rule.residual,
        }
        out["inputs"] = [_node_to_dict(c) for c in node.children]
    return out


def plan_to_json(plan: SynthPlan) -> str:
    doc = {
        "target": plan.target_id,
        "angle": plan.angle,
        "n_blocks": plan.sequence.repeats,
        "block_step": plan.block_step,
        "predicted_error": plan.predicted_error,
        "reset_spin_required": plan.reset_spin_required,
        "n_pulses": len(plan.sequence.pulses) * plan.sequence.repeats,  # len() stops at 2**63
        "derivation": _node_to_dict(plan.derivation),
        "sequence": plan.sequence.to_text(),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def closure_to_json(report: ClosureReport, probes: dict[str, float] | None = None) -> str:
    doc = {
        "seed_ids": list(report.seed_ids),
        "depth_reached": report.depth_reached,
        "n_directions": len(report.directions),
        "directions_per_degree": report.directions_per_degree,
        "notes": list(report.notes),
    }
    if probes is not None:
        doc["probes"] = probes
    return json.dumps(doc, indent=2, sort_keys=True)
