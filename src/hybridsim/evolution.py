"""Unitary evolution: exact exponentials, pulse sequences, Trotterization,
the single-step continuous-variable Fourier transform, and leakage checks.

Exponentials use eigendecomposition of the (Hermitian) generator, which is
exact to machine precision at the dimensions this package targets.  That
keeps exponentiation error out of the pulse-compiler error-scaling
experiments, which must isolate the commutator-approximation error itself.

A pulse's generator is diagonalized factor by factor from the keys of its
Weyl symbol (`operators.weyl_symbol`), which list each term's non-identity
factors.  A subsystem on which every key has the same factor is a common
tensor factor, diagonalized alone (`operators.local_factor`); the remaining
touched subsystems form one group, whose sub-symbol is realized on that
sub-register (`operators.realize`) and diagonalized once.  The eigenvalues
are the outer product of the factors' eigenvalues, and each group's
eigenvectors act on its own axes of the amplitude tensor, so the pointer
coupling ``H (x) P`` costs ``d_sys^3 + cutoff^3`` rather than
``(d_sys * cutoff)^3`` and a product-term pulse never forms a ``D x D``
matrix.  Every pulse takes this one path: its generator is an inline
expression or an id that parses as one.  Decompositions are kept per
generator id, and local factors per (key factor, dimension), in a
``Generators`` table owned by the caller (a synthesis registry, a
spectroscopy run); a run given no table diagonalizes each of its generators
once for that run only.

Sign convention: a pulse of generator H with duration t and sign s applies
``exp(-i * s * H * t)``.  Global phases are never asserted anywhere; state
comparisons go through fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import RegisterLayout, StateVector, interior_mask
from .operators import (HamiltonianExpr, OperatorError, Symbol, build, generator_id, local_factor, parse_expr,
                        realize, term, weyl_symbol)

HERMITICITY_TOL = 1e-10

LEAKAGE_INVALID = 1e-3

# The largest phase max|energy|·duration a pulse may apply: past 2**52 rad, doubles are 1 rad apart.
PHASE_BUDGET = 2.0**52


class EvolutionError(ValueError):
    pass


class UnknownGeneratorError(EvolutionError):
    """A pulse referenced a generator id that nothing can resolve."""


@dataclass(frozen=True)
class Pulse:
    """One timed exponential of a named or inline generator."""

    generator: str | HamiltonianExpr
    duration: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise EvolutionError(f"pulse sign must be +1 or -1, got {self.sign}")
        d = float(self.duration)
        if not np.isfinite(d) or d < 0:
            raise EvolutionError(f"pulse duration must be finite and >= 0, got {d}")
        object.__setattr__(self, "duration", d)

    @property
    def generator_id(self) -> str:
        if isinstance(self.generator, str):
            return self.generator
        return generator_id(self.generator)

    @property
    def expr(self) -> HamiltonianExpr:
        """The generator's inline expression, else its id parsed as Hamiltonian text."""
        if isinstance(self.generator, HamiltonianExpr):
            return self.generator
        try:
            return parse_expr(self.generator)
        except OperatorError:
            raise UnknownGeneratorError(f"cannot resolve generator id {self.generator!r}") from None


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses, executed left to right; empty sequence is the identity."""

    pulses: tuple[Pulse, ...] = ()
    metadata: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.pulses)

    def __add__(self, other: PulseSequence) -> PulseSequence:
        return PulseSequence(self.pulses + other.pulses, self.metadata + other.metadata)

    def to_text(self) -> str:
        """Line-oriented form: one ``<generator_id> <sign> <duration>`` per pulse.

        Durations print via repr, so the round trip is bit-exact.
        """
        lines = [f"# {note}" for note in self.metadata]
        lines += [f"{p.generator_id} {p.sign:+d} {p.duration!r}" for p in self.pulses]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> PulseSequence:
        pulses = []
        metadata = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                metadata.append(line[1:].strip())
                continue
            fields = line.split()
            if len(fields) != 3:
                raise EvolutionError(f"line {lineno}: expected 'id sign duration', got {raw!r}")
            gid, sign_text, dur_text = fields
            if sign_text not in ("+1", "-1"):
                raise EvolutionError(f"line {lineno}: sign must be +1 or -1, got {sign_text!r}")
            pulses.append(Pulse(gid, float(dur_text), int(sign_text)))
        return cls(tuple(pulses), tuple(metadata))


@dataclass(frozen=True)
class EvolutionReport:
    """Final state of a run; its diagnostics are read from it."""

    final_state: StateVector

    @property
    def leakage(self) -> float:
        return leakage(self.final_state)

    @property
    def norm_drift(self) -> float:
        return abs(self.final_state.norm - 1.0)

    @property
    def valid(self) -> bool:
        return self.leakage <= LEAKAGE_INVALID


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise EvolutionError(f"generator must be square, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise EvolutionError("generator is not Hermitian within 1e-10")
    return h


def _eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one eigendecomposition behind every exponential the package applies."""
    return np.linalg.eigh(_check_hermitian(h))


def expm_apply(h: np.ndarray, t: float, state: StateVector) -> StateVector:
    """exp(-i H t)|state> for Hermitian H, exact via eigendecomposition."""
    w, v = _eig(h)  # which checks that h is square and Hermitian
    if len(w) != state.layout.total_dim:
        raise EvolutionError(f"generator dim {len(w)} != state dim {state.layout.total_dim}")
    return StateVector(state.layout, v @ (np.exp(-1j * w * t) * (v.conj().T @ state.amplitudes)))


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Dense exp(-i H t); the oracle used by error-scaling tests."""
    w, v = _eig(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _on_axes(m: np.ndarray, axes: tuple[int, ...], dims: tuple[int, ...], amps: np.ndarray) -> np.ndarray:
    """``m`` applied to the subsystems ``axes`` (sorted) of a vector (D,) or a block (D, k)."""
    first, last = axes[0], axes[-1] + 1
    if axes == tuple(range(first, last)):
        lead = math.prod(dims[:first])
        return (m @ amps.reshape(lead, m.shape[0], -1)).reshape(amps.shape)
    perm = axes + tuple(i for i in range(len(dims) + amps.ndim - 1) if i not in axes)
    moved = amps.reshape(dims + amps.shape[1:]).transpose(perm)
    out = (m @ moved.reshape(m.shape[0], -1)).reshape(moved.shape)
    return out.transpose(np.argsort(perm)).reshape(amps.shape)


@dataclass(frozen=True)
class _Factored:
    """H = (prod_g v_g) diag(energies) (prod_g v_g)^dagger over disjoint subsystem groups.

    ``groups`` pairs each group's sorted subsystem axes with its eigenvector
    matrix; no group covers a subsystem the generator does not touch, and a
    generator that touches none has no group.  ``energies`` is the outer
    product of the groups' eigenvalues, flattened over the whole register
    once, so a pulse forms its phases as the dense formula does, and
    ``max_energy`` their largest modulus, which bounds a pulse's phase.
    """

    groups: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    energies: np.ndarray
    max_energy: float

    def apply(self, t: float, dims: tuple[int, ...], amps: np.ndarray) -> np.ndarray:
        """exp(-i H t) applied to a vector (D,) or a block (D, k)."""
        phases = np.exp(-1j * self.energies * t).reshape((-1,) + (1,) * (amps.ndim - 1))
        for axes, v in self.groups:
            amps = _on_axes(v.conj().T, axes, dims, amps)
        # after a group amps is a fresh product, phased in place; with none it is the caller's array
        amps = np.multiply(phases, amps, out=amps if self.groups else None)
        for axes, v in self.groups:
            amps = _on_axes(v, axes, dims, amps)
        return amps


class Generators:
    """Generator id -> factored eigendecomposition on one layout, each id diagonalized once.

    A pulse's generator resolves to its expression (`Pulse.expr`: the inline
    expression, else its id parsed as Hamiltonian text), and its Weyl symbol
    is factored by its keys as the module docstring describes.  The table
    belongs to the caller that creates it: pass the same table to several
    runs on one layout and they share every eigendecomposition.
    """

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self._decompositions: dict[str, _Factored] = {}
        self._local: dict[tuple[str | tuple[int, int], int], tuple[np.ndarray, np.ndarray]] = {}

    def decomposition(self, pulse: Pulse) -> _Factored:
        gid = pulse.generator_id
        if gid not in self._decompositions:
            self._decompositions[gid] = self.factor(weyl_symbol(pulse.expr, self.layout))
        return self._decompositions[gid]

    def factor(self, symbol: Symbol) -> _Factored:
        """The factored eigendecomposition of a Hermitian symbol, formed on each call (local factors are kept)."""
        layout, dims = self.layout, self.layout.dims
        keys = [dict(key) for key in symbol]
        touched = sorted(set().union(*keys))
        common = [i for i in touched if all(k.get(i) == keys[0].get(i) for k in keys)]
        rest = tuple(i for i in touched if i not in common)
        parts = [((i,), self._local_eig(keys[0][i], dims[i])) for i in common]
        if rest:
            position = {i: k for k, i in enumerate(rest)}
            sub = {tuple((position[i], f) for i, f in key if i in position): c for key, c in symbol.items()}
            parts.append((rest, _eig(realize(sub, RegisterLayout(tuple(layout.subsystems[i] for i in rest))))))
        # with no remaining group every key is the same product, or there is none: its coefficient scales
        energies = np.full((1,) * len(dims), 1.0 if rest else sum(symbol.values(), 0.0))
        for axes, (w, _) in parts:
            energies = energies * w.reshape([d if i in axes else 1 for i, d in enumerate(dims)])
        energies = np.broadcast_to(energies, dims).reshape(-1)
        return _Factored(tuple((axes, v) for axes, (_, v) in parts), energies, float(np.abs(energies).max()))

    def _local_eig(self, f: str | tuple[int, int], dim: int) -> tuple[np.ndarray, np.ndarray]:
        if (f, dim) not in self._local:
            self._local[(f, dim)] = _eig(local_factor(f, dim))
        return self._local[(f, dim)]


def _propagate(seq: PulseSequence, layout: RegisterLayout, generators: Generators | None,
               amps: np.ndarray) -> np.ndarray:
    """The pulse loop shared by run_sequence (a vector) and sequence_unitary (a block), within PHASE_BUDGET."""
    if generators is None:
        generators = Generators(layout)
    elif not isinstance(generators, Generators):
        raise EvolutionError(f"generators must be a Generators table or None, got {type(generators).__name__}")
    elif generators.layout != layout:
        raise EvolutionError("generator table was built for a different layout")
    dims = layout.dims
    for pulse in seq.pulses:
        if pulse.duration == 0.0:
            continue
        factored = generators.decomposition(pulse)
        if (phase := factored.max_energy * pulse.duration) > PHASE_BUDGET:
            raise EvolutionError(f"pulse {pulse.generator_id}: phase {phase:.3g} exceeds the phase budget 2**52 rad")
        amps = factored.apply(pulse.sign * pulse.duration, dims, amps)
    return amps


def run_sequence(seq: PulseSequence, state: StateVector, generators: Generators | None = None) -> EvolutionReport:
    """Execute a pulse sequence on a state.

    ``generators`` is a caller-owned ``Generators`` table for the state's
    layout, which keeps its eigendecompositions across calls, or None for a
    table that lasts this call only; anything else raises EvolutionError.
    """
    return EvolutionReport(StateVector(state.layout, _propagate(seq, state.layout, generators, state.amplitudes)))


def sequence_unitary(seq: PulseSequence, layout: RegisterLayout, generators: Generators | None = None) -> np.ndarray:
    """Dense unitary realized by a sequence (test and diagnostics helper)."""
    return _propagate(seq, layout, generators, np.eye(layout.total_dim, dtype=complex))


def trotter(expr: HamiltonianExpr, t: float, n_steps: int) -> PulseSequence:
    """First-order Lie-Trotter sequence for exp(-i build(expr) t).

    Each of the ``n_steps`` rounds applies every term for t/n_steps; the
    approximation error is O(t^2 / n_steps) and vanishes for commuting terms.
    """
    if n_steps < 1:
        raise EvolutionError(f"n_steps must be >= 1, got {n_steps}")
    dt = abs(t) / n_steps
    sign = 1 if t >= 0 else -1
    step = tuple(
        Pulse(HamiltonianExpr((trm,)), dt, sign) for trm in expr.terms
    )
    return PulseSequence(step * n_steps, (f"trotter n_steps={n_steps} t={t!r}",))


def cv_qft(state: StateVector, mode_idx: int) -> StateVector:
    """Quarter rotation of one mode in phase space: X -> P, P -> -X.

    Implemented as exp(-i H t) with H = (X^2 + P^2)/2 = n + 1/2 and t = pi/2,
    the generator normalization under [X, P] = i for which a quarter rotation
    takes exactly a quarter period.  Applying it four times is the identity
    up to global phase.  H is built on the one mode, exactly diagonal in the
    Fock basis (the a^2 and a†^2 parts of X^2 and P^2 cancel bit for bit), and
    its phases multiply that axis of the amplitudes: no eigendecomposition.
    """
    if not state.layout.is_qumode(mode_idx):
        raise EvolutionError(f"subsystem {mode_idx} is not a qumode")
    mode = RegisterLayout((state.layout.subsystems[mode_idx],))
    energies = build(term(0.5, (0, "X", 2)) + term(0.5, (0, "P", 2)), mode).diagonal().real
    phases = np.exp(-1j * energies * (np.pi / 2)).reshape((-1,) + (1,) * (len(state.layout) - mode_idx - 1))
    return StateVector(state.layout, (phases * state.tensor()).reshape(-1))


def leakage(state: StateVector) -> float:
    """Probability of any qumode occupying its guard-band Fock levels: the weight summed there."""
    return float(np.sum(np.abs(state.amplitudes[~interior_mask(state.layout)]) ** 2))
