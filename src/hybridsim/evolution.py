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
sub-register (`operators.realize`) and diagonalized once.  A diagonal factor
or group (``sz``, ``(X^2 + P^2)/2``) is its own eigenbasis: no eigenvectors.
The eigenvalues are the outer product of the factors', and each group's
eigenvectors act on its own axes of the amplitude tensor, so the pointer
coupling ``H (x) P`` costs ``d_sys^3 + cutoff^3`` rather than
``(d_sys * cutoff)^3`` and a product-term pulse never forms a ``D x D``
matrix.  Every pulse takes this one path: its generator is an expression
(text is parsed once, when the pulse is made).  Decompositions are kept per
generator id, local factors per (key factor, dimension) and remaining groups
per (sub-register, sub-symbol), in a ``Generators`` table owned by the caller
(a synthesis registry, a spectroscopy run); ``H`` and ``H (x) P`` share their
remaining group, so a spectroscopy run diagonalizes ``H`` once.  A run given
no table diagonalizes each of its generators once for that run only.  The
pulse loop keeps an owed-basis map, axes -> the eigenvectors they are still
expressed in: a pulse rotates back each owed group on an axis it touches,
unless it is one of its own ``(axes, v)`` groups, then rotates in its groups
not owed; the rest stay owed (its phases are constant there), and what is
owed at the end is rotated back once.  So a Trotter pointer coupling rotates
the pointer axis twice, ``sz (x) sz`` terms rotate nothing, and a repeated
(generator id, signed duration) forms its phases once per call, on touched axes.

Sign convention: a pulse of generator H with duration t and sign s applies
``exp(-i * s * H * t)``.  Global phases are never asserted anywhere; state
comparisons go through fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hilbert import NORM_TOL, RegisterLayout, StateVector, hermiticity_residual, interior_mask
from .operators import (HamiltonianExpr, OperatorError, Symbol, generator_id, local_factor, parse_expr, realize,
                        weyl_symbol)

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
    """One timed exponential of a generator expression; a generator given as text is parsed here, once."""

    generator: HamiltonianExpr
    duration: float
    sign: int = 1

    def __post_init__(self):
        if isinstance(self.generator, str):
            try:
                object.__setattr__(self, "generator", parse_expr(self.generator))
            except OperatorError:
                raise UnknownGeneratorError(f"cannot resolve generator id {self.generator!r}") from None
        elif not isinstance(self.generator, HamiltonianExpr):
            raise EvolutionError(f"generator must be text or a HamiltonianExpr, got {type(self.generator).__name__}")
        if self.sign not in (1, -1):
            raise EvolutionError(f"pulse sign must be +1 or -1, got {self.sign}")
        d = float(self.duration)
        if not np.isfinite(d) or d < 0:
            raise EvolutionError(f"pulse duration must be finite and >= 0, got {d}")
        object.__setattr__(self, "duration", d)

    @cached_property  # formatted once per pulse: the pulse loop reads it for its key and its decomposition
    def generator_id(self) -> str:
        return generator_id(self.generator)


@dataclass(frozen=True)
class PulseSequence:
    """One round of pulses, run left to right ``repeats`` (an int >= 1) times."""

    pulses: tuple[Pulse, ...] = ()
    repeats: int = 1

    def __post_init__(self):
        if not isinstance(self.repeats, int) or isinstance(self.repeats, bool) or self.repeats < 1:
            raise EvolutionError(f"repeats must be an integer >= 1, got {self.repeats!r}")

    @property
    def n_pulses(self) -> int:
        """Every pulse run, ``len(pulses) * repeats``, at any size (``len()`` stops at 2**63)."""
        return len(self.pulses) * self.repeats

    def __len__(self) -> int:
        return self.n_pulses

    def to_text(self) -> str:
        """Line-oriented form: ``# repeats N`` if N > 1, then a ``<generator_id> <sign> <duration>`` line per pulse
        of the round.

        Ids are canonical (`operators.generator_id`) and durations print via repr, so the round trip is bit-exact.
        """
        lines = [f"# repeats {self.repeats}"] * (self.repeats > 1)
        lines += [f"{p.generator_id} {p.sign:+d} {p.duration!r}" for p in self.pulses]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> PulseSequence:
        """The sequence ``to_text`` wrote: one optional ``# repeats N`` line, other ``#`` lines skipped as comments,
        each pulse's id parsed as it is read; a fault raises EvolutionError naming its line."""
        pulses, repeats = [], None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if (words := line[1:].split())[:1] != ["repeats"]:
                    continue
                if repeats is not None:
                    raise EvolutionError(f"line {lineno}: a second repeats line, got {raw!r}")
                if len(words) != 2 or not words[1].isdecimal() or (repeats := int(words[1])) < 1:
                    raise EvolutionError(f"line {lineno}: repeats must be an integer >= 1, got {raw!r}")
                continue
            fields = line.split()
            if len(fields) != 3:
                raise EvolutionError(f"line {lineno}: expected 'id sign duration', got {raw!r}")
            gid, sign_text, dur_text = fields
            if sign_text not in ("+1", "-1"):
                raise EvolutionError(f"line {lineno}: sign must be +1 or -1, got {sign_text!r}")
            try:
                duration = float(dur_text)
            except ValueError:
                raise EvolutionError(f"line {lineno}: duration must be a number, got {dur_text!r}") from None
            try:
                pulses.append(Pulse(gid, duration, int(sign_text)))
            except EvolutionError as exc:  # an id that does not parse, a duration that is negative or not finite
                raise type(exc)(f"line {lineno}: {exc}") from None
        return cls(tuple(pulses), repeats or 1)


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise EvolutionError(f"generator must be square, got shape {h.shape}")
    if not hermiticity_residual(h) <= HERMITICITY_TOL:  # the gate before every eigh: it refuses NaN and inf
        raise EvolutionError(f"generator is not finite and Hermitian within {HERMITICITY_TOL:g}")
    return h


def _eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The one eigendecomposition behind every pulse; a diagonal ``h`` is its own eigenbasis: no eigenvectors."""
    h = _check_hermitian(h)
    if np.count_nonzero(h) == np.count_nonzero(h.diagonal()):  # exact, and forms no D x D temporary
        return h.diagonal().real.copy(), None  # a copy, so the realized block can be freed
    return np.linalg.eigh(h)


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Dense exp(-i H t); the oracle used by error-scaling tests, on eigh whatever the shape of H."""
    w, v = np.linalg.eigh(_check_hermitian(h))
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

    ``groups`` pairs each non-diagonal group's sorted subsystem axes with its
    eigenvector matrix (a diagonal group is its own eigenbasis).  ``energies``
    is the outer product of every factor's eigenvalues, of size 1 on each axis
    the generator does not touch, and ``max_energy`` is their largest modulus,
    which bounds a pulse's phase.
    """

    groups: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    energies: np.ndarray
    max_energy: float


class Quadrature(NamedTuple):
    """A truncated quadrature's ascending nodes and its eigenvectors as columns, both read-only."""

    nodes: np.ndarray
    vectors: np.ndarray


class Generators:
    """Generator id -> factored eigendecomposition on one layout, each id diagonalized once.

    A pulse's generator expression has its Weyl symbol factored by its keys,
    as the module docstring describes.  The table belongs to the caller that
    creates it: pass the same table to several runs on one layout and they
    share every eigendecomposition, down to the local factors and remaining
    groups that different generators have in common.
    """

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self._decompositions: dict[str, _Factored] = {}
        # (key factor, dimension) of a local factor, or (sub-register specs, sub-symbol items) of a remaining group
        self._eigs: dict[tuple, tuple[np.ndarray, np.ndarray | None]] = {}

    def decomposition(self, pulse: Pulse) -> _Factored:
        gid = pulse.generator_id
        if gid not in self._decompositions:
            self._decompositions[gid] = self.factor(weyl_symbol(pulse.generator, self.layout))
        return self._decompositions[gid]

    @np.errstate(over="ignore", invalid="ignore")  # energies past float range are inf or NaN: the budget refuses them
    def factor(self, symbol: Symbol) -> _Factored:
        """The factored eigendecomposition of a Hermitian symbol, assembled on each call from the table's
        kept eigendecompositions of its local factors and of its remaining group."""
        layout, dims = self.layout, self.layout.dims
        keys = [dict(key) for key in symbol]
        touched = sorted(set().union(*keys))
        common = [i for i in touched if all(k.get(i) == keys[0].get(i) for k in keys)]
        rest = tuple(i for i in touched if i not in common)
        parts = [((i,), self._local_eig(keys[0][i], dims[i])) for i in common]
        if rest:
            position = {i: k for k, i in enumerate(rest)}
            sub = {tuple((position[i], f) for i, f in key if i in position): c for key, c in symbol.items()}
            group = (tuple(layout.subsystems[i] for i in rest), frozenset(sub.items()))
            if group not in self._eigs:
                self._eigs[group] = _eig(realize(sub, RegisterLayout(group[0])))
            parts.append((rest, self._eigs[group]))
        # with no remaining group every key is the same product, or there is none: its coefficient scales
        energies = np.full((1,) * len(dims), 1.0 if rest else sum(symbol.values(), 0.0))
        for axes, (w, _) in parts:
            energies = energies * w.reshape([d if i in axes else 1 for i, d in enumerate(dims)])
        return _Factored(tuple((a, v) for a, (_, v) in parts if v is not None), energies, float(np.abs(energies).max()))

    def quadrature(self, cutoff: int, f: tuple[int, int] = (1, 0)) -> Quadrature:
        """The truncated X's nodes and eigenvectors V: one eigh per cutoff.
        With ``f = (0, 1)``, the truncated P's: the same nodes and F·V."""
        return Quadrature(*self._local_eig(f, cutoff))

    def _local_eig(self, f: str | tuple[int, int], dim: int) -> tuple[np.ndarray, np.ndarray | None]:
        if (f, dim) not in self._eigs:
            w, v = self.quadrature(dim) if f == (0, 1) else _eig(local_factor(f, dim))
            if f == (1, 0):  # signed so <0|x_k> > 0, like the positive ground-state wavefunction
                v = v * np.where(v[0].real < 0, -1.0, 1.0)
            elif f == (0, 1):  # the truncated P is F X F^dagger exactly, F = diag(i^n): its eigenvectors are F V
                v = np.array([1, 1j, -1, -1j])[np.arange(dim) % 4, None] * v
            for a in (w, v) if v is not None else (w,):  # a diagonal factor has no eigenvectors
                a.flags.writeable = False
            self._eigs[(f, dim)] = w, v
        return self._eigs[(f, dim)]


def _propagate(seq: PulseSequence, layout: RegisterLayout, generators: Generators | None,
               amps: np.ndarray) -> np.ndarray:
    """The one pulse loop, on a vector (D,) or a block (D, k), within PHASE_BUDGET; ``amps`` is never written.  It
    runs the round ``seq.repeats`` times, carrying over the phases and ``owed`` (axes -> the eigenvectors they are
    still in: the module docstring's owed-basis rule).  Past NORM_TOL * 2**52 pulses, an ulp of norm drift a pulse
    could exceed NORM_TOL, so such a sequence is refused before its first pulse."""
    if not seq.n_pulses * 2.0**-52 <= NORM_TOL:
        raise EvolutionError(f"sequence of {seq.n_pulses} pulses exceeds NORM_TOL * 2**52 = {NORM_TOL * 2**52:.3g}")
    if generators is None:
        generators = Generators(layout)
    elif not isinstance(generators, Generators):
        raise EvolutionError(f"generators must be a Generators table or None, got {type(generators).__name__}")
    elif generators.layout != layout:
        raise EvolutionError("generator table was built for a different layout")
    caller, dims, ones = amps, layout.dims, (1,) * (amps.ndim - 1)
    tensor = dims + amps.shape[1:]
    owed: dict[tuple[int, ...], np.ndarray] = {}
    phases: dict[tuple[str, float], np.ndarray] = {}
    for pulse in (p for _ in range(seq.repeats) for p in seq.pulses if p.duration != 0.0):
        factored = generators.decomposition(pulse)
        if not (phase := factored.max_energy * pulse.duration) <= PHASE_BUDGET:
            raise EvolutionError(f"pulse {pulse.generator_id}: phase {phase:.3g} exceeds the phase budget 2**52 rad")
        groups, shape = dict(factored.groups), factored.energies.shape
        for axes in [a for a in owed if owed[a] is not groups.get(a) and any(shape[i] > 1 for i in a)]:
            amps = _on_axes(owed.pop(axes), axes, dims, amps)
        for axes in [a for a in groups if a not in owed]:
            amps = _on_axes(groups[axes].conj().T, axes, dims, amps)
            owed[axes] = groups[axes]
        if (key := (pulse.generator_id, pulse.sign * pulse.duration)) not in phases:
            phases[key] = np.exp(-1j * factored.energies * key[1]).reshape(shape + ones)
        amps = np.multiply(phases[key], amps.reshape(tensor),  # both reshapes inline: no name keeps a (D, k) view
                           out=None if amps is caller else amps.reshape(tensor)).reshape(caller.shape)
    for axes, v in owed.items():
        amps = _on_axes(v, axes, dims, amps)
    return amps


def run_sequence(seq: PulseSequence, state: StateVector, generators: Generators | None = None) -> StateVector:
    """The state a pulse sequence takes ``state`` to.

    ``generators`` is a caller-owned ``Generators`` table for the state's
    layout, which keeps its eigendecompositions across calls, or None for a
    table that lasts this call only; anything else raises EvolutionError.
    """
    return StateVector(state.layout, _propagate(seq, state.layout, generators, state.amplitudes))


def sequence_unitary(seq: PulseSequence, layout: RegisterLayout, generators: Generators | None = None) -> np.ndarray:
    """Dense unitary realized by a sequence (test and diagnostics helper)."""
    return _propagate(seq, layout, generators, np.eye(layout.total_dim, dtype=complex))


def trotter(expr: HamiltonianExpr, t: float, n_steps: int) -> PulseSequence:
    """First-order Lie-Trotter sequence for exp(-i build(expr) t): one round, run ``n_steps`` times (``repeats``).

    The round applies every term for t/n_steps, so the sequence holds one pulse per term whatever
    ``n_steps`` is; the approximation error is O(t^2 / n_steps) and vanishes for commuting terms.
    """
    if n_steps < 1:
        raise EvolutionError(f"n_steps must be >= 1, got {n_steps}")
    dt = abs(t) / n_steps
    sign = 1 if t >= 0 else -1
    step = tuple(Pulse(HamiltonianExpr((trm,)), dt, sign) for trm in expr.terms)
    return PulseSequence(step, n_steps)


def cv_qft(state: StateVector, mode_idx: int) -> StateVector:
    """Quarter rotation of one mode in phase space: X -> P, P -> -X.

    Implemented as exp(-i H t) with H = (X^2 + P^2)/2 = n + 1/2 and t = pi/2,
    the generator normalization under [X, P] = i for which a quarter rotation
    takes exactly a quarter period.  Applying it four times is the identity
    up to global phase.  It is one pulse: H's symbol is realized on the one
    mode, exactly diagonal in the Fock basis, so its phases need no eigenvectors.
    """
    if not state.layout.is_qumode(mode_idx):
        raise EvolutionError(f"subsystem {mode_idx} is not a qumode")
    return run_sequence(PulseSequence((Pulse(f"0.5*X@{mode_idx}^2 + 0.5*P@{mode_idx}^2", np.pi / 2),)), state)


def leakage(state: StateVector) -> float:
    """Probability of any qumode occupying its guard-band Fock levels: the weight summed there."""
    return float(np.sum(np.abs(state.amplitudes[~interior_mask(state.layout)]) ** 2))
