"""Composite Hilbert-space bookkeeping for hybrid qubit/oscillator registers.

Conventions fixed here and relied on by every other module:

* Subsystem 0 is the slowest-varying tensor factor.  For a layout
  ``[A, B]`` the flat index of ``|a, b>`` is ``a * dim_B + b``, so
  ``np.kron(op_A, op_B)`` acts as ``A (x) B``.  This ordering is frozen.
* States are unit vectors.  Operations never renormalise silently; the
  only renormalisation points are documented measurement collapses.
* Oscillators live in a truncated Fock basis.  Truncation corrupts the
  top Fock levels, so a guard band (the top `DEFAULT_GUARD` fraction of
  levels, set here only) is excluded from operator comparisons and
  monitored as "leakage".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

DEFAULT_GUARD = 0.25

NORM_TOL = 1e-8


class HilbertError(ValueError):
    """Raised for malformed layouts or states."""


@dataclass(frozen=True)
class SubsystemSpec:
    """A single register slot: a qubit or a Fock-truncated oscillator mode."""

    kind: str
    cutoff: int | None = None

    def __post_init__(self):
        if self.kind not in ("qubit", "qumode"):
            raise HilbertError(f"unknown subsystem kind {self.kind!r}")
        if self.kind == "qubit":
            if self.cutoff is not None:
                raise HilbertError("qubit takes no cutoff (dimension is 2)")
        else:
            if self.cutoff is None or self.cutoff < 2:
                raise HilbertError(f"qumode cutoff must be >= 2, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return 2 if self.kind == "qubit" else int(self.cutoff)  # type: ignore[arg-type]


def qubit() -> SubsystemSpec:
    return SubsystemSpec("qubit")


def qumode(cutoff: int) -> SubsystemSpec:
    return SubsystemSpec("qumode", cutoff)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered collection of subsystems defining one composite Hilbert space."""

    subsystems: tuple[SubsystemSpec, ...]

    def __post_init__(self):
        if not self.subsystems:
            raise HilbertError("layout needs at least one subsystem")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.subsystems)

    def check_index(self, idx: int) -> int:
        if not 0 <= idx < len(self.subsystems):
            raise HilbertError(f"subsystem index {idx} out of range for {len(self)} subsystems")
        return idx

    def is_qubit(self, idx: int) -> bool:
        return self.subsystems[self.check_index(idx)].kind == "qubit"

    def is_qumode(self, idx: int) -> bool:
        return self.subsystems[self.check_index(idx)].kind == "qumode"


def new_register(specs: list[SubsystemSpec] | tuple[SubsystemSpec, ...]) -> RegisterLayout:
    """Build a layout from subsystem specs (subsystem 0 = slowest tensor factor)."""
    return RegisterLayout(tuple(specs))


@np.errstate(over="ignore", invalid="ignore")  # an entry that is not finite reads as a residual, not a warning
def hermiticity_residual(mat: np.ndarray) -> float:
    """max|M - M^dagger|, NaN or inf when an entry is not finite: each check reads ``not residual <= tol``."""
    return float(np.max(np.abs(mat - mat.conj().T)))


def _as_unit_vector(amplitudes, dim: int) -> np.ndarray:
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (dim,):
        raise HilbertError(f"amplitude vector has shape {amps.shape}, expected ({dim},)")
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
        raise HilbertError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}, more than {NORM_TOL:g}")
    amps = amps.copy()
    amps.flags.writeable = False
    return amps


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over a RegisterLayout.

    Instances are immutable: the amplitude buffer is marked read-only and
    every operation returns a fresh state.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _as_unit_vector(self.amplitudes, self.layout.total_dim))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: StateVector) -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: StateVector) -> float:
        """|<self|other>|^2 (global phase dropped)."""
        return float(abs(self.overlap(other)) ** 2)

    def expectation(self, op: np.ndarray) -> float:
        val = np.vdot(self.amplitudes, op @ self.amplitudes)
        return float(val.real)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.layout.dims)


def basis_state(layout: RegisterLayout, occupations: list[int] | tuple[int, ...]) -> StateVector:
    """Computational / Fock product state |occ_0, occ_1, ...>."""
    dims = layout.dims
    if len(occupations) != len(dims):
        raise HilbertError(f"got {len(occupations)} occupations for {len(dims)} subsystems")
    for i, (occ, d) in enumerate(zip(occupations, dims)):
        if not 0 <= occ < d:
            raise HilbertError(f"occupation {occ} out of range for subsystem {i} (dim {d})")
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[np.ravel_multi_index(tuple(occupations), dims)] = 1.0
    return StateVector(layout, amps)


def join_states(a: StateVector, b: StateVector) -> StateVector:
    """Product state on the concatenated layout (a's subsystems first)."""
    layout = RegisterLayout(a.layout.subsystems + b.layout.subsystems)
    return StateVector(layout, np.kron(a.amplitudes, b.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix (within tolerances)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise HilbertError(f"density matrix must be square, got shape {mat.shape}")
        if not hermiticity_residual(mat) <= 1e-12:
            raise HilbertError("density matrix is not Hermitian within 1e-12")
        if not abs(np.trace(mat).real - 1.0) <= 1e-10:
            raise HilbertError(f"density matrix trace {np.trace(mat).real} deviates from 1")
        if not np.linalg.eigvalsh(mat).min() >= -1e-10:
            raise HilbertError("density matrix has an eigenvalue below -1e-10")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def reduced_density(state: StateVector, keep: list[int] | tuple[int, ...]) -> DensityMatrix:
    """Partial trace onto the ``keep`` subsystems (in the order given)."""
    if not keep:
        raise HilbertError("keep must name at least one subsystem")
    keep = [state.layout.check_index(i) for i in keep]
    if len(set(keep)) != len(keep):
        raise HilbertError(f"repeated subsystem in keep={keep}")
    dims = state.layout.dims
    rest = [i for i in range(len(dims)) if i not in keep]
    kdim = math.prod(dims[i] for i in keep)
    psi = state.tensor().transpose(keep + rest).reshape(kdim, -1)
    return DensityMatrix(psi @ psi.conj().T)


def guard_start(cutoff: int) -> int:
    """First Fock level inside the guard band, the top `DEFAULT_GUARD` of a mode's levels."""
    return max(1, min(cutoff - 1, math.ceil((1.0 - DEFAULT_GUARD) * cutoff)))


def interior_levels(layout: RegisterLayout) -> tuple[int, ...]:
    """The one definition of the interior: the leading levels of each subsystem below its
    guard band (both for a qubit, those below `guard_start` for a qumode), whose product is
    the interior block read by `interior_mask` and by `operators.realize`'s ``levels``."""
    return tuple(2 if spec.kind == "qubit" else guard_start(spec.dim) for spec in layout.subsystems)


def interior_mask(layout: RegisterLayout) -> np.ndarray:
    """Boolean mask over flat indices of the `interior_levels` block."""
    return reduce(np.kron, [np.arange(dim) < n for dim, n in zip(layout.dims, interior_levels(layout))])


def compress_to_interior(op: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """Restrict an operator to the guard-banded interior block."""
    mask = interior_mask(layout)
    return np.asarray(op)[np.ix_(mask, mask)]
