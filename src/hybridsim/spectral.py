"""Continuous-pointer spectroscopy: couple a system Hamiltonian H to one
oscillator through H(x)P, let eigenvalue branches shift the pointer, then
read the pointer position.

Position measurement uses the eigenbasis of the truncated X operator, whose
nodes are the scaled Gauss-Hermite points; Born sampling is exactly diagonal
there and no external grid has to be chosen.  The run's generator table owns
that quadrature and reads P's eigenvectors from it (`Generators.quadrature`).
A Gaussian pointer of width parameter beta (beta = 1 is the vacuum, beta > 1
squeezes X) resolves eigenvalues to about 1/(t sqrt(beta)); that figure is
recorded with every run, and scaling against it is what the resolution
experiments check.

Shots come from one generator per stream of the master seed, each stream's
shots drawn in one call: the same seed and n_shots give the same samples,
and an n-shot spectrum is the prefix of a longer one at the same seed.  A
shot is kept as its node index, so output costs follow the at most `cutoff`
nodes: the CLI formats each node's row once and bins nodes by shot count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .evolution import (
    LEAKAGE_INVALID,
    Generators,
    Pulse,
    PulseSequence,
    Quadrature,
    _on_axes,
    _propagate,
    leakage as state_leakage,
    run_sequence,
    trotter,
)
from .hilbert import (
    RegisterLayout,
    StateVector,
    guard_start,
    join_states,
    qumode,
)
from .operators import (
    HamiltonianExpr,
    HamiltonianTerm,
    LocalOp,
    weyl_symbol,
)


class SpectralError(ValueError):
    pass


@dataclass(frozen=True)
class PointerSpec:
    """Pointer configuration: Gaussian width beta, Fock cutoff, coupling time."""

    beta: float
    cutoff: int
    t_couple: float

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise SpectralError(f"beta must be positive and finite, got {self.beta}")
        if self.cutoff < 2:
            raise SpectralError(f"pointer cutoff must be >= 2, got {self.cutoff}")
        if not (np.isfinite(self.t_couple) and self.t_couple > 0):
            raise SpectralError(f"t_couple must be positive, got {self.t_couple}")

    @property
    def resolution(self) -> float:
        """Eigenvalue resolution figure 1/(t sqrt(beta))."""
        return 1.0 / (self.t_couple * np.sqrt(self.beta))


def prepare_gaussian_pointer(beta: float, cutoff: int) -> StateVector:
    """Single-mode state with position wavefunction proportional to e^{-beta x^2 / 2}.

    This is the squeezed vacuum with Var(X) = 1/(2 beta); beta = 1 is the
    Fock vacuum exactly.  Raises if the truncated space cannot hold the
    state to overlap 1 - 1e-6 (extreme squeezing at a too-small cutoff).
    """
    if not (np.isfinite(beta) and beta > 0):
        raise SpectralError(f"beta must be positive and finite, got {beta}")
    lam = np.tanh(0.5 * np.log(beta))
    coeff = np.zeros(cutoff, dtype=complex)
    c = 1.0
    coeff[0] = c
    for m in range(1, (cutoff + 1) // 2):
        c *= -lam * np.sqrt((2 * m - 1) / (2 * m))
        coeff[2 * m] = c
    captured = float(np.sum(np.abs(coeff) ** 2)) / np.cosh(0.5 * np.log(beta))
    if captured < 1.0 - 1e-6:
        raise SpectralError(
            f"cutoff {cutoff} holds only {captured:.6f} of the beta={beta} pointer; "
            "increase the cutoff or reduce the squeezing"
        )
    amps = coeff / np.linalg.norm(coeff)
    return StateVector(RegisterLayout((qumode(cutoff),)), amps)


def _coupling_sequence(h: HamiltonianExpr, pointer_idx: int, t: float, method: str, steps: int) -> PulseSequence:
    """exp(-i H(x)P t) for H = sum_k H_k: one exact pulse, or ``steps`` Trotter rounds over H_k (x) P."""
    coupling = HamiltonianExpr(tuple(
        HamiltonianTerm(trm.coefficient, trm.factors + ((pointer_idx, LocalOp("P")),))
        for trm in h.terms
    ))
    if method == "exact":
        return PulseSequence((Pulse(coupling, t, 1),))
    if method == "trotter":
        return trotter(coupling, t, steps)
    raise SpectralError(f"method must be 'exact' or 'trotter', got {method!r}")


def couple_pointer(
    system_state: StateVector,
    h: HamiltonianExpr,
    pointer: StateVector,
    t: float,
    method: str = "exact",
    trotter_steps: int = 64,
    generators: Generators | None = None,
) -> StateVector:
    """Joint state exp(-i H(x)P t) |system>|pointer> (pointer appended last).

    Each eigenvalue branch |E_j> of H translates the pointer by E_j t.  With
    method="trotter" the coupling is applied term by term in ``trotter_steps``
    first-order rounds, which is how a many-term H is actually driven.
    ``generators`` is an optional table for the joint layout (see run_sequence).
    """
    n_sys = len(system_state.layout)
    for trm in h.terms:
        for idx, _ in trm.factors:
            if idx >= n_sys:
                raise SpectralError(f"H touches subsystem {idx}, outside the system register")
    if len(pointer.layout) != 1 or not pointer.layout.is_qumode(0):
        raise SpectralError("pointer must be a single qumode state")
    if not (np.isfinite(t) and t > 0):
        raise SpectralError(f"coupling time must be positive, got {t}")

    seq = _coupling_sequence(h, n_sys, t, method, trotter_steps)
    return run_sequence(seq, join_states(system_state, pointer), generators)


def _node_amplitudes(layout: RegisterLayout, amps: np.ndarray, mode_idx: int,
                     generators: Generators | None = None) -> tuple[np.ndarray, Quadrature]:
    """Amplitudes re-expressed in the mode's quadrature-node basis, read from ``generators`` (else a fresh
    table): a vector (D,) gives (rest, nodes), a block (D, k) of states gives (rest, k, nodes)."""
    if not layout.is_qumode(mode_idx):
        raise SpectralError(f"subsystem {mode_idx} is not a qumode")
    d = layout.dims[mode_idx]
    basis = (generators or Generators(layout)).quadrature(d)
    moved = np.moveaxis(amps.reshape(layout.dims + amps.shape[1:]), mode_idx, -1)
    return moved.reshape((-1,) + amps.shape[1:] + (d,)) @ basis.vectors.conj(), basis


def _born(node_amps: np.ndarray) -> np.ndarray:
    """Normalized Born probabilities of the quadrature nodes: (nodes,) from (rest, nodes), (k, nodes) from a block."""
    probs = np.sum(np.abs(node_amps) ** 2, axis=0)
    return probs / probs.sum(axis=-1, keepdims=True)


def measure_position(
    joint: StateVector, mode_idx: int, rng: np.random.Generator, generators: Generators | None = None
) -> tuple[float, StateVector]:
    """Born-sample the X eigenbasis of one mode; returns (node value, collapsed state).  The basis is read from
    ``generators``, a caller-owned table for the joint layout, else from a fresh one."""
    node_amps, basis = _node_amplitudes(joint.layout, joint.amplitudes, mode_idx, generators)
    probs = _born(node_amps)
    k = int(rng.choice(len(probs), p=probs))
    _, collapsed = _collapse_to_bins(joint.layout, mode_idx, node_amps, basis, [np.array([k])])
    return float(basis.nodes[k]), StateVector(joint.layout, collapsed[:, 0])


def _collapse_to_bins(
    layout: RegisterLayout,
    mode_idx: int,
    node_amps: np.ndarray,
    basis: Quadrature,
    bins: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Project node amplitudes (rest, nodes) onto the span of each bin's quadrature nodes and renormalize:
    each bin's Born-weighted position (k,), and its collapsed state as one column of a block (D, k)."""
    outcomes, rest = np.empty(len(bins)), tuple(d for i, d in enumerate(layout.dims) if i != mode_idx)
    flat = np.empty((node_amps.shape[0], basis.vectors.shape[0], len(bins)), dtype=complex)  # (rest, level, bin)
    for j, members in enumerate(bins):
        probs = np.sum(np.abs(node_amps[:, members]) ** 2, axis=0)
        outcomes[j] = np.dot(probs, basis.nodes[members]) / probs.sum()
        flat[:, :, j] = (node_amps[:, members] / np.sqrt(probs.sum())) @ basis.vectors[:, members].T
    block = np.moveaxis(flat.reshape(rest + flat.shape[1:]), len(rest), mode_idx)  # a view when the mode is last
    return outcomes, block.reshape(layout.total_dim, len(bins))


def _position_bins(node_amps: np.ndarray, nodes: np.ndarray, width: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Node indices of each occupied bin floor(x / width), and the bins' Born probabilities."""
    probs = _born(node_amps)
    bins = np.floor(nodes / width)  # the nodes ascend: a bin is a run of consecutive nodes
    members = np.split(np.arange(len(nodes)), np.flatnonzero(np.diff(bins)) + 1)
    bin_probs = np.array([probs[m].sum() for m in members])
    return members, bin_probs / bin_probs.sum()


def measure_position_binned(
    joint: StateVector, mode_idx: int, rng: np.random.Generator, bin_width: float, generators: Generators | None = None
) -> tuple[float, StateVector]:
    """Projective position measurement at finite resolution ``bin_width``.

    Projects onto the span of the quadrature nodes inside the sampled bin
    (a rank > 1 projector), so the collapsed pointer stays a band-limited
    wavepacket that the truncated mode can keep evolving.  A single-node
    collapse would saturate the Fock space and cannot be translated
    faithfully, which is why mid-run measurements use this form.  Returns
    the Born-weighted position within the bin and the collapsed state; ``generators`` is as in `measure_position`.
    """
    if not (np.isfinite(bin_width) and bin_width > 0):
        raise SpectralError(f"bin_width must be positive and finite, got {bin_width}")
    node_amps, basis = _node_amplitudes(joint.layout, joint.amplitudes, mode_idx, generators)
    members, bin_probs = _position_bins(node_amps, basis.nodes, bin_width)
    chosen = members[int(rng.choice(len(members), p=bin_probs))]
    outcomes, collapsed = _collapse_to_bins(joint.layout, mode_idx, node_amps, basis, [chosen])
    return float(outcomes[0]), StateVector(joint.layout, collapsed[:, 0])


@dataclass(frozen=True)
class Peak:
    eigenvalue: float
    weight: float
    count: int
    center_x: float
    sigma_x: float


@dataclass(frozen=True)
class _Shots:
    """A run's shots as indices into its read-only quadrature nodes; ``samples`` is their positions."""

    nodes: np.ndarray
    shot_nodes: np.ndarray

    @property
    def samples(self) -> tuple[float, ...]:
        return tuple(self.nodes[self.shot_nodes].tolist())


@dataclass(frozen=True)
class SpectrumEstimate(_Shots):
    """Sampled pointer positions plus the detected peaks and run diagnostics."""

    t_couple: float
    beta: float
    peaks: tuple[Peak, ...]
    resolution: float
    leakage: float
    valid: bool
    seed: int
    method: str
    notes: tuple[str, ...] = ()


def _cluster(samples: np.ndarray, gap: float) -> list[np.ndarray]:
    order = np.sort(samples)
    splits = np.flatnonzero(np.diff(order) > gap) + 1
    return np.split(order, splits)


def _make_peaks(samples: np.ndarray, beta: float, t: float, n_shots: int) -> tuple[Peak, ...]:
    gap = 3.0 / np.sqrt(2.0 * beta)
    peaks = []
    for cluster in _cluster(samples, gap):
        center = float(np.mean(cluster))
        peaks.append(
            Peak(
                eigenvalue=center / t,
                weight=len(cluster) / n_shots,
                count=len(cluster),
                center_x=center,
                sigma_x=float(np.std(cluster)),
            )
        )
    return tuple(peaks)


def _stream(seed: int, stream: int) -> np.random.Generator:
    """The one generator of a shot stream: 0 is the spectrum/baseline, 1 the mid-run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def reliable_shift(cutoff: int) -> float:
    """Largest pointer displacement the guard-banded mode can register."""
    return float(np.sqrt(2.0 * guard_start(cutoff) + 1.0))


def estimate_spectrum(
    h: HamiltonianExpr,
    psi: StateVector,
    spec: PointerSpec,
    n_shots: int,
    seed: int,
    method: str = "exact",
    trotter_steps: int = 64,
    generators: Generators | None = None,
) -> SpectrumEstimate:
    """Sample the spectral decomposition of |psi> under H.

    Runs prepare -> couple -> measure with a fresh pointer per shot (shots
    are i.i.d., so the coupled state is computed once and sampled n_shots
    times, in one draw from stream 0: shot i takes the stream's i-th uniform,
    so an n-shot run is the prefix of a longer one).  Samples cluster into
    peaks separated by more than three pointer widths; each peak reports
    eigenvalue = center/t and weight = count/shots.
    ``generators`` is passed on to couple_pointer.
    """
    if n_shots < 1:
        raise SpectralError(f"n_shots must be >= 1, got {n_shots}")
    pointer = prepare_gaussian_pointer(spec.beta, spec.cutoff)
    if generators is None:
        generators = Generators(RegisterLayout(psi.layout.subsystems + pointer.layout.subsystems))
    joint = couple_pointer(psi, h, pointer, spec.t_couple, method, trotter_steps, generators)
    mode_idx = len(psi.layout)
    node_amps, basis = _node_amplitudes(joint.layout, joint.amplitudes, mode_idx, generators)
    probs = _born(node_amps)

    shot_nodes = _stream(seed, 0).choice(len(probs), size=n_shots, p=probs)
    peaks = _make_peaks(basis.nodes[shot_nodes], spec.beta, spec.t_couple, n_shots)

    leak = state_leakage(joint)
    notes = []
    limit = reliable_shift(spec.cutoff)
    if any(abs(p.center_x) > limit for p in peaks):
        notes.append(
            f"peak beyond the reliable quadrature range |x| <= {limit:.2f}; "
            "reduce t_couple or enlarge the pointer cutoff"
        )
    if leak > LEAKAGE_INVALID:
        notes.append(f"leakage {leak:.3e} exceeds {LEAKAGE_INVALID}")
    return SpectrumEstimate(
        nodes=basis.nodes,
        shot_nodes=shot_nodes,
        t_couple=spec.t_couple,
        beta=spec.beta,
        peaks=peaks,
        resolution=spec.resolution,
        leakage=leak,
        valid=not notes,
        seed=seed,
        method=method,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class BranchCheck:
    """Mid-measurement diagnostics for one detected peak."""

    eigenvalue: float
    baseline_eigenvalue: float | None
    shift: float | None
    fidelity_before: float
    fidelity_after: float


@dataclass(frozen=True)
class RobustnessReport(_Shots):
    baseline: SpectrumEstimate
    peaks: tuple[Peak, ...]
    branches: tuple[BranchCheck, ...]
    resolution: float
    leakage: float
    valid: bool
    seed: int


def _system_vector(node_amps: np.ndarray, k: int) -> np.ndarray:
    column = node_amps[:, k]
    return column / np.linalg.norm(column)


def robustness_midmeasure(
    h: HamiltonianExpr,
    psi: StateVector,
    spec: PointerSpec,
    n_shots: int,
    seed: int,
    method: str = "exact",
    trotter_steps: int = 64,
) -> RobustnessReport:
    """Interrupt the coupling halfway with a projective pointer measurement.

    The mid-run measurement is the finite-resolution binned projection
    (bin width = one pointer sigma): a single-node collapse would leave the
    truncated mode unable to keep translating.  The final estimate still
    uses the total displacement over the total time: peak positions are
    preserved within the resolution (widths may change).  For each detected
    peak the report checks that the system stays in the same eigenspace
    across the second half: a fidelity is the branch vector's weight, in H's
    eigenbasis, on the energies within 1e-9 of the eigenvalue nearest the
    peak.  The baseline, both halves and H's eigenbasis share one generator
    table, so the coupling is diagonalized once, and with it H.  The baseline
    draws stream 0, the mid-run stream 1: every shot's bin in one draw, then
    each occupied bin's final nodes in one draw, bins ascending.  Each
    occupied bin's collapsed state is one column of a (D, k) block, and the
    second half propagates the block once.  With method="trotter" each half
    runs ``trotter_steps`` rounds of t/(2 trotter_steps), the baseline
    ``trotter_steps`` rounds of t/trotter_steps: a branch's shift from the
    baseline includes that difference in Trotter error.
    """
    pointer = prepare_gaussian_pointer(spec.beta, spec.cutoff)
    generators = Generators(RegisterLayout(psi.layout.subsystems + pointer.layout.subsystems))
    baseline = estimate_spectrum(h, psi, spec, n_shots, seed, method, trotter_steps, generators)

    half = spec.t_couple / 2.0
    joint1 = couple_pointer(psi, h, pointer, half, method, trotter_steps, generators)
    layout, mode_idx = joint1.layout, len(psi.layout)
    amps1, basis = _node_amplitudes(layout, joint1.amplitudes, mode_idx, generators)
    members, bin_probs = _position_bins(amps1, basis.nodes, 1.0 / np.sqrt(2.0 * spec.beta))

    rng = _stream(seed, 1)
    shot_bins = rng.choice(len(members), size=n_shots, p=bin_probs)
    occupied = np.flatnonzero(np.bincount(shot_bins))
    _, block = _collapse_to_bins(layout, mode_idx, amps1, basis, [members[i] for i in occupied])
    block = _propagate(_coupling_sequence(h, mode_idx, half, method, trotter_steps), layout, generators, block)
    amps2, _ = _node_amplitudes(layout, block, mode_idx, generators)  # (rest, bin, node)
    del block
    probs2 = _born(amps2)
    shot_nodes = np.empty(n_shots, dtype=int)
    for j, bin_i in enumerate(occupied):
        in_bin = shot_bins == bin_i
        shot_nodes[in_bin] = rng.choice(len(basis.nodes), size=int(in_bin.sum()), p=probs2[j])
    samples = basis.nodes[shot_nodes]

    peaks = _make_peaks(samples, spec.beta, spec.t_couple, n_shots)

    system, sys_dims = generators.factor(weyl_symbol(h, layout)), layout.dims[:mode_idx]
    energies = np.broadcast_to(system.energies, sys_dims + (1,)).reshape(-1)  # the pointer axis is untouched
    branches = []
    for peak in peaks:
        rep = int(np.argmin(np.abs(samples - peak.center_x)))
        in_bin = members[shot_bins[rep]]
        v1 = _system_vector(amps1, int(in_bin[np.argmax(np.sum(np.abs(amps1[:, in_bin]) ** 2, axis=0))]))
        v2 = _system_vector(amps2[:, np.searchsorted(occupied, shot_bins[rep])], int(shot_nodes[rep]))
        pair = np.stack([v1, v2], axis=1)
        for axes, v in system.groups:  # into H's eigenbasis
            pair = _on_axes(v.conj().T, axes, sys_dims, pair)
        nearest = energies[np.argmin(np.abs(energies - peak.eigenvalue))]
        before, after = np.sum(np.abs(pair[np.abs(energies - nearest) <= 1e-9]) ** 2, axis=0)
        base = min(baseline.peaks, key=lambda b: abs(b.eigenvalue - peak.eigenvalue), default=None)
        branches.append(
            BranchCheck(
                eigenvalue=peak.eigenvalue,
                baseline_eigenvalue=None if base is None else base.eigenvalue,
                shift=None if base is None else abs(peak.eigenvalue - base.eigenvalue),
                fidelity_before=float(before),
                fidelity_after=float(after),
            )
        )

    leak = state_leakage(joint1)
    return RobustnessReport(
        nodes=basis.nodes,
        shot_nodes=shot_nodes,
        baseline=baseline,
        peaks=peaks,
        branches=tuple(branches),
        resolution=spec.resolution,
        leakage=leak,
        valid=leak <= LEAKAGE_INVALID,
        seed=seed,
    )


def estimate_to_dict(est: SpectrumEstimate) -> dict:
    return {
        "t_couple": est.t_couple,
        "beta": est.beta,
        "resolution": est.resolution,
        "leakage": est.leakage,
        "valid": est.valid,
        "seed": est.seed,
        "method": est.method,
        "notes": list(est.notes),
        "peaks": [asdict(p) for p in est.peaks],
    }
