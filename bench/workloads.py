"""Seeded CLI experiment lists for the four benchmark workloads, with reference checks.

Each workload turns a workload seed into a list of ``hybridsim`` CLI runs.
The seed draws Hamiltonian coefficients, angles and each run's ``--seed``
within fixed ranges; sizes are fixed per workload, so the cost of a sweep
does not depend on the seed.  The references the checks compare against
are computed here with plain numpy and never taken from the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Pointer settings shared by every spectroscopy run: resolution
# 1/(t sqrt(beta)) = 0.1, clustering gap 3/sqrt(2 beta) = 1.06 in x, and a
# reliable displacement of 13.9 in x (|E| <= 2.78) for a 128-level pointer.
BETA, T_COUPLE, POINTER_CUTOFF = 4.0, 5.0, 128
WEIGHT_TOL = 0.05  # 4.5 standard deviations of a peak weight from 2000 shots
RESIDUAL_TOL = 1e-8
MIN_PROBE_FIDELITY = 0.99

Check = Callable[[dict, Path], tuple]


@dataclass(frozen=True)
class Experiment:
    """One CLI run; ``check`` maps (summary, out dir) to (problems, notes)."""

    label: str
    command: str
    config: dict
    seed: int
    check: Check

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--seed", str(self.seed), "--out", str(out_dir)]


# ---------------------------------------------------------------------------
# reference operators (numpy only, same conventions as the README)

_PAULI = {
    "id": np.eye(2, dtype=complex),
    "sx": np.array([[0, 1], [1, 0]], dtype=complex),
    "sy": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "sz": np.array([[1, 0], [0, -1]], dtype=complex),
}

# A Hamiltonian is a list of (coefficient, ((subsystem, name, power), ...)).
Terms = list


def _local(name: str, power: int, dim: int) -> np.ndarray:
    if name in _PAULI:
        return _PAULI[name]
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    op = (a + a.T) / np.sqrt(2) if name == "X" else (a - a.T) / (1j * np.sqrt(2))
    return np.linalg.matrix_power(op, power)


def reference_matrix(terms: Terms, dims: list[int]) -> np.ndarray:
    """Dense H with subsystem 0 the slowest tensor factor (np.kron order)."""
    total = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for coef, factors in terms:
        ops = {site: _local(name, power, dims[site]) for site, name, power in factors}
        mat = np.ones((1, 1), dtype=complex)
        for site, dim in enumerate(dims):
            mat = np.kron(mat, ops.get(site, np.eye(dim)))
        total += coef * mat
    return total


def render(terms: Terms) -> str:
    """Text in the CLI's Hamiltonian grammar (coefficients carry no sign)."""
    parts = []
    for coef, factors in terms:
        body = "*".join([f"{abs(coef)!r}"] + [
            f"{name}@{site}" + (f"^{power}" if power > 1 else "") for site, name, power in factors
        ])
        sign = "-" if coef < 0 else "+"
        parts.append(f" {sign} {body}" if parts else body if coef >= 0 else f"-{body}")
    return "".join(parts)


def _layout(dims: list[int]) -> list:
    return ["qubit" if d == 2 else {"kind": "qumode", "cutoff": d} for d in dims]


def _round(x: float) -> float:
    return round(float(x), 6)


def _draw(rng: np.random.Generator, lo: float, hi: float) -> float:
    return _round(rng.uniform(lo, hi))


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# spectroscopy


def _pauli_string(name: str, sites) -> tuple:
    return tuple((s, name, 1) for s in sites)


def pointer_hamiltonian(rng: np.random.Generator, n: int, commuting: bool = False) -> Terms:
    """System H whose levels stay resolvable by the pointer for every draw.

    n = 1:  r (cos th sz + sin th sx), levels +-r.
    n >= 2: a sz0 sz1 + b sx1..sx(n-1) + c sx0..sx(n-1).  The last string
    commutes with the first two, which anticommute for n >= 3, so the levels
    are +-sqrt(a^2 + b^2) +- c.  ``commuting`` (and n = 2) drops the middle
    string, leaving +-a +- c with mutually commuting terms.  Level gaps stay
    above 0.9 and |E| below 2.0, so clusters never merge and never reach
    the pointer's guard band.
    """
    r, theta, c = _draw(rng, 1.2, 1.4), _draw(rng, 0.3, 1.2), _draw(rng, 0.45, 0.6)
    if n == 1:
        return [(_round(r * np.cos(theta)), _pauli_string("sz", [0])),
                (_round(r * np.sin(theta)), _pauli_string("sx", [0]))]
    terms = [(_round(r * np.cos(theta)), _pauli_string("sz", [0, 1]))]
    if n >= 3 and not commuting:
        terms.append((_round(r * np.sin(theta)), _pauli_string("sx", range(1, n))))
    terms.append((c, _pauli_string("sx", range(n))))
    return terms


def _born_levels(terms: Terms, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct eigenvalues of H and their Born weights for |0...0>."""
    w, v = np.linalg.eigh(reference_matrix(terms, [2] * n))
    amp2 = np.abs(v[0, :]) ** 2
    levels, weights = [], []
    for e, p in zip(w, amp2):
        if levels and abs(e - levels[-1]) < 1e-6:
            weights[-1] += p
        else:
            levels.append(e)
            weights.append(p)
    return np.array(levels), np.array(weights)


def _check_peaks(est: dict, levels: np.ndarray, weights: np.ndarray, what: str) -> list[str]:
    problems = []
    res = est["resolution"]
    for peak in est["peaks"]:
        j = int(np.argmin(np.abs(levels - peak["eigenvalue"])))
        if abs(levels[j] - peak["eigenvalue"]) > res:
            problems.append(f"{what}: peak {peak['eigenvalue']:.4f} is not within {res} of a level")
        elif abs(peak["weight"] - weights[j]) > WEIGHT_TOL:
            problems.append(f"{what}: peak {peak['eigenvalue']:.4f} weight {peak['weight']:.4f} "
                            f"vs Born {weights[j]:.4f}")
    for e, p in zip(levels, weights):
        if p > WEIGHT_TOL and not any(abs(pk["eigenvalue"] - e) <= res for pk in est["peaks"]):
            problems.append(f"{what}: level {e:.4f} (Born weight {p:.3f}) has no peak")
    return problems


def _shot_rows(out_dir: Path) -> int:
    lines = (out_dir / "samples.csv").read_text().splitlines()
    return sum(1 for line in lines if line and not line.startswith("#")) - 1


def _spectrum_check(terms: Terms, n: int, shots: int, robustness: bool) -> Check:
    levels, weights = _born_levels(terms, n)

    def check(summary: dict, out_dir: Path):
        res = summary["results"]
        est = res["baseline"] if robustness else res
        problems = _check_peaks(est, levels, weights, "baseline" if robustness else "spectrum")
        if _shot_rows(out_dir) != shots:
            problems.append(f"samples.csv has {_shot_rows(out_dir)} shot rows, want {shots}")
        notes = []
        if robustness:
            # The mid-measurement peaks are reported, not gated: see bench/README.md.
            off = [p for p in res["midmeasure_peaks"]
                   if np.min(np.abs(levels - p["eigenvalue"])) > res["resolution"]]
            if off:
                notes.append(f"{len(off)} mid-measure peaks off the spectrum, "
                             f"total weight {sum(p['weight'] for p in off):.4f}")
        return problems, notes

    return check


def _spectroscopy_run(rng, command: str, n: int, shots: int, method: str = "exact", steps: int = 64) -> Experiment:
    terms = pointer_hamiltonian(rng, n, commuting=method == "trotter")
    config = {
        "layout": ["qubit"] * n,
        "hamiltonian": render(terms),
        "beta": BETA,
        "t_couple": T_COUPLE,
        "pointer_cutoff": POINTER_CUTOFF,
        "n_shots": shots,
    }
    label = f"{command} {n}q D={2**n * POINTER_CUTOFF}"
    if method == "trotter":
        config.update(method="trotter", trotter_steps=steps)
        label += f" trotter{steps}"
    return Experiment(label, command, config, _cli_seed(rng),
                      _spectrum_check(terms, n, shots, command == "robustness"))


def pointer_spectroscopy(rng: np.random.Generator, tiny: bool) -> list[Experiment]:
    if tiny:
        return [
            _spectroscopy_run(rng, "spectrum", 2, 2000),
            _spectroscopy_run(rng, "spectrum", 2, 2000, "trotter", 8),
            _spectroscopy_run(rng, "robustness", 1, 2000),
        ]
    return [
        _spectroscopy_run(rng, "spectrum", 4, 2000),
        _spectroscopy_run(rng, "spectrum", 3, 2000, "trotter", 64),
        _spectroscopy_run(rng, "robustness", 3, 2000),
    ]


def shot_sampling(rng: np.random.Generator, tiny: bool) -> list[Experiment]:
    scale = 10 if tiny else 1
    return [
        _spectroscopy_run(rng, "spectrum", 1, 50_000 // scale),
        _spectroscopy_run(rng, "robustness", 2, 25_000 // scale),
    ]


# ---------------------------------------------------------------------------
# gate synthesis


def _synth_check(monotone: bool) -> Check:
    def check(summary: dict, out_dir: Path):
        res = summary["results"]
        errors = [row["measured_error"] for row in res["errors"]]
        rises = [f"{a:.4g}->{b:.4g}" for a, b in zip(errors, errors[1:]) if b > a]
        problems, notes = [], []
        if rises:
            # sz@0*sz@1 is the documented exception: its block is exact on the
            # interior and the full-space error is truncation-edge noise.
            (problems if monotone else notes).append(f"measured_error rises with n_blocks: {rises}")
        if res["probe_state_fidelity"] < MIN_PROBE_FIDELITY:
            problems.append(f"probe_state_fidelity {res['probe_state_fidelity']:.6f} < {MIN_PROBE_FIDELITY}")
        return problems, notes

    return check


def _synth_run(rng, dims, target: str, angle_range, blocks, monotone: bool = True) -> Experiment:
    config = {"layout": _layout(dims), "target": target, "angle": _draw(rng, *angle_range), "n_blocks": blocks}
    return Experiment(f"synth {target} D={int(np.prod(dims))} blocks<={blocks[-1]}", "synth", config,
                      _cli_seed(rng), _synth_check(monotone))


def _trotter_errors(terms: Terms, dims: list[int], t: float, steps: list[int]) -> list[float]:
    def unitary(h, time):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * time)) @ v.conj().T

    exact = unitary(reference_matrix(terms, dims), t)
    step_ops = [reference_matrix([trm], dims) for trm in terms]
    errors = []
    for n in steps:
        one = np.eye(exact.shape[0], dtype=complex)
        for h in step_ops:
            one = unitary(h, t / n) @ one
        errors.append(float(np.linalg.norm(np.linalg.matrix_power(one, n) - exact, 2)))
    return errors


def _trotter_run(rng, dims, steps) -> Experiment:
    mode = len(dims) - 1
    terms = [
        (_draw(rng, 0.7, 1.3), ((0, "sz", 1), (mode, "X", 1))),
        (_draw(rng, 0.7, 1.3), ((0, "sx", 1), (mode, "X", 1))),
        (_draw(rng, 0.3, 0.7), ((1, "sz", 1), (mode, "P", 1))),
    ]
    t = _draw(rng, 0.4, 0.6)
    config = {"layout": _layout(dims), "hamiltonian": render(terms), "t": t, "steps": steps}
    reference = _trotter_errors(terms, dims, t, steps)

    def check(summary: dict, out_dir: Path):
        res = summary["results"]
        problems = []
        if not -1.2 <= res["error_slope"] <= -0.8:
            problems.append(f"error_slope {res['error_slope']:.3f} not within [-1.2, -0.8]")
        got = [row["error"] for row in res["errors"]]
        if not np.allclose(got, reference, rtol=1e-6, atol=1e-10):
            problems.append(f"Trotter errors {got} differ from the reference {reference}")
        return problems, []

    return Experiment(f"trotter-scaling D={int(np.prod(dims))}", "trotter-scaling", config, _cli_seed(rng), check)


def gate_synthesis(rng: np.random.Generator, tiny: bool) -> list[Experiment]:
    modes = [2, 6, 6] if tiny else [2, 12, 12]
    bus = [2, 2, 8] if tiny else [2, 2, 32]
    blocks = [4, 16] if tiny else [4, 16, 64]
    long_blocks = [4, 16] if tiny else [4, 16, 64, 256]
    return [
        _synth_run(rng, modes, "X@1*X@2", (0.2, 0.5), blocks),
        _synth_run(rng, bus, "sz@0*sz@1", (0.15, 0.45), long_blocks, monotone=False),
        _synth_run(rng, bus, "sy@0*X@2^2", (0.1, 0.3), long_blocks),
        _trotter_run(rng, bus, [4, 8, 16] if tiny else [4, 8, 16, 32, 64]),
    ]


# ---------------------------------------------------------------------------
# Lie closure

_BASE_PROBES = ["sx@0", "sz@0", "sy@0", "id@0"]


def _closure_run(rng, dims, pairs, probes, max_new: int, expected_directions: int) -> Experiment:
    seeds = []
    for spin, mode in pairs:
        for name, quad in (("sx", "X"), ("sz", "X"), ("sz", "P")):
            coef = _draw(rng, 0.5, 2.0) * (1 if rng.random() < 0.5 else -1)
            seeds.append(render([(coef, ((spin, name, 1), (mode, quad, 1)))]))
    config = {"layout": _layout(dims), "seeds": seeds, "max_new": max_new, "degree_cap": 4, "probes": probes}

    def check(summary: dict, out_dir: Path):
        res = summary["results"]
        problems = [f"probe {p} residual {r:.3e} > {RESIDUAL_TOL}" for p, r in res["probes"].items()
                    if not r <= RESIDUAL_TOL]
        if res["n_directions"] != expected_directions:
            problems.append(f"n_directions {res['n_directions']} != {expected_directions} for this layout")
        return problems, []

    return Experiment(f"closure D={int(np.prod(dims))}", "closure", config, _cli_seed(rng), check)


def lie_closure(rng: np.random.Generator, tiny: bool) -> list[Experiment]:
    if tiny:
        return [
            _closure_run(rng, [2, 8], [(0, 1)], _BASE_PROBES, 20, 25),
            _closure_run(rng, [2, 2, 8], [(0, 2), (1, 2)], _BASE_PROBES + ["sz@0*sz@1"], 40, 48),
        ]
    return [
        _closure_run(rng, [2, 32], [(0, 1)], _BASE_PROBES + ["sy@0*X@1^2", "sz@0*X@1^3"], 60, 62),
        _closure_run(rng, [2, 2, 32], [(0, 2), (1, 2)],
                     _BASE_PROBES + ["sy@0*X@2^2", "sz@0*X@2^3", "sz@0*sz@1"], 90, 98),
        _closure_run(rng, [2, 12, 12], [(0, 1), (0, 2)],
                     _BASE_PROBES + ["sy@0*X@1^2", "sz@0*X@1^3", "X@1*X@2"], 80, 90),
    ]


WORKLOADS = {
    "pointer-spectroscopy": pointer_spectroscopy,
    "gate-synthesis": gate_synthesis,
    "lie-closure": lie_closure,
    "shot-sampling": shot_sampling,
}


def experiments(workload: str, seed: int, tiny: bool = False) -> list[Experiment]:
    """The workload's experiment list; the same seed gives the same list."""
    index = list(WORKLOADS).index(workload)
    return WORKLOADS[workload](np.random.default_rng([seed, index]), tiny)


def write_config(exp: Experiment, path: Path) -> None:
    path.write_text(json.dumps(dict(exp.config, experiment=exp.command), sort_keys=True))
