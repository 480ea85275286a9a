"""Command-line front end: reproducible experiment runs with file outputs.

Subcommands::

    hybridsim synth|closure|qft-demo|spectrum|robustness|trotter-scaling
        --config FILE [--seed N] [--out DIR]

Every run writes three files into the output directory:

    summary.json   config echo, config hash, seed, leakage, wall time, results
    samples.csv    the experiment's tabular data
    curve.dat      gnuplot-style x/y columns for the experiment's main curve

Given the same config and seed, samples.csv and curve.dat are byte-identical
across runs (each shot stream is one generator seeded from the master seed);
wall time lives only in summary.json for that reason.

Exit codes: 0 ok, 2 config parse error, 3 validation error, 4 result flagged
invalid by the leakage/pointer-range checks (outputs are still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    LEAKAGE_INVALID,
    EvolutionError,
    Generators,
    Pulse,
    PulseSequence,
    cv_qft,
    leakage as state_leakage,
    run_sequence,
    sequence_unitary,  # not called here, but kept importable from cli, which the benchmark's tracer pins
    trotter,
)
from .hilbert import HilbertError, RegisterLayout, StateVector, basis_state, new_register, qubit, qumode
from .operators import (
    ExprSyntaxError,
    HamiltonianExpr,
    OperatorError,
    build,
    parse_expr,
    primitive_set,
    term,
)
from .spectral import (
    PointerSpec,
    SpectralError,
    estimate_spectrum,
    estimate_to_dict,
    robustness_midmeasure,
)
from .synthesis import (
    SynthesisError,
    SynthesisRegistry,
    close_algebra,
    power_distances,
    spins_and_modes,
    standard_registry,
    synthesize,
)

EXPERIMENTS = ("synth", "closure", "qft-demo", "spectrum", "robustness", "trotter-scaling")

EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_INVALID = 0, 2, 3, 4

# The largest integer a config may give.  At 2**52 every n_blocks or steps config tried already exits 3 (its
# probe's norm off by more than 1e-8), and every size through MemoryError; far past it a power overflows.
MAX_REPEATS = 2**52


class ConfigError(ValueError):
    """Validation failure; the message names the offending field."""


_COMMON_KEYS = {"experiment", "seed", "out"}
_SPECTRUM_KEYS = {"layout", "hamiltonian", "initial_state", "beta", "t_couple", "pointer_cutoff",
                  "n_shots", "method", "trotter_steps"}  # read by _spectrum_inputs
_ALLOWED_KEYS = {
    "spectrum": _SPECTRUM_KEYS,
    "robustness": _SPECTRUM_KEYS,
    "synth": {"layout", "target", "angle", "n_blocks"},
    "closure": {"layout", "seeds", "max_new", "degree_cap", "probes", "include_reset_effectives"},
    "qft-demo": {"cutoff", "displace_x", "displace_p"},
    "trotter-scaling": {"layout", "hamiltonian", "t", "steps"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    raw: dict
    seed: int
    out_dir: Path


def load_config(path: str, experiment: str, seed_override: int | None, out_override: str | None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        exc.args = (f"config: invalid JSON in {path}: {exc}",)
        raise
    if not isinstance(raw, dict):
        raise json.JSONDecodeError("config must be a JSON object", text, 0)

    declared = raw.get("experiment", experiment)
    if declared != experiment:
        raise ConfigError(f"experiment: config says {declared!r} but the subcommand is {experiment!r}")
    unknown = set(raw) - _ALLOWED_KEYS[experiment] - _COMMON_KEYS
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key for experiment {experiment!r}")

    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed: must be a nonnegative integer, got {seed!r}")
    out = out_override or raw.get("out", "hybridsim-out")
    if not isinstance(out, str):
        raise ConfigError(f"out: must be a directory path string, got {out!r}")
    return ExperimentConfig(experiment, raw, seed, Path(out))


def _need(cfg: ExperimentConfig, key: str):
    if key not in cfg.raw:
        raise ConfigError(f"{key}: required for experiment {cfg.experiment!r}")
    return cfg.raw[key]


def _number(cfg: ExperimentConfig, key: str, default=None, minimum=None):
    val = cfg.raw.get(key, default)
    if val is None:
        raise ConfigError(f"{key}: required for experiment {cfg.experiment!r}")
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{key}: must be a number, got {val!r}")
    if isinstance(val, int) and abs(val) > sys.float_info.max:
        raise ConfigError(f"{key}: must be a finite number, got an integer beyond float range")
    if not math.isfinite(val):
        raise ConfigError(f"{key}: must be a finite number, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {val}")
    return val


def _int(cfg: ExperimentConfig, key: str, default=None, minimum=None) -> int:
    val = _number(cfg, key, default, minimum)
    if not isinstance(val, int):
        raise ConfigError(f"{key}: must be an integer, got {val!r}")
    return _at_most_max(key, val)


def _at_most_max(key: str, val: int) -> int:
    if val > MAX_REPEATS:
        raise ConfigError(f"{key}: must be at most 2**52 (cli.MAX_REPEATS), got {val}")
    return val


def _int_list(cfg: ExperimentConfig, key: str, minimum: int) -> list[int]:
    val = _need(cfg, key)
    if isinstance(val, int) and not isinstance(val, bool):
        val = [val]
    if not isinstance(val, list) or not val or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= minimum for v in val
    ):
        raise ConfigError(f"{key}: must be an integer (or list of integers) >= {minimum}")
    if len(set(val)) < len(val):  # a repeated point leaves the error slope's fit rank-deficient
        raise ConfigError(f"{key}: must not repeat a value, got {val}")
    _at_most_max(key, max(val))
    return val


def _layout(cfg: ExperimentConfig) -> RegisterLayout:
    entries = _need(cfg, "layout")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("layout: must be a nonempty list of subsystems")
    specs = []
    for i, entry in enumerate(entries):
        if entry == "qubit" or entry == {"kind": "qubit"}:
            specs.append(qubit())
            continue
        if isinstance(entry, dict) and entry.get("kind") == "qumode":
            cut = entry.get("cutoff")
            if not isinstance(cut, int) or isinstance(cut, bool) or cut < 2:
                raise ConfigError(f"layout[{i}].cutoff: qumode cutoff must be an integer >= 2, got {cut!r}")
            specs.append(qumode(_at_most_max(f"layout[{i}].cutoff", cut)))
            continue
        raise ConfigError(f'layout[{i}]: expected "qubit" or {{"kind": "qumode", "cutoff": N}}, got {entry!r}')
    return new_register(specs)


def _hamiltonian(cfg: ExperimentConfig, key: str = "hamiltonian") -> HamiltonianExpr:
    text = _need(cfg, key)
    if not isinstance(text, str):
        raise ConfigError(f"{key}: must be a Hamiltonian expression string")
    try:
        return parse_expr(text)
    except ExprSyntaxError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _initial_state(cfg: ExperimentConfig, layout: RegisterLayout) -> StateVector:
    spec = cfg.raw.get("initial_state", {"type": "basis", "occupations": [0] * len(layout)})
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError('initial_state: expected {"type": "uniform"} or {"type": "basis", "occupations": [...]}')
    if spec["type"] == "uniform":
        amps = np.ones(layout.total_dim, dtype=complex) / np.sqrt(layout.total_dim)
        return StateVector(layout, amps)
    if spec["type"] == "basis":
        occs = spec.get("occupations")
        if not isinstance(occs, list):
            raise ConfigError("initial_state.occupations: must be a list of integers")
        try:
            return basis_state(layout, occs)
        except Exception as exc:
            raise ConfigError(f"initial_state.occupations: {exc}") from None
    raise ConfigError(f"initial_state.type: unknown type {spec['type']!r}")


parse_hamiltonian = parse_expr


# ---------------------------------------------------------------------------
# output assembly


def _config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _header_lines(cfg: ExperimentConfig, leak: float) -> list[str]:
    return [
        f"# hybridsim {__version__} experiment={cfg.experiment}",
        f"# config_sha256={_config_hash(cfg.raw)}",
        f"# seed={cfg.seed}",
        f"# leakage={leak!r}",
    ]


def _write_outputs(cfg: ExperimentConfig, results: dict, leak: float, valid: bool,
                   csv_lines: list[str], curve_lines: list[str], started: float) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    header = _header_lines(cfg, leak)
    (cfg.out_dir / "samples.csv").write_text("\n".join(header + csv_lines) + "\n")
    (cfg.out_dir / "curve.dat").write_text("\n".join(header + curve_lines) + "\n")
    summary = {
        "tool": "hybridsim",
        "version": __version__,
        "experiment": cfg.experiment,
        "config": cfg.raw,
        "config_sha256": _config_hash(cfg.raw),
        "seed": cfg.seed,
        "leakage": leak,
        "valid": valid,
        "wall_time_s": time.perf_counter() - started,
        "results": results,
    }
    (cfg.out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _histogram_lines(samples, n_bins: int = 60) -> list[str]:
    lo, hi = min(samples), max(samples)
    pad = 0.05 * (hi - lo) if hi > lo else 0.5
    counts, edges = np.histogram(samples, bins=n_bins, range=(lo - pad, hi + pad))
    edges = edges.tolist()
    lines = ["# x count"]
    for c, left, right in zip(counts.tolist(), edges[:-1], edges[1:]):
        lines.append(f"{(left + right) / 2!r} {c}")
    return lines


def _fit_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


# ---------------------------------------------------------------------------
# experiment runners (each returns results dict, leakage, valid, csv, curve)


def _spectrum_inputs(cfg: ExperimentConfig) -> tuple:
    """The leading arguments estimate_spectrum and robustness_midmeasure share, in order."""
    layout = _layout(cfg)
    h = _hamiltonian(cfg)
    psi = _initial_state(cfg, layout)
    spec = PointerSpec(
        beta=_number(cfg, "beta", minimum=1e-12),
        cutoff=_int(cfg, "pointer_cutoff", minimum=2),
        t_couple=_number(cfg, "t_couple", minimum=1e-12),
    )
    method = cfg.raw.get("method", "exact")
    if method not in ("exact", "trotter"):
        raise ConfigError(f"method: must be 'exact' or 'trotter', got {method!r}")
    n_shots = _int(cfg, "n_shots", minimum=1)
    trotter_steps = _int(cfg, "trotter_steps", default=64, minimum=1)
    return h, psi, spec, n_shots, cfg.seed, method, trotter_steps


def _shot_lines(samples: tuple[float, ...], t_couple: float) -> list[str]:
    # samples take at most `cutoff` node values: format each value's row text once
    texts = {x: f"{x!r},{x / t_couple!r}" for x in set(samples)}
    return ["shot,x,eigenvalue_estimate"] + [f"{i},{texts[x]}" for i, x in enumerate(samples)]


def _run_spectrum(cfg: ExperimentConfig):
    est = estimate_spectrum(*_spectrum_inputs(cfg))
    csv = _shot_lines(est.samples, est.t_couple)
    return estimate_to_dict(est), est.leakage, est.valid, csv, _histogram_lines(est.samples)


def _run_robustness(cfg: ExperimentConfig):
    rep = robustness_midmeasure(*_spectrum_inputs(cfg))
    results = {
        "baseline": estimate_to_dict(rep.baseline),
        "midmeasure_peaks": [
            {"eigenvalue": p.eigenvalue, "weight": p.weight, "sigma_x": p.sigma_x} for p in rep.peaks
        ],
        "branches": [asdict(b) for b in rep.branches],
        "resolution": rep.resolution,
    }
    csv = _shot_lines(rep.samples, rep.baseline.t_couple)
    valid = rep.valid and rep.baseline.valid
    return results, rep.leakage, valid, csv, _histogram_lines(rep.samples)


def _run_synth(cfg: ExperimentConfig):
    layout = _layout(cfg)
    registry = standard_registry(layout)
    target = _hamiltonian(cfg, "target")
    angle = _number(cfg, "angle")
    blocks = _int_list(cfg, "n_blocks", minimum=1)

    plans = [synthesize(target, angle, n, registry) for n in blocks]
    plan = plans[-1]  # a run's plans share their target, angle and pulse generators
    errors, final, exact = power_distances([(p.block, p.n_blocks) for p in plans], plan.target_sequence, layout,
                                           registry.matrices, plan.reset_spin_required)
    rows = [(p.n_blocks, p.block_step, e, p.predicted_error) for p, e in zip(plans, errors)]
    leak = state_leakage(final)

    results = {
        "target": plan.target_id,
        "angle": angle,
        "errors": [{"n_blocks": n, "block_step": s, "measured_error": e, "predicted_error": p}
                   for n, s, e, p in rows],
        "probe_state_fidelity": exact.fidelity(final),
        "reset_spin_required": plan.reset_spin_required,
    }
    if len(rows) >= 2:
        results["error_slope"] = _fit_slope([r[0] for r in rows], [max(r[2], 1e-300) for r in rows])
    csv = ["n_blocks,block_step,measured_error,predicted_error"]
    csv += [f"{n},{s!r},{e!r},{p!r}" for n, s, e, p in rows]
    curve = ["# n_blocks measured_error"] + [f"{n} {e!r}" for n, _, e, _ in rows]
    return results, leak, leak <= LEAKAGE_INVALID, csv, curve


def _expr_texts(cfg: ExperimentConfig, key: str, default=None):
    val = cfg.raw.get(key, default)
    if val is not None and (not isinstance(val, list) or not all(isinstance(s, str) for s in val)):
        raise ConfigError(f"{key}: must be a list of Hamiltonian expression strings")
    return val


def _run_closure(cfg: ExperimentConfig):
    layout = _layout(cfg)
    seeds = _expr_texts(cfg, "seeds")
    probe_texts = _expr_texts(cfg, "probes", default=[])
    include_reset_effectives = cfg.raw.get("include_reset_effectives", True)
    if not isinstance(include_reset_effectives, bool):
        raise ConfigError(f"include_reset_effectives: must be true or false, got {include_reset_effectives!r}")
    registry = SynthesisRegistry(layout)
    spins, modes = spins_and_modes(layout)
    if seeds is None:
        seed_exprs = [g.expr for g in primitive_set(layout, spins[0], modes[0]).members]
    else:
        try:
            seed_exprs = [parse_expr(s) for s in seeds]
        except ExprSyntaxError as exc:
            raise ConfigError(f"seeds: {exc}") from None
    seed_ids = [registry.register(expr, drivable=True, origin="primitive") for expr in seed_exprs]
    report = close_algebra(
        seed_ids,
        max_new=_int(cfg, "max_new", default=64, minimum=1),
        degree_cap=_int(cfg, "degree_cap", default=4, minimum=1),
        registry=registry,
        include_reset_effectives=include_reset_effectives,
    )
    probes = {}
    for text in probe_texts:
        try:
            probes[text] = report.membership(parse_expr(text))
        except ExprSyntaxError as exc:
            raise ConfigError(f"probes: {exc}") from None
    results = {
        "seed_ids": list(report.seed_ids),
        "depth_reached": report.depth_reached,
        "n_directions": len(report.directions),
        "directions_per_degree": report.directions_per_degree,
        "probes": probes,
        "notes": list(report.notes),
    }
    csv = ["index,degree,source"]
    csv += [f'{i},{d.degree},"{d.source}"' for i, d in enumerate(report.directions)]
    curve = ["# index degree"] + [f"{i} {d.degree}" for i, d in enumerate(report.directions)]
    return results, 0.0, True, csv, curve


def _run_qft_demo(cfg: ExperimentConfig):
    cutoff = _int(cfg, "cutoff", minimum=2)
    dx = _number(cfg, "displace_x", default=1.0)
    dp = _number(cfg, "displace_p", default=0.0)
    layout = new_register([qumode(cutoff)])
    state = basis_state(layout, [0])
    # exp(-i(dx*P - dp*X)) shifts (<X>, <P>) by (dx, dp)
    parts = ([term(dx, (0, "P"))] if dx else []) + ([term(-dp, (0, "X"))] if dp else [])
    if parts:
        gen = parts[0] if len(parts) == 1 else parts[0] + parts[1]
        state = run_sequence(PulseSequence((Pulse(gen, 1.0),)), state).final_state
    x_op = build(parse_expr("X@0"), layout)
    p_op = build(parse_expr("P@0"), layout)

    initial = state
    track = [(0, state.expectation(x_op), state.expectation(p_op))]
    for k in range(1, 5):
        state = cv_qft(state, 0)
        track.append((k, state.expectation(x_op), state.expectation(p_op)))
    fid = state.fidelity(initial)
    leak = state_leakage(state)
    results = {
        "cutoff": cutoff,
        "trajectory": [{"applications": k, "mean_x": x, "mean_p": p} for k, x, p in track],
        "fidelity_after_four": fid,
    }
    csv = ["applications,mean_x,mean_p"] + [f"{k},{x!r},{p!r}" for k, x, p in track]
    curve = ["# applications mean_x mean_p"] + [f"{k} {x!r} {p!r}" for k, x, p in track]
    return results, leak, leak <= LEAKAGE_INVALID, csv, curve


def _run_trotter_scaling(cfg: ExperimentConfig):
    layout = _layout(cfg)
    h = _hamiltonian(cfg)
    t = _number(cfg, "t")
    steps = _int_list(cfg, "steps", minimum=1)
    exact = PulseSequence((Pulse(h, abs(t), -1 if t < 0 else 1),))
    # one step of trotter(h, t, n) is trotter(h, t / n, 1) bit for bit (abs(t / n) == abs(t) / n)
    errors, final, _ = power_distances([(trotter(h, t / n, 1), n) for n in steps], exact, layout, Generators(layout))
    rows = list(zip(steps, errors))
    leak = state_leakage(final)
    results = {"t": t, "errors": [{"n_steps": n, "error": e} for n, e in rows]}
    if len(rows) >= 2:
        results["error_slope"] = _fit_slope([r[0] for r in rows], [max(r[1], 1e-300) for r in rows])
    csv = ["n_steps,error"] + [f"{n},{e!r}" for n, e in rows]
    curve = ["# n_steps error"] + [f"{n} {e!r}" for n, e in rows]
    return results, leak, leak <= LEAKAGE_INVALID, csv, curve


_RUNNERS = {
    "spectrum": _run_spectrum,
    "robustness": _run_robustness,
    "synth": _run_synth,
    "closure": _run_closure,
    "qft-demo": _run_qft_demo,
    "trotter-scaling": _run_trotter_scaling,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment and write summary.json / samples.csv / curve.dat."""
    started = time.perf_counter()
    try:
        results, leak, valid, csv_lines, curve_lines = _RUNNERS[cfg.experiment](cfg)
    except (ConfigError, EvolutionError, HilbertError, OperatorError, SpectralError, SynthesisError) as exc:
        print(f"hybridsim: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MemoryError, ValueError) as exc:  # numpy refuses an array past the address range with a ValueError
        if isinstance(exc, ValueError) and not str(exc).startswith(("array is too big", "Maximum allowed dim")):
            raise
        print(f"hybridsim: validation error: {cfg.experiment}: cannot allocate its arrays", file=sys.stderr)
        return EXIT_VALIDATION
    results = json.loads(json.dumps(results))  # plain types only
    if not valid:
        results["valid"] = False
    try:
        _write_outputs(cfg, results, leak, valid, csv_lines, curve_lines, started)
    except OSError as exc:
        print(f"hybridsim: validation error: out: cannot write to {cfg.out_dir}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK if valid else EXIT_INVALID


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hybridsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.experiment, args.seed, args.out)
    except ConfigError as exc:
        print(f"hybridsim: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # load_config's JSON errors
        print(f"hybridsim: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
