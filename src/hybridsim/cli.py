"""Command-line front end: reproducible experiment runs with file outputs.

Usage::

    hybridsim EXPERIMENT --config FILE [--seed N] [--out DIR]

EXPERIMENT is a name in `EXPERIMENTS`, the one table of experiments, each
with its runner and the config keys that runner reads.

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
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from itertools import islice
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
    closure_to_json,
    power_distances,
    spins_and_modes,
    standard_registry,
    synthesize,
)

EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_INVALID = 0, 2, 3, 4

# The largest integer a config may give.  At 2**52 every n_blocks, steps or trotter_steps config tried already exits
# 3 (norm drift past 1e-8, or the pulse count bound), and every size through MemoryError; far past it a power overflows.
MAX_REPEATS = 2**52


class ConfigError(ValueError):
    """Validation failure; the message names the offending field."""


_COMMON_KEYS = {"experiment", "seed", "out"}


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
    unknown = set(raw) - EXPERIMENTS[experiment][1] - _COMMON_KEYS
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key for experiment {experiment!r}")

    # a config's own seed and out are checked even when overridden, since summary.json echoes them
    seeds = (raw.get("seed", 0),) + (() if seed_override is None else (seed_override,))
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"seed: must be a nonnegative integer, got {seed!r}")
    outs = (raw.get("out", "hybridsim-out"),) + (() if out_override is None else (out_override,))
    for out in outs:
        if not isinstance(out, str) or not out:  # Path("") is the working directory
            raise ConfigError(f"out: must be a nonempty directory path string, got {out!r}")
    return ExperimentConfig(experiment, raw, seeds[-1], Path(outs[-1]))


def _need(cfg: ExperimentConfig, key: str):
    if key not in cfg.raw:
        raise ConfigError(f"{key}: required for experiment {cfg.experiment!r}")
    return cfg.raw[key]


def _number(cfg: ExperimentConfig, key: str, default=None, minimum=None):
    val = _need(cfg, key) if default is None else cfg.raw.get(key, default)  # a null is a wrong type, not absent
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


def _expressions(cfg: ExperimentConfig, key: str, many: bool = False):
    """The one reader of a config's Hamiltonian expressions: ``key``'s string parsed, or with ``many``
    each string of its list.  A JSON null is refused like any other wrong type."""
    val = _need(cfg, key)
    texts = val if many and isinstance(val, list) else [val]
    if (many and not isinstance(val, list)) or not all(isinstance(s, str) for s in texts):
        what = "a list of Hamiltonian expression strings" if many else "a Hamiltonian expression string"
        raise ConfigError(f"{key}: must be {what}")
    try:
        exprs = [parse_expr(s) for s in texts]
    except ExprSyntaxError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return exprs if many else exprs[0]


def _initial_state(cfg: ExperimentConfig, layout: RegisterLayout) -> StateVector:
    spec = cfg.raw.get("initial_state", {"type": "basis", "occupations": [0] * len(layout)})
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError('initial_state: expected {"type": "uniform"} or {"type": "basis", "occupations": [...]}')
    if spec["type"] == "uniform":
        amps = np.ones(layout.total_dim, dtype=complex) / np.sqrt(layout.total_dim)
        return StateVector(layout, amps)
    if spec["type"] == "basis":
        occs = spec.get("occupations")
        if not isinstance(occs, list) or not all(isinstance(n, int) and not isinstance(n, bool) for n in occs):
            raise ConfigError(f"initial_state.occupations: must be a list of integers, got {occs!r}")
        try:
            return basis_state(layout, occs)
        except Exception as exc:
            raise ConfigError(f"initial_state.occupations: {exc}") from None
    raise ConfigError(f"initial_state.type: unknown type {spec['type']!r}")


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


_ROWS_PER_WRITE = 4096  # rows joined per write, so a file's text never sits in memory whole


def _write_outputs(cfg: ExperimentConfig, results: dict, leak: float, valid: bool,
                   csv_lines: Iterable[str], curve_lines: Iterable[str], started: float) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    header = "\n".join(_header_lines(cfg, leak)) + "\n"
    for name, lines in (("samples.csv", iter(csv_lines)), ("curve.dat", iter(curve_lines))):
        with (cfg.out_dir / name).open("w") as out:
            out.write(header)
            while batch := list(islice(lines, _ROWS_PER_WRITE)):  # islice, unlike zip with a range, drops no row
                out.write("\n".join(batch) + "\n")
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


def _histogram_lines(nodes: np.ndarray, shot_nodes: np.ndarray) -> list[str]:
    weights = np.bincount(shot_nodes, minlength=len(nodes))  # the shots' histogram is the nodes' by shot count
    lo, hi = float(nodes[weights > 0].min()), float(nodes[weights > 0].max())
    pad = 0.05 * (hi - lo) if hi > lo else 0.5
    counts, edges = np.histogram(nodes, bins=60, range=(lo - pad, hi + pad), weights=weights)
    edges = edges.tolist()
    lines = ["# x count"]
    for c, left, right in zip(counts.tolist(), edges[:-1], edges[1:]):
        lines.append(f"{(left + right) / 2!r} {c}")
    return lines


def _fit_slope(xs, ys) -> float:
    """The log-log slope of ys against xs; each y is floored, so an exact zero has a logarithm."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.maximum(ys, 1e-300)), 1)[0])


# ---------------------------------------------------------------------------
# experiment runners (each returns results dict, leakage, valid by its own checks, csv, curve);
# csv and curve are iterables of lines, so a shot runner's rows are formatted only as they are written


def _spectrum_inputs(cfg: ExperimentConfig) -> tuple:
    """The leading arguments estimate_spectrum and robustness_midmeasure share, in order."""
    layout = _layout(cfg)
    h = _expressions(cfg, "hamiltonian")
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


def _shot_lines(nodes: np.ndarray, shot_nodes: np.ndarray, t_couple: float) -> Iterator[str]:
    # a shot is one of the `cutoff` nodes: format each node's row text once, then take it per shot as it is written
    texts = [f"{x!r},{x / t_couple!r}" for x in nodes.tolist()]
    yield "shot,x,eigenvalue_estimate"
    for i, node in enumerate(shot_nodes.tolist()):
        yield f"{i},{texts[node]}"


def _run_spectrum(cfg: ExperimentConfig):
    est = estimate_spectrum(*_spectrum_inputs(cfg))
    csv = _shot_lines(est.nodes, est.shot_nodes, est.t_couple)
    return estimate_to_dict(est), est.leakage, est.valid, csv, _histogram_lines(est.nodes, est.shot_nodes)


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
    csv = _shot_lines(rep.nodes, rep.shot_nodes, rep.baseline.t_couple)
    return results, rep.leakage, rep.baseline.valid, csv, _histogram_lines(rep.nodes, rep.shot_nodes)


def _run_synth(cfg: ExperimentConfig):
    layout = _layout(cfg)
    target = _expressions(cfg, "target")
    angle = _number(cfg, "angle")
    blocks = _int_list(cfg, "n_blocks", minimum=1)

    registry = standard_registry(layout)
    plans = [synthesize(target, angle, n, registry) for n in blocks]
    plan = plans[-1]  # a run's plans share their target, angle and pulse generators
    errors, final, exact = power_distances([p.sequence for p in plans], plan.target_sequence, layout,
                                           registry.generators, plan.reset_spin_required)
    rows = [(p.sequence.repeats, p.block_step, e, p.predicted_error) for p, e in zip(plans, errors)]
    leak = state_leakage(final)
    edge_only = [n for n, _, e, p in rows if p == 0.0 < e]  # errors the exact prediction cannot see

    results = {
        "target": plan.target_id,
        "angle": angle,
        "errors": [{"n_blocks": n, "block_step": s, "measured_error": e, "predicted_error": p}
                   for n, s, e, p in rows],
        # repeated squaring drifts the probe images' norms by ~1e-12: read at unit norm, capped by Cauchy-Schwarz
        "probe_state_fidelity": min(1.0, exact.fidelity(final) / (exact.norm * final.norm) ** 2),
        "reset_spin_required": plan.reset_spin_required,
        "notes": [f"predicted_error is 0.0 at n_blocks {edge_only}: the block is exact in the algebra of [X, P] = i, "
                  "so measured_error there is truncation-edge error, which the exact prediction omits"]
        if edge_only else [],
    }
    if len(rows) >= 2:
        results["error_slope"] = _fit_slope(blocks, errors)
    csv = ["n_blocks,block_step,measured_error,predicted_error"]
    csv += [f"{n},{s!r},{e!r},{p!r}" for n, s, e, p in rows]
    curve = ["# n_blocks measured_error"] + [f"{n} {e!r}" for n, _, e, _ in rows]
    return results, leak, True, csv, curve


def _run_closure(cfg: ExperimentConfig):
    layout = _layout(cfg)
    seeds = _expressions(cfg, "seeds", many=True) if "seeds" in cfg.raw else None  # absent: the primitive set
    if seeds == []:
        raise ConfigError("seeds: must name at least one generator")
    probes = _expressions(cfg, "probes", many=True) if "probes" in cfg.raw else []
    include_reset_effectives = cfg.raw.get("include_reset_effectives", True)
    if not isinstance(include_reset_effectives, bool):
        raise ConfigError(f"include_reset_effectives: must be true or false, got {include_reset_effectives!r}")
    max_new = _int(cfg, "max_new", default=64, minimum=1)
    degree_cap = _int(cfg, "degree_cap", default=4, minimum=1)
    registry = SynthesisRegistry(layout)
    spins, modes = spins_and_modes(layout)
    if seeds is None:
        seeds = [g.expr for g in primitive_set(layout, spins[0], modes[0]).members]
    seed_ids = [registry.register(expr, drivable=True) for expr in seeds]
    report = close_algebra(seed_ids, max_new=max_new, degree_cap=degree_cap, registry=registry,
                           include_reset_effectives=include_reset_effectives)
    results = json.loads(closure_to_json(report, {text: report.membership(expr)
                                                  for text, expr in zip(cfg.raw.get("probes", []), probes)}))
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
        state = run_sequence(PulseSequence((Pulse(gen, 1.0),)), state)
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
    return results, leak, True, csv, curve


def _run_trotter_scaling(cfg: ExperimentConfig):
    layout = _layout(cfg)
    h = _expressions(cfg, "hamiltonian")
    t = _number(cfg, "t")
    steps = _int_list(cfg, "steps", minimum=1)
    exact = PulseSequence((Pulse(h, abs(t), -1 if t < 0 else 1),))
    errors, final, _ = power_distances([trotter(h, t, n) for n in steps], exact, layout, Generators(layout))
    rows = list(zip(steps, errors))
    leak = state_leakage(final)
    results = {"t": t, "errors": [{"n_steps": n, "error": e} for n, e in rows]}
    if len(rows) >= 2:
        results["error_slope"] = _fit_slope(steps, errors)
    csv = ["n_steps,error"] + [f"{n},{e!r}" for n, e in rows]
    curve = ["# n_steps error"] + [f"{n} {e!r}" for n, e in rows]
    return results, leak, True, csv, curve


_SPECTRUM_KEYS = {"layout", "hamiltonian", "initial_state", "beta", "t_couple", "pointer_cutoff",
                  "n_shots", "method", "trotter_steps"}  # read by _spectrum_inputs

# The one list of experiments: name -> (runner, the config keys it reads besides _COMMON_KEYS).
EXPERIMENTS = {
    "synth": (_run_synth, {"layout", "target", "angle", "n_blocks"}),
    "closure": (_run_closure, {"layout", "seeds", "max_new", "degree_cap", "probes", "include_reset_effectives"}),
    "qft-demo": (_run_qft_demo, {"cutoff", "displace_x", "displace_p"}),
    "spectrum": (_run_spectrum, _SPECTRUM_KEYS),
    "robustness": (_run_robustness, _SPECTRUM_KEYS),
    "trotter-scaling": (_run_trotter_scaling, {"layout", "hamiltonian", "t", "steps"}),
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment and write summary.json / samples.csv / curve.dat."""
    started = time.perf_counter()
    try:
        results, leak, valid, csv_lines, curve_lines = EXPERIMENTS[cfg.experiment][0](cfg)
    except (ConfigError, EvolutionError, HilbertError, OperatorError, SpectralError, SynthesisError) as exc:
        print(f"hybridsim: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (MemoryError, ValueError) as exc:  # numpy refuses an array past the address range with a ValueError
        if isinstance(exc, ValueError) and not str(exc).startswith(("array is too big", "Maximum allowed dim")):
            raise
        print(f"hybridsim: validation error: {cfg.experiment}: cannot allocate its arrays", file=sys.stderr)
        return EXIT_VALIDATION
    results = json.loads(json.dumps(results))  # plain types only
    valid = valid and leak <= LEAKAGE_INVALID  # the one leakage rule: a leaky run is written, then exits 4
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
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
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
