"""Outside-in tracer: spans around hybridsim's public functions, installed from outside src/.

``install`` rebinds each traced name in every loaded ``hybridsim`` module
that holds the original function (``run_sequence`` is imported into
``spectral`` and ``cli``, ``sequence_unitary`` into ``synthesis``), patches
``ClosureReport.membership`` on its class and ``numpy.linalg.eigh``, and
returns a function that undoes all of it.  Spans stay in memory with a
link to the enclosing span; ``layer_metrics`` turns them into the
per-layer metrics of bench/README.md.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# module -> public functions wrapped in every hybridsim module that holds them
TRACED = {
    "hilbert": ("compress_to_interior", "interior_mask"),
    "operators": ("build", "commutator"),
    "evolution": ("run_sequence", "sequence_unitary", "expm_unitary"),
    "synthesis": ("standard_registry", "derive_rule", "synthesize", "measure_plan_error", "close_algebra"),
    "spectral": ("couple_pointer", "estimate_spectrum", "robustness_midmeasure"),
    "cli": ("main",),
}
MEMBERSHIP = "synthesis.membership"
EIGH = "kernel.eigh"


def _pulses(args, kwargs, result):
    return {"pulses": sum(1 for p in args[0].pulses if p.duration != 0.0)}


def _dim(args, kwargs, result):
    return {"dim": int(np.shape(result)[0])}


# Sizes and counts read off each call's arguments or return value.
ATTRS = {
    "operators.build": _dim,
    "operators.commutator": _dim,
    EIGH: lambda args, kwargs, result: {"dim": int(np.shape(args[0])[-1])},
    "evolution.run_sequence": _pulses,
    "evolution.sequence_unitary": _pulses,
    "synthesis.close_algebra": lambda args, kwargs, result: {
        "directions": len(result.directions),
        "accepted": sum(1 for d in result.directions if d.source.startswith("i["))},
    MEMBERSHIP: lambda args, kwargs, result: {"residual": float(result)},
    "spectral.couple_pointer": lambda args, kwargs, result: {"joint_dim": result.layout.total_dim},
    "spectral.estimate_spectrum": lambda args, kwargs, result: {
        "shots": len(result.samples), "leakage": result.leakage},
    "spectral.robustness_midmeasure": lambda args, kwargs, result: {
        "shots": len(result.samples), "leakage": result.leakage},
}


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, attrs]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None, self._open[-1] if self._open else -1, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[4] = attrs(args, kwargs, result)
                return result
            finally:
                span[2] = self.clock()
                self._open.pop()

        return traced


def install(tracer: Tracer):
    """Wrap the traced functions of the loaded hybridsim modules; returns an undo function."""
    from hybridsim.synthesis import ClosureReport

    modules = [m for n, m in list(sys.modules.items()) if n == "hybridsim" or n.startswith("hybridsim.")]
    undo = []
    for home_name, names in TRACED.items():
        home = sys.modules[f"hybridsim.{home_name}"]
        for name in names:
            original = getattr(home, name)
            wrapped = tracer.wrap(f"{home_name}.{name}", original)
            for module in modules:
                if vars(module).get(name) is original:
                    setattr(module, name, wrapped)
                    undo.append((module, name, original))
    undo.append((ClosureReport, "membership", ClosureReport.membership))
    ClosureReport.membership = tracer.wrap(MEMBERSHIP, ClosureReport.membership)
    undo.append((np.linalg, "eigh", np.linalg.eigh))
    np.linalg.eigh = tracer.wrap(EIGH, np.linalg.eigh)

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ancestor_in(spans: list[list], i: int, prefix: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


LAYERS = ("hilbert", "operators", "kernel", "evolution", "synthesis", "spectral", "cli")


def traced_names() -> list[str]:
    return [f"{m}.{n}" for m, names in TRACED.items() for n in names] + [MEMBERSHIP, EIGH]


def layer_metrics(spans: list[list], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics over the spans of one traced sweep (see bench/README.md)."""
    own = self_times(spans)
    metrics: dict[str, float] = {}
    for name in traced_names():
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    for key in ("operators.build.max_dim", "operators.commutator.max_dim", "kernel.eigh.max_dim",
                "kernel.eigh.flop_est", "kernel.eigh.bytes_est", "evolution.run_sequence.pulses",
                "evolution.sequence_unitary.pulses", "synthesis.close_algebra.directions",
                "synthesis.close_algebra.candidates", "synthesis.closure_residual.max",
                "spectral.couple_pointer.joint_dim", "spectral.estimate_spectrum.shots",
                "spectral.robustness_midmeasure.shots", "spectral.leakage.max"):
        metrics[key] = 0
    accepted = evolution_eighs = 0
    for i, ((name, _, _, parent, attrs), self_s) in enumerate(zip(spans, own)):
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += self_s
        if "dim" in attrs:
            metrics[f"{name}.max_dim"] = max(metrics[f"{name}.max_dim"], attrs["dim"])
        if name == EIGH:
            n = attrs["dim"]
            metrics["kernel.eigh.flop_est"] += n**3
            metrics["kernel.eigh.bytes_est"] += 16 * n**2
            evolution_eighs += _ancestor_in(spans, i, "evolution.")
        if "pulses" in attrs:
            metrics[f"{name}.pulses"] += attrs["pulses"]
        if "shots" in attrs:
            metrics[f"{name}.shots"] += attrs["shots"]
            metrics["spectral.leakage.max"] = max(metrics["spectral.leakage.max"], attrs["leakage"])
        if "joint_dim" in attrs:
            metrics[f"{name}.joint_dim"] = max(metrics[f"{name}.joint_dim"], attrs["joint_dim"])
        if "residual" in attrs:
            metrics["synthesis.closure_residual.max"] = max(metrics["synthesis.closure_residual.max"],
                                                            attrs["residual"])
        if name == "synthesis.close_algebra":
            metrics["synthesis.close_algebra.directions"] += attrs["directions"]
            accepted += attrs["accepted"]
        if name == "operators.commutator" and parent >= 0 and spans[parent][0] == "synthesis.close_algebra":
            metrics["synthesis.close_algebra.candidates"] += 1
    candidates = metrics["synthesis.close_algebra.candidates"]
    metrics["synthesis.close_algebra.accept_ratio"] = accepted / candidates if candidates else 0.0
    pulses = metrics["evolution.run_sequence.pulses"] + metrics["evolution.sequence_unitary.pulses"]
    metrics["evolution.eig_reuse"] = pulses / evolution_eighs if evolution_eighs else 0.0
    metrics["cli.output_bytes"] = output_bytes

    wall = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    for layer in LAYERS:
        layer_s = sum(metrics[f"{n}.self_s"] for n in traced_names() if n.startswith(layer + "."))
        metrics[f"{layer}.share"] = layer_s / wall if wall else 0.0
    return metrics
