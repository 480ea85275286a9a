import contextlib
import csv
import importlib.util
import io
import json
import re
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridsim import cli, operators, synthesis
from hybridsim.cli import main
from hybridsim.evolution import Generators, expm_unitary, leakage, run_sequence, sequence_unitary, trotter
from hybridsim.hilbert import basis_state, new_register, qubit, qumode
from hybridsim.operators import ExprSyntaxError, build, parse_expr
from hybridsim.synthesis import standard_registry, synthesize


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SPECTRUM_CONFIG = {
    "experiment": "spectrum",
    "layout": ["qubit", "qubit"],
    "hamiltonian": "sz@0*sz@1",
    "initial_state": {"type": "uniform"},
    "beta": 4.0,
    "t_couple": 5.0,
    "pointer_cutoff": 128,
    "n_shots": 400,
    "seed": 7,
}


def test_parse_hamiltonian_examples():
    expr = parse_expr("1.0*sz@0*sz@1")
    assert len(expr.terms) == 1 and len(expr.terms[0].factors) == 2
    expr = parse_expr("0.5*X@1^2 + 0.5*P@1^2")
    assert len(expr.terms) == 2
    with pytest.raises(ExprSyntaxError):
        parse_expr("sz@0*sx@0")


def test_spectrum_run_and_outputs(tmp_path):
    cfg = write_config(tmp_path, "spectrum.json", SPECTRUM_CONFIG)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "spectrum"
    assert summary["seed"] == 7
    assert summary["valid"] is True
    assert summary["config"] == SPECTRUM_CONFIG
    assert "wall_time_s" in summary
    peaks = sorted(p["eigenvalue"] for p in summary["results"]["peaks"])
    assert abs(peaks[0] + 1.0) <= 0.1 and abs(peaks[-1] - 1.0) <= 0.1

    csv = (out / "samples.csv").read_text().splitlines()
    assert csv[0].startswith("# hybridsim")
    assert any(line.startswith("# config_sha256=") for line in csv[:4])
    assert csv[4] == "shot,x,eigenvalue_estimate"
    assert len(csv) == 5 + 400
    assert (out / "curve.dat").exists()


def test_same_seed_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "spectrum.json", SPECTRUM_CONFIG)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/samples.csv").read_bytes() == (tmp_path / "b/samples.csv").read_bytes()
    assert (tmp_path / "a/curve.dat").read_bytes() == (tmp_path / "b/curve.dat").read_bytes()

    assert main(["spectrum", "--config", cfg, "--seed", "8", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a/samples.csv").read_bytes() != (tmp_path / "c/samples.csv").read_bytes()


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["spectrum", "--config", str(path)]) == 2
    path.write_text('["a", "list"]')
    assert main(["spectrum", "--config", str(path)]) == 2


@pytest.mark.parametrize(("argv", "message"), [
    (["bogus", "--config", "cfg.json"], "argument experiment: invalid choice: 'bogus'"),
    (["spectrum"], "the following arguments are required: --config"),
])
def test_an_unknown_experiment_or_a_missing_config_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"hybridsim: error: {message}" in capsys.readouterr().err


def test_validation_error_names_field(tmp_path, capsys):
    bad = dict(SPECTRUM_CONFIG, pointer_cutoff=1)
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "pointer_cutoff" in capsys.readouterr().err

    unknown = dict(SPECTRUM_CONFIG, extra_knob=1)
    cfg = write_config(tmp_path, "unknown.json", unknown)
    assert main(["spectrum", "--config", cfg]) == 3

    mismatched = dict(SPECTRUM_CONFIG, experiment="synth")
    cfg = write_config(tmp_path, "mismatch.json", mismatched)
    assert main(["spectrum", "--config", cfg]) == 3

    bad_ham = dict(SPECTRUM_CONFIG, hamiltonian="sz@0*sx@0")
    cfg = write_config(tmp_path, "badham.json", bad_ham)
    assert main(["spectrum", "--config", cfg]) == 3


def _without(config, key):
    return {k: v for k, v in config.items() if k != key}


TROTTER_CONFIG = {"experiment": "trotter-scaling", "layout": ["qubit"], "hamiltonian": "sz@0", "t": 1.0, "steps": [1]}
CLOSURE_CONFIG = {"experiment": "closure", "layout": ["qubit", {"kind": "qumode", "cutoff": 4}], "max_new": 3,
                  "degree_cap": 2}


@pytest.mark.parametrize(("config", "field"), [
    (None, "config"),  # no such file
    ("[1, 2]", "config"),  # JSON, but not an object
    (dict(SPECTRUM_CONFIG, seed=-1), "seed"),  # checked though --seed overrides it: summary.json echoes it
    (dict(SPECTRUM_CONFIG, out=5), "out"),  # likewise under --out
    (_without(SPECTRUM_CONFIG, "layout"), "layout"),
    (_without(SPECTRUM_CONFIG, "beta"), "beta"),
    (dict(SPECTRUM_CONFIG, beta="4"), "beta"),
    (dict(SPECTRUM_CONFIG, n_shots=4.5), "n_shots"),
    (dict(TROTTER_CONFIG, steps=[0]), "steps"),
    (dict(SPECTRUM_CONFIG, layout=[]), "layout"),
    (dict(SPECTRUM_CONFIG, layout=["qubit", {"kind": "qumode", "cutoff": 1}]), "layout[1].cutoff"),
    (dict(SPECTRUM_CONFIG, layout=["qubit", "qutrit"]), "layout[1]"),
    (dict(SPECTRUM_CONFIG, hamiltonian=5), "hamiltonian"),
    (dict(SPECTRUM_CONFIG, initial_state=["uniform"]), "initial_state"),
    (dict(SPECTRUM_CONFIG, initial_state={"type": "basis", "occupations": [0]}), "initial_state.occupations"),
    (dict(SPECTRUM_CONFIG, initial_state={"type": "basis", "occupations": [2, 0]}), "initial_state.occupations"),
    (dict(SPECTRUM_CONFIG, initial_state={"type": "coherent"}), "initial_state.type"),
    (dict(CLOSURE_CONFIG, probes=None), "probes"),  # a null is a wrong type, not "absent"
    (dict(CLOSURE_CONFIG, seeds=None), "seeds"),
    (dict(SPECTRUM_CONFIG, trotter_steps=None), "trotter_steps: must be a number"),  # not "required": it has a default
])
def test_each_config_check_exits_with_a_line_naming_its_field(tmp_path, capsys, config, field):
    path = tmp_path / "cfg.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    experiment = config["experiment"] if isinstance(config, dict) else "spectrum"
    code = main([experiment, "--config", str(path), "--seed", "5", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    kind = "parse" if isinstance(config, str) else "validation"
    assert (code, err.count("\n")) == (2 if kind == "parse" else 3, 1)
    assert err.startswith(f"hybridsim: {kind} error: {field}") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(("config_out", "argv_out"), [("", []), ("o", ["--out", ""])], ids=["config", "argv"])
def test_an_empty_out_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys, config_out, argv_out):
    # Path("") is the working directory: an empty out, from the config or from --out, would write there
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "cfg.json", dict(SPECTRUM_CONFIG, n_shots=10, out=config_out))
    assert main(["spectrum", "--config", cfg] + argv_out) == 3
    assert capsys.readouterr().err.startswith("hybridsim: validation error: out:")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_robustness_method_error_names_field(tmp_path, capsys):
    bad = dict(SPECTRUM_CONFIG, experiment="robustness", method="euler")
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["robustness", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "method: must be" in capsys.readouterr().err


def test_leakage_invalid_exit_code_still_writes(tmp_path):
    leaky = {
        "experiment": "spectrum",
        "layout": ["qubit"],
        "hamiltonian": "sz@0",
        "beta": 1.0,
        "t_couple": 8.0,
        "pointer_cutoff": 16,
        "n_shots": 100,
        "seed": 3,
    }
    cfg = write_config(tmp_path, "leaky.json", leaky)
    out = tmp_path / "leaky"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["valid"] is False
    assert (out / "samples.csv").exists()


def test_unwritable_output_directory(tmp_path):
    cfg = write_config(tmp_path, "spectrum.json", dict(SPECTRUM_CONFIG, n_shots=10))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["spectrum", "--config", cfg, "--out", str(blocker / "sub")]) == 3


def test_qft_demo_run(tmp_path):
    cfg = write_config(
        tmp_path, "qft.json",
        {"experiment": "qft-demo", "cutoff": 64, "displace_x": 1.0, "displace_p": 0.0, "seed": 1},
    )
    out = tmp_path / "qft"
    assert main(["qft-demo", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    track = {r["applications"]: (r["mean_x"], r["mean_p"]) for r in res["trajectory"]}
    assert abs(track[0][0] - 1.0) <= 1e-3
    assert abs(track[1][1] + 1.0) <= 1e-3
    assert res["fidelity_after_four"] >= 1.0 - 1e-8


def test_synth_run(tmp_path):
    cfg = write_config(
        tmp_path, "synth.json",
        {
            "experiment": "synth",
            "layout": ["qubit", {"kind": "qumode", "cutoff": 12}],
            "target": "sy@0",
            "angle": 0.785398,
            "n_blocks": [4, 16, 64],
            "seed": 0,
        },
    )
    out = tmp_path / "synth"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    errors = [row["measured_error"] for row in res["errors"]]
    assert errors[0] > errors[-1]
    assert res["error_slope"] < -0.3
    assert res["probe_state_fidelity"] >= 0.99


def test_synth_probe_fidelity_is_at_most_one(tmp_path):
    # 256 blocks by repeated squaring drift the probe images' norms; the fidelity read from them stays a fidelity
    config = {"experiment": "synth", "layout": _layout_json([2, 2, 16]), "target": "sz@0*sz@1", "angle": 0.785,
              "n_blocks": [4, 16, 64, 256]}
    out = tmp_path / "out"
    assert main(["synth", "--config", write_config(tmp_path, "cfg.json", config), "--out", str(out)]) == 0
    assert 0.99 <= json.loads((out / "summary.json").read_text())["results"]["probe_state_fidelity"] <= 1.0


@pytest.mark.parametrize(("target", "noted"), [("sz@0*sz@1", True), ("sy@0", False)])
def test_a_zero_prediction_beside_a_measured_error_carries_a_note(tmp_path, target, noted):
    config = {"experiment": "synth", "layout": _layout_json([2, 2, 8]), "target": target, "angle": 0.3,
              "n_blocks": [4, 16]}
    out = tmp_path / "out"
    assert main(["synth", "--config", write_config(tmp_path, "cfg.json", config), "--out", str(out)]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert all((row["predicted_error"] == 0.0 < row["measured_error"]) == noted for row in res["errors"])
    assert res["notes"] == ([f"predicted_error is 0.0 at n_blocks [4, 16]: the block is exact in the algebra of "
                             "[X, P] = i, so measured_error there is truncation-edge error, which the exact "
                             "prediction omits"] if noted else [])
    rows = [ln for ln in (out / "samples.csv").read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "n_blocks,block_step,measured_error,predicted_error" and len(rows) == 3


def test_closure_run(tmp_path):
    cfg = write_config(
        tmp_path, "closure.json",
        {
            "experiment": "closure",
            "layout": ["qubit", {"kind": "qumode", "cutoff": 12}],
            "max_new": 40,
            "degree_cap": 4,
            "probes": ["sx@0", "sy@0", "id@0"],
            "seed": 0,
        },
    )
    out = tmp_path / "closure"
    assert main(["closure", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert all(v <= 1e-8 for v in res["probes"].values())
    assert res["n_directions"] >= 8


BUS_CLOSURE = {
    "experiment": "closure",
    "layout": ["qubit", "qubit", {"kind": "qumode", "cutoff": 8}],
    "seeds": ["sx@0*X@2", "sz@0*X@2", "sz@0*P@2", "sx@1*X@2", "sz@1*X@2", "sz@1*P@2"],
    "max_new": 40,
    "degree_cap": 4,
    "probes": ["sz@0*sz@1"],
}


def test_closure_refuses_an_empty_seed_list(tmp_path, capsys):
    cfg = write_config(tmp_path, "closure.json", dict(BUS_CLOSURE, seeds=[]))
    assert main(["closure", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "seeds: must name at least one generator" in capsys.readouterr().err


def test_closure_run_with_explicit_seeds(tmp_path):
    cfg = write_config(tmp_path, "closure.json", BUS_CLOSURE)
    out = tmp_path / "closure"
    assert main(["closure", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert res["seed_ids"][:6] == ["1.0*sx@0*X@2", "1.0*sz@0*X@2", "1.0*sz@0*P@2",
                                   "1.0*sx@1*X@2", "1.0*sz@1*X@2", "1.0*sz@1*P@2"]
    assert res["probes"]["sz@0*sz@1"] <= 1e-8


def test_closure_run_never_forms_the_packed_basis(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a closure run formed the packed m² basis")

    monkeypatch.setattr(synthesis.ClosureReport, "basis", property(refuse))
    cfg = write_config(tmp_path, "closure.json", BUS_CLOSURE)
    out = tmp_path / "closure"
    assert main(["closure", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["results"]["probes"]["sz@0*sz@1"] <= 1e-8


@pytest.mark.parametrize("field, text", [("seeds", "sx@0**X@2"), ("probes", "sy@")])
def test_closure_names_an_unparsable_seed_or_probe(tmp_path, capsys, field, text):
    cfg = write_config(tmp_path, "closure.json", dict(BUS_CLOSURE, **{field: [text]}))
    assert main(["closure", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"hybridsim: validation error: {field}: ")


@pytest.mark.parametrize(
    "field, value",
    [("include_reset_effectives", "false"), ("include_reset_effectives", 0), ("probes", [5]), ("probes", "sx@0")],
)
def test_closure_rejects_mistyped_fields(tmp_path, capsys, field, value):
    cfg = write_config(
        tmp_path, "closure.json",
        {"experiment": "closure", "layout": ["qubit", {"kind": "qumode", "cutoff": 8}], field: value},
    )
    assert main(["closure", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert f"{field}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("occupations", [[True], [False], [1.0], ["1"], [None]])
def test_basis_occupations_must_be_integers(tmp_path, capsys, occupations):
    # JSON true and false load as bools, which Python counts as ints
    payload = dict(SPECTRUM_CONFIG, layout=["qubit"], hamiltonian="sz@0",
                   initial_state={"type": "basis", "occupations": occupations})
    cfg = write_config(tmp_path, "spectrum.json", payload)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "initial_state.occupations: must be a list of integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "layout, seeds", [([{"kind": "qumode", "cutoff": 8}], None), (["qubit"], ["sx@0", "sz@0"])]
)
def test_closure_needs_a_qubit_and_a_qumode(tmp_path, capsys, layout, seeds):
    payload = {"experiment": "closure", "layout": layout}
    if seeds is not None:
        payload["seeds"] = seeds
    cfg = write_config(tmp_path, "closure.json", payload)
    assert main(["closure", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "needs at least one qubit and one qumode" in capsys.readouterr().err


def test_closure_never_builds_the_derivation_chain(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path, "closure.json",
        {"experiment": "closure", "layout": ["qubit", {"kind": "qumode", "cutoff": 8}], "max_new": 20,
         "degree_cap": 3, "probes": ["sy@0"]},
    )
    assert main(["closure", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a closure run derived a synthesis rule")

    monkeypatch.setattr("hybridsim.synthesis.derive_rule", refuse)
    assert main(["closure", "--config", cfg, "--out", str(tmp_path / "patched")]) == 0
    samples = [(tmp_path / run / "samples.csv").read_text() for run in ("plain", "patched")]
    assert samples[0] == samples[1]


def test_trotter_scaling_run(tmp_path):
    cfg = write_config(
        tmp_path, "trotter.json",
        {
            "experiment": "trotter-scaling",
            "layout": ["qubit", {"kind": "qumode", "cutoff": 16}],
            "hamiltonian": "sz@0*X@1+sx@0*X@1",
            "t": 0.5,
            "steps": [4, 8, 16, 32],
            "seed": 0,
        },
    )
    out = tmp_path / "trotter"
    assert main(["trotter-scaling", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert -1.2 <= res["error_slope"] <= -0.8


def test_robustness_run(tmp_path):
    cfg = write_config(
        tmp_path, "robust.json",
        {
            "experiment": "robustness",
            "layout": ["qubit"],
            "hamiltonian": "sz@0",
            "initial_state": {"type": "basis", "occupations": [0]},
            "beta": 4.0,
            "t_couple": 5.0,
            "pointer_cutoff": 128,
            "n_shots": 300,
            "seed": 5,
        },
    )
    out = tmp_path / "robust"
    assert main(["robustness", "--config", cfg, "--out", str(out)]) == 0
    res = json.loads((out / "summary.json").read_text())["results"]
    assert res["branches"]
    top = max(res["branches"], key=lambda b: -abs(b["eigenvalue"] - 1.0))
    assert abs(top["eigenvalue"] - 1.0) <= res["resolution"]


def _data_lines(path):
    return [line for line in path.read_text().splitlines() if line and not line.startswith("#")]


def test_data_files_hold_plain_numbers_and_valid_csv(tmp_path):
    small = ["qubit", {"kind": "qumode", "cutoff": 8}]
    runs = {
        "spectrum": dict(SPECTRUM_CONFIG, n_shots=50),
        "synth": {"experiment": "synth", "layout": small, "target": "sy@0", "angle": 0.5, "n_blocks": [2, 4]},
        "closure": {"experiment": "closure", "layout": small, "max_new": 10, "degree_cap": 3},
    }
    for name, payload in runs.items():
        out = tmp_path / name
        assert main([name, "--config", write_config(tmp_path, f"{name}.json", payload), "--out", str(out)]) == 0
        header, *rows = csv.reader(_data_lines(out / "samples.csv"))
        assert rows
        for row in rows:
            assert len(row) == len(header), (name, row)
            for column, cell in zip(header, row):
                if column != "source":
                    float(cell)
        for line in _data_lines(out / "curve.dat"):
            for cell in line.split():
                float(cell)


def test_non_finite_numbers_name_their_field(tmp_path, capsys):
    small = ["qubit", {"kind": "qumode", "cutoff": 8}]
    cases = [
        ("synth", {"layout": small, "target": "sy@0", "angle": float("nan"), "n_blocks": [4]}, "angle"),
        ("trotter-scaling", {"layout": small, "hamiltonian": "sz@0*X@1", "t": float("inf"), "steps": [4]}, "t"),
    ]
    for name, payload, field in cases:
        cfg = write_config(tmp_path, f"{name}.json", payload)
        assert main([name, "--config", cfg, "--out", str(tmp_path / name)]) == 3
        assert capsys.readouterr().err.startswith(f"hybridsim: validation error: {field}: must be a finite number")


SMALL = ["qubit", {"kind": "qumode", "cutoff": 8}]


@pytest.mark.parametrize("name, payload, field", [
    ("synth", {"layout": SMALL, "target": "sy@0", "angle": 10**400, "n_blocks": [4]}, "angle"),
    ("synth", {"layout": SMALL, "target": "sy@0", "angle": 1e300, "n_blocks": [4]}, "angle"),
    ("trotter-scaling", {"layout": SMALL, "hamiltonian": "sz@0*X@1", "t": 10**400, "steps": [4]}, "t"),
    ("qft-demo", {"cutoff": 16, "displace_x": 10**400}, "displace_x"),
    ("spectrum", dict(SPECTRUM_CONFIG, beta=10**400), "beta"),
])
def test_numbers_beyond_float_range_name_their_field(tmp_path, capsys, name, payload, field):
    cfg = write_config(tmp_path, f"{name}.json", payload)
    assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert re.match(rf"hybridsim: validation error: {field}\b", capsys.readouterr().err)


def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "synth.json"
    path.write_text('{"layout": ["qubit", {"kind": "qumode", "cutoff": 8}], "target": "sy@0", "n_blocks": [4], '
                    f'"angle": 1{"0" * 5000}}}')
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("hybridsim: parse error: config: invalid JSON")


@pytest.mark.parametrize("name, payload, field", [
    ("synth", {"layout": SMALL, "target": "sy@0", "angle": 0.5, "n_blocks": [4, 4]}, "n_blocks"),
    ("trotter-scaling", {"layout": SMALL, "hamiltonian": "sz@0*X@1", "t": 0.5, "steps": [2, 4, 2]}, "steps"),
])
def test_repeated_points_of_an_error_slope_name_their_field(tmp_path, capsys, name, payload, field):
    cfg = write_config(tmp_path, f"{name}.json", payload)
    assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"hybridsim: validation error: {field}: must not repeat")


@pytest.mark.parametrize("name", cli.EXPERIMENTS)
def test_the_guard_band_is_not_a_config_key(tmp_path, capsys, name):
    cfg = write_config(tmp_path, f"{name}.json", {"experiment": name, "guard": 0.25})
    assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"hybridsim: validation error: guard: unknown key for experiment {name!r}\n"


@pytest.mark.parametrize("cutoff", [2, 3])
def test_closure_runs_on_the_smallest_modes(tmp_path, cutoff):
    cfg = write_config(tmp_path, "closure.json",
                       {"experiment": "closure", "layout": ["qubit", {"kind": "qumode", "cutoff": cutoff}]})
    out = tmp_path / "closure"
    assert main(["closure", "--config", cfg, "--out", str(out)]) == 0
    notes = json.loads((out / "summary.json").read_text())["results"]["notes"]
    # McCoy's x³p vanishes on these interiors up to rounding: the direction gets a note, no row
    assert "direction 27 (i[2,11]) vanishes on the interior block (norm 0.0e+00): " \
           "no basis row" in notes


@pytest.mark.parametrize("t", [0.5, -0.7])
def test_trotter_scaling_errors_match_the_flat_product(tmp_path, t):
    layout, text, steps = new_register([qubit(), qumode(16)]), "sz@0*X@1+sx@0*X@1+0.3*sz@0*P@1", [1, 3, 8, 32]
    cfg = write_config(
        tmp_path, "trotter.json",
        {"experiment": "trotter-scaling", "layout": ["qubit", {"kind": "qumode", "cutoff": 16}],
         "hamiltonian": text, "t": t, "steps": steps, "seed": 0},
    )
    assert main(["trotter-scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    errors = json.loads((tmp_path / "out" / "summary.json").read_text())["results"]["errors"]
    h = parse_expr(text)
    exact = expm_unitary(build(h, layout), t)
    assert [e["n_steps"] for e in errors] == steps
    for e in errors:
        flat = np.linalg.norm(sequence_unitary(trotter(h, t, e["n_steps"]), layout) - exact, 2)
        assert abs(e["error"] - flat) <= 1e-12 * flat


def test_trotter_scaling_errors_match_the_dense_norm(tmp_path):
    dims, text, t, steps = [2, 2, 32], "0.9*sz@0*X@2 + 1.1*sx@0*X@2 + 0.5*sz@1*P@2", 0.5, [4, 8, 16, 32, 64]
    layout = new_register([qubit() if d == 2 else qumode(d) for d in dims])
    cfg = write_config(tmp_path, "trotter.json", {"experiment": "trotter-scaling", "layout": _layout_json(dims),
                                                   "hamiltonian": text, "t": t, "steps": steps})
    assert main(["trotter-scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    errors = json.loads((tmp_path / "out" / "summary.json").read_text())["results"]["errors"]
    h = parse_expr(text)
    exact = expm_unitary(build(h, layout), t)
    for n, e in zip(steps, errors):
        dense = np.linalg.norm(np.linalg.matrix_power(sequence_unitary(trotter(h, t / n, 1), layout), n) - exact, 2)
        assert abs(e["error"] - dense) <= 1e-12 * dense


def _layout_json(dims):
    return ["qubit" if d == 2 else {"kind": "qumode", "cutoff": d} for d in dims]


# The two gate-synthesis benchmark configs that put X and P on one mode: the sectors of their
# generators' keys, and the index sets each error norm reads.
@pytest.mark.parametrize("experiment, dims, config, found, normed", [
    ("synth", [2, 2, 32], {"target": "sz@0*sz@1", "angle": 0.3, "n_blocks": [4, 16]}, [32] * 4, [32] * 4),
    ("trotter-scaling", [2, 2, 32], {"hamiltonian": "0.9*sz@0*X@2 + 1.1*sx@0*X@2 + 0.5*sz@1*P@2",
                                     "t": 0.5, "steps": [4, 8]}, [64] * 2, [64] * 2),
])
def test_gate_synthesis_norms_are_taken_per_parity_sector(tmp_path, monkeypatch, experiment, dims, config, found,
                                                           normed):
    sizes = {"found": set(), "normed": []}

    def parity_sectors(keys, layout):
        sectors = operators.parity_sectors(keys, layout)
        sizes["found"].add(tuple(len(s) for s in sectors))
        return sectors

    norm = np.linalg.norm

    def block_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) >= 2:  # a stack of block pairs' spectral-norm distances
            sizes["normed"].append(np.shape(x)[-1])
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(synthesis, "parity_sectors", parity_sectors)
    monkeypatch.setattr(np.linalg, "norm", block_norm)
    cfg = write_config(tmp_path, "cfg.json", {"experiment": experiment, "layout": _layout_json(dims), **config})
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # each of the two n_blocks (or steps) takes one distance, over the same block pairs
    assert sizes == {"found": {tuple(found)}, "normed": normed * 2}


def _refuse_replay(monkeypatch):
    """Make cli.run_sequence raise; return the (dimension, exponent) of each np.linalg.matrix_power call."""
    def refuse(*args, **kwargs):
        raise AssertionError("the run replayed its pulses on the probe")

    monkeypatch.setattr("hybridsim.cli.run_sequence", refuse)
    powers = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda m, n: powers.append((np.shape(m)[-1], n)) or matrix_power(m, n))
    return powers


def _assert_leakage_matches(summary, replayed):
    if replayed >= 1e-20:
        assert abs(summary["leakage"] - replayed) <= 1e-9 * replayed


@pytest.mark.parametrize("dims, target, angle, blocks", [
    ([2, 2, 8], "sz@0*sz@1", 0.3, [4, 16, 64]),
])
def test_synth_reads_its_probe_from_the_plan_unitary(tmp_path, monkeypatch, dims, target, angle, blocks):
    powers = _refuse_replay(monkeypatch)
    cfg = write_config(tmp_path, "synth.json", {
        "experiment": "synth", "layout": ["qubit" if d == 2 else {"kind": "qumode", "cutoff": d} for d in dims],
        "target": target, "angle": angle, "n_blocks": blocks})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # each n_blocks raises every sector block of its step once: two or more blocks whose sizes sum to D
    # (the powers of other exponents are local operator powers)
    for n in blocks:
        sizes = [d for d, k in powers if k == n]
        assert len(sizes) >= 2 and sum(sizes) == np.prod(dims)
    monkeypatch.undo()

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    layout = new_register([qubit() if d == 2 else qumode(d) for d in dims])
    reg = standard_registry(layout)
    plan = synthesize(target, angle, blocks[-1], reg)
    probe = basis_state(layout, [0] * len(dims))
    final = run_sequence(plan.sequence, probe, reg.generators)
    exact = run_sequence(plan.target_sequence, probe, reg.generators)
    assert abs(summary["results"]["probe_state_fidelity"] - exact.fidelity(final)) <= 1e-12
    _assert_leakage_matches(summary, leakage(final))


# Plans whose pulses touch each mode through X alone: each unitary is a (nodes, d_spin, d_spin) field.
@pytest.mark.parametrize("dims, target, angle, blocks, stack", [
    ([2, 6, 6], "X@1*X@2", 0.35, [4, 16], (36, 2, 2)),
    ([2, 2, 8], "sy@0*X@2^2", 0.2, [4, 16], (8, 2, 2)),
])
def test_a_single_quadrature_synth_powers_its_node_field(tmp_path, monkeypatch, dims, target, angle, blocks, stack):
    def refuse(*args, **kwargs):
        raise AssertionError("the run formed a dense plan unitary")

    def parity_sectors(keys, layout):  # only the touched qubit's sectors
        assert layout == new_register([qubit()])
        return operators.parity_sectors(keys, layout)

    _refuse_replay(monkeypatch)
    monkeypatch.setattr(synthesis, "parity_sectors", parity_sectors)
    monkeypatch.setattr(synthesis, "sequence_unitary", refuse)
    shapes = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power", lambda m, n: shapes.append((np.shape(m), n)) or matrix_power(m, n))
    cfg = write_config(tmp_path, "synth.json", {
        "experiment": "synth", "layout": ["qubit" if d == 2 else {"kind": "qumode", "cutoff": d} for d in dims],
        "target": target, "angle": angle, "n_blocks": blocks})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # each n_blocks raises its step's field once (the powers of other exponents are local operator powers)
    for n in blocks:
        assert [shape for shape, k in shapes if k == n] == [stack]
    monkeypatch.undo()

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    layout = new_register([qubit() if d == 2 else qumode(d) for d in dims])
    reg = standard_registry(layout)
    plan = synthesize(target, angle, blocks[-1], reg)
    probe = basis_state(layout, [0] * len(dims))
    final = run_sequence(plan.sequence, probe, reg.generators)
    exact = run_sequence(plan.target_sequence, probe, reg.generators)
    assert abs(summary["results"]["probe_state_fidelity"] - exact.fidelity(final)) <= 1e-12
    _assert_leakage_matches(summary, leakage(final))


def test_trotter_scaling_reads_its_probe_from_the_last_step_power(tmp_path, monkeypatch):
    powers = _refuse_replay(monkeypatch)
    text, t, steps = "sz@0*X@1+sx@0*X@1+0.3*sz@0*P@1", -0.7, [1, 3, 8, 32]
    cfg = write_config(tmp_path, "trotter.json", {
        "experiment": "trotter-scaling", "layout": ["qubit", {"kind": "qumode", "cutoff": 8}],
        "hamiltonian": text, "t": t, "steps": steps})
    assert main(["trotter-scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert [n for d, n in powers if d == 16] == steps
    monkeypatch.undo()

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    layout = new_register([qubit(), qumode(8)])
    final = run_sequence(trotter(parse_expr(text), t, steps[-1]), basis_state(layout, [0, 0]))
    assert leakage(final) >= 1e-6
    _assert_leakage_matches(summary, leakage(final))


def test_shot_lines_format_each_shot_as_before():
    from hybridsim.cli import _shot_lines

    samples = (0.5, -1.25, 0.5, 1e-17, -1.25, 3.0000000000000004, 0.5)
    expected = ["shot,x,eigenvalue_estimate"] + [f"{i},{x!r},{x / 3.7!r}" for i, x in enumerate(samples)]
    assert _shot_lines(*np.unique(samples, return_inverse=True), 3.7) == expected


@pytest.mark.parametrize("n_shots", [1, 400])
@pytest.mark.parametrize(("experiment", "runner"), [("spectrum", "estimate_spectrum"),
                                                    ("robustness", "robustness_midmeasure")])
def test_shot_rows_and_histogram_equal_the_formulas_on_the_samples(tmp_path, monkeypatch, experiment, runner,
                                                                   n_shots):
    # rows and bins formed from node indices equal the per-sample formulas; one shot takes the pad = 0.5 branch
    results, run = [], getattr(cli, runner)
    monkeypatch.setattr(cli, runner, lambda *a: results.append(run(*a)) or results[-1])
    cfg = write_config(tmp_path, "c.json", dict(SPECTRUM_CONFIG, experiment=experiment, n_shots=n_shots))
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    samples, t = results[0].samples, SPECTRUM_CONFIG["t_couple"]
    assert len(samples) == n_shots and (len(set(samples)) > 1) == (n_shots > 1)

    def data(name):
        return [ln for ln in (tmp_path / "out" / name).read_text().splitlines() if not ln.startswith("#")]

    assert data("samples.csv") == ["shot,x,eigenvalue_estimate"] + [f"{i},{x!r},{x / t!r}"
                                                                   for i, x in enumerate(samples)]
    lo, hi = min(samples), max(samples)
    pad = 0.05 * (hi - lo) if hi > lo else 0.5
    counts, edges = np.histogram(samples, bins=60, range=(lo - pad, hi + pad))
    edges = edges.tolist()
    assert data("curve.dat") == [f"{(a + b) / 2!r} {c}" for c, a, b in zip(counts.tolist(), edges[:-1], edges[1:])]


def test_a_synth_run_propagates_its_target_pulse_once(tmp_path, monkeypatch):
    layout = new_register([qubit(), qumode(8)])
    target_id = synthesize("sy@0", 0.4, 4, standard_registry(layout)).target_id
    pulses = []
    decomposition = Generators.decomposition
    monkeypatch.setattr(Generators, "decomposition",
                        lambda self, p: pulses.append(p.generator_id) or decomposition(self, p))
    cfg = write_config(tmp_path, "synth.json", {"experiment": "synth", "layout": _layout_json([2, 8]),
                                                "target": "sy@0", "angle": 0.4, "n_blocks": [4, 16, 64]})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert pulses.count(target_id) == 1
    assert len(pulses) == 3 * 4 + 1  # one block per n_blocks, and the target


@pytest.mark.parametrize("experiment, config", [
    ("synth", {"layout": _layout_json([2, 8]), "target": "sy@0", "angle": 1e200, "n_blocks": [4, 16, 64]}),
    ("trotter-scaling", {"layout": _layout_json([2, 2, 8]), "hamiltonian": "0.9*sz@0*X@2 + 1.1*sx@0*X@2 + 0.5*sz@1*P@2",
                         "t": 1e300, "steps": [4, 16]}),
])
def test_a_pulse_past_the_phase_budget_exits_3(tmp_path, capsys, experiment, config):
    cfg = write_config(tmp_path, "cfg.json", {"experiment": experiment, **config})
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("hybridsim: validation error: pulse ")
    assert "exceeds the phase budget 2**52 rad" in err


def test_trotter_terms_that_cancel_in_the_sum_still_set_the_sectors(tmp_path):
    # the two sx terms cancel in the Hamiltonian's symbol, but each is pulsed, at its own position in a step
    text, t, steps = "sx@0*X@1 + sz@0*X@1 - sx@0*X@1", 0.5, [4, 8]
    cfg = write_config(tmp_path, "trotter.json", {"experiment": "trotter-scaling", "layout": _layout_json([2, 8]),
                                                   "hamiltonian": text, "t": t, "steps": steps})
    assert main(["trotter-scaling", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    errors = json.loads((tmp_path / "out" / "summary.json").read_text())["results"]["errors"]
    layout, h = new_register([qubit(), qumode(8)]), parse_expr(text)
    exact = expm_unitary(build(h, layout), t)
    for n, e in zip(steps, errors):
        dense = np.linalg.norm(np.linalg.matrix_power(sequence_unitary(trotter(h, t / n, 1), layout), n) - exact, 2)
        assert abs(e["error"] - dense) <= 1e-12 * dense


@pytest.mark.parametrize("n", [2**52 + 1, 10**20])
@pytest.mark.parametrize("experiment, key, config", [
    ("synth", "n_blocks", {"target": "sz@0*sz@1", "angle": 0.3}),
    ("trotter-scaling", "steps", {"hamiltonian": "0.9*sz@0*X@2 + 1.1*sx@0*X@2 + 0.5*sz@1*P@2", "t": 0.5}),
])
def test_a_repeat_count_past_2_to_the_52_exits_3(tmp_path, capsys, n, experiment, key, config):
    cfg = write_config(tmp_path, "cfg.json", {"experiment": experiment, "layout": _layout_json([2, 2, 8]),
                                              key: [4, n], **config})
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"hybridsim: validation error: {key}: must be at most 2**52 (cli.MAX_REPEATS), got {n}\n"
    assert cli.MAX_REPEATS == 2**52


def _bench_workloads(monkeypatch):
    """The benchmark's experiment lists, from bench/workloads.py, imported for this test only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # its dataclasses resolve through sys.modules
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["pointer-spectroscopy", "gate-synthesis", "lie-closure", "shot-sampling"])
def test_every_benchmark_config_runs_inside_the_phase_budget(tmp_path, monkeypatch, workload):
    workloads = _bench_workloads(monkeypatch)
    for seed in (5, 7):
        for i, exp in enumerate(workloads.experiments(workload, seed)):
            path = tmp_path / f"{seed}-{i}.json"
            workloads.write_config(exp, path)
            assert main(exp.argv(path, tmp_path / f"out-{seed}-{i}")) == 0, exp.label


@pytest.mark.parametrize(("cutoff", "config"), [
    (16, {"probes": ["X@1^1000"]}),
    (4, {"seeds": ["sx@0*X@1^1000"], "degree_cap": 2}),  # X^1000 is finite on 4 levels, but its norm overflows
], ids=["probe", "seed"])
def test_a_closure_block_that_is_not_finite_exits_3(tmp_path, capsys, cutoff, config):
    # no warning filter: the project's error::RuntimeWarning would fail the test if numpy warned
    cfg = write_config(tmp_path, "cfg.json", {"experiment": "closure", "layout": _layout_json([2, cutoff]), **config})
    assert main(["closure", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    message = f"mode factor x^1000 p^0 on cutoff {cutoff} overflows (its norm is not finite)"
    assert capsys.readouterr().err == f"hybridsim: validation error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [2**52, 2**52 + 1, 10**20])
@pytest.mark.parametrize(("experiment", "key", "config"), [
    ("spectrum", "n_shots", SPECTRUM_CONFIG),
    ("robustness", "n_shots", SPECTRUM_CONFIG),
    ("spectrum", "pointer_cutoff", SPECTRUM_CONFIG),
    ("spectrum", "trotter_steps", {**SPECTRUM_CONFIG, "method": "trotter"}),
    ("synth", "layout[1].cutoff", {"target": "sy@0", "angle": 0.3, "n_blocks": 4}),
    ("closure", "layout[1].cutoff", {}),
    ("qft-demo", "cutoff", {}),
])
def test_a_size_past_the_address_space_exits_3(tmp_path, capsys, n, experiment, key, config):
    # at 2**52 the first large array asks for at least 32 PiB, which no allocator grants; above it the bound refuses
    config = {**config, "experiment": experiment}
    if key.startswith("layout"):
        config["layout"] = ["qubit", {"kind": "qumode", "cutoff": n}]
    else:
        config[key] = n
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    why = (f"{experiment}: cannot allocate its arrays" if n == cli.MAX_REPEATS
           else f"{key}: must be at most 2**52 (cli.MAX_REPEATS), got {n}")
    if n == cli.MAX_REPEATS and key == "trotter_steps":  # one round of one pulse per term: nothing to allocate
        why = f"sequence of {n} pulses exceeds NORM_TOL * 2**52 = 4.5e+07"
    assert capsys.readouterr().err == f"hybridsim: validation error: {why}\n"


@pytest.mark.parametrize("experiment", ["spectrum", "robustness"])
def test_a_trotter_run_past_the_pulse_bound_exits_3_before_its_first_pulse(tmp_path, capsys, experiment):
    # 2**52 rounds of one pulse allocate nothing: the pulse loop refuses the count before it runs
    cfg = write_config(tmp_path, "cfg.json", {**SPECTRUM_CONFIG, "experiment": experiment, "method": "trotter",
                                              "trotter_steps": 2**52})
    started = time.perf_counter()
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("hybridsim: validation error: sequence of 4503599627370496 pulses exceeds NORM_TOL")
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


def test_run_reraises_an_unexpected_value_error(tmp_path, monkeypatch):
    def runner(cfg):
        raise ValueError("boom")

    monkeypatch.setitem(cli.EXPERIMENTS, "synth", (runner, cli.EXPERIMENTS["synth"][1]))
    with pytest.raises(ValueError, match="^boom$"):
        cli.run(cli.ExperimentConfig("synth", {}, 0, tmp_path / "out"))
    assert not (tmp_path / "out").exists()


# Per config key: a value of the wrong type, then small valid values (cutoffs <= 8, pointer_cutoff <= 16,
# n_shots <= 50, step counts <= 8, max_new <= 10, degree_cap <= 3).  A key of a new experiment needs a row here.
FUZZ_VALUES = {
    "layout": ("qubit", ["qubit", {"kind": "qumode", "cutoff": 4}], ["qubit"], [{"kind": "qumode", "cutoff": 8}],
               ["qubit", "qubit", {"kind": "qumode", "cutoff": 3}]),
    "hamiltonian": (5, "sz@0", "sz@0*X@1 + sx@0*P@1", "0.5*X@0^2 + 0.5*P@0^2", "1e306*X@1^6 + 1e306*P@1^6"),
    "target": (["sy@0"], "sy@0", "sz@0*X@1", "sz@0*sz@1"),
    "angle": ("0.3", 0.3, -0.5, 0.0),
    "n_blocks": ("4", [2, 4], 2, [0]),
    "seeds": ("sx@0", ["sx@0*X@1", "sz@0*P@1"], ["sx@0**X@1"], []),
    "probes": ("sy@0", ["sy@0", "id@0"], [], ["sy@"]),
    "max_new": (1.5, 10, 3),
    "degree_cap": ([2], 3, 1),
    "include_reset_effectives": (0, True, False),
    "cutoff": ("8", 8, 2),
    "displace_x": ("1", 0.5, 0.0),
    "displace_p": ([0], -0.4, 0.0),
    "initial_state": ("uniform", {"type": "uniform"}, {"type": "basis", "occupations": [0, 1]}),
    "beta": ("4", 1.0, 2.0),
    "t_couple": ([1], 0.5, 2.0),
    "pointer_cutoff": (16.5, 16, 8),
    "n_shots": ("5", 50, 1),
    "method": (1, "exact", "trotter"),
    "trotter_steps": (2.5, 8, 1),
    "t": ("1", 0.5, -0.3),
    "steps": ("2", [1, 2, 8], 1),
}


def _faulted(name, config, faults):
    for key, fault in faults.items():
        if fault == "absent":
            del config[key]
        else:
            config[key] = None if fault == "null" else FUZZ_VALUES[key][0]
    return {"experiment": name, **config}


def _configs(name):
    """A config of one experiment: each key a small valid value, then up to two keys made absent, null or of the
    wrong type (with more, a config would seldom reach the computation)."""
    keys = sorted(cli.EXPERIMENTS[name][1])
    valid = st.fixed_dictionaries({key: st.sampled_from(FUZZ_VALUES[key][1:]) for key in keys})
    faults = st.dictionaries(st.sampled_from(keys), st.sampled_from(("absent", "null", "wrong")), max_size=2)
    return st.builds(_faulted, st.just(name), valid, faults)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@example(config=dict(CLOSURE_CONFIG, probes=None))  # refused as a wrong type before the closure runs
@example(config={"experiment": "spectrum", "layout": ["qubit", {"kind": "qumode", "cutoff": 16}],
                 "hamiltonian": "1e306*X@1^6 + 1e306*P@1^6", "beta": 1, "t_couple": 1e-12, "pointer_cutoff": 8,
                 "n_shots": 5})  # its overflowed matrix is refused before eigh, with no warning
@given(config=st.sampled_from(list(cli.EXPERIMENTS)).flatmap(_configs))
def test_every_config_exits_with_a_documented_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp) / "cfg.json", Path(tmp) / "out", io.StringIO()
        path.write_text(json.dumps(config))
        with contextlib.redirect_stderr(err):
            code = main([config["experiment"], "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 3:
            assert err.getvalue().startswith("hybridsim: validation error: ") and err.getvalue().count("\n") == 1
            assert not out.exists()
