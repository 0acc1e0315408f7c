"""End-to-end tests for the qvlab command line interface.

Tests drive ``qvlab.cli.main`` in process (fast, and capsys sees the
output); subprocesses cover what needs a fresh interpreter: the thread cap
applied before numpy loads, and the ``python -m`` entry point at the bottom.
Heavy evolution runs are shared through module-scoped fixtures.
"""

import collections
import contextlib
import errno
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvlab import cli
from qvlab.cli import main
from qvlab.fields import (ComplexScalarField, SpinorField, VectorField, read_snapshot,
                          write_snapshot)
from qvlab.lattice import make_grid


def _write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _gaussian_config():
    return {
        "name": "free-gaussian",
        "equation": "schrodinger",
        "grid": {"dim": 1, "n": [256], "length": [40.0]},
        "constants": {"kind": "natural"},
        "initial_state": {
            "preset": "gaussian",
            "sigma": 1.0,
            "center": [20.0],
            "k0": [0.0],
        },
        "evolution": {"dt": 1e-3, "steps": 1000, "snapshot_stride": 100},
        "diagnostics": ["continuity", "hamilton_jacobi"],
        "trace": {
            "method": "both",
            "interpolation": "spectral",
            "starts": [[21.0]],
        },
        "gps": {"order": 3, "t": 0.5, "state": [[1.0], [2.0], [4.0]]},
        "fields": {"family": "psi"},
    }


def _oscillator_config():
    return {
        "name": "oscillator-ground",
        "equation": "schrodinger",
        "grid": {"dim": 1, "n": [256], "length": [40.0]},
        "constants": {"kind": "natural"},
        "initial_state": {"preset": "ho_ground", "omega": 1.0, "center": [20.0]},
        "gauge": {"u": {"preset": "harmonic", "omega": 1.0, "center": [20.0]}},
        "evolution": {"dt": 5e-4, "steps": 400, "snapshot_stride": 40},
        "diagnostics": ["continuity", "hamilton_jacobi"],
    }


@pytest.fixture(scope="module")
def gaussian_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("gauss")
    cfg = _write_config(base / "scenario.json", _gaussian_config())
    out = base / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


@pytest.fixture(scope="module")
def oscillator_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("osc")
    cfg = _write_config(base / "scenario.json", _oscillator_config())
    out = base / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


# ---------------------------------------------------------------------------
# evolve


def test_evolve_writes_snapshot_series_and_manifest(gaussian_run):
    _, out = gaussian_run
    snaps = sorted(out.glob("snap_*.qfs"))
    assert len(snaps) == 11
    assert snaps[0].name == "snap_000000.qfs"
    assert snaps[-1].name == "snap_001000.qfs"

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["equation"] == "schrodinger"
    assert manifest["dt"] == 1e-3
    assert manifest["steps"] == 1000
    assert len(manifest["config_sha256"]) == 64
    assert int(manifest["config_sha256"], 16) >= 0
    assert "numpy" in manifest["versions"]
    entries = manifest["snapshots"]
    assert len(entries) == 11
    assert entries[0]["step"] == 0
    assert entries[-1]["step"] == 1000
    assert abs(entries[-1]["time"] - 1.0) < 1e-12
    timings = json.loads((out / "timings.json").read_text(encoding="utf-8"))
    assert timings["evolve_seconds"] > 0.0


def test_evolve_rerun_is_byte_identical(gaussian_run, tmp_path, capsys):
    cfg, out = gaussian_run
    again = tmp_path / "rerun"
    assert main(["evolve", "--config", str(cfg), "--out", str(again)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote 11 snapshots" in stdout
    for snap in sorted(out.glob("snap_*.qfs")):
        assert (again / snap.name).read_bytes() == snap.read_bytes()
    manifest = (out / "manifest.json").read_bytes()
    assert (again / "manifest.json").read_bytes() == manifest


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(0, 12), stride=st.integers(1, 5),
       dt=st.one_of(st.floats(1e-4, 1e-2), st.floats(-1e-2, -1e-4)))
def test_a_run_keeps_the_snapshot_steps_of_its_params(steps, stride, dt):
    # every stride-th step and the last, at the times step * dt, in the library
    # run and in the files and manifest evolve writes
    payload = _small_config()
    payload["evolution"] = {"dt": dt, "steps": steps, "snapshot_stride": stride}
    kept = sorted({*range(0, steps, stride), steps})
    times = [step * dt for step in kept]
    with tempfile.TemporaryDirectory() as tmp:
        scenario = cli.Scenario(payload, tmp)
        params = scenario.evolution
        assert params.snapshot_steps == kept
        run = cli.evolvers.run_schrodinger(scenario.state, scenario.gauge, scenario.consts,
                                           params)
        assert run.times == times
        cfg, out = _write_config(pathlib.Path(tmp) / "run.json", payload), pathlib.Path(tmp, "run")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        files = sorted(path.name for path in out.glob("snap_*.qfs"))
        assert files == [f"snap_{step:06d}.qfs" for step in kept]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert [entry["time"] for entry in manifest["snapshots"]] == times


def test_unknown_preset_is_a_config_error(tmp_path, capsys):
    payload = _gaussian_config()
    payload["initial_state"]["preset"] = "gaussina"
    cfg = _write_config(tmp_path / "bad.json", payload)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "initial_state.preset" in err


def test_unknown_top_level_key_is_named(tmp_path, capsys):
    payload = _gaussian_config()
    payload["gird"] = {"dim": 1}
    cfg = _write_config(tmp_path / "bad.json", payload)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown key config.gird" in capsys.readouterr().err


def test_profiles_key_is_rejected(tmp_path, capsys):
    payload = _gaussian_config()
    payload["profiles"] = True
    cfg = _write_config(tmp_path / "profiles.json", payload)
    assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown key config.profiles" in capsys.readouterr().err


# keys that once selected a splitting scheme and a gauge condition, each set
# to the one value it used to accept
@pytest.mark.parametrize("key, value", [("evolution.splitting_order", 2), ("gauge.chi", "zero")])
def test_retired_keys_are_unknown(key, value, tmp_path, capsys):
    payload = _small_config()
    _put(payload, key, value)
    cfg = _write_config(tmp_path / "retired.json", payload)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert f"unknown key config.{key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _small_config():
    return {
        "name": "small",
        "equation": "schrodinger",
        "grid": {"dim": 1, "n": [16], "length": [8.0]},
        "initial_state": {"preset": "gaussian", "center": [4.0]},
        "evolution": {"dt": 1e-3, "steps": 1},
    }


# valid keys for every preset of every preset table
_PRESET_KEYS = {
    ("initial_state", "plane_wave"): {"mode": [1]},
    ("initial_state", "gaussian"): {"sigma": 1.0},
    ("initial_state", "ho_ground"): {"omega": 1.0},
    ("initial_state", "spinor_up_x"): {"sigma": 1.0},
    ("initial_state", "dirac_plane_wave"): {"mode": [1], "branch": "negative"},
    ("initial_state", "custom"): {"path": "seed.qfs"},
    ("gauge.u", "zero"): {},
    ("gauge.u", "uniform"): {"value": 0.5},
    ("gauge.u", "harmonic"): {"omega": 1.0},
    ("gauge.u", "cosine"): {"mode": [1]},
    ("gauge.a", "zero"): {},
    ("gauge.a", "uniform"): {"value": [0.1]},
}
_PRESET_TABLES = (
    ("initial_state", cli._STATES),
    ("gauge.u", cli._POTENTIALS),
    ("gauge.a", cli._VECTOR_POTENTIALS),
)
_PRESETS = [(section, preset) for section, table in _PRESET_TABLES for preset in table]


def _put(payload, path, value):
    *heads, last = path.split(".")
    for head in heads:
        payload = payload.setdefault(head, {})
    payload[last] = value


def _write_seed(directory):
    """The snapshot the custom preset of _PRESET_KEYS reads."""
    grid = make_grid(1, [16], [8.0])
    write_snapshot(ComplexScalarField(grid, np.ones(16, dtype=complex)),
                   directory / "seed.qfs")


@pytest.mark.parametrize("section, preset", _PRESETS)
def test_every_preset_rejects_extra_keys_and_bad_values(section, preset, tmp_path,
                                                        capsys):
    _write_seed(tmp_path)
    keys = _PRESET_KEYS[(section, preset)]
    cases = [({**keys, "extra": 1}, f"unknown key config.{section}.extra")]
    for key in keys:
        cases.append(({**keys, key: True}, f"config.{section}.{key} must be"))
    for values, message in cases:
        payload = _small_config()
        _put(payload, section, {"preset": preset, **values})
        cfg = _write_config(tmp_path / "preset.json", payload)
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert message in err
        if "extra" not in values:
            assert err.rstrip().endswith("got true")


# the equation a state preset needs, where it is not schrodinger
_STATE_EQUATIONS = {"spinor_up_x": "pauli", "dirac_plane_wave": "dirac"}


@pytest.mark.parametrize("section, preset", _PRESETS)
def test_every_preset_builds_and_evolves(section, preset, tmp_path):
    _write_seed(tmp_path)
    payload = _small_config()
    _put(payload, section, {"preset": preset, **_PRESET_KEYS[(section, preset)]})
    if section == "initial_state":
        payload["equation"] = _STATE_EQUATIONS.get(preset, "schrodinger")
    cfg = _write_config(tmp_path / "preset.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(list(out.glob("snap_*.qfs"))) == 2


# every key read through Section.choice, with the config that reaches it
_CHOICES = [
    "equation",
    "constants.kind",
    "initial_state.preset",
    "initial_state.branch",
    "gauge.u.preset",
    "gauge.a.preset",
    "trace.method",
    "trace.interpolation",
    "fields.family",
]


@pytest.mark.parametrize("key", _CHOICES)
def test_every_choice_names_its_key_and_bad_value(key, tmp_path, capsys):
    payload = _small_config()
    if key == "initial_state.branch":
        payload["equation"] = "dirac"
        payload["initial_state"] = {"preset": "dirac_plane_wave", "mode": [1]}
    if key.startswith("trace."):
        payload["trace"] = {"starts": [[4.0]]}
    _put(payload, key, "nonesuch")
    cfg = _write_config(tmp_path / "choice.json", payload)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f'config.{key} must be one of ' in err
    assert err.rstrip().endswith('got "nonesuch"')


def test_unknown_diagnostic_fails_evolve_before_it_runs(tmp_path, capsys):
    payload = _gaussian_config()
    payload["diagnostics"] = ["continuity", "hamilton_jacobi", "continuty"]
    cfg = _write_config(tmp_path / "typo.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert (
        "config.diagnostics[2] must be one of continuity, hamilton_jacobi, gauge, "
        'four_current, got "continuty"'
    ) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "diagnose", "trace", "fields", "gps"])
def test_every_command_refuses_a_repeated_diagnostic(command, tmp_path, capsys):
    # a repeat would compute, print and write its reports twice
    payload = _gaussian_config()
    payload["diagnostics"] = ["continuity", "hamilton_jacobi", "continuity"]
    cfg = _write_config(tmp_path / "twice.json", payload)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert ('config error: config.diagnostics[2] repeats "continuity"'
            in capsys.readouterr().err)
    assert not out.exists()


def _traced_config():
    """_small_config over 3 snapshots, with diagnostics, trace and gps sections."""
    payload = _small_config()
    payload["evolution"]["steps"] = 2
    payload["diagnostics"] = ["continuity", "hamilton_jacobi", "gauge"]
    payload["trace"] = {"starts": [[4.0]], "dt": 1e-3, "steps": 1}
    payload["gps"] = {"order": 2, "t": 0.5, "state": [[1.0], [2.0]]}
    return payload


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    cfg = _write_config(base / "scenario.json", _traced_config())
    assert main(["evolve", "--config", str(cfg), "--out", str(base / "run")]) == 0
    return base / "run"


# trace and gps values that pass a JSON type check but not numpy
@pytest.mark.parametrize(
    "key, value",
    [
        ("gps.state", ["a", 1, 2]),
        ("gps.state", [[1.0], [2.0, 3.0]]),
        ("trace.starts", [[4.0], [4.0, 5.0]]),
        ("trace.starts", [["x"]]),
        ("trace.dt", 0),
        ("trace.dt", -0.01),
        ("trace.steps", -1),
    ],
)
def test_values_numpy_cannot_take_are_config_errors(key, value, small_run, tmp_path,
                                                    capsys):
    payload = _traced_config()
    _put(payload, key, value)
    cfg = _write_config(tmp_path / "bad.json", payload)
    command = key.split(".")[0]
    assert main([command, "--config", str(cfg), "--out", str(small_run)]) == 2
    err = capsys.readouterr().err
    assert f"config.{key} must be " in err
    assert err.rstrip().endswith(f"got {json.dumps(value)}")


def test_zero_trace_steps_stay_valid(small_run, tmp_path):
    payload = _traced_config()
    _put(payload, "trace.steps", 0)
    cfg = _write_config(tmp_path / "still.json", payload)
    assert main(["trace", "--config", str(cfg), "--out", str(small_run)]) == 0
    rows = np.loadtxt(small_run / "trace_000.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[0] == 1


def _seeded(command, seed, small_run, tmp_path):
    """argv of command with --seed seed, and the directory it would write: a
    fresh one for evolve and algebra-check, a copy of small_run for a trace that
    draws its starts (count) from the seed."""
    payload = _traced_config()
    payload["trace"] = {"count": 3, "dt": 1e-3, "steps": 1}
    cfg = _write_config(tmp_path / "seeded.json", payload)
    out = tmp_path / "out"
    if command == "trace":
        shutil.copytree(small_run, out)
    argv = [command, "--out", str(out), "--seed", seed]
    return (argv if command == "algebra-check" else [*argv, "--config", str(cfg)]), out


@pytest.mark.parametrize("seed", ["-7", "-1", str(2**64), "4.5"])
@pytest.mark.parametrize("command", ["evolve", "trace", "algebra-check"])
def test_a_seed_outside_u64_exits_2_before_any_work(command, seed, small_run, tmp_path,
                                                     capsys):
    argv, out = _seeded(command, seed, small_run, tmp_path)
    before = sorted(os.listdir(out)) if out.exists() else None
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "argument --seed: " in capsys.readouterr().err
    assert (sorted(os.listdir(out)) if out.exists() else None) == before


@pytest.mark.parametrize("command", ["evolve", "trace", "algebra-check"])
def test_the_largest_u64_seed_is_accepted(command, small_run, tmp_path):
    argv, out = _seeded(command, str(2**64 - 1), small_run, tmp_path)
    assert main(argv) == 0
    if command == "algebra-check":
        report = json.loads((out / "algebra_check.json").read_text(encoding="utf-8"))
        assert report["seed"] == 2**64 - 1
    elif command == "evolve":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 2**64 - 1
    else:
        assert (out / "trace_002.csv").exists()


_ONE_SNAPSHOT = {"steps": 0}
_UNEVEN = {"steps": 5, "snapshot_stride": 2}  # snapshots at steps 0, 2, 4, 5
_SCHEDULE = "config.evolution.steps/snapshot_stride"


# runs that cannot feed a command, and the key its config error names
@pytest.mark.parametrize(
    "evolution, command, key",
    [
        (_ONE_SNAPSHOT, "diagnose", _SCHEDULE),
        (_ONE_SNAPSHOT, "fields", _SCHEDULE),
        (_ONE_SNAPSHOT, "trace", "config.trace.dt"),
        (_UNEVEN, "diagnose", _SCHEDULE),
        (_UNEVEN, "fields", _SCHEDULE),
    ],
    ids=["one-diagnose", "one-fields", "one-trace", "uneven-diagnose", "uneven-fields"],
)
def test_runs_that_cannot_feed_a_command_name_the_key(evolution, command, key,
                                                      tmp_path, capsys):
    payload = _traced_config()
    payload["evolution"].update(evolution)
    del payload["trace"]["dt"]
    cfg = _write_config(tmp_path / "short.json", payload)
    out = str(tmp_path / "run")
    assert main(["evolve", "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", out]) == 2
    assert f"config error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("trace_dt", [None, 2e-3], ids=["default-dt", "explicit-dt"])
def test_trace_that_cannot_span_the_run_names_the_keys(trace_dt, tmp_path, capsys):
    # snapshots at 0, 0.002, 0.004 and 0.005: dt 0.002 cannot reach 0.005
    payload = _traced_config()
    payload["evolution"].update(_UNEVEN)
    payload["trace"] = {"starts": [[4.0]]}
    if trace_dt is not None:
        payload["trace"]["dt"] = trace_dt
    cfg = _write_config(tmp_path / "uneven.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: config.trace.steps is required, or a config.trace.dt" in err
    assert not (out / "trace_summary.json").exists()


def test_trace_of_an_equally_spaced_run_spans_it(tmp_path):
    payload = _traced_config()
    payload["evolution"].update({"steps": 4, "snapshot_stride": 2})
    payload["trace"] = {"starts": [[4.0]]}
    cfg = _write_config(tmp_path / "even.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "trace_summary.json").read_text(encoding="utf-8"))
    assert (summary["dt"], summary["steps"]) == (0.002, 2)
    assert summary["files"] == ["trace_000.csv"]


# explicit trace spans against a run over 0.002 (a one-snapshot run is static)
@pytest.mark.parametrize(
    "evolution_steps, trace, code",
    [(2, {"dt": 0.01, "steps": 50}, 2), (2, {"dt": 1e-3, "steps": 2}, 0),
     (0, {"dt": 0.01, "steps": 50}, 0)],
    ids=["past-the-run", "exact-span", "static"],
)
def test_explicit_trace_steps_stop_at_the_last_snapshot(evolution_steps, trace, code,
                                                        tmp_path, capsys):
    payload = _traced_config()
    payload["evolution"]["steps"] = evolution_steps
    payload["trace"].update(trace)
    cfg = _write_config(tmp_path / "span.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        assert "config error: config.trace.steps and config.trace.dt carry the paths" in err
        assert not (out / "trace_summary.json").exists()
    else:
        rows = np.loadtxt(out / "trace_000.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[-1, 0] == pytest.approx(trace["dt"] * trace["steps"])


def test_failed_evolve_leaves_no_manifest_over_new_snapshots(tmp_path, monkeypatch,
                                                             capsys):
    first = _traced_config()
    second = _traced_config()
    second["initial_state"]["k0"] = [3.0]
    cfg = _write_config(tmp_path / "first.json", first)
    other = _write_config(tmp_path / "second.json", second)
    out = str(tmp_path / "run")
    assert main(["evolve", "--config", str(cfg), "--out", out]) == 0
    write, written = cli.fields.write_snapshot, []

    def write_two(snap, path):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(path)
        write(snap, path)

    monkeypatch.setattr(cli.fields, "write_snapshot", write_two)
    assert main(["evolve", "--config", str(other), "--out", out]) == 1
    monkeypatch.undo()
    capsys.readouterr()
    # two of three snapshots belong to the second run: the first run's
    # manifest must not vouch for them
    assert main(["diagnose", "--config", str(cfg), "--out", out]) == 2
    assert "missing run manifest" in capsys.readouterr().err


def _schema_keys(schema):
    """Every key a config schema declares, the keys of each preset included."""
    for key, spec in schema.items():
        yield key
        if isinstance(spec.kind, cli._Presets):
            for keys, _ in spec.kind.values():
                yield from _schema_keys(keys)
        elif isinstance(spec.kind, dict):
            yield from _schema_keys(spec.kind)


def test_every_config_key_the_cli_reads_is_documented():
    keys = set(_schema_keys(cli._CONFIG))
    assert {"kind", "preset", "b_external", "snapshot_stride", "eps0", "family"} <= keys
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    missing = sorted(k for k in keys if f"`{k}`" not in readme and f'"{k}"' not in readme)
    assert missing == []


def test_evolve_refuses_a_state_with_no_support(tmp_path, capsys):
    payload = _small_config()
    grid = make_grid(1, [16], [8.0])
    write_snapshot(ComplexScalarField(grid, np.zeros(16, dtype=complex)), tmp_path / "zero.qfs")
    payload["initial_state"] = {"preset": "custom", "path": "zero.qfs"}
    cfg = _write_config(tmp_path / "zero.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: config.initial_state: " in err
    assert "density has no support" in err
    assert not out.exists()


@pytest.mark.parametrize("equation, state, built", [
    ("pauli", {"preset": "gaussian"}, "ComplexScalarField"),
    ("schrodinger", {"preset": "spinor_up_x"}, "SpinorField"),
    ("dirac", {"preset": "spinor_up_x"}, "SpinorField"),
])
def test_evolve_refuses_a_preset_of_another_field_class(equation, state, built, tmp_path,
                                                        capsys):
    payload = _small_config()
    payload["equation"] = equation
    payload["initial_state"] = {**state, "center": [4.0]}
    cfg = _write_config(tmp_path / "mismatch.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: config.initial_state: preset builds a {built}, " in err
    assert f"but equation {equation!r} needs a " in err
    assert not out.exists()


def test_dirac_evolve_refuses_zero_charge(tmp_path, capsys):
    payload = _small_config()
    payload["equation"] = "dirac"
    payload["constants"] = {"kind": "physical", "q": 0.0}
    payload["initial_state"] = {"preset": "dirac_plane_wave", "mode": [1]}
    cfg = _write_config(tmp_path / "neutral.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error: config.constants: dirac runs need q != 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("b_external, code", [([0.0, 0.0, 5.0], 2), ([0.0] * 3, 0)],
                         ids=["nonzero", "zero"])
def test_dirac_evolve_refuses_a_uniform_magnetic_field(b_external, code, tmp_path, capsys):
    # a uniform B on a torus has no periodic A, so the Dirac step cannot carry it
    payload = _small_config()
    payload["equation"] = "dirac"
    payload["initial_state"] = {"preset": "dirac_plane_wave", "mode": [1]}
    payload["gauge"] = {"b_external": b_external}
    cfg = _write_config(tmp_path / "magnetic.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == code
    assert (out / "manifest.json").exists() == (code == 0)
    if code:
        assert ("config error: config.gauge.b_external: dirac runs take no uniform B"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize(
    "key, token, command",
    [("gps.t", "NaN", "gps"), ("grid.length", "[Infinity]", "evolve"),
     ("grid.length", "[-Infinity]", "evolve")],
)
def test_non_json_number_tokens_are_config_errors(key, token, command, tmp_path,
                                                  capsys):
    payload = _traced_config()
    _put(payload, key, "TOKEN")
    cfg = tmp_path / "token.json"
    cfg.write_text(json.dumps(payload).replace('"TOKEN"', token), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert f"{token.strip('[]')} is not a number" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, literal, command", [
    ("grid.length", "[1e999]", "evolve"),
    ("grid.length", "[1" + "0" * 400 + "]", "evolve"),
    ("gps.t", "-1e999", "gps"),
], ids=["float-overflow", "401-digit-integer", "negative-overflow"])
def test_numbers_too_large_for_a_float_are_config_errors(key, literal, command, tmp_path,
                                                         capsys):
    # JSON parses 1e999 to inf and keeps a long integer exact; neither is a number
    # a run can use, so the key is refused before anything is computed
    payload = _traced_config()
    _put(payload, key, "LITERAL")
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(payload).replace('"LITERAL"', literal), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config.{key} must be ")
    assert not (tmp_path / "run").exists()


def _key_paths(payload, prefix=""):
    """(dotted path, value) of every key, depth first."""
    for key, value in payload.items():
        yield prefix + key, value
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + key + ".")


def _drop(payload, path):
    *heads, last = path.split(".")
    for head in heads:
        payload = payload[head]
    del payload[last]


_FUZZ_KEYS = dict(_key_paths(_traced_config()))
_FUZZ_PATHS = sorted(_FUZZ_KEYS)
_FUZZ_OBJECTS = [""] + sorted(p for p, v in _FUZZ_KEYS.items() if isinstance(v, dict))
# wrong JSON types, an empty array, and small numbers only: no mutation can
# make a run allocate or loop at scale
_FUZZ_VALUES = ["text", True, None, {}, [1.0], [], -1, 0, 0.5]


@st.composite
def _mutated_configs(draw):
    payload = _traced_config()
    kind = draw(st.sampled_from(["replace", "drop", "unknown"]))
    if kind == "replace":
        path = draw(st.sampled_from(_FUZZ_PATHS))
        _put(payload, path, draw(st.sampled_from(_FUZZ_VALUES)))
    elif kind == "drop":
        _drop(payload, draw(st.sampled_from(_FUZZ_PATHS)))
    else:
        section = draw(st.sampled_from(_FUZZ_OBJECTS))
        _put(payload, f"{section}.extra" if section else "extra", 1)
    return payload


@settings(max_examples=150, deadline=None)
@given(payload=_mutated_configs())
def test_mutated_configs_exit_0_or_2_without_a_traceback(payload):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_config(pathlib.Path(tmp) / "fuzz.json", payload)
        out = os.path.join(tmp, "run")
        for command in ("evolve", "trace", "gps", "diagnose", "fields"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--out", out])
            assert code in (0, 2), (command, payload, err.getvalue())
            assert "Traceback" not in err.getvalue()


# the fuzz pool's objects, and the sections it leaves at their defaults
_EXTRA_KEY_OBJECTS = _FUZZ_OBJECTS + ["constants", "gauge", "gauge.u", "gauge.a", "fields"]


@pytest.mark.parametrize("section", _EXTRA_KEY_OBJECTS)
@pytest.mark.parametrize("command", ["evolve", "diagnose", "trace", "fields", "gps"])
def test_every_command_refuses_an_unknown_key_in_every_section(command, section, tmp_path,
                                                               capsys):
    payload = _traced_config()
    key = f"{section}.extra" if section else "extra"
    _put(payload, key, 1)
    cfg = _write_config(tmp_path / "extra.json", payload)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: unknown key config.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_trace_starts_are_checked_against_the_grid_before_evolve_runs(tmp_path, capsys):
    payload = _traced_config()
    payload["trace"]["starts"] = [[1.0, 2.0]]
    cfg = _write_config(tmp_path / "starts.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: config.trace.starts: positions need 1 coordinates" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_oscillator_meets_residual_bounds(oscillator_run, capsys):
    cfg, out = oscillator_run
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "continuity:" in stdout
    assert "hamilton_jacobi:" in stdout

    cont = json.loads((out / "report_continuity.json").read_text(encoding="utf-8"))
    hj = json.loads(
        (out / "report_hamilton_jacobi.json").read_text(encoding="utf-8")
    )
    assert cont["l2"] <= 1e-6
    assert hj["l2"] <= 1e-6


def _plane_wave_config(stride):
    # psi = exp(10ix) on [0, 2pi): the phase turns by 50 rad per unit time,
    # so by stride rad between the snapshots that bracket the middle one;
    # 3 rad is past the 0.9*pi branch-jump threshold at every point
    return {
        "equation": "schrodinger",
        "grid": {"dim": 1, "n": [64], "length": [2.0 * np.pi]},
        "initial_state": {"preset": "plane_wave", "mode": [10]},
        "evolution": {"dt": 0.01, "steps": 4 * stride, "snapshot_stride": stride},
        "diagnostics": ["hamilton_jacobi"],
    }


def test_hamilton_jacobi_masks_branch_jumps(tmp_path, capsys):
    cfg = _write_config(tmp_path / "fine.json", _plane_wave_config(1))
    out = str(tmp_path / "fine")
    assert main(["evolve", "--config", str(cfg), "--out", out]) == 0
    assert main(["diagnose", "--config", str(cfg), "--out", out]) == 0
    report = json.loads(pathlib.Path(out, "report_hamilton_jacobi.json").read_text())
    assert report["mask_fraction"] == 0.0 and report["l2"] < 1e-9

    cfg = _write_config(tmp_path / "coarse.json", _plane_wave_config(3))
    out = str(tmp_path / "coarse")
    assert main(["evolve", "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--config", str(cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error: config.evolution.snapshot_stride" in err
    assert "64 points" in err
    assert not pathlib.Path(out, "report_hamilton_jacobi.json").exists()


@pytest.mark.parametrize("stride, code", [(2, 0), (4, 2), (8, 2)])
def test_hamilton_jacobi_masks_a_turn_that_wraps_below_the_threshold(stride, code,
                                                                    tmp_path, capsys):
    # at stride 4 the bracketing snapshots are 4 rad apart: past pi, the turn
    # wraps to -2.28 rad, inside the 0.9 pi threshold, and only the middle
    # snapshot, 2 rad from each, shows it; stride 2 turns by 2 rad
    cfg = _write_config(tmp_path / "wave.json", _plane_wave_config(stride))
    out = str(tmp_path / "wave")
    assert main(["evolve", "--config", str(cfg), "--out", out]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--config", str(cfg), "--out", out]) == code
    report = pathlib.Path(out, "report_hamilton_jacobi.json")
    if code == 0:
        assert json.loads(report.read_text())["l2"] < 1e-9
    else:
        err = capsys.readouterr().err
        assert "config error: config.evolution.snapshot_stride" in err
        assert "64 points" in err
        assert not report.exists()


def _all_diagnostics(tmp_path):
    payload = _oscillator_config()
    payload["diagnostics"] = ["continuity", "hamilton_jacobi", "gauge"]
    return _write_config(tmp_path / "all.json", payload)


def _snapshot_files(out):
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return [entry["file"] for entry in manifest["snapshots"]]


def test_diagnose_transforms_and_reads_each_snapshot_once(oscillator_run, tmp_path,
                                                          monkeypatch):
    # one pass serves continuity, hamilton_jacobi and gauge: one fftn of psi
    # per snapshot gives f, J and Q, and the middle record feeds the HJ residual
    from util import count_transforms

    _, out = oscillator_run
    cfg = _all_diagnostics(tmp_path)
    reads = collections.Counter()
    real = cli.fields.read_snapshot

    def counting(path, out=None):
        reads[os.path.basename(path)] += 1
        return real(path, out=out)

    monkeypatch.setattr(cli.fields, "read_snapshot", counting)
    calls = count_transforms(monkeypatch)
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    files = _snapshot_files(out)
    assert calls["fftn"] == len(files) == 11
    assert reads == collections.Counter(files)


@pytest.mark.parametrize("kind", ["oscillator", "pauli", "hamilton_jacobi"])
def test_diagnose_reports_equal_the_library_on_separate_series(kind, oscillator_run,
                                                               tmp_path):
    from qvlab import diagnostics
    from qvlab.decomposition import current_scalar
    from qvlab.fields import density, read_snapshot

    if kind == "oscillator":
        _, out = oscillator_run
        cfg = _all_diagnostics(tmp_path)
    elif kind == "hamilton_jacobi":  # alone, it still keeps psi, f, J and Q
        _, out = oscillator_run
        payload = _oscillator_config()
        payload["diagnostics"] = ["hamilton_jacobi"]
        cfg = _write_config(tmp_path / "alone.json", payload)
        for name in ("continuity", "hamilton_jacobi"):
            (out / f"report_{name}.json").unlink(missing_ok=True)
    else:
        cfg = _write_config(tmp_path / "pauli.json", _pauli_config())
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0

    scenario = cli.Scenario(cli._load_config(str(cfg))[0], str(tmp_path))
    gauge, consts = scenario.gauge, scenario.consts
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    times = [entry["time"] for entry in manifest["snapshots"]]
    snaps = [read_snapshot(out / name) for name in _snapshot_files(out)]
    reports = [] if kind == "hamilton_jacobi" else [diagnostics.continuity_residual(
        times, [density(s) for s in snaps],
        [current_scalar(s, gauge, consts) for s in snaps])]
    if kind != "pauli":
        mid = len(snaps) // 2
        rate, mask, jumps = diagnostics.phase_rate_from_snapshots(
            snaps[mid - 1], snaps[mid + 1], times[mid + 1] - times[mid - 1], snaps[mid])
        reports.append(diagnostics.hamilton_jacobi_residual(
            snaps[mid], gauge, consts, rate, mask | jumps, dt=times[1] - times[0]))
    if kind == "oscillator":
        reports += diagnostics.gauge_residuals(
            times, [gauge] * len(snaps), consts,
            [diagnostics.quantum_potential(s, consts)[0] for s in snaps])
    for report in reports:
        written = (out / f"report_{report.name}.json").read_bytes()
        assert written == report.to_json().encode("utf-8")
    if kind == "hamilton_jacobi":
        assert not (out / "report_continuity.json").exists()


def test_a_masked_hamilton_jacobi_report_takes_its_norms_over_the_kept_points(
        oscillator_run):
    # the ground state's tails are nodes: l2 is the root mean square over the
    # points off the node and branch masks, not over the whole grid
    from qvlab import diagnostics
    from qvlab.fields import density, node_mask

    cfg, out = oscillator_run
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    written = json.loads((out / "report_hamilton_jacobi.json").read_text(encoding="utf-8"))
    scenario = cli.Scenario(cli._load_config(str(cfg))[0], str(cfg.parent))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    times = [entry["time"] for entry in manifest["snapshots"]]
    mid = len(times) // 2
    earlier, psi, later = (read_snapshot(out / name)
                           for name in _snapshot_files(out)[mid - 1:mid + 2])
    rate, rate_mask, jumps = diagnostics.phase_rate_from_snapshots(
        earlier, later, times[mid + 1] - times[mid - 1], psi)
    r = diagnostics.hamilton_jacobi_residual(psi, scenario.gauge, scenario.consts, rate,
                                             rate_mask | jumps).per_point
    kept = r[~(node_mask(density(psi)) | rate_mask | jumps)]
    assert 0.5 < 1.0 - kept.size / r.size < 0.9
    assert written["n_points"] == kept.size
    assert written["mask_fraction"] == pytest.approx(1.0 - kept.size / r.size, rel=1e-15)
    assert written["l2"] == pytest.approx(np.sqrt(np.sum(kept**2) / kept.size), rel=1e-12)
    assert written["linf"] == np.max(np.abs(kept))


@pytest.mark.parametrize("keep", ["rings", "samplers"])
def test_each_kept_series_is_views_of_one_array(keep, oscillator_run):
    # a reducing pass holds each product in three frames of one array of its
    # own, and a sampling pass writes each frame into the samplers' own arrays;
    # every frame a command sees holds the values of that snapshot's own _polar
    from qvlab.decomposition import _current, _polar
    from qvlab.trajectories import _half_spectrum

    cfg, out = oscillator_run
    scenario = cli.Scenario(cli._load_config(str(cfg))[0], str(cfg.parent))
    consts, files = scenario.consts, _snapshot_files(out)
    scale, grid = consts.alpha / consts.beta, scenario.grid
    n, dim = len(files), grid.dim

    def own(k):  # snapshot k's psi, f, J components, Q and -grad Q / q with its mask
        psi = read_snapshot(out / files[k])
        polar = _polar(psi, scale, force_scale=scale)
        current = _current(polar.f, polar.flux, scenario.gauge, consts)
        force = np.array([c / consts.q for c in polar.force])
        return psi.values, polar.f, np.array(current), polar.q, force, polar.mask

    if keep == "rings":
        run = cli.Run(scenario, str(out)).stream({"psi", "f", "j", "q"})
        rings = run.f.rows.base  # f, J and Q share one array; psi has its own
        assert run._read == 0
        assert run.psi.rows.shape == (3, *grid.shape) and run.psi.rows.dtype == complex
        assert rings.shape == (3, 1 + dim + 1, *grid.shape)
        assert run.j.rows.base is rings and run.q.rows.base is rings
        seen = []

        def rows(i, rate):
            for k in (i - 1, i, i + 1):
                psi, f, current, q, _, _ = own(k)
                assert run.psi[k].base is run.psi.rows
                assert run.f[k].base is rings and run.q[k].base is rings
                assert all(c.base is rings for c in run.j[k].components)
                assert run.psi[k].tobytes() == psi.tobytes()
                assert run.f[k].tobytes() == f.tobytes()
                assert np.array(run.j[k].components).tobytes() == current.tobytes()
                assert run.q[k].tobytes() == q.tobytes()
            assert run._read == i + 2  # frame i + 1 is in, and no later frame
            seen.append(i)
            return {"probe": (rate(lambda k: run.f[k]),)}

        cli._reduce(run, [rows])
        assert seen == list(range(1, n - 1)) and run._read == n
        for ring in (run.psi, run.f, run.j, run.q):
            with pytest.raises(IndexError, match="is not among the 3 the ring holds"):
                ring[n - 4]
        # unkept, psi is read into one frame, and the other products have no ring
        run = cli.Run(scenario, str(out)).stream({"q"}).read(n - 1)
        assert run.psi.rows.shape == (1, *grid.shape) and run.f is run.j is None
        assert run.psi[n - 1].tobytes() == own(n - 1)[0].tobytes()
        with pytest.raises(IndexError, match="is not among the 1 the ring holds"):
            run.psi[n - 2]
        return
    for method in ("tricubic", "spectral"):
        run = cli.Run(scenario, str(out))
        flow, em = cli._trace_samplers(run, method, force=True)
        run.read(n - 1)
        fj, e = flow._data, em.e._data
        assert fj.shape[:2] == (n, 1 + dim) and e.shape[:2] == (n, dim)
        assert flow.masks is None
        for i in range(n):
            _, f, current, _, force, mask = own(i)
            assert np.array_equal(em.e.masks[i], mask)
            for stored, values in zip([*fj[i], *e[i]], [f, *current, *force]):
                if method == "spectral":  # stored as its half spectrum
                    spectrum = np.empty_like(stored)
                    _half_spectrum(values, grid, spectrum)
                    values = spectrum
                assert stored.tobytes() == values.tobytes()


def _two_dimensional_oscillator(snapshots, **sections):
    """A 64^2 oscillator ground state kept every 4th step, `snapshots` times."""
    return {
        "name": "oscillator-2d",
        "equation": "schrodinger",
        "grid": {"dim": 2, "n": [64, 64], "length": [16.0, 16.0]},
        "initial_state": {"preset": "ho_ground", "omega": 1.0, "center": [8.5, 7.5]},
        "gauge": {"u": {"preset": "harmonic", "omega": 1.0, "center": [8.0, 8.0]}},
        "evolution": {"dt": 1e-3, "steps": 4 * (snapshots - 1), "snapshot_stride": 4},
        **sections,
    }


def _traced_peak(argv):
    """Peak traced allocation of main(argv) above what was traced before it;
    the command is run once first, to fill the spectral caches."""
    import tracemalloc

    assert main(argv) == 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_reducing_commands_hold_three_frames_whatever_the_run_length(tmp_path, capsys):
    # evolve, diagnose and fields hold a window of frames, so 51 snapshots cost
    # them what 11 do: within three frames of (f, J, Q), 3 * 4 grids of floats
    peaks = {}
    for snapshots in (11, 51):
        payload = _two_dimensional_oscillator(
            snapshots, diagnostics=["continuity", "hamilton_jacobi", "gauge"])
        cfg = _write_config(tmp_path / f"osc{snapshots}.json", payload)
        argv = ["--config", str(cfg), "--out", str(tmp_path / f"run{snapshots}")]
        for command in ("evolve", "diagnose", "fields"):
            peaks[command, snapshots] = _traced_peak([command, *argv])
    capsys.readouterr()
    frames = 3 * 4 * 64 * 64 * 8
    for command in ("evolve", "diagnose", "fields"):
        assert abs(peaks[command, 51] - peaks[command, 11]) < frames, command


def test_diagnose_holds_no_psi_copy_for_hamilton_jacobi(tmp_path, capsys):
    # continuity and gauge already keep f, J and Q, so adding Hamilton-Jacobi
    # adds only the psi ring's two extra frames and its rows' temporaries:
    # measured 2.5 psi frames in 1D, 2D and 3D (numpy 2.4), where the copies of
    # psi and of the middle record read 3.0
    cfg = _write_config(tmp_path / "osc.json", _two_dimensional_oscillator(11))
    argv = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    assert main(["evolve", *argv]) == 0
    peaks = {}
    for names in (("continuity", "gauge"), ("continuity", "hamilton_jacobi", "gauge")):
        payload = _two_dimensional_oscillator(11, diagnostics=list(names))
        _write_config(cfg, payload)
        peaks[len(names)] = _traced_peak(["diagnose", *argv])
    capsys.readouterr()
    frame = 64 * 64 * 16
    assert peaks[3] - peaks[2] < 2.75 * frame


@pytest.mark.parametrize("interpolation", ["tricubic", "spectral"])
def test_trace_holds_its_series_once(interpolation, tmp_path, capsys):
    # the samplers own the (f, J) series their pass fills: no second copy
    trace = {"method": "advect", "interpolation": interpolation,
             "starts": [[8.5, 7.5], [9.0, 8.0]], "dt": 4e-3, "steps": 50}
    cfg = _write_config(tmp_path / "osc.json", _two_dimensional_oscillator(51, trace=trace))
    argv = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    assert main(["evolve", *argv]) == 0
    peak = _traced_peak(["trace", *argv])
    capsys.readouterr()
    series = 51 * 3 * 64 * 64 * 8
    assert peak < 1.3 * series


@pytest.mark.parametrize("fault, prefix, reason", [
    ("truncated", "cannot read snapshot", "payload is"),
    ("regridded", "snapshot", "snapshot grid (128,) does not match config grid (256,)"),
], ids=["truncated", "regridded"])
@pytest.mark.parametrize("command", ["diagnose", "fields", "trace"])
def test_a_bad_snapshot_mid_series_writes_nothing(command, fault, prefix, reason,
                                                  gaussian_run, tmp_path, capsys):
    # snapshots are read as the pass reaches them, after the first has been
    # used: a bad one in the middle still fails before any output is written
    cfg, run = gaussian_run
    out = tmp_path / "run"
    out.mkdir()
    files = _snapshot_files(run)
    for name in ["manifest.json"] + files:
        shutil.copy(run / name, out / name)
    middle = out / files[len(files) // 2]
    if fault == "truncated":
        middle.write_bytes(middle.read_bytes()[:-8])
    else:
        grid = make_grid(1, [128], [40.0])
        write_snapshot(ComplexScalarField(grid, np.ones(128, complex)), middle)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {prefix} '{middle.name}'" in err
    assert reason in err
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json"] + files)


def test_diagnose_grid_mismatch_is_rejected(gaussian_run, tmp_path, capsys):
    # the grid is physics: the manifest's hash refuses the run before any
    # snapshot is read, and the snapshot-grid check is tested below
    _, out = gaussian_run
    payload = _gaussian_config()
    payload["grid"]["n"] = [128]
    cfg = _write_config(tmp_path / "shrunk.json", payload)
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
    assert "was evolved under other physics" in capsys.readouterr().err


def test_diagnose_without_requests_is_a_noop(gaussian_run, tmp_path, capsys):
    _, out = gaussian_run
    payload = _gaussian_config()
    payload["diagnostics"] = []
    cfg = _write_config(tmp_path / "quiet.json", payload)
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    assert "no diagnostics requested" in capsys.readouterr().out


def test_diagnose_missing_manifest_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "scenario.json", _gaussian_config())
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["diagnose", "--config", str(cfg), "--out", str(empty)]) == 2
    assert "manifest" in capsys.readouterr().err


def _edited_run(small_run, tmp_path, edit):
    """A copy of small_run whose manifest edit(run, manifest) may change."""
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    edit(run, manifest)
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return run


def _reads_as_unedited(command, small_run, tmp_path, edit):
    """Whether command leaves the same files in a copy of small_run edited by
    edit(run, manifest) as in an unedited copy, manifest aside; it must exit 0."""
    cfg = small_run.parent / "scenario.json"
    outputs = []
    for run in (_edited_run(small_run, tmp_path, edit),
                _edited_run(small_run, tmp_path / "unedited", lambda run, manifest: None)):
        assert main([command, "--config", str(cfg), "--out", str(run)]) == 0
        outputs.append({p.name: p.read_bytes() for p in run.iterdir()
                        if p.name != "manifest.json"})
    return outputs[0] == outputs[1]


def _entries(edit):
    def edited(run, manifest):
        manifest["snapshots"] = edit(manifest["snapshots"])
    return edited


@pytest.mark.parametrize(
    "edit",
    [
        None,
        _entries(lambda entries: entries[0]["file"]),
        _entries(lambda entries: [entry["file"] for entry in entries]),
        _entries(lambda entries: [{"time": e["time"]} for e in entries]),
        _entries(lambda entries: [{**e, "time": str(e["time"])} for e in entries]),
        _entries(lambda entries: [{**e, "time": None} for e in entries]),
        lambda run, manifest: manifest.pop("snapshots"),
        _entries(lambda entries: [{**e, "time": 2 * e["time"]} for e in entries[::-1]]),
    ],
    ids=["list", "snapshots-string", "string-entries", "no-file", "string-time",
         "null-time", "dropped", "retimed"],
)
def test_a_manifest_of_the_wrong_shape_is_corrupt(edit, small_run, tmp_path, capsys):
    # only a manifest that is no object is corrupt: the run is read from its
    # config's evolution section, which the physics hash pins, and nothing
    # reads the snapshots list back
    if edit is not None:
        assert _reads_as_unedited("diagnose", small_run, tmp_path, edit)
        return
    run = tmp_path / "run"
    shutil.copytree(small_run, run)
    (run / "manifest.json").write_text("[]", encoding="utf-8")
    cfg = small_run.parent / "scenario.json"
    assert main(["diagnose", "--config", str(cfg), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert f"config error: corrupt run manifest {run / 'manifest.json'}: " in err


def test_four_current_refuses_a_scalar_run(small_run, tmp_path, capsys):
    payload = _traced_config()
    payload["diagnostics"] = ["four_current"]
    cfg = _write_config(tmp_path / "four.json", payload)
    assert main(["diagnose", "--config", str(cfg), "--out", str(small_run)]) == 2
    assert "config error: diagnostics: four_current needs a dirac run" in capsys.readouterr().err
    assert not (small_run / "report_four_current_divergence.json").exists()


def _regrid_first(run, manifest):
    grid = make_grid(1, [8], [8.0])
    write_snapshot(ComplexScalarField(grid, np.ones(8, complex)),
                   run / manifest["snapshots"][0]["file"])


@pytest.mark.parametrize("edit, message", [
    (_entries(lambda entries: []), None),
    (_regrid_first, "snapshot grid (8,) does not match config grid (16,)"),
], ids=["no-snapshots", "first-off-grid"])
@pytest.mark.parametrize("command", ["diagnose", "fields", "trace"])
def test_a_run_without_snapshots_on_the_config_grid_is_refused(edit, message, command,
                                                               small_run, tmp_path, capsys):
    # a manifest that lists no snapshots still reads: the config names them
    if message is None:
        assert _reads_as_unedited(command, small_run, tmp_path, edit)
        return
    run = _edited_run(small_run, tmp_path, edit)
    cfg = small_run.parent / "scenario.json"
    before = sorted(p.name for p in run.iterdir())
    assert main([command, "--config", str(cfg), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert sorted(p.name for p in run.iterdir()) == before


def _respun(make):
    """An edit that rewrites every snapshot of a run as make(field)."""
    def edit(run, manifest):
        for entry in manifest["snapshots"]:
            path = run / entry["file"]
            write_snapshot(make(read_snapshot(path)), path)
    return edit


_AS_SPINORS = _respun(lambda psi: SpinorField(psi.grid, np.stack([psi.values] * 2) / np.sqrt(2)))
_AS_VECTORS = _respun(lambda psi: VectorField(psi.grid, (np.abs(psi.values),)))


@pytest.mark.parametrize("edit, held", [(_AS_SPINORS, "SpinorField"),
                                        (_AS_VECTORS, "VectorField")],
                         ids=["spinors", "vectors"])
@pytest.mark.parametrize("command", ["diagnose", "fields", "trace"])
def test_a_run_holding_another_field_class_is_refused(edit, held, command, small_run,
                                                       tmp_path, capsys):
    # the config's equation decides the class: a schrodinger run evolves scalars
    run = _edited_run(small_run, tmp_path, edit)
    cfg = small_run.parent / "scenario.json"
    before = sorted(p.name for p in run.iterdir())
    assert main([command, "--config", str(cfg), "--out", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: snapshot 'snap_000000.qfs' ")
    assert f"holds a {held}, not a ComplexScalarField" in err
    assert sorted(p.name for p in run.iterdir()) == before


def test_diagnose_refuses_a_run_evolved_under_other_physics(oscillator_run, tmp_path,
                                                             capsys):
    _, out = oscillator_run
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    recorded = manifest["physics_sha256"]
    payload = _oscillator_config()
    payload["gauge"] = {"u": {"preset": "zero"}}
    flat = _write_config(tmp_path / "flat.json", payload)
    wanted = cli.Scenario(payload, str(tmp_path)).physics_sha256
    assert wanted != recorded
    assert main(["diagnose", "--config", str(flat), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert recorded in err and wanted in err
    assert "re-run evolve" in err


def _physics_hash(payload):
    return cli.Scenario(payload, ".").physics_sha256


_UNIT_NAMES = ("hbar", "m", "q", "c", "eps0")
# physics keys _small_config leaves out or spells one way, and other spellings
# of the same value: defaults written out, and integers for numbers
_SPELLINGS = {
    "gauge": [{}],
    "constants": [{"kind": "natural"}, {"kind": "physical"},
                  {"kind": "physical", **dict.fromkeys(_UNIT_NAMES, 1)}],
    "gauge.u": [{"preset": "zero"}],
    "gauge.a": [{"preset": "zero"}],
    "gauge.b_external": [None],
    "grid.length": [[8]],
    "initial_state.sigma": [1.0, 1],
    "initial_state.center": [[4]],
    "initial_state.k0": [[0.0], [0]],
    "evolution.snapshot_stride": [1],
}


@st.composite
def _respelled_configs(draw):
    payload = _small_config()
    for path, spellings in _SPELLINGS.items():
        index = draw(st.integers(-1, len(spellings) - 1))  # -1 keeps the base's
        if index >= 0:
            _put(payload, path, spellings[index])
    return payload


def _respelled(path, value):
    payload = _small_config()
    _put(payload, path, value)
    return payload


@settings(max_examples=80, deadline=None)
@given(payload=_respelled_configs())
@example(payload=_respelled("gauge", {}))
@example(payload=_respelled("constants", {"kind": "natural"}))
@example(payload=_respelled("constants", {"kind": "physical"}))
@example(payload=_respelled("evolution.snapshot_stride", 1))
@example(payload=_respelled("initial_state.sigma", 1.0))
def test_physics_hash_ignores_how_the_same_physics_is_spelled(payload):
    assert _physics_hash(payload) == _physics_hash(_small_config())


_NUMBERS = st.floats(-50.0, 50.0).filter(bool)
_POSITIVE = st.floats(0.01, 50.0)
# one physics value of _small_config changed, by path
_CHANGES = {
    "equation": st.sampled_from(["pauli", "dirac"]),
    "grid.n": st.integers(4, 64).filter(lambda n: n != 16).map(lambda n: [n]),
    "grid.length": _POSITIVE.filter(lambda v: v != 8.0).map(lambda v: [v]),
    **{f"constants.{name}": _POSITIVE.filter(lambda v: v != 1.0) for name in _UNIT_NAMES},
    "initial_state.sigma": _POSITIVE.filter(lambda v: v != 1.0),
    "initial_state.center": _NUMBERS.filter(lambda v: v != 4.0).map(lambda v: [v]),
    "initial_state.k0": _NUMBERS.map(lambda v: [v]),
    "gauge.u": _NUMBERS.map(lambda v: {"preset": "uniform", "value": v}),
    "gauge.a": _NUMBERS.map(lambda v: {"preset": "uniform", "value": [v]}),
    "gauge.b_external": st.tuples(_NUMBERS, _NUMBERS, _NUMBERS).map(list),
    "evolution.dt": _NUMBERS.filter(lambda v: v != 1e-3),
    "evolution.steps": st.integers(2, 100),
    "evolution.snapshot_stride": st.integers(2, 100),
}


@settings(max_examples=80, deadline=None)
@given(path=st.sampled_from(sorted(_CHANGES)), data=st.data())
def test_physics_hash_changes_with_any_physics_value(path, data):
    payload = _small_config()
    if path.startswith("constants."):
        payload["constants"] = {"kind": "physical"}
    _put(payload, path, data.draw(_CHANGES[path]))
    assert _physics_hash(payload) != _physics_hash(_small_config())


def test_diagnose_refuses_a_manifest_without_physics_hash(oscillator_run, tmp_path,
                                                          capsys):
    cfg, out = oscillator_run
    old = tmp_path / "old"
    shutil.copytree(out, old)
    manifest = json.loads((old / "manifest.json").read_text(encoding="utf-8"))
    del manifest["physics_sha256"]
    (old / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["diagnose", "--config", str(cfg), "--out", str(old)]) == 2
    assert "re-run evolve" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "diagnose", "trace", "fields", "gps"])
def test_every_command_refuses_a_zero_step(command, tmp_path, capsys):
    payload = _gaussian_config()
    payload["evolution"] = {"dt": 0, "steps": 1}
    cfg = _write_config(tmp_path / "still.json", payload)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "config.evolution: dt must be nonzero and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trace", "fields"])
def test_zero_charge_fails_before_reading_the_run(command, tmp_path, capsys):
    payload = _gaussian_config()
    payload["constants"] = {"kind": "physical", "q": 0.0}
    cfg = _write_config(tmp_path / "neutral.json", payload)
    missing = tmp_path / "no-run"
    assert main([command, "--config", str(cfg), "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "q != 0" in err
    assert "manifest" not in err
    assert not missing.exists()


def test_gauge_diagnostic_refuses_zero_charge_before_the_pass(tmp_path, capsys):
    # the gauge residuals divide by q; continuity alone serves a neutral run
    payload = _small_config()
    payload["constants"] = {"kind": "physical", "q": 0.0}
    payload["evolution"] = {"dt": 1e-3, "steps": 4, "snapshot_stride": 2}
    payload["diagnostics"] = ["continuity", "gauge"]
    cfg = _write_config(tmp_path / "neutral.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 2
    assert ("config error: config.constants: gauge reports need q != 0"
            in capsys.readouterr().err)
    assert not list(out.glob("report_*.json"))
    payload["diagnostics"] = ["continuity"]
    cfg = _write_config(tmp_path / "neutral.json", payload)
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "report_continuity.json").exists()


def test_advect_trace_is_blind_to_the_charge_in_a_free_gauge(tmp_path):
    # J = -2 alpha flux + gamma f A never divides by q, and A = 0 here
    written = {}
    for q in (0.0, 1.0):
        payload = _small_config()
        payload["grid"] = {"dim": 2, "n": [16, 16], "length": [8.0, 8.0]}
        payload["initial_state"]["center"] = [4.0, 4.0]
        payload["constants"] = {"kind": "physical", "q": q}
        payload["evolution"] = {"dt": 1e-3, "steps": 4, "snapshot_stride": 2}
        payload["trace"] = {"method": "advect", "starts": [[4.5, 4.0], [3.5, 4.5]]}
        cfg = _write_config(tmp_path / f"q{q}.json", payload)
        out = tmp_path / f"run-q{q}"
        for command in ("evolve", "trace"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        written[q] = {p.name: p.read_bytes() for p in out.iterdir()
                      if p.suffix in (".qfs", ".csv") or p.name == "trace_summary.json"}
    assert len(written[0.0]) == 3 + 2 + 1
    assert written[0.0] == written[1.0]


# ---------------------------------------------------------------------------
# trace


def test_trace_methods_agree(gaussian_run, capsys):
    cfg, out = gaussian_run
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "max cross-method deviation" in stdout

    summary = json.loads((out / "trace_summary.json").read_text(encoding="utf-8"))
    assert summary["n_paths"] == 1
    assert summary["methods"] == ["advect", "force"]
    assert summary["max_cross_deviation"] <= 1e-3
    assert summary["files"] == ["trace_000_advect.csv", "trace_000_force.csv"]

    lines = (out / "trace_000_advect.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,vx,masked"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 21.0


@pytest.mark.parametrize("b_external, code", [([0.0, 0.0, 2.0], 2), ([0.0] * 3, 0)],
                         ids=["nonzero", "zero"])
def test_force_trace_refuses_a_field_the_evolution_ignored(b_external, code, tmp_path,
                                                           capsys):
    # the scalar step ignores b_external: a force path through its B would
    # feel a Lorentz force the run never had
    payload = _traced_config()
    payload["gauge"] = {"b_external": b_external}
    payload["trace"]["method"] = "both"
    cfg = _write_config(tmp_path / "magnetic.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == code
    assert (out / "trace_summary.json").exists() == (code == 0)
    if code:
        assert "config error: config.gauge.b_external" in capsys.readouterr().err


def test_force_trace_refuses_the_gauge_before_reading_the_run(tmp_path, capsys):
    payload = _traced_config()
    payload["gauge"] = {"b_external": [0.0, 0.0, 1.0]}
    payload["trace"]["method"] = "force"
    cfg = _write_config(tmp_path / "magnetic.json", payload)
    missing = tmp_path / "no-run"
    assert main(["trace", "--config", str(cfg), "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "config error: config.gauge.b_external" in err
    assert "manifest" not in err
    assert not missing.exists()


@pytest.mark.parametrize("gauge", [{"u": {"preset": "uniform", "value": 0.5}},
                                   {"a": {"preset": "uniform", "value": [0.1]}}],
                         ids=["u", "a"])
def test_force_trace_refuses_a_potential_before_reading_the_run(gauge, tmp_path, capsys):
    payload = _traced_config()
    payload["gauge"] = gauge
    payload["trace"]["method"] = "force"
    cfg = _write_config(tmp_path / "potential.json", payload)
    missing = tmp_path / "no-run"
    assert main(["trace", "--config", str(cfg), "--out", str(missing)]) == 2
    assert ("config error: trace: the force method supports free-gauge scalar runs "
            "(u and a both zero)") in capsys.readouterr().err
    assert not missing.exists()


def _far_from_the_packet_config():
    """A narrow packet at x = 10 on a 40-long line: x = 30 is a node region."""
    return {
        "name": "narrow-gaussian",
        "equation": "schrodinger",
        "grid": {"dim": 1, "n": [64], "length": [40.0]},
        "constants": {"kind": "natural"},
        "initial_state": {"preset": "gaussian", "sigma": 0.5, "center": [10.0]},
        "evolution": {"dt": 0.01, "steps": 4, "snapshot_stride": 2},
        "trace": {"method": "both", "interpolation": "spectral", "starts": [[30.0]]},
    }


def test_force_trace_from_a_node_region_is_a_config_error(tmp_path, capsys):
    # the start comes from the config, so the refusal names the key and the point;
    # an advected path from there is frozen, not refused
    payload = _far_from_the_packet_config()
    cfg = _write_config(tmp_path / "far.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.trace.starts: trace start [30.0] ")
    assert "masked node region" in err
    assert not list(out.glob("trace_*"))
    payload["trace"]["method"] = "advect"
    advect = _write_config(tmp_path / "advect.json", payload)
    assert main(["trace", "--config", str(advect), "--out", str(out)]) == 0
    table = np.loadtxt(out / "trace_000.csv", delimiter=",", skiprows=1)
    assert np.all(table[:, 1] == 30.0) and np.all(table[:, 3] == 1.0)


def test_trace_checks_its_span_before_computing_currents(small_run, tmp_path,
                                                         monkeypatch, capsys):
    calls = []
    real = cli.decomposition._polar

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.decomposition, "_polar", counting)
    payload = _traced_config()
    payload["trace"]["steps"] = 50  # 50 steps of 1e-3 overrun the run's 0.002
    cfg = _write_config(tmp_path / "long.json", payload)
    assert main(["trace", "--config", str(cfg), "--out", str(small_run)]) == 2
    assert "config.trace.steps and config.trace.dt carry the paths" in capsys.readouterr().err
    assert calls == []


def test_trace_transforms_and_reads_each_snapshot_once(gaussian_run, monkeypatch):
    # both methods ride one pass: one fftn of psi per snapshot gives f, J and
    # -grad Q, and no snapshot is read a second time for the force
    from util import count_transforms

    cfg, out = gaussian_run
    assert _gaussian_config()["trace"]["method"] == "both"
    reads = collections.Counter()
    real = cli.fields.read_snapshot

    def counting(path, out=None):
        reads[os.path.basename(path)] += 1
        return real(path, out=out)

    monkeypatch.setattr(cli.fields, "read_snapshot", counting)
    calls = count_transforms(monkeypatch)
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
    files = _snapshot_files(out)
    assert calls["fftn"] == len(files) == 11
    assert reads == collections.Counter(files)


def test_trace_sampled_starts_are_seed_deterministic(gaussian_run, tmp_path):
    cfg_run, out = gaussian_run
    payload = _gaussian_config()
    payload["trace"] = {"method": "advect", "interpolation": "tricubic", "count": 3}
    cfg = _write_config(tmp_path / "sampled.json", payload)

    argv = ["trace", "--config", str(cfg), "--out", str(out), "--seed", "11"]
    assert main(argv) == 0
    names = [f"trace_{i:03d}.csv" for i in range(3)]
    first = {name: (out / name).read_bytes() for name in names}
    assert main(argv) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name]


def test_trace_batch_matches_single_start_paths(gaussian_run, tmp_path):
    from qvlab.cli import Run, Scenario, _load_config, _trace_samplers
    from qvlab.trajectories import advect, force_path

    _, out = gaussian_run
    payload = _gaussian_config()
    starts = [[21.0], [19.5], [20.7]]
    payload["trace"] = {"method": "both", "interpolation": "spectral", "starts": starts}
    cfg = _write_config(tmp_path / "three.json", payload)
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0

    summary = json.loads((out / "trace_summary.json").read_text(encoding="utf-8"))
    assert summary["files"] == [
        f"trace_{i:03d}_{m}.csv" for i in range(3) for m in ("advect", "force")
    ]
    scenario = Scenario(_load_config(str(cfg))[0], str(tmp_path))
    run = Run(scenario, str(out))
    flow, em = _trace_samplers(run, "spectral", force=True)
    run.read(len(run.times) - 1)
    dt, steps = summary["dt"], summary["steps"]
    for index, start in enumerate(starts):
        v0, _ = flow(np.array([start]), run.times[0])
        singles = {
            "advect": advect(start, flow, dt, steps),
            "force": force_path(start, v0[0], em, scenario.consts.gamma, dt, steps),
        }
        for method, path in singles.items():
            table = np.loadtxt(
                out / f"trace_{index:03d}_{method}.csv", delimiter=",", skiprows=1
            )
            assert np.array_equal(table[:, 0], path.times)
            assert np.max(np.abs(table[:, 1] - path.positions[:, 0])) <= 1e-12
            assert np.max(np.abs(table[:, 2] - path.velocities[:, 0])) <= 1e-12
            assert np.array_equal(table[:, 3].astype(bool), path.masked)


def test_trace_count_samples_the_joint_density(tmp_path):
    # two blobs on the diagonal: the off-diagonal quadrants hold no mass,
    # while the product of the marginals puts half the draws there
    from qvlab.fields import ComplexScalarField, write_snapshot
    from qvlab.lattice import make_grid

    grid = make_grid(2, [32, 32], [16.0, 16.0])
    xx, yy = grid.meshes()
    blob = lambda c: np.exp(-((xx - c) ** 2 + (yy - c) ** 2) / (2 * 0.6**2))
    psi = np.sqrt(blob(4.0) + blob(12.0)).astype(complex)
    write_snapshot(ComplexScalarField(grid, psi), tmp_path / "blobs.qfs")
    payload = {
        "name": "two-blobs",
        "equation": "schrodinger",
        "grid": {"dim": 2, "n": [32, 32], "length": [16.0, 16.0]},
        "constants": {"kind": "natural"},
        "initial_state": {"preset": "custom", "path": "blobs.qfs"},
        "evolution": {"dt": 1e-3, "steps": 2, "snapshot_stride": 1},
        "trace": {"method": "advect", "interpolation": "tricubic", "count": 60,
                  "steps": 1},
    }
    cfg = _write_config(tmp_path / "blobs.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["trace", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    firsts = np.array([
        np.loadtxt(out / f"trace_{i:03d}.csv", delimiter=",", skiprows=1)[0, 1:3]
        for i in range(60)
    ])
    low = firsts < 8.0
    assert np.all(low[:, 0] == low[:, 1])
    assert 0 < np.count_nonzero(low[:, 0]) < 60


@pytest.mark.parametrize("interpolation", ["spectral", "tricubic"])
def test_trace_count_draws_its_starts_from_snapshot_zero(interpolation, gaussian_run,
                                                         tmp_path):
    # the starts are sample_density of snapshot 0's f, bit for bit, drawn
    # with the generator of --seed
    from qvlab.fields import density
    from qvlab.trajectories import sample_density

    _, out = gaussian_run
    payload = _gaussian_config()
    payload["trace"] = {"method": "both", "interpolation": interpolation, "count": 5}
    cfg = _write_config(tmp_path / "count.json", payload)
    assert main(["trace", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    files = _snapshot_files(out)
    want = sample_density(cli.Scenario(payload, str(tmp_path)).grid,
                          density(read_snapshot(out / files[0])), 5,
                          np.random.default_rng(7))
    for method in ("advect", "force"):
        got = [np.loadtxt(out / f"trace_{i:03d}_{method}.csv", delimiter=",",
                          skiprows=1)[0, 1] for i in range(5)]
        assert np.array(got).tobytes() == want[:, 0].tobytes()


def test_trace_and_continuity_skip_the_quantum_potential(gaussian_run, tmp_path,
                                                         monkeypatch):
    # trace's force method asks _polar for -grad Q, not for Q: count the
    # records that carry a Q
    calls = []
    real = cli.decomposition._polar

    def counting(*args, **kwargs):
        polar = real(*args, **kwargs)
        if polar.q is not None:
            calls.append(1)
        return polar

    monkeypatch.setattr(cli.decomposition, "_polar", counting)
    cfg, out = gaussian_run
    assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
    payload = _gaussian_config()
    payload["diagnostics"] = ["continuity"]
    cont = _write_config(tmp_path / "continuity.json", payload)
    assert main(["diagnose", "--config", str(cont), "--out", str(out)]) == 0
    assert len(calls) == 0
    assert main(["fields", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(calls) == 11


# ---------------------------------------------------------------------------
# fields


def test_fields_reports_and_summary(gaussian_run, capsys):
    cfg, out = gaussian_run
    assert main(["fields", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "fields_summary.json" in stdout

    for name in ("gauge_psi", "gauge_lorentz", "gauge_quantum", "self_consistency"):
        assert (out / f"report_{name}.json").exists()

    lorentz = json.loads(
        (out / "report_gauge_lorentz.json").read_text(encoding="utf-8")
    )
    assert lorentz["l2"] == 0.0

    summary = json.loads((out / "fields_summary.json").read_text(encoding="utf-8"))
    assert summary["family"] == "psi"
    assert len(summary["frames"]) == 9
    frame = summary["frames"][0]
    assert set(frame) == {"time", "e_rms", "b_rms"}
    assert len(frame["e_rms"]) == 1
    assert len(frame["b_rms"]) == 3


def test_self_consistency_measures_e_psi_whatever_the_family(tmp_path):
    # the report is eps0 div E_psi - q f; the family only picks the frames
    # of fields_summary.json
    payload = {
        "equation": "schrodinger",
        "grid": {"dim": 2, "n": [32, 32], "length": [16.0, 16.0]},
        "initial_state": {"preset": "ho_ground", "omega": 1.0, "center": [8.0, 8.0]},
        "gauge": {"u": {"preset": "harmonic", "omega": 1.0, "center": [8.0, 8.0]}},
        "evolution": {"dt": 0.005, "steps": 8, "snapshot_stride": 2},
    }
    cfg, out = _write_config(tmp_path / "scenario.json", payload), str(tmp_path / "run")
    assert main(["evolve", "--config", str(cfg), "--out", out]) == 0
    reports = {}
    for family in ("psi", "classical", "quantum"):
        payload["fields"] = {"family": family}  # not physics: the run stays valid
        _write_config(cfg, payload)
        assert main(["fields", "--config", str(cfg), "--out", out]) == 0
        reports[family] = pathlib.Path(out, "report_self_consistency.json").read_bytes()
    assert reports["classical"] == reports["psi"] == reports["quantum"]


# ---------------------------------------------------------------------------
# atomic output


class _FullDisk:
    """A text file whose write stores half the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fault", ["write", "rename"])
@pytest.mark.parametrize(
    "command, name",
    [("diagnose", "report_continuity.json"), ("trace", "trace_000_advect.csv"),
     ("gps", "gps.json")],
)
def test_a_failed_write_keeps_the_old_output(command, name, fault, gaussian_run,
                                             tmp_path, monkeypatch, capsys):
    cfg, run = gaussian_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    target = out / name
    target.write_text("old\n", encoding="utf-8")
    if fault == "write":
        def full_disk(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return _FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
    else:
        def no_rename(src, dst):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", no_rename)
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 1
    assert "runtime error" in capsys.readouterr().err
    assert target.read_bytes() == b"old\n"
    assert not list(out.glob("*.tmp"))
    monkeypatch.undo()
    assert main(argv) == 0
    assert target.read_bytes() != b"old\n"
    assert not list(out.glob("*.tmp"))


# ---------------------------------------------------------------------------
# gps


def test_gps_matrix_determinant_and_application(tmp_path, capsys):
    cfg = _write_config(tmp_path / "scenario.json", _gaussian_config())
    assert main(["gps", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "det = 1" in capsys.readouterr().out

    payload = json.loads((tmp_path / "gps.json").read_text(encoding="utf-8"))
    assert payload["det"] == 1.0
    assert payload["matrix"] == [
        [1.0, 0.5, 0.125],
        [0.0, 1.0, 0.5],
        [0.0, 0.0, 1.0],
    ]
    # uniformly accelerated point: x' = x + v t + a t^2 / 2, v' = v + a t
    assert payload["applied"] == [[2.5], [4.0], [4.0]]


@pytest.mark.parametrize("order, t, code", [(172, 0.5, 0), (120, 1000.0, 0), (400, 1000.0, 2)])
def test_gps_at_large_order_and_t(tmp_path, capsys, order, t, code):
    # entries below the float range are 0 and entries within it are formed; an
    # entry beyond it names config.gps
    config = _gaussian_config()
    config["gps"] = {"order": order, "t": t, "state": None}
    cfg = _write_config(tmp_path / "scenario.json", config)
    assert main(["gps", "--config", str(cfg), "--out", str(tmp_path)]) == code
    if code:
        assert "config.gps: " in capsys.readouterr().err
    else:
        payload = json.loads((tmp_path / "gps.json").read_text(encoding="utf-8"))
        assert payload["det"] == 1.0 and len(payload["matrix"]) == order


# ---------------------------------------------------------------------------
# algebra-check


def test_algebra_check_passes_and_writes_report(tmp_path, capsys):
    assert main(["algebra-check", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out

    payload = json.loads((tmp_path / "algebra_check.json").read_text(encoding="utf-8"))
    assert payload["tolerance"] == 1e-12
    assert len(payload["results"]) == 4
    assert all(entry["max_error"] <= 1e-12 for entry in payload["results"])


def test_algebra_check_detects_injected_fault(monkeypatch, capsys):
    gammas = list(cli.algebra._GAMMA)
    gammas[1] = gammas[1] + np.eye(4, k=3) * 1e-3  # one corrupted entry, gamma^1[0, 3]
    monkeypatch.setattr(cli.algebra, "_GAMMA", tuple(gammas))
    assert main(["algebra-check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "gamma_anticommutators" in out


def test_algebra_check_lists_identities(capsys):
    assert main(["algebra-check", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "gamma_anticommutators",
        "quaternion_embedding",
        "sigma_dot_product",
        "spin_term_cancellation",
    ]


def test_thread_cap_must_be_a_positive_integer(monkeypatch, capsys):
    monkeypatch.setenv("QVLAB_THREADS", "zero")
    assert main(["algebra-check", "--list"]) == 2
    assert "QVLAB_THREADS" in capsys.readouterr().err


# Records the thread variables when numpy is first imported, then imports the CLI.
_THREAD_PROBE = """
import json, os, sys

seen = {}

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v))
                        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import qvlab.cli
print(json.dumps(seen))
"""


@pytest.mark.parametrize("cap, expected", [("3", "3"), ("zero", None)])
def test_thread_cap_is_set_before_numpy_loads(cap, expected):
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "QVLAB_THREADS"}
    env["QVLAB_THREADS"] = cap
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "OPENBLAS_NUM_THREADS": expected,
        "OMP_NUM_THREADS": expected,
    }


# ---------------------------------------------------------------------------
# other equations through the full pipeline


def _pauli_config():
    return {
        "name": "spinor-larmor",
        "equation": "pauli",
        "grid": {"dim": 1, "n": [128], "length": [32.0]},
        "constants": {"kind": "natural"},
        "initial_state": {
            "preset": "spinor_up_x",
            "sigma": 1.0,
            "center": [16.0],
            "k0": [0.0],
        },
        "gauge": {"b_external": [0.0, 0.0, 2.0]},
        "evolution": {"dt": 1e-3, "steps": 20, "snapshot_stride": 5},
        "diagnostics": ["continuity"],
    }


def test_spinor_run_satisfies_continuity(tmp_path, capsys):
    cfg = _write_config(tmp_path / "scenario.json", _pauli_config())
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report_continuity.json").read_text(encoding="utf-8"))
    assert report["l2"] <= 1e-7


@pytest.mark.parametrize("command", ["trace", "fields"])
def test_trace_and_fields_refuse_a_pauli_run(command, tmp_path, capsys):
    payload = _pauli_config()
    payload["trace"] = {"method": "advect", "starts": [[16.0]]}
    cfg = _write_config(tmp_path / "scenario.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    before = sorted(p.name for p in out.iterdir())
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert (f"config error: {command} needs a schrodinger run, but this run is pauli"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == before


def test_bispinor_run_conserves_four_current(tmp_path, capsys):
    payload = {
        "name": "plane-bispinor",
        "equation": "dirac",
        "grid": {"dim": 1, "n": [32], "length": [2 * np.pi]},
        "constants": {"kind": "natural"},
        "initial_state": {
            "preset": "dirac_plane_wave",
            "mode": [1],
            "branch": "positive",
        },
        "evolution": {"dt": 1e-3, "steps": 6, "snapshot_stride": 2},
        "diagnostics": ["four_current"],
    }
    cfg = _write_config(tmp_path / "scenario.json", payload)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(
        (out / "report_four_current_divergence.json").read_text(encoding="utf-8")
    )
    assert report["l2"] <= 1e-10

    # the scalar continuity check has no meaning for a bispinor run
    payload["diagnostics"] = ["continuity"]
    cfg2 = _write_config(tmp_path / "wrong.json", payload)
    assert main(["diagnose", "--config", str(cfg2), "--out", str(out)]) == 2
    assert "four_current" in capsys.readouterr().err


def test_custom_preset_loads_a_saved_snapshot(tmp_path, capsys):
    small = {
        "name": "seed-run",
        "equation": "schrodinger",
        "grid": {"dim": 1, "n": [64], "length": [20.0]},
        "constants": {"kind": "natural"},
        "initial_state": {
            "preset": "gaussian",
            "sigma": 1.0,
            "center": [10.0],
            "k0": [0.0],
        },
        "evolution": {"dt": 1e-3, "steps": 10, "snapshot_stride": 10},
    }
    cfg = _write_config(tmp_path / "seed.json", small)
    out = tmp_path / "seed_run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0

    resumed = dict(small)
    resumed["name"] = "resumed-run"
    resumed["initial_state"] = {
        "preset": "custom",
        "path": "seed_run/snap_000010.qfs",
    }
    resumed["evolution"] = {"dt": 1e-3, "steps": 1, "snapshot_stride": 1}
    cfg2 = _write_config(tmp_path / "resume.json", resumed)
    out2 = tmp_path / "resumed"
    assert main(["evolve", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert len(list(out2.glob("snap_*.qfs"))) == 2

    mismatched = dict(resumed)
    mismatched["grid"] = {"dim": 1, "n": [32], "length": [20.0]}
    cfg3 = _write_config(tmp_path / "mismatch.json", mismatched)
    assert main(["evolve", "--config", str(cfg3), "--out", str(out2)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qvlab.cli", "algebra-check", "--list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4
