"""Command-line scenario runner.

    qvlab evolve        run an evolution scenario, write .qfs snapshots + manifest
    qvlab diagnose      evaluate residual reports over a finished run
    qvlab trace         integrate particle paths through a finished run
    qvlab fields        gauge-condition reports and E/B norms for a run
    qvlab gps           Taylor evolution matrix as JSON
    qvlab algebra-check matrix identity suite, tabulated

Scenarios are single strict JSON documents: every key must be recognized,
and an unknown key aborts with exit code 2 naming its path.  One scenario
file can drive evolve, diagnose, trace, and fields in sequence; subcommand
specific sections (diagnostics, trace, gps, fields) are simply ignored by
the others.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  All JSON
output is UTF-8 and newline-terminated.  QVLAB_THREADS caps the BLAS/FFT
thread pools (applied before numpy loads, which is why the heavy imports
hide inside functions here).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_EQUATIONS = ("schrodinger", "pauli", "dirac")


class ConfigError(Exception):
    """Scenario file problem; maps to exit code 2."""


def _apply_thread_cap() -> None:
    cap = os.environ.get("QVLAB_THREADS")
    if cap is None or cap == "":
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError(f"QVLAB_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


# ---------------------------------------------------------------------------
# strict config access

_MISSING = object()


class Section:
    """Dict wrapper that tracks consumption so leftovers can be rejected."""

    def __init__(self, data, path: str = "config"):
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must be a JSON object")
        self._data = dict(data)
        self._path = path

    def _label(self, key: str) -> str:
        return f"{self._path}.{key}"

    def has(self, key: str) -> bool:
        return key in self._data

    def take(self, key: str, default=_MISSING):
        if key in self._data:
            return self._data.pop(key)
        if default is _MISSING:
            raise ConfigError(f"missing required key {self._label(key)}")
        return default

    def number(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if value is None and default is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{self._label(key)} must be a number")
        return float(value)

    def integer(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if value is None and default is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{self._label(key)} must be an integer")
        return value

    def string(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if value is None and default is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"{self._label(key)} must be a string")
        return value

    def boolean(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if value is None and default is None:
            return None
        if not isinstance(value, bool):
            raise ConfigError(f"{self._label(key)} must be true or false")
        return value

    def numbers(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if value is None and default is None:
            return None
        if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise ConfigError(f"{self._label(key)} must be an array of numbers")
        return [float(v) for v in value]

    def integers(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if value is None and default is None:
            return None
        if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, int) for v in value
        ):
            raise ConfigError(f"{self._label(key)} must be an array of integers")
        return list(value)

    def section(self, key: str, default=_MISSING):
        value = self.take(key, default)
        if value is None and default is None:
            return None
        return Section(value, self._label(key))

    def finish(self) -> None:
        if self._data:
            key = sorted(self._data)[0]
            raise ConfigError(f"unknown key {self._label(key)}")


def _load_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _config_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# scenario assembly


class Scenario:
    """Everything a subcommand may need, parsed and validated up front."""

    def __init__(self, raw: dict, config_dir: str):
        top = Section(raw)
        self.name = top.string("name", "scenario")
        self.output = top.take("output", None)
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError("config.output must be a string")
        self.equation = top.string("equation", None)
        if self.equation is not None and self.equation not in _EQUATIONS:
            raise ConfigError(
                f"config.equation: unknown equation {self.equation!r} "
                f"(expected one of {', '.join(_EQUATIONS)})"
            )
        self.grid = _build_grid(top.section("grid")) if top.has("grid") else None
        self.consts = _build_constants(top.section("constants", {"kind": "natural"}))
        self._state_section = top.section("initial_state", None)
        self._gauge_section = top.section("gauge", None)
        self._evolution_section = top.section("evolution", None)
        self.diagnostics = top.take("diagnostics", None)
        if self.diagnostics is not None and (
            not isinstance(self.diagnostics, list)
            or any(not isinstance(d, str) for d in self.diagnostics)
        ):
            raise ConfigError("config.diagnostics must be an array of strings")
        self.trace = _parse_trace(top.section("trace", None))
        self.gps = _parse_gps(top.section("gps", None))
        self.fields = _parse_fields(top.section("fields", None))
        top.finish()
        self._config_dir = config_dir
        # deferred pieces, built on demand because they need grid + consts
        self._state = None
        self._gauge = None
        self._evolution = None

    def require(self, attr: str, why: str):
        value = getattr(self, attr)
        if value is None:
            raise ConfigError(f"config.{why} is required for this command")
        return value

    def state(self):
        if self._state is None:
            sec = self._state_section
            if sec is None:
                raise ConfigError("config.initial_state is required for this command")
            grid = self.require("grid", "grid")
            self._state = _build_state(sec, grid, self.consts, self._config_dir)
        return self._state

    def gauge(self):
        if self._gauge is None:
            grid = self.require("grid", "grid")
            if self._gauge_section is None:
                from .decomposition import GaugeConfiguration

                self._gauge = GaugeConfiguration.free(grid)
            else:
                self._gauge = _build_gauge(self._gauge_section, grid, self.consts)
        return self._gauge

    def evolution(self):
        if self._evolution is None:
            sec = self._evolution_section
            if sec is None:
                raise ConfigError("config.evolution is required for this command")
            self._evolution = _build_evolution(sec)
        return self._evolution


def _build_grid(sec: Section):
    from .lattice import make_grid

    dim = sec.integer("dim")
    n = sec.integers("n")
    length = sec.numbers("length")
    sec.finish()
    try:
        return make_grid(dim, n, length)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.grid: {exc}") from exc


def _build_constants(sec: Section):
    from .decomposition import PhysicalConstants

    kind = sec.string("kind", "natural")
    if kind == "natural":
        sec.finish()
        return PhysicalConstants.natural()
    if kind == "physical":
        hbar = sec.number("hbar", 1.0)
        m = sec.number("m", 1.0)
        q = sec.number("q", 1.0)
        c = sec.number("c", 1.0)
        eps0 = sec.number("eps0", 1.0)
        sec.finish()
        try:
            return PhysicalConstants.from_physical(hbar=hbar, m=m, q=q, c=c, eps0=eps0)
        except ValueError as exc:
            raise ConfigError(f"config.constants: {exc}") from exc
    raise ConfigError(f"config.constants.kind: unknown kind {kind!r}")


def _axis_list(sec: Section, key: str, grid, default=None):
    values = sec.numbers(key, default if default is not None else [0.0] * grid.dim)
    if len(values) != grid.dim:
        raise ConfigError(
            f"config.initial_state.{key} needs {grid.dim} entries, got {len(values)}"
        )
    return values


def _gaussian_envelope(grid, sigma: float, center, k0):
    import numpy as np

    if sigma <= 0.0:
        raise ConfigError("config.initial_state.sigma must be positive")
    vals = np.ones(grid.shape, dtype=complex)
    phase = np.zeros(grid.shape)
    for axis, (c0, k) in enumerate(zip(center, k0)):
        x = grid.meshes()[axis]
        norm = (2.0 * np.pi * sigma**2) ** -0.25
        vals = vals * (norm * np.exp(-((x - c0) ** 2) / (4.0 * sigma**2)))
        phase = phase + k * x
    return vals * np.exp(1j * phase)


def _mode_wavenumbers(grid, mode):
    import numpy as np

    if len(mode) != grid.dim:
        raise ConfigError(
            f"config mode needs {grid.dim} integer entries, got {len(mode)}"
        )
    return [2.0 * np.pi * m / L for m, L in zip(mode, grid.length)]


def _plane_phase(grid, k_axis):
    import numpy as np

    phase = np.zeros(grid.shape)
    for axis, k in enumerate(k_axis):
        phase = phase + k * grid.meshes()[axis]
    return np.exp(1j * phase)


def _dirac_plane_state(grid, consts, mode, branch: str):
    import numpy as np

    from .fields import BispinorField

    k_axis = _mode_wavenumbers(grid, mode)
    k3 = np.zeros(3)
    k3[: grid.dim] = k_axis
    p = consts.hbar * k3
    mc2 = consts.m * consts.c**2
    energy = np.sqrt(consts.c**2 * float(p @ p) + mc2**2)
    # sigma . p acting on chi = (1, 0)
    sp_chi = np.array([p[2], p[0] + 1j * p[1]], dtype=complex)
    if branch == "positive":
        upper = np.array([1.0, 0.0], dtype=complex)
        lower = consts.c * sp_chi / (energy + mc2)
    elif branch == "negative":
        upper = -consts.c * sp_chi / (energy + mc2)
        lower = np.array([1.0, 0.0], dtype=complex)
    else:
        raise ConfigError(
            f"config.initial_state.branch: expected positive or negative, got {branch!r}"
        )
    spinor = np.concatenate([upper, lower])
    spinor /= np.linalg.norm(spinor)
    plane = _plane_phase(grid, k_axis)
    return BispinorField(grid, tuple(component * plane for component in spinor))


def _build_state(sec: Section, grid, consts, config_dir: str):
    from .fields import (
        BispinorField,
        ComplexScalarField,
        SnapshotError,
        SpinorField,
        read_snapshot,
    )

    preset = sec.string("preset")
    if preset == "plane_wave":
        mode = sec.integers("mode")
        amplitude = sec.number("amplitude", 1.0)
        sec.finish()
        k_axis = _mode_wavenumbers(grid, mode)
        return ComplexScalarField(grid, amplitude * _plane_phase(grid, k_axis))
    if preset == "gaussian":
        sigma = sec.number("sigma", 1.0)
        center = _axis_list(sec, "center", grid)
        k0 = _axis_list(sec, "k0", grid)
        sec.finish()
        return ComplexScalarField(grid, _gaussian_envelope(grid, sigma, center, k0))
    if preset == "ho_ground":
        import numpy as np

        omega = sec.number("omega", 1.0)
        if omega <= 0.0:
            raise ConfigError("config.initial_state.omega must be positive")
        center = _axis_list(sec, "center", grid)
        sec.finish()
        width = consts.hbar / (consts.m * omega)  # sigma^2 = hbar / (2 m omega) * 2
        vals = np.ones(grid.shape, dtype=complex)
        for axis, c0 in enumerate(center):
            x = grid.meshes()[axis]
            vals = vals * (
                (consts.m * omega / (np.pi * consts.hbar)) ** 0.25
                * np.exp(-((x - c0) ** 2) / (2.0 * width))
            )
        return ComplexScalarField(grid, vals)
    if preset == "spinor_up_x":
        import numpy as np

        sigma = sec.number("sigma", 1.0)
        center = _axis_list(sec, "center", grid)
        k0 = _axis_list(sec, "k0", grid)
        sec.finish()
        env = _gaussian_envelope(grid, sigma, center, k0) / np.sqrt(2.0)
        return SpinorField(grid, (env, env.copy()))
    if preset == "dirac_plane_wave":
        mode = sec.integers("mode")
        branch = sec.string("branch", "positive")
        sec.finish()
        return _dirac_plane_state(grid, consts, mode, branch)
    if preset == "custom":
        path = sec.string("path")
        sec.finish()
        full = path if os.path.isabs(path) else os.path.join(config_dir, path)
        try:
            state = read_snapshot(full)
        except (OSError, SnapshotError) as exc:
            raise ConfigError(f"config.initial_state.path: {exc}") from exc
        if state.grid != grid:
            raise ConfigError(
                "config.initial_state.path: snapshot grid "
                f"{state.grid.n} does not match config grid {grid.n}"
            )
        return state
    raise ConfigError(f"config.initial_state.preset: unknown preset {preset!r}")


def _build_gauge(sec: Section, grid, consts):
    import numpy as np

    from .decomposition import GaugeConfiguration
    from .fields import VectorField

    u_sec = sec.section("u", {"preset": "zero"})
    u_preset = u_sec.string("preset", "zero")
    if u_preset == "zero":
        u_sec.finish()
        u = np.zeros(grid.shape)
    elif u_preset == "uniform":
        value = u_sec.number("value")
        u_sec.finish()
        u = np.full(grid.shape, value)
    elif u_preset == "harmonic":
        omega = u_sec.number("omega", 1.0)
        center = u_sec.numbers("center", [0.0] * grid.dim)
        u_sec.finish()
        if len(center) != grid.dim:
            raise ConfigError(f"config.gauge.u.center needs {grid.dim} entries")
        u = np.zeros(grid.shape)
        for axis, c0 in enumerate(center):
            u = u + (grid.meshes()[axis] - c0) ** 2
        u = 0.5 * consts.m * omega**2 * u
    elif u_preset == "cosine":
        amplitude = u_sec.number("amplitude", 1.0)
        mode = u_sec.integers("mode")
        u_sec.finish()
        phase = np.zeros(grid.shape)
        for axis, k in enumerate(_mode_wavenumbers(grid, mode)):
            phase = phase + k * grid.meshes()[axis]
        u = amplitude * np.cos(phase)
    else:
        raise ConfigError(f"config.gauge.u.preset: unknown preset {u_preset!r}")

    a_sec = sec.section("a", {"preset": "zero"})
    a_preset = a_sec.string("preset", "zero")
    if a_preset == "zero":
        a_sec.finish()
        a = VectorField.zero(grid)
    elif a_preset == "uniform":
        value = a_sec.numbers("value")
        a_sec.finish()
        if len(value) != grid.dim:
            raise ConfigError(f"config.gauge.a.value needs {grid.dim} entries")
        a = VectorField(grid, tuple(np.full(grid.shape, v) for v in value))
    else:
        raise ConfigError(f"config.gauge.a.preset: unknown preset {a_preset!r}")

    chi = sec.string("chi", "zero")
    if chi != "zero":
        raise ConfigError(f'config.gauge.chi: only "zero" is supported, got {chi!r}')
    b_external = sec.numbers("b_external", None)
    if b_external is not None and len(b_external) != 3:
        raise ConfigError("config.gauge.b_external needs exactly 3 entries")
    sec.finish()
    return GaugeConfiguration.assemble(
        grid,
        a_classical=a,
        u=u,
        b_external=None if b_external is None else tuple(b_external),
    )


def _build_evolution(sec: Section):
    from .evolvers import EvolutionParams

    dt = sec.number("dt")
    steps = sec.integer("steps")
    stride = sec.integer("snapshot_stride", 1)
    order = sec.integer("splitting_order", 2)
    sec.finish()
    try:
        return EvolutionParams(
            dt=dt, steps=steps, snapshot_stride=stride, splitting_order=order
        )
    except ValueError as exc:
        raise ConfigError(f"config.evolution: {exc}") from exc


def _parse_trace(sec):
    if sec is None:
        return None
    out = {
        "method": sec.string("method", "advect"),
        "interpolation": sec.string("interpolation", "spectral"),
        "dt": sec.number("dt", None),
        "steps": sec.integer("steps", None),
        "starts": sec.take("starts", None),
        "count": sec.integer("count", None),
    }
    sec.finish()
    if out["method"] not in ("advect", "force", "both"):
        raise ConfigError(
            f"config.trace.method: expected advect, force, or both, got {out['method']!r}"
        )
    if out["interpolation"] not in ("spectral", "tricubic"):
        raise ConfigError(
            "config.trace.interpolation: expected spectral or tricubic, "
            f"got {out['interpolation']!r}"
        )
    if (out["starts"] is None) == (out["count"] is None):
        raise ConfigError("config.trace needs exactly one of starts or count")
    if out["starts"] is not None and not isinstance(out["starts"], list):
        raise ConfigError("config.trace.starts must be an array of positions")
    if out["count"] is not None and out["count"] < 1:
        raise ConfigError("config.trace.count must be positive")
    return out


def _parse_gps(sec):
    if sec is None:
        return None
    out = {
        "order": sec.integer("order"),
        "t": sec.number("t"),
        "state": sec.take("state", None),
    }
    sec.finish()
    if out["state"] is not None and not isinstance(out["state"], list):
        raise ConfigError("config.gps.state must be an array of rows")
    return out


def _parse_fields(sec):
    if sec is None:
        return {"family": "psi"}
    family = sec.string("family", "psi")
    sec.finish()
    if family not in ("psi", "classical", "quantum"):
        raise ConfigError(
            f"config.fields.family: expected psi, classical, or quantum, got {family!r}"
        )
    return {"family": family}


# ---------------------------------------------------------------------------
# output helpers


def _write_json(path: str, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _out_dir(args, scenario: Scenario) -> str:
    out = args.out or scenario.output or "."
    os.makedirs(out, exist_ok=True)
    return out


def _versions() -> dict:
    import numpy

    from . import __version__

    return {
        "qvlab": __version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


# ---------------------------------------------------------------------------
# evolve


def cmd_evolve(args) -> int:
    scenario = Scenario(_load_config(args.config), os.path.dirname(args.config) or ".")
    if scenario.equation is None:
        raise ConfigError("config.equation is required for evolve")
    scenario.require("grid", "grid")
    state = scenario.state()
    params = scenario.evolution()
    consts = scenario.consts

    from .evolvers import FourPotential, run_dirac, run_pauli, run_schrodinger
    from .fields import (
        BispinorField,
        ComplexScalarField,
        SpinorField,
        write_snapshot,
    )

    expected = {
        "schrodinger": ComplexScalarField,
        "pauli": SpinorField,
        "dirac": BispinorField,
    }[scenario.equation]
    if not isinstance(state, expected):
        raise ConfigError(
            f"config.initial_state: preset builds a {type(state).__name__}, "
            f"but equation {scenario.equation!r} needs a {expected.__name__}"
        )

    started = time.perf_counter()
    if scenario.equation == "schrodinger":
        trace = run_schrodinger(state, scenario.gauge(), consts, params)
    elif scenario.equation == "pauli":
        trace = run_pauli(state, scenario.gauge(), consts, params)
    else:
        gauge = scenario.gauge()
        if consts.q == 0.0:
            raise ConfigError("config.constants: dirac runs need q != 0 (phi = U/q)")
        a3 = [c for c in gauge.a_psi.components]
        import numpy as np

        while len(a3) < 3:
            a3.append(np.zeros(scenario.grid.shape))
        pot = FourPotential(scenario.grid, gauge.u / consts.q, tuple(a3))
        trace = run_dirac(state, pot, consts, params)
    elapsed = time.perf_counter() - started

    out = _out_dir(args, scenario)
    entries = []
    for snap_time, snap in zip(trace.times, trace.snapshots):
        step = int(round(snap_time / params.dt))
        fname = f"snap_{step:06d}.qfs"
        write_snapshot(snap, os.path.join(out, fname))
        entries.append({"file": fname, "step": step, "time": snap_time})
    manifest = {
        "name": scenario.name,
        "command": "evolve",
        "equation": scenario.equation,
        "config_sha256": _config_sha256(args.config),
        "seed": args.seed,
        "grid": {
            "dim": scenario.grid.dim,
            "n": list(scenario.grid.n),
            "length": list(scenario.grid.length),
        },
        "dt": params.dt,
        "steps": params.steps,
        "snapshot_stride": params.snapshot_stride,
        "versions": _versions(),
        "timings": {"evolve_seconds": elapsed},
        "snapshots": entries,
    }
    _write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"wrote {len(entries)} snapshots and manifest.json to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# shared snapshot-series loading


def _load_run(scenario: Scenario, out: str):
    from .fields import SnapshotError, read_snapshot

    manifest_path = os.path.join(out, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"missing run manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"corrupt run manifest {manifest_path}: {exc}") from exc
    entries = manifest.get("snapshots", [])
    if not entries:
        raise ConfigError(f"{manifest_path} lists no snapshots")
    times, snaps = [], []
    for entry in entries:
        try:
            snaps.append(read_snapshot(os.path.join(out, entry["file"])))
        except (OSError, SnapshotError, KeyError) as exc:
            raise ConfigError(f"cannot read snapshot {entry!r}: {exc}") from exc
        times.append(float(entry["time"]))
    grid = scenario.grid
    if grid is not None and snaps[0].grid != grid:
        raise ConfigError(
            f"snapshot grid {snaps[0].grid.n} does not match config grid {grid.n}"
        )
    return manifest, times, snaps


def _scalar_run_pieces(scenario: Scenario, times, snaps):
    """Gauge, densities and currents for a scalar snapshot series."""
    from .decomposition import current_scalar
    from .fields import ComplexScalarField, density

    if not all(isinstance(s, ComplexScalarField) for s in snaps):
        raise ConfigError("this command needs a scalar (schrodinger) run")
    gauge = scenario.gauge()
    consts = scenario.consts
    densities = [density(s) for s in snaps]
    currents = [current_scalar(s, gauge, consts) for s in snaps]
    return gauge, densities, currents


def _q_series(scenario: Scenario, snaps):
    from .diagnostics import quantum_potential

    return [quantum_potential(s, scenario.consts)[0] for s in snaps]


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args) -> int:
    scenario = Scenario(_load_config(args.config), os.path.dirname(args.config) or ".")
    names = scenario.diagnostics
    if names is None:
        raise ConfigError("config.diagnostics is required for diagnose")
    out = _out_dir(args, scenario)
    if not names:
        print("no diagnostics requested")
        return EXIT_OK
    manifest, times, snaps = _load_run(scenario, out)
    consts = scenario.consts

    from .decomposition import current_bispinor, current_spinor
    from .diagnostics import (
        continuity_residual,
        four_current_divergence,
        gauge_residuals,
        hamilton_jacobi_residual,
        phase_rate_from_snapshots,
    )
    from .fields import BispinorField, ComplexScalarField, SpinorField, density

    scalar_cache = None

    def scalar_pieces():
        nonlocal scalar_cache
        if scalar_cache is None:
            scalar_cache = _scalar_run_pieces(scenario, times, snaps)
        return scalar_cache

    reports = []
    for name in names:
        if name == "continuity":
            if isinstance(snaps[0], ComplexScalarField):
                _, densities, currents = scalar_pieces()
            elif isinstance(snaps[0], SpinorField):
                gauge = scenario.gauge()
                densities = [density(s) for s in snaps]
                currents = [current_spinor(s, gauge, consts) for s in snaps]
            else:
                raise ConfigError(
                    "diagnostics: continuity covers scalar and spinor runs; "
                    "use four_current for dirac"
                )
            reports.append(continuity_residual(times, densities, currents))
        elif name == "hamilton_jacobi":
            gauge, _, _ = scalar_pieces()
            if len(snaps) < 3:
                raise ConfigError("hamilton_jacobi needs at least 3 snapshots")
            mid = len(snaps) // 2
            if mid == len(snaps) - 1:
                mid -= 1
            spacing = times[mid + 1] - times[mid - 1]
            rate, rate_mask, _ = phase_rate_from_snapshots(
                snaps[mid - 1], snaps[mid + 1], spacing
            )
            reports.append(
                hamilton_jacobi_residual(
                    snaps[mid], gauge, consts, rate, rate_mask,
                    dt=times[1] - times[0],
                )
            )
        elif name == "gauge":
            gauge, _, _ = scalar_pieces()
            reports.extend(
                gauge_residuals(
                    times, [gauge] * len(snaps), consts, _q_series(scenario, snaps)
                )
            )
        elif name == "four_current":
            if not isinstance(snaps[0], BispinorField):
                raise ConfigError("diagnostics: four_current needs a dirac run")
            currents = [current_bispinor(s, consts.c) for s in snaps]
            reports.append(four_current_divergence(times, currents, consts))
        else:
            raise ConfigError(f"diagnostics: unknown diagnostic {name!r}")

    for report in reports:
        path = os.path.join(out, f"report_{report.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(
            f"{report.name}: l2={report.l2:.3e} linf={report.linf:.3e} "
            f"mask={report.mask_fraction:.3f}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace


def _trace_flow(scenario, times, snaps, interpolation):
    from .trajectories import FlowSampler

    _, densities, currents = _scalar_run_pieces(scenario, times, snaps)
    return FlowSampler(
        snaps[0].grid, times, densities, currents, method=interpolation
    ), densities


def _trace_em(scenario, times, snaps, interpolation):
    import numpy as np

    from .diagnostics import quantum_force
    from .trajectories import AnalyticSampler, EMSeries, GridFieldSampler

    gauge = scenario.gauge()
    consts = scenario.consts
    if np.any(gauge.u != 0.0) or any(
        np.any(c != 0.0) for c in gauge.a_psi.components
    ):
        raise ConfigError(
            "trace: the force method supports free-gauge scalar runs "
            "(u and a both zero)"
        )
    grid = snaps[0].grid
    e_snaps, masks = [], []
    for snap in snaps:
        force, mask = quantum_force(snap, consts)
        e_snaps.append(tuple(c / consts.q for c in force))
        masks.append(mask)
    e_sampler = GridFieldSampler(
        grid, times, e_snaps, method=interpolation, masks=masks
    )
    if gauge.b_external is None:
        b_const = np.zeros(3)
    else:
        b_const = np.array([float(c.flat[0]) for c in gauge.b_external])
    b_sampler = AnalyticSampler(
        lambda pts, t: np.tile(b_const, (pts.shape[0], 1)), lengths=grid.length
    )
    return EMSeries(e=e_sampler, b=b_sampler)


def cmd_trace(args) -> int:
    import numpy as np

    scenario = Scenario(_load_config(args.config), os.path.dirname(args.config) or ".")
    trace_cfg = scenario.require("trace", "trace")
    out = _out_dir(args, scenario)
    _, times, snaps = _load_run(scenario, out)
    if scenario.consts.q == 0.0:
        raise ConfigError("config.constants: tracing needs q != 0")

    flow, densities = _trace_flow(scenario, times, snaps, trace_cfg["interpolation"])
    grid = snaps[0].grid

    dt = trace_cfg["dt"] if trace_cfg["dt"] is not None else (times[1] - times[0])
    if trace_cfg["steps"] is not None:
        steps = trace_cfg["steps"]
    else:
        steps = max(1, int(round((times[-1] - times[0]) / dt)))

    if trace_cfg["starts"] is not None:
        starts = np.atleast_2d(np.asarray(trace_cfg["starts"], dtype=float))
        if starts.shape[1] != grid.dim:
            raise ConfigError(
                f"config.trace.starts: positions need {grid.dim} coordinates"
            )
    else:
        from .trajectories import sample_density

        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        starts = sample_density(grid, densities[0], trace_cfg["count"], rng)

    methods = (
        ["advect", "force"] if trace_cfg["method"] == "both" else [trace_cfg["method"]]
    )
    em = _trace_em(scenario, times, snaps, trace_cfg["interpolation"]) if "force" in methods else None

    from .trajectories import advect, force_path

    batches = {}
    if "advect" in methods:
        batches["advect"] = advect(starts, flow, dt, steps)
    if "force" in methods:
        v0, v_mask = flow(starts, times[0])
        if bool(v_mask.any()):
            start = starts[int(np.argmax(v_mask))]
            raise RuntimeError(
                f"trace start {start.tolist()} sits in a masked node region"
            )
        batches["force"] = force_path(starts, v0, em, scenario.consts.gamma, dt, steps)

    files = []
    for index in range(starts.shape[0]):
        for method, paths in batches.items():
            suffix = f"_{method}" if len(batches) > 1 else ""
            fname = f"trace_{index:03d}{suffix}.csv"
            with open(os.path.join(out, fname), "w", encoding="utf-8") as fh:
                fh.write(paths[index].to_csv())
            files.append(fname)
    deviations = []
    if len(batches) == 2:
        deviations = [
            float(np.max(np.abs(a.positions - f.positions)))
            for a, f in zip(batches["advect"], batches["force"])
        ]
    summary = {
        "n_paths": int(starts.shape[0]),
        "methods": methods,
        "dt": dt,
        "steps": steps,
        "interpolation": trace_cfg["interpolation"],
        "seed": args.seed,
        "files": files,
    }
    if deviations:
        summary["max_cross_deviation"] = max(deviations)
    _write_json(os.path.join(out, "trace_summary.json"), summary)
    line = f"traced {starts.shape[0]} paths ({', '.join(methods)})"
    if deviations:
        line += f"; max cross-method deviation {max(deviations):.3e}"
    print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fields


def cmd_fields(args) -> int:
    import numpy as np

    scenario = Scenario(_load_config(args.config), os.path.dirname(args.config) or ".")
    family = scenario.fields["family"]
    out = _out_dir(args, scenario)
    _, times, snaps = _load_run(scenario, out)
    gauge, densities, _ = _scalar_run_pieces(scenario, times, snaps)
    consts = scenario.consts
    if consts.q == 0.0:
        raise ConfigError("config.constants: field reports need q != 0")
    q_series = _q_series(scenario, snaps)

    from .diagnostics import em_fields, gauge_residuals, self_consistency_residual

    gauges = [gauge] * len(snaps)
    inner, frames = em_fields(times, gauges, consts, q_series)
    reports = list(gauge_residuals(times, gauges, consts, q_series))
    mid = len(inner) // 2
    e_mid = getattr(frames[mid], f"e_{family}")
    reports.append(
        self_consistency_residual(e_mid, densities[1 + mid], consts)
    )
    for report in reports:
        with open(
            os.path.join(out, f"report_{report.name}.json"), "w", encoding="utf-8"
        ) as fh:
            fh.write(report.to_json())
        print(f"{report.name}: l2={report.l2:.3e} linf={report.linf:.3e}")

    def _norms(frame):
        e = getattr(frame, f"e_{family}")
        b = getattr(frame, f"b_{family}")
        rms = lambda arr: float(np.sqrt(np.mean(np.square(arr))))
        return (
            [rms(c) for c in e.components],
            [rms(c) for c in b],
        )

    rows = []
    for t, frame in zip(inner, frames):
        e_norms, b_norms = _norms(frame)
        rows.append({"time": t, "e_rms": e_norms, "b_rms": b_norms})
    _write_json(
        os.path.join(out, "fields_summary.json"),
        {"family": family, "frames": rows},
    )
    print(f"wrote fields_summary.json ({len(rows)} frames, family {family})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gps


def cmd_gps(args) -> int:
    import numpy as np

    scenario = Scenario(_load_config(args.config), os.path.dirname(args.config) or ".")
    gps_cfg = scenario.require("gps", "gps")

    from .evolvers import gps_apply, gps_matrix

    try:
        matrix = gps_matrix(gps_cfg["order"], gps_cfg["t"])
    except ValueError as exc:
        raise ConfigError(f"config.gps: {exc}") from exc
    payload = {
        "order": matrix.order,
        "t": matrix.t,
        "det": matrix.det,
        "matrix": [list(row) for row in matrix.entries],
    }
    if gps_cfg["state"] is not None:
        state = np.asarray(gps_cfg["state"], dtype=float)
        try:
            moved = gps_apply(matrix, state)
        except ValueError as exc:
            raise ConfigError(f"config.gps.state: {exc}") from exc
        payload["applied"] = moved.tolist()
    out = _out_dir(args, scenario)
    _write_json(os.path.join(out, "gps.json"), payload)
    print(f"order {matrix.order}, t = {matrix.t}, det = {matrix.det}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# algebra-check


def cmd_algebra_check(args) -> int:
    from .algebra import IDENTITY_NAMES, identity_suite

    if args.list:
        for name in IDENTITY_NAMES:
            print(name)
        return EXIT_OK
    fault = os.environ.get("QVLAB_ALGEBRA_FAULT", "") == "1"
    seed = args.seed if args.seed is not None else 0
    results = identity_suite(seed=seed, samples=100, fault=fault)
    tol = 1e-12
    all_pass = True
    width = max(len(r.name) for r in results)
    for result in results:
        ok = result.passed(tol)
        all_pass = all_pass and ok
        print(f"{result.name:<{width}}  {result.max_error:12.5e}  "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok:
            import numpy as np

            print(np.array2string(result.witness, precision=6))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(
            os.path.join(args.out, "algebra_check.json"),
            {
                "tolerance": tol,
                "seed": seed,
                "fault_injected": fault,
                "results": [
                    {"name": r.name, "max_error": r.max_error, "passed": r.passed(tol)}
                    for r in results
                ],
            },
        )
    return EXIT_OK if all_pass else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvlab",
        description="scenario runner for wave-equation evolution, residual "
        "diagnostics, and pilot-wave trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("evolve", cmd_evolve, "run an evolution scenario", True),
        ("diagnose", cmd_diagnose, "evaluate residual reports over a run", True),
        ("trace", cmd_trace, "integrate particle paths through a run", True),
        ("fields", cmd_fields, "gauge reports and E/B norms for a run", True),
        ("gps", cmd_gps, "emit a Taylor evolution matrix", True),
        ("algebra-check", cmd_algebra_check, "run the matrix identity suite", False),
    ]
    for name, handler, help_text, needs_config in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=needs_config, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed (u64)")
        if name == "algebra-check":
            p.add_argument(
                "--list", action="store_true", help="print identity names and exit"
            )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_thread_cap()
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime contract: anything else is exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
