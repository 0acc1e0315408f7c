"""Command-line scenario runner.

    qvlab evolve        run an evolution scenario, write .qfs snapshots + manifest
    qvlab diagnose      evaluate residual reports over a finished run
    qvlab trace         integrate particle paths through a finished run
    qvlab fields        gauge-condition reports and E/B norms for a run
    qvlab gps           Taylor evolution matrix as JSON
    qvlab algebra-check matrix identity suite, tabulated

Scenarios are single strict JSON documents: every key must be recognized,
and an unknown key aborts with exit code 2 naming its path.  One scenario
file can drive evolve, diagnose, trace, and fields in sequence; every
subcommand parses every section against the schema at the end of this
module, and uses only the sections it needs.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  All JSON
output is UTF-8 and newline-terminated.  QVLAB_THREADS caps the BLAS/OpenMP
thread pools; `import qvlab` applies it, and an invalid value exits 2.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import (
    __version__,
    _apply_thread_cap,
    algebra,
    decomposition,
    diagnostics,
    evolvers,
    fields,
    lattice,
    trajectories,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Scenario file problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# strict config parsing

_MISSING = object()
_ZEROS = object()  # the default of a per-axis key: 0.0 on every grid axis


def _is_number(value) -> bool:
    """A finite JSON number: a literal too large for a float (1e999 parses to
    inf, a 400-digit integer does not convert) is not one."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _array_of(check):
    return lambda value: isinstance(value, list) and all(check(v) for v in value)


def _shape(value):
    """Shape of a rectangular nested array of numbers (() for a number), else None."""
    if _is_number(value):
        return ()
    shapes = {_shape(v) for v in value} if isinstance(value, list) else {None}
    if len(shapes) > 1 or None in shapes:
        return None
    return (len(value), *shapes.pop()) if shapes else (0,)


# kind -> (accepts the JSON value, converts it, what the value must be)
_KINDS = {
    "number": (_is_number, float, "a number"),
    "positive": (lambda v: _is_number(v) and v > 0, float, "a positive number"),
    "integer": (_is_integer, int, "an integer"),
    "count": (lambda v: _is_integer(v) and v >= 1, int, "a positive integer"),
    "natural": (lambda v: _is_integer(v) and v >= 0, int, "a non-negative integer"),
    "string": (lambda v: isinstance(v, str), str, "a string"),
    "numbers": (_array_of(_is_number), lambda v: [float(x) for x in v],
                "an array of numbers"),
    "integers": (_array_of(_is_integer), list, "an array of integers"),
    "strings": (_array_of(lambda v: isinstance(v, str)), list, "an array of strings"),
    "tensor": (lambda v: len(_shape(v) or ()) > 0, list, "a rectangular array of numbers"),
    "points": (lambda v: len(_shape(v) or ()) in (1, 2), list,
               "a point or an array of equal-length points"),
}


class _Key(NamedTuple):
    """How one config key is read.  `kind` is a _KINDS name, a tuple of allowed
    strings, a list of them (an array of distinct allowed strings), a schema (a nested
    object) or a _Presets table.  A `default` of _MISSING makes the key
    required, and None makes it optional.  `size` is the entry count, "dim" for
    one entry per grid axis."""

    kind: object
    default: object = _MISSING
    size: object = None


class _Presets(dict):
    """preset name -> (schema of the keys the preset adds to its section,
    builder(record, scenario))."""

    def build(self, record: dict, scenario, selector: str = "preset"):
        return self[record[selector]][1](record, scenario)


def _value(label: str, value, kind):
    """`value` checked and converted as `kind`: a _KINDS name, allowed strings
    (a tuple or a preset table), or a list of them for an array of distinct ones."""
    if isinstance(kind, str):
        accepts, convert, what = _KINDS[kind]
        if not accepts(value):
            raise ConfigError(f"{label} must be {what}, got {json.dumps(value)}")
        return convert(value)
    if isinstance(kind, list):
        names = _value(label, value, "strings")
        for index, name in enumerate(names):
            _value(f"{label}[{index}]", name, tuple(kind))
            if name in names[:index]:
                raise ConfigError(f"{label}[{index}] repeats {json.dumps(name)}")
        return names
    value = _value(label, value, "string")
    if value not in kind:
        raise ConfigError(
            f"{label} must be one of {', '.join(kind)}, got {json.dumps(value)}"
        )
    return value


def _parse(data, schema: dict, path: str, dim) -> dict:
    """The canonical record of the JSON object `data`: every key of `schema`
    checked, converted and sized, with the absent ones at their defaults.  Any
    other key is unknown.  `dim` sizes the per-axis keys; None (no grid) leaves
    them unsized."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be a JSON object")
    data, record = dict(data), {}
    keys = list(schema.items())
    for key, (kind, default, size) in keys:  # a chosen preset appends its keys
        label = f"{path}.{key}"
        value = data.pop(key, default)
        if value is _MISSING:
            raise ConfigError(f"missing required key {label}")
        if value is _ZEROS:
            value = [0.0] * (dim or 0)
        if value is None and default is None:
            record[key] = None
            continue
        if isinstance(kind, dict) and not isinstance(kind, _Presets):
            value = _parse(value, kind, label, dim)
        else:
            value = _value(label, value, kind)
            if isinstance(kind, _Presets):
                keys.extend(kind[value][0].items())
        count = dim if size == "dim" else size
        if count is not None and len(value) != count:
            raise ConfigError(f"{label} must have {count} entries, got {json.dumps(value)}")
        record[key] = value
    if data:
        raise ConfigError(f"unknown key {path}.{sorted(data)[0]}")
    return record


def _load_config(path: str) -> tuple[dict, str]:
    """The JSON object in the config file at path, and the sha256 of the bytes
    it was parsed from."""

    def reject(token):
        raise ConfigError(f"config {path} is not valid JSON: {token} is not a number")

    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"), parse_constant=reject)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg, hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# scenario assembly

# the parsed sections that decide what `evolve` computes, with the constants
_PHYSICS = ("equation", "grid", "initial_state", "gauge", "evolution")
_UNITS = ("hbar", "m", "q", "c", "eps0")


class Scenario:
    """A scenario file, parsed whole for every subcommand into one canonical
    record, `config`.  The state, gauge and evolution need the grid and are
    built from their records on first use.  config_sha256 is the hash of the
    file's bytes that evolve records."""

    def __init__(self, raw: dict, config_dir: str, config_sha256: str | None = None):
        # the grid sizes the per-axis keys, so it is read first
        self.grid = _make_grid(raw.get("grid"))
        dim = None if self.grid is None else self.grid.dim
        self.config = config = _parse(raw, _CONFIG, "config", dim)
        self.consts = _CONSTANTS.build(config["constants"], self, "kind")
        trace = config["trace"]
        if trace is not None:
            starts = trace["starts"]
            if (starts is None) == (trace["count"] is None):
                raise ConfigError("config.trace needs exactly one of starts or count")
            if starts is not None and dim is not None and _shape(starts)[-1] != dim:
                raise ConfigError(f"config.trace.starts: positions need {dim} coordinates")
        # the step parameters are cheap, so every subcommand checks them
        self._evolution = _evolution_params(config["evolution"])
        self.config_dir, self.config_sha256 = config_dir, config_sha256
        physics = {key: config[key] for key in _PHYSICS}
        physics["constants"] = {key: getattr(self.consts, key) for key in _UNITS}
        text = json.dumps(physics, sort_keys=True)
        self.physics_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()

    def require(self, key: str):
        value = self.config[key]
        if value is None:
            raise ConfigError(f"config.{key} is required for this command")
        return value

    @cached_property
    def state(self):
        record = self.require("initial_state")
        self.require("grid")
        return _STATES.build(record, self)

    @cached_property
    def gauge(self):
        self.require("grid")
        record = self.config["gauge"]
        return decomposition.GaugeConfiguration.assemble(
            self.grid,
            a_classical=_VECTOR_POTENTIALS.build(record["a"], self),
            u=_POTENTIALS.build(record["u"], self),
            b_external=record["b_external"],
        )

    @property
    def evolution(self):
        self.require("evolution")
        return self._evolution


def _evolution_params(record):
    if record is None:
        return None
    try:
        return evolvers.EvolutionParams(**record)
    except ValueError as exc:
        raise ConfigError(f"config.evolution: {exc}") from exc


def _make_grid(data):
    if data is None:
        return None
    try:
        return lattice.make_grid(**_parse(data, _GRID, "config.grid", None))
    except ValueError as exc:
        raise ConfigError(f"config.grid: {exc}") from exc


def _physical(record, scenario):
    try:
        return decomposition.PhysicalConstants(
            **{key: record[key] for key in _UNITS})
    except ValueError as exc:
        raise ConfigError(f"config.constants: {exc}") from exc


def _wavenumbers(mode, grid):
    """Angular wavenumbers of the integer `mode`, one per axis."""
    return [2.0 * np.pi * m / L for m, L in zip(mode, grid.length)]


def _phase(grid, k_axis):
    """k.x on the grid."""
    phase = np.zeros(grid.shape)
    for axis, k in enumerate(k_axis):
        phase = phase + k * grid.meshes()[axis]
    return phase


def _gaussian_envelope(record, grid):
    """Normalized packet of width `sigma` about `center` with mean wavenumber `k0`."""
    sigma = record["sigma"]
    vals = np.ones(grid.shape, dtype=complex)
    for axis, c0 in enumerate(record["center"]):
        x = grid.meshes()[axis]
        norm = (2.0 * np.pi * sigma**2) ** -0.25
        vals = vals * (norm * np.exp(-((x - c0) ** 2) / (4.0 * sigma**2)))
    return vals * np.exp(1j * _phase(grid, record["k0"]))


def _plane_wave(record, scenario: Scenario):
    grid = scenario.grid
    phase = _phase(grid, _wavenumbers(record["mode"], grid))
    return fields.ComplexScalarField(grid, record["amplitude"] * np.exp(1j * phase))


def _ho_ground(record, scenario: Scenario):
    grid, consts, omega = scenario.grid, scenario.consts, record["omega"]
    width = consts.hbar / (consts.m * omega)  # sigma^2 = hbar / (2 m omega) * 2
    vals = np.ones(grid.shape, dtype=complex)
    for axis, c0 in enumerate(record["center"]):
        x = grid.meshes()[axis]
        vals = vals * (
            (consts.m * omega / (np.pi * consts.hbar)) ** 0.25
            * np.exp(-((x - c0) ** 2) / (2.0 * width))
        )
    return fields.ComplexScalarField(grid, vals)


def _spinor_up_x(record, scenario: Scenario):
    env = _gaussian_envelope(record, scenario.grid) / np.sqrt(2.0)
    return fields.SpinorField(scenario.grid, (env, env.copy()))


def _dirac_plane_wave(record, scenario: Scenario):
    grid, consts = scenario.grid, scenario.consts
    k_axis = _wavenumbers(record["mode"], grid)
    k3 = np.zeros(3)
    k3[: grid.dim] = k_axis
    p = consts.hbar * k3
    mc2 = consts.m * consts.c**2
    energy = np.sqrt(consts.c**2 * float(p @ p) + mc2**2)
    chi = np.array([1.0, 0.0], dtype=complex)
    sigma_p_chi = algebra.sigma_dot(p)[:, 0]
    if record["branch"] == "positive":
        spinor = np.concatenate([chi, consts.c * sigma_p_chi / (energy + mc2)])
    else:
        spinor = np.concatenate([-consts.c * sigma_p_chi / (energy + mc2), chi])
    spinor /= np.linalg.norm(spinor)
    plane = np.exp(1j * _phase(grid, k_axis))
    return fields.BispinorField(grid, tuple(component * plane for component in spinor))


def _snapshot(path: str, label: str, grid, kind=None, out=None):
    """The .qfs snapshot at path, refused unless it lies on grid and, when kind
    is given, holds that field class; label names it in the refusal.  Its
    samples are read into out when it fits them (see fields.read_snapshot)."""
    try:
        snap = fields.read_snapshot(path, out=out)
    except OSError as exc:  # a SnapshotError is an OSError
        raise ConfigError(f"cannot read snapshot {label}: {exc}") from exc
    if snap.grid != grid:
        raise ConfigError(f"snapshot {label}: snapshot grid {snap.grid.n} does not "
                          f"match config grid {grid.n}")
    if kind is not None and type(snap) is not kind:
        raise ConfigError(f"snapshot {label} holds a {type(snap).__name__}, not a "
                          f"{kind.__name__}")
    return snap


def _custom(record, scenario: Scenario):
    path = os.path.join(scenario.config_dir, record["path"])
    return _snapshot(path, f"{record['path']!r} (config.initial_state.path)", scenario.grid)


def _harmonic(record, scenario: Scenario):
    grid = scenario.grid
    u = np.zeros(grid.shape)
    for axis, c0 in enumerate(record["center"]):
        u = u + (grid.meshes()[axis] - c0) ** 2
    return 0.5 * scenario.consts.m * record["omega"] ** 2 * u


def _uniform_a(record, scenario: Scenario):
    grid = scenario.grid
    return fields.VectorField(grid, tuple(np.full(grid.shape, v) for v in record["value"]))


# ---------------------------------------------------------------------------
# output helpers


def _write_text(path: str, text: str) -> None:
    """Write text to a temp file beside path and rename it into place, so a
    failed write leaves the old file whole and no temp file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(args, scenario: Scenario) -> str:
    out = args.out or scenario.config["output"] or "."
    os.makedirs(out, exist_ok=True)
    return out


def _versions() -> dict:
    return {
        "qvlab": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


# ---------------------------------------------------------------------------
# evolve

_SNAPSHOT_NAME = "snap_{:06d}.qfs"  # the file of the snapshot kept at a step


def _run_dirac(state, gauge, consts, params):
    """Dirac runs see the four-potential (U/q, A), A padded to 3 components."""
    if consts.q == 0.0:
        raise ConfigError("config.constants: dirac runs need q != 0 (phi = U/q)")
    if any(np.any(b) for b in gauge.b_external or ()):  # a torus has no periodic A for it
        raise ConfigError("config.gauge.b_external: dirac runs take no uniform B; set it to zero")
    a3 = (*gauge.a_psi.components, 0.0, 0.0)[:3]
    pot = evolvers.FourPotential(gauge.grid, gauge.u / consts.q, a3)
    return evolvers._kept_dirac(state, pot, consts, params)


# equation -> (field class its state must have, runner(state, gauge, consts,
# params), which hands out each kept (time, state) as its stride ends)
_EQUATIONS = {
    "schrodinger": (fields.ComplexScalarField, evolvers._kept_schrodinger),
    "pauli": (fields.SpinorField, evolvers._kept_pauli),
    "dirac": (fields.BispinorField, _run_dirac),
}


def cmd_evolve(args, scenario: Scenario) -> int:
    equation = scenario.require("equation")
    grid = scenario.require("grid")
    state = scenario.state
    params = scenario.evolution
    expected, run = _EQUATIONS[equation]
    if not isinstance(state, expected):
        raise ConfigError(
            f"config.initial_state: preset builds a {type(state).__name__}, "
            f"but equation {equation!r} needs a {expected.__name__}"
        )
    try:
        fields._support(fields.density(state), "phase and velocity")
    except fields.NodeError as exc:
        raise ConfigError(f"config.initial_state: {exc}") from exc

    kept = run(state, scenario.gauge, scenario.consts, params)
    out = _out_dir(args, scenario)
    # an old manifest must not list a series this run is half way to replacing
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out, "manifest.json"))
    entries, elapsed = [], 0.0
    for step in params.snapshot_steps:  # each snapshot is written as its stride ends
        started = time.perf_counter()
        t, snap = next(kept)
        elapsed += time.perf_counter() - started
        fname = _SNAPSHOT_NAME.format(step)
        fields.write_snapshot(snap, os.path.join(out, fname))
        entries.append({"file": fname, "step": step, "time": t})
    manifest = {
        "name": scenario.config["name"],
        "command": "evolve",
        "equation": equation,
        "config_sha256": scenario.config_sha256,
        "physics_sha256": scenario.physics_sha256,
        "seed": args.seed,
        "grid": grid,
        "dt": params.dt,
        "steps": params.steps,
        "snapshot_stride": params.snapshot_stride,
        "versions": _versions(),
        "snapshots": entries,  # a record: a run is read back from its config
    }
    # wall time differs between reruns, so it stays out of the manifest,
    # which is written last
    _write_json(os.path.join(out, "timings.json"), {"evolve_seconds": elapsed})
    _write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"wrote {len(entries)} snapshots and manifest.json to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# a finished run, read back


class _Ring:
    """A series of n frames held depth = len(rows) at a time: frame i is
    written into rows[i % depth] and read back, while the ring holds it, as
    that row or as view(row).  A view that checks its samples finite, as a
    VectorField does, checks the rows only when the ring is made, not the
    frames written into them later, so a ring with a view is made over zeros."""

    def __init__(self, n: int, rows: np.ndarray, view=None):
        self.n, self.rows, self.held = n, rows, [None] * len(rows)
        self.items = list(rows) if view is None else [view(row) for row in rows]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int):
        if self.held[k % len(self.held)] != k:
            raise IndexError(f"frame {k} is not among the {len(self.held)} the ring holds")
        return self.items[k % len(self.held)]

    def _frame(self, i: int) -> np.ndarray:
        self.held[i % len(self.held)] = i
        return self.rows[i % len(self.held)]

    def _keep(self, i: int, mask=None) -> None:
        pass


class Run:
    """The snapshot series evolve wrote in out, read from the scenario's config:
    the equation gives the field class, and EvolutionParams.snapshot_steps each
    file and time.  The manifest's physics hash, which pins those sections, must
    be the config's, to show that this config's evolve completed there.  A pass
    reads each snapshot once, in order, into frame i of a psi ring, and refuses
    one off the config's grid or of another class.  Every product the pass
    keeps (psi, f, J or a bispinor's four-current, Q, -grad Q / q) has one
    store, which its frame i is written into: a _Ring per product for a
    command that reduces the series (stream), the samplers for one that
    samples it (fill)."""

    def __init__(self, scenario: Scenario, out: str):
        self.equation = scenario.require("equation")
        scenario.require("grid")
        params = scenario.evolution
        self.grid, self.kind = scenario.grid, _EQUATIONS[self.equation][0]
        manifest_path = os.path.join(out, "manifest.json")
        corrupt = f"corrupt run manifest {manifest_path}"
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"missing run manifest {manifest_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{corrupt}: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ConfigError(f"{corrupt}: need an object, got {type(manifest).__name__}")
        recorded = manifest.get("physics_sha256")
        if recorded != scenario.physics_sha256:
            raise ConfigError(
                f"{manifest_path} was evolved under other physics: its physics_sha256 "
                f"{recorded} does not match the config's {scenario.physics_sha256}; "
                "re-run evolve with this config"
            )
        self.scenario, self.out = scenario, out
        self.files = [_SNAPSHOT_NAME.format(step) for step in params.snapshot_steps]
        self.times = [step * params.dt for step in params.snapshot_steps]  # as _run forms them

    def serving(self, command: str, equations, hint: str = "") -> "Run":
        """Self, if command serves runs of this run's equation."""
        if self.equation not in equations:
            raise ConfigError(f"{command} needs a {' or '.join(equations)} run, but this "
                              f"run is {self.equation}{hint}")
        return self

    def spaced(self) -> "Run":
        """Self, if its snapshots can feed centred time differences."""
        try:
            diagnostics._series_spacing(self.times)
        except ValueError as exc:
            raise ConfigError(
                f"config.evolution.steps/snapshot_stride: {exc}; take steps a "
                "multiple of snapshot_stride and at least twice it"
            ) from exc
        return self

    def stream(self, keep) -> "Run":
        """Start a pass that holds each product keep names (psi, f, j, q) in a
        _Ring of its own, three frames deep, for reducers that read frame i
        once read(i + 1) has brought frame i + 1 in: run.psi, run.f and run.q
        are the rows, run.j VectorFields of J (a bispinor's FourCurrents).
        Unkept, psi is held one frame deep and the others are None.  The f, J
        and Q rings are row ranges of one array: as three arrays, a Pauli 256²
        diagnose took 26% more minor page faults and 5% more time."""
        n, grid, dirac = len(self.times), self.grid, self.kind is fields.BispinorField

        def current(row):
            if dirac:
                return decomposition.FourCurrent(grid, row[0], tuple(row[1:]))
            return fields.VectorField(grid, tuple(row))

        counts = {name: count for name, count in (("f", 1), ("j", 4 if dirac else grid.dim),
                                                  ("q", 1)) if name in keep}
        rows = np.zeros((3, sum(counts.values()), *grid.shape))
        parts = np.split(rows, np.cumsum(list(counts.values()))[:-1], axis=1)
        rings = {name: _Ring(n, part, current) if name == "j" else _Ring(n, part[:, 0])
                 for name, part in zip(counts, parts)}
        self.f, self.j, self.q = (rings.get(name) for name in ("f", "j", "q"))
        return self._start({name: (ring, ...) for name, ring in rings.items()},
                           3 if "psi" in keep else 1)

    def fill(self, flow, e=None) -> "Run":
        """Start a pass that writes f and J into frame rows 0 and 1 on of the
        filling FlowSampler flow and, given the filling GridFieldSampler e,
        -grad Q / q and its node masks into e; flow fixes its node floor once
        the last snapshot is kept, so the samplers serve when read has read it."""
        stores = {"f": (flow, 0), "j": (flow, slice(1, None))}
        return self._start(stores if e is None else {**stores, "e": (e, ...)})

    def _start(self, stores: dict, depth: int = 1) -> "Run":
        """The pass's table, product name -> (store, rows): frame i of the
        product is store._frame(i)[rows], a _Ring or a filling sampler, and
        snapshot i itself is read into the psi ring, depth frames deep."""
        self.psi = _Ring(len(self.times),
                         np.empty((depth, *self.kind._shape(self.grid)), complex))
        self._stores, self._read = {"psi": (self.psi, ...), **stores}, 0
        return self

    def read(self, k: int) -> "Run":
        """Read the snapshots up to k that the pass has not read yet, in order."""
        while self._read <= k:
            self._take(self._read)
            self._read += 1
        return self

    def _take(self, i: int) -> None:
        """Read snapshot i into its psi frame and write each product the pass
        keeps into frame i of its store, taken as the product is written, from
        one _polar call (for a bispinor, one four-current); then each store
        keeps frame i, with the node mask when Q (q kept) or -grad Q (e) was formed."""
        consts, stores, name = self.scenario.consts, self._stores, self.files[i]

        def out(product):  # frame i of the product in its store, or None if unkept
            store, rows = stores.get(product, (None, None))
            return None if store is None else store._frame(i)[rows]

        psi = _snapshot(os.path.join(self.out, name), repr(name), self.grid, self.kind,
                        out("psi"))
        mask = None
        if self.kind is fields.BispinorField:
            decomposition.current_bispinor(psi, consts.c, out("j"))
        else:
            scale = consts.alpha / consts.beta
            polar = decomposition._polar(
                psi, scale if "q" in stores else None,
                force_scale=scale if "e" in stores else None, f_out=out("f"), q_out=out("q"))
            if "j" in stores:
                decomposition._current(polar.f, polar.flux, self.scenario.gauge, consts,
                                       out("j"))
            if "e" in stores:
                for row, part in zip(out("e"), polar.force):
                    np.divide(part, consts.q, out=row)
            mask = polar.mask
        for store in dict.fromkeys(store for store, _ in stores.values()):
            store._keep(i, mask)


# ---------------------------------------------------------------------------
# diagnose


def _hamilton_jacobi_rows(run: Run):
    """The Hamilton-Jacobi residual's rows: none but the middle snapshot's
    report, formed from psi at the snapshots beside it and its f, J and Q."""
    times, mid = run.times, len(run.times) // 2
    gauge, consts = run.scenario.gauge, run.scenario.consts

    def rows(i, _):
        if i != mid:
            return {}
        earlier, psi, later = (run.kind(run.grid, run.psi[k]) for k in (i - 1, i, i + 1))
        rate, rate_mask, jumps = diagnostics.phase_rate_from_snapshots(
            earlier, later, times[i + 1] - times[i - 1], psi)
        parts = run.f[i], run.j[i].components, run.q[i], fields.node_mask(run.f[i])
        # a branch jump (a phase turn of nearly pi or more) leaves the rate ambiguous
        try:
            return {"hamilton_jacobi": diagnostics.hamilton_jacobi_residual(
                psi, gauge, consts, rate, rate_mask | jumps, dt=times[1] - times[0],
                parts=parts)}
        except fields.NodeError as exc:
            if not jumps.any():
                raise
            raise ConfigError(
                f"config.evolution.snapshot_stride: {exc}; the phase jumped a branch at "
                f"{int(jumps.sum())} points between snapshots; take a smaller stride"
            ) from exc

    return rows


# diagnostic name -> (the equations whose runs it serves, the products Run.stream
# keeps for it, its rows(run) for _reduce, its report names)
_DIAGNOSTICS = {
    "continuity": (("schrodinger", "pauli"), ("f", "j"),
                   lambda run: diagnostics._continuity_rows(run.f, run.j), ("continuity",)),
    "hamilton_jacobi": (("schrodinger",), ("psi", "f", "j", "q"), _hamilton_jacobi_rows,
                        ("hamilton_jacobi",)),
    "gauge": (("schrodinger",), ("q",), lambda run: diagnostics._gauge_rows(
        [run.scenario.gauge] * len(run.times), run.scenario.consts, run.q),
        ("gauge_psi", "gauge_lorentz", "gauge_quantum")),
    "four_current": (("dirac",), ("j",), lambda run: diagnostics._four_current_rows(
        run.j, run.scenario.consts), ("four_current_divergence",)),
}


def _reduce(run: Run, rows) -> dict:
    """The reports of the rows functions over a streamed run, from one pass
    that reads every snapshot: frame i's rows run once frame i + 1 is in.  A
    rows function maps a report name to the samples diagnostics._interior
    tallies or, for a residual of one frame, to its finished report."""
    made = {}

    def union(i, rate):
        run.read(i + 1)
        parts = {name: part for r in rows for name, part in r(i, rate).items()}
        made.update((name, part) for name, part in parts.items()
                    if isinstance(part, diagnostics.ResidualReport))
        return {name: part for name, part in parts.items() if name not in made}

    reports = diagnostics._interior(run.times, union, points=False)
    run.read(len(run.times) - 1)
    return {**reports, **made}


def cmd_diagnose(args, scenario: Scenario) -> int:
    names = scenario.require("diagnostics")
    if "gauge" in names and scenario.consts.q == 0.0:  # the gauge residuals divide by q
        raise ConfigError("config.constants: gauge reports need q != 0")
    out = _out_dir(args, scenario)
    if not names:
        print("no diagnostics requested")
        return EXIT_OK
    run, wanted = Run(scenario, out).spaced(), [_DIAGNOSTICS[name] for name in names]
    served = [name for name, (equations, *_) in _DIAGNOSTICS.items()
              if run.equation in equations]
    for name, (equations, *_) in zip(names, wanted):  # all before the pass
        run.serving(f"diagnostics: {name}", equations,
                    f"; use {', '.join(served)} for {run.equation}")
    run.stream({product for _, keep, _, _ in wanted for product in keep})
    reports = _reduce(run, [rows(run) for _, _, rows, _ in wanted])
    _write_reports(out, [reports[report] for *_, made in wanted for report in made])
    return EXIT_OK


def _write_reports(out: str, reports) -> None:
    for r in reports:
        _write_text(os.path.join(out, f"report_{r.name}.json"), r.to_json())
        print(f"{r.name}: l2={r.l2:.3e} linf={r.linf:.3e} mask={r.mask_fraction:.3f}")


# ---------------------------------------------------------------------------
# trace


def _trace_samplers(run: Run, interpolation, force: bool):
    """The flow sampler and, for the force method, E = -grad Q / q with B = 0 (the
    gauge is free), which the pass run.fill starts fills as it reads."""
    flow = trajectories.FlowSampler._filling(
        run.grid, run.times, 1 + run.grid.dim, method=interpolation)
    e = trajectories.GridFieldSampler._filling(
        run.grid, run.times, run.grid.dim, method=interpolation, masked=True) if force else None
    run.fill(flow, e)
    if not force:
        return flow, None
    return flow, trajectories.EMSeries(
        e=e,
        b=trajectories.AnalyticSampler(lambda pts, t: np.zeros((pts.shape[0], 3)),
                                       lengths=run.grid.length),
    )


def cmd_trace(args, scenario: Scenario) -> int:
    trace_cfg = scenario.require("trace")
    methods = (
        ["advect", "force"] if trace_cfg["method"] == "both" else [trace_cfg["method"]]
    )
    if "force" in methods:  # q and the gauge come from the config alone: refuse early
        if scenario.consts.q == 0.0:
            raise ConfigError("config.constants: the force method needs q != 0")
        gauge = scenario.gauge
        if gauge.b_external and any(np.any(b) for b in gauge.b_external):
            raise ConfigError(
                "config.gauge.b_external: the force method needs a free gauge, and "
                "the scalar evolution it retraces ignores b_external"
            )
        if np.any(gauge.u) or any(np.any(c) for c in gauge.a_psi.components):
            raise ConfigError(
                "trace: the force method supports free-gauge scalar runs (u and a both zero)"
            )
    out = _out_dir(args, scenario)
    run = Run(scenario, out).serving("trace", ["schrodinger"])
    times, grid = run.times, run.grid
    if times[-1] < times[0]:
        raise ConfigError("trace: paths run forward in time, but config.evolution.dt < 0")

    if trace_cfg["dt"] is None and len(times) < 2:
        raise ConfigError("config.trace.dt is required: the run has one snapshot")
    dt = trace_cfg["dt"] if trace_cfg["dt"] is not None else (times[1] - times[0])
    span, rtol, steps = times[-1] - times[0], diagnostics.TIME_RTOL, trace_cfg["steps"]
    if steps is None:
        steps = max(1, int(round(span / dt)))
        if len(times) > 1 and not math.isclose(span / dt, steps, rel_tol=rtol):
            raise ConfigError(
                f"config.trace.steps is required, or a config.trace.dt that divides "
                f"the run's span {span:g} (dt {dt:g} leaves {span / dt:g} steps)"
            )
    # past the last snapshot the samplers would clamp; one snapshot is static
    elif len(times) > 1 and dt * steps > span * (1.0 + rtol):
        raise ConfigError(
            f"config.trace.steps and config.trace.dt carry the paths to {dt * steps:g}, "
            f"past the run's span {span:g}"
        )

    # every check is done: only now are currents and forces computed
    flow, em = _trace_samplers(run, trace_cfg["interpolation"], "force" in methods)
    if trace_cfg["starts"] is not None:
        starts = np.atleast_2d(np.asarray(trace_cfg["starts"], dtype=float))
    else:  # drawn from snapshot 0's density while the pass holds it
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        starts = trajectories.sample_density(
            grid, fields.density(run.kind(grid, run.read(0).psi[0])), trace_cfg["count"], rng
        )
    run.read(len(times) - 1)

    batches = {}
    if "advect" in methods:
        batches["advect"] = trajectories.advect(starts, flow, dt, steps)
    if "force" in methods:  # a force path starts with the flow velocity there
        v0, v_mask = flow(starts, times[0])
        if bool(v_mask.any()):
            key = "starts" if trace_cfg["starts"] is not None else "count"
            raise ConfigError(
                f"config.trace.{key}: trace start {starts[int(np.argmax(v_mask))].tolist()} "
                "sits in a masked node region, where the force method has no velocity"
            )
        batches["force"] = trajectories.force_path(
            starts, v0, em, scenario.consts.gamma, dt, steps
        )

    files = []
    for index in range(starts.shape[0]):
        for method, paths in batches.items():
            suffix = f"_{method}" if len(batches) > 1 else ""
            fname = f"trace_{index:03d}{suffix}.csv"
            _write_text(os.path.join(out, fname), paths[index].to_csv())
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


def cmd_fields(args, scenario: Scenario) -> int:
    family, consts = scenario.config["fields"]["family"], scenario.consts
    if consts.q == 0.0:
        raise ConfigError("config.constants: field reports need q != 0")
    out = _out_dir(args, scenario)
    equations, keep, gauge_rows, names = _DIAGNOSTICS["gauge"]
    run = Run(scenario, out).spaced().serving("fields", equations).stream((*keep, "f"))
    times, dim, mid = run.times, run.grid.dim, len(run.times) // 2
    gauges = [scenario.gauge] * len(times)
    frames, rows = diagnostics._em_frames(times, gauges, consts, run.q, family), []

    def rms(arr):
        return float(np.sqrt(np.mean(np.square(arr))))

    def norms(i, rate):  # frame i's E and B norms, and self_consistency at the middle one
        frame = next(frames)
        rows.append({"time": times[i], "e_rms": [rms(c) for c in frame.e[:dim]],
                     "b_rms": [rms(c) for c in frame.b]})
        if i != mid:
            return {}
        if family != "psi":  # self_consistency's Gauss law holds for E_psi whatever the family
            frame = diagnostics.em_fields(times[i - 1:i + 2], gauges[i - 1:i + 2], consts,
                                          [run.q[k] for k in range(i - 1, i + 2)])[1][0]
        e_psi = fields.VectorField(run.grid, frame.e[:dim])
        return {"self_consistency": diagnostics.self_consistency_residual(e_psi, run.f[i], consts)}

    reports = _reduce(run, [gauge_rows(run), norms])
    _write_reports(out, [reports[name] for name in (*names, "self_consistency")])
    _write_json(
        os.path.join(out, "fields_summary.json"),
        {"family": family, "frames": rows},
    )
    print(f"wrote fields_summary.json ({len(rows)} frames, family {family})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gps


def cmd_gps(args, scenario: Scenario) -> int:
    gps_cfg = scenario.require("gps")
    try:
        matrix = evolvers.gps_matrix(gps_cfg["order"], gps_cfg["t"])
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
            moved = evolvers.gps_apply(matrix, state)
        except ValueError as exc:
            raise ConfigError(f"config.gps.state: {exc}") from exc
        payload["applied"] = moved.tolist()
    out = _out_dir(args, scenario)
    _write_json(os.path.join(out, "gps.json"), payload)
    print(f"order {matrix.order}, t = {matrix.t}, det = {matrix.det}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# algebra-check


def cmd_algebra_check(args, scenario) -> int:
    if args.list:
        for name in algebra.IDENTITY_NAMES:
            print(name)
        return EXIT_OK
    seed = args.seed if args.seed is not None else 0
    results = algebra.identity_suite(seed=seed, samples=100)
    tol = 1e-12
    all_pass = True
    width = max(len(r.name) for r in results)
    for result in results:
        ok = result.passed(tol)
        all_pass = all_pass and ok
        print(f"{result.name:<{width}}  {result.max_error:12.5e}  "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok:
            print(np.array2string(result.witness, precision=6))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(
            os.path.join(args.out, "algebra_check.json"),
            {
                "tolerance": tol,
                "seed": seed,
                "results": [
                    {"name": r.name, "max_error": r.max_error, "passed": r.passed(tol)}
                    for r in results
                ],
            },
        )
    return EXIT_OK if all_pass else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# the config schema: every key a scenario file may hold

_AXES = _Key("integers", size="dim")  # an integer mode per axis
_CENTER = _Key("numbers", _ZEROS, "dim")
_PACKET = {"sigma": _Key("positive", 1.0), "center": _CENTER, "k0": _CENTER}

_CONSTANTS = _Presets(
    natural=({}, lambda record, sc: decomposition.PhysicalConstants.natural()),
    physical=({key: _Key("number", 1.0) for key in _UNITS}, _physical),
)
_STATES = _Presets(
    plane_wave=({"mode": _AXES, "amplitude": _Key("number", 1.0)}, _plane_wave),
    gaussian=(_PACKET, lambda record, sc: fields.ComplexScalarField(
        sc.grid, _gaussian_envelope(record, sc.grid))),
    ho_ground=({"omega": _Key("positive", 1.0), "center": _CENTER}, _ho_ground),
    spinor_up_x=(_PACKET, _spinor_up_x),
    dirac_plane_wave=(
        {"mode": _AXES, "branch": _Key(("positive", "negative"), "positive")},
        _dirac_plane_wave),
    custom=({"path": _Key("string")}, _custom),
)
_POTENTIALS = _Presets(
    zero=({}, lambda record, sc: np.zeros(sc.grid.shape)),
    uniform=({"value": _Key("number")},
             lambda record, sc: np.full(sc.grid.shape, record["value"])),
    harmonic=({"omega": _Key("number", 1.0), "center": _CENTER}, _harmonic),
    cosine=({"amplitude": _Key("number", 1.0), "mode": _AXES},
            lambda record, sc: record["amplitude"] * np.cos(
                _phase(sc.grid, _wavenumbers(record["mode"], sc.grid)))),
)
_VECTOR_POTENTIALS = _Presets(
    zero=({}, lambda record, sc: fields.VectorField.zero(sc.grid)),
    uniform=({"value": _Key("numbers", size="dim")}, _uniform_a),
)

_GRID = {"dim": _Key("integer"), "n": _Key("integers"), "length": _Key("numbers")}
_CONFIG = {
    "name": _Key("string", "scenario"),
    "output": _Key("string", None),
    "equation": _Key(tuple(_EQUATIONS), None),
    "grid": _Key(_GRID, None),
    "constants": _Key({"kind": _Key(_CONSTANTS, "natural")}, {}),
    "initial_state": _Key({"preset": _Key(_STATES)}, None),
    "gauge": _Key({
        "u": _Key({"preset": _Key(_POTENTIALS, "zero")}, {}),
        "a": _Key({"preset": _Key(_VECTOR_POTENTIALS, "zero")}, {}),
        "b_external": _Key("numbers", None, 3),
    }, {}),
    "evolution": _Key({
        "dt": _Key("number"),
        "steps": _Key("integer"),
        "snapshot_stride": _Key("integer", 1),
    }, None),
    "diagnostics": _Key(list(_DIAGNOSTICS), None),
    "trace": _Key({
        "method": _Key(("advect", "force", "both"), "advect"),
        "interpolation": _Key(("spectral", "tricubic"), "spectral"),
        "dt": _Key("positive", None),
        "steps": _Key("natural", None),
        "starts": _Key("points", None),
        "count": _Key("count", None),
    }, None),
    "gps": _Key({
        "order": _Key("integer"),
        "t": _Key("number"),
        "state": _Key("tensor", None),
    }, None),
    "fields": _Key({"family": _Key(diagnostics.FAMILIES, "psi")}, {}),
}


# ---------------------------------------------------------------------------
# entry point


def _seed(text: str) -> int:
    """The --seed type: an integer from 0 to 2**64 - 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"{value} is not a u64 (0 to 2**64 - 1)")
    return value


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
        p.add_argument("--seed", type=_seed, default=None, help="random seed (u64)")
        if name == "algebra-check":
            p.add_argument(
                "--list", action="store_true", help="print identity names and exit"
            )
        p.set_defaults(handler=handler, needs_config=needs_config)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            _apply_thread_cap()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        scenario = None
        if args.needs_config:
            cfg, sha256 = _load_config(args.config)
            scenario = Scenario(cfg, os.path.dirname(args.config) or ".", sha256)
        return args.handler(args, scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime contract: anything else is exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
