"""Seeded scenario generation for the three benchmark workloads.

A workload is a list of scenarios.  Each scenario is one strict qvlab JSON
config plus the subcommands to run on it, in order, and the limits its
outputs are checked against.  The seed moves packet centres, momenta,
potential strengths and trace starts; it never changes a grid, a step count
or a snapshot stride, so every seed does the same amount of work.

Residual limits are ten times the largest l2 the package produced for that
report over seeds 1-30 when the benchmark was defined, rounded up to one
significant digit, or the limit of an earlier, longer version of the
scenario where that was lower (limits are never loosened).  Reports that
came out exactly zero (the Lorentz gauge residual of a static U with A = 0)
get ZERO_L2, a roundoff floor.  The norm
limit is relative and sits well above the roundoff drift (< 1e-13) of the
unitary split-step runs used here.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("spinor-evolve", "flow-trace", "snapshot-pipeline")

# Relative drift |N_final - N_0| / N_0 allowed for the unitary evolutions.
NORM_RTOL = 1e-10
ZERO_L2 = 1e-12


def _jitter(rng: random.Random, centre: float, spread: float) -> float:
    return round(centre + rng.uniform(-spread, spread), 6)


def _config(name, equation, dim, n, length, state, gauge, dt, steps, stride,
            diagnostics=None, trace=None, fields=None):
    if steps % stride:
        raise ValueError(f"{name}: steps must be a multiple of snapshot_stride")
    cfg = {
        "name": name,
        "equation": equation,
        "grid": {"dim": dim, "n": [n] * dim, "length": [length] * dim},
        "constants": {"kind": "natural"},
        "initial_state": state,
        "evolution": {"dt": dt, "steps": steps, "snapshot_stride": stride},
    }
    if gauge is not None:
        cfg["gauge"] = gauge
    if diagnostics is not None:
        cfg["diagnostics"] = diagnostics
    if trace is not None:
        cfg["trace"] = trace
    if fields is not None:
        cfg["fields"] = fields
    return cfg


def _scenario(config, commands, residual_l2, trace_starts=0, trace_methods=1):
    return {
        "name": config["name"],
        "config": config,
        "commands": list(commands),
        "residual_l2": residual_l2,
        "trace_starts": trace_starts,
        "trace_methods": trace_methods,
    }


def _starts_near(rng: random.Random, centre, radius: float, count: int):
    """Points within radius of centre, drawn uniformly from the ball."""
    out = []
    while len(out) < count:
        offset = [rng.uniform(-radius, radius) for _ in centre]
        if math.sqrt(sum(o * o for o in offset)) <= radius:
            out.append([round(c + o, 6) for c, o in zip(centre, offset)])
    return out


def spinor_evolve(rng: random.Random, tiny: bool):
    """Pauli 2D and Dirac 3D evolutions, plus one scalar 2D scenario that
    keeps trace and fields present with tricubic sampling and few snapshots."""
    n2, n3 = (32, 12) if tiny else (256, 48)
    steps, stride, scalar_stride = (8, 4, 2) if tiny else (12, 4, 2)
    half = 10.0
    pauli = _config(
        "pauli-2d", "pauli", 2, n2, 2 * half,
        {
            "preset": "spinor_up_x",
            "sigma": 1.2,
            "center": [_jitter(rng, half, 0.5), _jitter(rng, half, 0.5)],
            "k0": [_jitter(rng, 0.0, 0.5), _jitter(rng, 0.0, 0.5)],
        },
        {
            "u": {"preset": "harmonic", "omega": _jitter(rng, 0.5, 0.1),
                  "center": [half, half]},
            "a": {"preset": "uniform",
                  "value": [_jitter(rng, 0.0, 0.3), _jitter(rng, 0.0, 0.3)]},
            "b_external": [0.0, 0.0, _jitter(rng, 0.75, 0.25)],
        },
        0.005, steps, stride, diagnostics=["continuity"],
    )
    mode = rng.choice([[1, 0, 1], [0, 1, 1], [1, 1, 0], [1, 0, 0]])
    dirac = _config(
        "dirac-3d", "dirac", 3, n3, 12.0,
        {"preset": "dirac_plane_wave", "mode": mode,
         "branch": rng.choice(["positive", "negative"])},
        {"u": {"preset": "cosine", "amplitude": _jitter(rng, 0.3, 0.1),
               "mode": rng.choice([[1, 1, 0], [0, 1, 1], [1, 0, 1]])}},
        0.005, steps, stride, diagnostics=["four_current"],
    )
    centre = [_jitter(rng, half, 0.5), _jitter(rng, half, 0.5)]
    starts = _starts_near(rng, centre, 0.8, 2)
    scalar = _config(
        "scalar-2d", "schrodinger", 2, n2, 2 * half,
        {"preset": "gaussian", "sigma": 1.2, "center": centre,
         "k0": [_jitter(rng, 0.0, 0.5), _jitter(rng, 0.0, 0.5)]},
        {"u": {"preset": "harmonic", "omega": _jitter(rng, 0.5, 0.1),
               "center": [half, half]}},
        0.005, steps, scalar_stride,
        diagnostics=["continuity"],
        trace={"method": "advect", "interpolation": "tricubic",
               "starts": starts, "dt": 0.01, "steps": steps // 2},
        fields={"family": "psi"},
    )
    return [
        _scenario(pauli, ["evolve", "diagnose"], {"continuity": 3e-6}),
        _scenario(dirac, ["evolve", "diagnose"],
                  {"four_current_divergence": 2e-5}),
        _scenario(scalar, ["evolve", "diagnose", "trace", "fields"],
                  {"continuity": 8e-7, "gauge_psi": 4e1,
                   "gauge_lorentz": ZERO_L2, "gauge_quantum": 4e1,
                   "self_consistency": 2e3},
                  trace_starts=len(starts)),
    ]


def flow_trace(rng: random.Random, tiny: bool):
    """A free 3D packet with momentum, a short evolution, and both path
    methods through spectral interpolation from explicit starts."""
    n = 12 if tiny else 32
    steps, stride = (16, 2) if tiny else (40, 10)
    length = 10.0
    sigma = _jitter(rng, 1.0, 0.1)
    centre = [_jitter(rng, length / 2, 0.5) for _ in range(3)]
    k0 = [_jitter(rng, 0.0, 1.5) for _ in range(3)]
    starts = _starts_near(rng, centre, 0.6 * sigma, 2 if tiny else 12)
    cfg = _config(
        "free-3d", "schrodinger", 3, n, length,
        {"preset": "gaussian", "sigma": sigma, "center": centre, "k0": k0},
        None, 0.005, steps, stride,
        diagnostics=["continuity", "hamilton_jacobi", "gauge"],
        trace={"method": "both", "interpolation": "spectral", "starts": starts,
               "dt": 0.02, "steps": 3 * steps // 16},
        fields={"family": "psi"},
    )
    return [
        _scenario(cfg, ["evolve", "diagnose", "trace", "fields"],
                  {"continuity": 6e-4, "hamilton_jacobi": 2e1, "gauge_psi": 1e4,
                   "gauge_lorentz": ZERO_L2, "gauge_quantum": 1e4,
                   "self_consistency": 2e4},
                  trace_starts=len(starts), trace_methods=2),
    ]


def snapshot_pipeline(rng: random.Random, tiny: bool):
    """An oscillating ground state written every second step and read back
    by every downstream command."""
    n = 32 if tiny else 128
    steps = 16 if tiny else 100
    length = 16.0
    half = length / 2
    omega = _jitter(rng, 1.0, 0.2)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    shift = rng.uniform(0.5, 1.5)
    centre = [round(half + shift * math.cos(angle), 6),
              round(half + shift * math.sin(angle), 6)]
    starts = _starts_near(rng, centre, 0.5, 4)
    cfg = _config(
        "ho-displaced-2d", "schrodinger", 2, n, length,
        {"preset": "ho_ground", "omega": omega, "center": centre},
        {"u": {"preset": "harmonic", "omega": omega, "center": [half, half]}},
        0.004, steps, 2,
        diagnostics=["continuity", "hamilton_jacobi", "gauge"],
        trace={"method": "advect", "interpolation": "tricubic", "starts": starts,
               "dt": 0.016, "steps": steps // 4},
        fields={"family": "psi"},
    )
    return [
        _scenario(cfg, ["evolve", "diagnose", "fields", "trace"],
                  {"continuity": 2e-5, "hamilton_jacobi": 6e-4,
                   "gauge_psi": 2e2, "gauge_lorentz": ZERO_L2,
                   "gauge_quantum": 2e2, "self_consistency": 3e3},
                  trace_starts=len(starts)),
    ]


_BUILDERS = {
    "spinor-evolve": spinor_evolve,
    "flow-trace": flow_trace,
    "snapshot-pipeline": snapshot_pipeline,
}


def build(workload: str, seed: int, tiny: bool = False):
    """The scenarios of one workload for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, tiny)
