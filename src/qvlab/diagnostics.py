"""Residual evaluators for the identities the current-decomposition framework
guarantees: continuity, Hamilton-Jacobi balance, gauge conditions, field
self-consistency, the Maxwell-type system, and four-current conservation.

Every time derivative is a centered second-order difference over stored
snapshots, so residuals carry an O(dt^2) floor that is discretization, not
identity failure; report dt alongside the norms.  Norms are taken over the
unmasked grid points only (l2 is the root mean square), and the masked
fraction is part of the report.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .decomposition import (
    FourCurrent,
    GaugeConfiguration,
    PhysicalConstants,
    current_scalar,
    velocity,
)
from .fields import ComplexScalarField, NodeError, VectorField, _phase_slopes, _ratio, _support, density, node_mask
from .lattice import _LAP, Grid, _curl3, _spectral, _zero_slot, divergence, spectral_gradient

_JUMP_FRACTION = 0.9  # |angle| above this multiple of pi flags a branch jump
TIME_RTOL = 1e-9  # relative tolerance on the spacing and span of snapshot times


@dataclass
class ResidualReport:
    """Norms of one residual over the unmasked points."""

    name: str
    l2: float
    linf: float
    mask_fraction: float
    n_points: int
    dt: Optional[float] = None
    per_point: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.l2 < 0.0 or self.linf < 0.0:
            raise ValueError("residual norms cannot be negative")
        if not 0.0 <= self.mask_fraction <= 1.0:
            raise ValueError("mask_fraction must lie in [0, 1]")

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "l2": self.l2,
            "linf": self.linf,
            "mask_fraction": self.mask_fraction,
            "n_points": self.n_points,
            "dt": self.dt,
        }
        return json.dumps(payload) + "\n"


def _report(name, samples, mask=None, dt=None) -> ResidualReport:
    samples = np.asarray(samples, dtype=float)
    if mask is None:
        keep = samples.reshape(-1)
    else:
        keep = samples[~np.broadcast_to(mask, samples.shape)]
    if keep.size == 0:
        raise NodeError(f"{name}: every sample is masked")
    return ResidualReport(
        name=name,
        l2=float(np.sqrt(np.mean(keep**2))),
        linf=float(np.max(np.abs(keep))),
        mask_fraction=1.0 - keep.size / samples.size,
        n_points=int(keep.size),
        dt=dt,
        per_point=samples,
    )


def _series_spacing(times: Sequence[float], **series) -> float:
    """The spacing of at least 3 equally spaced times, each named series
    (None skips it) holding one entry per time."""
    if len(times) < 3:
        raise ValueError(f"need at least 3 snapshots, got {len(times)}")
    for name, values in series.items():
        if values is not None and len(values) != len(times):
            raise ValueError(f"{name} has {len(values)} entries for {len(times)} times")
    steps = np.diff(np.asarray(times, dtype=float))
    if not np.allclose(steps, steps[0], rtol=TIME_RTOL, atol=0.0):
        raise ValueError("snapshots must be equally spaced in time")
    return float(steps[0])


def _centered(series: Sequence[np.ndarray], index: int, dt: float) -> np.ndarray:
    return (series[index + 1] - series[index - 1]) / (2.0 * dt)


def _freeze(parts):
    """Mark every array in a nested tuple read-only; returns parts."""
    if isinstance(parts, np.ndarray):
        parts.flags.writeable = False
    else:
        for part in parts:
            _freeze(part)
    return parts


def _per_gauge(gauges: Sequence[GaugeConfiguration], compute) -> list:
    """[compute(g) for g in gauges], computed once per distinct gauge object.

    A run with a static gauge repeats one object at every snapshot, so its
    curls, divergences and gradients are taken once and shared between
    frames; a time-varying series misses the cache every time.  The shared
    arrays are read-only, so an in-place write fails instead of changing
    other frames.
    """
    cache = {}
    for g in gauges:
        if id(g) not in cache:
            cache[id(g)] = _freeze(compute(g))
    return [cache[id(g)] for g in gauges]


# ---------------------------------------------------------------------------
# continuity and current conservation

def continuity_residual(
    times: Sequence[float],
    densities: Sequence[np.ndarray],
    currents: Sequence[VectorField],
) -> ResidualReport:
    """r = df/dt + div J at the interior snapshot times."""
    dt = _series_spacing(times, densities=densities, currents=currents)
    rows = []
    for i in range(1, len(times) - 1):
        grid = currents[i].grid
        rows.append(
            _centered(densities, i, dt) + divergence(currents[i].components, grid)
        )
    return _report("continuity", np.stack(rows), dt=dt)


def four_current_divergence(
    times: Sequence[float],
    currents: Sequence[FourCurrent],
    consts: PhysicalConstants,
) -> ResidualReport:
    """r = (1/c) dJ^0/dt + div J at the interior snapshot times."""
    dt = _series_spacing(times, currents=currents)
    j0 = [j.j0 for j in currents]
    rows = [
        _centered(j0, i, dt) / consts.c + currents[i].spatial_divergence()
        for i in range(1, len(times) - 1)
    ]
    return _report("four_current_divergence", np.stack(rows), dt=dt)


# ---------------------------------------------------------------------------
# quantum potential and the Hamilton-Jacobi balance

def quantum_potential(psi: ComplexScalarField, consts: PhysicalConstants):
    """Q = (alpha/beta) * Lap|psi|/|psi| away from nodes; returns (Q, mask).

    Evaluated through Lap|psi|/|psi| = Re(Lap psi / psi) + |grad phi|^2, which
    stays smooth where |psi| has kinks (sign-changing real states).
    """
    # f and lap stay bound to the end: freeing them early changes which heap
    # blocks the kept Q arrays land in, and raised the peak RSS of diagnose
    # by 3 MB (glibc malloc, 51 snapshots of 128^2)
    grid = psi.grid
    f = density(psi)
    mask = _support(f, "quantum potential")
    lap, *d1 = _spectral(
        [psi.values], grid, [[(0, _LAP)]] + [[(0, a)] for a in range(grid.dim)]
    )
    ratio = _ratio(lap, psi.values, mask)
    grad2 = sum(g**2 for g in _phase_slopes(psi.values, d1, f, mask))
    q = (consts.alpha / consts.beta) * (ratio.real + grad2)
    q[mask] = 0.0
    return q, mask


def quantum_force(psi: ComplexScalarField, consts: PhysicalConstants):
    """-grad Q as node-safe pointwise combinations; returns (components, mask).

    Spatially differentiating the masked Q samples would ring: the mask edge
    is a jump, and spectral derivatives are global.  Instead every derivative
    lands on psi itself (smooth), and the division happens last:

        grad(Lap|psi|/|psi|) = Re(grad(Lap psi)/psi - (Lap psi/psi)(grad psi/psi))
                               + 2 sum_b Im(d_b psi/psi) Im(d_a d_b psi/psi
                               - (d_a psi/psi)(d_b psi/psi)).

    Every derivative comes from one transform of psi.
    """
    grid = psi.grid
    dim = grid.dim
    mask = _support(density(psi), "quantum force")
    inv = _ratio(1.0, psi.values, mask)
    pairs = [(a, b) for a in range(dim) for b in range(a, dim)]
    outs = _spectral(
        [psi.values], grid,
        [[(0, a)] for a in range(dim)] + [[(0, _LAP)]]
        + [[(0, a, _LAP)] for a in range(dim)] + [[(0, a, b)] for a, b in pairs],
    )
    d1, lap, dlap = outs[:dim], outs[dim], outs[dim + 1: 2 * dim + 1]
    second = dict(zip(pairs, outs[2 * dim + 1:]))
    r1 = [d * inv for d in d1]
    rlap = lap * inv
    comps = []
    for a in range(dim):
        dg = (dlap[a] * inv - rlap * r1[a]).real
        for b in range(dim):
            cross = (second[min(a, b), max(a, b)] * inv - r1[a] * r1[b]).imag
            dg = dg + 2.0 * r1[b].imag * cross
        force = -(consts.alpha / consts.beta) * dg
        force[mask] = 0.0
        comps.append(force)
    return tuple(comps), mask


def phase_rate_from_snapshots(
    earlier: ComplexScalarField, later: ComplexScalarField, spacing: float
):
    """Phase change rate angle(psi_later * conj(psi_earlier)) / spacing.

    Returns (rate, mask, jumps); jumps marks points whose phase advanced by
    nearly pi or more in one spacing, where the branch is ambiguous.  They are
    reported, never corrected.
    """
    if spacing == 0.0:
        raise ValueError("snapshot spacing must be nonzero")
    if earlier.grid != later.grid:
        raise ValueError("snapshots live on different grids")
    mask = node_mask(density(earlier)) | node_mask(density(later))
    angle = np.angle(later.values * np.conj(earlier.values))
    jumps = (np.abs(angle) > _JUMP_FRACTION * np.pi) & ~mask
    rate = np.where(mask, 0.0, angle / spacing)
    return rate, mask, jumps


def hamilton_jacobi_residual(
    psi: ComplexScalarField,
    gauge: GaugeConfiguration,
    consts: PhysicalConstants,
    phase_rate: np.ndarray,
    rate_mask: Optional[np.ndarray] = None,
    dt: Optional[float] = None,
) -> ResidualReport:
    """r = -(1/beta) dphi/dt + |<v>|^2/(4 alpha beta) - U - Q.

    phase_rate is the centered phase derivative (see phase_rate_from_snapshots);
    with the standard constants the balance reads
    -hbar dphi/dt - (m/2)|<v>|^2 - U - Q.
    """
    f = density(psi)
    j = current_scalar(psi, gauge, consts)
    v, mask = velocity(j, f)
    q, _ = quantum_potential(psi, consts)  # same mask: node_mask(density(psi))
    if rate_mask is not None:
        mask = mask | rate_mask
    speed2 = sum(c**2 for c in v.components)
    r = (
        -phase_rate / consts.beta
        + speed2 / (4.0 * consts.alpha * consts.beta)
        - gauge.u
        - q
    )
    return _report("hamilton_jacobi", r, mask=mask, dt=dt)


# ---------------------------------------------------------------------------
# electromagnetic analogues

FAMILIES = ("psi", "classical", "quantum")


def em_fields(
    times: Sequence[float],
    gauges: Sequence[GaugeConfiguration],
    consts: PhysicalConstants,
    q_series: Optional[Sequence[np.ndarray]] = None,
    family: str = "psi",
):
    """E and B of one potential family at the interior snapshot times.

    E = -dA/dt - (2 alpha beta / gamma) grad(V); the psi family pairs
    (A_psi, V = U + Q), the classical family (A, U) and the quantum family
    (A_Q, Q).  Q defaults to zero when no series is given, and b_external
    adds to the B of psi and classical.  B, and grad U for classical, are
    computed once per distinct gauge object and shared, read-only, by the
    frames that repeat it.  Returns (interior_times, [MaxwellFrame]).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown field family {family!r}, expected one of {FAMILIES}")
    dt = _series_spacing(times, gauges=gauges, q_series=q_series)
    grid = gauges[0].grid
    if any(g.grid != grid for g in gauges):
        raise ValueError("gauge snapshots live on different grids")
    if q_series is None:
        q_series = [np.zeros(grid.shape)] * len(times)
    coeff = 2.0 * consts.alpha * consts.beta / consts.gamma
    a_name = f"a_{family}"

    def static(g):
        b = _curl3(getattr(g, a_name).components, grid)
        if family != "quantum" and g.b_external is not None:
            b = tuple(c + ext for c, ext in zip(b, g.b_external))
        grad_u = tuple(spectral_gradient(g.u, grid)) if family == "classical" else ()
        return b, grad_u

    frames = []
    for i, (b, grad_u) in enumerate(_per_gauge(gauges[1:-1], static), start=1):
        if family == "classical":
            grad = grad_u
        else:
            v = gauges[i].u + q_series[i] if family == "psi" else q_series[i]
            grad = spectral_gradient(v, grid)
        a0, a2 = (getattr(gauges[k], a_name).components for k in (i - 1, i + 1))
        e = tuple(-(x2 - x0) / (2.0 * dt) - coeff * gr for x0, x2, gr in zip(a0, a2, grad))
        frames.append(MaxwellFrame(grid, e, b))
    return list(times[1:-1]), frames


def gauge_residuals(
    times: Sequence[float],
    gauges: Sequence[GaugeConfiguration],
    consts: PhysicalConstants,
    q_series: Optional[Sequence[np.ndarray]] = None,
):
    """Reports for the three gauge conditions, at interior snapshot times.

    r_psi = div A_psi + (2 alpha beta / gamma) (1/c^2) dV/dt with V = U + Q,
    r_lorentz = div A + (1/(q c^2)) dU/dt,
    r_quantum = div A_Q + (1/(q c^2)) dQ/dt,
    and r_psi = r_lorentz + r_quantum up to roundoff by construction.  The
    divergences are taken once per distinct gauge object.
    """
    dt = _series_spacing(times, gauges=gauges, q_series=q_series)
    grid = gauges[0].grid
    zeros = np.zeros(grid.shape)
    if q_series is None:
        q_series = [zeros] * len(times)
    u_series = [g.u for g in gauges]
    v_series = [u + q for u, q in zip(u_series, q_series)]
    coeff = 2.0 * consts.alpha * consts.beta / consts.gamma
    inv_qc2 = 1.0 / (consts.q * consts.c**2)
    divs = _per_gauge(
        gauges[1:-1],
        lambda g: tuple(
            divergence(a.components, grid)
            for a in (g.a_psi, g.a_classical, g.a_quantum)
        ),
    )
    rows = {"gauge_psi": [], "gauge_lorentz": [], "gauge_quantum": []}
    for i, (div_psi, div_cl, div_q) in enumerate(divs, start=1):
        rows["gauge_psi"].append(
            div_psi + coeff / consts.c**2 * _centered(v_series, i, dt)
        )
        rows["gauge_lorentz"].append(div_cl + inv_qc2 * _centered(u_series, i, dt))
        rows["gauge_quantum"].append(div_q + inv_qc2 * _centered(q_series, i, dt))
    return tuple(_report(name, np.stack(r), dt=dt) for name, r in rows.items())


def self_consistency_residual(
    e_psi: VectorField, f: np.ndarray, consts: PhysicalConstants
) -> ResidualReport:
    """r = eps0 div E_psi - q f; measured, never enforced."""
    r = consts.eps0 * divergence(e_psi.components, e_psi.grid) - consts.q * f
    return _report("self_consistency", r)


def _slots(grid: Grid, parts, name: str) -> tuple:
    """dim or 3 components as 3 float sample arrays; absent slots (all three
    when parts is None) are zero-stride read-only views."""
    if parts is not None and len(parts) not in (grid.dim, 3):
        raise ValueError(f"{name} needs {grid.dim} or 3 components, got {len(parts)}")
    out = [np.asarray(c, dtype=float) for c in (() if parts is None else parts)]
    out = [c if c.shape == grid.shape else np.broadcast_to(c, grid.shape) for c in out]
    return tuple(out) + (_zero_slot(grid),) * (3 - len(out))


@dataclass
class MaxwellFrame:
    """One snapshot of the Maxwell-type system on a 1D, 2D or 3D grid.

    E, B and J are 3-slot tuples of samples (dim components are padded with
    zero slots); rho and J are optional and default to zero.  Absent slots
    are zero-stride read-only views, so they cost no memory.
    """

    grid: Grid
    e: tuple
    b: tuple
    rho: Optional[np.ndarray] = None
    j: Optional[tuple] = None

    def __post_init__(self):
        self.e = _slots(self.grid, self.e, "E")
        self.b = _slots(self.grid, self.b, "B")
        self.j = _slots(self.grid, self.j, "J")
        self.rho = (
            _zero_slot(self.grid) if self.rho is None
            else np.asarray(self.rho, dtype=float)
        )


def maxwell_residuals(
    times: Sequence[float],
    frames: Sequence[MaxwellFrame],
    consts: PhysicalConstants,
) -> dict:
    """The four Maxwell-type residuals with D = eps0 E and mu0 H = B:

    div D - rho, div B, curl E + dB/dt, curl H - dD/dt - J,
    evaluated at the interior snapshot times, on grids of any dimension.
    """
    dt = _series_spacing(times, frames=frames)
    grid = frames[0].grid
    e_series = [fr.e for fr in frames]
    b_series = [fr.b for fr in frames]
    gauss_e, gauss_b, faraday, ampere = [], [], [], []
    for i in range(1, len(times) - 1):
        fr = frames[i]
        gauss_e.append(consts.eps0 * divergence(fr.e[: grid.dim], grid) - fr.rho)
        gauss_b.append(divergence(fr.b[: grid.dim], grid))
        curl_e = _curl3(fr.e, grid)
        curl_b = _curl3(fr.b, grid)
        for ax in range(3):
            db = _centered([b[ax] for b in b_series], i, dt)
            de = _centered([e[ax] for e in e_series], i, dt)
            faraday.append(curl_e[ax] + db)
            ampere.append(curl_b[ax] / consts.mu0 - consts.eps0 * de - fr.j[ax])
    return {
        "gauss_electric": _report("gauss_electric", np.stack(gauss_e), dt=dt),
        "gauss_magnetic": _report("gauss_magnetic", np.stack(gauss_b), dt=dt),
        "faraday": _report("faraday", np.stack(faraday), dt=dt),
        "ampere": _report("ampere", np.stack(ampere), dt=dt),
    }
