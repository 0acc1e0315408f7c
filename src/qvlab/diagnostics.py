"""Residual evaluators for the identities the current-decomposition framework
guarantees: continuity, Hamilton-Jacobi balance, gauge conditions, field
self-consistency, the Maxwell-type system, and four-current conservation.

J, Q and the quantum force -grad Q share one differentiation of psi
(decomposition._polar), so the Hamilton-Jacobi residual, which needs J and
Q, transforms psi once, and so does the force.

Every time derivative is a centered second-order difference over stored
snapshots, so residuals carry an O(dt^2) floor that is discretization, not
identity failure; report dt alongside the norms.  Each time-series residual,
and each E and B frame (_em_frame), is a per-frame formula, its rows function,
that one loop, _interior, runs frame by frame in time order, forming every
difference, and lays out frame-major in per_point: (k * frames, *grid), with
k = 3 axis rows for Faraday and Ampere.  A rows function reads only frames
i - 1 to i + 1 of its series, so a caller may hold those three alone and keep
no per_point.  Norms are taken over the unmasked grid points only (l2 is the
root mean square), and the masked fraction is part of the report.  One rule
reduces every report: each row (a grid-shaped sample array) has its r^2
summed by one numpy reduction, and the row sums add in row order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .decomposition import FourCurrent, GaugeConfiguration, PhysicalConstants, _current, _polar
from .fields import ComplexScalarField, NodeError, VectorField, _ratio, density, node_mask
from .lattice import Grid, _curl3, _zero_slot, divergence, spectral_gradient

__all__ = [
    "ResidualReport",
    "continuity_residual",
    "four_current_divergence",
    "quantum_potential",
    "quantum_force",
    "phase_rate_from_snapshots",
    "hamilton_jacobi_residual",
    "em_fields",
    "gauge_residuals",
    "self_consistency_residual",
    "MaxwellFrame",
    "maxwell_residuals",
]

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


class _Tally:
    """The norms of residual rows, added one row at a time: each row's r^2 is
    summed by one numpy reduction, and the row sums add in row order, so a
    report reads the same whether its rows were kept or not."""

    def __init__(self):
        self.sum2, self.linf, self.kept, self.total = 0.0, 0.0, 0, 0

    def add(self, row, mask=None) -> "_Tally":
        """Tally the samples of row off mask (broadcast to the row)."""
        row = np.asarray(row, dtype=float)
        kept = row.reshape(-1) if mask is None else row[~np.broadcast_to(mask, row.shape)]
        self.sum2 += float(np.sum(kept**2))
        if kept.size:  # np.maximum keeps a NaN
            self.linf = float(np.maximum(self.linf, np.max(np.abs(kept))))
        self.kept, self.total = self.kept + kept.size, self.total + row.size
        return self

    def report(self, name, dt=None, per_point=None) -> ResidualReport:
        if self.kept == 0:
            raise NodeError(f"{name}: every sample is masked")
        return ResidualReport(
            name=name,
            l2=math.sqrt(self.sum2 / self.kept),
            linf=self.linf,
            mask_fraction=1.0 - self.kept / self.total,
            n_points=self.kept,
            dt=dt,
            per_point=per_point,
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


def _interior(times: Sequence[float], rows, points: bool = True, **series) -> dict:
    """Reports over the interior frames i of checked series, taken in time
    order: rows(i, rate), called once per frame, maps each report name to its
    k samples at frame i (rate(at) is the centered time derivative of the
    samples at(k)) or to a finished one-frame ResidualReport, passed through.
    Each row is tallied as it comes; with points, it is also kept, as row
    k*(i-1) + r of the report's per_point for sample r."""
    dt = _series_spacing(times, **series)
    frames, tallies, kept, made = len(times) - 2, {}, {}, {}
    for i in range(1, frames + 1):
        def rate(at):
            return (at(i + 1) - at(i - 1)) / (2.0 * dt)
        for name, parts in rows(i, rate).items():
            if isinstance(parts, ResidualReport):
                made[name] = parts
                continue
            if points and name not in kept:
                kept[name] = np.empty((len(parts) * frames,) + np.shape(parts[0]))
            for row, values in enumerate(parts, start=len(parts) * (i - 1)):
                tallies.setdefault(name, _Tally()).add(values)
                if points:
                    kept[name][row] = values
    return made | {name: tally.report(name, dt, kept.get(name)) for name, tally in tallies.items()}


def _freeze(parts):
    """Mark every array in a nested tuple read-only; returns parts."""
    if isinstance(parts, np.ndarray):
        parts.flags.writeable = False
    else:
        for part in parts:
            _freeze(part)
    return parts


def _per_gauge(compute):
    """A lookup g -> compute(g) that computes again only when g is not the
    object of the previous call.

    A run with a static gauge repeats one object at every snapshot, so its
    curls, divergences and gradients are taken once and shared between
    frames; a time-varying series computes each frame's anew, and only the
    last result is held.  The shared arrays are read-only, so an in-place
    write fails instead of changing other frames.
    """
    last = [None, None]

    def lookup(g):
        if last[0] is not g:
            last[:] = None, None  # release the old result before computing
            last[:] = g, _freeze(compute(g))
        return last[1]

    return lookup


# ---------------------------------------------------------------------------
# continuity and current conservation

def continuity_residual(
    times: Sequence[float],
    densities: Sequence[np.ndarray],
    currents: Sequence[VectorField],
) -> ResidualReport:
    """r = df/dt + div J at the interior snapshot times."""
    rows = _continuity_rows(densities, currents)
    return _interior(times, rows, densities=densities, currents=currents)["continuity"]


def _continuity_rows(densities, currents):
    def rows(i, rate):
        div_j = divergence(currents[i].components, currents[i].grid)
        return {"continuity": (rate(lambda k: densities[k]) + div_j,)}

    return rows


def four_current_divergence(
    times: Sequence[float],
    currents: Sequence[FourCurrent],
    consts: PhysicalConstants,
) -> ResidualReport:
    """r = (1/c) dJ^0/dt + div J at the interior snapshot times."""
    rows = _four_current_rows(currents, consts)
    return _interior(times, rows, currents=currents)["four_current_divergence"]


def _four_current_rows(currents, consts):
    def rows(i, rate):
        j0_rate = rate(lambda k: currents[k].j0) / consts.c
        return {"four_current_divergence": (j0_rate + currents[i].spatial_divergence(),)}

    return rows


# ---------------------------------------------------------------------------
# quantum potential and the Hamilton-Jacobi balance

def quantum_potential(psi: ComplexScalarField, consts: PhysicalConstants):
    """Q = (alpha/beta) * Lap|psi|/|psi| away from nodes; returns (Q, mask).

    Evaluated through Lap|psi|/|psi| = Re(Lap psi / psi) + |grad phi|^2, which
    stays smooth where |psi| has kinks (sign-changing real states).
    """
    polar = _polar(psi, consts.alpha / consts.beta)
    return polar.q, polar.mask


def quantum_force(psi: ComplexScalarField, consts: PhysicalConstants):
    """-grad Q as node-safe pointwise combinations; returns (components, mask).

    Spatially differentiating the masked Q samples would ring: the mask edge
    is a jump, and spectral derivatives are global.  Instead every derivative
    lands on psi itself (smooth), and the division happens last:

        grad(Lap|psi|/|psi|) = Re(grad(Lap psi)/psi - (Lap psi/psi)(grad psi/psi))
                               + 2 sum_b Im(d_b psi/psi) Im(d_a d_b psi/psi
                               - (d_a psi/psi)(d_b psi/psi)).

    Every derivative comes from the one transform of psi that J and Q share.
    """
    polar = _polar(psi, force_scale=consts.alpha / consts.beta)
    return tuple(polar.force), polar.mask


def phase_rate_from_snapshots(
    earlier: ComplexScalarField,
    later: ComplexScalarField,
    spacing: float,
    middle: Optional[ComplexScalarField] = None,
):
    """Phase change rate angle(psi_later * conj(psi_earlier)) / spacing.

    Returns (rate, mask, jumps); jumps marks points whose phase advanced by
    nearly pi or more in one spacing, where the branch is ambiguous.  They are
    reported, never corrected.  Given the snapshot between the two, jumps also
    marks points where the two half turns do not add up to the whole one (by
    2 pi): there the whole turn passed pi and wrapped below the threshold.
    """
    if spacing == 0.0:
        raise ValueError("snapshot spacing must be nonzero")
    if any(s.grid != earlier.grid for s in (later, middle) if s is not None):
        raise ValueError("snapshots live on different grids")
    mask = node_mask(density(earlier)) | node_mask(density(later))
    angle = np.angle(later.values * np.conj(earlier.values))
    jumps = (np.abs(angle) > _JUMP_FRACTION * np.pi) & ~mask
    if middle is not None:
        halves = (np.angle(middle.values * np.conj(earlier.values))
                  + np.angle(later.values * np.conj(middle.values)))
        jumps |= (np.abs(halves - angle) > np.pi) & ~mask
    rate = np.where(mask, 0.0, angle / spacing)
    return rate, mask, jumps


def hamilton_jacobi_residual(
    psi: ComplexScalarField,
    gauge: GaugeConfiguration,
    consts: PhysicalConstants,
    phase_rate: np.ndarray,
    rate_mask: Optional[np.ndarray] = None,
    dt: Optional[float] = None,
    parts: Optional[tuple] = None,
) -> ResidualReport:
    """r = -(1/beta) dphi/dt + |<v>|^2/(4 alpha beta) - U - Q.

    phase_rate is the centered phase derivative (see phase_rate_from_snapshots);
    with the standard constants the balance reads
    -hbar dphi/dt - (m/2)|<v>|^2 - U - Q.  parts is psi's (f, J components,
    Q, node mask), for a caller that has them; without it psi is
    differentiated here.
    """
    if parts is None:
        polar = _polar(psi, consts.alpha / consts.beta, "velocity")
        parts = polar.f, _current(polar.f, polar.flux, gauge, consts), polar.q, polar.mask
    f, current, q, mask = parts
    speed2 = sum(_ratio(j, f, mask) ** 2 for j in current)
    if rate_mask is not None:
        mask = mask | rate_mask
    r = (
        -phase_rate / consts.beta
        + speed2 / (4.0 * consts.alpha * consts.beta)
        - gauge.u
        - q
    )
    return _Tally().add(r, mask).report("hamilton_jacobi", dt, r)


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
    computed once for consecutive frames that repeat one gauge object and
    shared, read-only, by those frames.  Returns (interior_times,
    [MaxwellFrame]), the frames _em_frame forms in _interior's loop.
    """
    frame, frames = _em_frame(gauges, consts, q_series, family), []
    _interior(times, lambda i, rate: frames.append(frame(i, rate)) or {},
              gauges=gauges, q_series=q_series)
    return list(times[1:-1]), frames


def _em_frame(gauges, consts, q_series=None, family="psi"):
    """The MaxwellFrame of em_fields at interior frame i, as frame(i, rate) for
    _interior's rows: it reads gauges i - 1 to i + 1 (refused off gauges[0]'s
    grid) and only q_series[i], so q_series may hold frames i - 1 to i + 1 alone."""
    if family not in FAMILIES:
        raise ValueError(f"unknown field family {family!r}, expected one of {FAMILIES}")
    coeff, a_name = 2.0 * consts.alpha * consts.beta / consts.gamma, f"a_{family}"

    def static(g):
        b = _curl3(getattr(g, a_name).components, g.grid)
        if family != "quantum" and g.b_external is not None:
            b = tuple(c + ext for c, ext in zip(b, g.b_external))
        grad_u = tuple(spectral_gradient(g.u, g.grid)) if family == "classical" else ()
        return b, grad_u

    per_gauge = _per_gauge(static)

    def frame(i, rate):
        grid = gauges[0].grid
        if any(gauges[k].grid != grid for k in (i - 1, i, i + 1)):
            raise ValueError("gauge snapshots live on different grids")
        b, grad = per_gauge(gauges[i])
        if family != "classical":
            q = np.zeros(grid.shape) if q_series is None else q_series[i]
            grad = spectral_gradient(gauges[i].u + q if family == "psi" else q, grid)
        e = tuple(-rate(lambda k: getattr(gauges[k], a_name).components[ax]) - coeff * gr
                  for ax, gr in enumerate(grad))
        return MaxwellFrame(grid, e, b)

    return frame


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
    divergences are taken once for consecutive frames that repeat one
    gauge object.
    """
    rows = _gauge_rows(gauges, consts, q_series)
    return tuple(_interior(times, rows, gauges=gauges, q_series=q_series).values())


def _gauge_rows(gauges, consts, q_series):
    q = (lambda k: 0.0) if q_series is None else (lambda k: q_series[k])
    coeff = 2.0 * consts.alpha * consts.beta / consts.gamma
    inv_qc2 = 1.0 / (consts.q * consts.c**2)
    divs = _per_gauge(lambda g: tuple(
        divergence(a.components, g.grid) for a in (g.a_psi, g.a_classical, g.a_quantum)
    ))

    def rows(i, rate):
        div_psi, div_cl, div_q = divs(gauges[i])
        v_rate = rate(lambda k: gauges[k].u + q(k))
        return {
            "gauge_psi": (div_psi + coeff / consts.c**2 * v_rate,),
            "gauge_lorentz": (div_cl + inv_qc2 * rate(lambda k: gauges[k].u),),
            "gauge_quantum": (div_q + inv_qc2 * rate(q),),
        }

    return rows


def self_consistency_residual(
    e_psi: VectorField, f: np.ndarray, consts: PhysicalConstants
) -> ResidualReport:
    """r = eps0 div E_psi - q f; measured, never enforced."""
    r = consts.eps0 * divergence(e_psi.components, e_psi.grid) - consts.q * f
    return _Tally().add(r).report("self_consistency", per_point=r)


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
    def rows(i, rate):
        fr, grid = frames[i], frames[0].grid
        curl_e, curl_b = _curl3(fr.e, grid), _curl3(fr.b, grid)
        de = (rate(lambda k: frames[k].e[ax]) for ax in range(3))
        db = (rate(lambda k: frames[k].b[ax]) for ax in range(3))
        return {
            "gauss_electric": (consts.eps0 * divergence(fr.e[: grid.dim], grid) - fr.rho,),
            "gauss_magnetic": (divergence(fr.b[: grid.dim], grid),),
            "faraday": tuple(c + d for c, d in zip(curl_e, db)),
            "ampere": tuple(
                c / consts.mu0 - consts.eps0 * d - j for c, d, j in zip(curl_b, de, fr.j)
            ),
        }

    return _interior(times, rows, frames=frames)
