"""Pilot-wave path integration: flow advection and the force law.

Two independent ways to trace a particle riding the probability flow:

    advect      dr/dt = <v>(r, t), the velocity field itself
    force_path  dr/dt = v, dv/dt = -gamma (E(r,t) + v x B(r,t))

Both run through one batched, fixed-step RK4 integrator; each supplies
only its right-hand side and its rule for frozen particles.  A single
start (a scalar or shape (dim,)) gives one Path, and a stack of shape
(N, dim) is integrated in one batch and gives one Path per start, in
order.  The field is evaluated once per step boundary, and that value is
reused as the step's k1.  When the two are seeded consistently
(v0 equal to the flow velocity at the start point) they must agree; that
agreement is the executable content of the force-law theorem and is what
the cross-validation tests check.

Field values between grid points come from samplers.  All samplers share
one calling convention:

    sampler(points, t) -> (values, masked)

with ``points`` of shape (N, dim), ``values`` of shape (N, ncomp) and
``masked`` a boolean (N,) row mask.  A grid sampler stores its series as
one (times, components, *grid) array, evaluates every component of the
one or two snapshots bracketing t at once, and is linear in time between
them (clamped at the ends).  Its series is written one snapshot at a
time, by the constructor or by a caller that fills it in a pass: the
components into _frame(t), then _keep(t, mask), which stores them and
the node mask.  Spatial evaluation is either trigonometric
("spectral", exact for band-limited data; the series is real, so it is
stored as half spectra, the first axis is one GEMM, and the others are
contracted point by point) or local cubic ("tricubic",
Catmull-Rom, O(4^dim) per point).  The cubic converges at third order in
the spacing; on a unit-amplitude field resolved with 40+ samples per
wavelength (k <= 3 content at n = 128 on a 2 pi box) the error stays
below 1e-4.

Velocity fields deserve care: <v> = J/f is masked near nodes, and a
masked array has jump edges that global trigonometric interpolation
turns into ringing everywhere.  FlowSampler is therefore the grid
sampler of the smooth series (f, J) that divides at the evaluation
point; its one node floor is fixed from the peak density when the last
snapshot is kept.
GridFieldSampler interpolates raw components and is the right tool for
globally smooth fields (E, B, A) or, with the tricubic method, for
anything evaluated far from mask edges.

A trajectory that enters a masked node region is frozen rather than
extrapolated: a flow path keeps its last valid velocity, a force path
coasts with zero acceleration, its Path flags the sample and lists a
(time, reason) event where the flag turns on, and integration continues
until the sampler reports valid values again.  Mask checks happen at step
boundaries, not inside RK4 substeps.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import NODE_EPSILON, NodeError, VectorField, _ratio
from .lattice import Grid, _check_shape

__all__ = [
    "AnalyticSampler",
    "GridFieldSampler",
    "FlowSampler",
    "EMSeries",
    "Path",
    "advect",
    "advect_ensemble",
    "force_path",
    "sample_density",
    "sample_inverse_cdf",
]

_MASK_REASON = "entered masked node region"


# ---------------------------------------------------------------------------
# point evaluation on periodic grids


def _point_array(points, dim: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"points must have shape (N, {dim}), got {pts.shape}")
    return pts


def _half_wavenumbers(grid: Grid, axis: int) -> np.ndarray:
    """The wavenumbers of one axis of a _half_spectrum: the first n//2 + 1
    on the last axis; on an even axis before it, every mode and then +k
    of the Nyquist mode."""
    k, n = grid.wavenumbers(axis), grid.n[axis]
    if axis == grid.dim - 1:
        return k[: n // 2 + 1]
    return np.append(k, -k[n // 2]) if n % 2 == 0 else k


def _half_spectrum(values: np.ndarray, grid: Grid, out: np.ndarray) -> None:
    """Write into out the spectrum of a real field, laid out so that the real
    part of its trigonometric sum over _half_wavenumbers is the interpolant
    of the full spectrum.

    rfftn keeps the modes m >= 0 of the last axis, and writes them straight
    into the leading region of out.  A mode 0 < m < n/2 also stands for its
    conjugate at -m, whose wavenumbers on the axes before the last are the
    negated ones; they differ only where such an axis sits at its Nyquist
    mode, so the conjugate term lands on the same mode, doubling it, or on
    the +Nyquist slot of that axis, which starts at zero.  Each axis before
    the last is one run of modes, or for even n the runs below and above
    Nyquist and Nyquist itself, whose conjugate goes to the slot; the terms
    are added one product of runs at a time.
    """
    n = grid.n[-1]
    shape = (*grid.shape[:-1], n // 2 + 1)
    runs = []  # per axis before the last, (modes, where their conjugates land)
    for axis, size in enumerate(shape[:-1]):
        if size % 2:
            runs.append([(slice(0, size),) * 2])
            continue
        nyquist = size // 2
        out[(slice(None),) * axis + (size,)] = 0.0
        runs.append([(slice(0, nyquist),) * 2, (slice(nyquist + 1, size),) * 2,
                     (slice(nyquist, nyquist + 1), slice(size, size + 1))])
    half = np.fft.rfftn(values, out=out[tuple(slice(0, size) for size in shape)])
    paired = slice(1, (n + 1) // 2)  # the modes 0 < m < n/2 of the last axis
    for product in itertools.product(*runs):
        modes, slots = tuple(m for m, _ in product), tuple(s for _, s in product)
        out[(*slots, paired)] += half[(*modes, paired)]


def _spectral_eval(spectra: np.ndarray, grid: Grid, points: np.ndarray) -> np.ndarray:
    """Trigonometric sum of K stacked _half_spectrum arrays at the points: (N, K)."""
    rows, shape = spectra.shape[0], spectra.shape[1:]
    out = np.empty((points.shape[0], rows))
    # blocks of n[0] points: the first contraction is no larger than the spectra
    for start in range(0, points.shape[0], grid.n[0]):
        block = points[start:start + grid.n[0]]
        factors = [
            np.exp(1j * block[:, a, None] * _half_wavenumbers(grid, a)[None, :])
            for a in range(grid.dim)
        ]
        vals = factors[0] @ spectra.reshape(rows, shape[0], -1)
        for a in range(1, grid.dim):
            vals = factors[a][:, None, :] @ vals.reshape(*vals.shape[:2], shape[a], -1)
        out[start:start + grid.n[0]] = vals.reshape(rows, -1).T.real / grid.size
    return out


def _catmull_rom_weights(t: np.ndarray) -> np.ndarray:
    t2 = t * t
    t3 = t2 * t
    return np.stack(
        [
            -0.5 * t3 + t2 - 0.5 * t,
            1.5 * t3 - 2.5 * t2 + 1.0,
            -1.5 * t3 + 2.0 * t2 + 0.5 * t,
            0.5 * t3 - 0.5 * t2,
        ],
        axis=1,
    )


def _tricubic_eval(samples: np.ndarray, grid: Grid, points: np.ndarray) -> np.ndarray:
    """Catmull-Rom sum of K stacked sample arrays (K, *shape) at the points: (N, K).
    One fancy index gathers the 4^dim neighbours of every point, (K, N, 4, ...),
    and each axis, the last first, is contracted with its weights as products
    summed in offset order: elementwise, so a point's value does not depend on
    the other points or components of the call (an einsum's order does)."""
    index, weights = [], []
    for a in range(grid.dim):
        u = points[:, a] / grid.spacing[a]
        base = np.floor(u).astype(np.int64)
        weights.append(_catmull_rom_weights(u - base).reshape(-1, *[1] * a, 4))
        shape = [-1] + [1] * grid.dim
        shape[1 + a] = 4
        index.append(((base[:, None] + np.arange(-1, 3)) % grid.n[a]).reshape(shape))
    out = samples[(slice(None), *index)]
    for w in reversed(weights):
        out = (out[..., 0] * w[..., 0] + out[..., 1] * w[..., 1]
               + out[..., 2] * w[..., 2] + out[..., 3] * w[..., 3])
    return out.T


# ---------------------------------------------------------------------------
# samplers


class AnalyticSampler:
    """Wraps a closed-form field v(points, t); never masks."""

    def __init__(self, func: Callable, lengths: Optional[Sequence[float]] = None):
        self.func = func
        self.lengths = None if lengths is None else np.asarray(lengths, dtype=float)

    def __call__(self, points: np.ndarray, t: float):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.asarray(self.func(pts, t), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return vals, np.zeros(pts.shape[0], dtype=bool)


class GridFieldSampler:
    """Interpolates a time series of grid component arrays at points.

    snapshots: one entry per time, each a VectorField or a sequence of
    component arrays.  All snapshots need the same component count, and
    every sample must be finite.
    masks: optional per-time boolean node masks of the grid's shape; a
    queried point is masked when its nearest cell is masked in either
    bracketing snapshot.
    """

    def __init__(self, grid: Grid, times, snapshots, *, method: str = "spectral",
                 masks=None):
        comps = [
            snap.components if isinstance(snap, VectorField) else tuple(snap)
            for snap in snapshots
        ]
        self._setup(grid, times, method, len(comps[0]) if comps else 0, masks is not None)
        if len(comps) != self.times.size:
            raise ValueError(
                f"got {len(comps)} snapshots for {self.times.size} times"
            )
        if any(len(parts) != self.ncomp for parts in comps):
            raise ValueError("snapshots disagree on component count")
        if masks is not None:
            masks = [_check_shape(m, grid, "mask", bool) for m in masks]
            if len(masks) != self.times.size:
                raise ValueError("need one mask per snapshot")
        for t, parts in enumerate(comps):
            frame = self._frame(t)
            for c, p in enumerate(parts):
                frame[c] = _check_shape(p, grid, "component", float)
                if not np.isfinite(frame[c]).all():
                    raise ValueError(f"snapshot {t} component {c} has non-finite samples")
            self._keep(t, None if masks is None else masks[t])

    @classmethod
    def _filling(cls, grid: Grid, times, ncomp: int, *, method: str = "spectral",
                 masked: bool = False) -> "GridFieldSampler":
        """A sampler of ncomp components, and of node masks when masked, whose
        series the caller writes one snapshot at a time, as the constructor
        does: snapshot t's components into _frame(t), then _keep(t, mask)."""
        sampler = cls.__new__(cls)
        sampler._setup(grid, times, method, ncomp, masked)
        return sampler

    def _setup(self, grid: Grid, times, method: str, ncomp: int, masked: bool) -> None:
        if method not in ("spectral", "tricubic"):
            raise ValueError(f"unknown interpolation method {method!r}")
        self.grid = grid
        self.method = method
        self.lengths = np.asarray(grid.length, dtype=float)
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("need a non-empty 1D time array")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must be strictly increasing")
        self.ncomp, self._scratch = ncomp, None
        self.masks = np.empty((self.times.size, *grid.shape), dtype=bool) if masked else None
        spectral = method == "spectral"
        shape = (
            [_half_wavenumbers(grid, a).size for a in range(grid.dim)]
            if spectral else grid.shape
        )
        self._data = np.empty(
            (self.times.size, ncomp, *shape), dtype=complex if spectral else float
        )

    def _frame(self, t: int) -> np.ndarray:
        """Where snapshot t's components are written, (ncomp, *grid), before
        _keep(t): the tricubic samples themselves, or one frame of samples,
        held until _keep transforms it into the spectra."""
        if self.method == "tricubic":
            return self._data[t]
        if self._scratch is None:
            self._scratch = np.empty((self.ncomp, *self.grid.shape))
        return self._scratch

    def _keep(self, t: int, mask=None) -> None:
        """Store snapshot t's components from _frame(t), and its node mask if
        the sampler was made with masks: each spectral component's transform
        writes into its slot."""
        if self.method == "spectral":
            for c, values in enumerate(self._scratch):
                _half_spectrum(values, self.grid, self._data[t, c])
            self._scratch = None
        if self.masks is not None:
            self.masks[t] = mask

    def _bracket(self, t: float):
        times = self.times
        if times.size == 1 or t <= times[0]:
            return 0, 0, 0.0
        if t >= times[-1]:
            return times.size - 1, times.size - 1, 0.0
        i = int(np.searchsorted(times, t, side="right")) - 1
        return i, i + 1, (t - times[i]) / (times[i + 1] - times[i])

    def __call__(self, points: np.ndarray, t: float):
        pts = _point_array(points, self.grid.dim)
        lo, hi, w = self._bracket(float(t))
        top = hi if w != 0.0 else lo
        evaluate = _spectral_eval if self.method == "spectral" else _tricubic_eval
        vals = evaluate(
            self._data[lo:top + 1].reshape(-1, *self._data.shape[2:]), self.grid, pts
        ).reshape(pts.shape[0], -1, self.ncomp)
        vals = (1.0 - w) * vals[:, 0] + w * vals[:, 1] if top != lo else vals[:, 0]
        if self.masks is None:
            masked = np.zeros(pts.shape[0], dtype=bool)
        else:
            cells = np.rint(pts / self.grid.spacing).astype(np.int64) % self.grid.n
            masked = self.masks[(slice(lo, hi + 1), *cells.T)].any(axis=0)
        return vals, masked


class FlowSampler(GridFieldSampler):
    """Probability-flow velocity <v> = J/f off-grid, node-safe.

    A grid sampler of the smooth series (density, current) that divides at
    the evaluation point; points where the interpolated density falls below
    NODE_EPSILON of the series peak are masked.  The floor is fixed once,
    from the running peak of the densities kept, when the last snapshot is
    kept, not taken by node_mask per call: the interpolated values at a few
    points say nothing about the peak of the grid.  A filling flow sampler
    has 1 + dim components, density first.
    """

    def __init__(self, grid: Grid, times, densities, currents, *,
                 method: str = "spectral"):
        super().__init__(grid, times, [
            (d, *(j.components if isinstance(j, VectorField) else j))
            for d, j in zip(densities, currents, strict=True)
        ], method=method)

    def _setup(self, *args) -> None:
        super()._setup(*args)
        self._peak = 0.0

    def _keep(self, t: int, mask=None) -> None:
        self._peak = max(self._peak, float(self._frame(t)[0].max()))
        super()._keep(t, mask)
        if t == self.times.size - 1:
            if self.ncomp != 1 + self.grid.dim:
                raise ValueError(
                    f"current needs {self.grid.dim} components, got {self.ncomp - 1}"
                )
            self._floor = NODE_EPSILON * self._peak
            if self._floor <= 0.0:
                raise NodeError("flow velocity undefined: density has no support")

    def __call__(self, points: np.ndarray, t: float):
        vals, _ = super().__call__(points, t)
        f_col, j_vals = vals[:, 0], vals[:, 1:]
        masked = f_col < self._floor
        return _ratio(j_vals, f_col[:, None], masked[:, None]), masked


@dataclass(frozen=True)
class EMSeries:
    """Paired electric (grid-dim components) and magnetic (3) samplers."""

    e: object
    b: object

    @classmethod
    def from_frames(cls, grid: Grid, times, frames, *,
                    method: str = "spectral") -> "EMSeries":
        """Build from diagnostic Maxwell frames (see ``em_fields``)."""
        return cls(
            e=GridFieldSampler(grid, times, [fr.e[: grid.dim] for fr in frames],
                               method=method),
            b=GridFieldSampler(grid, times, [fr.b for fr in frames], method=method),
        )


# ---------------------------------------------------------------------------
# paths


@dataclass
class Path:
    """One integrated trajectory with per-sample node flags.

    mask_events is not an argument: it holds one (t, reason) per sample whose
    flag turns on, a masked first sample included."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    masked: np.ndarray
    mask_events: list = field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        self.masked = np.asarray(self.masked, dtype=bool)
        n = self.times.size
        if self.positions.shape[0] != n or self.velocities.shape[0] != n:
            raise ValueError("positions/velocities must match times in length")
        if self.masked.shape != (n,):
            raise ValueError("masked must be one flag per sample")
        if n > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("path times must be strictly increasing")
        onsets = self.masked & ~np.concatenate(([False], self.masked[:-1]))
        self.mask_events = [(t, _MASK_REASON) for t in self.times[onsets].tolist()]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def to_csv(self) -> str:
        names = "xyz"[: self.dim]
        header = ["t", *names, *(f"v{c}" for c in names), "masked"]
        lines = [",".join(header)]
        for i in range(self.times.size):
            row = [f"{self.times[i]:.17g}"]
            row += [f"{v:.17g}" for v in self.positions[i]]
            row += [f"{v:.17g}" for v in self.velocities[i]]
            row.append("1" if self.masked[i] else "0")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _wrap(points: np.ndarray, lengths) -> np.ndarray:
    if lengths is None:
        return points
    return np.mod(points, lengths)


def _rk4(state, rhs, hold, dim: int, lengths, dt: float, steps: int, *, record: bool):
    """The one RK4 loop over a batch of state rows, positions first.

    rhs(state, t) -> (derivative, masked) is the path kind's right-hand
    side and hold(derivative, frozen, held) its rule for frozen rows, with
    ``held`` the step's k1 (at a step boundary, the previous step's).  The
    right-hand side is evaluated once per boundary and that value is k1.
    Returns (state, frozen, trail); the trail has one (t, positions, dr/dt,
    frozen) record per boundary.
    """
    dt, steps = float(dt), int(steps)
    state = np.array(state, dtype=float)
    state[:, :dim] = _wrap(state[:, :dim], lengths)
    k1 = np.zeros_like(state)
    trail = []
    for step in range(steps + 1):
        t = step * dt
        raw, frozen = rhs(state, t)
        k1 = hold(raw, frozen, k1)
        if record:
            trail.append(
                (t, state[:, :dim].copy(), k1[:, :dim].copy(), frozen.copy())
            )
        if step == steps:
            break
        k2 = hold(rhs(state + 0.5 * dt * k1, t + 0.5 * dt)[0], frozen, k1)
        k3 = hold(rhs(state + 0.5 * dt * k2, t + 0.5 * dt)[0], frozen, k1)
        k4 = hold(rhs(state + dt * k3, t + dt)[0], frozen, k1)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        state[:, :dim] = _wrap(state[:, :dim], lengths)
    return state, frozen, trail


def _starts(r0) -> tuple[np.ndarray, bool]:
    """Start rows of shape (N, dim), and whether r0 was a single start."""
    arr = np.asarray(r0, dtype=float)
    if arr.ndim <= 1:
        return np.atleast_1d(arr)[None, :], True
    return arr, False


def _paths(trail, single: bool):
    times = np.array([rec[0] for rec in trail])
    positions, velocities, masked = (
        np.stack([rec[k] for rec in trail], axis=1) for k in (1, 2, 3)
    )
    paths = [
        Path(times, positions[i], velocities[i], masked[i])
        for i in range(len(masked))
    ]
    return paths[0] if single else paths


def _hold_last_velocity(vals, frozen, held):
    # a frozen flow row keeps its last valid velocity
    return np.where(frozen[:, None], held, vals)


def advect(r0, velocity, dt: float, steps: int) -> Path | list[Path]:
    """RK4 trajectory of dr/dt = <v>(r, t) from r0 at t = 0.

    A single start (a scalar or shape (dim,)) gives one Path; a stack of
    shape (N, dim) is integrated in one batch and gives N Paths in order.
    """
    starts, single = _starts(r0)
    _, _, trail = _rk4(
        starts, velocity, _hold_last_velocity, starts.shape[1],
        getattr(velocity, "lengths", None), dt, steps, record=True,
    )
    return _paths(trail, single)


def advect_ensemble(points, velocity, dt: float, steps: int):
    """Vectorized advect over many start points; returns (positions, frozen)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    final, frozen, _ = _rk4(
        pts, velocity, _hold_last_velocity, pts.shape[1],
        getattr(velocity, "lengths", None), dt, steps, record=False,
    )
    return final, frozen


def _embed3(vals: np.ndarray) -> np.ndarray:
    if vals.shape[1] == 3:
        return vals
    out = np.zeros((vals.shape[0], 3))
    out[:, : vals.shape[1]] = vals
    return out


def force_path(r0, v0, em: EMSeries, gamma: float, dt: float,
               steps: int) -> Path | list[Path]:
    """RK4 of dr/dt = v, dv/dt = -gamma (E + v x B) from (r0, v0) at t = 0.

    E supplies grid-dim components, B three; velocities are embedded in 3D
    for the cross product and the out-of-plane acceleration is dropped,
    which is exact whenever B is normal to the simulation plane.  A frozen
    row coasts with zero acceleration.  Starts batch as in ``advect``, with
    v0 shaped like r0.
    """
    starts, single = _starts(r0)
    vel = np.atleast_2d(np.asarray(v0, dtype=float))
    if vel.shape != starts.shape:
        raise ValueError("r0 and v0 must have the same dimension")
    dim = starts.shape[1]

    def rhs(state, t):
        pos, vels = state[:, :dim], state[:, dim:]
        e_vals, e_masked = em.e(pos, t)
        b_vals, b_masked = em.b(pos, t)
        acc3 = -gamma * (_embed3(e_vals) + np.cross(_embed3(vels), b_vals))
        return np.concatenate([vels, acc3[:, :dim]], axis=1), e_masked | b_masked

    def hold(deriv, frozen, held):
        deriv[frozen, dim:] = 0.0
        return deriv

    _, _, trail = _rk4(
        np.concatenate([starts, vel], axis=1), rhs, hold, dim,
        getattr(em.e, "lengths", None), dt, steps, record=True,
    )
    return _paths(trail, single)


# ---------------------------------------------------------------------------
# initial-condition sampling


def sample_inverse_cdf(grid: Grid, marginals, count: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw positions from a separable density given per-axis marginals.

    Each marginal is sampled on its axis; the draw is sample_density of
    their outer product.  Deterministic for a given generator state.
    """
    if len(marginals) != grid.dim:
        raise ValueError(f"need {grid.dim} marginals, got {len(marginals)}")
    cols = []
    for axis, marg in enumerate(marginals):
        f = np.asarray(marg, dtype=float)
        if f.shape != (grid.n[axis],):
            raise ValueError(
                f"marginal {axis} has shape {f.shape}, expected ({grid.n[axis]},)"
            )
        if np.any(f < 0.0) or f.sum() <= 0.0:
            raise ValueError("marginals must be nonnegative with positive mass")
        cols.append(f)
    return sample_density(grid, functools.reduce(np.multiply, np.ix_(*cols)), count, rng)


def sample_density(grid: Grid, density, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw positions exactly from an arbitrary grid density.

    Picks a cell from the CDF of the flattened grid, then draws uniformly
    within that cell: the density is read as piecewise constant over the
    cell centered on each node, which keeps the discrete mean unbiased.
    Deterministic for a given generator state.
    """
    f = _check_shape(density, grid, "density", float)
    if np.any(f < 0.0) or f.max() <= 0.0:
        raise ValueError("density must be nonnegative with positive mass")
    cdf = np.cumsum(f)
    cdf /= cdf[-1]
    flat = np.minimum(np.searchsorted(cdf, rng.random(count), side="right"), f.size - 1)
    cells = np.stack(np.unravel_index(flat, grid.shape), axis=1)
    spacing = np.asarray(grid.spacing, dtype=float)
    return np.mod((cells + rng.random((count, grid.dim)) - 0.5) * spacing,
                  np.asarray(grid.length, dtype=float))
