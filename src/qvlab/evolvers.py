"""Split-step integrators for the scalar, spinor, and bispinor wave equations,
a leapfrog solver for the four-potential wave equation, and the Taylor
evolution matrix for truncated kinematic-state flows.

The scalar step factors exp(-i*dt*H/hbar) with H = (p - qA)^2/(2m) + U into a
pointwise phase for U + q^2|A|^2/(2m), an exact transform-space kinetic
multiplier, and the cross term -(q/2m)(A.p + p.A).  For uniform A the cross
term is diagonal in transform space, commutes with the kinetic multiplier and
is folded into it, so the whole step is exact; otherwise it is applied through
the series of its generator, summed until the terms fall below roundoff.  The
spinor step is the same stepper, a scalar field being a one-component spinor:
the inner factor runs on each component, and the outer factor gains the exact
2x2 rotation of the magnetic moment term, which only run_pauli forms.  The
bispinor step pairs a closed-form free propagator (H_free^2 is scalar in
transform space, so it is applied entry by entry to the transformed
components without a matrix field) with a pointwise closed-form interaction
exponential.  Each split step is Strang's symmetric composition, the outer
factor for dt/2 on either side of the inner one, so a step of -dt undoes a
step of dt.

Each equation has one stepper, built once per run: its factory computes every
factor fixed for the run (for the leapfrog, the CFL check and the source) and
returns a function that advances the state a given number of steps.  The
run_* functions share one loop, which advances one snapshot stride at a time,
hands each kept state out as its stride ends (a caller that writes them need
not hold them) and builds no stepper for a run of zero steps; a single step
is the last snapshot of a one-step run.  Each run function takes fields of
one class and refuses any other with a TypeError.

Between two snapshots the k split steps run as one block,
O(dt/2) . I . [O(dt) . I]^(k-1) . O(dt/2), with O the outer factor and I the
inner one: the outer halves of adjacent steps are pointwise exponentials of
one generator fixed for the run, so they merge into one outer factor of dt
(McLachlan & Quispel, Acta Numerica 11, 2002).  Every snapshot is still an
exact Strang state, so a block of -dt undoes a block of dt; the merged factor
rounds differently from two halves, so the states differ from step-by-step
composition by roundoff.

When the Hamiltonian is diagonal in transform space, every factor commutes
and the split propagator is exact for any duration (Feit, Fleck & Steiger,
J. Comput. Phys. 47, 412, 1982), so a block of k steps is one multiplier for
k*dt, applied with one transform pair per component.  The steppers take that
path when the outer factor is a scalar phase and the inner one has no
position-dependent part: for Schrodinger, and Pauli without an external B,
a uniform U and a uniform A (which has no curl); for Dirac a uniform phi and
A = 0.  Each block length's multiplier is built once; a run has two at
most, the stride and a shorter last block.  The merged multiplier rounds
differently from k steps, so states differ from the Strang block by
roundoff, and no potential-phase warning is given, since the splitting has
no error to degrade.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .algebra import sigma_apply, sigma_parts
from .decomposition import FourCurrent, GaugeConfiguration, PhysicalConstants
from .fields import BispinorField, ComplexScalarField, SpinorField, _ratio
from .lattice import (
    Grid, _curl3, _grid_components, _kmesh, divergence, k_squared, spectral_gradient,
    spectral_laplacian,
)

__all__ = [
    "EvolutionParams",
    "EvolutionTrace",
    "FourPotential",
    "WaveState",
    "wave_initial_state",
    "run_schrodinger",
    "run_pauli",
    "run_dirac",
    "run_wave",
    "magnetic_field",
    "gps_matrix",
    "gps_apply",
    "TaylorEvolutionMatrix",
]

_STABILITY = 0.5  # leapfrog bound: c*|dt| <= _STABILITY * smallest spacing


@dataclass(frozen=True)
class EvolutionParams:
    """Step size and bookkeeping for a run.  dt may be negative so a step
    can be undone, since the symmetric split step has S(-dt) = S(dt)^-1; the
    wave solver also bounds c*|dt| by half the smallest grid spacing."""

    dt: float
    steps: int
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.dt == 0.0 or not math.isfinite(self.dt):
            raise ValueError("dt must be nonzero and finite")
        if self.steps < 0:
            raise ValueError(f"step count must be nonnegative, got {self.steps}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")

    @property
    def snapshot_steps(self) -> list[int]:
        """The steps a run keeps: every snapshot_stride-th and the last."""
        return [*range(0, self.steps, self.snapshot_stride), self.steps]


@dataclass
class EvolutionTrace:
    """Snapshots at the run's EvolutionParams.snapshot_steps."""

    times: list[float]
    snapshots: list


def _run(state, params: EvolutionParams, build, clock=None):
    """Advance `state` from one of params.snapshot_steps to the next with the
    stepper `build()` returns, advance(state, steps), built only when there is
    a step to take, and hand out (time, state) as each stride ends; snapshot
    times are step*dt unless `clock` reads them off the state."""
    kept = params.snapshot_steps
    advance = build() if params.steps else None
    for done, step in zip([0, *kept], kept):
        if step > done:
            state = advance(state, step - done)
        yield (clock(state) if clock else step * params.dt), state


def _trace(kept) -> EvolutionTrace:
    """The EvolutionTrace of the (time, state) pairs a run hands out."""
    trace = EvolutionTrace([], [])
    for t, state in kept:
        trace.times.append(t)
        trace.snapshots.append(state)
    return trace


def _strang(half, full, inner, multiplier):
    """The block stepper of one Strang scheme.  Each factor writes
    factor(src) into dst, which shares no memory with src; `half` and `full`
    are the outer factor for dt/2 and dt and leave src intact, and
    inner(src, dst, multiplier), with the transform-space multiplier for dt,
    may overwrite src.  A block writes into one new array and works in one
    more, kept for the run."""
    work = None

    def advance(values, steps):
        nonlocal work
        if work is None:
            work = np.empty_like(values)
        out = np.empty_like(values)
        half(values, out)
        for step in range(steps):
            if step:
                full(work, out)
            inner(out, work, multiplier)
        half(work, out)
        return out

    return advance


def _exact(factor, inner):
    """The block stepper of a run whose factors all commute: a block of k
    steps is inner(src, dst, factor(k)), the one transform-space multiplier
    for k*dt.  `inner` may overwrite src.  Each block length's multiplier is
    built once; a block writes into one new array and works in one more,
    kept for the run."""
    work, factors = None, {}

    def advance(values, steps):
        nonlocal work
        if work is None:
            work = np.empty_like(values)
        if steps not in factors:
            factors[steps] = factor(steps)
        np.copyto(work, values)
        out = np.empty_like(values)
        inner(work, out, factors[steps])
        return out

    return advance


def _phase(phase):
    """The outer factor that multiplies by a pointwise phase."""
    return lambda src, dst: np.multiply(src, phase, out=dst)


def _pair_factor(diag, parts, near, far, out, scratch):
    """out = diag*near + (sigma.s) far on two-component arrays, the entries
    of sigma.s given as sigma_parts(s)."""
    sigma_apply(parts, far, out, scratch)
    for comp, src in zip(out, near):
        comp += np.multiply(diag, src, out=scratch)


# ---------------------------------------------------------------------------
# scalar / spinor steps

def _potential_energy(gauge: GaugeConfiguration, consts: PhysicalConstants) -> np.ndarray:
    a2 = sum(c * c for c in gauge.a_psi.components)
    return gauge.u + consts.q**2 * a2 / (2.0 * consts.m)


def _uniform_components(components) -> Optional[list[float]]:
    """Constant value per component array, or None if any component varies."""
    out = []
    for comp in components:
        flat = comp.reshape(-1)
        if not np.all(flat == flat[0]):
            return None
        out.append(float(flat[0]))
    return out


def _apply_cross(values, grid, a, coeff):
    """exp(-i*tau*C/hbar) with C = -(q/2m)(A.p + p.A) for non-uniform A, as a
    series in the generator summed until a term falls below roundoff of the
    sum; -i*tau*C/hbar reduces to the real coefficient coeff = tau*q/(2m) on
    div(A psi) + A.grad(psi)."""

    def gen(arr):
        flux = divergence([c * arr for c in a], grid)
        adv = sum(c * g for c, g in zip(a, spectral_gradient(arr, grid)))
        return coeff * (flux + adv)

    out = term = values
    for n in itertools.count(1):
        term = gen(term) / n
        out = out + term
        size = float(np.max(np.abs(term)))
        if not math.isfinite(size):
            raise FloatingPointError("cross-term series overflowed: reduce dt or |A|")
        if size <= np.finfo(float).eps * float(np.max(np.abs(out))):
            return out


def magnetic_field(gauge: GaugeConfiguration) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three B components: curl of a_psi (2D fills the out-of-plane slot,
    1D has no curl) plus any fixed b_external."""
    b = _curl3(gauge.a_psi.components, gauge.grid)
    if gauge.b_external is not None:
        b = tuple(comp + ext for comp, ext in zip(b, gauge.b_external))
    return b


def _sigma_exponential(phase, coeff, v):
    """phase*exp(i*coeff*sigma.v) = d + sigma.s pointwise, as (d, sigma_parts(s)):
    with w = coeff*|v|, d = phase*cos(w) and s = i*phase*(sin(w)/|v|)*v,
    where sin(w)/|v| tends to coeff at v = 0."""
    vmag = np.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    w = coeff * vmag
    zero = vmag == 0.0
    scale = 1j * phase * np.where(zero, coeff, _ratio(np.sin(w), vmag, zero))
    return phase * np.cos(w), sigma_parts([scale * comp for comp in v])


def _spin_factor(b, consts, tau, phase, scratch):
    """The pointwise 2x2 factor R.V: the rotation
    R = exp(i*theta*sigma.n) = cos(theta) + i*sin(theta)*sigma.n with
    theta = (q*tau/2m)|B| times the potential phase V, which commutes with
    it."""
    diag, parts = _sigma_exponential(phase, consts.q * tau / (2.0 * consts.m), b)
    return lambda src, dst: _pair_factor(diag, parts, src, src, dst, scratch)


def _split_stepper(grid, gauge, consts, params, spin=False):
    """Strang steps of i*hbar dpsi/dt = [(p - qA)^2/(2m) + U] psi, plus with
    spin the moment term -(q*hbar/2m) sigma.B: the kinetic multiplier between
    the cross halves on each component (exact to roundoff when A and U are
    uniform, unitary whenever A is) inside the potential phase V, or R.V with
    R the pointwise 2x2 rotation by the moment term when B != 0.  With U and
    A uniform and no external B with spin, every factor is diagonal in
    transform space, and a block is one multiplier for its whole duration."""
    if grid != gauge.grid:
        raise ValueError("field and gauge configuration live on different grids")
    dt = params.dt
    tau = 0.5 * dt
    v = _potential_energy(gauge, consts)
    uniform = _uniform_components(gauge.a_psi.components)
    coeff = None if uniform is not None else tau * consts.q / (2.0 * consts.m)

    def kinetic(t):
        # With A uniform both cross halves are diagonal in transform space and
        # commute with the kinetic multiplier: one phase over the whole time t.
        phase = np.exp(-1j * t * consts.hbar * k_squared(grid) / (2.0 * consts.m))
        if uniform is not None and any(uniform):
            shift = sum(a * _kmesh(grid, axis, True) for axis, a in enumerate(uniform))
            phase = phase * np.exp(1j * t * (consts.q / consts.m) * shift)
        return phase

    def inner(src, dst, k_phase):
        for comp, out in zip(src.reshape(-1, *grid.shape), dst.reshape(-1, *grid.shape)):
            if coeff is not None:
                comp = _apply_cross(comp, grid, gauge.a_psi.components, coeff)
            np.fft.fftn(comp, out=out)
            out *= k_phase
            np.fft.ifftn(out, out=out)
            if coeff is not None:
                out[...] = _apply_cross(out, grid, gauge.a_psi.components, coeff)

    external = gauge.b_external if spin and gauge.b_external is not None else ()
    v0 = _uniform_components([v])
    if uniform is not None and v0 is not None and not any(np.any(c) for c in external):
        # a uniform A has no curl, so B = 0 and V is a scalar phase
        return _exact(lambda steps: kinetic(steps * dt)
                      * np.exp(-1j * steps * dt * v0[0] * consts.beta), inner)
    # a uniform part of v commutes with every factor; only its spread
    # across the grid makes a splitting error
    if abs(dt) * float(np.ptp(v)) * consts.beta > 0.5:
        warnings.warn(
            "potential phase varies by more than 0.5 rad per step; splitting accuracy degrades",
            RuntimeWarning,
        )
    half = np.exp(-1j * tau * v * consts.beta)
    full = np.exp(-1j * dt * v * consts.beta)
    k_phase = kinetic(dt)

    # B comes after the fixed arrays, and after v is freed; without the del,
    # spinor-evolve's 2D Pauli evolve peaks 0.4 MB higher (120 more page faults).
    del v
    b = magnetic_field(gauge) if spin else ()
    if not any(np.any(comp) for comp in b):
        return _strang(_phase(half), _phase(full), inner, k_phase)
    scratch = np.empty(grid.shape, dtype=complex)
    return _strang(_spin_factor(b, consts, tau, half, scratch),
                   _spin_factor(b, consts, dt, full, scratch), inner, k_phase)


# ---------------------------------------------------------------------------
# bispinor step

@dataclass
class FourPotential:
    """Scalar potential phi and the three spatial components of A, sampled on
    (or broadcast to) the grid."""

    grid: Grid
    phi: np.ndarray
    a: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        self.phi = np.broadcast_to(np.asarray(self.phi, dtype=float), self.grid.shape)
        self.a = _grid_components(self.a, self.grid, 3, "FourPotential.a")

    @classmethod
    def free(cls, grid: Grid) -> "FourPotential":
        z = np.zeros(grid.shape)
        return cls(grid, z, (z, z, z))


def _dirac_factor(upper, lower, parts, scratch):
    """The 4x4 factor [[upper, sigma.s], [sigma.s, lower]] on bispinor
    arrays, upper and lower multiplying the identity and the entries of
    sigma.s given as sigma_parts(s)."""

    def apply(src, dst):
        _pair_factor(upper, parts, src[:2], src[2:], dst[:2], scratch)
        _pair_factor(lower, parts, src[2:], src[:2], dst[2:], scratch)

    return apply


def _dirac_interaction(pot, consts, tau, scratch):
    """Pointwise exp(-(i*tau/hbar)(q*phi - q*c*alpha.A)); (alpha.A)^2 = |A|^2
    collapses the exponential to a cosine/sine pair, and with A = 0 it is
    the scalar phase."""
    scalar = np.exp(-1j * consts.q * tau * consts.beta * pot.phi)
    if not any(np.any(c) for c in pot.a):
        return _phase(scalar)
    diag, parts = _sigma_exponential(scalar, consts.q * consts.c * tau * consts.beta, pot.a)
    return _dirac_factor(diag, diag, parts, scratch)


def _dirac_stepper(grid, pot, consts, params):
    """Strang steps of i*hbar dpsi/dt = [c*alpha.(p - qA) + m*c^2*gamma^0
    + q*phi] psi, the free factor inside.  The free factor
    exp(-i*t*H_free/hbar) per wave vector is
    cos(E*t/hbar) - i*sin(E*t/hbar)*H_free/E, since H_free^2 = E^2; its
    entries are cos -+ i*sinc*m*c^2 on the diagonal blocks and
    -i*sinc*sigma.(c*hbar*k) off them, sinc = sin(E*t/hbar)/E.  With phi
    uniform and A = 0 the interaction is a scalar phase that commutes with
    it, and a block is the free factor for its whole duration times that
    phase."""
    if grid != pot.grid:
        raise ValueError("field and potential live on different grids")
    dt = params.dt
    kvecs = [_kmesh(grid, axis, True) if axis < grid.dim else 0.0 for axis in range(3)]
    k2 = sum(kv**2 for kv in kvecs[: grid.dim])
    mc2 = consts.m * consts.c**2
    energy = np.sqrt((consts.c * consts.hbar) ** 2 * k2 + mc2**2)
    scratch = np.empty(grid.shape, dtype=complex)

    def free(t, phase=None):
        # the free factor for a time t, times the scalar phase when given
        angle = t * energy * consts.beta
        cos = np.cos(angle)
        isinc = -1j * np.sin(angle) / energy
        if phase is not None:
            cos, isinc = phase * cos, phase * isinc
        return _dirac_factor(
            cos + isinc * mc2, cos - isinc * mc2,
            sigma_parts([isinc * consts.c * consts.hbar * kv for kv in kvecs]), scratch)

    def inner(src, dst, factor):
        for comp in src:
            np.fft.fftn(comp, out=comp)
        factor(src, dst)
        for comp in dst:
            np.fft.ifftn(comp, out=comp)

    phi = _uniform_components([pot.phi])
    if phi is not None and not any(np.any(c) for c in pot.a):
        return _exact(lambda steps: free(
            steps * dt, np.exp(-1j * consts.q * steps * dt * consts.beta * phi[0])), inner)
    step = free(dt)
    return _strang(_dirac_interaction(pot, consts, 0.5 * dt, scratch),
                   _dirac_interaction(pot, consts, dt, scratch), inner, step)


# ---------------------------------------------------------------------------
# four-potential wave equation

@dataclass
class WaveState:
    """Two leapfrog time levels of the four-potential (A^0, A^1, A^2, A^3);
    curr is at `time`, prev one step earlier."""

    grid: Grid
    prev: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    curr: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    time: float

    def __post_init__(self):
        self.prev = _grid_components(self.prev, self.grid, 4, "WaveState.prev")
        self.curr = _grid_components(self.curr, self.grid, 4, "WaveState.curr")


def _check_cfl(grid: Grid, consts: PhysicalConstants, params: EvolutionParams):
    limit = _STABILITY * min(grid.spacing)
    if consts.c * abs(params.dt) > limit:
        raise ValueError(
            f"CFL violation: c*dt = {consts.c * abs(params.dt):.3e} "
            f"exceeds {limit:.3e}"
        )


def _current_components(j: Optional[FourCurrent], grid: Grid):
    if j is None:
        zeros = np.zeros(grid.shape)
        return (zeros,) * 4
    if j.grid != grid:
        raise ValueError("source current lives on a different grid")
    return (j.j0, *j.jk)


def wave_initial_state(
    grid: Grid,
    a0: Sequence[np.ndarray],
    adot0: Sequence[np.ndarray],
    consts: PhysicalConstants,
    params: EvolutionParams,
    j: Optional[FourCurrent] = None,
) -> WaveState:
    """Build the two time levels leapfrog needs from (A, dA/dt) at t = 0.

    The backward level comes from a third-order Taylor step (the source is
    held static), which keeps the start error below the leapfrog dispersion.
    """
    _check_cfl(grid, consts, params)
    source = _current_components(j, grid)
    dt, c2 = params.dt, consts.c**2
    mu0 = consts.mu0
    curr, prev = [], []
    a0 = _grid_components(a0, grid, 4, "a0")
    adot0 = _grid_components(adot0, grid, 4, "adot0")
    for a, adot, s in zip(a0, adot0, source):
        accel = c2 * (spectral_laplacian(a, grid) + mu0 * s)
        jerk = c2 * spectral_laplacian(adot, grid)
        prev.append(a - dt * adot + 0.5 * dt**2 * accel - dt**3 / 6.0 * jerk)
        curr.append(a)
    return WaveState(grid, tuple(prev), tuple(curr), 0.0)


def _wave_stepper(grid, j, consts, params):
    """Leapfrog update of (1/c^2) d^2A/dt^2 - Lap(A) = mu0*J with the
    spectral Laplacian; the source is held fixed for the run."""
    _check_cfl(grid, consts, params)
    source = _current_components(j, grid)
    step2 = (consts.c * params.dt) ** 2

    def advance(state, steps):
        for _ in range(steps):
            nxt = tuple(
                2.0 * c - p + step2 * (spectral_laplacian(c, grid) + consts.mu0 * s)
                for p, c, s in zip(state.prev, state.curr, source)
            )
            state = WaveState(grid, state.curr, nxt, state.time + params.dt)
        return state

    return advance


# ---------------------------------------------------------------------------
# truncated kinematic-state evolution

@dataclass(frozen=True, eq=False)
class TaylorEvolutionMatrix:
    """Upper-triangular Taylor-shift matrix M_ij = t^(j-i)/(j-i)!.

    entries is not an argument: it is formed from order and t, each t^k/k!
    as one rounding of the exact ratio, so entries too small for a float
    are 0 and one too large raises ValueError.  The diagonal is identically
    1, so det M = 1 exactly at every order."""

    order: int
    t: float
    entries: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be at least 1, got {self.order}")
        num, den = float(self.t).as_integer_ratio()
        try:
            terms = [num**k / (den**k * math.factorial(k)) for k in range(self.order)]
        except OverflowError:
            raise ValueError(f"t^k/k! exceeds the float range at order {self.order}, "
                             f"t = {self.t}") from None
        lags = np.arange(self.order)
        m = np.triu(np.array(terms)[np.abs(lags[:, None] - lags)])
        m.flags.writeable = False
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "entries", m)

    @property
    def det(self) -> float:
        return float(np.prod(np.diag(self.entries)))


def gps_matrix(order: int, t: float) -> TaylorEvolutionMatrix:
    """Evolution matrix for a kinematic state (r, v, dv/dt, ...) truncated at
    `order` slots."""
    return TaylorEvolutionMatrix(order, t)


def gps_apply(matrix: TaylorEvolutionMatrix, state) -> np.ndarray:
    """Advance a kinematic-state vector (leading axis indexes the derivative
    order; trailing axes ride along)."""
    state = np.asarray(state, dtype=float)
    if state.shape[0] != matrix.order:
        raise ValueError(
            f"state has {state.shape[0]} slots, matrix expects {matrix.order}"
        )
    return np.einsum("ij,j...->i...", matrix.entries, state)


# ---------------------------------------------------------------------------
# run drivers

def _kept(name, cls, stepper, **options):
    """The driver kept(psi, potential, consts, params) of one equation: _run on
    a field of class cls with stepper(grid, potential, consts, params, **options)
    lifted to fields, handing out the kept (time, state) pairs run_* collects.
    Any other class is a TypeError naming `name`, raised before a stepper is built."""
    def kept(psi, potential, consts, params):
        if not isinstance(psi, cls):
            raise TypeError(f"{name} needs a {cls.__name__}, got a {type(psi).__name__}")

        def on_field():
            advance = stepper(psi.grid, potential, consts, params, **options)
            return lambda field, steps: type(psi)(psi.grid, advance(field.values, steps))

        return _run(psi, params, on_field)

    return kept


_kept_schrodinger = _kept("run_schrodinger", ComplexScalarField, _split_stepper)
_kept_pauli = _kept("run_pauli", SpinorField, _split_stepper, spin=True)
_kept_dirac = _kept("run_dirac", BispinorField, _dirac_stepper)


def run_schrodinger(psi, gauge, consts, params) -> EvolutionTrace:
    return _trace(_kept_schrodinger(psi, gauge, consts, params))


def run_pauli(psi, gauge, consts, params) -> EvolutionTrace:
    return _trace(_kept_pauli(psi, gauge, consts, params))


def run_dirac(psi, pot, consts, params) -> EvolutionTrace:
    return _trace(_kept_dirac(psi, pot, consts, params))


def run_wave(state: WaveState, j, consts, params) -> EvolutionTrace:
    return _trace(_run(state, params, lambda: _wave_stepper(state.grid, j, consts, params),
                       clock=lambda s: s.time))
