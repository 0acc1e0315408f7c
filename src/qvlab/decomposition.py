"""Probability currents, mean-velocity fields, and their Helmholtz-type
splitting into gradient and prescribed-divergence parts.

The mean velocity of a continuity-equation flow is decomposed as

    <v> = -alpha*grad(Phi) + gamma*A,      div A = chi,

with the constant triple derived from the physical scales:

    alpha = -hbar/(2m),   beta = 1/hbar,   gamma = -q/m.

Currents follow J = i*alpha*(psi* grad psi - psi grad psi*) + gamma*f*A for
scalars (componentwise sums for spinors) and the bilinear-covariant formulas
for bispinors; J, the quantum potential Q and the quantum force -grad Q of
diagnostics share one differentiation of psi, _polar, which transforms each
component once.  All splits are spectral: the scalar part solves a Poisson
problem with the k = 0 mode pinned to zero, which on a periodic box requires
the source div v - gamma*chi to have zero mean.
"""
from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fields import ComplexScalarField, BispinorField, VectorField, _component_list, _ratio, _support, density
from .lattice import (
    _INV_LAP, _LAP, Grid, _check_shape, _grid_components, _spectral, divergence, spectral_gradient,
)

__all__ = [
    "PhysicalConstants",
    "GaugeConfiguration",
    "FourCurrent",
    "current_scalar",
    "current_spinor",
    "current_bispinor",
    "velocity",
    "helmholtz_split",
    "recompose_velocity",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """The physical scales (hbar, m, q, c, eps0); the decomposition constants
    alpha = -hbar/(2m), beta = 1/hbar and gamma = -q/m derive from them, so
    identities like 2*alpha*beta/gamma = 1/q hold by construction."""

    hbar: float
    m: float
    q: float
    c: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        if self.hbar == 0.0:
            raise ValueError("hbar must be nonzero")
        if self.m <= 0.0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.c <= 0.0 or self.eps0 <= 0.0:
            raise ValueError("c and eps0 must be positive")

    @property
    def alpha(self) -> float:
        return -self.hbar / (2.0 * self.m)

    @property
    def beta(self) -> float:
        return 1.0 / self.hbar

    @property
    def gamma(self) -> float:
        return -self.q / self.m

    @classmethod
    def natural(cls) -> "PhysicalConstants":
        """hbar = m = q = c = 1."""
        return cls(1.0, 1.0, 1.0, 1.0)

    @classmethod
    def from_decomposition(
        cls, alpha: float, beta: float, gamma: float, c: float = 1.0, eps0: float = 1.0
    ) -> "PhysicalConstants":
        """The scales that realize (alpha, beta, gamma)."""
        if alpha == 0.0 or beta == 0.0:
            raise ValueError("alpha and beta must be nonzero")
        hbar = 1.0 / beta
        m = -hbar / (2.0 * alpha)
        return cls(hbar=hbar, m=m, q=-gamma * m, c=c, eps0=eps0)

    @property
    def mu0(self) -> float:
        return 1.0 / (self.eps0 * self.c**2)


@dataclass
class GaugeConfiguration:
    """External scalar potential plus the split vector potential.

    a_psi is not an argument: it is formed as the exact pointwise float sum
    a_classical + a_quantum, so the split holds by construction.  b_external
    carries a fixed 3-component magnetic field for scenarios whose B has no
    periodic vector potential (a uniform field on a torus); when absent, spin
    couplings derive B from curl of a_psi.
    """

    grid: Grid
    a_classical: VectorField
    a_quantum: VectorField
    u: np.ndarray
    b_external: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    a_psi: VectorField = field(init=False)

    def __post_init__(self):
        self.u = np.broadcast_to(np.asarray(self.u, dtype=float), self.grid.shape)
        for name in ("a_classical", "a_quantum"):
            if getattr(self, name).grid != self.grid:
                raise ValueError(f"{name} lives on a different grid")
        self.a_psi = VectorField(self.grid, tuple(
            c + q for c, q in zip(self.a_classical.components, self.a_quantum.components)
        ))
        if self.b_external is not None:
            self.b_external = _grid_components(
                self.b_external, self.grid, 3, "GaugeConfiguration.b_external")

    @classmethod
    def free(cls, grid: Grid) -> "GaugeConfiguration":
        """No potentials at all."""
        return cls.assemble(grid)

    @classmethod
    def assemble(
        cls,
        grid: Grid,
        a_classical: Optional[VectorField] = None,
        a_quantum: Optional[VectorField] = None,
        u: Optional[np.ndarray] = None,
        b_external=None,
    ) -> "GaugeConfiguration":
        """Build a configuration from whichever parts are present; absent
        potentials are zero."""
        return cls(
            grid=grid,
            a_classical=a_classical if a_classical is not None else VectorField.zero(grid),
            a_quantum=a_quantum if a_quantum is not None else VectorField.zero(grid),
            u=u if u is not None else np.zeros(grid.shape),
            b_external=b_external,
        )


@dataclass
class FourCurrent:
    """Four-current samples (J^0, J^1, J^2, J^3); the three spatial components
    are always present even on 1D/2D grids (missing-axis derivatives vanish)."""

    grid: Grid
    j0: np.ndarray
    jk: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        self.j0 = _check_shape(self.j0, self.grid, "FourCurrent.j0", float)
        self.jk = _grid_components(self.jk, self.grid, 3, "FourCurrent.jk")

    def spatial_divergence(self) -> np.ndarray:
        return divergence([self.jk[a] for a in range(self.grid.dim)], self.grid)


# what _polar yields; q, mask and force are None unless asked for
_Polar = collections.namedtuple("_Polar", "f flux q mask force")


def _polar(psi, q_scale: Optional[float] = None, what: Optional[str] = None,
           force_scale: Optional[float] = None, f_out=None, q_out=None) -> _Polar:
    """f and the flux Im(psi^dag grad psi) per axis from one transform of each
    component of psi and, for a scalar psi, from the same transform: given q_scale
    = alpha/beta, Q = q_scale*(Re(Lap psi/psi) + sum_a (flux_a/f)^2), and given
    force_scale = alpha/beta, -grad Q (see diagnostics.quantum_force), both 0 on
    the nodes.  Only they check for support, raising NodeError naming `what` (by
    default the quantity asked for).  f and Q are written into f_out and q_out
    when they are given."""
    grid, dim, axes = psi.grid, psi.grid.dim, range(psi.grid.dim)
    f, asked = density(psi, f_out), "quantum potential" if force_scale is None else "quantum force"
    mask = None if q_scale is None and force_scale is None else _support(f, what or asked)
    if mask is not None and psi.ncomp != 1:
        raise TypeError(f"{asked} needs a ComplexScalarField, got a {type(psi).__name__}")
    pairs = [(a, b) for a in axes for b in axes if a <= b]
    # Lap psi as its per-axis parts, which share each d_a psi's transform
    lap = [] if mask is None else [[(0, (_LAP, a)) for a in axes]]
    outputs = [[(0, a)] for a in axes] + lap
    if force_scale is not None:
        outputs += [[(0, a, _LAP)] for a in axes] + [[(0, a, b)] for a, b in pairs]
    flux = [np.zeros(grid.shape) for _ in axes]
    for comp in _component_list(psi):
        derivatives = _spectral([comp], grid, outputs)
        for total, d in zip(flux, derivatives):
            total += (np.conj(comp) * d).imag
    q = force = None
    if q_scale is not None:
        ratio = _ratio(derivatives[dim], psi.values, mask)
        q = np.multiply(q_scale, ratio.real + sum(_ratio(x, f, mask) ** 2 for x in flux),
                        out=q_out)
        q[mask] = 0.0
    if force_scale is not None:
        inv = _ratio(1.0, psi.values, mask)
        for d in derivatives:  # each derivative becomes its ratio to psi, in place
            d *= inv
        r1, rlap = derivatives[:dim], derivatives[dim]
        dlap, second = derivatives[dim + 1:], dict(zip(pairs, derivatives[2 * dim + 1:]))
        # -grad_a Q = -force_scale*(Re(dlap_a - rlap*r1_a)
        #   + sum_b 2*Im(r1_b)*Im(second_ab - r1_a*r1_b)), formed in two work
        # arrays; complex products keep their operand order, which rounds
        force, work, term = [], np.empty(grid.shape, dtype=complex), np.empty(grid.shape)
        for a in axes:
            np.subtract(dlap[a], np.multiply(rlap, r1[a], out=work), out=work)
            dg = work.real.copy()
            for b in axes:
                np.subtract(second[min(a, b), max(a, b)], np.multiply(r1[a], r1[b], out=work),
                            out=work)
                dg += np.multiply(np.multiply(2.0, r1[b].imag, out=term), work.imag, out=term)
            force.append(np.multiply(-force_scale, dg, out=dg))
            dg[mask] = 0.0
    return _Polar(f, flux, q, mask, force)


def _current(f, flux, gauge: GaugeConfiguration, consts: PhysicalConstants,
             out=None) -> tuple:
    """The components -2*alpha*flux + gamma*f*A_psi of J, from the f and flux
    of _polar, written into the rows of out when it is given."""
    rows = [None] * len(flux) if out is None else out
    return tuple(
        np.add(-2.0 * consts.alpha * x, consts.gamma * f * a, out=row)
        for x, a, row in zip(flux, gauge.a_psi.components, rows)
    )


def current_scalar(
    psi: ComplexScalarField, gauge: GaugeConfiguration, consts: PhysicalConstants
) -> VectorField:
    """J = i*alpha*(psi* grad psi - psi grad psi*) + gamma*f*A_psi, formed as
    -2*alpha*Im(psi* grad psi) + gamma*f*A_psi.  A spinor's current sums Im
    over its components, so it reduces exactly to the scalar current when
    one component vanishes."""
    polar = _polar(psi)
    return VectorField(psi.grid, _current(polar.f, polar.flux, gauge, consts))


current_spinor = current_scalar  # one formula serves SpinorField too


def current_bispinor(psi: BispinorField, c: float, out=None) -> FourCurrent:
    """Bilinear-covariant four-current of a bispinor.

    J^0 = c*sum|psi_i|^2, J^1 = 2c*Re(psi1* psi4 + psi2* psi3),
    J^2 = -2c*Im(psi2* psi3 - psi1* psi4), J^3 = 2c*Re(psi1* psi3 - psi4* psi2);
    timelike (|J| <= J^0) pointwise.  Given out, four arrays of the grid's
    shape, the components are written into them.
    """
    p1, p2, p3, p4 = psi.values
    j0, j1, j2, j3 = [None] * 4 if out is None else out
    j0 = np.multiply(c, density(psi), out=j0)
    p14, p23 = np.conj(p1) * p4, np.conj(p2) * p3  # J^1 and J^2 share these bilinears
    j1 = np.multiply(2.0 * c, (p14 + p23).real, out=j1)
    j2 = np.multiply(-2.0 * c, (p23 - p14).imag, out=j2)
    j3 = np.multiply(2.0 * c, (np.conj(p1) * p3 - np.conj(p4) * p2).real, out=j3)
    return FourCurrent(psi.grid, j0, (j1, j2, j3))


def velocity(j: VectorField, f: np.ndarray):
    """<v> = J/f with nodes masked; raises NodeError when f has no support."""
    mask = _support(f, "velocity")
    comps = tuple(_ratio(comp, f, mask) for comp in j.components)
    return VectorField(j.grid, comps), mask


def helmholtz_split(
    v: VectorField, chi: np.ndarray, consts: PhysicalConstants
):
    """Split v = -alpha*grad(Phi) + gamma*A with div A = chi.

    Returns (Phi, A).  Solvability on the torus requires the k = 0 mode of
    div v - gamma*chi to vanish; div v has zero mean automatically, so this
    is a zero-mean condition on gamma*chi.
    """
    if consts.gamma == 0.0:
        raise ValueError("helmholtz split needs gamma != 0 to carry the A part")
    grid = v.grid
    chi = np.broadcast_to(np.asarray(chi, dtype=float), grid.shape)
    div_v = divergence(v.components, grid)
    source = div_v - consts.gamma * chi
    mean = float(np.mean(source))
    if abs(mean) > 1e-12:
        raise ValueError(
            f"non-solvable source: k=0 mode of div v - gamma*chi is {mean:.3e}"
        )
    # div v = -alpha*Lap(Phi) + gamma*chi  =>  Phi = -Lap^-1(source)/alpha,
    # with the k = 0 mode of Phi pinned to zero
    outputs = [[(0, _INV_LAP)]] + [[(0, axis, _INV_LAP)] for axis in range(grid.dim)]
    phi, *grad_phi = (-p / consts.alpha for p in _spectral([source], grid, outputs))
    a = tuple(
        (comp + consts.alpha * g) / consts.gamma
        for comp, g in zip(v.components, grad_phi)
    )
    return phi, VectorField(grid, a)


def recompose_velocity(
    phi: np.ndarray, a: VectorField, consts: PhysicalConstants
) -> VectorField:
    """v = -alpha*grad(Phi) + gamma*A, the inverse of helmholtz_split."""
    grad_phi = spectral_gradient(np.asarray(phi, dtype=float), a.grid)
    comps = tuple(
        -consts.alpha * g + consts.gamma * comp
        for g, comp in zip(grad_phi, a.components)
    )
    return VectorField(a.grid, comps)
