"""Probability currents, mean-velocity fields, and their Helmholtz-type
splitting into gradient and prescribed-divergence parts.

The mean velocity of a continuity-equation flow is decomposed as

    <v> = -alpha*grad(Phi) + gamma*A,      div A = chi,

with the constant triple tied to the physical scales by

    alpha = -hbar/(2m),   beta = 1/hbar,   gamma = -q/m.

Currents follow J = i*alpha*(psi* grad psi - psi grad psi*) + gamma*f*A for
scalars (componentwise sums for spinors) and the bilinear-covariant formulas
for bispinors.  All splits are spectral: the scalar part solves a Poisson
problem with the k = 0 mode pinned to zero, which on a periodic box requires
the source div v - gamma*chi to have zero mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import ComplexScalarField, SpinorField, BispinorField, VectorField, _component_list, _ratio, _support, density
from .lattice import _INV_LAP, Grid, _spectral, divergence, spectral_gradient

_REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-300)


@dataclass(frozen=True)
class PhysicalConstants:
    """Decomposition constants (alpha, beta, gamma) locked to (hbar, m, q, c).

    Either triple determines the other; construction verifies consistency so
    identities like 2*alpha*beta/gamma = 1/q hold exactly downstream.
    """

    alpha: float
    beta: float
    gamma: float
    hbar: float
    m: float
    q: float
    c: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        if self.beta == 0.0 or self.hbar == 0.0:
            raise ValueError("beta = 1/hbar must be nonzero")
        if self.m <= 0.0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.c <= 0.0 or self.eps0 <= 0.0:
            raise ValueError("c and eps0 must be positive")
        checks = (
            (self.alpha, -self.hbar / (2.0 * self.m)),
            (self.beta, 1.0 / self.hbar),
            (self.gamma, -self.q / self.m),
        )
        for got, want in checks:
            if not _close(got, want):
                raise ValueError(
                    f"inconsistent constants: got {got!r}, expected {want!r}"
                )

    @classmethod
    def from_physical(
        cls, hbar: float, m: float, q: float, c: float = 1.0, eps0: float = 1.0
    ) -> "PhysicalConstants":
        return cls(
            alpha=-hbar / (2.0 * m),
            beta=1.0 / hbar,
            gamma=-q / m,
            hbar=hbar,
            m=m,
            q=q,
            c=c,
            eps0=eps0,
        )

    @classmethod
    def natural(cls) -> "PhysicalConstants":
        """hbar = m = q = c = 1."""
        return cls.from_physical(1.0, 1.0, 1.0, 1.0)

    @classmethod
    def from_decomposition(
        cls, alpha: float, beta: float, gamma: float, c: float = 1.0, eps0: float = 1.0
    ) -> "PhysicalConstants":
        if alpha == 0.0 or beta == 0.0:
            raise ValueError("alpha and beta must be nonzero")
        hbar = 1.0 / beta
        m = -hbar / (2.0 * alpha)
        return cls(
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            hbar=hbar,
            m=m,
            q=-gamma * m,
            c=c,
            eps0=eps0,
        )

    @property
    def mu0(self) -> float:
        return 1.0 / (self.eps0 * self.c**2)


@dataclass
class GaugeConfiguration:
    """External scalar potential plus the split vector potential.

    a_psi = a_classical + a_quantum pointwise (checked).  b_external carries a
    fixed 3-component magnetic field for scenarios whose B has no periodic
    vector potential (a uniform field on a torus); when absent, spin couplings
    derive B from curl of a_psi.
    """

    grid: Grid
    a_psi: VectorField
    a_classical: VectorField
    a_quantum: VectorField
    u: np.ndarray
    b_external: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        self.u = np.broadcast_to(np.asarray(self.u, dtype=float), self.grid.shape)
        for name in ("a_psi", "a_classical", "a_quantum"):
            fld = getattr(self, name)
            if fld.grid != self.grid:
                raise ValueError(f"{name} lives on a different grid")
        for total, cl, qu in zip(
            self.a_psi.components,
            self.a_classical.components,
            self.a_quantum.components,
        ):
            if np.max(np.abs(total - (cl + qu))) > 1e-12:
                raise ValueError("a_psi must equal a_classical + a_quantum")
        if self.b_external is not None:
            self.b_external = tuple(
                np.broadcast_to(np.asarray(b, dtype=float), self.grid.shape)
                for b in self.b_external
            )
            if len(self.b_external) != 3:
                raise ValueError("b_external needs exactly 3 components")

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
        """Build a configuration from whichever parts are present; a_psi is
        formed as the exact float sum so the split invariant holds."""
        a_cl = a_classical if a_classical is not None else VectorField.zero(grid)
        a_qu = a_quantum if a_quantum is not None else VectorField.zero(grid)
        total = VectorField(
            grid,
            tuple(c + q for c, q in zip(a_cl.components, a_qu.components)),
        )
        return cls(
            grid=grid,
            a_psi=total,
            a_classical=a_cl,
            a_quantum=a_qu,
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
        self.j0 = np.asarray(self.j0, dtype=float)
        if self.j0.shape != self.grid.shape:
            raise ValueError("J^0 shape does not match the grid")
        if len(self.jk) != 3:
            raise ValueError("need exactly 3 spatial components")
        self.jk = tuple(
            np.broadcast_to(np.asarray(j, dtype=float), self.grid.shape)
            for j in self.jk
        )

    def spatial_divergence(self) -> np.ndarray:
        return divergence([self.jk[a] for a in range(self.grid.dim)], self.grid)


def _paramagnetic_current(
    components: Sequence[np.ndarray], grid: Grid, alpha: float
) -> list[np.ndarray]:
    """-2*alpha*sum_i Im(conj(c_i)*grad c_i), one array per axis."""
    out = [np.zeros(grid.shape) for _ in range(grid.dim)]
    for comp in components:
        grads = spectral_gradient(comp, grid)
        for axis in range(grid.dim):
            out[axis] += -2.0 * alpha * (np.conj(comp) * grads[axis]).imag
    return out


def current_scalar(
    psi: ComplexScalarField, gauge: GaugeConfiguration, consts: PhysicalConstants
) -> VectorField:
    """J = i*alpha*(psi* grad psi - psi grad psi*) + gamma*f*A_psi."""
    return _current(psi, gauge, consts)


def current_spinor(
    psi: SpinorField, gauge: GaugeConfiguration, consts: PhysicalConstants
) -> VectorField:
    """Componentwise scalar current plus gamma*(psi^dag psi)*A_psi; reduces
    exactly to current_scalar when one component vanishes."""
    return _current(psi, gauge, consts)


def _current(psi, gauge: GaugeConfiguration, consts: PhysicalConstants) -> VectorField:
    comps = _paramagnetic_current(_component_list(psi), psi.grid, consts.alpha)
    f = density(psi)
    comps = [
        j + consts.gamma * f * a for j, a in zip(comps, gauge.a_psi.components)
    ]
    return VectorField(psi.grid, tuple(comps))


def current_bispinor(psi: BispinorField, c: float) -> FourCurrent:
    """Bilinear-covariant four-current of a bispinor.

    J^0 = c*sum|psi_i|^2, J^1 = 2c*Re(psi1* psi4 + psi2* psi3),
    J^2 = -2c*Im(psi2* psi3 - psi1* psi4), J^3 = 2c*Re(psi1* psi3 - psi4* psi2);
    timelike (|J| <= J^0) pointwise.
    """
    p1, p2, p3, p4 = psi.values
    j0 = c * density(psi)
    j1 = 2.0 * c * (np.conj(p1) * p4 + np.conj(p2) * p3).real
    j2 = -2.0 * c * (np.conj(p2) * p3 - np.conj(p1) * p4).imag
    j3 = 2.0 * c * (np.conj(p1) * p3 - np.conj(p4) * p2).real
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
