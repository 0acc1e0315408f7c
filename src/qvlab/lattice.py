"""Uniform periodic lattices and spectral derivative operators.

Every field in this package lives on a rectangular box [0, L_j) sampled at
n_j equally spaced points per axis with periodic boundary conditions.
Derivatives are evaluated in Fourier space (multiplication by i*k), exact
for band-limited data.  One helper, _spectral, serves every operator: each
field is transformed once, the multipliers of all outputs apply to that
one spectrum, terms that add are summed in k-space, and each output takes
one inverse transform.

Conventions
    wavenumbers   k_j = 2*pi*m_j/L_j with integer m_j in FFT order
                  (m = 0, 1, ..., n/2-1, -n/2, ..., -1 for even n)
    array layout  C-order, shape (n_1, ..., n_dim), 'ij' indexing
    half spectra  a real field is transformed with rfftn: the last axis
                  keeps its n//2 + 1 modes m >= 0 and every other axis
                  keeps all n; real in means real (float64) out, and a
                  complex field takes fftn and gives complex results
    Nyquist mode  (even n only) zeroed inside every i*k_j factor, so a
                  gradient, divergence or curl of a real field is real;
                  the Laplacian and its inverse keep it

Analytic test profiles must be effectively periodic on the box (localized
envelopes decay below roundoff at the boundary).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_DIM = 3


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice over [0, length_j) per axis.  It stores the
    point counts n and the box extents length; dim and spacing derive from
    them."""

    n: tuple[int, ...]
    length: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / m for L, m in zip(self.length, self.n))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def size(self) -> int:
        return int(np.prod(self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """1D sample positions along one axis."""
        return np.arange(self.n[axis]) * self.spacing[axis]

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        out = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n[axis]
            out.append(self.axis_coordinates(axis).reshape(shape))
        return tuple(out)

    def wavenumbers(self, axis: int) -> np.ndarray:
        """1D angular wavenumbers along one axis, FFT order."""
        return _wavenumbers_1d(self.n[axis], self.length[axis])


def make_grid(dim: int, n: Sequence[int], length: Sequence[float]) -> Grid:
    """Build a validated Grid; dim in 1..3, n_j >= 4, length_j > 0."""
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"grid dim must be in 1..{MAX_DIM}, got {dim}")
    n = tuple(int(v) for v in n)
    length = tuple(float(v) for v in length)
    if len(n) != dim or len(length) != dim:
        raise ValueError(
            f"expected {dim} entries for n and length, got {len(n)} and {len(length)}"
        )
    if any(v < 4 for v in n):
        raise ValueError(f"need at least 4 points per axis, got {n}")
    if any(v <= 0 for v in length):
        raise ValueError(f"box extents must be positive, got {length}")
    return Grid(n=n, length=length)


@lru_cache(maxsize=128)
def _wavenumbers_1d(n: int, length: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=128)
def _kmesh(grid: Grid, axis: int, zero_nyquist: bool, half: bool = False) -> np.ndarray:
    k = grid.wavenumbers(axis).copy()
    if zero_nyquist and grid.n[axis] % 2 == 0:
        k[grid.n[axis] // 2] = 0.0
    if half and axis == grid.dim - 1:
        k = k[: grid.n[axis] // 2 + 1]
    shape = [1] * grid.dim
    shape[axis] = k.size
    k = k.reshape(shape)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=64)
def _k_squared(grid: Grid, half: bool) -> np.ndarray:
    out = sum(_kmesh(grid, axis, False, half) ** 2 for axis in range(grid.dim))
    out.flags.writeable = False
    return out


def k_squared(grid: Grid) -> np.ndarray:
    """|k|^2 on the full transform grid (Nyquist included)."""
    return _k_squared(grid, False)


# Multiplier factors besides an axis a, which stands for i*k_a (Nyquist zeroed).
_LAP = "lap"  # -|k|^2, Nyquist kept
_INV_LAP = "inv_lap"  # -1/|k|^2, with the k = 0 mode set to 0
_NEG = "neg"  # -1


@lru_cache(maxsize=128)
def _multiplier(grid: Grid, factors: tuple, half: bool) -> np.ndarray:
    """The read-only product of k-space factors on the full or the half
    transform grid; a ("band", fraction) factor keeps the modes with
    |m_j| < fraction*n_j on every axis.  Products of an even number of
    i*k_a factors stay real arrays."""
    out, derivatives = np.ones(()), 0
    for factor in factors:
        if factor == _LAP:
            part = -_k_squared(grid, half)
        elif factor == _INV_LAP:
            k2 = _k_squared(grid, half)
            part = -1.0 / np.where(k2 == 0.0, np.inf, k2)
        elif factor == _NEG:
            part = -1.0
        elif isinstance(factor, tuple):
            _, fraction = factor
            part = 1.0
            for axis in range(grid.dim):
                m = _kmesh(grid, axis, False, half) * (grid.length[axis] / (2.0 * np.pi))
                part = part * (np.abs(np.rint(m)) < fraction * grid.n[axis])
        else:
            part = _kmesh(grid, factor, True, half)
            derivatives += 1
        out = out * part
    out = np.asarray(out * (1, 1j, -1, -1j)[derivatives % 4])
    out.flags.writeable = False
    return out


def _check_shape(values: np.ndarray, grid: Grid) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"samples have shape {values.shape}, grid is {grid.shape}")
    return values


def _spectral(fields: Sequence[np.ndarray], grid: Grid, outputs) -> list[np.ndarray]:
    """Linear spectral operators of periodic fields: every field referenced
    is transformed once and every output takes one inverse transform.

    outputs holds one sequence of terms per result; a term (i, *factors)
    multiplies the spectrum of fields[i] by the product of the factors (see
    _multiplier), and the terms of one output add in k-space.  Real fields
    take rfftn and half spectra (the last axis keeps n//2 + 1 modes), and
    their outputs are real; a complex field makes every transform complex.
    """
    fields = [_check_shape(f, grid) for f in fields]
    half = not any(np.iscomplexobj(f) for f in fields)
    axes = tuple(range(grid.dim))
    spectra = {}
    results = []
    for terms in outputs:
        total = None
        for index, *factors in terms:
            if index not in spectra:
                f = fields[index]
                spectra[index] = np.fft.rfftn(f, axes=axes) if half else np.fft.fftn(f, axes=axes)
            part = spectra[index] * _multiplier(grid, tuple(factors), half)
            total = part if total is None else np.add(total, part, out=total)
        if half:
            results.append(np.fft.irfftn(total, s=grid.shape, axes=axes))
        else:
            results.append(np.fft.ifftn(total, axes=axes))
    return results


def spectral_gradient(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Per-axis derivatives via i*k multipliers (Nyquist zeroed)."""
    return _spectral([values], grid, [[(0, axis)] for axis in range(grid.dim)])


def spectral_laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Laplacian via the -|k|^2 multiplier."""
    return _spectral([values], grid, [[(0, _LAP)]])[0]


def divergence(components: Sequence[np.ndarray], grid: Grid) -> np.ndarray:
    """Spectral divergence of a dim-component field."""
    if len(components) != grid.dim:
        raise ValueError(f"divergence needs {grid.dim} components, got {len(components)}")
    return _spectral(components, grid, [[(axis, axis) for axis in range(grid.dim)]])[0]


def curl(components: Sequence[np.ndarray], grid: Grid) -> list[np.ndarray]:
    """Spectral curl, a view of ``_curl3``.

    3D grids take 3 components and return 3; 2D grids take 2 and return the
    single out-of-plane component [dx(v_y) - dy(v_x)].
    """
    if grid.dim == 1:
        raise ValueError("curl is undefined on 1D grids")
    if len(components) != grid.dim:
        raise ValueError(f"{grid.dim}D curl needs {grid.dim} components, got {len(components)}")
    out = list(_curl3(components, grid))
    return out if grid.dim == 3 else out[2:]


def _zero_slot(grid: Grid) -> np.ndarray:
    """Zeros on the grid as a read-only zero-stride view; allocates nothing."""
    return np.broadcast_to(np.zeros(()), grid.shape)


def _curl3(components: Sequence[np.ndarray], grid: Grid) -> tuple[np.ndarray, ...]:
    """Spectral curl as a fixed 3-tuple from dim or 3 components on any grid.

    Only derivatives along grid axes exist, and absent components are zero:
    a 2D in-plane field fills only the out-of-plane slot.  Slots that vanish
    this way are zero-stride read-only views.
    """
    if len(components) not in (grid.dim, 3):
        raise ValueError(f"curl needs {grid.dim} or 3 components, got {len(components)}")
    # out_a = d(v_c)/dx_b - d(v_b)/dx_c; a term exists only along a grid
    # axis and for a given component
    outputs = []
    for b, c in ((1, 2), (2, 0), (0, 1)):
        terms = []
        if b < grid.dim and c < len(components):
            terms.append((c, b))
        if c < grid.dim and b < len(components):
            terms.append((b, c, _NEG))
        outputs.append(terms)
    done = iter(_spectral(components, grid, [t for t in outputs if t]))
    return tuple(next(done) if t else _zero_slot(grid) for t in outputs)


def band_limit(values: np.ndarray, grid: Grid, fraction: float = 0.25) -> np.ndarray:
    """Zero all modes with |m_j| >= fraction*n_j on any axis."""
    return _spectral([values], grid, [[(0, ("band", fraction))]])[0]
