"""Uniform periodic lattices and spectral derivative operators.

Every field in this package lives on a rectangular box [0, L_j) sampled at
n_j equally spaced points per axis with periodic boundary conditions.
Derivatives are evaluated in Fourier space (multiplication by i*k), exact
for band-limited data.

Conventions
    wavenumbers   k_j = 2*pi*m_j/L_j with integer m_j in FFT order
                  (m = 0, 1, ..., n/2-1, -n/2, ..., -1 for even n)
    array layout  C-order, shape (n_1, ..., n_dim), 'ij' indexing
    Nyquist mode  zeroed inside first-derivative multipliers so gradients
                  of real fields stay real; the Laplacian keeps it

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
    """Uniform periodic lattice over [0, length_j) per axis."""

    dim: int
    n: tuple[int, ...]
    length: tuple[float, ...]
    spacing: tuple[float, ...]

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
    spacing = tuple(L / m for L, m in zip(length, n))
    return Grid(dim=dim, n=n, length=length, spacing=spacing)


@lru_cache(maxsize=128)
def _wavenumbers_1d(n: int, length: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=128)
def _kmesh(grid: Grid, axis: int, zero_nyquist: bool) -> np.ndarray:
    k = grid.wavenumbers(axis).copy()
    if zero_nyquist and grid.n[axis] % 2 == 0:
        k[grid.n[axis] // 2] = 0.0
    shape = [1] * grid.dim
    shape[axis] = grid.n[axis]
    k = k.reshape(shape)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=64)
def k_squared(grid: Grid) -> np.ndarray:
    """|k|^2 on the full transform grid (Nyquist included)."""
    out = np.zeros(grid.shape)
    for axis in range(grid.dim):
        out = out + _kmesh(grid, axis, False) ** 2
    out.flags.writeable = False
    return out


def _match_dtype(out: np.ndarray, like: np.ndarray) -> np.ndarray:
    return out.real if np.isrealobj(like) else out


def _check_shape(values: np.ndarray, grid: Grid) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"samples have shape {values.shape}, grid is {grid.shape}")
    return values


def spectral_gradient(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Per-axis derivatives via i*k multipliers (Nyquist zeroed)."""
    values = _check_shape(values, grid)
    fhat = np.fft.fftn(values)
    out = []
    for axis in range(grid.dim):
        d = np.fft.ifftn(1j * _kmesh(grid, axis, True) * fhat)
        out.append(_match_dtype(d, values))
    return out


def spectral_laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Laplacian via the -|k|^2 multiplier."""
    values = _check_shape(values, grid)
    out = np.fft.ifftn(-k_squared(grid) * np.fft.fftn(values))
    return _match_dtype(out, values)


def divergence(components: Sequence[np.ndarray], grid: Grid) -> np.ndarray:
    """Spectral divergence of a dim-component field."""
    if len(components) != grid.dim:
        raise ValueError(f"divergence needs {grid.dim} components, got {len(components)}")
    out = np.zeros(grid.shape, dtype=np.result_type(*components))
    for axis, comp in enumerate(components):
        comp = _check_shape(comp, grid)
        fhat = np.fft.fftn(comp)
        out = out + _match_dtype(
            np.fft.ifftn(1j * _kmesh(grid, axis, True) * fhat), comp
        )
    return out


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
    # d[c][a] = d(v_c)/dx_a; None off the grid axes and past the components.
    # v_x on a 1D grid has no derivative the curl uses.
    d = [[None] * 3 for _ in range(3)]
    for c, v in enumerate(components):
        if grid.dim > 1 or c > 0:
            d[c][: grid.dim] = spectral_gradient(v, grid)
    out = []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        plus, minus = d[c][b], d[b][c]
        if minus is None:
            out.append(_zero_slot(grid) if plus is None else plus)
        else:
            out.append(-minus if plus is None else plus - minus)
    return tuple(out)


def band_limit(values: np.ndarray, grid: Grid, fraction: float = 0.25) -> np.ndarray:
    """Zero all modes with |m_j| >= fraction*n_j on any axis."""
    values = _check_shape(values, grid)
    fhat = np.fft.fftn(values)
    for axis in range(grid.dim):
        m = np.fft.fftfreq(grid.n[axis], d=1.0 / grid.n[axis])
        keep = np.abs(m) < fraction * grid.n[axis]
        shape = [1] * grid.dim
        shape[axis] = grid.n[axis]
        fhat = fhat * keep.reshape(shape)
    out = np.fft.ifftn(fhat)
    return _match_dtype(out, values)
