"""Uniform periodic lattices and spectral derivative operators.

Every field in this package lives on a rectangular box [0, L_j) sampled at
n_j equally spaced points per axis with periodic boundary conditions.
Derivatives are evaluated in Fourier space (multiplication by i*k), exact
for band-limited data.  One helper, _spectral, serves every operator, and
plans each term by the axes its multiplier depends on: a term whose
factors use one axis a (i*k_a, -k_a^2, and -1) is transformed along a
only, takes a 1D broadcast multiplier and is inverted along a; -|k|^2, its
inverse, a band and mixed a != b terms keep the full-grid transform.  Per
axis set, each field is transformed once, the terms of one output add in
k-space and take one inverse, and the parts of different axis sets add in
x-space; a 3D gradient makes 3 + 3 axis passes, not 3 + 9.  The
transforms write into storage the helper owns: each forward transform into
a spectrum slot reused by every axis set (numpy.fft allocates a fresh
array per axis otherwise), so at most one spectrum per field is alive, and
each complex inverse in place on its k-space sum.  A real inverse stays
one irfftn call that allocates its real result.

Conventions
    wavenumbers   k_j = 2*pi*m_j/L_j with integer m_j in FFT order
                  (m = 0, 1, ..., n/2-1, -n/2, ..., -1 for even n)
    array layout  C-order, shape (n_1, ..., n_dim), 'ij' indexing
    half spectra  a real field is transformed with rfftn: the last
                  transformed axis (the one axis of a one-axis term)
                  keeps its n//2 + 1 modes m >= 0 and every other axis
                  keeps all n; real in means real (float64) out, and a
                  complex field takes fftn and gives complex results
    Nyquist mode  (even n only) zeroed inside every i*k_j factor, so a
                  gradient, divergence or curl of a real field is real;
                  the Laplacian, its per-axis parts -k_j^2 and its
                  inverse keep it

Arrays handed to the package meet one of two rules: _check_shape takes
exactly the grid's shape, and _grid_components takes exactly k components,
each broadcast to the grid as a read-only view (a scalar allocates nothing).

Analytic test profiles must be effectively periodic on the box (localized
envelopes decay below roundoff at the boundary).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "make_grid",
    "spectral_gradient",
    "spectral_laplacian",
    "divergence",
    "curl",
    "k_squared",
    "band_limit",
]

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
def _kmesh(grid: Grid, axis: int, zero_nyquist: bool, halved: bool = False) -> np.ndarray:
    """Wavenumbers of one axis, broadcastable over the grid; a halved axis
    keeps the n//2 + 1 modes m >= 0 of a real field's half spectrum."""
    k = grid.wavenumbers(axis).copy()
    if zero_nyquist and grid.n[axis] % 2 == 0:
        k[grid.n[axis] // 2] = 0.0
    if halved:
        k = k[: grid.n[axis] // 2 + 1]
    shape = [1] * grid.dim
    shape[axis] = k.size
    k = k.reshape(shape)
    k.flags.writeable = False
    return k


@lru_cache(maxsize=64)
def _k_squared(grid: Grid, half: bool) -> np.ndarray:
    last = grid.dim - 1
    out = sum(_kmesh(grid, axis, False, half and axis == last) ** 2 for axis in range(grid.dim))
    out.flags.writeable = False
    return out


def k_squared(grid: Grid) -> np.ndarray:
    """|k|^2 on the full transform grid (Nyquist included)."""
    return _k_squared(grid, False)


# Multiplier factors besides an axis a, which stands for i*k_a (Nyquist zeroed).
_LAP = "lap"  # -|k|^2, Nyquist kept; (_LAP, a) is its one-axis part -k_a^2
_INV_LAP = "inv_lap"  # -1/|k|^2, with the k = 0 mode set to 0
_NEG = "neg"  # -1


def _term_axes(grid: Grid, factors: tuple) -> tuple:
    """The axes a term is transformed along: its one axis when every i*k_a
    and -k_a^2 factor names the same axis a, else every axis (-|k|^2, its
    inverse, a band, mixed a != b, or no axis at all)."""
    axes = set()
    for factor in factors:
        if isinstance(factor, int):
            axes.add(factor)
        elif isinstance(factor, tuple) and factor[0] == _LAP:
            axes.add(factor[1])
        elif factor != _NEG:
            return tuple(range(grid.dim))
    return tuple(axes) if len(axes) == 1 else tuple(range(grid.dim))


@lru_cache(maxsize=128)
def _multiplier(grid: Grid, factors: tuple, halved=None) -> np.ndarray:
    """The read-only product of k-space factors on the spectrum of a field
    transformed along the factors' _term_axes, whose last axis is `halved`
    for a real field (None for a complex one); a ("band", fraction) factor
    keeps the modes with |m_j| < fraction*n_j on every axis.  Products of
    an even number of i*k_a factors stay real arrays."""
    out, derivatives = np.ones(()), 0
    for factor in factors:
        if factor == _LAP:
            part = -_k_squared(grid, halved is not None)
        elif factor == _INV_LAP:
            k2 = _k_squared(grid, halved is not None)
            part = -1.0 / np.where(k2 == 0.0, np.inf, k2)
        elif factor == _NEG:
            part = -1.0
        elif isinstance(factor, tuple) and factor[0] == _LAP:
            part = -_kmesh(grid, factor[1], False, factor[1] == halved) ** 2
        elif isinstance(factor, tuple):
            _, fraction = factor
            part = 1.0
            for axis in range(grid.dim):
                m = _kmesh(grid, axis, False, axis == halved) * (grid.length[axis] / (2.0 * np.pi))
                part = part * (np.abs(np.rint(m)) < fraction * grid.n[axis])
        else:
            part = _kmesh(grid, factor, True, factor == halved)
            derivatives += 1
        out = out * part
    out = np.asarray(out * (1, 1j, -1, -1j)[derivatives % 4])
    out.flags.writeable = False
    return out


def _check_shape(values, grid: Grid, what: str = "field", dtype=None) -> np.ndarray:
    """values as an array (of dtype, when given) of exactly the grid's shape."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != grid.shape:
        raise ValueError(f"{what} has shape {values.shape}, expected {grid.shape}")
    return values


def _grid_components(parts, grid: Grid, count: int, what: str) -> tuple[np.ndarray, ...]:
    """Exactly count float components, each broadcast to the grid as a
    read-only view, so a scalar component allocates nothing."""
    if len(parts) != count:
        raise ValueError(f"{what} needs exactly {count} components, got {len(parts)}")
    return tuple(np.broadcast_to(np.asarray(c, dtype=float), grid.shape) for c in parts)


def _spectral(fields: Sequence[np.ndarray], grid: Grid, outputs) -> list[np.ndarray]:
    """Linear spectral operators of periodic fields, one axis set at a time.

    outputs holds one sequence of terms per result; a term (i, *factors)
    multiplies the spectrum of fields[i] along the term's _term_axes by the
    product of the factors (see _multiplier).  For each axis set in order of
    first use, every field it needs is transformed along those axes once,
    the terms of one output add in k-space and take one inverse, and the
    parts of different axis sets add in x-space.  Real fields take rfftn and
    half spectra (the last transformed axis keeps n//2 + 1 modes), and their
    outputs are real; a complex field makes every transform complex.
    """
    fields = [_check_shape(f, grid) for f in fields]
    half = not any(np.iscomplexobj(f) for f in fields)
    plan = {}  # axes -> {output: [(field, factors)]}, both in order of first use
    for out, terms in enumerate(outputs):
        for index, *factors in terms:
            factors = tuple(factors)
            axes = _term_axes(grid, factors)
            plan.setdefault(axes, {}).setdefault(out, []).append((index, factors))
    shapes = {axes: [n // 2 + 1 if half and a == axes[-1] else n for a, n in enumerate(grid.shape)]
              for axes in plan}
    size = max(map(math.prod, shapes.values()), default=0)
    # storage the call owns, reused by every axis set: one spectrum slot per
    # field of a set, and the k-space sum of a part that is not an output's
    # first (a complex output's first part is the output itself)
    slots, scratch = [], None
    results = [None] * len(outputs)
    for axes, by_output in plan.items():
        shape, count = shapes[axes], math.prod(shapes[axes])
        halved = axes[-1] if half else None
        spectra = {}
        for out, terms in by_output.items():
            for index, _ in terms:
                if index not in spectra:
                    if len(spectra) == len(slots):
                        slots.append(np.empty(size, dtype=complex))
                    # every axis pass writes into the one spectrum slot
                    spectrum = slots[len(spectra)][:count].reshape(shape)
                    transform = np.fft.rfftn if half else np.fft.fftn
                    spectra[index] = transform(fields[index], axes=axes, out=spectrum)
            first = results[out] is None
            if first and not half:
                total = np.empty(shape, dtype=complex)
            else:
                scratch = np.empty(size, dtype=complex) if scratch is None else scratch
                total = scratch[:count].reshape(shape)
            (index, factors), *rest = terms
            np.multiply(spectra[index], _multiplier(grid, factors, halved), out=total)
            for index, factors in rest:
                total += spectra[index] * _multiplier(grid, factors, halved)
            if half:
                part = np.fft.irfftn(total, s=[grid.n[a] for a in axes], axes=axes)
            else:
                part = np.fft.ifftn(total, axes=axes, out=total)
            results[out] = part if first else np.add(results[out], part, out=results[out])
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
