"""Field containers on periodic lattices and their elementary observables.

Four sample-array containers share one Grid: complex scalar, 2-component
spinor, 4-component bispinor, and a real vector field with one component
per grid axis.  The three complex ones are one amplitude container that
differs only in its class-level component count.  Densities are dimensionless lattice samples sum_i |psi_i|^2;
phases are extracted branch-free where possible and unwrapped per axis only
for reporting.

Grid points where the density falls below NODE_EPSILON relative to its peak
are masked: phase and velocity data are unreliable there and every consumer
either skips or freezes across them.  Every quantity that divides by the
density or by psi takes its mask from _support, which refuses a density
with no support, and divides with _ratio, which writes 0 on the nodes.

Snapshots (.qfs) are a fixed 64-byte little-endian header followed by raw
float64 samples, component-major as fields hold them: (ncomp, *grid), so a
snapshot is written and read with no transposing copy.  Round-trips are
bit-exact.  Version 2 is the one version written and read; a version 1
file, whose samples were interleaved per grid point as (*grid, ncomp), is
refused like any other unknown version.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from .lattice import Grid, make_grid, spectral_gradient

__all__ = [
    "ComplexScalarField",
    "SpinorField",
    "BispinorField",
    "VectorField",
    "density",
    "phase",
    "phase_gradient",
    "node_mask",
    "NODE_EPSILON",
    "NodeError",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
]

NODE_EPSILON = 1e-8

_MAGIC = b"QVLABQFS"
_VERSION = 2  # version 1 interleaved the components per grid point
# magic, version, dim, n[3], length[3], ncomp, scalar width, 4 pad bytes
_HEADER = struct.Struct("<8sII3I3dII4x")
assert _HEADER.size == 64


class NodeError(ValueError):
    """Raised when an operation needs phase data at masked (nodal) points."""

    def __init__(self, message: str, indices: np.ndarray | None = None):
        super().__init__(message)
        self.indices = indices


class SnapshotError(IOError):
    """Raised for malformed, truncated, or mismatched .qfs files."""


def _coerce(values, shape, dtype) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    if arr.shape != shape:
        raise ValueError(f"samples have shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("field samples must be finite")
    return arr


@dataclass
class _Amplitude:
    """Complex amplitudes, ncomp per grid point; with more than one, the
    leading axis is the spinor index."""

    grid: Grid
    values: np.ndarray
    ncomp = 1  # a class constant, not a field

    def __post_init__(self):
        self.values = _coerce(self.values, self._shape(self.grid), np.complex128)

    @classmethod
    def _shape(cls, grid: Grid) -> tuple[int, ...]:
        return grid.shape if cls.ncomp == 1 else (cls.ncomp, *grid.shape)


class ComplexScalarField(_Amplitude):
    """Single complex amplitude per grid point."""


class SpinorField(_Amplitude):
    """Two complex components per grid point, leading axis is the spinor index."""

    ncomp = 2


class BispinorField(_Amplitude):
    """Four complex components per grid point, leading axis is the spinor index."""

    ncomp = 4


@dataclass
class VectorField:
    """Real vector samples with one component per grid axis."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = tuple(
            _coerce(c, self.grid.shape, np.float64) for c in self.components
        )
        if len(comps) != self.grid.dim:
            raise ValueError(
                f"vector field needs {self.grid.dim} components, got {len(comps)}"
            )
        self.components = comps

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(grid, tuple(np.zeros(grid.shape) for _ in range(grid.dim)))


Field = Union[ComplexScalarField, SpinorField, BispinorField]
_AMPLITUDES = {cls.ncomp: cls for cls in (ComplexScalarField, SpinorField, BispinorField)}


def _component_list(field: Field) -> np.ndarray:
    """The components of an amplitude as views of shape (ncomp, *grid)."""
    return field.values.reshape(-1, *field.grid.shape)


def density(field: Field, out=None) -> np.ndarray:
    """f = sum_i |psi_i|^2, real and nonnegative by construction; written into
    out when it is given."""
    comps = _component_list(field)
    if out is None:
        out = np.zeros(field.grid.shape)
    else:
        out[...] = 0.0
    for c in comps:
        out += c.real**2 + c.imag**2
    return out


def node_mask(f: np.ndarray) -> np.ndarray:
    """True where the density is too small for phase data to mean anything."""
    peak = float(np.max(f))
    if peak <= 0.0:
        return np.ones_like(f, dtype=bool)
    return f < NODE_EPSILON * peak


def _support(f: np.ndarray, what: str) -> np.ndarray:
    """node_mask(f); raises NodeError naming `what` when every point is a node."""
    mask = node_mask(f)
    if mask.all():
        raise NodeError(f"{what} undefined: density has no support")
    return mask


def _ratio(num, den, mask: np.ndarray) -> np.ndarray:
    """num/den off the nodes and 0 on them, broadcast and typed as num/den."""
    shape = np.broadcast_shapes(np.shape(num), np.shape(den), mask.shape)
    out = np.zeros(shape, dtype=np.result_type(num, den))
    np.divide(num, den, out=out, where=~mask)
    return out


def _unwrap_with_mask(wrapped: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-axis 1D unwrap; masked entries are bridged by neighbor fill so the
    garbage phase of near-zero samples cannot inject spurious 2*pi offsets."""
    phi = wrapped.copy()
    if mask.any():
        flat = phi.reshape(-1)
        bad = mask.reshape(-1)
        idx = np.arange(flat.size)
        good = ~bad
        if good.any():
            # nearest previous good sample; heads fall back to the first good one
            prev = np.maximum.accumulate(np.where(good, idx, -1))
            first = idx[good][0]
            prev = np.where(prev < 0, first, prev)
            flat = flat[prev]
        phi = flat.reshape(phi.shape)
    for axis in range(phi.ndim):
        phi = np.unwrap(phi, axis=axis)
    return phi


def phase(field: ComplexScalarField, strict: bool = False):
    """Unwrapped phase and node mask.

    The unwrapped values are for reporting; derivative consumers use the
    branch-free phase_gradient instead.  strict=True raises NodeError listing
    masked points instead of returning them.
    """
    mask = _support(density(field), "phase")
    if strict and mask.any():
        raise NodeError(
            f"{int(mask.sum())} samples below the node threshold",
            indices=np.argwhere(mask),
        )
    phi = _unwrap_with_mask(np.angle(field.values), mask)
    return phi, mask


def phase_gradient(field: ComplexScalarField):
    """Branch-free grad(phi) = Im(conj(psi)*grad(psi))/f, masked at nodes."""
    f = density(field)
    mask = _support(f, "phase gradient")
    grads = spectral_gradient(field.values, field.grid)
    return [_ratio((np.conj(field.values) * d).imag, f, mask) for d in grads], mask


def _field_payload(field) -> tuple[int, int, tuple[np.ndarray, ...]]:
    """(ncomp, scalar width in bytes, the sample arrays, component-major)."""
    if isinstance(field, _Amplitude):
        return field.ncomp, 16, (field.values,)
    if isinstance(field, VectorField):
        return field.grid.dim, 8, field.components
    raise TypeError(f"cannot snapshot {type(field).__name__}")


def write_snapshot(field, path) -> None:
    """Serialize one field to a .qfs file (bit-exact round-trip)."""
    ncomp, width, parts = _field_payload(field)
    g = field.grid
    n3 = list(g.n) + [0] * (3 - g.dim)
    len3 = list(g.length) + [0.0] * (3 - g.dim)
    header = _HEADER.pack(_MAGIC, _VERSION, g.dim, *n3, *len3, ncomp, width)
    dtype = "<c16" if width == 16 else "<f8"
    with open(path, "wb") as fh:
        fh.write(header)
        for part in parts:
            fh.write(np.asarray(part, dtype=dtype))


def read_snapshot(path, out=None):
    """Read a .qfs file back into the matching field container.

    Given out, a C-contiguous array of the shape and dtype the file's field
    holds (a scalar's grid shape, else (ncomp, *grid); complex, or float for
    a vector field), the samples are read straight into it and the field
    keeps it as its storage.  A file of another grid or class reads into a
    new array, so that the caller's own checks name the difference.  A file
    refused for its samples may leave part of them in out.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SnapshotError(f"{path}: truncated header ({len(raw)} bytes)")
        magic, version, dim, n1, n2, n3, l1, l2, l3, ncomp, width = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise SnapshotError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise SnapshotError(f"{path}: unsupported version {version}")
        try:
            grid = make_grid(dim, (n1, n2, n3)[:dim], (l1, l2, l3)[:dim])
        except ValueError as err:
            raise SnapshotError(f"{path}: bad geometry: {err}") from err
        if width not in (8, 16):
            raise SnapshotError(f"{path}: unsupported scalar width {width}")
        size, expected = os.fstat(fh.fileno()).st_size - _HEADER.size, grid.size * ncomp * width
        if size != expected:
            raise SnapshotError(f"{path}: payload is {size} bytes, header promises {expected}")
        if width == 16 and ncomp not in _AMPLITUDES:
            raise SnapshotError(f"{path}: complex field with {ncomp} components")
        if width == 8 and ncomp != grid.dim:
            raise SnapshotError(
                f"{path}: vector field with {ncomp} components on a {grid.dim}D grid"
            )
        cls = _AMPLITUDES[ncomp] if width == 16 else None
        shape = (ncomp, *grid.shape) if cls is None else cls._shape(grid)
        dtype = np.dtype("<c16" if width == 16 else "<f8")
        if (out is None or out.shape != shape or out.dtype != dtype
                or not out.flags.c_contiguous):
            out = np.empty(shape, dtype)
        got = fh.readinto(out)
        if got != out.nbytes:
            raise SnapshotError(f"{path}: payload ended after {got} of {out.nbytes} bytes")
    try:
        return VectorField(grid, tuple(out)) if cls is None else cls(grid, out)
    except ValueError as err:  # samples the field refuses: non-finite ones
        raise SnapshotError(f"{path}: {err}") from err
