"""Shared helpers for the test suite: random band-limited fields, norms, and
finite-difference operators that cross-validate the spectral ones."""
import numpy as np

from qvlab.lattice import Grid, _check_shape, band_limit


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    fraction: float = 0.25,
    complex_valued: bool = False,
    zero_mean: bool = False,
) -> np.ndarray:
    """Smooth random field with modes strictly below fraction*n per axis,
    normalized to unit sup norm."""
    if complex_valued:
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    else:
        raw = rng.standard_normal(grid.shape)
    out = band_limit(raw, grid, fraction)
    if zero_mean:
        out = out - out.mean()
    peak = np.abs(out).max()
    return out / peak if peak > 0 else out


def linf(a) -> float:
    return float(np.max(np.abs(a)))


def rms(a) -> float:
    a = np.asarray(a)
    return float(np.sqrt(np.mean(np.abs(a) ** 2)))


def fd_gradient(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """2nd-order centered differences, periodic wrap. Cross-validation only."""
    values = _check_shape(values, grid)
    out = []
    for axis in range(grid.dim):
        num = np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)
        out.append(num / (2.0 * grid.spacing[axis]))
    return out


def fd_laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """2nd-order centered Laplacian, periodic wrap. Cross-validation only."""
    values = _check_shape(values, grid)
    out = np.zeros_like(values)
    for axis in range(grid.dim):
        plus = np.roll(values, -1, axis=axis)
        minus = np.roll(values, 1, axis=axis)
        out = out + (plus - 2.0 * values + minus) / grid.spacing[axis] ** 2
    return out
