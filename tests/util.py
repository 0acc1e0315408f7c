"""Shared helpers for the test suite: random band-limited fields, norms,
finite-difference operators that cross-validate the spectral ones, a
per-component reference for the grid samplers, and a counter of FFT calls."""
import collections
import itertools

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
    normalized to unit sup norm.  A zero_mean field has its k = 0 mode
    removed; when the band keeps only k = 0 it is exactly zero, not rescaled
    roundoff."""
    if complex_valued:
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    else:
        raw = rng.standard_normal(grid.shape)
    out = band_limit(raw, grid, fraction)
    if zero_mean:
        if all(fraction * n <= 1 for n in grid.n):
            return np.zeros_like(out)
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


def _trig_sum(values: np.ndarray, grid: Grid, points: np.ndarray) -> np.ndarray:
    # the trigonometric interpolant summed mode by mode over the full mesh
    fhat = np.fft.fftn(values).ravel()
    ks = np.meshgrid(*(grid.wavenumbers(a) for a in range(grid.dim)), indexing="ij")
    phase = sum(points[:, a, None] * ks[a].ravel()[None, :] for a in range(grid.dim))
    return (np.exp(1j * phase) @ fhat).real / grid.size


def _catmull_rom(values: np.ndarray, grid: Grid, points: np.ndarray) -> np.ndarray:
    # one component, in the sampler's order of floating-point operations
    bases, weights = [], []
    for a in range(grid.dim):
        u = points[:, a] / grid.spacing[a]
        base = np.floor(u).astype(np.int64)
        s = u - base
        s2 = s * s
        s3 = s2 * s
        weights.append(np.stack([
            -0.5 * s3 + s2 - 0.5 * s,
            1.5 * s3 - 2.5 * s2 + 1.0,
            -1.5 * s3 + 2.0 * s2 + 0.5 * s,
            0.5 * s3 - 0.5 * s2,
        ], axis=1))
        bases.append(base)
    out = np.zeros(points.shape[0])
    for offsets in itertools.product(range(4), repeat=grid.dim):
        w = weights[0][:, offsets[0]]
        for a in range(1, grid.dim):
            w = w * weights[a][:, offsets[a]]
        idx = tuple((bases[a] + (offsets[a] - 1)) % grid.n[a] for a in range(grid.dim))
        out += w * values[idx]
    return out


def reference_sample(grid: Grid, times, snapshots, points, t: float,
                     method: str) -> np.ndarray:
    """GridFieldSampler values, (N, C), one component and one snapshot at a
    time: a direct trigonometric sum for "spectral", the Catmull-Rom stencil
    for "tricubic"; linear in time between snapshots, clamped at the ends."""
    evaluate = _trig_sum if method == "spectral" else _catmull_rom
    times = np.asarray(times, dtype=float)

    def at(index):
        return np.stack([evaluate(c, grid, points) for c in snapshots[index]], axis=1)

    if times.size == 1 or t <= times[0]:
        return at(0)
    if t >= times[-1]:
        return at(times.size - 1)
    i = int(np.searchsorted(times, t, side="right")) - 1
    w = (t - times[i]) / (times[i + 1] - times[i])
    return at(i) if w == 0.0 else (1.0 - w) * at(i) + w * at(i + 1)


def count_transforms(monkeypatch) -> collections.Counter:
    """Count numpy.fft transforms by name from now to the end of the test."""
    calls = collections.Counter()
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
