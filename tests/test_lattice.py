"""Grid construction and spectral operator checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab.lattice import (
    _curl3,
    band_limit,
    curl,
    divergence,
    k_squared,
    make_grid,
    spectral_gradient,
    spectral_laplacian,
)
from util import fd_gradient, fd_laplacian, linf, random_band_limited


def test_make_grid_1d_wavenumbers():
    g = make_grid(1, [8], [2 * np.pi])
    assert g.spacing == (2 * np.pi / 8,)
    assert sorted(np.rint(g.wavenumbers(0)).astype(int)) == list(range(-4, 4))


def test_make_grid_3d_anisotropic():
    g = make_grid(3, [16, 16, 32], [1.0, 1.0, 2.0])
    assert g.shape == (16, 16, 32)
    assert g.spacing == (1 / 16, 1 / 16, 2 / 32)
    assert g.size == 16 * 16 * 32


def test_make_grid_rejects_too_few_points():
    with pytest.raises(ValueError):
        make_grid(1, [3], [1.0])


@pytest.mark.parametrize(
    "dim,n,length",
    [(0, [], []), (4, [8, 8, 8, 8], [1, 1, 1, 1]), (2, [8], [1.0]),
     (1, [8], [0.0]), (1, [8], [-2.0])],
)
def test_make_grid_rejects_bad_geometry(dim, n, length):
    with pytest.raises(ValueError):
        make_grid(dim, n, length)


def test_gradient_plane_wave_exact():
    g = make_grid(1, [16], [2 * np.pi])
    x = g.axis_coordinates(0)
    f = np.exp(1j * x)
    (df,) = spectral_gradient(f, g)
    assert linf(df - 1j * f) <= 1e-12


def test_gradient_sine_mode():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    (df,) = spectral_gradient(np.sin(3 * x), g)
    assert df.dtype == np.float64
    assert linf(df - 3 * np.cos(3 * x)) <= 1e-12


def test_gradient_periodized_gaussian():
    # localized envelope, tails below roundoff at the box edge
    g = make_grid(1, [128], [20.0])
    x = g.axis_coordinates(0)
    c = 10.0
    f = np.exp(-((x - c) ** 2))
    (df,) = spectral_gradient(f, g)
    assert linf(df + 2 * (x - c) * f) <= 1e-9


def test_laplacian_plane_wave():
    g = make_grid(1, [32], [2 * np.pi])
    x = g.axis_coordinates(0)
    f = np.exp(2j * x)
    assert linf(spectral_laplacian(f, g) + 4 * f) <= 1e-12


def test_laplacian_constant_is_zero():
    g = make_grid(2, [8, 8], [1.0, 1.0])
    f = np.full(g.shape, 7.5)
    assert linf(spectral_laplacian(f, g)) <= 1e-12


def test_laplacian_gaussian():
    g = make_grid(1, [128], [20.0])
    x = g.axis_coordinates(0)
    c = 10.0
    f = np.exp(-((x - c) ** 2))
    expected = (4 * (x - c) ** 2 - 2) * f
    assert linf(spectral_laplacian(f, g) - expected) <= 1e-8


@pytest.mark.parametrize(
    "dim,n,length",
    [(1, [64], [2 * np.pi]), (2, [32, 32], [2 * np.pi, 4.0]), (3, [16, 16, 16], [1.0, 2.0, 3.0])],
)
def test_div_of_grad_equals_laplacian(dim, n, length):
    rng = np.random.default_rng(11 + dim)
    g = make_grid(dim, n, length)
    f = random_band_limited(g, rng)
    assert linf(divergence(spectral_gradient(f, g), g) - spectral_laplacian(f, g)) <= 1e-11


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_curl_of_gradient_vanishes(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(3, [16, 16, 16], [2 * np.pi] * 3)
    f = random_band_limited(g, rng)
    assert linf(np.array(curl(spectral_gradient(f, g), g))) <= 1e-11


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_divergence_of_curl_vanishes(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(3, [16, 16, 16], [2 * np.pi] * 3)
    v = [random_band_limited(g, rng) for _ in range(3)]
    assert linf(divergence(curl(v, g), g)) <= 1e-11


def test_curl_2d_scalar():
    g = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    x, y = g.meshes()
    v = [np.sin(y) * np.ones_like(x), np.sin(x) * np.ones_like(y)]
    (bz,) = curl(v, g)
    assert linf(bz - (np.cos(x) - np.cos(y))) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    full=st.booleans(),
    n=st.sampled_from([8, 9]),
    seed=st.integers(0, 2**16),
)
def test_curl3_matches_the_component_formula(dim, full, n, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(dim, [n, 6, 7][:dim], [2 * np.pi, 5.0, 3.0][:dim])
    v = [random_band_limited(g, rng) for _ in range(3 if full else dim)]
    # d[c][a] = dv_c/dx_a, zero for an absent component or a missing axis
    zero = np.zeros(g.shape)
    d = [[zero] * 3 for _ in range(3)]
    for c, comp in enumerate(v):
        d[c][:dim] = spectral_gradient(comp, g)

    def levi_civita(i, j, k):
        return (i - j) * (j - k) * (k - i) / 2

    got = _curl3(v, g)
    assert len(got) == 3
    for i in range(3):
        want = sum(
            levi_civita(i, j, k) * d[k][j] for j in range(3) for k in range(3)
        )
        assert got[i].shape == g.shape
        assert linf(got[i] - want) <= 1e-12
    if dim > 1 and len(v) == dim:
        view = curl(v, g)
        assert [c.tobytes() for c in view] == [
            c.tobytes() for c in (got if dim == 3 else got[2:])
        ]


def test_curl_rejects_1d_and_bad_counts():
    with pytest.raises(ValueError):
        curl([np.zeros(8)], make_grid(1, [8], [1.0]))
    g = make_grid(3, [8, 8, 8], [1, 1, 1])
    with pytest.raises(ValueError):
        curl([np.zeros(g.shape)] * 2, g)
    g = make_grid(2, [8, 8], [1.0, 1.0])
    with pytest.raises(ValueError, match="2 or 3 components"):
        _curl3([np.zeros(g.shape)], g)


def test_band_limit_removes_high_modes_and_is_idempotent():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    f = np.sin(3 * x) + np.sin(30 * x)
    bl = band_limit(f, g)
    assert linf(bl - np.sin(3 * x)) <= 1e-12
    assert linf(band_limit(bl, g) - bl) <= 1e-13


def test_k_squared_matches_mode_table():
    g = make_grid(2, [8, 8], [2 * np.pi, 2 * np.pi])
    k2 = k_squared(g)
    assert k2[0, 0] == 0.0
    assert k2[1, 0] == pytest.approx(1.0)
    assert k2[2, 3] == pytest.approx(4.0 + 9.0)


def test_fd_cross_validates_spectral_at_second_order():
    errs = []
    for n in (64, 128):
        g = make_grid(1, [n], [2 * np.pi])
        x = g.axis_coordinates(0)
        f = np.sin(3 * x)
        errs.append(linf(fd_gradient(f, g)[0] - spectral_gradient(f, g)[0]))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_fd_laplacian_cross_validates():
    errs = []
    for n in (64, 128):
        g = make_grid(1, [n], [2 * np.pi])
        x = g.axis_coordinates(0)
        f = np.cos(2 * x)
        errs.append(linf(fd_laplacian(f, g) - spectral_laplacian(f, g)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_shape_mismatch_raises():
    g = make_grid(2, [8, 8], [1.0, 1.0])
    with pytest.raises(ValueError):
        spectral_gradient(np.zeros((8, 4)), g)
    with pytest.raises(ValueError):
        divergence([np.zeros(g.shape)], g)
