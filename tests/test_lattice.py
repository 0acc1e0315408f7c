"""Grid construction and spectral operator checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab.decomposition import FourCurrent, GaugeConfiguration, PhysicalConstants
from qvlab.evolvers import EvolutionParams, FourPotential, WaveState, wave_initial_state
from qvlab.lattice import (
    _INV_LAP,
    _LAP,
    _NEG,
    _curl3,
    _multiplier,
    _spectral,
    band_limit,
    curl,
    divergence,
    k_squared,
    make_grid,
    spectral_gradient,
    spectral_laplacian,
)
from util import (
    count_transforms,
    fd_gradient,
    fd_laplacian,
    linf,
    plain_spectral,
    random_band_limited,
)


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


# Real fields take rfftn and half spectra; the same samples cast to complex
# take fftn.  Over 300 random fields (1D-3D, 4-16 points per axis) the two
# paths differed by at most 6.8e-16 of the largest output; the bound leaves a
# margin of about 15.
R2C_RTOL = 1e-14


@settings(max_examples=60, deadline=None)
@given(
    n=st.lists(st.integers(4, 16), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_path_matches_complex_path(n, seed):
    rng = np.random.default_rng(seed)
    dim = len(n)
    g = make_grid(dim, n, [2 * np.pi, 5.0, 3.0][:dim])
    real = [rng.standard_normal(g.shape) for _ in range(3)]
    cast = [f.astype(complex) for f in real]
    ops = {
        "gradient": lambda v: spectral_gradient(v[0], g),
        "laplacian": lambda v: [spectral_laplacian(v[0], g)],
        "divergence": lambda v: [divergence(v[:dim], g)],
        "curl": lambda v: list(_curl3(v, g)),
        "band_limit": lambda v: [band_limit(v[0], g)],
    }
    for name, op in ops.items():
        for got, want in zip(op(real), op(cast), strict=True):
            assert got.dtype == np.float64, name
            assert linf(got - want) <= R2C_RTOL * max(linf(want), 1.0), name


@pytest.mark.parametrize(
    "n,axis", [([8], 0), ([8, 6], 1), ([6, 4, 8], 2), ([6, 4, 8], 0), ([8, 7], 0)]
)
def test_pure_nyquist_mode_has_zero_gradient(n, axis):
    # a real field's spectrum is halved along the last transformed axis: the
    # term's own axis for i*k_a and -k_a^2, the last grid axis for -|k|^2
    g = make_grid(len(n), n, [1.0] * len(n))
    shape = [1] * len(n)
    shape[axis] = n[axis]
    f = ((-1.0) ** np.arange(n[axis])).reshape(shape) * np.ones(g.shape)
    for values in (f, f.astype(complex)):
        assert all(linf(d) <= 1e-12 for d in spectral_gradient(values, g))
        # -|k|^2 and its one-axis part -k_a^2 keep the mode
        (lap_a,) = _spectral([values], g, [[(0, (_LAP, axis))]])
        for lap in (spectral_laplacian(values, g), lap_a):
            assert linf(lap + (np.pi * n[axis]) ** 2 * f) <= 1e-9 * (np.pi * n[axis]) ** 2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transform_counts_follow_one_transform_per_field(dim, monkeypatch):
    # counts are axis passes: a derivative along one axis transforms its
    # field along that axis only, once per field and axis, and inverts once
    # along it; the Laplacian keeps the full-grid route
    g = make_grid(dim, [8, 6, 5][:dim], [1.0] * dim)
    v = [np.ones(g.shape)] * 3
    calls = count_transforms(monkeypatch)
    spectral_gradient(v[0], g)
    assert calls == {"rfftn": dim, "irfftn": dim}
    calls.clear()
    divergence(v[:dim], g)
    assert calls == {"rfftn": dim, "irfftn": dim}
    calls.clear()
    spectral_gradient(v[0].astype(complex), g)
    assert calls == {"fftn": dim, "ifftn": dim}
    calls.clear()
    spectral_laplacian(v[0], g)
    assert calls == {"rfftn": dim, "irfftn": dim}
    if dim == 3:
        calls.clear()
        _curl3(v, g)
        assert calls == {"rfftn": 6, "irfftn": 6}


@pytest.mark.parametrize("n", [[8], [7], [8, 6], [9, 5], [6, 7], [8, 6, 4], [5, 7, 9],
                               [7, 8, 6]])
@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_spectral_in_place_matches_the_allocating_transforms_bitwise(n, kind):
    # the transforms write into storage _spectral owns, and the parts of an
    # output's axis sets add in x-space; against the same per-axis plan made
    # of numpy's allocating calls, not one bit may move
    rng = np.random.default_rng(sum(n))
    g = make_grid(len(n), n, [2 * np.pi, 5.0, 3.0][:len(n)])
    fields = [rng.standard_normal(g.shape) for _ in range(3)]
    if kind != "real":
        fields[1] = fields[1] + 1j * rng.standard_normal(g.shape)
    if kind == "complex":
        fields = [f + 1j * rng.standard_normal(g.shape) for f in fields]
    kept = [f.copy() for f in fields]
    last = g.dim - 1
    outputs = [
        [(0, 0)],
        [(0, last, _LAP), (1, 0), (2, _INV_LAP, _NEG)],
        [(1,), (2, 0, last)],
        [(2, ("band", 0.25)), (0, _LAP), (1, last)],
        [(0, (_LAP, last)), (1, last, _NEG), (2, 0, (_LAP, 0)), (0, (_LAP, 0)), (1, _LAP)],
    ]
    got = _spectral(fields, g, outputs)
    want = plain_spectral(fields, g, outputs)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == (np.float64 if kind == "real" else np.complex128)
        assert a.shape == g.shape
        assert a.tobytes() == b.tobytes()
    for f, before in zip(fields, kept):
        assert f.tobytes() == before.tobytes()


def _operator_outputs(dim: int) -> list:
    """The terms of every operator _spectral serves, on fields 0..2: the
    gradient, the Laplacian as per-axis parts, the divergence, the curl,
    a band, the inverse Laplacian, d_a d_b and d_a Lap."""
    axes = range(dim)
    outputs = [[(0, a)] for a in axes] + [[(0, (_LAP, a)) for a in axes]]
    outputs += [[(a, a) for a in axes]]
    for b, c in ((1, 2), (2, 0), (0, 1)):
        terms = [(c, b)] if b < dim else []
        outputs += [terms + [(b, c, _NEG)] if c < dim else terms]
    outputs += [[(0, ("band", 0.25))], [(0, _INV_LAP)]] + [[(0, a, _INV_LAP)] for a in axes]
    outputs += [[(0, a, b)] for a in axes for b in axes if a <= b]
    return [terms for terms in outputs + [[(0, a, _LAP)] for a in axes] if terms]


@settings(max_examples=60, deadline=None)
@given(n=st.lists(st.integers(4, 16), min_size=1, max_size=3), complex_valued=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_per_axis_terms_match_the_full_grid_route(n, complex_valued, seed):
    # a term along one axis transforms along that axis only; every operator
    # agrees with the route that transforms every term along every axis
    rng = np.random.default_rng(seed)
    g = make_grid(len(n), n, rng.uniform(0.5, 20.0, len(n)))
    fields = [rng.standard_normal(g.shape) for _ in range(3)]
    if complex_valued:
        fields = [f + 1j * rng.standard_normal(g.shape) for f in fields]
    outputs = _operator_outputs(g.dim)
    full = plain_spectral(fields, g, outputs, full=True)
    for got, want in zip(_spectral(fields, g, outputs), full, strict=True):
        assert got.dtype == want.dtype
        assert linf(got - want) <= 1e-14 * linf(want)
    # Lap as per-axis parts is the full-grid -|k|^2
    lap = plain_spectral(fields, g, [[(0, _LAP)]], full=True)[0]
    assert linf(full[g.dim] - lap) <= 1e-14 * linf(lap)


_G = make_grid(2, [8, 4], [1.0, 1.0])
_Z = np.zeros(_G.shape)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GaugeConfiguration.assemble(_G, b_external=(0.0, 1.0)),
         "GaugeConfiguration.b_external needs exactly 3 components, got 2"),
        (lambda: FourCurrent(_G, _Z, (_Z, _Z)), "FourCurrent.jk needs exactly 3 components, got 2"),
        (lambda: FourPotential(_G, _Z, (_Z, _Z)),
         "FourPotential.a needs exactly 3 components, got 2"),
        (lambda: WaveState(_G, (_Z,) * 3, (_Z,) * 4, 0.0),
         "WaveState.prev needs exactly 4 components, got 3"),
        (lambda: WaveState(_G, (_Z,) * 4, (_Z,) * 3, 0.0),
         "WaveState.curr needs exactly 4 components, got 3"),
        (lambda: wave_initial_state(_G, (_Z,) * 4, (_Z,) * 3, PhysicalConstants.natural(),
                                    EvolutionParams(0.01, 1)),
         "adot0 needs exactly 4 components, got 3"),
        (lambda: FourCurrent(_G, np.zeros((8, 8)), (_Z,) * 3),
         r"FourCurrent.j0 has shape \(8, 8\), expected \(8, 4\)"),
    ],
    ids=["b_external", "jk", "a", "prev", "curr", "adot0", "j0"],
)
def test_records_name_the_array_they_reject_and_what_it_got(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_record_components_are_read_only_views_on_the_grid():
    # scalars broadcast: a uniform field costs no memory
    gauge = GaugeConfiguration.assemble(_G, b_external=(0, 0, 2.5))
    j = FourCurrent(_G, _Z, (_Z, 1.0, _Z))
    for comp in (*gauge.b_external, *j.jk):
        assert comp.shape == _G.shape and comp.dtype == float
        assert not comp.flags.writeable
    assert gauge.b_external[2].strides == (0, 0) and float(gauge.b_external[2][3, 1]) == 2.5
