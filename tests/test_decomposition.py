"""Constants, gauge data, probability currents, and the Helmholtz-type split."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvlab import decomposition
from qvlab.algebra import dirac_gamma
from qvlab.decomposition import (
    FourCurrent,
    GaugeConfiguration,
    PhysicalConstants,
    current_bispinor,
    current_scalar,
    current_spinor,
    helmholtz_split,
    recompose_velocity,
    velocity,
)
from qvlab.fields import (
    BispinorField,
    ComplexScalarField,
    NodeError,
    SpinorField,
    VectorField,
    density,
)
from qvlab.lattice import Grid, divergence, make_grid, spectral_gradient
from oracles import GaussianPacket
from util import linf, random_band_limited


NAT = PhysicalConstants.natural()


def test_constants_natural_units():
    assert (NAT.alpha, NAT.beta, NAT.gamma) == (-0.5, 1.0, -1.0)
    assert NAT.mu0 == 1.0
    assert 2 * NAT.alpha * NAT.beta / NAT.gamma == pytest.approx(1.0 / NAT.q)


def test_constants_physical_realization():
    c = PhysicalConstants(hbar=2.0, m=4.0, q=0.5, c=3.0)
    assert c.alpha == -2.0 / 8.0
    assert c.beta == 0.5
    assert c.gamma == -0.125
    assert c.mu0 == pytest.approx(1.0 / 9.0)


def test_constants_round_trip_from_decomposition():
    c = PhysicalConstants.from_decomposition(alpha=-0.25, beta=0.5, gamma=-0.125)
    assert (c.hbar, c.m, c.q) == (2.0, 4.0, 0.5)


def test_constants_inconsistent_rejected():
    with pytest.raises(ValueError):
        PhysicalConstants.from_decomposition(alpha=-0.5, beta=0.0, gamma=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=1.0, m=-1.0, q=1.0)


def test_records_store_only_their_independent_values():
    def init_fields(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert init_fields(Grid) == ["n", "length"]
    assert init_fields(PhysicalConstants) == ["hbar", "m", "q", "c", "eps0"]
    assert init_fields(GaugeConfiguration) == [
        "grid", "a_classical", "a_quantum", "u", "b_external"
    ]
    for name in ("_close", "_REL_TOL"):
        assert not hasattr(decomposition, name)
    assert not hasattr(PhysicalConstants, "from_physical")
    # the derived values use the expressions the stored copies were made with
    g = Grid(n=(6, 5), length=(2.0, 3.0))
    assert (g.dim, g.spacing) == (2, (2.0 / 6, 3.0 / 5))
    c = PhysicalConstants(hbar=0.7, m=1.3, q=-1.1)
    assert (c.alpha, c.beta, c.gamma) == (-0.7 / (2.0 * 1.3), 1.0 / 0.7, 1.1 / 1.3)
    for bad in ({"hbar": 0.0}, {"m": 0.0}, {"c": 0.0}, {"eps0": -1.0}):
        with pytest.raises(ValueError):
            PhysicalConstants(**{"hbar": 1.0, "m": 1.0, "q": 1.0, **bad})


def test_gauge_split_invariant_enforced():
    g = make_grid(1, [16], [1.0])
    a = VectorField(g, (np.ones(16),))
    ok = GaugeConfiguration.assemble(g, a_classical=a, a_quantum=a)
    assert linf(ok.a_psi.components[0] - 2.0) == 0.0


def test_current_scalar_plane_wave():
    # J = f*hbar*k/m for exp(ikx), no gauge field
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    k = 5.0
    psi = ComplexScalarField(g, np.exp(1j * k * x))
    j = current_scalar(psi, GaugeConfiguration.free(g), NAT)
    assert linf(j.components[0] - k) <= 1e-11


def test_current_scalar_real_field_vanishes():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    psi = ComplexScalarField(g, (2.0 + np.cos(x)).astype(complex))
    j = current_scalar(psi, GaugeConfiguration.free(g), NAT)
    assert linf(j.components[0]) <= 1e-12


def test_current_scalar_uniform_gauge_term():
    # psi = 1: J = gamma*f*A = -A in natural units
    g = make_grid(1, [32], [2 * np.pi])
    a = VectorField(g, (np.full(g.shape, 0.7),))
    gauge = GaugeConfiguration.assemble(g, a_classical=a)
    psi = ComplexScalarField(g, np.ones(g.shape, dtype=complex))
    j = current_scalar(psi, gauge, NAT)
    assert linf(j.components[0] - NAT.gamma * 0.7) <= 1e-14


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_current_matches_phase_gradient_form(seed):
    # J = f*(-2*alpha*grad(phi) + gamma*A) away from nodes
    from qvlab.fields import phase_gradient

    rng = np.random.default_rng(seed)
    g = make_grid(2, [32, 32], [2 * np.pi, 7.0])
    vals = random_band_limited(g, rng, complex_valued=True) + 2.0
    psi = ComplexScalarField(g, vals)
    a = VectorField(g, tuple(random_band_limited(g, rng) for _ in range(2)))
    gauge = GaugeConfiguration.assemble(g, a_classical=a)
    j = current_scalar(psi, gauge, NAT)
    grads, mask = phase_gradient(psi)
    f = density(psi)
    assert not mask.any()
    for axis in range(2):
        expected = f * (-2 * NAT.alpha * grads[axis] + NAT.gamma * a.components[axis])
        assert linf(j.components[axis] - expected) <= 1e-8


def test_velocity_divides_out_density():
    g = make_grid(1, [32], [2 * np.pi])
    f = np.full(g.shape, 0.25)
    j = VectorField(g, (2.0 * f,))
    v, mask = velocity(j, f)
    assert not mask.any()
    assert linf(v.components[0] - 2.0) == 0.0


def test_velocity_masks_node_leaves_neighbors():
    g = make_grid(1, [32], [2 * np.pi])
    f = np.ones(g.shape)
    f[5] = 0.0
    j = VectorField(g, (3.0 * np.ones(g.shape),))
    v, mask = velocity(j, f)
    assert mask[5] and mask.sum() == 1
    assert v.components[0][5] == 0.0
    assert linf(np.delete(v.components[0], 5) - 3.0) == 0.0


def test_velocity_all_masked_raises():
    g = make_grid(1, [32], [2 * np.pi])
    with pytest.raises(NodeError):
        velocity(VectorField.zero(g), np.zeros(g.shape))


def test_velocity_free_gaussian_matches_oracle():
    pk = GaussianPacket(sigma0=1.0, x0=20.0)
    g = make_grid(1, [256], [40.0])
    x = g.axis_coordinates(0)
    t = 0.8
    psi = ComplexScalarField(g, pk.psi(x, t))
    j = current_scalar(psi, GaugeConfiguration.free(g), NAT)
    v, mask = velocity(j, density(psi))
    keep = ~mask
    assert linf(v.components[0][keep] - pk.bohm_velocity(x[keep], t)) <= 1e-8


def test_current_spinor_reduces_to_scalar_exactly():
    rng = np.random.default_rng(9)
    g = make_grid(1, [64], [2 * np.pi])
    vals = random_band_limited(g, rng, complex_valued=True) + 1.5
    a = VectorField(g, (random_band_limited(g, rng),))
    gauge = GaugeConfiguration.assemble(g, a_classical=a)
    scalar = current_scalar(ComplexScalarField(g, vals), gauge, NAT)
    spinor_vals = np.stack([vals, np.zeros_like(vals)])
    spinor = current_spinor(SpinorField(g, spinor_vals), gauge, NAT)
    assert np.array_equal(scalar.components[0], spinor.components[0])


def test_current_spinor_equal_components_plane_wave():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    k = 4.0
    comp = np.exp(1j * k * x) / np.sqrt(2.0)
    psi = SpinorField(g, np.stack([comp, comp]))
    j = current_spinor(psi, GaugeConfiguration.free(g), NAT)
    assert linf(j.components[0] - k) <= 1e-11


def test_current_spinor_global_phase_invariant():
    rng = np.random.default_rng(13)
    g = make_grid(1, [64], [2 * np.pi])
    vals = np.stack(
        [random_band_limited(g, rng, complex_valued=True) for _ in range(2)]
    )
    gauge = GaugeConfiguration.free(g)
    j1 = current_spinor(SpinorField(g, vals), gauge, NAT)
    j2 = current_spinor(SpinorField(g, np.exp(0.7j) * vals), gauge, NAT)
    assert linf(j1.components[0] - j2.components[0]) <= 1e-12


def test_current_bispinor_rest_state():
    g = make_grid(1, [16], [1.0])
    vals = np.zeros((4, 16), dtype=complex)
    vals[0] = 1.0
    j = current_bispinor(BispinorField(g, vals), c=2.0)
    assert linf(j.j0 - 2.0) == 0.0
    for comp in j.jk:
        assert linf(comp) == 0.0


def test_current_bispinor_third_axis_example():
    g = make_grid(1, [16], [1.0])
    vals = np.zeros((4, 16), dtype=complex)
    vals[0] = 1.0 / np.sqrt(2.0)
    vals[2] = 1.0 / np.sqrt(2.0)
    j = current_bispinor(BispinorField(g, vals), c=1.0)
    assert linf(j.jk[2] - 1.0) <= 1e-15
    assert linf(j.jk[0]) <= 1e-15 and linf(j.jk[1]) <= 1e-15
    assert linf(j.j0 - 1.0) <= 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_current_bispinor_matches_matrix_form(seed):
    # J^mu = c * psi^dag gamma^0 gamma^mu psi, evaluated pointwise
    rng = np.random.default_rng(seed)
    g = make_grid(1, [32], [1.0])
    vals = rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32))
    c = 1.7
    j = current_bispinor(BispinorField(g, vals), c=c)
    g0 = dirac_gamma(0)
    for mu, got in enumerate([j.j0, *j.jk]):
        mat = g0 @ dirac_gamma(mu)
        expected = c * np.einsum("a...,ab,b...->...", np.conj(vals), mat, vals).real
        assert linf(got - expected) <= 1e-13
    # J^1 and J^2 are bitwise those of each bilinear formed where it is used
    p1, p2, p3, p4 = vals
    assert np.array_equal(j.jk[0], 2.0 * c * (np.conj(p1) * p4 + np.conj(p2) * p3).real)
    assert np.array_equal(j.jk[1], -2.0 * c * (np.conj(p2) * p3 - np.conj(p1) * p4).imag)


def test_current_bispinor_timelike():
    rng = np.random.default_rng(101)
    g = make_grid(1, [1000], [1.0])
    vals = rng.standard_normal((4, 1000)) + 1j * rng.standard_normal((4, 1000))
    j = current_bispinor(BispinorField(g, vals), c=1.0)
    j_mag = np.sqrt(sum(comp**2 for comp in j.jk))
    assert np.all(j_mag <= j.j0 * (1 + 1e-12))


def test_four_current_requires_three_spatial_components():
    g = make_grid(1, [16], [1.0])
    with pytest.raises(ValueError):
        FourCurrent(g, np.zeros(16), (np.zeros(16), np.zeros(16)))


def test_helmholtz_pure_gradient_field():
    # v = -alpha*grad(Phi) with chi = 0 comes back with A = 0
    rng = np.random.default_rng(3)
    g = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    phi_true = random_band_limited(g, rng, zero_mean=True)
    grad = spectral_gradient(phi_true, g)
    v = VectorField(g, tuple(-NAT.alpha * d for d in grad))
    phi, a = helmholtz_split(v, np.zeros(g.shape), NAT)
    assert linf(phi - phi_true) <= 1e-10
    for comp in a.components:
        assert linf(comp) <= 1e-10


def test_helmholtz_pure_rotational_field():
    # divergence-free input with chi = 0 keeps Phi = 0
    rng = np.random.default_rng(4)
    g = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    stream = random_band_limited(g, rng)
    dsdx, dsdy = spectral_gradient(stream, g)
    v = VectorField(g, (dsdy, -dsdx))
    phi, a = helmholtz_split(v, np.zeros(g.shape), NAT)
    assert linf(phi) <= 1e-10
    for comp, expect in zip(a.components, v.components):
        assert linf(comp - expect / NAT.gamma) <= 1e-10


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_helmholtz_round_trip_and_divergence(dim, n, seed):
    rng = np.random.default_rng(100 * dim + seed)
    g = make_grid(dim, [n] * dim, [2 * np.pi] * dim)
    v = VectorField(g, tuple(random_band_limited(g, rng) for _ in range(dim)))
    chi = random_band_limited(g, rng, zero_mean=True)
    phi, a = helmholtz_split(v, chi, NAT)
    back = recompose_velocity(phi, a, NAT)
    for got, expect in zip(back.components, v.components):
        assert linf(got - expect) <= 1e-10
    assert linf(divergence(a.components, g) - chi) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    shape=st.lists(st.integers(4, 16), min_size=1, max_size=3),
    lengths=st.lists(st.floats(1.0, 30.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
# n = 4 on every axis: the band keeps only k = 0, so chi is zero
@example(shape=[4, 4, 4], lengths=[1.0, 1.0, 1.0], seed=1)
def test_helmholtz_round_trip_property(shape, lengths, seed):
    # band-limited v and chi on odd and even n with unequal box lengths
    rng = np.random.default_rng(seed)
    g = make_grid(len(shape), shape, lengths[: len(shape)])
    v = VectorField(g, tuple(random_band_limited(g, rng) for _ in range(g.dim)))
    chi = random_band_limited(g, rng, zero_mean=True)
    phi, a = helmholtz_split(v, chi, NAT)
    back = recompose_velocity(phi, a, NAT)
    for got, expect in zip(back.components, v.components):
        assert linf(got - expect) <= 1e-10
    assert linf(divergence(a.components, g) - chi) <= 1e-10


def test_helmholtz_rejects_unbalanced_source():
    g = make_grid(1, [32], [2 * np.pi])
    v = VectorField.zero(g)
    with pytest.raises(ValueError, match="non-solvable"):
        helmholtz_split(v, np.ones(g.shape), NAT)


def test_helmholtz_needs_vortex_carrier():
    g = make_grid(1, [32], [2 * np.pi])
    neutral = PhysicalConstants(hbar=1.0, m=1.0, q=0.0)
    with pytest.raises(ValueError, match="gamma"):
        helmholtz_split(VectorField.zero(g), np.zeros(g.shape), neutral)
