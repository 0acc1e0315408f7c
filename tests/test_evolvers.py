"""Split-step integrators, the wave-equation leapfrog, and the Taylor
evolution matrix."""
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab import evolvers
from qvlab.algebra import dirac_gamma
from qvlab.decomposition import FourCurrent, GaugeConfiguration, PhysicalConstants
from qvlab.evolvers import (
    EvolutionParams,
    FourPotential,
    WaveState,
    gps_apply,
    gps_matrix,
    run_dirac,
    run_pauli,
    run_schrodinger,
    run_wave,
    wave_initial_state,
)
from qvlab.fields import BispinorField, ComplexScalarField, SpinorField, VectorField
from qvlab.lattice import make_grid
from oracles import CoherentState, GaussianPacket, dirac_free_eigenstates
from util import count_transforms, linf, random_band_limited


NAT = PhysicalConstants.natural()


def _norm(values, grid):
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume))


def _step(run, state, source, dt):
    """One step of `run`: the last snapshot of a one-step run."""
    return run(state, source, NAT, EvolutionParams(dt, 1)).snapshots[-1]


def test_params_validation():
    good = dict(dt=0.1, steps=10)
    EvolutionParams(**good)
    for bad in (
        dict(good, dt=0.0),
        dict(good, steps=-1),
        dict(good, snapshot_stride=0),
    ):
        with pytest.raises(ValueError):
            EvolutionParams(**bad)


def test_plane_wave_kinetic_phase_exact():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    k, dt = 3.0, 0.01
    psi = ComplexScalarField(g, np.exp(1j * k * x))
    out = _step(run_schrodinger, psi, GaugeConfiguration.free(g), dt)
    expected = np.exp(1j * k * x) * np.exp(-1j * k**2 * dt / 2.0)
    assert linf(out.values - expected) <= 1e-13


def test_plane_wave_uniform_gauge_exact():
    # all three split factors are diagonal on a plane wave, so the full step
    # reproduces exp(-i*dt*(k - q*a)^2 / 2m) with no splitting error
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    k, a0, dt = 3.0, 0.4, 0.02
    gauge = GaugeConfiguration.assemble(
        g, a_classical=VectorField(g, (np.full(g.shape, a0),))
    )
    psi = ComplexScalarField(g, np.exp(1j * k * x))
    out = _step(run_schrodinger, psi, gauge, dt)
    expected = np.exp(1j * k * x) * np.exp(-1j * dt * (k - NAT.q * a0) ** 2 / 2.0)
    assert linf(out.values - expected) <= 1e-13


def test_uniform_potential_global_phase():
    # a uniform state is the k = 0 mode, where the kinetic factor is 1
    g = make_grid(1, [64], [2 * np.pi])
    psi = ComplexScalarField(g, np.full(g.shape, 0.6 - 0.8j))
    u0, dt = 0.7, 0.05
    gauge = GaugeConfiguration.assemble(g, u=np.full(g.shape, u0))
    out = _step(run_schrodinger, psi, gauge, dt)
    assert linf(out.values - psi.values * np.exp(-1j * u0 * dt)) <= 1e-14


def test_free_gaussian_long_run_matches_oracle():
    pk = GaussianPacket(sigma0=1.0, x0=20.0, k0=1.0)
    g = make_grid(1, [256], [40.0])
    x = g.axis_coordinates(0)
    psi = ComplexScalarField(g, pk.psi(x, 0.0))
    params = EvolutionParams(dt=1e-3, steps=1000)
    trace = run_schrodinger(psi, GaugeConfiguration.free(g), NAT, params)
    final = trace.snapshots[-1].values
    assert linf(final - pk.psi(x, 1.0)) <= 1e-6


def _coherent_error(dt: float, t_final: float) -> float:
    state = CoherentState(displacement=1.0)
    g = make_grid(1, [128], [24.0])
    x = g.axis_coordinates(0) - 12.0
    gauge = GaugeConfiguration.assemble(g, u=state.potential(x))
    psi = ComplexScalarField(g, state.psi(x, 0.0))
    steps = int(round(t_final / dt))
    trace = run_schrodinger(psi, gauge, NAT, EvolutionParams(dt, steps))
    return linf(trace.snapshots[-1].values - state.psi(x, t_final))


def test_coherent_state_second_order_convergence():
    coarse = _coherent_error(2e-3, 0.5)
    fine = _coherent_error(1e-3, 0.5)
    assert coarse / fine >= 3.5


def test_norm_conserved_uniform_gauge():
    rng = np.random.default_rng(11)
    g = make_grid(1, [64], [2 * np.pi])
    psi = random_band_limited(g, rng, complex_valued=True)
    gauge = GaugeConfiguration.assemble(
        g,
        a_classical=VectorField(g, (np.full(g.shape, 0.3),)),
        u=np.cos(g.axis_coordinates(0)),
    )
    n0 = _norm(psi, g)
    trace = run_schrodinger(ComplexScalarField(g, psi), gauge, NAT, EvolutionParams(1e-3, 1000))
    assert abs(_norm(trace.snapshots[-1].values, g) - n0) <= 1e-10


def test_norm_drift_small_for_nonuniform_gauge():
    rng = np.random.default_rng(12)
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    psi = random_band_limited(g, rng, complex_valued=True)
    gauge = GaugeConfiguration.assemble(
        g, a_classical=VectorField(g, (0.2 * (1.0 + 0.5 * np.cos(x)),))
    )
    n0 = _norm(psi, g)
    trace = run_schrodinger(ComplexScalarField(g, psi), gauge, NAT, EvolutionParams(1e-3, 500))
    assert abs(_norm(trace.snapshots[-1].values, g) - n0) <= 1e-6


def test_strang_step_reversible():
    rng = np.random.default_rng(13)
    g = make_grid(1, [64], [2 * np.pi])
    vals = random_band_limited(g, rng, complex_valued=True)
    gauge = GaugeConfiguration.assemble(
        g,
        a_classical=VectorField(g, (np.full(g.shape, 0.5),)),
        u=np.sin(g.axis_coordinates(0)),
    )
    fwd = _step(run_schrodinger, ComplexScalarField(g, vals), gauge, 0.01)
    back = _step(run_schrodinger, fwd, gauge, -0.01)
    assert linf(back.values - vals) <= 1e-12


def test_cross_series_refuses_overflow():
    # a term that is not finite stops the series instead of summing forever
    g = make_grid(1, [16], [2 * np.pi])
    a = (1.0 + 0.5 * np.cos(g.axis_coordinates(0)),)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        evolvers._apply_cross(np.ones(g.shape, dtype=complex), g, a, 1e300)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cross_generator_transform_count(dim, monkeypatch):
    # a zero coefficient stops the series after one generator application:
    # div(A psi) transforms and inverts each component along its own axis,
    # and grad psi psi along each axis (counts are axis passes)
    g = make_grid(dim, [8, 6, 5][:dim], [2 * np.pi] * dim)
    a = tuple(np.full(g.shape, 0.5 + axis) for axis in range(dim))
    calls = count_transforms(monkeypatch)
    evolvers._apply_cross(np.ones(g.shape, dtype=complex), g, a, 0.0)
    assert calls == {"fftn": 2 * dim, "ifftn": 2 * dim}


def _peaked_potential(g):
    # a position-dependent potential that reaches 100, where the splitting
    # error of a 0.01 step is real
    return GaugeConfiguration.assemble(g, u=100.0 * (1.0 + np.cos(g.axis_coordinates(0))) / 2.0)


def test_potential_phase_warning():
    g = make_grid(1, [32], [2 * np.pi])
    psi = ComplexScalarField(g, np.ones(g.shape, dtype=complex))
    with pytest.warns(RuntimeWarning):
        _step(run_schrodinger, psi, _peaked_potential(g), 0.01)


def test_potential_phase_warning_once_per_run():
    g = make_grid(1, [32], [2 * np.pi])
    psi = ComplexScalarField(g, np.ones(g.shape, dtype=complex))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_schrodinger(psi, _peaked_potential(g), NAT, EvolutionParams(0.01, 5))
    assert [w.category for w in caught] == [RuntimeWarning]


def test_uniform_potential_is_exact_and_gives_no_phase_warning():
    # a uniform U commutes with the kinetic factor, so a large one only turns
    # the whole state by exp(-i*U*t): the splitting has no error to warn of
    rng = np.random.default_rng(14)
    g = make_grid(1, [32], [2 * np.pi])
    psi = ComplexScalarField(g, random_band_limited(g, rng, complex_valued=True))
    params = EvolutionParams(0.01, 5, snapshot_stride=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_schrodinger(psi, GaugeConfiguration.assemble(g, u=np.full(g.shape, 100.0)),
                                NAT, params)
    assert caught == []
    free = run_schrodinger(psi, GaugeConfiguration.free(g), NAT, params)
    for t, out, ref in zip(trace.times, trace.snapshots, free.snapshots):
        assert linf(out.values - np.exp(-1j * 100.0 * t) * ref.values) <= 1e-13


def test_potential_offset_gives_no_phase_warning():
    # a uniform offset commutes with every factor: U = 100 + 0.1 cos x varies
    # by 0.2, so its 0.01 steps stay far from the splitting limit, and the run
    # is the offset-free run turned by exp(-i*100*t)
    g = make_grid(1, [64], [2 * np.pi])
    psi = ComplexScalarField(g, random_band_limited(g, np.random.default_rng(5),
                                                    complex_valued=True))
    ripple = 0.1 * np.cos(g.axis_coordinates(0))
    params = EvolutionParams(0.01, 100, snapshot_stride=50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_schrodinger(psi, GaugeConfiguration.assemble(g, u=100.0 + ripple), NAT,
                                params)
    assert caught == []
    plain = run_schrodinger(psi, GaugeConfiguration.assemble(g, u=ripple), NAT, params)
    for t, out, ref in zip(trace.times, trace.snapshots, plain.snapshots):
        assert linf(out.values - np.exp(-1j * 100.0 * t) * ref.values) <= 1e-12


def test_grid_mismatch_rejected():
    g1 = make_grid(1, [32], [2 * np.pi])
    g2 = make_grid(1, [64], [2 * np.pi])
    psi = ComplexScalarField(g1, np.ones(g1.shape, dtype=complex))
    with pytest.raises(ValueError):
        _step(run_schrodinger, psi, GaugeConfiguration.free(g2), 0.01)


def test_run_driver_records_stride_and_final():
    g = make_grid(1, [32], [2 * np.pi])
    psi = ComplexScalarField(g, np.exp(1j * g.axis_coordinates(0)))
    params = EvolutionParams(dt=0.01, steps=10, snapshot_stride=3)
    trace = run_schrodinger(psi, GaugeConfiguration.free(g), NAT, params)
    assert trace.times == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.10])
    assert len(trace.snapshots) == 5


# ---------------------------------------------------------------------------
# spinor step

def test_pauli_reduces_to_scalar_when_b_vanishes():
    # a uniform A folds into the kinetic phase, 0.3 sin x takes the cross
    # series on each component; a 1D grid has no curl, so B = 0 in all, and
    # with a uniform A and U the step is one multiplier
    rng = np.random.default_rng(21)
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    vals = random_band_limited(g, rng, complex_valued=True)
    for a, u in itertools.product((np.full(g.shape, 0.4), 0.3 * np.sin(x)),
                                  (np.cos(x), np.full(g.shape, 0.9))):
        gauge = GaugeConfiguration.assemble(g, a_classical=VectorField(g, (a,)), u=u)
        scalar = _step(run_schrodinger, ComplexScalarField(g, vals), gauge, 0.01)
        spinor = _step(
            run_pauli, SpinorField(g, np.stack([vals, np.zeros_like(vals)])), gauge, 0.01
        )
        assert np.array_equal(spinor.values[0], scalar.values)
        assert np.all(spinor.values[1] == 0.0)


def _plane_wave(cls, dim):
    """Mode 1 along x on a 16^dim grid of side 6, in every component."""
    g = make_grid(dim, [16] * dim, [6.0] * dim)
    x = g.axis_coordinates(0).reshape(-1, *[1] * (dim - 1))
    return cls(g, np.broadcast_to(np.exp(2j * np.pi * x / 6.0), cls._shape(g)))


# a zero-step run builds no stepper, and is refused all the same
@pytest.mark.parametrize("run, needs, cls, dim, b_external, steps", [
    (run_pauli, "SpinorField", ComplexScalarField, 1, None, 2),
    (run_pauli, "SpinorField", ComplexScalarField, 1, None, 0),
    (run_pauli, "SpinorField", ComplexScalarField, 2, None, 2),
    (run_pauli, "SpinorField", ComplexScalarField, 2, (0.0, 0.0, 1.0), 2),
    (run_pauli, "SpinorField", BispinorField, 1, None, 2),
    (run_schrodinger, "ComplexScalarField", SpinorField, 1, None, 2),
    (run_dirac, "BispinorField", ComplexScalarField, 1, None, 2),
    (run_dirac, "BispinorField", SpinorField, 2, None, 2),
])
def test_each_run_function_refuses_a_field_of_another_class(run, needs, cls, dim,
                                                            b_external, steps):
    psi = _plane_wave(cls, dim)
    source = (FourPotential.free(psi.grid) if run is run_dirac
              else GaugeConfiguration.assemble(psi.grid, b_external=b_external))
    with pytest.raises(TypeError) as err:
        run(psi, source, NAT, EvolutionParams(0.01, steps))
    assert str(err.value) == f"{run.__name__} needs a {needs}, got a {cls.__name__}"


@pytest.mark.parametrize("steps, calls", [(0, 0), (6, 1)])
def test_pauli_run_builds_b_once(monkeypatch, steps, calls):
    count = []
    original = evolvers.magnetic_field

    def counting(gauge):
        count.append(1)
        return original(gauge)

    monkeypatch.setattr(evolvers, "magnetic_field", counting)
    g = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
    x = g.axis_coordinates(0)[:, None]
    gauge = GaugeConfiguration.assemble(
        g, a_classical=VectorField(g, (np.zeros(g.shape), np.broadcast_to(0.3 * np.sin(x), g.shape)))
    )
    up = np.ones(g.shape, dtype=complex)
    psi = SpinorField(g, np.stack([up, np.zeros_like(up)]))
    trace = run_pauli(psi, gauge, NAT, EvolutionParams(0.01, steps, snapshot_stride=2))
    assert len(count) == calls
    assert len(trace.snapshots) == steps // 2 + 1


def test_larmor_precession_of_sigma_x():
    # uniform state (k = 0, kinetic factor 1); <sigma_x>(t) = cos(qBt/m) for B along z
    g = make_grid(1, [16], [2 * np.pi])
    b = 2.0
    gauge = GaugeConfiguration.assemble(g, b_external=(0.0, 0.0, b))
    up = np.full(g.shape, 1.0 / np.sqrt(2.0), dtype=complex)
    trace = run_pauli(SpinorField(g, np.stack([up, up])), gauge, NAT,
                      EvolutionParams(dt=0.01, steps=500, snapshot_stride=250))
    _, mid, psi = trace.snapshots
    sx = lambda s: float(np.mean(2.0 * (np.conj(s.values[0]) * s.values[1]).real))
    assert sx(mid) == pytest.approx(np.cos(NAT.q * b * 2.5 / NAT.m), abs=1e-12)
    assert sx(psi) == pytest.approx(np.cos(NAT.q * b * 5.0 / NAT.m), abs=1e-12)


def test_eigenspinor_of_b_direction_keeps_magnitudes():
    g = make_grid(1, [16], [2 * np.pi])
    gauge = GaugeConfiguration.assemble(g, b_external=(0.0, 0.0, 1.5))
    up = np.ones(g.shape, dtype=complex)
    psi = SpinorField(g, np.stack([up, np.zeros_like(up)]))
    out = run_pauli(psi, gauge, NAT, EvolutionParams(dt=0.02, steps=100)).snapshots[-1]
    # pure phase exp(i*q*B*t/2m) on the aligned component
    expected = np.exp(1j * NAT.q * 1.5 * 2.0 / (2.0 * NAT.m))
    assert linf(np.abs(out.values[0]) - 1.0) <= 1e-13
    assert linf(out.values[1]) == 0.0
    assert linf(out.values[0] - expected * up) <= 1e-12


def test_pauli_inplane_field_mixes_components():
    # B along x swaps the basis spinors at the half period
    g = make_grid(1, [16], [2 * np.pi])
    b = 1.0
    gauge = GaugeConfiguration.assemble(g, b_external=(b, 0.0, 0.0))
    up = np.ones(g.shape, dtype=complex)
    psi = SpinorField(g, np.stack([up, np.zeros_like(up)]))
    # theta(t) = qBt/2m reaches pi/2 at t = pi*m/(q*B)
    t_half = np.pi * NAT.m / (NAT.q * b)
    psi = run_pauli(psi, gauge, NAT, EvolutionParams(dt=t_half / 1000, steps=1000)).snapshots[-1]
    assert linf(np.abs(psi.values[1]) - 1.0) <= 1e-9
    assert linf(psi.values[0]) <= 1e-9


# ---------------------------------------------------------------------------
# bispinor step

def test_dirac_plane_wave_positive_energy_phase():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    k = 5.0
    energies, states = dirac_free_eigenstates((k, 0.0, 0.0), 1.0, 1.0, 1.0)
    e_plus = energies[3]
    u = states[:, 3]
    assert e_plus == pytest.approx(np.sqrt(k**2 + 1.0))
    psi = BispinorField(g, u[:, None] * np.exp(1j * k * x)[None, :])
    dt = 1e-3
    out = _step(run_dirac, psi, FourPotential.free(g), dt)
    expected = psi.values * np.exp(-1j * e_plus * dt)
    assert linf(out.values - expected) <= 1e-12


@pytest.mark.parametrize("branch", [3, 0], ids=["positive", "negative"])
def test_dirac_oblique_plane_wave_phase(branch):
    # k off every axis exercises all three alpha terms of the free factor
    length = 3.0
    g = make_grid(3, [8, 8, 8], [length] * 3)
    k = np.array([1.0, 2.0, -1.0]) * 2 * np.pi / length
    energies, states = dirac_free_eigenstates(k, 1.0, 1.0, 1.0)
    energy = energies[branch]
    assert (energy > 0.0) == (branch == 3)
    x = [g.axis_coordinates(a).reshape([-1 if b == a else 1 for b in range(3)]) for a in range(3)]
    wave = np.exp(1j * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2]))
    psi = BispinorField(g, states[:, branch].reshape(4, 1, 1, 1) * wave)
    dt = 0.05
    out = _step(run_dirac, psi, FourPotential.free(g), dt)
    assert linf(out.values - psi.values * np.exp(-1j * energy * dt)) <= 1e-12


def test_dirac_rest_spinors_carry_rest_energy_phase():
    g = make_grid(1, [32], [2 * np.pi])
    dt = 0.01
    ones = np.ones(g.shape, dtype=complex)
    zero = np.zeros(g.shape, dtype=complex)
    particle = BispinorField(g, np.stack([ones, zero, zero, zero]))
    out = _step(run_dirac, particle, FourPotential.free(g), dt)
    assert linf(out.values[0] - np.exp(-1j * dt) * ones) <= 1e-14
    antiparticle = BispinorField(g, np.stack([zero, zero, ones, zero]))
    out = _step(run_dirac, antiparticle, FourPotential.free(g), dt)
    assert linf(out.values[2] - np.exp(+1j * dt) * ones) <= 1e-14


@pytest.mark.parametrize("vector", [True, False], ids=["phi-and-a", "phi-only"])
def test_dirac_step_unitary_and_reversible_with_potentials(vector):
    # with A = 0 the interaction is the scalar phase of phi alone
    rng = np.random.default_rng(31)
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    vals = np.stack(
        [random_band_limited(g, rng, complex_valued=True) for _ in range(4)]
    )
    a = (0.2 * np.sin(x), 0.0, 0.1 * np.cos(x)) if vector else (0.0, 0.0, 0.0)
    pot = FourPotential(g, 0.3 * np.cos(x), a)
    psi = BispinorField(g, vals)
    n0 = _norm(vals, g)
    out = run_dirac(psi, pot, NAT, EvolutionParams(dt=0.01, steps=100)).snapshots[-1]
    assert abs(_norm(out.values, g) - n0) <= 1e-12
    back = _step(run_dirac, _step(run_dirac, psi, pot, 0.01), pot, -0.01)
    assert linf(back.values - vals) <= 1e-12


def test_dirac_free_factor_is_the_exact_exponential():
    # A one-step free run of e_j at the origin, whose transform is 1 at
    # every k, transforms to column j of exp(-i*dt*H_free(k)/hbar) at every
    # k of an even/odd grid; the reference diagonalises the dense 4x4
    # alpha.(c*hbar*k) + beta*m*c^2.  Each k drops its Nyquist components,
    # as every first-derivative multiplier does.
    consts = PhysicalConstants(hbar=0.7, m=1.3, q=1.0, c=2.0)
    g = make_grid(3, [6, 5, 4], [2.0, 3.0, 2.5])
    dt = 0.3
    columns = []
    for j in range(4):
        vals = np.zeros((4, *g.shape), dtype=complex)
        vals[j, 0, 0, 0] = 1.0
        out = run_dirac(BispinorField(g, vals), FourPotential.free(g), consts,
                        EvolutionParams(dt, 1)).snapshots[-1]
        columns.append(np.fft.fftn(out.values, axes=(1, 2, 3)))
    factor = np.stack(columns, axis=1)
    beta = dirac_gamma(0)
    alphas = [beta @ dirac_gamma(a) for a in (1, 2, 3)]
    wavenumbers = []
    for n, length in zip(g.n, g.length):
        k = 2 * np.pi * np.fft.fftfreq(n, d=length / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        wavenumbers.append(k)
    worst = 0.0
    for idx in np.ndindex(g.shape):
        k = [wavenumbers[a][i] for a, i in enumerate(idx)]
        h = consts.c * consts.hbar * sum(ka * al for ka, al in zip(k, alphas))
        h = h + consts.m * consts.c**2 * beta
        energies, vecs = np.linalg.eigh(h)
        exact = vecs @ np.diag(np.exp(-1j * dt * energies / consts.hbar)) @ vecs.conj().T
        worst = max(worst, linf(factor[(slice(None), slice(None), *idx)] - exact))
    assert worst <= 1e-13


def test_dirac_uniform_scalar_potential_exact_phase():
    # with A = 0 and uniform phi the interaction commutes with H_free
    g = make_grid(1, [32], [2 * np.pi])
    phi0, dt = 0.8, 0.02
    pot = FourPotential(g, np.full(g.shape, phi0), (0.0, 0.0, 0.0))
    ones = np.ones(g.shape, dtype=complex)
    zero = np.zeros(g.shape, dtype=complex)
    psi = BispinorField(g, np.stack([ones, zero, zero, zero]))
    out = _step(run_dirac, psi, pot, dt)
    expected = np.exp(-1j * dt * (1.0 + NAT.q * phi0)) * ones
    assert linf(out.values[0] - expected) <= 1e-14


# ---------------------------------------------------------------------------
# properties shared by the three split-step equations

_SHAPES = [(8,), (16,), (32,), (4, 8), (8, 4), (4, 4, 4), (8, 4, 6)]


def _coords(g):
    return [
        g.axis_coordinates(a).reshape([-1 if b == a else 1 for b in range(g.dim)])
        for a in range(g.dim)
    ]


def _vector_potential(g, uniform, amplitude):
    x = _coords(g)
    return tuple(
        np.full(g.shape, amplitude * (1.0 - 0.5 * a))
        if uniform
        else np.broadcast_to(amplitude * (1.0 + 0.5 * np.cos(x[a] + a)), g.shape)
        for a in range(g.dim)
    )


def _split_step_case(equation, shape, uniform, seed):
    """(state, run) for one equation with A, U or phi and B all nonzero;
    run(state, params) calls the public API."""
    rng = np.random.default_rng(seed)
    g = make_grid(len(shape), list(shape), [2 * np.pi] * len(shape))
    x = _coords(g)
    comps = {"schrodinger": 1, "pauli": 2, "dirac": 4}[equation]
    vals = rng.standard_normal((comps, *g.shape)) + 1j * rng.standard_normal((comps, *g.shape))
    # The non-uniform cross factor is a series summed to roundoff, so a
    # Strang step is reversible to roundoff even at |A| <= 0.75, where
    # tau*|C|/hbar reaches about 0.6 (|k| <= 16, |tau| <= 0.05).
    a = _vector_potential(g, uniform, 0.3 if uniform else 0.5)
    u = np.broadcast_to(0.5 * np.cos(x[0]), g.shape)
    if equation == "dirac":
        a3 = a + (0.1 * np.sin(x[0]),) * (3 - g.dim)
        pot = FourPotential(g, u, a3)
        state = BispinorField(g, vals)
        return state, lambda s, p: run_dirac(s, pot, NAT, p)
    gauge = GaugeConfiguration.assemble(
        g, a_classical=VectorField(g, a), u=u, b_external=(0.4, -0.2, 0.7)
    )
    if equation == "pauli":
        return SpinorField(g, vals), lambda s, p: run_pauli(s, gauge, NAT, p)
    return ComplexScalarField(g, vals[0]), lambda s, p: run_schrodinger(s, gauge, NAT, p)


_split_cases = dict(
    equation=st.sampled_from(["schrodinger", "pauli", "dirac"]),
    shape=st.sampled_from(_SHAPES),
    uniform=st.booleans(),
    seed=st.integers(0, 2**16),
    dt=st.floats(1e-3, 0.1) | st.floats(-0.1, -1e-3),
)


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(1, 4), stride=st.sampled_from([1, 2, 3, 5]), **_split_cases)
def test_run_matches_repeated_steps(equation, shape, uniform, seed, dt, steps, stride):
    # one stepper built for the whole run, stepping a stride per block with
    # the outer factors of adjacent steps merged, against one rebuilt for
    # every step
    state, run = _split_step_case(equation, shape, uniform, seed)
    params = EvolutionParams(dt, steps, snapshot_stride=stride)
    trace = run(state, params)
    one = EvolutionParams(dt, 1)
    for _ in range(steps):
        state = run(state, one).snapshots[-1]
    assert trace.times[-1] == pytest.approx(steps * dt)
    assert linf(trace.snapshots[-1].values - state.values) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(**_split_cases)
def test_strang_step_then_reverse_step_is_identity(equation, shape, uniform, seed, dt):
    # the symmetric (Strang) composition satisfies S(-dt) = S(dt)^-1
    state, run = _split_step_case(equation, shape, uniform, seed)
    there = run(state, EvolutionParams(dt, 1)).snapshots[-1]
    back = run(there, EvolutionParams(-dt, 1)).snapshots[-1]
    assert linf(back.values - state.values) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(1, 6), stride=st.sampled_from([2, 3, 5]), **_split_cases)
def test_block_run_then_reverse_run_is_identity(equation, shape, uniform, seed, dt, steps,
                                                stride):
    # every block is a power of the Strang step, so a run of -dt undoes a
    # run of dt block by block
    state, run = _split_step_case(equation, shape, uniform, seed)
    there = run(state, EvolutionParams(dt, steps, snapshot_stride=stride)).snapshots[-1]
    back = run(there, EvolutionParams(-dt, steps, snapshot_stride=stride)).snapshots[-1]
    assert linf(back.values - state.values) <= 1e-12


# ---------------------------------------------------------------------------
# runs whose Hamiltonian is diagonal in transform space

def _diagonal_case(equation, shape, potential, vector, seed):
    """(state, run) for one equation whose factors all commute: U or phi
    zero or uniform, A zero or uniform (B = 0) for Schrodinger and Pauli,
    A = 0 for Dirac; run(state, params) calls the public API."""
    rng = np.random.default_rng(seed)
    g = make_grid(len(shape), list(shape), [2 * np.pi] * len(shape))
    comps = {"schrodinger": 1, "pauli": 2, "dirac": 4}[equation]
    vals = rng.standard_normal((comps, *g.shape)) + 1j * rng.standard_normal((comps, *g.shape))
    u = np.full(g.shape, 0.7 if potential else 0.0)
    if equation == "dirac":
        pot = FourPotential(g, u, (0.0, 0.0, 0.0))
        return BispinorField(g, vals), lambda s, p: run_dirac(s, pot, NAT, p)
    a = _vector_potential(g, True, 0.3 if vector else 0.0)
    gauge = GaugeConfiguration.assemble(g, a_classical=VectorField(g, a), u=u)
    if equation == "pauli":
        return SpinorField(g, vals), lambda s, p: run_pauli(s, gauge, NAT, p)
    return ComplexScalarField(g, vals[0]), lambda s, p: run_schrodinger(s, gauge, NAT, p)


_diagonal_cases = dict(
    equation=st.sampled_from(["schrodinger", "pauli", "dirac"]),
    shape=st.sampled_from(_SHAPES),
    potential=st.booleans(),
    vector=st.booleans(),
    seed=st.integers(0, 2**16),
    dt=st.floats(1e-3, 0.1) | st.floats(-0.1, -1e-3),
    steps=st.integers(1, 12),
    stride=st.sampled_from([1, 2, 3, 5]),
)


@settings(max_examples=40, deadline=None)
@given(**_diagonal_cases)
def test_diagonal_run_matches_repeated_steps(equation, shape, potential, vector, seed, dt,
                                             steps, stride):
    # a block is one multiplier for its whole duration; every kept state
    # matches that many single steps
    state, run = _diagonal_case(equation, shape, potential, vector, seed)
    params = EvolutionParams(dt, steps, snapshot_stride=stride)
    trace = run(state, params)
    kept = dict(zip(params.snapshot_steps, trace.snapshots))
    one = EvolutionParams(dt, 1)
    for step in range(1, steps + 1):
        state = run(state, one).snapshots[-1]
        if step in kept:
            assert linf(kept[step].values - state.values) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(**_diagonal_cases)
def test_diagonal_run_then_reverse_run_is_identity(equation, shape, potential, vector, seed,
                                                   dt, steps, stride):
    state, run = _diagonal_case(equation, shape, potential, vector, seed)
    there = run(state, EvolutionParams(dt, steps, snapshot_stride=stride)).snapshots[-1]
    back = run(there, EvolutionParams(-dt, steps, snapshot_stride=stride)).snapshots[-1]
    assert linf(back.values - state.values) <= 1e-12


def _transform_cases(g):
    """(run, field class, source, transform pairs per component) for a run
    of 40 steps at stride 10: one pair per block for a free run, whose
    factors all commute, and one per step for a position-dependent U, a
    non-uniform A, B != 0 and Dirac with A != 0."""
    x = g.axis_coordinates(0)[:, None, None]
    wavy = np.broadcast_to(np.cos(x), g.shape)
    zero = np.zeros(g.shape)
    return {
        "schrodinger-free": (run_schrodinger, ComplexScalarField, GaugeConfiguration.free(g), 4),
        "pauli-free": (run_pauli, SpinorField, GaugeConfiguration.free(g), 4),
        "dirac-free": (run_dirac, BispinorField, FourPotential.free(g), 4),
        "u-cos-x": (run_schrodinger, ComplexScalarField,
                    GaugeConfiguration.assemble(g, u=wavy), 40),
        "a-non-uniform": (run_schrodinger, ComplexScalarField, GaugeConfiguration.assemble(
            g, a_classical=VectorField(g, (zero, 0.3 * wavy, zero))), 40),
        "b-external": (run_pauli, SpinorField,
                       GaugeConfiguration.assemble(g, b_external=(0.0, 0.0, 0.5)), 40),
        "dirac-a": (run_dirac, BispinorField, FourPotential(g, zero, (0.2, 0.0, 0.0)), 40),
    }


@pytest.mark.parametrize("case", ["schrodinger-free", "pauli-free", "dirac-free", "u-cos-x",
                                  "a-non-uniform", "b-external", "dirac-a"])
def test_transform_pairs_per_component_of_a_run(case, monkeypatch):
    # the cross series and B take transforms of their own; count the steps'
    monkeypatch.setattr(evolvers, "_apply_cross", lambda values, grid, a, coeff: values)
    monkeypatch.setattr(evolvers, "magnetic_field", lambda gauge: gauge.b_external)
    g = make_grid(3, [8, 6, 4], [2 * np.pi] * 3)
    run, cls, source, pairs = _transform_cases(g)[case]
    psi = cls(g, np.ones(cls._shape(g), dtype=complex))
    calls = count_transforms(monkeypatch)
    run(psi, source, NAT, EvolutionParams(0.01, 40, snapshot_stride=10))
    # counts are axis passes: each full-grid transform makes one per axis
    assert calls == {"fftn": pairs * cls.ncomp * g.dim, "ifftn": pairs * cls.ncomp * g.dim}


# ---------------------------------------------------------------------------
# four-potential wave equation

def test_wave_standing_mode_over_one_period():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    k = 3.0
    period = 2 * np.pi / k
    steps = 8000
    params = EvolutionParams(dt=period / steps, steps=steps)
    zeros = np.zeros(g.shape)
    state = wave_initial_state(
        g, (zeros, np.sin(k * x), zeros, zeros), (zeros,) * 4, NAT, params
    )
    trace = run_wave(state, None, NAT, params)
    final = trace.snapshots[-1].curr[1]
    assert linf(final - np.sin(k * x)) <= 1e-6


def test_wave_half_period_flips_sign():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    k = 2.0
    steps = 4000
    params = EvolutionParams(dt=(np.pi / k) / steps, steps=steps)
    zeros = np.zeros(g.shape)
    state = wave_initial_state(
        g, (zeros, np.sin(k * x), zeros, zeros), (zeros,) * 4, NAT, params
    )
    trace = run_wave(state, None, NAT, params)
    assert linf(trace.snapshots[-1].curr[1] + np.sin(k * x)) <= 1e-6


def test_wave_zero_mode_grows_quadratically():
    # uniform static source: the k = 0 mode obeys an exact discrete quadratic
    g = make_grid(1, [32], [2 * np.pi])
    j0 = 2.0
    j = FourCurrent(g, np.zeros(g.shape), (np.full(g.shape, j0), 0.0, 0.0))
    params = EvolutionParams(dt=0.05, steps=200)
    zeros = np.zeros(g.shape)
    state = wave_initial_state(g, (zeros,) * 4, (zeros,) * 4, NAT, params, j=j)
    trace = run_wave(state, j, NAT, params)
    t = trace.snapshots[-1].time
    assert t == pytest.approx(10.0)
    expected = NAT.mu0 * j0 * NAT.c**2 * t**2 / 2.0
    assert linf(trace.snapshots[-1].curr[1] - expected) <= 1e-9


def test_wave_zero_data_stays_zero():
    g = make_grid(1, [32], [2 * np.pi])
    params = EvolutionParams(dt=0.01, steps=50)
    zeros = np.zeros(g.shape)
    state = wave_initial_state(g, (zeros,) * 4, (zeros,) * 4, NAT, params)
    trace = run_wave(state, None, NAT, params)
    for comp in trace.snapshots[-1].curr:
        assert linf(comp) == 0.0


def test_wave_cfl_violation_raises():
    g = make_grid(1, [64], [2 * np.pi])
    zeros = np.zeros(g.shape)
    params = EvolutionParams(dt=0.2, steps=1)  # c*dt > 0.5*spacing
    with pytest.raises(ValueError, match="CFL"):
        wave_initial_state(g, (zeros,) * 4, (zeros,) * 4, NAT, params)


def test_wave_run_checks_cfl_only_when_it_steps():
    g = make_grid(1, [64], [2 * np.pi])
    zeros = np.zeros(g.shape)
    state = WaveState(g, (zeros,) * 4, (zeros,) * 4, 0.0)
    with pytest.raises(ValueError, match="CFL"):
        run_wave(state, None, NAT, EvolutionParams(dt=0.2, steps=1))
    trace = run_wave(state, None, NAT, EvolutionParams(dt=0.2, steps=0))
    assert len(trace.snapshots) == 1 and trace.snapshots[0] is state


@settings(max_examples=20, deadline=None)
@given(
    shape=st.sampled_from(_SHAPES),
    sourced=st.booleans(),
    seed=st.integers(0, 2**16),
    dt=st.floats(1e-3, 0.05) | st.floats(-0.05, -1e-3),
    steps=st.integers(1, 4),
)
def test_wave_run_matches_repeated_steps(shape, sourced, seed, dt, steps):
    # the leapfrog stepper built for the whole run against one rebuilt for
    # every step, with and without a source current
    rng = np.random.default_rng(seed)
    g = make_grid(len(shape), list(shape), [2 * np.pi] * len(shape))
    levels = [random_band_limited(g, rng) for _ in range(8)]
    j = None
    if sourced:
        j = FourCurrent(g, random_band_limited(g, rng),
                        tuple(random_band_limited(g, rng) for _ in range(3)))
    state = WaveState(g, tuple(levels[:4]), tuple(levels[4:]), 0.0)
    trace = run_wave(state, j, NAT, EvolutionParams(dt, steps, snapshot_stride=3))
    for _ in range(steps):
        state = run_wave(state, j, NAT, EvolutionParams(dt, 1)).snapshots[-1]
    final = trace.snapshots[-1]
    assert final.time == state.time
    for ours, theirs in zip(final.prev + final.curr, state.prev + state.curr):
        assert np.array_equal(ours, theirs)


def test_wave_energy_stays_bounded():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    params = EvolutionParams(dt=0.02, steps=3000)
    zeros = np.zeros(g.shape)
    state = wave_initial_state(
        g, (zeros, np.sin(3.0 * x), zeros, zeros), (zeros,) * 4, NAT, params
    )
    trace = run_wave(state, None, NAT, params)
    peak = max(float(np.max(np.abs(snap.curr[1]))) for snap in trace.snapshots)
    assert peak <= 1.001


# ---------------------------------------------------------------------------
# Taylor evolution matrix

def test_gps_matrix_entries():
    m = gps_matrix(4, 2.0).entries
    expected = np.array(
        [
            [1.0, 2.0, 2.0, 4.0 / 3.0],
            [0.0, 1.0, 2.0, 2.0],
            [0.0, 0.0, 1.0, 2.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(m, expected)


@pytest.mark.parametrize("order", range(1, 13))
def test_gps_determinant_exactly_one(order):
    for t in (0.0, 0.3, -2.5, 17.0):
        assert gps_matrix(order, t).det == 1.0


def test_gps_group_law():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t1, t2 = rng.uniform(-2, 2, size=2)
        prod = gps_matrix(8, t1).entries @ gps_matrix(8, t2).entries
        assert linf(prod - gps_matrix(8, t1 + t2).entries) <= 1e-12


def test_gps_uniform_motion():
    out = gps_apply(gps_matrix(2, 3.0), [1.5, -0.5])
    assert np.array_equal(out, [1.5 - 1.5, -0.5])


def test_gps_quadratic_motion_exact_for_dyadic_times():
    m = gps_matrix(3, 0.5)
    out = gps_apply(m, [1.0, 2.0, 4.0])
    assert np.array_equal(out, [1.0 + 2.0 * 0.5 + 4.0 * 0.125, 2.0 + 4.0 * 0.5, 4.0])


def test_gps_apply_broadcasts_over_vectors():
    state = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    out = gps_apply(gps_matrix(2, 2.0), state)
    assert np.array_equal(out[0], [2.0, 4.0, 1.0])


@pytest.mark.parametrize("order, t", [(172, 0.5), (250, 0.5), (120, 1000.0)])
def test_gps_entries_below_and_near_the_float_range_are_finite(order, t):
    # each t^k/k! is one rounding of the exact ratio: entries that underflow
    # are 0, and 1000^119/119! (about 1.8e160) is formed although 1000^119 is not
    m = gps_matrix(order, t)
    assert np.all(np.isfinite(m.entries)) and m.det == 1.0
    k = order - 1
    assert m.entries[0, -1] == float(Fraction(t) ** k / math.factorial(k))


def test_gps_rejects_bad_order_and_shape():
    with pytest.raises(ValueError):
        gps_matrix(0, 1.0)
    with pytest.raises(ValueError, match=r"float range at order 400, t = 1000\.0"):
        gps_matrix(400, 1000.0)  # 1000^399/399! is about 1e331
    with pytest.raises(ValueError):
        gps_apply(gps_matrix(3, 1.0), [1.0, 2.0])
