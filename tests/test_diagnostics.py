"""Residual evaluators: positive cases against closed forms, negative
controls confirming each residual reacts to a corrupted input."""
import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab import diagnostics
from qvlab.decomposition import (
    FourCurrent,
    GaugeConfiguration,
    PhysicalConstants,
    current_bispinor,
    current_spinor,
)
from qvlab.diagnostics import (
    FAMILIES,
    MaxwellFrame,
    ResidualReport,
    continuity_residual,
    em_fields,
    four_current_divergence,
    gauge_residuals,
    hamilton_jacobi_residual,
    maxwell_residuals,
    phase_rate_from_snapshots,
    quantum_force,
    quantum_potential,
    self_consistency_residual,
)
from qvlab.evolvers import EvolutionParams, FourPotential, run_dirac
from qvlab.fields import BispinorField, ComplexScalarField, NodeError, SpinorField, VectorField
from qvlab.lattice import (
    _LAP, _curl3, divergence, k_squared, make_grid, spectral_gradient,
)
from oracles import CoherentState, GaussianPacket
from util import count_transforms, linf, plain_spectral, random_band_limited


NAT = PhysicalConstants.natural()


def _poisson(rhs, grid):
    # Lap(eta) = rhs for zero-mean rhs
    k2 = k_squared(grid).copy()
    origin = (0,) * grid.dim
    k2[origin] = 1.0
    hat = np.fft.fftn(rhs) / (-k2)
    hat[origin] = 0.0
    return np.fft.ifftn(hat).real


def test_report_validation_and_json():
    r = ResidualReport("demo", 1.0, 2.0, 0.25, 48, dt=0.1)
    payload = r.to_json()
    assert payload.endswith("\n")
    decoded = json.loads(payload)
    assert decoded == {
        "name": "demo",
        "l2": 1.0,
        "linf": 2.0,
        "mask_fraction": 0.25,
        "n_points": 48,
        "dt": 0.1,
    }
    with pytest.raises(ValueError):
        ResidualReport("demo", -1.0, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        ResidualReport("demo", 0.0, 0.0, 1.5, 1)


def test_a_masked_report_takes_its_norms_over_the_kept_samples():
    # two rows, the second masked where the first is not: l2 is the root mean
    # square of the kept samples alone, n_points counts them, and the masked
    # fraction is of every sample tallied
    first = np.array([[3.0, -4.0], [0.0, 12.0]])
    second = np.array([[1.0, 100.0], [-2.0, 5.0]])
    mask = np.array([[False, True], [False, True]])
    report = diagnostics._Tally().add(first).add(second, mask).report("demo", dt=0.5)
    kept = np.array([3.0, -4.0, 0.0, 12.0, 1.0, -2.0])
    assert report.n_points == 6 and report.mask_fraction == 0.25
    assert report.l2 == np.sqrt(np.sum(kept**2) / 6) and report.linf == 12.0
    assert report.dt == 0.5 and report.per_point is None
    with pytest.raises(NodeError, match="demo: every sample is masked"):
        diagnostics._Tally().add(second, np.ones((2, 2), bool)).report("demo")


# ---------------------------------------------------------------------------
# continuity

def test_continuity_stationary_state_is_exact():
    g = make_grid(1, [32], [2 * np.pi])
    f = np.full(g.shape, 0.5)
    j = VectorField.zero(g)
    rep = continuity_residual([0.0, 0.1, 0.2], [f, f, f], [j, j, j])
    assert rep.l2 == 0.0 and rep.linf == 0.0


def test_continuity_free_gaussian_snapshots():
    pk = GaussianPacket(sigma0=1.0, x0=20.0, k0=1.0)
    g = make_grid(1, [256], [40.0])
    x = g.axis_coordinates(0)
    dt = 1e-3
    times = [0.5 + i * dt for i in range(3)]
    densities, currents = [], []
    for t in times:
        psi = ComplexScalarField(g, pk.psi(x, t))
        densities.append(pk.density(x, t))
        currents.append(
            VectorField(g, (pk.density(x, t) * pk.bohm_velocity(x, t),))
        )
    rep = continuity_residual(times, densities, currents)
    assert rep.l2 <= 1e-4
    doubled = [VectorField(g, (2.0 * c.components[0],)) for c in currents]
    corrupted = continuity_residual(times, densities, doubled)
    assert corrupted.l2 >= 10 * rep.l2


def test_continuity_requires_uniform_series():
    g = make_grid(1, [32], [2 * np.pi])
    f = np.ones(g.shape)
    j = VectorField.zero(g)
    with pytest.raises(ValueError, match="3 snapshots"):
        continuity_residual([0.0, 0.1], [f, f], [j, j])
    with pytest.raises(ValueError, match="equally spaced"):
        continuity_residual([0.0, 0.1, 0.3], [f, f, f], [j, j, j])


# one series of each time-series residual, its length off the time count
_G16 = make_grid(1, [16], [2 * np.pi])
_F, _J = np.ones(_G16.shape), VectorField.zero(_G16)
_J4 = FourCurrent(_G16, np.ones(_G16.shape), (0.0, 0.0, 0.0))
_GAUGE = GaugeConfiguration.free(_G16)
_FRAME = MaxwellFrame(_G16, (np.zeros(_G16.shape),), (np.zeros(_G16.shape),))


@pytest.mark.parametrize(
    "call, name, entries, count",
    [
        (lambda t: continuity_residual(t, [_F] * 3, [_J] * 4), "currents", 4, 3),
        (lambda t: four_current_divergence(t, [_J4] * 6, NAT), "currents", 6, 3),
        (lambda t: maxwell_residuals(t, [_FRAME] * 7, NAT), "frames", 7, 3),
        (lambda t: maxwell_residuals(t, [_FRAME] * 3, NAT), "frames", 3, 4),
        (lambda t: gauge_residuals(t, [_GAUGE] * 5, NAT), "gauges", 5, 3),
        (lambda t: gauge_residuals(t, [_GAUGE] * 4, NAT, [_F] * 3), "q_series", 3, 4),
        (lambda t: em_fields(t, [_GAUGE] * 6, NAT), "gauges", 6, 3),
    ],
    ids=["continuity", "four_current", "maxwell_long", "maxwell_short",
         "gauge_gauges", "gauge_q", "em_fields"],
)
def test_series_must_align_with_times(call, name, entries, count):
    with pytest.raises(ValueError, match=f"^{name} has {entries} entries for {count} times$"):
        call([0.1 * i for i in range(count)])


def test_interior_passes_a_finished_report_through():
    # a residual of one frame rides the frame loop as its finished report:
    # returned as it is, not tallied as samples and not given a per_point
    finished = ResidualReport("one_frame", 1.0, 2.0, 0.25, 12, dt=0.5)
    seen = []

    def rows(i, rate):
        seen.append(i)
        parts = {"series": (rate(lambda k: np.full(4, float(k * k))),)}
        return {**parts, "one_frame": finished} if i == 2 else parts

    reports = diagnostics._interior([0.0, 0.1, 0.2, 0.3], rows)
    assert seen == [1, 2]
    assert reports["one_frame"] is finished
    assert reports["series"].per_point.shape == (2, 4)
    assert reports["series"].n_points == 8


# ---------------------------------------------------------------------------
# quantum potential

def test_quantum_potential_constant_modulus():
    g = make_grid(1, [64], [2 * np.pi])
    psi = ComplexScalarField(g, np.exp(1j * 3.0 * g.axis_coordinates(0)))
    q, mask = quantum_potential(psi, NAT)
    assert not mask.any()
    assert linf(q) <= 1e-11


def test_quantum_potential_oscillator_ground_state():
    g = make_grid(1, [128], [24.0])
    x = g.axis_coordinates(0) - 12.0
    psi = ComplexScalarField(g, np.exp(-(x**2) / 2.0).astype(complex))
    q, mask = quantum_potential(psi, NAT)
    expected = -(x**2) / 2.0 + 0.5
    keep = ~mask
    assert mask.any()  # far tails sit below the node threshold
    assert linf(q[keep] - expected[keep]) <= 1e-6


def test_quantum_potential_cosine_envelope():
    # sign-changing real state: Q = hbar^2 k^2 / 2m away from the nodes
    g = make_grid(1, [128], [2 * np.pi])
    k = 4.0
    psi = ComplexScalarField(g, np.cos(k * g.axis_coordinates(0)).astype(complex))
    q, mask = quantum_potential(psi, NAT)
    assert linf(q[~mask] - k**2 / 2.0) <= 1e-9


def test_quantum_potential_scale_invariance():
    rng = np.random.default_rng(17)
    g = make_grid(1, [64], [2 * np.pi])
    vals = random_band_limited(g, rng, complex_valued=True) + 1.2
    q1, _ = quantum_potential(ComplexScalarField(g, vals), NAT)
    q2, _ = quantum_potential(ComplexScalarField(g, 3e-2 * np.exp(0.7j) * vals), NAT)
    assert linf(q1 - q2) <= 1e-12


def test_quantum_potential_rejects_empty_support():
    g = make_grid(1, [32], [2 * np.pi])
    with pytest.raises(NodeError):
        quantum_potential(ComplexScalarField(g, np.zeros(g.shape, complex)), NAT)


def test_quantum_force_oscillator_ground_state():
    # Q = -x^2/2 + 1/2 for the unit Gaussian, so -dQ/dx = x
    g = make_grid(1, [256], [32.0])
    x = g.axis_coordinates(0) - 16.0
    psi = ComplexScalarField(g, np.exp(-(x**2) / 2.0).astype(complex))
    force, mask = quantum_force(psi, NAT)
    keep = ~mask
    assert mask.any()
    assert linf(force[0][keep] - x[keep]) <= 1e-6


def test_quantum_force_matches_gradient_of_smooth_q():
    # nodeless low-band state on a grid fine enough to resolve the rational
    # tail of Q, so grad Q may be taken spectrally and compared directly
    g = make_grid(2, [64, 64], [2 * np.pi, 2 * np.pi])
    xx, yy = np.meshgrid(g.axis_coordinates(0), g.axis_coordinates(1), indexing="ij")
    vals = 2.0 + 0.4 * np.sin(xx) * np.cos(2 * yy) + 0.3j * np.cos(2 * xx) * np.sin(yy)
    psi = ComplexScalarField(g, vals)
    q, q_mask = quantum_potential(psi, NAT)
    assert not q_mask.any()
    reference = spectral_gradient(q, g)
    force, mask = quantum_force(psi, NAT)
    assert not mask.any()
    for a in range(2):
        assert linf(force[a] + reference[a]) <= 1e-11


@pytest.mark.parametrize("shape", [(16,), (8, 6), (6, 5, 4)])
def test_quantum_force_is_the_plain_formula_bitwise(shape):
    # the force path forms each axis in work arrays; complex products round
    # by operand order, so the plain formula, with a temporary per operation
    # and the derivatives from numpy's allocating calls, must give the same bits
    rng = np.random.default_rng(len(shape))
    g = make_grid(len(shape), list(shape), [2 * np.pi] * len(shape))
    vals = 2.0 + random_band_limited(g, rng, 0.4, complex_valued=True)
    force, mask = quantum_force(ComplexScalarField(g, vals), NAT)
    assert not mask.any()
    axes = range(g.dim)
    pairs = [(a, b) for a in axes for b in axes if a <= b]
    outputs = ([[(0, a)] for a in axes] + [[(0, (_LAP, a)) for a in axes]]
               + [[(0, a, _LAP)] for a in axes] + [[(0, a, b)] for a, b in pairs])
    inv = 1.0 / vals
    r = [d * inv for d in plain_spectral([vals], g, outputs)]
    r1, rlap, dlap = r[:g.dim], r[g.dim], r[g.dim + 1:2 * g.dim + 1]
    second = dict(zip(pairs, r[2 * g.dim + 1:]))
    for a in axes:
        dg = (dlap[a] - rlap * r1[a]).real
        for b in axes:
            dg = dg + 2.0 * r1[b].imag * (second[min(a, b), max(a, b)] - r1[a] * r1[b]).imag
        assert force[a].tobytes() == (-(NAT.alpha / NAT.beta) * dg).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_psi_derivatives_share_one_transform(dim, monkeypatch):
    # counts are axis passes.  Q needs grad psi and Lap psi, whose per-axis
    # parts share d_a psi's transform along a: psi once along each axis, then
    # d_a psi and -k_a^2 psi along it, 3 + 6 passes in 3D, not 3 + 12.  -grad Q
    # adds d_a d_a psi along a, and d_a Lap psi and the mixed d_a d_b psi on
    # the full grid: one more transform of psi, dim passes per inverse (in 1D
    # the full grid is the one axis).
    g = make_grid(dim, [8, 6, 5][:dim], [2 * np.pi] * dim)
    psi = ComplexScalarField(g, np.full(g.shape, 1.0 + 0.5j))
    calls = count_transforms(monkeypatch)
    quantum_potential(psi, NAT)
    assert calls == {"fftn": dim, "ifftn": 2 * dim}
    calls.clear()
    quantum_force(psi, NAT)
    assert calls == {1: {"fftn": 1, "ifftn": 4}, 2: {"fftn": 4, "ifftn": 12},
                     3: {"fftn": 6, "ifftn": 27}}[dim]


@pytest.mark.parametrize("kind", [SpinorField, BispinorField])
def test_q_and_its_force_refuse_a_non_scalar_field(kind):
    # Q and -grad Q are defined for a scalar psi only; a spinor is refused by
    # name instead of failing deep inside the arithmetic
    g = make_grid(1, [64], [2 * np.pi])
    vals = 2.0 + random_band_limited(g, np.random.default_rng(3), complex_valued=True)
    psi = kind(g, np.stack([vals] * kind.ncomp))
    calls = [
        ("quantum potential", lambda: quantum_potential(psi, NAT)),
        ("quantum force", lambda: quantum_force(psi, NAT)),
        ("quantum potential", lambda: hamilton_jacobi_residual(
            psi, GaugeConfiguration.free(g), NAT, np.zeros(g.shape))),
    ]
    for what, call in calls:
        with pytest.raises(TypeError, match=f"^{what} needs a ComplexScalarField, "
                                            f"got a {kind.__name__}$"):
            call()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_current_and_q_share_one_differentiation(dim, monkeypatch):
    # J and Q come from one transform of each component of psi along each
    # axis (counts are axis passes): the Hamilton-Jacobi residual, which needs
    # both, inverts d_a psi and -k_a^2 psi along each axis; a spinor current
    # transforms each component
    g = make_grid(dim, [8, 6, 5][:dim], [2 * np.pi] * dim)
    vals = 2.0 + random_band_limited(g, np.random.default_rng(dim), complex_valued=True)
    psi, gauge = ComplexScalarField(g, vals), GaugeConfiguration.free(g)
    calls = count_transforms(monkeypatch)
    hamilton_jacobi_residual(psi, gauge, NAT, np.zeros(g.shape))
    assert calls == {"fftn": dim, "ifftn": 2 * dim}
    calls.clear()
    quantum_potential(psi, NAT)
    assert calls["fftn"] == dim
    calls.clear()
    current_spinor(SpinorField(g, np.stack([vals, 0.5j * vals])), gauge, NAT)
    assert calls == {"fftn": 2 * dim, "ifftn": 2 * dim}


# ---------------------------------------------------------------------------
# phase rate and Hamilton-Jacobi balance

def test_phase_rate_uniform_rotation():
    g = make_grid(1, [32], [2 * np.pi])
    base = np.exp(1j * g.axis_coordinates(0))
    omega, dt = 1.7, 0.05
    early = ComplexScalarField(g, base * np.exp(1j * omega * dt))
    late = ComplexScalarField(g, base * np.exp(-1j * omega * dt))
    rate, mask, jumps = phase_rate_from_snapshots(early, late, 2.0 * dt)
    assert not mask.any() and not jumps.any()
    assert linf(rate + omega) <= 1e-12


def test_phase_rate_flags_branch_ambiguity():
    g = make_grid(1, [32], [2 * np.pi])
    base = np.ones(g.shape, dtype=complex)
    early = ComplexScalarField(g, base)
    late = ComplexScalarField(g, base * np.exp(1j * 3.0))
    _, _, jumps = phase_rate_from_snapshots(early, late, 1.0)
    assert jumps.all()
    with pytest.raises(ValueError, match="spacing"):
        phase_rate_from_snapshots(early, late, 0.0)


def test_phase_rate_flags_a_whole_turn_that_wraps_below_the_threshold():
    # two half turns of 2 rad make a whole turn of 4 rad, which wraps to
    # 4 - 2 pi = -2.28 rad, inside the 0.9 pi threshold: only the middle
    # snapshot shows it; half turns of 1 rad add up and flag nothing
    g = make_grid(1, [32], [2 * np.pi])
    base = np.exp(1j * g.axis_coordinates(0))
    for half, flagged in ((2.0, True), (1.0, False)):
        early, middle, late = (ComplexScalarField(g, base * np.exp(1j * k * half))
                               for k in range(3))
        _, _, jumps = phase_rate_from_snapshots(early, late, 1.0)
        assert not jumps.any()
        _, _, jumps = phase_rate_from_snapshots(early, late, 1.0, middle)
        assert jumps.all() if flagged else not jumps.any()
    with pytest.raises(ValueError, match="different grids"):
        other = ComplexScalarField(make_grid(1, [16], [2 * np.pi]), np.ones(16, complex))
        phase_rate_from_snapshots(early, late, 1.0, other)


def _plane_wave_hj(omega_scale=1.0):
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    k = 2.0
    omega = omega_scale * k**2 / 2.0
    dt = 1e-3
    snap = lambda t: ComplexScalarField(g, np.exp(1j * (k * x - omega * t)))
    rate, mask, _ = phase_rate_from_snapshots(snap(-dt), snap(dt), 2 * dt)
    return hamilton_jacobi_residual(
        snap(0.0), GaugeConfiguration.free(g), NAT, rate, rate_mask=mask, dt=dt
    )


def test_hamilton_jacobi_plane_wave_dispersion():
    assert _plane_wave_hj().l2 <= 1e-11


def test_hamilton_jacobi_flags_wrong_frequency():
    clean = _plane_wave_hj()
    wrong = _plane_wave_hj(omega_scale=1.1)
    assert wrong.l2 == pytest.approx(0.1 * 2.0, rel=1e-6)
    assert wrong.l2 >= 10 * max(clean.l2, 1e-12)


def test_hamilton_jacobi_without_support_names_the_velocity():
    g = make_grid(1, [32], [2 * np.pi])
    psi = ComplexScalarField(g, np.zeros(g.shape, complex))
    with pytest.raises(NodeError, match="^velocity undefined"):
        hamilton_jacobi_residual(psi, GaugeConfiguration.free(g), NAT, np.zeros(g.shape))


def test_hamilton_jacobi_oscillator_ground_state():
    state = CoherentState()  # zero displacement: stationary ground state
    g = make_grid(1, [128], [24.0])
    x = g.axis_coordinates(0) - 12.0
    dt = 1e-3
    snaps = [ComplexScalarField(g, state.psi(x, t)) for t in (-dt, 0.0, dt)]
    rate, mask, jumps = phase_rate_from_snapshots(snaps[0], snaps[2], 2 * dt)
    assert not jumps.any()
    gauge = GaugeConfiguration.assemble(g, u=state.potential(x))
    rep = hamilton_jacobi_residual(snaps[1], gauge, NAT, rate, rate_mask=mask, dt=dt)
    assert rep.l2 <= 1e-8
    assert rep.linf <= 1e-6
    assert 0.0 < rep.mask_fraction < 1.0


# ---------------------------------------------------------------------------
# electromagnetic analogues

def _static_series(gauge, dt=0.01, count=3):
    times = [i * dt for i in range(count)]
    return times, [gauge] * count


def _by_family(times, gauges, q_series=None):
    """The first interior frame of each family."""
    return {
        family: em_fields(times, gauges, NAT, q_series, family=family)[1][0]
        for family in FAMILIES
    }


def test_em_fields_static_scalar_potential():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    gauge = GaugeConfiguration.assemble(g, u=0.8 * np.sin(x))
    times, gauges = _static_series(gauge)
    fr = _by_family(times, gauges)
    expected = -(1.0 / NAT.q) * 0.8 * np.cos(x)
    assert linf(fr["psi"].e[0] - expected) <= 1e-12
    assert linf(fr["classical"].e[0] - expected) <= 1e-12
    assert linf(fr["quantum"].e[0]) <= 1e-13
    for comp in fr["psi"].b:
        assert linf(comp) == 0.0


def test_em_fields_all_zero():
    g = make_grid(1, [32], [2 * np.pi])
    times, gauges = _static_series(GaugeConfiguration.free(g))
    _, frames = em_fields(times, gauges, NAT)
    fr = frames[0]
    assert linf(fr.e[0]) == 0.0
    assert all(linf(b) == 0.0 for b in fr.b)


def test_em_fields_out_of_plane_b():
    g = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    x = g.meshes()[0] + np.zeros(g.shape)
    b0 = 1.4
    a = VectorField(g, (np.zeros(g.shape), b0 * np.sin(x)))
    times, gauges = _static_series(GaugeConfiguration.assemble(g, a_classical=a))
    fr = _by_family(times, gauges)
    assert linf(fr["psi"].b[2] - b0 * np.cos(x)) <= 1e-12
    assert linf(fr["classical"].b[2] - b0 * np.cos(x)) <= 1e-12
    assert linf(fr["quantum"].b[2]) == 0.0


def test_em_fields_time_derivative_term():
    g = make_grid(1, [32], [2 * np.pi])
    base = np.full(g.shape, 1.0)
    dt = 0.01
    gauges = [
        GaugeConfiguration.assemble(
            g, a_classical=VectorField(g, (scale * base,))
        )
        for scale in (0.9, 1.0, 1.1)
    ]
    _, frames = em_fields([0.0, dt, 2 * dt], gauges, NAT)
    # dA/dt = 0.2/(2*dt) = 10 uniformly
    assert linf(frames[0].e[0] + 10.0) <= 1e-12


def test_em_fields_split_sums_to_total():
    rng = np.random.default_rng(23)
    g = make_grid(2, [32, 32], [2 * np.pi, 5.0])
    dt = 0.01
    gauges = []
    for scale in (0.8, 1.0, 1.2):
        a_cl = VectorField(
            g, tuple(scale * random_band_limited(g, rng) for _ in range(2))
        )
        a_qu = VectorField(
            g, tuple(scale * random_band_limited(g, rng) for _ in range(2))
        )
        gauges.append(
            GaugeConfiguration.assemble(
                g, a_classical=a_cl, a_quantum=a_qu, u=random_band_limited(g, rng)
            )
        )
    q_series = [random_band_limited(g, rng) for _ in range(3)]
    fr = _by_family([0.0, dt, 2 * dt], gauges, q_series)
    for ax in range(3):
        total = fr["classical"].e[ax] + fr["quantum"].e[ax]
        assert linf(fr["psi"].e[ax] - total) <= 1e-12
    for b_total, b_cl, b_qu in zip(fr["psi"].b, fr["classical"].b, fr["quantum"].b):
        assert linf(b_total - (b_cl + b_qu)) <= 1e-12


def test_em_fields_linearity():
    rng = np.random.default_rng(29)
    g = make_grid(1, [64], [2 * np.pi])
    dt = 0.01

    def series(seed_shift):
        a = random_band_limited(g, rng)
        u = random_band_limited(g, rng)
        return [
            GaugeConfiguration.assemble(
                g, a_classical=VectorField(g, (s * a,)), u=u
            )
            for s in (0.9, 1.0 + seed_shift, 1.1)
        ]

    g1, g2 = series(0.0), series(0.05)
    merged = [
        GaugeConfiguration.assemble(
            g,
            a_classical=VectorField(
                g,
                (c1.a_classical.components[0] + c2.a_classical.components[0],),
            ),
            u=c1.u + c2.u,
        )
        for c1, c2 in zip(g1, g2)
    ]
    times = [0.0, dt, 2 * dt]
    _, f1 = em_fields(times, g1, NAT)
    _, f2 = em_fields(times, g2, NAT)
    _, fm = em_fields(times, merged, NAT)
    summed = f1[0].e[0] + f2[0].e[0]
    assert linf(fm[0].e[0] - summed) <= 1e-12


def test_em_fields_rejects_an_unknown_family():
    g = make_grid(1, [32], [2 * np.pi])
    times, gauges = _static_series(GaugeConfiguration.free(g))
    with pytest.raises(ValueError, match="unknown field family 'total'"):
        em_fields(times, gauges, NAT, family="total")


def test_em_frames_hold_absent_slots_as_zero_views():
    rng = np.random.default_rng(53)
    g = make_grid(2, [16, 16], [2 * np.pi, 5.0])
    times, gauges = _static_series(_random_gauge(g, rng))
    _, frames = em_fields(times, gauges, NAT)
    fr = frames[0]
    # E beyond dim, rho and J: no memory, and no writes
    for slot in (fr.e[2], fr.rho, *fr.j):
        assert slot.strides == (0, 0)
        assert not slot.flags.writeable
        assert linf(slot) == 0.0
    assert all(e.flags.writeable and e.strides != (0, 0) for e in fr.e[:2])


def test_em_fields_checks_the_family_then_the_series_then_the_grids():
    small, large = (GaugeConfiguration.free(make_grid(1, [n], [2 * np.pi])) for n in (16, 32))
    gauges = [small, small, large]
    with pytest.raises(ValueError, match="^gauge snapshots live on different grids$"):
        em_fields([0.0, 0.1, 0.2], gauges, NAT)
    with pytest.raises(ValueError, match="equally spaced"):
        em_fields([0.0, 0.1, 0.3], gauges, NAT)
    with pytest.raises(ValueError, match="unknown field family"):
        em_fields([0.0, 0.1, 0.3], gauges, NAT, family="total")
    with pytest.raises(ValueError, match="need at least 3 snapshots, got 0"):
        em_fields([], [], NAT)


def test_em_fields_needs_three_snapshots():
    g = make_grid(1, [32], [2 * np.pi])
    gauge = GaugeConfiguration.free(g)
    with pytest.raises(ValueError, match="3 snapshots"):
        em_fields([0.0, 0.1], [gauge, gauge], NAT)


# ---------------------------------------------------------------------------
# gauge residuals

def test_gauge_residuals_static_reduce_to_divergence():
    rng = np.random.default_rng(31)
    g = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    from qvlab.lattice import divergence

    a = VectorField(g, tuple(random_band_limited(g, rng) for _ in range(2)))
    gauge = GaugeConfiguration.assemble(g, a_classical=a)
    times, gauges = _static_series(gauge)
    r_psi, r_l, r_q = gauge_residuals(times, gauges, NAT)
    expected = divergence(a.components, g)
    assert r_psi.linf == pytest.approx(linf(expected))
    assert r_l.linf == pytest.approx(linf(expected))
    assert r_q.linf == 0.0


def test_gauge_residuals_identity_for_random_inputs():
    rng = np.random.default_rng(37)
    g = make_grid(1, [64], [2 * np.pi])
    dt = 0.01
    gauges, q_series = [], []
    for _ in range(3):
        a_cl = VectorField(g, (random_band_limited(g, rng),))
        a_qu = VectorField(g, (random_band_limited(g, rng),))
        gauges.append(
            GaugeConfiguration.assemble(
                g, a_classical=a_cl, a_quantum=a_qu, u=random_band_limited(g, rng)
            )
        )
        q_series.append(random_band_limited(g, rng))
    r_psi, r_l, r_q = gauge_residuals([0.0, dt, 2 * dt], gauges, NAT, q_series)
    gap = r_psi.per_point - (r_l.per_point + r_q.per_point)
    assert linf(gap) <= 1e-13


def test_gauge_residuals_constructed_condition_vanishes():
    # choose div A_psi to cancel the discrete dV/dt term exactly
    rng = np.random.default_rng(41)
    g = make_grid(1, [64], [2 * np.pi])
    dt = 0.01
    v0 = random_band_limited(g, rng, zero_mean=True)
    coeff = 2.0 * NAT.alpha * NAT.beta / NAT.gamma
    rhs = -coeff / NAT.c**2 * v0 / (2.0 * dt)
    eta = _poisson(rhs, g)
    a = VectorField(g, tuple(spectral_gradient(eta, g)))
    zeros = np.zeros(g.shape)
    gauges = [
        GaugeConfiguration.assemble(g, a_classical=a, u=u)
        for u in (zeros, zeros, v0)
    ]
    r_psi, _, _ = gauge_residuals([0.0, dt, 2 * dt], gauges, NAT)
    assert r_psi.l2 <= 1e-8
    # negative control: a 10% stronger potential breaks the cancellation
    gauges_bad = [
        GaugeConfiguration.assemble(g, a_classical=a, u=u)
        for u in (zeros, zeros, 1.1 * v0)
    ]
    r_bad, _, _ = gauge_residuals([0.0, dt, 2 * dt], gauges_bad, NAT)
    assert r_bad.l2 >= 10 * max(r_psi.l2, 1e-12)


# ---------------------------------------------------------------------------
# per-gauge work, once per distinct gauge object

def _random_gauge(g, rng, external=False):
    def vector():
        return VectorField(g, tuple(random_band_limited(g, rng) for _ in range(g.dim)))

    return GaugeConfiguration.assemble(
        g,
        a_classical=vector(),
        a_quantum=vector(),
        u=random_band_limited(g, rng),
        b_external=tuple(rng.standard_normal(3)) if external else None,
    )


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(diagnostics, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(diagnostics, name, counting)
    return calls


@pytest.mark.parametrize("family", FAMILIES)
def test_static_gauge_is_differentiated_once(monkeypatch, family):
    rng = np.random.default_rng(43)
    g = make_grid(2, [16, 16], [2 * np.pi, 5.0])
    times, gauges = _static_series(_random_gauge(g, rng), count=7)
    q_series = [random_band_limited(g, rng) for _ in times]
    counts = {
        name: _count_calls(monkeypatch, name)
        for name in ("_curl3", "divergence", "spectral_gradient")
    }
    em_fields(times, gauges, NAT, q_series, family=family)
    gauge_residuals(times, gauges, NAT, q_series)
    # one curl of the family's A
    assert len(counts["_curl3"]) == 1
    assert len(counts["divergence"]) == 3
    # grad(U + Q) or grad Q at each of the 5 interior frames; classical: grad U once
    assert len(counts["spectral_gradient"]) == (1 if family == "classical" else 5)


def _assert_same_fields(got, want):
    assert got[0] == want[0]
    for fr, ref in zip(got[1], want[1], strict=True):
        pairs = zip(
            fr.e + fr.b + fr.j + (fr.rho,),
            ref.e + ref.b + ref.j + (ref.rho,),
            strict=True,
        )
        for a, b in pairs:
            assert a.tobytes() == b.tobytes()


def _assert_same_reports(got, want):
    for rep, ref in zip(got, want, strict=True):
        assert rep.to_json() == ref.to_json()
        assert rep.per_point.tobytes() == ref.per_point.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(16,), (12,), (8, 12), (16, 8)]),
    count=st.integers(3, 6),
    external=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_shared_gauge_work_matches_per_frame_work(shape, count, external, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(len(shape), list(shape), [2 * np.pi, 5.0][: len(shape)])
    g1, g2 = _random_gauge(g, rng, external), _random_gauge(g, rng, external)
    times = [0.01 * i for i in range(count)]
    q_series = [random_band_limited(g, rng) for _ in times]
    static = [g1] * count
    alternating = [(g1, g2)[i % 2] for i in range(count)]
    for shared in (static, alternating):
        # deep copies are distinct objects: every frame computes its own
        copies = [copy.deepcopy(gauge) for gauge in shared]
        for family in FAMILIES:
            _assert_same_fields(
                em_fields(times, shared, NAT, q_series, family=family),
                em_fields(times, copies, NAT, q_series, family=family),
            )
        _assert_same_reports(
            gauge_residuals(times, shared, NAT, q_series),
            gauge_residuals(times, copies, NAT, q_series),
        )


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(16,), (12,), (8, 12), (16, 8), (6, 8, 4)]),
    count=st.integers(3, 6),
    family=st.sampled_from(FAMILIES),
    with_q=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_em_fields_is_the_centred_difference_of_each_frame(shape, count, family, with_q,
                                                           seed):
    # E = -(A(i+1) - A(i-1)) / (2 dt) - (2 alpha beta / gamma) grad V and B = curl A
    # (+ b_external but for quantum), bit for bit, on gauges that change every frame
    rng = np.random.default_rng(seed)
    g = make_grid(len(shape), list(shape), [2 * np.pi, 5.0, 3.0][: len(shape)])
    gauges = [_random_gauge(g, rng, external=True) for _ in range(count)]
    times = [0.01 * i for i in range(count)]
    q_series = [random_band_limited(g, rng) for _ in times] if with_q else None
    interior, frames = em_fields(times, gauges, NAT, q_series, family=family)
    assert interior == times[1:-1] and len(frames) == count - 2
    dt, coeff = times[1] - times[0], 2.0 * NAT.alpha * NAT.beta / NAT.gamma
    for i, fr in enumerate(frames, start=1):
        a0, a1, a2 = (getattr(gauges[k], f"a_{family}").components for k in (i - 1, i, i + 1))
        q = q_series[i] if with_q else np.zeros(g.shape)
        v = {"psi": gauges[i].u + q, "classical": gauges[i].u, "quantum": q}[family]
        e = [-(x2 - x0) / (2.0 * dt) - coeff * gr
             for x0, x2, gr in zip(a0, a2, spectral_gradient(v, g))]
        b = _curl3(a1, g)
        if family != "quantum":
            b = tuple(c + ext for c, ext in zip(b, gauges[i].b_external))
        for got, want in zip(fr.e + fr.b, e + [0.0] * (3 - g.dim) + list(b), strict=True):
            assert np.asarray(got).tobytes() == np.broadcast_to(want, g.shape).tobytes()


def test_shared_gauge_arrays_are_read_only():
    rng = np.random.default_rng(47)
    g = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
    times, gauges = _static_series(_random_gauge(g, rng, external=True), count=4)
    for family in FAMILIES:
        _, frames = em_fields(times, gauges, NAT, family=family)
        assert all(b0 is b1 for b0, b1 in zip(frames[0].b, frames[1].b, strict=True))
        for comp in frames[0].b:
            with pytest.raises(ValueError, match="read-only"):
                comp += 1.0
        # E fields are built per frame and stay writable
        frames[0].e[0][...] = 0.0


# ---------------------------------------------------------------------------
# self-consistency

def test_self_consistency_zero_fields():
    g = make_grid(1, [32], [2 * np.pi])
    rep = self_consistency_residual(VectorField.zero(g), np.zeros(g.shape), NAT)
    assert rep.l2 == 0.0


def test_self_consistency_constructed_field():
    rng = np.random.default_rng(43)
    g = make_grid(2, [32, 32], [2 * np.pi, 2 * np.pi])
    f = random_band_limited(g, rng, zero_mean=True)
    eta = _poisson(NAT.q * f / NAT.eps0, g)
    e = VectorField(g, tuple(spectral_gradient(eta, g)))
    rep = self_consistency_residual(e, f, NAT)
    assert rep.l2 <= 1e-10
    perturbed = self_consistency_residual(e, 1.1 * f, NAT)
    assert perturbed.l2 >= 10 * max(rep.l2, 1e-13)


def test_self_consistency_generic_packet_is_nonzero():
    g = make_grid(1, [128], [24.0])
    x = g.axis_coordinates(0) - 12.0
    f = np.exp(-(x**2))
    rep = self_consistency_residual(VectorField.zero(g), f, NAT)
    assert rep.linf > 0.1


# ---------------------------------------------------------------------------
# Maxwell-type system

def _vacuum_wave_frames(g, dt, count=5, e0=1.0, k=1.0, j_extra=None):
    x = g.meshes()[0]
    times, frames = [], []
    for i in range(count):
        t = i * dt
        phase = np.cos(k * x - NAT.c * k * t)
        e = (np.zeros(g.shape), e0 * phase, np.zeros(g.shape))
        b = (np.zeros(g.shape), np.zeros(g.shape), e0 / NAT.c * phase)
        frames.append(MaxwellFrame(g, e, b, j=j_extra))
        times.append(t)
    return times, frames


def test_maxwell_vacuum_plane_wave():
    g = make_grid(3, [16, 16, 4], [2 * np.pi, 2 * np.pi, 2 * np.pi])
    times, frames = _vacuum_wave_frames(g, dt=1e-3)
    reports = maxwell_residuals(times, frames, NAT)
    for rep in reports.values():
        assert rep.l2 <= 1e-6
    assert set(reports) == {"gauss_electric", "gauss_magnetic", "faraday", "ampere"}


def test_maxwell_residuals_refine_quadratically():
    g = make_grid(3, [16, 16, 4], [2 * np.pi, 2 * np.pi, 2 * np.pi])
    coarse = maxwell_residuals(*_vacuum_wave_frames(g, dt=4e-3), NAT)
    fine = maxwell_residuals(*_vacuum_wave_frames(g, dt=2e-3), NAT)
    assert coarse["faraday"].l2 / fine["faraday"].l2 >= 3.5
    assert coarse["ampere"].l2 / fine["ampere"].l2 >= 3.5


def test_maxwell_negative_control_on_current():
    g = make_grid(3, [16, 16, 4], [2 * np.pi, 2 * np.pi, 2 * np.pi])
    times, frames = _vacuum_wave_frames(g, dt=1e-3)
    clean = maxwell_residuals(times, frames, NAT)
    x = g.meshes()[0]
    spurious = (0.1 * np.sin(x), np.zeros(g.shape), np.zeros(g.shape))
    times, frames = _vacuum_wave_frames(g, dt=1e-3, j_extra=spurious)
    dirty = maxwell_residuals(times, frames, NAT)
    assert dirty["ampere"].l2 >= 10 * clean["ampere"].l2


def test_maxwell_divergence_of_curl_is_solenoidal():
    rng = np.random.default_rng(47)
    g = make_grid(3, [16, 16, 16], [2 * np.pi] * 3)
    from qvlab.lattice import curl

    a = [random_band_limited(g, rng) for _ in range(3)]
    b = tuple(curl(a, g))
    zeros = np.zeros(g.shape)
    frames = [MaxwellFrame(g, (zeros,) * 3, b) for _ in range(3)]
    reports = maxwell_residuals([0.0, 0.1, 0.2], frames, NAT)
    assert reports["gauss_magnetic"].linf <= 1e-11


@pytest.mark.parametrize("dim", [1, 2])
def test_maxwell_vacuum_plane_wave_below_3d(dim):
    # E_y and B_z of a wave along x; the 3D test's bound holds on 1D and 2D
    g = make_grid(dim, [16] * dim, [2 * np.pi] * dim)
    times, frames = _vacuum_wave_frames(g, dt=1e-3)
    clean = maxwell_residuals(times, frames, NAT)
    for rep in clean.values():
        assert rep.l2 <= 1e-6
    x = g.meshes()[0]
    spurious = (np.zeros(g.shape), 0.1 * np.sin(x), np.zeros(g.shape))
    times, frames = _vacuum_wave_frames(g, dt=1e-3, j_extra=spurious)
    dirty = maxwell_residuals(times, frames, NAT)
    assert dirty["ampere"].l2 >= 10 * clean["ampere"].l2
    zeros = np.zeros(g.shape)
    with pytest.raises(ValueError, match=f"E needs {dim} or 3 components"):
        MaxwellFrame(g, (zeros,) * (3 - dim), (zeros,) * 3)


# ---------------------------------------------------------------------------
# four-current conservation

def test_four_current_static_reduces_to_spatial_divergence():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    j = FourCurrent(g, np.ones(g.shape), (np.sin(x), 0.0, 0.0))
    rep = four_current_divergence([0.0, 0.1, 0.2], [j, j, j], NAT)
    assert rep.linf == pytest.approx(1.0, rel=1e-12)


def test_four_current_uniform_plane_wave_current():
    g = make_grid(1, [32], [2 * np.pi])
    vals = np.zeros((4,) + g.shape, dtype=complex)
    vals[0] = 1.0 / np.sqrt(2.0)
    vals[2] = 1.0 / np.sqrt(2.0)
    j = current_bispinor(BispinorField(g, vals), c=NAT.c)
    rep = four_current_divergence([0.0, 0.1, 0.2], [j, j, j], NAT)
    assert rep.linf <= 1e-14


def test_four_current_dirac_evolution_conserved():
    g = make_grid(1, [64], [2 * np.pi])
    x = g.axis_coordinates(0)
    envelope = np.exp(-((x - np.pi) ** 2)) * np.exp(1j * x)
    vals = np.stack(
        [envelope, np.zeros_like(envelope), np.zeros_like(envelope), np.zeros_like(envelope)]
    )
    pot = FourPotential(g, 0.1 * np.cos(x), (0.1 * np.sin(x), 0.0, 0.0))
    params = EvolutionParams(dt=1e-3, steps=2)
    trace = run_dirac(BispinorField(g, vals), pot, NAT, params)
    currents = [current_bispinor(snap, c=NAT.c) for snap in trace.snapshots]
    rep = four_current_divergence(trace.times, currents, NAT)
    assert rep.l2 <= 1e-5
    # negative control: rescaling J0 by 10% breaks conservation
    bad = [FourCurrent(g, 1.1 * c.j0, c.jk) for c in currents]
    rep_bad = four_current_divergence(trace.times, bad, NAT)
    assert rep_bad.l2 >= 10 * rep.l2


# ---------------------------------------------------------------------------
# the report layout: frame-major rows, three axis rows per frame for the
# Faraday and Ampere laws

def _rate(series, i, dt):
    return (series[i + 1] - series[i - 1]) / (2.0 * dt)


def _reference_reports(times, dens, currents, j4, gauges, q_series, frames, consts):
    """Every time-series residual, written out as a per-frame loop that
    stacks one row per frame (three per frame for faraday and ampere)."""
    dt, grid = times[1] - times[0], frames[0].grid
    inner = range(1, len(times) - 1)
    coeff = 2.0 * consts.alpha * consts.beta / consts.gamma
    inv_qc2 = 1.0 / (consts.q * consts.c**2)
    u = [g.u for g in gauges]
    v = [a + b for a, b in zip(u, q_series)]
    divs = {
        name: [divergence(getattr(gauges[i], name).components, grid) for i in inner]
        for name in ("a_psi", "a_classical", "a_quantum")
    }
    rows = {
        "continuity": [_rate(dens, i, dt) + divergence(currents[i].components, grid)
                       for i in inner],
        "four_current_divergence": [
            _rate([j.j0 for j in j4], i, dt) / consts.c + j4[i].spatial_divergence()
            for i in inner
        ],
        "gauge_psi": [d + coeff / consts.c**2 * _rate(v, i, dt)
                      for i, d in zip(inner, divs["a_psi"])],
        "gauge_lorentz": [d + inv_qc2 * _rate(u, i, dt)
                          for i, d in zip(inner, divs["a_classical"])],
        "gauge_quantum": [d + inv_qc2 * _rate(q_series, i, dt)
                          for i, d in zip(inner, divs["a_quantum"])],
        "gauss_electric": [consts.eps0 * divergence(frames[i].e[: grid.dim], grid)
                           - frames[i].rho for i in inner],
        "gauss_magnetic": [divergence(frames[i].b[: grid.dim], grid) for i in inner],
        "faraday": [], "ampere": [],
    }
    for i in inner:
        curl_e, curl_b = _curl3(frames[i].e, grid), _curl3(frames[i].b, grid)
        for ax in range(3):
            de = _rate([fr.e[ax] for fr in frames], i, dt)
            db = _rate([fr.b[ax] for fr in frames], i, dt)
            rows["faraday"].append(curl_e[ax] + db)
            rows["ampere"].append(
                curl_b[ax] / consts.mu0 - consts.eps0 * de - frames[i].j[ax]
            )
    reports = {}
    for name, r in rows.items():  # the stacked rows, tallied one row at a time
        samples, tally = np.stack(r), diagnostics._Tally()
        for row in samples:
            tally.add(row)
        reports[name] = tally.report(name, dt, samples)
    return reports


@pytest.mark.parametrize("shape", [(16,), (8, 12), (6, 8, 4)], ids=["1d", "2d", "3d"])
def test_time_series_reports_are_frame_major(shape):
    rng = np.random.default_rng(len(shape))
    g = make_grid(len(shape), list(shape), [2 * np.pi, 5.0, 3.0][: len(shape)])
    consts = PhysicalConstants(1.3, 0.7, -1.1, 2.5)
    times = [0.5 + 0.02 * i for i in range(6)]

    def vector(count):
        return tuple(random_band_limited(g, rng) for _ in range(count))

    dens = [random_band_limited(g, rng) for _ in times]
    currents = [VectorField(g, vector(g.dim)) for _ in times]
    j4 = [FourCurrent(g, random_band_limited(g, rng), vector(3)) for _ in times]
    gauges = [_random_gauge(g, rng, external=True) for _ in times]
    q_series = [random_band_limited(g, rng) for _ in times]
    frames = [
        MaxwellFrame(g, vector(3), vector(g.dim), rho=random_band_limited(g, rng),
                     j=vector(3))
        for _ in times
    ]
    got = [
        continuity_residual(times, dens, currents),
        four_current_divergence(times, j4, consts),
        *gauge_residuals(times, gauges, consts, q_series),
        *maxwell_residuals(times, frames, consts).values(),
    ]
    want = _reference_reports(times, dens, currents, j4, gauges, q_series, frames, consts)
    assert [rep.name for rep in got] == list(want)
    frames_inner = len(times) - 2
    for rep in got:
        rows = 3 * frames_inner if rep.name in ("faraday", "ampere") else frames_inner
        assert rep.per_point.shape == (rows,) + shape
        assert rep.per_point.dtype == np.float64
        ref = want[rep.name]
        assert rep.to_json() == ref.to_json()
        assert rep.per_point.tobytes() == ref.per_point.tobytes()


def _peak_series_units(call, unit_bytes):
    """Peak traced allocation of call(), in units of unit_bytes; the first call
    fills the spectral caches, the second is measured."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / unit_bytes


def test_time_series_residuals_hold_no_frame_lists():
    # 2D 64^2, 21 times: one unit is one interior series, 19 frames of 64^2
    # floats.  Measured (numpy 2.4): continuity 2.06, gauge 4.22; the per-frame
    # lists, their stacked copies and the V = U + Q series read 3.01 and 8.34
    rng = np.random.default_rng(59)
    g = make_grid(2, [64, 64], [2 * np.pi, 2 * np.pi])
    times = [0.01 * i for i in range(21)]
    unit = (len(times) - 2) * g.shape[0] * g.shape[1] * 8
    dens = [rng.standard_normal(g.shape) for _ in times]
    currents = [VectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(2)))
                for _ in times]
    gauges = [_random_gauge(g, rng)] * len(times)
    q_series = [rng.standard_normal(g.shape) for _ in times]
    # each report's own array, one row's kept**2 temporary and a few frames
    continuity = _peak_series_units(
        lambda: continuity_residual(times, dens, currents), unit
    )
    assert continuity <= 2.5
    gauge = _peak_series_units(lambda: gauge_residuals(times, gauges, NAT, q_series), unit)
    assert gauge <= 4.5
    # a distinct gauge per time holds only one frame's divergences at once:
    # 4.22, where the list of every frame's divergences read 7.08
    varying = [_random_gauge(g, rng) for _ in times]
    gauge = _peak_series_units(lambda: gauge_residuals(times, varying, NAT, q_series), unit)
    assert gauge <= 4.5
