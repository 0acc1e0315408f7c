"""Path integration: samplers, advection, force law, ensemble statistics."""

from math import erf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab.decomposition import PhysicalConstants
from qvlab.diagnostics import quantum_force
from qvlab.fields import ComplexScalarField, NodeError, VectorField
from qvlab.lattice import make_grid
from qvlab.trajectories import (
    AnalyticSampler,
    EMSeries,
    FlowSampler,
    GridFieldSampler,
    Path,
    advect,
    advect_ensemble,
    force_path,
    sample_density,
    sample_inverse_cdf,
)
from oracles import GaussianPacket, cyclotron_position, cyclotron_velocity
from util import linf, random_band_limited, reference_sample

NAT = PhysicalConstants.natural()


def _packet_flow(grid, packet, times, method="spectral"):
    x = grid.axis_coordinates(0)
    densities = [packet.density(x, t) for t in times]
    currents = [
        VectorField(grid, (packet.density(x, t) * packet.bohm_velocity(x, t),))
        for t in times
    ]
    return FlowSampler(grid, times, densities, currents, method=method)


# ---------------------------------------------------------------------------
# samplers


def test_spectral_interpolation_exact_for_band_limited():
    g = make_grid(1, [32], [2 * np.pi])
    x = g.axis_coordinates(0)
    sampler = GridFieldSampler(g, [0.0], [(np.cos(3 * x + 0.3),)])
    rng = np.random.default_rng(0)
    pts = rng.random((200, 1)) * 2 * np.pi
    vals, masked = sampler(pts, 0.0)
    assert not masked.any()
    assert linf(vals[:, 0] - np.cos(3 * pts[:, 0] + 0.3)) <= 1e-12


def test_spectral_interpolation_2d():
    g = make_grid(2, [24, 24], [2 * np.pi, 2 * np.pi])
    xx, yy = np.meshgrid(g.axis_coordinates(0), g.axis_coordinates(1), indexing="ij")
    sampler = GridFieldSampler(g, [0.0], [(np.cos(2 * xx) * np.sin(yy),)])
    rng = np.random.default_rng(1)
    pts = rng.random((150, 2)) * 2 * np.pi
    vals, _ = sampler(pts, 0.0)
    assert linf(vals[:, 0] - np.cos(2 * pts[:, 0]) * np.sin(pts[:, 1])) <= 1e-12


def test_tricubic_error_within_documented_bound():
    # the fast local method holds 1e-4 at n = 128 given 40+ samples per
    # wavelength, converging at third order in the spacing
    rng = np.random.default_rng(2)
    errs = []
    for n in (128, 256):
        g = make_grid(1, [n], [2 * np.pi])
        x = g.axis_coordinates(0)
        sampler = GridFieldSampler(g, [0.0], [(np.sin(3 * x + 0.4),)], method="tricubic")
        pts = rng.random((2000, 1)) * 2 * np.pi
        vals, _ = sampler(pts, 0.0)
        errs.append(linf(vals[:, 0] - np.sin(3 * pts[:, 0] + 0.4)))
    assert errs[0] <= 1e-4
    assert errs[0] / errs[1] >= 6.0  # third-order: ratio about 8 per halving


def test_time_interpolation_is_linear():
    g = make_grid(1, [16], [2 * np.pi])
    ones = np.ones(g.shape)
    sampler = GridFieldSampler(g, [0.0, 1.0], [(0.0 * ones,), (10.0 * ones,)])
    pts = np.array([[1.0]])
    for t, expected in [(-0.5, 0.0), (0.0, 0.0), (0.25, 2.5), (1.0, 10.0), (2.0, 10.0)]:
        vals, _ = sampler(pts, t)
        assert abs(vals[0, 0] - expected) <= 1e-12


def test_grid_sampler_validation():
    g = make_grid(1, [16], [2 * np.pi])
    ones = np.ones(g.shape)
    with pytest.raises(ValueError, match="method"):
        GridFieldSampler(g, [0.0], [(ones,)], method="nearest")
    with pytest.raises(ValueError, match="increasing"):
        GridFieldSampler(g, [1.0, 0.5], [(ones,), (ones,)])
    with pytest.raises(ValueError, match="snapshots"):
        GridFieldSampler(g, [0.0, 1.0], [(ones,)])
    with pytest.raises(ValueError, match="component count"):
        GridFieldSampler(g, [0.0, 1.0], [(ones,), (ones, ones)])
    with pytest.raises(ValueError, match="mask"):
        GridFieldSampler(g, [0.0], [(ones,)], masks=[])
    sampler = GridFieldSampler(g, [0.0], [(ones,)])
    with pytest.raises(ValueError, match="points"):
        sampler(np.zeros((3, 2)), 0.0)


def test_flow_sampler_masks_node_tails():
    # masked rows are exactly zero; the others are the plain quotient J/f
    g = make_grid(2, [32, 16], [24.0, 12.0])
    x, y = np.meshgrid(g.axis_coordinates(0), g.axis_coordinates(1), indexing="ij")
    f = np.exp(-((x - 12.0) ** 2) - ((y - 6.0) ** 2))
    j = (0.5 * f, -0.25 * f * np.cos(y))
    flow = FlowSampler(g, [0.0], [f], [j], method="tricubic")
    pts = np.array([[12.0, 6.0], [12.3, 5.6], [1.0, 6.0], [12.0, 0.5], [2.0, 1.0]])
    vals, masked = flow(pts, 0.0)
    assert masked.tolist() == [False, False, True, True, True]
    assert np.all(vals[masked] == 0.0)
    raw, _ = GridFieldSampler(g, [0.0], [(f, *j)], method="tricubic")(pts, 0.0)
    assert np.array_equal(vals[~masked], raw[~masked, 1:] / raw[~masked, :1])


def test_grid_sampler_rejects_masks_of_the_wrong_shape():
    g = make_grid(2, [8, 4], [1.0, 1.0])
    ones = np.ones(g.shape)
    with pytest.raises(ValueError, match=r"mask has shape \(8, 8\), expected \(8, 4\)"):
        GridFieldSampler(g, [0.0], [(ones,)], masks=[np.zeros((8, 8), dtype=bool)])


_series = st.fixed_dictionaries({
    "shape": st.lists(st.integers(4, 12), min_size=1, max_size=3),
    "lengths": st.lists(st.floats(0.5, 20.0), min_size=3, max_size=3),
    "nsnap": st.integers(1, 3),
    # before, between, on and after the snapshot times 0, 1, 2
    "t": st.one_of(st.floats(-1.0, 3.0), st.sampled_from([0.0, 1.0, 2.0])),
    "seed": st.integers(0, 2**32 - 1),
})


def _grid_and_points(case):
    dim = len(case["shape"])
    g = make_grid(dim, case["shape"], case["lengths"][:dim])
    rng = np.random.default_rng(case["seed"])
    # points in and outside the box: both methods are periodic
    pts = (rng.random((7, g.dim)) * 3.0 - 1.0) * np.asarray(g.length)
    return g, rng, pts


@settings(max_examples=60, deadline=None)
@given(case=_series, ncomp=st.integers(1, 4))
def test_grid_sampler_matches_per_component_reference(case, ncomp):
    g, rng, pts = _grid_and_points(case)
    times = np.arange(case["nsnap"], dtype=float)
    snaps = [tuple(rng.uniform(-1.0, 1.0, g.shape) for _ in range(ncomp))
             for _ in times]
    for method in ("spectral", "tricubic"):
        vals, masked = GridFieldSampler(g, times, snaps, method=method)(pts, case["t"])
        expect = reference_sample(g, times, snaps, pts, case["t"], method)
        assert vals.shape == (len(pts), ncomp) and not masked.any()
        if method == "spectral":
            assert linf(vals - expect) <= 1e-12
        else:
            assert vals.tobytes() == np.ascontiguousarray(expect).tobytes()


@settings(max_examples=40, deadline=None)
@given(case=_series)
def test_flow_sampler_is_current_over_density_of_separate_samplers(case):
    g, rng, pts = _grid_and_points(case)
    times = np.arange(case["nsnap"], dtype=float)
    dens = [2.0 + random_band_limited(g, rng) for _ in times]
    currs = [
        VectorField(g, tuple(rng.uniform(-1.0, 1.0, g.shape) for _ in range(g.dim)))
        for _ in times
    ]
    for method in ("spectral", "tricubic"):
        flow = FlowSampler(g, times, dens, currs, method=method)
        vals, masked = flow(pts, case["t"])
        f, _ = GridFieldSampler(g, times, [(d,) for d in dens], method=method)(
            pts, case["t"])
        j, _ = GridFieldSampler(g, times, currs, method=method)(pts, case["t"])
        assert not masked.any()
        if method == "spectral":
            assert linf(vals - j / f) <= 1e-12
        else:
            assert np.array_equal(vals, j / f)


def test_flow_sampler_call_is_one_grid_evaluation(monkeypatch):
    g = make_grid(2, [8, 8], [1.0, 1.0])
    ones = np.ones(g.shape)
    flow = FlowSampler(g, [0.0, 1.0], [ones, ones], [(ones, ones), (ones, ones)])
    calls = []
    evaluate = GridFieldSampler.__call__

    def counting(self, points, t):
        calls.append(t)
        return evaluate(self, points, t)

    monkeypatch.setattr(GridFieldSampler, "__call__", counting)
    vals, _ = flow(np.array([[0.3, 0.6]]), 0.5)
    assert calls == [0.5]
    assert np.allclose(vals, 1.0)


# ---------------------------------------------------------------------------
# advection


def test_uniform_advection_exact():
    v0 = 0.7
    sampler = AnalyticSampler(lambda pts, t: np.full_like(pts, v0))
    path = advect(1.0, sampler, dt=0.1, steps=10)
    assert linf(path.positions[:, 0] - (1.0 + v0 * path.times)) <= 1e-13
    assert linf(path.velocities - v0) == 0.0
    assert not path.masked.any()
    assert path.mask_events == []


def test_advection_wraps_into_box():
    sampler = AnalyticSampler(lambda pts, t: np.ones_like(pts), lengths=(1.0,))
    path = advect(0.9, sampler, dt=0.05, steps=6)
    assert np.all((0.0 <= path.positions) & (path.positions < 1.0))
    assert abs(path.positions[-1, 0] - 0.2) <= 1e-12


def test_stationary_ground_state_is_fixed_point():
    g = make_grid(1, [128], [24.0])
    x = g.axis_coordinates(0)
    f = np.exp(-((x - 12.0) ** 2))
    zero_j = VectorField(g, (np.zeros(g.shape),))
    flow = FlowSampler(g, [0.0, 1.0], [f, f], [zero_j, zero_j])
    path = advect(12.8, flow, dt=0.05, steps=20)
    assert linf(path.positions[:, 0] - 12.8) <= 1e-12
    assert not path.masked.any()


def test_flow_of_a_zero_density_series_is_a_node_error():
    g = make_grid(1, [16], [2 * np.pi])
    zero_j = VectorField.zero(g)
    with pytest.raises(NodeError, match="^flow velocity undefined: density has no support$"):
        FlowSampler(g, [0.0, 1.0], [np.zeros(g.shape)] * 2, [zero_j] * 2)


def test_rk4_order_on_closed_form_flow():
    # dx/dt = sin(x) cos(t) has solution x = 2 atan(tan(x0/2) e^{sin t})
    sampler = AnalyticSampler(lambda pts, t: np.sin(pts) * np.cos(t))
    exact = 2.0 * np.arctan(np.tan(0.5) * np.exp(np.sin(1.0)))
    errs = []
    for steps in (10, 20):
        path = advect(1.0, sampler, dt=1.0 / steps, steps=steps)
        errs.append(abs(path.positions[-1, 0] - exact))
    assert errs[0] / errs[1] >= 12.0


def test_free_gaussian_trajectory_matches_scaling_oracle():
    g = make_grid(1, [256], [40.0])
    pk = GaussianPacket(x0=18.0, k0=0.8)
    times = np.linspace(0.0, 1.0, 51)
    flow = _packet_flow(g, pk, times)
    start = 19.1
    path = advect(start, flow, dt=1e-3, steps=1000)
    expected = np.array([pk.trajectory(start, t) for t in path.times])
    assert linf(path.positions[:, 0] - expected) <= 5e-5
    assert not path.masked.any()


def test_mask_freeze_records_event_and_holds_velocity():
    # advisory mask over x in [3,4); a booby-trapped sample deep inside the
    # band proves the frozen velocity is what actually integrates
    g = make_grid(1, [64], [8.0])
    x = g.axis_coordinates(0)
    v = np.ones(g.shape) + 8.0 * ((3.4 <= x) & (x < 3.6))
    band = (3.0 <= x) & (x < 4.0)
    sampler = GridFieldSampler(
        g, [0.0, 5.0], [(v,), (v,)], method="tricubic", masks=[band, band]
    )
    path = advect(2.0, sampler, dt=0.05, steps=60)
    assert linf(path.positions[:, 0] - (2.0 + path.times)) <= 1e-9
    assert len(path.mask_events) == 1
    t_event, reason = path.mask_events[0]
    assert 0.85 <= t_event <= 1.05
    assert "node" in reason
    assert path.masked.any() and not path.masked[0] and not path.masked[-1]
    assert linf(path.velocities - 1.0) <= 1e-9


def test_advect_ensemble_matches_single_paths():
    sampler = AnalyticSampler(lambda pts, t: np.sin(pts) * np.cos(t))
    starts = np.array([[0.5], [1.0], [2.0]])
    finals, frozen = advect_ensemble(starts, sampler, dt=0.02, steps=50)
    assert not frozen.any()
    for row, r0 in zip(finals, starts[:, 0]):
        single = advect(r0, sampler, dt=0.02, steps=50)
        assert abs(row[0] - single.positions[-1, 0]) <= 1e-14


class _CountingSampler(AnalyticSampler):
    def __init__(self, func):
        super().__init__(func)
        self.calls = 0

    def __call__(self, points, t):
        self.calls += 1
        return super().__call__(points, t)


def test_advect_evaluates_the_flow_four_times_per_step():
    # one evaluation per step boundary, reused as k1, plus three substeps
    for starts in (0.5, np.array([[0.5], [1.0], [2.0]])):
        sampler = _CountingSampler(lambda pts, t: np.sin(pts) * np.cos(t))
        advect(starts, sampler, dt=0.1, steps=7)
        assert sampler.calls == 4 * 7 + 1


def _sampler_kinds():
    g = make_grid(2, [24, 24], [2 * np.pi, 2 * np.pi])
    xx, yy = np.meshgrid(g.axis_coordinates(0), g.axis_coordinates(1), indexing="ij")
    comps = (np.cos(xx) * np.sin(yy) + 0.5, 0.3 * np.sin(xx + 2 * yy) - 0.2)
    later = tuple(1.2 * c for c in comps)
    analytic = AnalyticSampler(
        lambda pts, t: np.stack(
            [np.cos(pts[:, 0]) * np.sin(pts[:, 1]) + 0.5, np.sin(pts[:, 0] + t)], axis=1
        ),
        lengths=g.length,
    )
    return {
        "analytic": analytic,
        "tricubic": GridFieldSampler(g, [0.0, 1.0], [comps, later], method="tricubic"),
        "spectral": GridFieldSampler(g, [0.0, 1.0], [comps, later], method="spectral"),
    }


@pytest.mark.parametrize("kind", ["analytic", "tricubic", "spectral"])
def test_advect_stack_matches_single_starts(kind):
    sampler = _sampler_kinds()[kind]
    starts = np.array([[0.5, 1.0], [3.0, 5.5], [6.0, 0.1], [2.2, 2.2]])
    paths = advect(starts, sampler, dt=0.05, steps=20)
    assert len(paths) == len(starts)
    tol = 1e-12 if kind == "spectral" else 0.0
    for start, path in zip(starts, paths):
        single = advect(start, sampler, dt=0.05, steps=20)
        assert np.array_equal(path.times, single.times)
        assert linf(path.positions - single.positions) <= tol
        assert linf(path.velocities - single.velocities) <= tol
        assert np.array_equal(path.masked, single.masked)


def test_batched_mask_events_stay_per_particle():
    # the band of test_mask_freeze_records_event_and_holds_velocity: the
    # start at 2.0 crosses it, the start at 4.2 stays clear
    g = make_grid(1, [64], [8.0])
    x = g.axis_coordinates(0)
    v = np.ones(g.shape) + 8.0 * ((3.4 <= x) & (x < 3.6))
    band = (3.0 <= x) & (x < 4.0)
    sampler = GridFieldSampler(
        g, [0.0, 5.0], [(v,), (v,)], method="tricubic", masks=[band, band]
    )
    crossing, clear = advect(np.array([[2.0], [4.2]]), sampler, dt=0.05, steps=60)
    assert len(crossing.mask_events) == 1 and crossing.masked.any()
    assert clear.mask_events == [] and not clear.masked.any()
    for start, path in ((2.0, crossing), (4.2, clear)):
        single = advect(start, sampler, dt=0.05, steps=60)
        assert np.array_equal(path.masked, single.masked)
        assert path.mask_events == single.mask_events
        assert np.array_equal(path.positions, single.positions)


# ---------------------------------------------------------------------------
# force law


def _uniform_em(e_vec, b_vec, dim):
    e = AnalyticSampler(lambda pts, t: np.tile(e_vec, (pts.shape[0], 1)))
    b = AnalyticSampler(lambda pts, t: np.tile(b_vec, (pts.shape[0], 1)))
    return EMSeries(e=e, b=b)


def test_force_path_free_space_straight_line():
    em = _uniform_em(np.zeros(2), np.zeros(3), 2)
    path = force_path([0.0, 0.0], [0.3, -0.2], em, NAT.gamma, dt=0.1, steps=10)
    assert linf(path.positions - np.outer(path.times, [0.3, -0.2])) <= 1e-13
    assert linf(path.velocities - np.array([0.3, -0.2])) <= 1e-15


def test_cyclotron_orbit_frequency_radius_closure():
    b_z = 2.0
    v0 = (0.8, 0.0)
    omega = NAT.q * b_z / NAT.m
    period = 2.0 * np.pi / omega
    em = _uniform_em(np.zeros(2), np.array([0.0, 0.0, b_z]), 2)
    steps = 1000
    path = force_path([0.0, 0.0], v0, em, NAT.gamma, dt=period / steps, steps=steps)
    # closure after one period
    assert np.linalg.norm(path.positions[-1] - path.positions[0]) <= 1e-6
    # pointwise agreement with the closed-form orbit
    ref_pos = cyclotron_position([0.0, 0.0], v0, b_z, NAT.q, NAT.m, path.times)
    ref_vel = cyclotron_velocity(v0, b_z, NAT.q, NAT.m, path.times)
    assert linf(path.positions - ref_pos) <= 1e-6
    assert linf(path.velocities - ref_vel) <= 1e-6
    # measured rotation rate of the velocity vector
    angles = np.unwrap(np.arctan2(path.velocities[:, 1], path.velocities[:, 0]))
    assert abs(abs(angles[-1] - angles[0]) / period - omega) / omega <= 1e-6
    # orbit radius |v0| m / (qB) about the drift center
    center = path.positions.mean(axis=0)
    radii = np.linalg.norm(path.positions - center, axis=1)
    assert abs(radii.mean() - np.hypot(*v0) / omega) <= 1e-4


def test_advect_and_force_path_agree_on_free_packet():
    # the flow velocity and the force law integrate to the same curve when
    # v0 matches the flow; E comes from the quantum force since U = A = 0
    g = make_grid(1, [256], [40.0])
    pk = GaussianPacket(x0=18.0, k0=0.8)
    times = np.linspace(0.0, 1.0, 41)
    x = g.axis_coordinates(0)
    e_snaps, masks = [], []
    for t in times:
        psi = ComplexScalarField(g, pk.psi(x, t))
        force, mask = quantum_force(psi, NAT)
        e_snaps.append((force[0] / NAT.q,))
        masks.append(mask)
    e_sampler = GridFieldSampler(g, times, e_snaps, method="tricubic", masks=masks)
    b_sampler = AnalyticSampler(lambda pts, t: np.zeros((pts.shape[0], 3)))
    em = EMSeries(e=e_sampler, b=b_sampler)

    flow = _packet_flow(g, pk, np.linspace(0.0, 1.0, 51))
    start = 19.1
    v0, v_mask = flow(np.array([[start]]), 0.0)
    assert not v_mask[0]

    flow_curve = advect(start, flow, dt=1e-3, steps=1000)
    force_curve = force_path([start], v0[0], em, NAT.gamma, dt=1e-3, steps=1000)
    assert not force_curve.masked.any()
    assert linf(flow_curve.positions - force_curve.positions) <= 1e-3


@pytest.mark.parametrize("kind", ["analytic", "tricubic", "spectral"])
def test_force_path_stack_matches_single_starts(kind):
    e = _sampler_kinds()[kind]
    b = AnalyticSampler(lambda pts, t: np.tile([0.0, 0.0, 1.5], (pts.shape[0], 1)))
    em = EMSeries(e=e, b=b)
    starts = np.array([[0.5, 1.0], [3.0, 5.5], [6.0, 0.1]])
    v0 = np.array([[0.2, -0.1], [0.0, 0.4], [-0.3, 0.3]])
    paths = force_path(starts, v0, em, NAT.gamma, dt=0.05, steps=20)
    assert len(paths) == len(starts)
    for start, vel, path in zip(starts, v0, paths):
        single = force_path(start, vel, em, NAT.gamma, dt=0.05, steps=20)
        assert linf(path.positions - single.positions) <= 1e-14
        assert linf(path.velocities - single.velocities) <= 1e-14
        assert np.array_equal(path.masked, single.masked)
    with pytest.raises(ValueError, match="same dimension"):
        force_path(starts, v0[0], em, NAT.gamma, dt=0.05, steps=2)


def test_em_series_from_frames_runs():
    from qvlab.decomposition import GaugeConfiguration
    from qvlab.diagnostics import em_fields

    g = make_grid(2, [16, 16], [2 * np.pi, 2 * np.pi])
    gauges = [GaugeConfiguration.free(g)] * 3
    inner, frames = em_fields([0.0, 0.1, 0.2], gauges, NAT)
    em = EMSeries.from_frames(g, inner, frames)
    path = force_path([1.0, 1.0], [0.2, 0.1], em, NAT.gamma, dt=0.05, steps=10)
    assert linf(path.positions[-1] - np.array([1.1, 1.05])) <= 1e-12


# ---------------------------------------------------------------------------
# path container


def test_path_requires_increasing_times():
    with pytest.raises(ValueError, match="increasing"):
        Path(
            times=[0.0, 0.0],
            positions=np.zeros((2, 1)),
            velocities=np.zeros((2, 1)),
            masked=np.zeros(2, bool),
        )


def test_path_csv_layout():
    sampler = AnalyticSampler(lambda pts, t: np.tile([0.5, -0.25], (pts.shape[0], 1)))
    path = advect([1.0, 2.0], sampler, dt=0.5, steps=2)
    text = path.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,vx,vy,masked"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert [float(v) for v in first[:-1]] == [0.0, 1.0, 2.0, 0.5, -0.25]
    assert first[-1] == "0"
    last = lines[-1].split(",")
    assert abs(float(last[1]) - 1.5) <= 1e-12
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# initial-condition sampling and ensemble transport


def test_inverse_cdf_moments_and_determinism():
    g = make_grid(1, [256], [40.0])
    x = g.axis_coordinates(0)
    marginal = np.exp(-((x - 20.0) ** 2) / (2.0 * 1.5**2))
    pts1 = sample_inverse_cdf(g, [marginal], 20000, np.random.default_rng(42))
    pts2 = sample_inverse_cdf(g, [marginal], 20000, np.random.default_rng(42))
    assert np.array_equal(pts1, pts2)
    assert abs(pts1[:, 0].mean() - 20.0) <= 0.05
    assert abs(pts1[:, 0].std() - 1.5) <= 0.05


def test_inverse_cdf_validation():
    g = make_grid(2, [16, 16], [1.0, 1.0])
    ones = np.ones(16)
    with pytest.raises(ValueError, match="marginals"):
        sample_inverse_cdf(g, [ones], 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="nonnegative"):
        sample_inverse_cdf(g, [ones, -ones], 10, np.random.default_rng(0))


def test_density_sampler_agrees_with_inverse_cdf():
    g = make_grid(1, [128], [2 * np.pi])
    x = g.axis_coordinates(0)
    f = 1.0 + 0.5 * np.sin(x)
    a = sample_density(g, f, 5000, np.random.default_rng(3))
    b = sample_inverse_cdf(g, [f], 5000, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_density_sampler_draws_from_the_joint_density():
    # one occupied cell of a 2D grid: every draw lands inside that cell
    g = make_grid(2, [8, 4], [8.0, 2.0])
    f = np.zeros(g.shape)
    f[5, 1] = 2.0
    pts = sample_density(g, f, 500, np.random.default_rng(0))
    assert pts.shape == (500, 2)
    assert np.all(np.abs(pts[:, 0] - 5.0) <= 0.5)
    assert np.all(np.abs(pts[:, 1] - 0.5) <= 0.25)
    with pytest.raises(ValueError, match="shape"):
        sample_density(g, np.ones(8), 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="nonnegative"):
        sample_density(g, -f, 10, np.random.default_rng(0))


def test_ensemble_equivariance_chi_squared():
    # transporting samples of f(.,0) along the flow reproduces f(.,t)
    g = make_grid(1, [256], [40.0])
    pk = GaussianPacket(x0=19.5, k0=0.5)
    times = np.linspace(0.0, 1.0, 51)
    flow = _packet_flow(g, pk, times, method="tricubic")

    n_samples = 10_000
    x = g.axis_coordinates(0)
    pts = sample_inverse_cdf(g, [pk.density(x, 0.0)], n_samples, np.random.default_rng(7))
    finals, frozen = advect_ensemble(pts, flow, dt=0.02, steps=50)
    assert not frozen.any()

    t1 = 1.0
    mu = pk.x0 + pk.k0 * t1
    sig = pk.sigma(t1)
    n_bins = 30
    edges = np.linspace(mu - 3 * sig, mu + 3 * sig, n_bins + 1)
    obs, _ = np.histogram(finals[:, 0], bins=edges)
    cdf = np.array([erf((e - mu) / (np.sqrt(2.0) * sig)) for e in edges]) / 2.0
    expected = n_samples * np.diff(cdf)
    assert expected.min() >= 5.0
    chi2 = float(((obs - expected) ** 2 / expected).sum())
    assert chi2 <= n_bins + 3.0 * np.sqrt(2.0 * n_bins)
