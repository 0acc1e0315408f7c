"""Field containers, density/phase extraction, node masking, snapshot I/O."""
import dataclasses
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab.decomposition import GaugeConfiguration, PhysicalConstants, current_scalar, velocity
from qvlab.diagnostics import quantum_force, quantum_potential
from qvlab.fields import (
    BispinorField,
    ComplexScalarField,
    NodeError,
    SnapshotError,
    SpinorField,
    VectorField,
    density,
    node_mask,
    phase,
    phase_gradient,
    read_snapshot,
    write_snapshot,
)
from qvlab.lattice import _LAP, make_grid, spectral_gradient
from util import linf, plain_spectral, random_band_limited, write_snapshot_v1

NAT = PhysicalConstants.natural()


@pytest.fixture
def grid1d():
    return make_grid(1, [64], [2 * np.pi])


def test_density_uniform_scalar(grid1d):
    psi = ComplexScalarField(grid1d, np.full(grid1d.shape, 1.0 + 0j))
    assert linf(density(psi) - 1.0) == 0.0


def test_density_spinor_sums_components(grid1d):
    up = np.full(grid1d.shape, 1 / np.sqrt(2), dtype=complex)
    psi = SpinorField(grid1d, np.stack([up, 1j * up]))
    assert linf(density(psi) - 1.0) <= 1e-15


def test_density_bispinor_basis_vector(grid1d):
    vals = np.zeros((4, *grid1d.shape), dtype=complex)
    vals[0] = 1.0
    assert linf(density(BispinorField(grid1d, vals)) - 1.0) == 0.0


def test_density_scales_quadratically(grid1d):
    rng = np.random.default_rng(7)
    v = random_band_limited(grid1d, rng, complex_valued=True)
    f1 = density(ComplexScalarField(grid1d, v))
    f2 = density(ComplexScalarField(grid1d, (2 - 1j) * v))
    assert linf(f2 - 5.0 * f1) <= 1e-12


def test_phase_plane_wave_gradient_exact(grid1d):
    x = grid1d.axis_coordinates(0)
    k = 3.0  # on-grid mode of the 2*pi box
    psi = ComplexScalarField(grid1d, np.exp(1j * k * x))
    (dphi,), mask = phase_gradient(psi)
    assert not mask.any()
    assert linf(dphi - k) <= 1e-12
    phi, _ = phase(psi)
    slope = np.diff(phi) / np.diff(x)
    assert linf(slope - k) <= 1e-10


def test_phase_of_positive_real_field_is_zero(grid1d):
    x = grid1d.axis_coordinates(0)
    psi = ComplexScalarField(grid1d, (2.0 + np.cos(x)).astype(complex))
    phi, mask = phase(psi)
    assert not mask.any()
    assert linf(phi) == 0.0


def test_phase_masked_envelope_keeps_slope(grid1d):
    g = make_grid(1, [256], [40.0])
    x = g.axis_coordinates(0)
    envelope = np.exp(-((x - 20.0) ** 2))
    psi = ComplexScalarField(g, envelope * np.exp(3j * x))
    phi, mask = phase(psi)
    assert mask.any() and not mask.all()
    inner = ~mask
    slope = np.diff(phi[inner]) / np.diff(x[inner])
    assert linf(slope - 3.0) <= 1e-6
    (dphi,), _ = phase_gradient(psi)
    assert linf(dphi[inner] - 3.0) <= 1e-7


def test_phase_strict_raises_with_indices():
    g = make_grid(1, [64], [40.0])
    x = g.axis_coordinates(0)
    psi = ComplexScalarField(g, np.exp(-((x - 20.0) ** 2)).astype(complex))
    with pytest.raises(NodeError) as err:
        phase(psi, strict=True)
    assert err.value.indices is not None and len(err.value.indices) > 0


def test_phase_all_masked_raises(grid1d):
    psi = ComplexScalarField(grid1d, np.zeros(grid1d.shape, dtype=complex))
    with pytest.raises(NodeError):
        phase(psi)
    with pytest.raises(NodeError):
        phase_gradient(psi)


def test_node_mask_relative_threshold(grid1d):
    f = np.ones(grid1d.shape)
    f[3] = 1e-9
    mask = node_mask(f)
    assert mask[3] and mask.sum() == 1


def _velocity(psi):
    j = current_scalar(psi, GaugeConfiguration.free(psi.grid), NAT)
    v, mask = velocity(j, density(psi))
    return v.components, mask


# every quantity that divides by the density or by psi, by the name its
# NodeError gives
_NODE_RATIOS = {
    "phase": phase,
    "phase gradient": phase_gradient,
    "velocity": _velocity,
    "quantum potential": lambda psi: quantum_potential(psi, NAT),
    "quantum force": lambda psi: quantum_force(psi, NAT),
}


@pytest.mark.parametrize("what", sorted(_NODE_RATIOS))
def test_zero_field_has_no_support(grid1d, what):
    psi = ComplexScalarField(grid1d, np.zeros(grid1d.shape, dtype=complex))
    with pytest.raises(NodeError, match=f"^{what} undefined: density has no support$"):
        _NODE_RATIOS[what](psi)


def _plain_ratios(psi):
    """The node-safe quantities as plain quotients, nodes included.  Lap psi
    (as its per-axis parts), d_a d_b psi and d_a Lap psi come through numpy's
    allocating calls on the spectral helper's per-axis plan."""
    v, g = psi.values, psi.grid
    c = NAT.alpha / NAT.beta
    d1 = spectral_gradient(v, g)
    lap = plain_spectral([v], g, [[(0, (_LAP, a)) for a in range(g.dim)]])[0]

    def derivative(*factors):
        return plain_spectral([v], g, [[(0, *factors)]])[0]

    f = density(psi)
    j = current_scalar(psi, GaugeConfiguration.free(g), NAT)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grads = [(np.conj(v) * d).imag / f for d in d1]
        inv = 1.0 / v
        r1 = [d * inv for d in d1]
        rlap = lap * inv
        force = []
        for a in range(g.dim):
            dg = (derivative(a, _LAP) * inv - rlap * r1[a]).real
            for b in range(g.dim):
                second = derivative(*sorted((a, b)))
                dg = dg + 2.0 * r1[b].imag * (second * inv - r1[a] * r1[b]).imag
            force.append(-c * dg)
        return {
            "phase gradient": grads,
            "velocity": [comp / f for comp in j.components],
            "quantum potential": [c * ((lap / v).real + sum(q**2 for q in grads))],
            "quantum force": force,
        }


def test_node_safe_ratios_are_zero_on_nodes_and_plain_quotients_off_them():
    g = make_grid(2, [32, 16], [20.0, 12.0])
    x, y = np.meshgrid(g.axis_coordinates(0), g.axis_coordinates(1), indexing="ij")
    envelope = np.exp(-((x - 10.0) ** 2) / 2.0 - ((y - 6.0) ** 2) / 3.0)
    psi = ComplexScalarField(g, envelope * np.exp(1j * (0.7 * x - 0.4 * y)))
    plain = _plain_ratios(psi)
    q, q_mask = quantum_potential(psi, NAT)
    outputs = {
        "phase gradient": phase_gradient(psi),
        "velocity": _velocity(psi),
        "quantum potential": ([q], q_mask),
        "quantum force": quantum_force(psi, NAT),
    }
    for what, (comps, mask) in outputs.items():
        assert 0 < mask.sum() < mask.size
        for comp, ref in zip(comps, plain[what], strict=True):
            assert np.all(comp[mask] == 0.0), what
            assert np.array_equal(comp[~mask], ref[~mask]), what


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_paramagnetic_identity_branch_free(grid1d, seed):
    # i*alpha*(conj(psi)*dpsi - psi*conj(dpsi)) == -2*alpha*f*grad(phi)
    rng = np.random.default_rng(seed)
    alpha = -0.5
    v = random_band_limited(grid1d, rng, complex_valued=True)
    v = v + 1.5  # keep the field away from nodes
    psi = ComplexScalarField(grid1d, v)
    (dv,) = spectral_gradient(v, grid1d)
    lhs = 1j * alpha * (np.conj(v) * dv - v * np.conj(dv))
    (dphi,), mask = phase_gradient(psi)
    rhs = -2 * alpha * density(psi) * dphi
    assert not mask.any()
    assert linf(lhs - rhs) <= 1e-9
    assert linf(lhs.imag) <= 1e-12


def _random_field(kind, g, seed=42):
    rng = np.random.default_rng(seed)
    if kind == "vector":
        return VectorField(g, tuple(rng.standard_normal(g.shape) for _ in range(g.dim)))
    cls = {"scalar": ComplexScalarField, "spinor": SpinorField, "bispinor": BispinorField}[kind]
    shape = cls._shape(g)
    return cls(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _samples(field) -> np.ndarray:
    """A field's samples as one (ncomp, *grid) or grid-shaped array."""
    return np.stack(field.components) if isinstance(field, VectorField) else field.values


_KINDS = ["scalar", "spinor", "bispinor", "vector"]
_GRIDS = [make_grid(1, [8], [1.0]), make_grid(2, [8, 12], [1.0, 2.5]),
          make_grid(3, [4, 6, 5], [1.0, 2.0, 3.0])]


@pytest.mark.parametrize("kind", _KINDS)
def test_snapshot_round_trip_bit_exact(tmp_path, kind):
    # version 2 stores the samples as the field holds them, component-major
    for g in _GRIDS:
        field = _random_field(kind, g)
        path = tmp_path / f"{kind}-{g.dim}d.qfs"
        write_snapshot(field, path)
        raw = path.read_bytes()
        assert int.from_bytes(raw[8:12], "little") == 2
        assert raw[64:] == _samples(field).tobytes()
        back = read_snapshot(path)
        assert type(back) is type(field)
        assert back.grid == g
        assert _samples(back).tobytes() == _samples(field).tobytes()


@pytest.mark.parametrize("kind", _KINDS)
def test_snapshot_reads_into_the_destination_given(tmp_path, kind):
    # the field keeps out as its storage
    g = _GRIDS[1]
    field = _random_field(kind, g)
    path = tmp_path / f"{kind}.qfs"
    write_snapshot(field, path)
    out = np.empty_like(_samples(field))
    back = read_snapshot(path, out=out)
    parts = back.components if kind == "vector" else (back.values,)
    assert all(np.shares_memory(part, out) for part in parts)
    assert out.tobytes() == _samples(field).tobytes()
    # storage of another shape is left alone: the file's own shape is read
    other = np.zeros((5, *g.shape), dtype=out.dtype)
    back = read_snapshot(path, out=other)
    assert not np.any(other)
    assert _samples(back).tobytes() == _samples(field).tobytes()


@pytest.mark.parametrize("g", _GRIDS, ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("kind", _KINDS)
def test_snapshot_refuses_version_1_files(tmp_path, kind, g):
    # version 1 interleaved the components per grid point, as (*grid, ncomp);
    # it is refused before a sample is read, so the destination is untouched
    field = _random_field(kind, g, seed=7)
    path = tmp_path / "v1.qfs"
    write_snapshot_v1(field, path)
    out = np.zeros_like(_samples(field))
    with pytest.raises(SnapshotError, match="unsupported version 1$"):
        read_snapshot(path, out=out)
    assert not np.any(out)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(4, 8), min_size=1, max_size=3),
    lengths=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
    ncomp=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_snapshot_round_trip_property(shape, lengths, ncomp, seed):
    g = make_grid(len(shape), shape, lengths[: len(shape)])
    # arbitrary finite bit patterns, not just the values a solver produces
    bits = np.random.default_rng(seed).integers(
        0, 2**64, size=2 * ncomp * g.size, dtype=np.uint64, endpoint=False
    )
    bits[~np.isfinite(bits.view(np.float64))] ^= np.uint64(1 << 62)
    values = bits.view(np.complex128).reshape(ncomp, *g.shape)
    if ncomp == 1:
        field = ComplexScalarField(g, values[0])
    else:
        field = (SpinorField if ncomp == 2 else BispinorField)(g, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.qfs")
        write_snapshot(field, path)
        back = read_snapshot(path)
    assert type(back) is type(field)
    assert back.grid == g
    assert back.values.tobytes() == field.values.tobytes()


def test_snapshot_rewrite_is_deterministic(tmp_path):
    g = make_grid(1, [16], [1.0])
    field = ComplexScalarField(g, np.exp(2j * np.pi * np.arange(16) / 16))
    p1, p2 = tmp_path / "a.qfs", tmp_path / "b.qfs"
    write_snapshot(field, p1)
    write_snapshot(field, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_truncated_header(tmp_path):
    p = tmp_path / "bad.qfs"
    p.write_bytes(b"QVLABQFS\x01")
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot(p)


def test_snapshot_truncated_payload(tmp_path):
    g = make_grid(1, [16], [1.0])
    field = ComplexScalarField(g, np.ones(16, dtype=complex))
    p = tmp_path / "cut.qfs"
    write_snapshot(field, p)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(SnapshotError, match="payload"):
        read_snapshot(p)


@pytest.mark.parametrize("edit, size", [(lambda raw: raw[:-1], 4 * 16 * 16 - 1),
                                        (lambda raw: raw + b"\0", 4 * 16 * 16 + 1)],
                         ids=["one-byte-short", "one-trailing-byte"])
def test_snapshot_payload_must_be_the_size_the_header_promises(tmp_path, edit, size):
    g = make_grid(1, [16], [1.0])
    p = tmp_path / "bi.qfs"
    write_snapshot(_random_field("bispinor", g), p)
    p.write_bytes(edit(p.read_bytes()))
    out = np.zeros((4, 16), dtype=complex)
    with pytest.raises(SnapshotError, match=f"payload is {size} bytes, header promises 1024"):
        read_snapshot(p, out=out)
    assert not np.any(out)  # refused before a sample is read


def test_snapshot_bad_magic(tmp_path):
    g = make_grid(1, [16], [1.0])
    field = ComplexScalarField(g, np.ones(16, dtype=complex))
    p = tmp_path / "magic.qfs"
    write_snapshot(field, p)
    raw = bytearray(p.read_bytes())
    raw[:8] = b"NOTAQFS!"
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(p)


@pytest.mark.parametrize("version", [0, 3])
def test_snapshot_unknown_version(tmp_path, version):
    g = make_grid(1, [16], [1.0])
    p = tmp_path / "version.qfs"
    write_snapshot(ComplexScalarField(g, np.ones(16, dtype=complex)), p)
    raw = bytearray(p.read_bytes())
    raw[8:12] = version.to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match=f"unsupported version {version}$"):
        read_snapshot(p)


def test_snapshot_wrong_component_count(tmp_path):
    # a complex payload with 3 components matches no field kind
    import struct

    header = struct.Struct("<8sII3I3dII4x").pack(
        b"QVLABQFS", 2, 1, 16, 0, 0, 1.0, 0.0, 0.0, 3, 16
    )
    payload = np.zeros(16 * 3, dtype="<c16").tobytes()
    p = tmp_path / "odd.qfs"
    p.write_bytes(header + payload)
    with pytest.raises(SnapshotError, match="components"):
        read_snapshot(p)


@pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", _KINDS)
def test_snapshot_with_a_non_finite_sample_is_a_snapshot_error(tmp_path, kind, sample):
    # the field refuses the samples; the refusal names the file, as every other does
    path = tmp_path / f"{kind}.qfs"
    write_snapshot(_random_field(kind, _GRIDS[1]), path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.float64(sample).tobytes()  # the last sample's last float
    path.write_bytes(bytes(raw))
    message = f"^{re.escape(str(path))}: field samples must be finite$"
    with pytest.raises(SnapshotError, match=message):
        read_snapshot(path)


@pytest.mark.parametrize("cls, ncomp", [(ComplexScalarField, 1), (SpinorField, 2),
                                         (BispinorField, 4)])
def test_amplitudes_are_one_container_of_grid_and_values(cls, ncomp, grid1d):
    lead = () if ncomp == 1 else (ncomp,)
    values = np.arange(ncomp * grid1d.size, dtype=complex).reshape(*lead, *grid1d.shape)
    field = cls(grid1d, values)
    assert [f.name for f in dataclasses.fields(cls)] == ["grid", "values"]
    assert repr(field).startswith(f"{cls.__name__}(grid=Grid(")
    assert field.values.shape == values.shape
    assert np.array_equal(density(field), (np.abs(values) ** 2).reshape(-1, grid1d.size).sum(axis=0))
    with pytest.raises(ValueError, match=r"samples have shape \(5, 64\)"):
        cls(grid1d, np.ones((5, *grid1d.shape)))


def test_vector_field_component_count_enforced():
    g = make_grid(2, [8, 8], [1.0, 1.0])
    with pytest.raises(ValueError):
        VectorField(g, (np.zeros(g.shape),))


def test_field_rejects_nonfinite(grid1d):
    vals = np.ones(grid1d.shape, dtype=complex)
    vals[0] = np.nan
    with pytest.raises(ValueError):
        ComplexScalarField(grid1d, vals)
