"""Matrix tables, quaternion embedding, phase matrix, and operator identities."""
import numpy as np
import pytest

from qvlab import algebra
from qvlab.algebra import (
    IDENTITY_NAMES,
    METRIC,
    Quaternion,
    dirac_gamma,
    identity_suite,
    pauli,
    phase_matrix,
    quaternion_embed,
    sigma_apply,
    sigma_dot,
    sigma_parts,
)
from qvlab.lattice import curl, make_grid, spectral_gradient
from util import linf, random_band_limited


def test_pauli_entries():
    assert np.array_equal(pauli(0), np.eye(2))
    assert np.array_equal(pauli(1), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli(3), np.diag([1, -1]).astype(complex))


def test_pauli_hermitian_and_involutive():
    for k in range(4):
        s = pauli(k)
        assert linf(s - s.conj().T) == 0.0
        assert linf(s @ s - np.eye(2)) == 0.0


def test_pauli_index_out_of_range():
    with pytest.raises(ValueError):
        pauli(4)
    with pytest.raises(ValueError):
        dirac_gamma(-1)


def test_gamma_blocks_match_pauli():
    g1 = dirac_gamma(1)
    assert np.array_equal(g1[:2, 2:], pauli(1))
    assert np.array_equal(g1[2:, :2], -pauli(1))
    assert np.array_equal(dirac_gamma(0), np.diag([1, 1, -1, -1]).astype(complex))


def test_gamma_anticommutators_full_table():
    for mu in range(4):
        for nu in range(4):
            anti = dirac_gamma(mu) @ dirac_gamma(nu) + dirac_gamma(nu) @ dirac_gamma(mu)
            assert linf(anti - 2 * METRIC[mu, nu] * np.eye(4)) <= 1e-12


def test_sigma_dot_layout_and_determinant():
    assert np.array_equal(sigma_dot((0, 0, 1)), pauli(3))
    assert linf(sigma_dot((0.0, 0.0, 0.0))) == 0.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(3)
        assert np.linalg.det(sigma_dot(x)) == pytest.approx(-np.dot(x, x), rel=1e-12)


def test_sigma_dot_broadcasts_over_fields():
    b = (np.zeros((4, 4)), np.zeros((4, 4)), np.ones((4, 4)))
    sb = sigma_dot(b)
    assert sb.shape == (2, 2, 4, 4)
    assert np.array_equal(sb[:, :, 2, 1], pauli(3))


def test_sigma_apply_writes_the_sigma_dot_product():
    rng = np.random.default_rng(4)
    v = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    values = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    out = np.full((2, 5), np.nan, dtype=complex)
    sigma_apply(sigma_parts(v), values, out, np.empty(5, dtype=complex))
    expected = np.einsum("ab...,b...->a...", sigma_dot(v), values)
    assert linf(out - expected) <= 1e-15


def test_quaternion_identity_embeds_to_identity():
    one = Quaternion(1.0, (0, 0, 0))
    assert np.array_equal(quaternion_embed(one), np.eye(2))


def test_quaternion_i_maps_to_i_sigma3():
    qi = Quaternion(0.0, (1, 0, 0))
    assert np.array_equal(quaternion_embed(qi), 1j * pauli(3))


def test_quaternion_ij_equals_k_via_matrices():
    one, qi, qj, qk = Quaternion.basis()
    prod = quaternion_embed(qi) @ quaternion_embed(qj)
    assert linf(prod - quaternion_embed(qk)) <= 1e-15
    assert linf(quaternion_embed(qi * qj) - quaternion_embed(qk)) == 0.0


def test_quaternion_all_16_basis_products():
    basis = Quaternion.basis()
    for q1 in basis:
        for q2 in basis:
            dev = quaternion_embed(q1) @ quaternion_embed(q2) - quaternion_embed(q1 * q2)
            assert linf(dev) <= 1e-15


@pytest.mark.parametrize("seed", [0, 1])
def test_quaternion_random_multiplicativity(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        q1 = Quaternion(rng.standard_normal(), tuple(rng.standard_normal(3)))
        q2 = Quaternion(rng.standard_normal(), tuple(rng.standard_normal(3)))
        dev = quaternion_embed(q1) @ quaternion_embed(q2) - quaternion_embed(q1 * q2)
        assert linf(dev) <= 1e-13


def test_phase_matrix_time_direction_is_gamma0():
    assert np.array_equal(phase_matrix([1.0, 0, 0, 0]), dirac_gamma(0))
    assert linf(phase_matrix([0.0, 0, 0, 0])) == 0.0


def test_phase_matrix_rejects_wrong_shape():
    with pytest.raises(ValueError):
        phase_matrix([1.0, 2.0])


@pytest.mark.parametrize("mu", [0, 1, 2, 3])
def test_phase_matrix_raised_derivative_is_gamma(mu):
    # finite differences are exact for a linear map; the metric raises the index
    rng = np.random.default_rng(17)
    x = rng.standard_normal(4)
    h = 0.25
    e = np.zeros(4)
    e[mu] = h
    fd = (phase_matrix(x + e) - phase_matrix(x - e)) / (2 * h)
    assert linf(METRIC[mu, mu] * fd - dirac_gamma(mu)) <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sigma_product_identity_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        lhs = sigma_dot(a) @ sigma_dot(b)
        rhs = np.dot(a, b) * np.eye(2) + 1j * sigma_dot(np.cross(a, b))
        assert linf(lhs - rhs) <= 1e-13


def test_spin_cancellation_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        sb = sigma_dot(rng.standard_normal(3))
        val = psi.T @ np.conj(sb) @ np.conj(psi) - np.conj(psi).T @ sb @ psi
        assert abs(val) <= 1e-13


def test_identity_names_are_the_suite_order():
    assert IDENTITY_NAMES == tuple(r.name for r in identity_suite())


def test_identity_suite_all_pass_and_fault_fails(monkeypatch):
    results = identity_suite(seed=1)
    assert {r.name for r in results} == {
        "gamma_anticommutators",
        "quaternion_embedding",
        "sigma_dot_product",
        "spin_term_cancellation",
    }
    assert all(r.passed(1e-12) for r in results)
    gammas = list(algebra._GAMMA)
    gammas[1] = gammas[1] + np.eye(4, k=3) * 1e-3  # one corrupted entry, gamma^1[0, 3]
    monkeypatch.setattr(algebra, "_GAMMA", tuple(gammas))
    faulted = identity_suite(seed=1)
    bad = [r for r in faulted if not r.passed(1e-12)]
    assert len(bad) == 1 and bad[0].name == "gamma_anticommutators"


def test_identity_suite_fails_a_nan_deviation(monkeypatch):
    # NaN compares false against the running worst; the suite must still fail it
    gammas = list(algebra._GAMMA)
    gammas[1] = gammas[1].copy()
    gammas[1][0, 3] = np.nan
    monkeypatch.setattr(algebra, "_GAMMA", tuple(gammas))
    bad = [r for r in identity_suite(seed=1) if not r.passed(1e-12)]
    assert [r.name for r in bad] == ["gamma_anticommutators"]
    assert np.isnan(bad[0].max_error) and np.isnan(bad[0].witness).any()


def _momentum_apply(values, grid, beta):
    """p_hat psi = -(i/beta) grad psi, one array per axis."""
    return [-1j / beta * d for d in spectral_gradient(values, grid)]


def test_minimal_coupling_square_identity_on_lattice():
    # [sigma.(p - kappa*A)]^2 = I*(p - kappa*A)^2 - (gamma/(2*alpha*beta^2)) sigma.curl A
    # exercised with spectral operators on band-limited 3D fields
    alpha, beta, gamma = -0.5, 1.0, -1.0
    kappa = gamma / (2 * alpha * beta)
    coeff = gamma / (2 * alpha * beta**2)
    rng = np.random.default_rng(31)
    g = make_grid(3, [16, 16, 16], [2 * np.pi] * 3)
    a = [random_band_limited(g, rng) for _ in range(3)]
    spin = np.stack(
        [random_band_limited(g, rng, complex_valued=True) for _ in range(2)]
    )

    def dirac_op(s):
        # sigma^j ((p_j - kappa*A_j) s) summed over j, per spinor component
        out = np.zeros_like(s)
        for j in range(3):
            pj = np.stack(
                [(-1j / beta) * spectral_gradient(s[c], g)[j] for c in range(2)]
            )
            uj = pj - kappa * a[j] * s
            sig = pauli(j + 1)
            out = out + np.einsum("ab,b...->a...", sig, uj)
        return out

    lhs = dirac_op(dirac_op(spin))

    def scalar_square(comp):
        lap = np.zeros_like(comp)
        div_a_comp = np.zeros_like(comp)
        a_dot_grad = np.zeros_like(comp)
        grads = spectral_gradient(comp, g)
        for j in range(3):
            lap += spectral_gradient(grads[j], g)[j]
            div_a_comp += spectral_gradient(a[j] * comp, g)[j]
            a_dot_grad += a[j] * grads[j]
        p2 = -lap / beta**2
        cross = (-1j / beta) * (div_a_comp + a_dot_grad)
        a2 = (a[0] ** 2 + a[1] ** 2 + a[2] ** 2) * comp
        return p2 - kappa * cross + kappa**2 * a2

    curl_a = curl(a, g)
    rhs = np.stack([scalar_square(spin[c]) for c in range(2)])
    rhs = rhs - coeff * np.einsum("ab...,b...->a...", sigma_dot(curl_a), spin)
    scale = max(linf(lhs), 1.0)
    assert linf(lhs - rhs) / scale <= 1e-8
