"""Pauli and Dirac matrix tables, the quaternion embedding, and the linear
phase matrix whose index-raised derivatives reproduce the Dirac matrices.

Conventions
    metric        g = diag(+1, -1, -1, -1)
    sigma^0       2x2 identity
    sigma.x       [[x3, x1 - i*x2], [x1 + i*x2, -x3]]
    gamma^0       diag(I2, -I2);  gamma^k = [[0, sigma^k], [-sigma^k, 0]]
    quaternions   1 -> sigma^0, i -> i*sigma^3, j -> i*sigma^2, k -> i*sigma^1

All constructors return fresh arrays; the module-level tables are private.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "pauli",
    "dirac_gamma",
    "sigma_dot",
    "Quaternion",
    "quaternion_embed",
    "phase_matrix",
    "identity_suite",
    "IdentityResult",
    "IDENTITY_NAMES",
]

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
METRIC.flags.writeable = False

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    _I2,
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_Z2 = np.zeros((2, 2), dtype=complex)
_GAMMA = tuple(
    np.block([[_PAULI[0], _Z2], [_Z2, -_PAULI[0]]])
    if mu == 0
    else np.block([[_Z2, _PAULI[mu]], [-_PAULI[mu], _Z2]])
    for mu in range(4)
)


def pauli(k: int) -> np.ndarray:
    """sigma^k for k in 0..3 (sigma^0 is the identity)."""
    if not 0 <= k <= 3:
        raise ValueError(f"pauli index must be 0..3, got {k}")
    return _PAULI[k].copy()


def dirac_gamma(mu: int) -> np.ndarray:
    """gamma^mu for mu in 0..3 in the 2x2-block representation."""
    if not 0 <= mu <= 3:
        raise ValueError(f"gamma index must be 0..3, got {mu}")
    return _GAMMA[mu].copy()


def sigma_parts(v) -> tuple:
    """(v_z, v_x - i*v_y, v_x + i*v_y), the entries of sigma.v."""
    vx, vy, vz = v
    return vz, vx - 1j * vy, vx + 1j * vy


def sigma_apply(parts, values, out, scratch) -> None:
    """Write sigma.v, given as sigma_parts(v), applied to the two-component
    `values` into the pair `out`, which shares no memory with `values`;
    `scratch` is workspace the shape of one component."""
    vz, minus, plus = parts
    up, down = values
    np.multiply(vz, up, out=out[0])
    out[0] += np.multiply(minus, down, out=scratch)
    np.multiply(plus, up, out=out[1])
    out[1] -= np.multiply(vz, down, out=scratch)


def sigma_dot(x) -> np.ndarray:
    """sigma.x for a 3-vector of scalars or broadcastable sample arrays.

    Returns shape (2, 2) for scalars, (2, 2, *field) for arrays.
    """
    x3, minus, plus = sigma_parts(np.broadcast_arrays(*(np.asarray(c) for c in x)))
    x3 = x3.astype(complex)
    return np.stack([np.stack([x3, minus]), np.stack([plus, -x3])])


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion a + u1*i + u2*j + u3*k with the Hamilton product."""

    a: float
    u: tuple[float, float, float]

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a1, (x1, y1, z1) = self.a, self.u
        a2, (x2, y2, z2) = other.a, other.u
        return Quaternion(
            a1 * a2 - x1 * x2 - y1 * y2 - z1 * z2,
            (
                a1 * x2 + a2 * x1 + y1 * z2 - z1 * y2,
                a1 * y2 + a2 * y1 + z1 * x2 - x1 * z2,
                a1 * z2 + a2 * z1 + x1 * y2 - y1 * x2,
            ),
        )

    @classmethod
    def basis(cls) -> tuple["Quaternion", ...]:
        return (
            cls(1.0, (0, 0, 0)),
            cls(0.0, (1, 0, 0)),
            cls(0.0, (0, 1, 0)),
            cls(0.0, (0, 0, 1)),
        )


def quaternion_embed(q: Quaternion) -> np.ndarray:
    """2x2 complex image of q under 1 -> I, i -> i*sigma^3, j -> i*sigma^2,
    k -> i*sigma^1 (an algebra homomorphism)."""
    x, y, z = q.u
    return (
        q.a * _PAULI[0]
        + x * 1j * _PAULI[3]
        + y * 1j * _PAULI[2]
        + z * 1j * _PAULI[1]
    )


def phase_matrix(x) -> np.ndarray:
    """4x4 linear matrix [[sigma^0*x0, -sigma.xv], [sigma.xv, -sigma^0*x0]]
    of a four-vector x = (x0, x1, x2, x3) with raised indices.

    Its index-raised directional derivatives are the Dirac matrices:
    d/dx0 gives gamma^0 and -d/dxk gives gamma^k.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"phase matrix needs a 4-vector, got shape {x.shape}")
    sx = sigma_dot(x[1:])
    top = x[0] * _PAULI[0]
    return np.block([[top, -sx], [sx, -top]])


@dataclass(frozen=True)
class IdentityResult:
    """One entry of the identity suite: worst deviation and its witness."""

    name: str
    max_error: float
    witness: np.ndarray

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_error <= tol


def _gamma_anticommutators(rng, samples):
    gammas = [dirac_gamma(mu) for mu in range(4)]
    for mu in range(4):
        for nu in range(mu, 4):
            anti = gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu]
            yield anti - 2.0 * METRIC[mu, nu] * np.eye(4)


def _quaternion_embedding(rng, samples):
    basis = Quaternion.basis()
    for q1 in basis:
        for q2 in basis:
            yield quaternion_embed(q1) @ quaternion_embed(q2) - quaternion_embed(q1 * q2)


def _sigma_dot_product(rng, samples):
    for _ in range(samples):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        lhs = sigma_dot(a) @ sigma_dot(b)
        yield lhs - (np.dot(a, b) * _PAULI[0] + 1j * sigma_dot(np.cross(a, b)))


def _spin_term_cancellation(rng, samples):
    # psi^T (sigma^* . B) psi^* - psi^dag (sigma . B) psi == 0 for real B
    for _ in range(samples):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        sb = sigma_dot(rng.standard_normal(3))
        yield np.array(psi.T @ np.conj(sb) @ np.conj(psi) - np.conj(psi).T @ sb @ psi)


# identity name -> generator (rng, samples) of its deviation arrays, in run order
_IDENTITIES = {
    "gamma_anticommutators": _gamma_anticommutators,
    "quaternion_embedding": _quaternion_embedding,
    "sigma_dot_product": _sigma_dot_product,
    "spin_term_cancellation": _spin_term_cancellation,
}
IDENTITY_NAMES = tuple(_IDENTITIES)


def identity_suite(seed: int = 0, samples: int = 100):
    """Run the full matrix-identity suite; all entries must sit at roundoff.

    Entries come back in IDENTITY_NAMES order; the sampled ones draw `samples` cases each.
    """
    rng = np.random.default_rng(seed)
    results = []
    for name, deviations in _IDENTITIES.items():
        worst, witness = 0.0, None
        for dev in deviations(rng, samples):
            err = float(np.abs(dev).max())
            if witness is None or err > worst or np.isnan(err):  # NaN sticks and fails
                worst, witness = err, dev
        results.append(IdentityResult(name, worst, witness))
    return results
