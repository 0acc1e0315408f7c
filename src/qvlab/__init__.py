"""qvlab: a numerical laboratory for wave equations derived from
probability-current decompositions on periodic lattices.

The modules split along the pipeline: `lattice` (grids and spectral
derivatives), `fields` (state containers and snapshot IO), `algebra`
(matrix identities behind the spin constructions), `decomposition`
(currents, velocities, and the Helmholtz-type split), `evolvers`
(split-step and leapfrog integrators), `diagnostics` (residual reports),
and `trajectories` (characteristic curves and ensemble transport).
The `cli` module wires everything into the `qvlab` command.

QVLAB_THREADS caps the BLAS/OpenMP thread pools.  The cap is applied here,
before the first numpy import, because the pools are sized when numpy loads;
a variable already set in the environment wins.
"""
import os

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> None:
    """Set each unset thread-pool variable to QVLAB_THREADS; ValueError when
    that is not a positive integer."""
    cap = os.environ.get("QVLAB_THREADS")
    if cap is None or cap == "":
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ValueError(f"QVLAB_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


try:
    _apply_thread_cap()
except ValueError:
    pass  # importing stays possible; `qvlab.cli.main` reports it and exits 2

from .algebra import (
    IDENTITY_NAMES,
    IdentityResult,
    Quaternion,
    dirac_gamma,
    identity_suite,
    pauli,
    phase_matrix,
    quaternion_embed,
    sigma_dot,
)
from .decomposition import (
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
from .diagnostics import (
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
from .evolvers import (
    EvolutionParams,
    EvolutionTrace,
    FourPotential,
    TaylorEvolutionMatrix,
    WaveState,
    gps_apply,
    gps_matrix,
    magnetic_field,
    run_dirac,
    run_pauli,
    run_schrodinger,
    run_wave,
    wave_initial_state,
)
from .fields import (
    NODE_EPSILON,
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
from .lattice import (
    Grid,
    band_limit,
    curl,
    divergence,
    k_squared,
    make_grid,
    spectral_gradient,
    spectral_laplacian,
)
from .trajectories import (
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

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice
    "Grid",
    "make_grid",
    "spectral_gradient",
    "spectral_laplacian",
    "divergence",
    "curl",
    "k_squared",
    "band_limit",
    # fields
    "ComplexScalarField",
    "SpinorField",
    "BispinorField",
    "VectorField",
    "density",
    "phase",
    "phase_gradient",
    "node_mask",
    "NODE_EPSILON",
    "NodeError",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    # algebra
    "pauli",
    "dirac_gamma",
    "sigma_dot",
    "Quaternion",
    "quaternion_embed",
    "phase_matrix",
    "identity_suite",
    "IdentityResult",
    "IDENTITY_NAMES",
    # decomposition
    "PhysicalConstants",
    "GaugeConfiguration",
    "FourCurrent",
    "current_scalar",
    "current_spinor",
    "current_bispinor",
    "velocity",
    "helmholtz_split",
    "recompose_velocity",
    # evolvers
    "EvolutionParams",
    "EvolutionTrace",
    "FourPotential",
    "WaveState",
    "wave_initial_state",
    "run_schrodinger",
    "run_pauli",
    "run_dirac",
    "run_wave",
    "magnetic_field",
    "gps_matrix",
    "gps_apply",
    "TaylorEvolutionMatrix",
    # diagnostics
    "ResidualReport",
    "continuity_residual",
    "four_current_divergence",
    "quantum_potential",
    "quantum_force",
    "phase_rate_from_snapshots",
    "hamilton_jacobi_residual",
    "em_fields",
    "gauge_residuals",
    "self_consistency_residual",
    "MaxwellFrame",
    "maxwell_residuals",
    # trajectories
    "AnalyticSampler",
    "GridFieldSampler",
    "FlowSampler",
    "EMSeries",
    "Path",
    "advect",
    "advect_ensemble",
    "force_path",
    "sample_density",
    "sample_inverse_cdf",
]
