"""qvlab: a numerical laboratory for wave equations derived from
probability-current decompositions on periodic lattices.

The modules split along the pipeline: `lattice` (grids and spectral
derivatives), `fields` (state containers and snapshot IO), `algebra`
(matrix identities behind the spin constructions), `decomposition`
(currents, velocities, and the Helmholtz-type split), `evolvers`
(split-step and leapfrog integrators), `diagnostics` (residual reports),
and `trajectories` (characteristic curves and ensemble transport).
Each declares its public API in `__all__`; the package's `__all__` is
`__version__` and those lists in this order. The `cli` module wires
everything into the `qvlab` command.

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

# Alphabetical on purpose: with the same modules imported in pipeline order,
# flow-trace's one-process benchmark pass peaked at 70.8 MB, not 66.7.
from .algebra import *
from .decomposition import *
from .diagnostics import *
from .evolvers import *
from .fields import *
from .lattice import *
from .trajectories import *
from . import lattice, fields, algebra, decomposition, evolvers, diagnostics, trajectories

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += lattice.__all__
__all__ += fields.__all__
__all__ += algebra.__all__
__all__ += decomposition.__all__
__all__ += evolvers.__all__
__all__ += diagnostics.__all__
__all__ += trajectories.__all__
