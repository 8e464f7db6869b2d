"""Numerical laboratory for goldfish-family integrable flows.

Exact solvers, adaptive integrators and a property-check harness for the
rational goldfish system, its spin (Euler-Calogero-Moser) extension, the flat
geodesic picture in symmetric-function coordinates, the Hamiltonian reduction
of free symmetric-matrix dynamics to free vector dynamics, and the hyperbolic
variant with its Lax pair and exact solutions.
"""

from . import (
    cli,
    dynamics,
    geometry,
    hyperbolic,
    poisson,
    reduction,
    sampling,
    secular,
    symfun,
    verify,
)
from .dynamics import (
    ECMState,
    GoldfishState,
    IntegratorConfig,
    Trajectory,
    conserved_bn,
    ecm_hamiltonian,
    ecm_hamiltonian_g,
    ecm_rhs,
    f_from_velocities,
    goldfish_exact,
    goldfish_rhs,
    integrate,
    total_momentum,
)
from .errors import GoldfishLabError
from .geometry import GeodesicState, WFunction, christoffel, curvature, geodesic_hamiltonian, metric
from .hyperbolic import HyperbolicData, HyperbolicState, coth_rhs, hyperbolic_rhs, lax_pair
from .poisson import PhaseObservable, PoissonStructure, ecm_structure, goldfish_structure
from .reduction import MatrixFlow, ReducedChart, canonical_transform, frame_flow, rank1_velocity
from .secular import secular_roots
from .symfun import elem_sym_coords, jacobian, jacobian_det, jacobian_inverse, roots_from_coords

__version__ = "0.1.0"
