"""Numerical laboratory for goldfish-family integrable flows.

Exact solvers, adaptive integrators and a property-check harness for the
rational goldfish system, its spin (Euler-Calogero-Moser) extension, the flat
geodesic picture in symmetric-function coordinates, the Hamiltonian reduction
of free symmetric-matrix dynamics to free vector dynamics, and the hyperbolic
variant with its Lax pair and exact solutions.

Importing the package loads no submodule; ``goldfishlab.<name>`` imports
submodule ``name`` on first use, and each command of ``goldfishlab.cli``
imports only the modules it runs.
"""

import importlib

_SUBMODULES = frozenset({
    "cli", "dynamics", "errors", "geometry", "hyperbolic", "poisson", "reduction",
    "rk45", "sampling", "secular", "symfun", "utils", "verify",
})

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
