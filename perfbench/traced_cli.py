"""Run one ``goldfishlab`` command with spans around each layer boundary.

    python3 perfbench/traced_cli.py SPANS.json <goldfishlab arguments...>

The wrappers are installed from outside the program: every module attribute
that holds one of the traced functions, and the methods of every OdeSystem
subclass, are replaced by a timing wrapper.  Spans are aggregated in memory
per (caller layer, layer) edge and written to SPANS.json at exit:
``[caller, layer, calls, total_s, self_s]``, where self time is the span's
duration minus the part covered by its child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time

#: layer -> (module, function).  ``solve_ivp`` is patched in ``dynamics`` only,
#: so its self time is the RK driver without the right-hand side.
FUNCTIONS = {
    "cli.main": ("cli", "main"),
    "cli.load_config": ("cli", "load_config"),
    "verify.run_checks": ("verify", "run_checks"),
    "dynamics.integrate": ("dynamics", "integrate"),
    "dynamics.rk_driver": ("dynamics", "solve_ivp"),
    "dynamics.goldfish_exact": ("dynamics", "goldfish_exact"),
    "symfun.as_configuration": ("symfun", "as_configuration"),
    "symfun.jacobian": ("symfun", "jacobian"),
    "symfun.roots_from_coords": ("symfun", "roots_from_coords"),
    "geometry.inverse_metric": ("geometry", "inverse_metric"),
    "reduction.eigen_track": ("reduction", "eigen_track"),
    "reduction.frame_flow": ("reduction", "frame_flow"),
    "hyperbolic.z_eigen_solution": ("hyperbolic", "z_eigen_solution"),
    "hyperbolic.s_exact": ("hyperbolic", "s_exact"),
    "poisson.jacobi_residual_all": ("poisson", "jacobi_residual_all"),
}
#: layer -> OdeSystem methods.  A row build called from inside an RHS
#: (the geodesic RHS unpacks its state) stays part of the RHS.
METHODS = {"dynamics.rhs": ("rhs",), "dynamics.row_build": ("unpack", "diagnostics")}
LAYERS = tuple(FUNCTIONS) + tuple(METHODS)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, child seconds]
        self.edges: dict[tuple[str, str], list] = {}  # (caller, layer) -> [calls, total, self]

    def wrap(self, layer, fn, inline_under=()):
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] in inline_under:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                caller = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.get((caller, layer))
                if edge is None:
                    edge = edges[(caller, layer)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]

        return traced

    def install(self):
        import goldfishlab
        from goldfishlab import dynamics

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "goldfishlab" or name.startswith("goldfishlab."))]
        for layer, (module_name, attr) in FUNCTIONS.items():
            module = getattr(goldfishlab, module_name)
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original)
            for holder in [module] if attr == "solve_ivp" else modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)

        classes, pending = [], list(dynamics.OdeSystem.__subclasses__())
        while pending:
            cls = pending.pop()
            classes.append(cls)
            pending += cls.__subclasses__()
        for layer, names in METHODS.items():
            inline = ("dynamics.rhs",) if layer == "dynamics.row_build" else ()
            for cls in classes:
                for name in names:
                    if name in vars(cls):
                        setattr(cls, name, self.wrap(layer, vars(cls)[name], inline))

    def spans(self) -> list:
        return [[caller, layer, *stats] for (caller, layer), stats in sorted(self.edges.items())]


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from goldfishlab import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans(), handle)


if __name__ == "__main__":
    sys.exit(main())
