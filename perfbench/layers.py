"""Warmed per-layer scaling set: RHS, row build, RK work and exact routes by N.

    PYTHONPATH=src:perfbench python3 perfbench/layers.py

Prints one JSON object ``{"metrics": {...}, "unrepeated": [...]}``.  The
inputs are fixed, not drawn from the workload seed, so these figures compare
across runs and commits.  Each timing is the median of timed batches after a
warm-up call: five batches of at least 5 ms for the RHS and row costs, three
passes over the 20-point time grid for the exact routes.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np
from goldfishlab import dynamics, geometry, hyperbolic, reduction
from goldfishlab.errors import GoldfishLabError

from workloads import ABS_TOL, REL_TOL, T_END, coth_positions, draw_positions, goldfish_positions

RHS_N = {"goldfish": (3, 6, 16, 64), "ecm": (3, 6, 16, 64), "geodesic": (3, 6, 16, 64),
         "sinh": (3, 6, 16, 64), "coth": (3, 6, 16, 64)}
ROW_N = {"goldfish": (4, 16, 64), "sinh": (4, 16, 64)}
NFEV_N = {"goldfish": (4, 16), "ecm": (4, 16), "coth": (4, 16)}
COST_N = (4, 16, 64)
ERR_N = (4, 16, 32)
TIMES = np.linspace(0.0, T_END, 21)[1:]


def data(n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([n, 3])
    return draw_positions(rng, n), rng.uniform(0.5, 1.5, n)


def system(kind: str, n: int):
    """(OdeSystem, initial state) for one model at size n."""
    q, v = data(n)
    if kind == "goldfish":
        return dynamics.GoldfishSystem(n), dynamics.GoldfishState(q, v)
    if kind == "ecm":
        upper = -(q[:, None] - q[None, :]) * np.sqrt(np.outer(v, v))
        return dynamics.EcmSystem(n), dynamics.ECMState(q, v, upper[np.triu_indices(n, 1)])
    if kind == "geodesic":
        return dynamics.GeodesicSystem(n), geometry.GeodesicState(q, v)
    if kind == "sinh":
        return hyperbolic.SinhSystem(n, 0.5), hyperbolic.HyperbolicState(q, v)
    return hyperbolic.CothSystem(n), hyperbolic.HyperbolicState(q, v)


def seconds_per_call(fn, batch_s: float = 0.02, batches: int = 5) -> float:
    fn()
    calls = 1
    while True:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - started >= batch_s / 4:
            break
        calls *= 4
    samples = []
    for _ in range(batches):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls)
    return statistics.median(samples)


def rhs_evaluations(kind: str, n: int) -> int:
    sys_, state0 = system(kind, n)
    calls = 0
    rhs = sys_.rhs

    def counted(t, y):
        nonlocal calls
        calls += 1
        return rhs(t, y)

    sys_.rhs = counted
    config = dynamics.IntegratorConfig(rel_tol=REL_TOL, abs_tol=ABS_TOL)
    dynamics.integrate(sys_, state0, T_END, config, output_points=2)
    return calls


def exact_routes(n: int):
    """route -> (function of the time grid giving positions with NaN rows where it fails, reference)."""
    q, v = data(n)
    state = dynamics.GoldfishState(q, v)
    coth = hyperbolic.HyperbolicData(1.0, q, v)

    def pointwise(fn):
        def run(times):
            out = np.full((times.size, n), np.nan)
            for k, t in enumerate(times):
                try:
                    out[k] = fn(t)
                except GoldfishLabError:
                    pass
            return out
        return run

    def matrix_eigen(times):
        try:
            return reduction.eigen_track(reduction.rank1_velocity(q, v), times)[1]
        except GoldfishLabError:
            return np.full((times.size, n), np.nan)

    return {
        "flat_exact": (pointwise(lambda t: dynamics.goldfish_exact(state, t)), lambda: goldfish_positions(q, v, TIMES)),
        "matrix_eigen": (matrix_eigen, lambda: goldfish_positions(q, v, TIMES)),
        "z_eigen": (pointwise(lambda t: hyperbolic.z_eigen_solution(coth, t)), lambda: coth_positions(q, v, TIMES)),
        "s_exact": (pointwise(lambda t: hyperbolic.s_exact(coth, t)[1]), lambda: coth_positions(q, v, TIMES)),
    }


def main() -> None:
    metrics: dict[str, float] = {}
    for kind, sizes in RHS_N.items():
        for n in sizes:
            sys_, state = system(kind, n)
            y = sys_.pack(state)
            metrics[f"dynamics.rhs_us.{kind}.N{n}"] = 1e6 * seconds_per_call(lambda: sys_.rhs(0.0, y))
    for kind, sizes in ROW_N.items():
        for n in sizes:
            sys_, state = system(kind, n)
            y, reference = sys_.pack(state), sys_.reference(state)
            metrics[f"dynamics.row_us.{kind}.N{n}"] = 1e6 * seconds_per_call(
                lambda: sys_.diagnostics(reference, sys_.unpack(y)))
    unrepeated = []
    for kind, sizes in NFEV_N.items():
        for n in sizes:
            name = f"dynamics.nfev.{kind}.N{n}"
            metrics[name] = rhs_evaluations(kind, n)
            if rhs_evaluations(kind, n) != metrics[name]:
                unrepeated.append(name)
    for n in sorted(set(COST_N) | set(ERR_N)):
        for route, (solve, reference) in exact_routes(n).items():
            if n in COST_N:
                metrics[f"exact.{route}.us_per_point.N{n}"] = 1e6 * seconds_per_call(
                    lambda: solve(TIMES), batch_s=0.0, batches=3) / TIMES.size
            if n in ERR_N:
                # a time point the route cannot solve counts as an error of 1,
                # larger than any gap between the positions on [-2, 2]
                err = np.nan_to_num(np.abs(solve(TIMES) - reference()), nan=1.0)
                metrics[f"exact.{route}.err.N{n}"] = float(err.max())
    print(json.dumps({"metrics": metrics, "unrepeated": unrepeated}))


if __name__ == "__main__":
    main()
