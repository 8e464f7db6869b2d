"""Command-line front end: simulate, verify, compare.

Exit codes: 0 success, 1 verification found a failing check, 2 bad usage,
invalid configuration or an unwritable output (a missing ``--out`` directory
or an ``--out`` that is a directory is found before any work runs), 3 a solver
stopped early (collision, step-size failure or a right-hand side that is not
finite at the initial state; the trajectory rows reached are still written,
with a truncation note in the diagnostics sidecar) or a compare
route refused its data with a typed error (SecularOutOfDomain or ComplexRoots
from an exact route, NonPositiveVelocity from ``matrix_eigen``, and so on).

All numeric CSV fields carry 17 significant digits with '.' decimal separator
and LF line endings, so identical configurations reproduce byte-identical
data.  Timing fields (check runtimes, solver wall-clocks) are the one
documented exception to byte-level reproducibility.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, symfun
from .errors import ConfigInvalid, GoldfishLabError, IntegrationError, OutputUnwritable
from .rk45 import MIN_RTOL
from .utils import upper_indices

_OPTIONAL_FIELDS = ("output_points", "rel_tol", "abs_tol", "collision_gap")


def _require(condition, message: str) -> None:
    if not condition:
        raise ConfigInvalid(message)


def _integer(value, key: str) -> int:
    """A JSON integer, or a float with an integral value; booleans are rejected."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    _require(integral and not isinstance(value, bool), f"{key} must be an integer, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    """A JSON number; JSON true/false arrive as bool, which is an int subclass."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, key: str) -> float:
    _require(_is_number(value), f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ConfigInvalid(f"{key} out of range: {exc}") from exc


def _array(raw: dict, key: str) -> np.ndarray:
    entries = np.asarray(raw[key], dtype=object)  # ragged nesting leaves lists as entries
    bad = [value for value in entries.flat if not _is_number(value)]
    if bad:
        raise ConfigInvalid(f"{key} entries must be numbers, got {bad[0]!r}")
    try:
        return entries.astype(float)
    except OverflowError as exc:
        raise ConfigInvalid(f"{key} out of range: {exc}") from exc


class RunConfig(NamedTuple):
    """Validated simulation request parsed from a JSON document."""

    system: str
    n: int
    t_end: float
    output_points: int
    rel_tol: float
    abs_tol: float
    collision_gap: float
    q0: np.ndarray | None = None
    qdot0: np.ndarray | None = None
    p0: np.ndarray | None = None
    f0: np.ndarray | None = None
    a: float | None = None
    a_vec: np.ndarray | None = None
    c_vec: np.ndarray | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _require(isinstance(raw, dict), "config must be a JSON object")
        system = raw.get("system")
        _require(system in SYSTEMS, f"system must be one of {SYSTEMS}, got {system!r}")
        required = ("system", "N", "t_end") + SPECS[system].fields
        missing = [key for key in required if key not in raw]
        _require(not missing, f"missing required fields: {missing}")
        unknown = sorted(set(raw) - set(required) - set(_OPTIONAL_FIELDS))
        _require(not unknown, f"unknown fields: {unknown}")

        n = _integer(raw["N"], "N")
        points = _integer(raw.get("output_points", 101), "output_points")
        t_end = _number(raw["t_end"], "t_end")
        rel_tol = _number(raw.get("rel_tol", 1e-10), "rel_tol")
        abs_tol = _number(raw.get("abs_tol", 1e-12), "abs_tol")
        gap = _number(raw.get("collision_gap", symfun.COLLISION_TOL), "collision_gap")
        _require(n >= 1, "N must be >= 1")
        _require(np.isfinite(t_end), "t_end must be finite")
        _require(t_end > 0, "t_end must be > 0")
        _require(points >= 2, "output_points must be >= 2")
        _require(np.isfinite(rel_tol) and rel_tol > 0, "rel_tol must be finite and > 0")
        _require(rel_tol >= MIN_RTOL,
                 f"rel_tol must be >= 100 eps ({MIN_RTOL:.3g}), got {rel_tol!r}")
        _require(np.isfinite(abs_tol) and abs_tol > 0, "abs_tol must be finite and > 0")
        _require(np.isfinite(gap) and gap >= 0, "collision_gap must be finite and >= 0")

        fields: dict = {}
        for key in SPECS[system].fields:
            if key == "a":
                fields["a"] = a = _number(raw["a"], "a")
                _require(a != 0, "a must be nonzero")
                _require(np.isfinite(a), "a must be finite")
            elif key == "f0":
                fields["f0"] = f0 = _array(raw, "f0")
                _require(f0.shape == (n, n), f"f0 must be an {n}x{n} matrix")
                _require(np.array_equal(f0, -f0.T), "f0 must be exactly antisymmetric")
                _require(np.all(np.isfinite(f0)), "f0 must be finite")
            else:
                fields[key] = value = _array(raw, key)
                _require(value.shape == (n,), f"{key} must be a length-{n} vector")
                _require(np.all(np.isfinite(value)), f"{key} must be finite")
                if key in ("q0", "a_vec") and n > 1:
                    gaps = np.diff(value)
                    _require(np.all(gaps > 0), f"{key} must be strictly increasing")
                    # at a gap <= collision_gap the gap event would start
                    # negative and never fire
                    floor = max(symfun.COLLISION_TOL, gap)
                    _require(gaps.min() > floor,
                             f"{key} adjacent gaps must be > {floor:g}, got {gaps.min():.3e}")

        cfg = cls(system, n, t_end, points, rel_tol, abs_tol, gap, **fields)
        _require(np.all(np.diff(cfg.times) > 0), f"t_end {t_end!r} is too small for {points} distinct times")
        return cfg

    def integrator_config(self) -> dynamics.IntegratorConfig:
        return dynamics.IntegratorConfig(
            rel_tol=self.rel_tol, abs_tol=self.abs_tol, collision_gap=self.collision_gap
        )

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.output_points)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; an OSError (a missing directory, say) becomes OutputUnwritable."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OutputUnwritable(f"cannot write output: {exc}") from exc


def _check_output_path(path) -> None:
    """OutputUnwritable if ``path`` is a directory, or its directory is missing or not writable.

    Run before any solver or check, so that such a path is reported at once
    and not after all the work; ``_write_text`` still catches what this
    cannot foresee.
    """
    target = Path(path)
    if target.is_dir():
        raise OutputUnwritable(f"cannot write output: {path} is a directory")
    if not (target.parent.is_dir() and os.access(target.parent, os.W_OK)):
        raise OutputUnwritable(
            f"cannot write output: {path}: directory {target.parent} is missing or not writable"
        )


def _write_csv(path, header: list[str], rows, footer=()) -> None:
    """One line per row of numbers, each as ``_fmt`` writes it."""
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [template % tuple(row) for row in rows]
    _write_text(path, "\n".join([*lines, *footer]) + "\n")


def _write_json(path, payload) -> None:
    """Strict JSON: a NaN or infinity in ``payload`` raises ValueError."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def sidecar_path(out_path) -> Path:
    return Path(str(out_path) + ".diag.json")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_matrix(cfg: RunConfig):
    """Eigenvalue curves of the exact straight-line matrix flow."""
    eigenvalues = _positions_eigen_track(cfg)
    x0, b = symfun.flat_line(cfg.q0, cfg.qdot0)
    x = symfun.flat_line(eigenvalues, np.zeros_like(eigenvalues))[0]
    drift = np.abs(x - (x0 + cfg.times[:, None] * b)).max(axis=1)
    rows = [[t, *eig] for t, eig in zip(cfg.times, eigenvalues)]
    return rows, {"flat_drift": drift.tolist()}


def _integrate(cfg: RunConfig, system: dynamics.OdeSystem, state0) -> dynamics.Trajectory:
    return dynamics.integrate(
        system, state0, cfg.t_end, cfg.integrator_config(), output_points=cfg.output_points
    )


def _trajectory_output(traj: dynamics.Trajectory | None) -> tuple[list, dict]:
    """CSV rows and sidecar diagnostics of a trajectory, none for None.

    A diagnostic that is undefined at a row (NaN) is written as null, so the
    sidecar stays strict JSON.
    """
    if traj is None:
        return [], {}
    rows = np.column_stack([traj.times, traj.rows]).tolist()
    diagnostics = {key: [None if np.isnan(v) else v for v in values.tolist()]
                   for key, values in traj.diagnostics.items()}
    return rows, diagnostics


def run_simulate(config_path, out_path) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = SPECS[cfg.system]
    truncation = None
    try:
        if spec.build is None:
            rows, diagnostics = _simulate_matrix(cfg)
        else:
            rows, diagnostics = _trajectory_output(_integrate(cfg, *spec.build(cfg)))
    except IntegrationError as exc:
        rows, diagnostics = _trajectory_output(exc.partial)
        truncation = {"error": type(exc).__name__, "message": str(exc), "time": exc.time}
    except GoldfishLabError as exc:
        rows, diagnostics = [], {}
        truncation = {"error": type(exc).__name__, "message": str(exc), "time": None}

    _write_csv(out_path, ["t"] + spec.columns(cfg.n), rows)
    _write_json(
        sidecar_path(out_path),
        {
            "system": cfg.system,
            "N": cfg.n,
            "t_end": cfg.t_end,
            "output_points": cfg.output_points,
            "rows_written": len(rows),
            "truncated": truncation is not None,
            "truncation": truncation,
            "diagnostics": diagnostics,
        },
    )
    if truncation is not None:
        print(f"error: {truncation['error']}: {truncation['message']}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(selector: str, seed: int, out_path) -> int:
    from . import verify

    results = verify.run_checks(selector, seed=seed)
    _write_json(out_path, [r.to_dict() for r in results])
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}  residual={_fmt(r.max_residual)}  tol={_fmt(r.tolerance)}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (seed {seed})")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _positions_rk(cfg: RunConfig) -> np.ndarray:
    system, state0 = SPECS[cfg.system].build(cfg)
    traj = _integrate(cfg, system, state0)
    return traj.rows[:, : system.n]


def _goldfish_initial(cfg: RunConfig) -> dynamics.GoldfishState:
    return dynamics.GoldfishState(cfg.q0, cfg.qdot0)


def _geodesic_velocities(cfg: RunConfig) -> dynamics.GoldfishState:
    """The goldfish data of a geodesic config: qdot = J^{-1} J^{-T} pi, with the
    operations of ``geometry.geodesic_rhs``, which would also compute a pidot
    that can overflow where qdot does not."""
    jinv = symfun.jacobian_inverse_unchecked(cfg.q0)
    return dynamics.GoldfishState(cfg.q0, jinv @ (jinv.T @ cfg.p0))


def _flat_exact(initial) -> Callable[[RunConfig], np.ndarray]:
    """The exact goldfish positions of the goldfish data ``initial(cfg)``: the roots of
    1/t + sum_i qdot_i/(q_i - mu) = 0 (``secular.positions``), at least ``symfun.COLLISION_TOL`` apart."""
    def positions(cfg: RunConfig) -> np.ndarray:
        from . import secular

        state0 = initial(cfg)
        origin, offset = secular.positions(state0.q, state0.qdot, cfg.times)
        return secular.separated(state0.q[origin] + offset)

    return positions


def _positions_eigen_track(cfg: RunConfig) -> np.ndarray:
    from . import reduction

    state0 = _goldfish_initial(cfg)
    flow = reduction.rank1_velocity(state0.q, state0.qdot)
    return reduction.eigen_track(flow, cfg.times, gap_tol=cfg.collision_gap)[1]


def _positions_sinh_matrix(cfg: RunConfig) -> np.ndarray:
    from . import hyperbolic

    data = hyperbolic.HyperbolicData(a=cfg.a, a_vec=cfg.a_vec, c_vec=cfg.c_vec)
    return np.vstack([hyperbolic.matrix_positions(data, t) for t in cfg.times])


def _positions_coth_exact(cfg: RunConfig) -> np.ndarray:
    from . import hyperbolic

    data = hyperbolic.HyperbolicData(a=1.0, a_vec=cfg.a_vec, c_vec=cfg.c_vec)
    return hyperbolic.exact_trajectory(data, cfg.times)


# ---------------------------------------------------------------------------
# the systems
# ---------------------------------------------------------------------------

class SystemSpec(NamedTuple):
    """Everything the command line knows about one system."""

    #: initial-data fields a config must hold, besides system, N and t_end
    fields: tuple[str, ...]
    #: (OdeSystem, initial state) for the integrator; None for a system
    #: that ``simulate`` solves without integrating (matrix)
    build: Callable[[RunConfig], tuple] | None
    #: CSV columns after "t", as a function of N
    columns: Callable[[int], list[str]]
    #: compare routes: name -> function from the config to positions per time
    solvers: dict[str, Callable[[RunConfig], np.ndarray]]


def _vector_columns(*names: str) -> Callable[[int], list[str]]:
    return lambda n: [f"{name}{i + 1}" for name in names for i in range(n)]


def _ecm_columns(n: int) -> list[str]:
    iu, ju = upper_indices(n)
    return _vector_columns("q", "p")(n) + [f"f_{i + 1}_{j + 1}" for i, j in zip(iu, ju)]


def _build_geodesic(cfg: RunConfig) -> tuple:
    from .geometry import GeodesicState

    return dynamics.GeodesicSystem(cfg.n), GeodesicState(cfg.q0, cfg.p0)


def _build_sinh(cfg: RunConfig) -> tuple:
    from . import hyperbolic

    return hyperbolic.SinhSystem(cfg.n, cfg.a), dynamics.GoldfishState(cfg.a_vec, cfg.c_vec)


def _build_coth(cfg: RunConfig) -> tuple:
    from . import hyperbolic

    return hyperbolic.CothSystem(cfg.n), dynamics.GoldfishState(cfg.a_vec, cfg.c_vec)


SPECS: dict[str, SystemSpec] = {
    "goldfish": SystemSpec(
        fields=("q0", "qdot0"),
        build=lambda cfg: (dynamics.GoldfishSystem(cfg.n), _goldfish_initial(cfg)),
        columns=_vector_columns("q", "qdot"),
        solvers={
            "rk_integration": _positions_rk,
            "flat_exact": _flat_exact(_goldfish_initial),
            "matrix_eigen": _positions_eigen_track,
        },
    ),
    "ecm": SystemSpec(
        fields=("q0", "p0", "f0"),
        build=lambda cfg: (dynamics.EcmSystem(cfg.n), dynamics.ECMState(cfg.q0, cfg.p0, cfg.f0)),
        columns=_ecm_columns,
        solvers={"rk_integration": _positions_rk},
    ),
    "matrix": SystemSpec(
        fields=("q0", "qdot0"),
        build=None,
        columns=_vector_columns("q"),
        solvers={"eigen_track": _positions_eigen_track,
                 "flat_exact": _flat_exact(_goldfish_initial)},
    ),
    "geodesic": SystemSpec(
        fields=("q0", "p0"),
        build=_build_geodesic,
        columns=_vector_columns("q", "pi"),
        solvers={"rk_integration": _positions_rk, "flat_exact": _flat_exact(_geodesic_velocities)},
    ),
    "hyperbolic-sinh": SystemSpec(
        fields=("a", "a_vec", "c_vec"),
        build=_build_sinh,
        columns=_vector_columns("q", "qdot"),
        solvers={"rk_integration": _positions_rk, "matrix_eigen": _positions_sinh_matrix},
    ),
    "hyperbolic-coth": SystemSpec(
        fields=("a_vec", "c_vec"),
        build=_build_coth,
        columns=_vector_columns("q", "qdot"),
        solvers={
            "rk_integration": _positions_rk,
            # two names of one route, kept for the callers that pass either
            "z_eigen": _positions_coth_exact,
            "s_exact": _positions_coth_exact,
        },
    ),
}
SYSTEMS = tuple(SPECS)


def run_compare(config_path, solvers: list[str], out_path) -> int:
    try:
        cfg = load_config(config_path)
        available = SPECS[cfg.system].solvers
        bad = [s for s in solvers if s not in available]
        _require(not bad, f"solvers {bad} not applicable to system {cfg.system!r}; "
                 f"available: {sorted(available)}")
        _require(solvers, "need at least one solver")
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = {}  # one per route function: two names of one route share one solve
    timings = []
    try:
        for name in solvers:
            started = time.perf_counter()
            route = available[name]
            if route not in results:
                results[route] = route(cfg)
            timings.append((name, time.perf_counter() - started))
    except GoldfishLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    positions = {name: results[available[name]] for name in solvers}

    pairs = [(a, b) for k, a in enumerate(solvers) for b in solvers[k + 1 :]]
    header = ["t"] + [f"dmax_{a}_vs_{b}" for a, b in pairs]
    rows = [
        [t] + [float(np.abs(positions[a][k] - positions[b][k]).max()) for a, b in pairs]
        for k, t in enumerate(cfg.times)
    ]
    footer = ["solver,seconds"] + [f"{name},{_fmt(seconds)}" for name, seconds in timings]
    _write_csv(out_path, header, rows, footer)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _VerifySelectors:
    """The ``verify`` selectors, "all" and ``verify.SUITES``, imported on first use."""

    def _names(self) -> tuple[str, ...]:
        from .verify import SUITES

        return ("all",) + SUITES

    def __contains__(self, name) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


def _seed(text: str) -> int:
    """A verify seed: a nonnegative integer, as the random generators require."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldfishlab",
        description="Simulate, verify and compare goldfish-family integrable flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one system and write a CSV trajectory")
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument("--out", required=True, help="output CSV path (sidecar: <out>.diag.json)")

    p_ver = sub.add_parser("verify", help="run property-check suites and write a JSON report")
    # set after add_argument, which would read the choices: the other
    # commands never read them and so never import verify
    p_ver.add_argument("selector").choices = _VerifySelectors()
    p_ver.add_argument("--seed", type=_seed, default=42)
    p_ver.add_argument("--out", required=True, help="output JSON report path")

    p_cmp = sub.add_parser("compare", help="run several solvers and tabulate discrepancies")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--solvers", required=True, help="comma-separated solver names")
    p_cmp.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_path(args.out)
        if args.command == "simulate":
            return run_simulate(args.config, args.out)
        if args.command == "verify":
            return run_verify(args.selector, args.seed, args.out)
        if args.command == "compare":
            return run_compare(args.config, [s for s in args.solvers.split(",") if s], args.out)
    except OutputUnwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
