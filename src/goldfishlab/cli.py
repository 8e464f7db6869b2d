"""Command-line front end: simulate, verify, compare.

Exit codes: 0 success, 1 verification found a failing check, 2 bad usage or
invalid configuration, 3 a solver stopped early (collision or step-size
failure; partial trajectory rows are still written, with a truncation note in
the diagnostics sidecar).

All numeric CSV fields carry 17 significant digits with '.' decimal separator
and LF line endings, so identical configurations reproduce byte-identical
data.  Timing fields (check runtimes, solver wall-clocks) are the one
documented exception to byte-level reproducibility.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, geometry, hyperbolic, reduction, symfun, verify
from .errors import ConfigInvalid, GoldfishLabError, IntegrationError

SYSTEMS = ("goldfish", "ecm", "matrix", "geodesic", "hyperbolic-sinh", "hyperbolic-coth")

_REQUIRED_FIELDS = {
    "goldfish": ("q0", "qdot0"),
    "ecm": ("q0", "p0", "f0"),
    "matrix": ("q0", "qdot0"),
    "geodesic": ("q0", "p0"),
    "hyperbolic-sinh": ("a", "a_vec", "c_vec"),
    "hyperbolic-coth": ("a_vec", "c_vec"),
}

_OPTIONAL_DEFAULTS = {
    "output_points": 101,
    "rel_tol": 1e-10,
    "abs_tol": 1e-12,
    "collision_gap": 1e-8,
    "seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated simulation request parsed from a JSON document."""

    system: str
    n: int
    t_end: float
    output_points: int
    rel_tol: float
    abs_tol: float
    collision_gap: float
    seed: int
    q0: np.ndarray | None = None
    qdot0: np.ndarray | None = None
    p0: np.ndarray | None = None
    f0: np.ndarray | None = None
    a: float | None = None
    a_vec: np.ndarray | None = None
    c_vec: np.ndarray | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("config must be a JSON object")
        system = raw.get("system")
        if system not in SYSTEMS:
            raise ConfigInvalid(f"system must be one of {SYSTEMS}, got {system!r}")
        required = ("system", "N", "t_end") + _REQUIRED_FIELDS[system]
        allowed = set(required) | set(_OPTIONAL_DEFAULTS)
        missing = [key for key in required if key not in raw]
        if missing:
            raise ConfigInvalid(f"missing required fields: {missing}")
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ConfigInvalid(f"unknown fields: {unknown}")

        try:
            n = int(raw["N"])
            t_end = float(raw["t_end"])
            opts = {key: type(dflt)(raw.get(key, dflt)) for key, dflt in _OPTIONAL_DEFAULTS.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"malformed scalar field: {exc}") from exc
        if n < 1:
            raise ConfigInvalid("N must be >= 1")
        if t_end <= 0:
            raise ConfigInvalid("t_end must be > 0")
        if opts["output_points"] < 2:
            raise ConfigInvalid("output_points must be >= 2")

        def vector(key):
            value = np.asarray(raw[key], dtype=float)
            if value.shape != (n,):
                raise ConfigInvalid(f"{key} must be a length-{n} vector")
            if not np.all(np.isfinite(value)):
                raise ConfigInvalid(f"{key} must be finite")
            return value

        fields: dict = {}
        for key in _REQUIRED_FIELDS[system]:
            if key == "a":
                fields["a"] = float(raw["a"])
                if fields["a"] == 0:
                    raise ConfigInvalid("a must be nonzero")
            elif key == "f0":
                f0 = np.asarray(raw["f0"], dtype=float)
                if f0.shape != (n, n):
                    raise ConfigInvalid(f"f0 must be an {n}x{n} matrix")
                if not np.array_equal(f0, -f0.T):
                    raise ConfigInvalid("f0 must be exactly antisymmetric")
                fields["f0"] = f0
            else:
                fields[key] = vector(key)

        for key in ("q0", "a_vec"):
            if key in fields and n > 1 and np.any(np.diff(fields[key]) <= 0):
                raise ConfigInvalid(f"{key} must be strictly increasing")

        return cls(system=system, n=n, t_end=t_end, **opts, **fields)

    def integrator_config(self) -> dynamics.IntegratorConfig:
        return dynamics.IntegratorConfig(
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            collision_gap=self.collision_gap,
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


def _write_csv(path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def sidecar_path(out_path) -> Path:
    return Path(str(out_path) + ".diag.json")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _initial_state(cfg: RunConfig):
    if cfg.system == "goldfish":
        return dynamics.GoldfishState(cfg.q0, cfg.qdot0)
    if cfg.system == "ecm":
        return dynamics.ECMState(cfg.q0, cfg.p0, cfg.f0)
    if cfg.system == "geodesic":
        return geometry.GeodesicState(cfg.q0, cfg.p0)
    if cfg.system == "hyperbolic-sinh" or cfg.system == "hyperbolic-coth":
        return hyperbolic.HyperbolicState(cfg.a_vec, cfg.c_vec)
    raise ConfigInvalid(f"no integrable state for system {cfg.system!r}")


def _ode_system(cfg: RunConfig):
    if cfg.system == "hyperbolic-sinh":
        return hyperbolic.SinhSystem(cfg.n, cfg.a)
    if cfg.system == "hyperbolic-coth":
        return hyperbolic.CothSystem(cfg.n)
    return cfg.system


def _state_row(cfg: RunConfig, state) -> list[float]:
    if cfg.system == "goldfish":
        return [*state.q, *state.qdot]
    if cfg.system == "ecm":
        return [*state.q, *state.p, *state.f_upper]
    if cfg.system == "geodesic":
        return [*state.q, *state.pi]
    return [*state.lam, *state.lamdot]


def _columns(cfg: RunConfig) -> list[str]:
    q_cols = [f"q{i + 1}" for i in range(cfg.n)]
    if cfg.system == "goldfish" or cfg.system.startswith("hyperbolic"):
        return ["t"] + q_cols + [f"qdot{i + 1}" for i in range(cfg.n)]
    if cfg.system == "ecm":
        iu, ju = np.triu_indices(cfg.n, 1)
        return (
            ["t"]
            + q_cols
            + [f"p{i + 1}" for i in range(cfg.n)]
            + [f"f_{i + 1}_{j + 1}" for i, j in zip(iu, ju)]
        )
    if cfg.system == "geodesic":
        return ["t"] + q_cols + [f"pi{i + 1}" for i in range(cfg.n)]
    return ["t"] + q_cols  # matrix: eigenvalue columns


def _simulate_matrix(cfg: RunConfig):
    """Eigenvalue curves of the exact straight-line matrix flow."""
    flow = reduction.rank1_velocity(cfg.q0, cfg.qdot0)
    _, eigenvalues = reduction.eigen_track(flow, cfg.times, gap_tol=cfg.collision_gap)
    state0 = dynamics.GoldfishState(cfg.q0, cfg.qdot0)
    x0 = symfun.elem_sym_coords(cfg.q0)
    b = dynamics.conserved_bn(state0)
    drift = []
    for t, eig in zip(cfg.times, eigenvalues):
        drift.append(float(np.abs(symfun.elem_sym_coords(eig) - (x0 + t * b)).max()))
    rows = [[t, *eig] for t, eig in zip(cfg.times, eigenvalues)]
    return rows, {"flat_drift": drift}


def run_simulate(config_path, out_path) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    truncation = None
    if cfg.system == "matrix":
        try:
            rows, diagnostics = _simulate_matrix(cfg)
        except GoldfishLabError as exc:
            rows, diagnostics = [], {}
            truncation = {"error": type(exc).__name__, "message": str(exc), "time": None}
    else:
        try:
            traj = dynamics.integrate(
                _ode_system(cfg),
                _initial_state(cfg),
                cfg.t_end,
                cfg.integrator_config(),
                output_points=cfg.output_points,
            )
        except IntegrationError as exc:
            traj = exc.partial
            truncation = {
                "error": type(exc).__name__,
                "message": str(exc),
                "time": exc.time,
            }
        except GoldfishLabError as exc:
            traj = None
            truncation = {"error": type(exc).__name__, "message": str(exc), "time": None}
        if traj is not None:
            rows = [[t, *_state_row(cfg, s)] for t, s in zip(traj.times, traj.states)]
            diagnostics = {k: [float(v) for v in vals] for k, vals in traj.diagnostics.items()}
        else:
            rows, diagnostics = [], {}

    _write_csv(out_path, _columns(cfg), rows)
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

def _goldfish_like_initial(cfg: RunConfig) -> dynamics.GoldfishState:
    if cfg.system in ("goldfish", "matrix"):
        return dynamics.GoldfishState(cfg.q0, cfg.qdot0)
    if cfg.system == "geodesic":
        qdot0 = geometry.inverse_metric(cfg.q0) @ cfg.p0
        return dynamics.GoldfishState(cfg.q0, qdot0)
    raise ConfigInvalid(f"no flat-coordinate data for system {cfg.system!r}")


def _positions_rk(cfg: RunConfig) -> np.ndarray:
    traj = dynamics.integrate(
        _ode_system(cfg),
        _initial_state(cfg),
        cfg.t_end,
        cfg.integrator_config(),
        output_points=cfg.output_points,
    )
    return np.vstack([_state_row(cfg, s)[: cfg.n] for s in traj.states])


def _positions_flat_exact(cfg: RunConfig) -> np.ndarray:
    return dynamics.goldfish_exact_trajectory(_goldfish_like_initial(cfg), cfg.times)


def _positions_matrix_eigen(cfg: RunConfig) -> np.ndarray:
    if cfg.system == "hyperbolic-sinh":
        data = hyperbolic.HyperbolicData(a=cfg.a, a_vec=cfg.a_vec, c_vec=cfg.c_vec)
        out = []
        for t in cfg.times:
            eigs = np.sort(np.linalg.eigvalsh(hyperbolic.matrix_geodesic(data, t)))
            out.append(np.log(eigs) / (2.0 * cfg.a))
        return np.vstack(out)
    state0 = _goldfish_like_initial(cfg)
    flow = reduction.rank1_velocity(state0.q, state0.qdot)
    _, eigenvalues = reduction.eigen_track(flow, cfg.times)
    return eigenvalues


def _positions_z_eigen(cfg: RunConfig) -> np.ndarray:
    data = hyperbolic.HyperbolicData(a=1.0, a_vec=cfg.a_vec, c_vec=cfg.c_vec)
    return np.vstack([hyperbolic.z_eigen_solution(data, t) for t in cfg.times])


def _positions_s_exact(cfg: RunConfig) -> np.ndarray:
    data = hyperbolic.HyperbolicData(a=1.0, a_vec=cfg.a_vec, c_vec=cfg.c_vec)
    return hyperbolic.s_exact_trajectory(data, cfg.times)


_SOLVERS = {
    "goldfish": {
        "rk_integration": _positions_rk,
        "flat_exact": _positions_flat_exact,
        "matrix_eigen": _positions_matrix_eigen,
    },
    "ecm": {"rk_integration": _positions_rk},
    "geodesic": {
        "rk_integration": _positions_rk,
        "flat_exact": _positions_flat_exact,
    },
    "matrix": {
        "eigen_track": _positions_matrix_eigen,
        "flat_exact": _positions_flat_exact,
    },
    "hyperbolic-sinh": {
        "rk_integration": _positions_rk,
        "matrix_eigen": _positions_matrix_eigen,
    },
    "hyperbolic-coth": {
        "rk_integration": _positions_rk,
        "z_eigen": _positions_z_eigen,
        "s_exact": _positions_s_exact,
    },
}


def run_compare(config_path, solvers: list[str], out_path) -> int:
    try:
        cfg = load_config(config_path)
        available = _SOLVERS[cfg.system]
        bad = [s for s in solvers if s not in available]
        if bad:
            raise ConfigInvalid(
                f"solvers {bad} not applicable to system {cfg.system!r}; "
                f"available: {sorted(available)}"
            )
        if not solvers:
            raise ConfigInvalid("need at least one solver")
    except ConfigInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    positions = {}
    timings = []
    try:
        for name in solvers:
            started = time.perf_counter()
            positions[name] = available[name](cfg)
            timings.append((name, time.perf_counter() - started))
    except GoldfishLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    pairs = [(a, b) for k, a in enumerate(solvers) for b in solvers[k + 1 :]]
    header = ["t"] + [f"dmax_{a}_vs_{b}" for a, b in pairs]
    rows = []
    for k, t in enumerate(cfg.times):
        row = [t]
        for a, b in pairs:
            row.append(float(np.abs(positions[a][k] - positions[b][k]).max()))
        rows.append(row)

    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines.append("solver,seconds")
    lines += [f"{name},{_fmt(seconds)}" for name, seconds in timings]
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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
    p_ver.add_argument("selector", choices=("all",) + verify.SUITES)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--out", required=True, help="output JSON report path")

    p_cmp = sub.add_parser("compare", help="run several solvers and tabulate discrepancies")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--solvers", required=True, help="comma-separated solver names")
    p_cmp.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return run_simulate(args.config, args.out)
    if args.command == "verify":
        return run_verify(args.selector, args.seed, args.out)
    if args.command == "compare":
        return run_compare(args.config, [s for s in args.solvers.split(",") if s], args.out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
