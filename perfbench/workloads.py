"""Seeded inputs, operations and output checks for the benchmark workloads.

Every operation is one ``goldfishlab`` command line.  The program sees only
the config files written here; the expected answers are computed here from
the same seeded data, by code that shares nothing with the program.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Integrator tolerances written into every generated config.
REL_TOL, ABS_TOL = 1e-10, 1e-12
#: Stated accuracy every solver route must reach against its reference:
#: 100 x the integrator's relative tolerance, on positions of order 1.
ROUTE_TOL = 100 * REL_TOL
T_END = 0.3
#: Entries the seed commit's ``verify all`` report holds; fewer is a failure.
VERIFY_CHECKS = 46

#: Solver sets per system, reference route first: every other route is
#: checked against it through the ``dmax_<reference>_vs_<route>`` column.
SOLVER_SETS = {
    "goldfish": ("matrix_eigen", "rk_integration", "flat_exact"),
    "ecm": ("rk_integration",),
    "matrix": ("eigen_track", "flat_exact"),
    "geodesic": ("flat_exact", "rk_integration"),
    "hyperbolic-sinh": ("matrix_eigen", "rk_integration"),
    "hyperbolic-coth": ("z_eigen", "rk_integration", "s_exact"),
}


@dataclass
class Outcome:
    """What the check of one operation found."""

    ok: bool  # the operation delivered a result that passed its check
    clean: bool  # if not ok: the failure is documented output, not a crash or malformed file
    rows: int  # output rows that passed: time points x routes, or report entries
    err: float  # worst error / tolerance over the checked values
    reason: str
    digest: str  # output with the documented timing fields masked

    def signature(self) -> list:
        """What must repeat exactly between runs of the same code and inputs."""
        return [self.ok, self.rows, repr(self.err), self.digest]


@dataclass
class Op:
    key: str
    argv: list[str]
    check: Callable[[int, str, str], Outcome]  # (exit code, stdout, stderr) -> Outcome


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def secular_eigs(d: np.ndarray, w2: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Eigenvalues of diag(d) + g w w^T for each g in ``gamma``, shape (len(gamma), N).

    ``d`` ascending, ``w2 = w**2 > 0``, ``g >= 0``.  Root k of the secular
    equation 1 + g sum_i w2_i / (d_i - mu) = 0 lies in (d_k, d_{k+1}); it is
    found by bisection on the offset mu - d_k, so small gaps keep their
    relative accuracy where a dense eigensolver loses it.
    """
    g = np.asarray(gamma, dtype=float)[:, None]
    width = np.append(np.diff(d), 0.0)[None, :] + 0.0 * g
    width[:, -1] = g[:, 0] * w2.sum()
    lo, hi = np.zeros_like(width), width
    delta = d[None, :] - d[:, None]  # delta[k, i] = d_i - d_k
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-width intervals at g = 0
        for _ in range(64):
            tau = 0.5 * (lo + hi)
            f = 1.0 + g * np.sum(w2 / (delta[None] - tau[:, :, None]), axis=2)
            below = f < 0
            lo, hi = np.where(below, tau, lo), np.where(below, hi, tau)
    return d[None, :] + 0.5 * (lo + hi)


def goldfish_positions(q0, qdot0, times) -> np.ndarray:
    """Calogero's solution: eigenvalues of diag(q0) + t v v^T, v = sqrt(qdot0)."""
    return secular_eigs(q0, qdot0, times)


def coth_positions(a_vec, c_vec, times) -> np.ndarray:
    """Eigenvalues of Z(t) = e^{2 Lambda0} e^{2 t 1 c^T}, symmetrized: q = ln(mu) / 2."""
    z = np.exp(2.0 * a_vec)
    p = float(np.sum(c_vec))
    return 0.5 * np.log(secular_eigs(z, c_vec * z, np.expm1(2.0 * p * times) / p))


def sinh_positions(a, a_vec, c_vec, times) -> np.ndarray:
    """Eigenvalues of e^{a Lambda0} e^{2 t V0} e^{a Lambda0}: q = ln(mu) / (2 a)."""
    v0 = a * np.sqrt(np.outer(c_vec, c_vec)) / np.cosh(a * (a_vec[:, None] - a_vec[None, :]))
    vals, vecs = np.linalg.eigh(v0)
    left = np.exp(a * a_vec)
    out = []
    for t in times:
        middle = (vecs * np.exp(2.0 * t * vals)) @ vecs.T
        out.append(np.log(np.linalg.eigvalsh(left[:, None] * middle * left[None, :])) / (2.0 * a))
    return np.array(out)


def _elementary(values: np.ndarray) -> np.ndarray:
    e = np.zeros(values.size + 1)
    e[0] = 1.0
    for v in values:
        e[1:] = e[1:] + v * e[:-1]
    return e


def flat_jacobian(q: np.ndarray) -> np.ndarray:
    """d e_n(q) / d q_j = e_{n-1} of q with q_j removed."""
    n = q.size
    return np.column_stack([_elementary(np.delete(q, j))[:n] for j in range(n)])


# ---------------------------------------------------------------------------
# seeded configurations
# ---------------------------------------------------------------------------

def draw_positions(rng, n: int, lo: float = -2.0, hi: float = 2.0) -> np.ndarray:
    """Jittered grid on [lo, hi]: adjacent gaps are at least 0.4 (hi - lo) / n."""
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n))


def make_config(system: str, rng, n: int, points: int) -> tuple[dict, np.ndarray]:
    """A config on which every route of ``system`` is defined, with its exact positions.

    Velocities are positive, so each flow is the eigenvalue motion of a
    diagonal-plus-positive matrix and no collision occurs for t > 0.  The
    spin and geodesic data sit on the goldfish flow of the same (q0, qdot0).
    """
    q0 = draw_positions(rng, n)
    v = rng.uniform(0.5, 1.5, n)
    times = np.linspace(0.0, T_END, points)
    raw = {"system": system, "N": n, "t_end": T_END, "output_points": points,
           "rel_tol": REL_TOL, "abs_tol": ABS_TOL}
    if system in ("goldfish", "matrix"):
        raw.update(q0=q0.tolist(), qdot0=v.tolist())
    elif system == "ecm":
        upper = np.triu(-(q0[:, None] - q0[None, :]) * np.sqrt(np.outer(v, v)), 1)
        raw.update(q0=q0.tolist(), p0=v.tolist(), f0=(upper - upper.T).tolist())
    elif system == "geodesic":
        jac = flat_jacobian(q0)
        raw.update(q0=q0.tolist(), p0=(jac.T @ (jac @ v)).tolist())
    elif system == "hyperbolic-sinh":
        a = 0.5
        raw.update(a=a, a_vec=q0.tolist(), c_vec=v.tolist())
        return raw, sinh_positions(a, q0, v, times)
    elif system == "hyperbolic-coth":
        raw.update(a_vec=q0.tolist(), c_vec=v.tolist())
        return raw, coth_positions(q0, v, times)
    else:
        raise ValueError(f"unknown system {system!r}")
    return raw, goldfish_positions(q0, v, times)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def _failed(rc: int, stderr: str, reason: str) -> Outcome:
    clean = rc == 3 and "Traceback" not in stderr and "error:" in stderr
    return Outcome(False, clean, 0, math.nan, reason, "")


def _read_table(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]], dtype=float)
    if rows.shape != (len(lines) - 1, len(header)):
        raise ValueError("ragged table")
    return header, rows


def check_times(rows: np.ndarray, points: int) -> str | None:
    if rows.shape[0] != points:
        return f"{rows.shape[0]} rows, expected {points}"
    if not np.all(np.isfinite(rows)):
        return "non-finite value"
    if np.abs(rows[:, 0] - np.linspace(0.0, T_END, points)).max() > 1e-15:
        return "time column is not the output grid"
    return None


def simulate_op(key: str, config: Path, out: Path, exact: np.ndarray) -> Op:
    """``simulate``: exit 0, ``output_points`` finite rows, positions on the exact solution."""
    points, n = exact.shape

    def check(rc: int, stdout: str, stderr: str) -> Outcome:
        if rc != 0:
            return _failed(rc, stderr, f"exit {rc}: {stderr.strip()[-200:]}")
        try:
            csv, side = out.read_text(), json.loads(Path(str(out) + ".diag.json").read_text())
            header, rows = _read_table(csv)
        except (OSError, ValueError) as exc:
            return Outcome(False, False, 0, math.nan, f"unreadable output: {exc}", "")
        digest = _digest(csv, json.dumps(side, sort_keys=True))
        bad = check_times(rows, points)
        if bad is None and (side.get("rows_written") != points or side.get("truncated")):
            bad = "sidecar reports a truncated run"
        if bad is None and header[1 : n + 1] != [f"q{i + 1}" for i in range(n)]:
            bad = "position columns missing"
        if bad:
            return Outcome(False, False, 0, math.nan, bad, digest)
        err = float(np.abs(rows[:, 1 : n + 1] - exact).max()) / ROUTE_TOL
        if err > 1.0:
            return Outcome(False, True, 0, err, f"positions off by {err * ROUTE_TOL:.3g}", digest)
        return Outcome(True, True, points, err, "", digest)

    return Op(key, ["simulate", "--config", str(config), "--out", str(out)], check)


def compare_op(key: str, config: Path, out: Path, solvers: tuple[str, ...], points: int) -> Op:
    """``compare``: exit 0, one row per output time, every route within ROUTE_TOL of the reference."""
    pairs = [(a, b) for k, a in enumerate(solvers) for b in solvers[k + 1 :]]

    def check(rc: int, stdout: str, stderr: str) -> Outcome:
        if rc != 0:
            return _failed(rc, stderr, f"exit {rc}: {stderr.strip()[-200:]}")
        try:
            text = out.read_text()
            table, _, timing = text.partition("solver,seconds\n")
            header, rows = _read_table(table)
        except (OSError, ValueError) as exc:
            return Outcome(False, False, 0, math.nan, f"unreadable output: {exc}", "")
        digest = _digest(table)  # the solver,seconds block is the documented timing field
        bad = check_times(rows, points)
        if bad is None and header != ["t"] + [f"dmax_{a}_vs_{b}" for a, b in pairs]:
            bad = f"unexpected header {header}"
        if bad is None and [line.split(",")[0] for line in timing.split("\n") if line] != list(solvers):
            bad = "solver,seconds block does not list every solver"
        if bad:
            return Outcome(False, False, 0, math.nan, bad, digest)
        worst = {b: float(rows[:, 1 + k].max()) for k, (a, b) in enumerate(pairs) if a == solvers[0]}
        err = max(worst.values(), default=0.0) / ROUTE_TOL
        if err > 1.0:
            off = ", ".join(f"{b} {d:.3g}" for b, d in worst.items() if d > ROUTE_TOL)
            return Outcome(False, True, 0, err, f"off the {solvers[0]} reference: {off}", digest)
        return Outcome(True, True, points * len(solvers), err, "", digest)

    argv = ["compare", "--config", str(config), "--solvers", ",".join(solvers), "--out", str(out)]
    return Op(key, argv, check)


def verify_op(key: str, seed: int, out: Path) -> Op:
    """``verify all``: exit 0, at least VERIFY_CHECKS report entries, every one passing.

    A report that lists failing checks under exit 1 is the documented way to
    fail; its passing entries still count as rows.
    """

    def check(rc: int, stdout: str, stderr: str) -> Outcome:
        try:
            report = json.loads(out.read_text())
            masked = [{k: v for k, v in entry.items() if k != "seconds"} for entry in report]
            failing = [e["name"] for e in report if not e["pass"]]
            names = {e["name"] for e in report}
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            return Outcome(False, False, 0, math.nan, f"unreadable report: {exc}", "")
        digest = _digest(json.dumps(masked, sort_keys=True))
        passed = len(report) - len(failing)
        if len(report) < VERIFY_CHECKS or len(names) != len(report):
            return Outcome(False, False, 0, math.nan, f"{len(report)} entries, {len(names)} names", digest)
        if rc != (1 if failing else 0):
            return Outcome(False, False, 0, math.nan, f"exit {rc} with failing checks {failing}", digest)
        if stdout.rstrip("\n").rsplit("\n", 1)[-1] != f"{passed}/{len(report)} checks passed (seed {seed})":
            return Outcome(False, False, 0, math.nan, "summary line disagrees with the report", digest)
        # "below" checks pass with residual <= tolerance; negative controls pass above it
        below = [e["max_residual"] / e["tolerance"] for e in report
                 if e["tolerance"] > 0 and (e["max_residual"] <= e["tolerance"]) == e["pass"]]
        err = max(below, default=0.0)
        if failing:
            return Outcome(False, True, passed, err, f"failing checks {failing}", digest)
        return Outcome(True, True, passed, err, "", digest)

    return Op(key, ["verify", "all", "--seed", str(seed), "--out", str(out)], check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _config_ops(work: Path, name: str, system: str, rng, n: int, points: int) -> list[Op]:
    raw, exact = make_config(system, rng, n, points)
    config = work / f"{name}.json"
    config.write_text(json.dumps(raw))
    return [
        simulate_op(f"simulate:{system}:N{n}", config, work / f"{name}.sim.csv", exact),
        compare_op(f"compare:{system}:N{n}", config, work / f"{name}.cmp.csv", SOLVER_SETS[system], points),
    ]


def verify_suite(seed: int, work: Path) -> list[Op]:
    return [verify_op("verify:all", seed, work / "verify.json")]


def cli_cold(seed: int, work: Path) -> list[Op]:
    """One simulate per system and one compare per solver set, N in 3..6, 101 points."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k, system in enumerate(SOLVER_SETS):
        ops += _config_ops(work, f"cold{k}", system, rng, int(rng.integers(3, 7)), 101)
    return [ops[i] for i in rng.permutation(len(ops))]


def large_n(seed: int, work: Path) -> list[Op]:
    """Goldfish at N = 16, 32, 64 and coth at N = 16, 32, 201 points, smallest first."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for system, n in (("goldfish", 16), ("hyperbolic-coth", 16), ("goldfish", 32),
                      ("hyperbolic-coth", 32), ("goldfish", 64)):
        ops += _config_ops(work, f"large-{system}-{n}", system, rng, n, 201)
    return ops


WORKLOADS = {"verify-suite": verify_suite, "cli-cold": cli_cold, "large-n": large_n}
