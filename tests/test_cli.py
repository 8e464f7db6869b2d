import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import SYSTEM_CONFIGS
from goldfishlab import cli, dynamics, secular


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def strict_json(path):
    """The JSON document at ``path``; NaN and Infinity, which JSON lacks, raise ValueError."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


GOLDFISH = {
    "system": "goldfish",
    "N": 2,
    "q0": [0.0, 1.0],
    "qdot0": [1.0, 1.0],
    "t_end": 1.0,
    "output_points": 11,
}


# velocities that sum to P = 0 (the second to -1.1e-16), where the exact coth
# routes run on the clock gamma = 2t; the pair meets at t_c = 0.231
COTH_ZERO_P = [
    {"system": "hyperbolic-coth", "N": 2, "a_vec": [0, 1], "c_vec": [1, -1], "t_end": 0.1, "rel_tol": 1e-12},
    {"system": "hyperbolic-coth", "N": 3, "a_vec": [-0.4, 0.3, 1.2], "c_vec": [0.7, -1.1, 0.4], "t_end": 0.1,
     "rel_tol": 1e-12},
]

# both coth solver names stay public and name the one exact route: the process
# tests run each name, so a name that stops reaching the route shows
COTH_NAMES = ("z_eigen", "s_exact")


def overflow(condition):
    """The one stderr line of an exact route whose data leave the secular domain by ``condition``."""
    return f"error: SecularOutOfDomain: {condition}\n"


# data whose secular data overflow: gamma at t = 100, z at a = 355, and
# t sum(|qdot0|) of the goldfish pair; each exited 1 with a traceback from a
# per-point route before the domain test covered both branches.  A subnormal
# t, whose 1/t overflows, exited 1 from the kernel under -W error
MIXED_SIGN_OVERFLOW = [
    ({"system": "hyperbolic-coth", "N": 2, "a_vec": [0, 1], "c_vec": [5, -0.001], "t_end": 100,
      "output_points": 2}, COTH_NAMES, "gamma must be finite and >= 0"),
    ({"system": "hyperbolic-coth", "N": 2, "a_vec": [0, 355], "c_vec": [1, -0.5], "t_end": 0.001},
     COTH_NAMES, "poles d must be finite and strictly increasing"),
    ({"system": "goldfish", "N": 2, "q0": [0, 1e300], "qdot0": [1, -1e300], "t_end": 1e10},
     ("flat_exact",), "d[-1] - d[0] + gamma sum(|w|) must be finite"),
    ({"system": "goldfish", "N": 2, "q0": [0, 1], "qdot0": [1, 1], "t_end": 1e-310, "output_points": 3},
     ("flat_exact",), "1/gamma must be finite for every gamma > 0"),
]


def mixed_sign_goldfish(n, seed):
    """Goldfish data on [-n/4, n/4] with speeds in [0.05, 0.15], every third negative, to t = 0.05."""
    rng = np.random.default_rng([n, seed])
    q0 = np.sort(rng.uniform(-n / 4, n / 4, n))
    qdot0 = rng.uniform(0.05, 0.15, n)
    qdot0[::3] *= -1
    return {"system": "goldfish", "N": n, "q0": q0.tolist(), "qdot0": qdot0.tolist(), "t_end": 0.05,
            "output_points": 11, "rel_tol": 1e-12, "abs_tol": 1e-12}


def mixed_sign_coth(a_vec, c_vec):
    return {"system": "hyperbolic-coth", "N": len(a_vec), "a_vec": a_vec, "c_vec": c_vec, "t_end": 0.01,
            "output_points": 11, "rel_tol": 1e-12, "abs_tol": 1e-12}


# mixed-sign data on which the exact routes were wrong with exit 0 (goldfish
# at N = 24 and 32 by 2.6e-3 and 1.0e-2, coth z_eigen on graded poles by
# 7.3e-5) or raised a spurious ComplexRoots (N = 64)
MIXED_SIGN_ROUTES = [
    (mixed_sign_goldfish(24, 3), "rk_integration,flat_exact"),
    (mixed_sign_goldfish(32, 2), "rk_integration,flat_exact"),
    (mixed_sign_goldfish(64, 0), "rk_integration,flat_exact"),
    (mixed_sign_coth([-9.5, -6, -2.5, 1, 4.5, 8], [1, -0.8, 1.1, -0.6, 0.9, -1.2]), "rk_integration,z_eigen,s_exact"),
    (mixed_sign_coth([-10, 0, 10], [1, -1, 1]), "rk_integration,z_eigen,s_exact"),
]

# every exact route past a pair's collision: goldfish, matrix and geodesic
# data whose flat line meets t_c = 1/4 (q0 [0, 1], qdot0 [1, -1]), and the coth
# pair at P = 0 (t_c = 0.231), run by each name and with all its solvers
PAST_COLLISION = [
    ({**GOLDFISH, "qdot0": [1, -1], "t_end": 0.3}, "flat_exact"),
    ({**GOLDFISH, "qdot0": [1, -1], "t_end": 1}, "flat_exact"),
    ({**GOLDFISH, "system": "matrix", "qdot0": [1, -1], "t_end": 1}, "flat_exact"),
    ({"system": "geodesic", "N": 2, "q0": [0, 1], "p0": [1, 0], "t_end": 1}, "flat_exact"),
    ({**COTH_ZERO_P[0], "t_end": 1}, "z_eigen"),
    ({**COTH_ZERO_P[0], "t_end": 1}, "s_exact"),
    ({**COTH_ZERO_P[0], "t_end": 1}, "z_eigen,s_exact,rk_integration"),
]


# runs that end in a collision, with the meeting time t_c from the flat
# coordinates and the tolerance on the reported stop time.  Pairs that meet
# with unbounded speed (goldfish, coth at P = 0, geodesic) end in a step-size
# underflow with the pair closing; pairs in free motion (a particle at rest
# passed by one at speed 3 in the sinh and coth flows, and the spin system
# with f = 0) end at the gap event, 1e-8 / (closing speed) before t_c
COLLISIONS = {
    "goldfish": ({"system": "goldfish", "N": 2, "q0": [0, 1], "qdot0": [1, -1], "t_end": 1},
                 0.25, 1e-9),
    # z = e^{2q}: s_1 = 1 + e^2 + (2 - 2 e^2) t and s_2 = e^2 meet s_1^2 = 4 s_2
    "coth": ({"system": "hyperbolic-coth", "N": 2, "a_vec": [0, 1], "c_vec": [1, -1], "t_end": 1},
             (np.e - 1) / (2 * (np.e + 1)), 1e-9),
    "sinh-crossing": ({"system": "hyperbolic-sinh", "N": 2, "a": 0.5, "a_vec": [0.4, 1.11],
                       "c_vec": [0, -3], "t_end": 2, "output_points": 11}, 0.71 / 3, 1e-8),
    "coth-crossing": ({"system": "hyperbolic-coth", "N": 2, "a_vec": [0.4, 1.11], "c_vec": [0, -3],
                       "t_end": 2, "output_points": 11}, 0.71 / 3, 1e-8),
    # P = J^{-T} pi = (-3, 12): x = (0.5 - 3t, 12t) meets x_1^2 = 4 x_2
    "geodesic": ({"system": "geodesic", "N": 2, "q0": [0, 0.5], "p0": [3, -3], "t_end": 2},
                 (51 - np.sqrt(2592)) / 18, 1e-9),
    "ecm-free": ({"system": "ecm", "N": 2, "q0": [0, 1], "p0": [1, -1], "f0": [[0, 0], [0, 0]],
                  "t_end": 2, "output_points": 21}, 0.5, 1e-8),
}

# runs that reach t_end with a dense-output grid row at or below the collision
# tolerance, where no step end fired the gap event: the free spin pair stopped
# where its gap is 1e-8, and crossings run with collision_gap 0
_ECM_FREE = {"system": "ecm", "N": 2, "q0": [0, 1], "p0": [1, -1], "f0": [[0, 0], [0, 0]]}
_CROSSING = {"N": 2, "a_vec": [0.4, 1.11], "c_vec": [0, -3], "t_end": 0.23666666666666666,
             "collision_gap": 0}
COMPLETED_COLLISIONS = {
    "ecm-gap-at-tolerance": {**_ECM_FREE, "t_end": 0.4999999950000001},
    "sinh-crossing": {"system": "hyperbolic-sinh", "a": 0.5, **_CROSSING},
    "coth-crossing": {"system": "hyperbolic-coth", **_CROSSING},
    "ecm-crossing": {**_ECM_FREE, "t_end": 0.5, "collision_gap": 0},
}


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


class TestSimulate:
    def test_goldfish_final_row_matches_exact(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", GOLDFISH)
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "q1", "q2", "qdot1", "qdot2"]
        exact = dynamics.goldfish_exact(dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0]), 1.0)
        assert_allclose(rows[-1][1:3], exact, atol=1e-9)
        sidecar = json.loads(cli.sidecar_path(out).read_text())
        assert sidecar["truncated"] is False
        assert max(sidecar["diagnostics"]["bn_drift"]) < 1e-9

    def test_single_particle_column_is_linear(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": "goldfish", "N": 1, "q0": [0.5], "qdot0": [2.0], "t_end": 1.0,
             "output_points": 6},
        )
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert np.abs(rows[:, 1] - (0.5 + 2.0 * rows[:, 0])).max() < 1e-12

    def test_matrix_eigenvalues_match_goldfish_run(self, tmp_path):
        base = {"N": 2, "q0": [0.0, 1.0], "qdot0": [1.0, 4.0], "t_end": 1.0, "output_points": 9}
        gf = write_config(tmp_path / "gf.json", {"system": "goldfish", **base})
        mat = write_config(tmp_path / "mat.json", {"system": "matrix", **base})
        out_gf, out_mat = tmp_path / "gf.csv", tmp_path / "mat.csv"
        assert cli.main(["simulate", "--config", gf, "--out", str(out_gf)]) == 0
        assert cli.main(["simulate", "--config", mat, "--out", str(out_mat)]) == 0
        _, rows_gf = read_csv(out_gf)
        _, rows_mat = read_csv(out_mat)
        assert np.abs(rows_gf[:, 1:3] - rows_mat[:, 1:3]).max() < 1e-9

    def test_ecm_and_geodesic_and_hyperbolic_headers(self, tmp_path):
        runs = [
            (
                {"system": "ecm", "N": 2, "q0": [0.0, 1.0], "p0": [1.0, 1.0],
                 "f0": [[0.0, 1.0], [-1.0, 0.0]], "t_end": 0.3, "output_points": 4},
                ["t", "q1", "q2", "p1", "p2", "f_1_2"],
            ),
            (
                {"system": "geodesic", "N": 2, "q0": [0.0, 1.0], "p0": [1.0, 1.0],
                 "t_end": 0.3, "output_points": 4},
                ["t", "q1", "q2", "pi1", "pi2"],
            ),
            (
                {"system": "hyperbolic-sinh", "N": 2, "a": 0.5, "a_vec": [0.0, 1.0],
                 "c_vec": [1.0, 1.0], "t_end": 0.3, "output_points": 4},
                ["t", "q1", "q2", "qdot1", "qdot2"],
            ),
        ]
        for payload, expected_header in runs:
            cfg = write_config(tmp_path / "cfg.json", payload)
            out = tmp_path / "traj.csv"
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            header, rows = read_csv(out)
            assert header == expected_header
            assert rows.shape[0] == 4

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", GOLDFISH)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", cfg, "--out", str(out_a)])
        cli.main(["simulate", "--config", cfg, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()
        assert cli.sidecar_path(out_a).read_bytes() == cli.sidecar_path(out_b).read_bytes()

    def test_csv_format_contract(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", GOLDFISH)
        out = tmp_path / "traj.csv"
        cli.main(["simulate", "--config", cfg, "--out", str(out)])
        blob = out.read_bytes()
        assert b"\r" not in blob
        text = blob.decode()
        # 17 significant digits: t = 0.1 serializes with its full binary value
        assert "0.10000000000000001" in text
        assert re.fullmatch(r"[tq,dot0-9.\-+e\n]*", text)

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"system": "goldfish", "N": 2})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "missing required fields" in capsys.readouterr().err
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{nope")
        assert cli.main(["simulate", "--config", str(bad_json), "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {**GOLDFISH, "surprise": 1})
        assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_collision_exits_three_with_partial_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": "goldfish", "N": 2, "q0": [0.0, 1.0], "qdot0": [1.0, -1.0],
             "t_end": 2.0, "output_points": 21, "collision_gap": 0.01},
        )
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        sidecar = json.loads(cli.sidecar_path(out).read_text())
        assert sidecar["truncated"] is True
        assert sidecar["truncation"]["error"] == "CollisionDetected"
        _, rows = read_csv(out)
        assert 0 < rows.shape[0] < 21

    def test_collision_inside_one_step_exits_three(self, tmp_path, capsys):
        # with f = 0 the particles move freely and meet at t = 0.5; one RK step
        # runs from t = 0.207 to t = 2, and both its ends show a positive |gap|
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": "ecm", "N": 2, "q0": [0, 1], "p0": [1, -1], "f0": [[0, 0], [0, 0]],
             "t_end": 2, "output_points": 21, "collision_gap": 0.01},
        )
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: CollisionDetected: pairwise gap fell below 0.01 at t = 0.495\n"
        sidecar = json.loads(cli.sidecar_path(out).read_text())
        assert sidecar["truncation"]["error"] == "CollisionDetected"
        _, rows = read_csv(out)
        assert 0 < rows.shape[0] < 21 and rows[:, 0].max() < 0.495

    @staticmethod
    def _collided_run(tmp_path, raw):
        """A strict-warning ``simulate`` run that must end in one CollisionDetected line;
        returns its truncation record and rows."""
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "traj.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "goldfishlab", "simulate",
                               "--config", cfg, "--out", str(out)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 3
        assert re.fullmatch(r"error: CollisionDetected: [^\n]*\n", proc.stderr)
        truncation = json.loads(cli.sidecar_path(out).read_text())["truncation"]
        assert truncation["error"] == "CollisionDetected"
        _, rows = read_csv(out)
        assert rows.shape[0] >= 1 and rows[:, 0].max() <= truncation["time"]
        return truncation, rows

    @pytest.mark.parametrize("raw, t_c, tol", COLLISIONS.values(), ids=COLLISIONS.keys())
    def test_collision_keeps_its_rows_and_stop_time(self, tmp_path, raw, t_c, tol):
        truncation, _ = self._collided_run(tmp_path, raw)
        assert abs(truncation["time"] - t_c) <= tol

    @pytest.mark.parametrize("raw", COMPLETED_COLLISIONS.values(), ids=COMPLETED_COLLISIONS.keys())
    def test_completed_run_with_a_collided_row_exits_three(self, tmp_path, raw):
        # the run reached t_end, so that is its stop time; the rows stop before
        # the first collided one, here the last of the default 101
        truncation, rows = self._collided_run(tmp_path, raw)
        assert truncation["time"] == raw["t_end"]
        assert rows.shape[0] == 100

    def test_sinh_overflow_keeps_diagnostics_finite_and_stderr_empty(self, tmp_path):
        # 2a |gap| = 800: sinh overflows in the coupling and in the Lax pair,
        # where the coupling and M are 0 and L is sqrt(qdot_i qdot_j)
        cfg = write_config(tmp_path / "cfg.json",
                           {"system": "hyperbolic-sinh", "N": 2, "a": 100, "a_vec": [0, 4],
                            "c_vec": [1, 1], "t_end": 0.1, "output_points": 3})
        out = tmp_path / "traj.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "goldfishlab", "simulate", "--config", cfg,
                               "--out", str(out)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (0, "")
        diagnostics = strict_json(cli.sidecar_path(out))["diagnostics"]
        assert len(diagnostics["spectrum_drift"]) == 3
        assert all(np.isfinite(diagnostics[name]).all() for name in diagnostics)

    @pytest.mark.parametrize(
        "raw, key",
        [
            # p_2 < 0: the constraint norm needs every p_i >= 0
            ({"system": "ecm", "N": 3, "q0": [0, 1, 2.5], "p0": [1, -0.5, 0.7],
              "f0": [[0, 0.1, 0], [-0.1, 0, 0.2], [0, -0.2, 0]], "t_end": 0.2, "output_points": 5},
             "constraint_norm"),
            # c_2 < 0: the Lax spectrum needs every velocity positive
            ({"system": "hyperbolic-sinh", "N": 2, "a": 0.5, "a_vec": [0, 1], "c_vec": [1, -0.5],
              "t_end": 0.2, "output_points": 3}, "spectrum_drift"),
        ],
        ids=["ecm", "sinh"],
    )
    def test_undefined_diagnostics_are_written_as_null(self, tmp_path, raw, key):
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        diagnostics = strict_json(cli.sidecar_path(out))["diagnostics"]
        assert diagnostics.pop(key) == [None] * raw["output_points"]
        assert all(isinstance(v, float) for values in diagnostics.values() for v in values)

    def test_numbers_are_written_as_fmt_writes_them(self, tmp_path):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310, np.float64(0.1), 1 / 3,
                  -1.2345678901234567e300, 7]
        out = tmp_path / "table.csv"
        cli._write_csv(out, [f"c{k}" for k in range(len(values))], [values, values[::-1]])
        lines = out.read_text().splitlines()
        assert lines[1] == ",".join(cli._fmt(v) for v in values)
        assert lines[2] == ",".join(cli._fmt(v) for v in values[::-1])


class TestVerifyCommand:
    def test_geometry_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "geometry", "--seed", "7", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        names = [entry["name"] for entry in report]
        assert names == sorted(names)
        assert "geometry_curvature_flat" in names
        assert "geometry_curvature_nonflat_control" in names
        assert all(entry["pass"] for entry in report)
        assert set(report[0]) == {"name", "max_residual", "tolerance", "pass", "seconds"}

    def test_unknown_selector_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "nosuch", "--out", str(tmp_path / "r.json")])
        assert info.value.code == 2
        assert not (tmp_path / "r.json").exists()
        from goldfishlab.verify import SUITES

        choices = ", ".join(repr(name) for name in ("all",) + SUITES)
        err = capsys.readouterr().err
        assert "{" + ",".join(("all",) + SUITES) + "}" in err  # the usage line
        assert err.endswith(f"error: argument selector: invalid choice: 'nosuch' (choose from {choices})\n")


    def test_negative_seed_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "symfun", "--seed", "-1", "--out", str(tmp_path / "r.json")])
        assert info.value.code == 2
        assert not (tmp_path / "r.json").exists()
        usage, _, error = capsys.readouterr().err.partition("\n")
        assert usage == "usage: goldfishlab verify [-h] [--seed SEED] --out OUT"
        assert error.endswith("error: argument --seed: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("command", ["simulate", "compare", "verify"])
def test_output_in_a_missing_directory_exits_two_as_a_process(tmp_path, command):
    out = str(tmp_path / "missing" / "out.csv")
    cfg = write_config(tmp_path / "cfg.json", GOLDFISH)
    argv = {"simulate": ["--config", cfg], "compare": ["--config", cfg, "--solvers", "flat_exact"],
            "verify": ["symfun", "--seed", "1"]}[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "goldfishlab", command, *argv, "--out", out],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output: ") and proc.stderr.count("\n") == 1
    assert out in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("target", ["missing/out.csv", "is_a_directory"], ids=["missing", "directory"])
@pytest.mark.parametrize("command", ["simulate", "compare", "verify"])
def test_unwritable_output_exits_two_before_any_work(tmp_path, monkeypatch, capsys, command, target):
    from goldfishlab import verify

    def no_work(*args, **kwargs):
        raise AssertionError("the run started although its output cannot be written")

    monkeypatch.setattr(cli, "_integrate", no_work)
    monkeypatch.setattr(secular, "positions", no_work)
    monkeypatch.setattr(verify, "run_checks", no_work)
    (tmp_path / "is_a_directory").mkdir()
    out = str(tmp_path / target)
    cfg = write_config(tmp_path / "cfg.json", GOLDFISH)
    argv = {"simulate": ["--config", cfg], "compare": ["--config", cfg, "--solvers", "flat_exact"],
            "verify": ["all", "--seed", "1"]}[command]
    assert cli.main([command, *argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ") and captured.err.count("\n") == 1
    assert out in captured.err and captured.out == ""
    assert not (tmp_path / "missing").exists()


class TestCompareCommand:
    def test_goldfish_solver_pair(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {**GOLDFISH, "t_end": 0.3})
        out = tmp_path / "cmp.csv"
        code = cli.main(
            ["compare", "--config", cfg, "--solvers", "rk_integration,flat_exact", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,dmax_rk_integration_vs_flat_exact"
        table = [line.split(",") for line in lines[1 : 1 + 11]]
        assert max(float(row[1]) for row in table) < 1e-8
        timing_at = lines.index("solver,seconds")
        assert [line.split(",")[0] for line in lines[timing_at + 1 :]] == [
            "rk_integration",
            "flat_exact",
        ]

    def test_coth_three_solvers(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": "hyperbolic-coth", "N": 2, "a_vec": [0.0, 1.0], "c_vec": [1.0, 1.0],
             "t_end": 0.5, "output_points": 6},
        )
        out = tmp_path / "cmp.csv"
        code = cli.main(
            ["compare", "--config", cfg, "--solvers", "z_eigen,s_exact,rk_integration",
             "--out", str(out)]
        )
        assert code == 0
        header, *rest = out.read_text().splitlines()
        assert header.count("dmax_") == 3
        data = [line.split(",") for line in rest[:6]]
        assert max(float(v) for row in data for v in row[1:]) < 1e-7

    def test_coth_route_names_share_one_solve(self, tmp_path, monkeypatch):
        calls = []
        real = secular.positions

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(secular, "positions", counted)
        cfg = write_config(
            tmp_path / "cfg.json",
            {"system": "hyperbolic-coth", "N": 3, "a_vec": [-0.4, 0.3, 1.2], "c_vec": [0.7, -1.1, 0.9],
             "t_end": 0.1, "output_points": 5},
        )
        out = tmp_path / "cmp.csv"
        solvers = ["z_eigen", "rk_integration", "s_exact"]
        assert cli.main(["compare", "--config", cfg, "--solvers", ",".join(solvers), "--out", str(out)]) == 0
        assert len(calls) == 1
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        timing_at = lines.index("solver,seconds")
        assert [line.split(",")[0] for line in lines[timing_at + 1 :]] == solvers
        column = header.index("dmax_z_eigen_vs_s_exact")
        assert [float(line.split(",")[column]) for line in lines[1:timing_at]] == [0.0] * 5

    @pytest.mark.parametrize(
        "system, n, solvers",
        [("goldfish", 128, "matrix_eigen,flat_exact,rk_integration"),
         ("hyperbolic-coth", 64, "z_eigen,s_exact,rk_integration")],
    )
    def test_exact_routes_hold_at_large_n(self, tmp_path, system, n, solvers):
        # the polynomial and dense-eigenvalue forms of these routes fail here
        rng = np.random.default_rng(n)
        q0 = -2.0 + 4.0 / n * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n))
        v = rng.uniform(0.5, 1.5, n)
        raw = {"system": system, "N": n, "t_end": 0.3, "output_points": 11,
               "rel_tol": 1e-12, "abs_tol": 1e-14}
        if system == "goldfish":
            raw.update(q0=q0.tolist(), qdot0=v.tolist())
        else:
            raw.update(a_vec=q0.tolist(), c_vec=v.tolist())
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", "--config", cfg, "--solvers", solvers, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:12]])
        assert table[:, 1:].max() <= 1e-10

    @pytest.mark.parametrize(
        "raw, solver, error",
        [
            # past the collision every exact route meets a complex pair
            ({**GOLDFISH, "qdot0": [1.0, -1.0]}, "flat_exact", "ComplexRoots"),
            ({**GOLDFISH, "qdot0": [1.0, -1.0], "t_end": 0.3}, "flat_exact", "ComplexRoots"),
            ({"system": "hyperbolic-coth", "N": 3, "a_vec": [-1.1, -0.33, 0.66],
              "c_vec": [0.1, -0.76, -0.06], "t_end": 1.0, "output_points": 3},
             "z_eigen", "ComplexRoots"),
            *[({"system": "hyperbolic-coth", "N": 2, "a_vec": [1.1, 1.45], "c_vec": [1.8, -1.4],
                "t_end": 2.0, "output_points": 2}, name, "SecularOutOfDomain") for name in COTH_NAMES],
            *[({**COTH_ZERO_P[0], "t_end": 1}, name, "ComplexRoots") for name in COTH_NAMES],
        ],
    )
    def test_mixed_sign_exact_routes_keep_typed_errors(self, tmp_path, capsys, raw, solver, error):
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", "--config", cfg, "--solvers", solver, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {error}: ")

    @pytest.mark.parametrize(
        "raw, solvers, stderr",
        [(raw, name, stderr) for raw, stderr in [
            # positive velocities take the secular kernel: where c z overflows
            # (a = 354), expm1(2 P t) (t = 200) or z itself (a = 355), the
            # route raises SecularOutOfDomain, the only line on stderr
            ({"system": "hyperbolic-coth", "N": 2, "a_vec": [0, 354], "c_vec": [1, 10],
              "t_end": 0.001, "output_points": 3}, overflow("weights w must be finite")),
            ({"system": "hyperbolic-coth", "N": 3, "a_vec": [0, 1, 2], "c_vec": [1, 1, 1],
              "t_end": 200, "output_points": 3}, overflow("gamma must be finite and >= 0")),
            ({"system": "hyperbolic-coth", "N": 2, "a_vec": [0, 355], "c_vec": [1, 1],
              "t_end": 0.001, "output_points": 3}, overflow("poles d must be finite and strictly increasing")),
            # z = e^{2 a} near a = -20 has its gap far below the collision
            # tolerance, but the offsets keep their relative accuracy: the
            # pair meets at t = 0.0343, as RK finds, and at t = 0.05 the
            # route meets the complex pair
            ({"system": "hyperbolic-coth", "N": 2, "a_vec": [-20, -19.9], "c_vec": [1, -0.5],
              "t_end": 0.1, "output_points": 3}, "error: ComplexRoots: "),
        ] for name in COTH_NAMES],
    )
    def test_coth_routes_outside_the_kernel_domain_as_a_process(self, tmp_path, raw, solvers, stderr):
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "cmp.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "goldfishlab", "compare", "--config",
                               cfg, "--solvers", solvers, "--out", str(out)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 3
        # where the error line's value comes from a dense eigensolver only its
        # type is pinned; nothing else may reach stderr
        assert proc.stderr.startswith(stderr) and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "raw, route, condition",
        [(raw, route, condition) for raw, routes, condition in MIXED_SIGN_OVERFLOW for route in routes],
        ids=["t_end 100 z_eigen", "t_end 100 s_exact", "a = 355 z_eigen", "a = 355 s_exact", "goldfish",
             "subnormal t"],
    )
    def test_mixed_sign_overflow_exits_three_as_a_process(self, tmp_path, raw, route, condition):
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "cmp.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "goldfishlab", "compare", "--config", cfg,
                               "--solvers", route, "--out", str(out)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr == overflow(condition)

    @pytest.mark.parametrize("raw", COTH_ZERO_P, ids=["N=2", "N=3"])
    def test_coth_exact_routes_at_zero_momentum_as_a_process(self, tmp_path, raw):
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "cmp.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "goldfishlab", "compare", "--config", cfg,
                               "--solvers", "z_eigen,s_exact,rk_integration", "--out", str(out)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        lines = out.read_text().splitlines()
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1 : lines.index("solver,seconds")]])
        assert table.shape == (101, 4) and table[:, 1:].max() <= 1e-10

    @pytest.mark.parametrize("raw, solvers", MIXED_SIGN_ROUTES, ids=["N=24", "N=32", "N=64", "graded", "wide"])
    def test_mixed_sign_exact_routes_as_a_process(self, tmp_path, raw, solvers):
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "cmp.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "goldfishlab", "compare", "--config", cfg,
                               "--solvers", solvers, "--out", str(out)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        lines = out.read_text().splitlines()
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1 : lines.index("solver,seconds")]])
        assert table.shape[0] == 11 and table[:, 1:].max() <= 1e-10

    @pytest.mark.parametrize("raw, solver", PAST_COLLISION,
                             ids=["goldfish 0.3", "goldfish 1", "matrix", "geodesic", "coth z_eigen", "coth s_exact",
                                  "coth"])
    def test_exact_routes_past_the_collision_as_a_process(self, tmp_path, raw, solver):
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "cmp.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "goldfishlab", "compare", "--config", cfg,
                               "--solvers", solver, "--out", str(out)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ComplexRoots: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "raw",
        [
            # e^{2 a a_vec} overflows: X(t) is not finite
            {"system": "hyperbolic-sinh", "N": 2, "a": 100, "a_vec": [0, 4], "c_vec": [1, 1],
             "t_end": 0.1, "output_points": 3},
            # eigvalsh loses the small eigenvalues of X(t) below eps * max: some read <= 0
            {"system": "hyperbolic-sinh", "N": 4, "a": 20, "a_vec": [0, 0.5, 1, 1.5],
             "c_vec": [1, 0.5, 1.5, 1], "t_end": 0.3, "rel_tol": 1e-12},
        ],
    )
    def test_sinh_matrix_eigen_outside_double_precision_as_a_process(self, tmp_path, raw):
        cfg = write_config(tmp_path / "cfg.json", raw)
        out = tmp_path / "cmp.csv"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "goldfishlab", "compare", "--config", cfg,
                               "--solvers", "matrix_eigen,rk_integration", "--out", str(out)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: NonPositiveEigenvalue: ")
        assert proc.stderr.count("\n") == 1 and not out.exists()

    def test_single_solver_omits_columns(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {**GOLDFISH, "t_end": 0.2})
        out = tmp_path / "cmp.csv"
        assert cli.main(["compare", "--config", cfg, "--solvers", "flat_exact", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t"

    def test_rk_route_builds_no_states_or_diagnostics(self, tmp_path, monkeypatch):
        def unused(*args):
            raise AssertionError("compare built a per-row state or diagnostic")

        monkeypatch.setattr(dynamics.GoldfishSystem, "unpack", unused)
        monkeypatch.setattr(dynamics.GoldfishSystem, "grid_diagnostics", unused)
        cfg = write_config(tmp_path / "cfg.json", {**GOLDFISH, "t_end": 0.2})
        out = tmp_path / "cmp.csv"
        code = cli.main(
            ["compare", "--config", cfg, "--solvers", "rk_integration,flat_exact", "--out", str(out)]
        )
        assert code == 0

    def test_inapplicable_solver_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {**GOLDFISH, "t_end": 0.2})
        code = cli.main(
            ["compare", "--config", cfg, "--solvers", "z_eigen", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("system, solvers", [("matrix", None), ("matrix", "eigen_track,flat_exact"),
                                                 ("goldfish", "matrix_eigen,rk_integration")])
    def test_initial_gap_at_or_below_collision_gap_exits_two(self, tmp_path, capsys, system, solvers):
        # the RK gap event would start negative and never fire
        cfg = write_config(tmp_path / "cfg.json",
                           {"system": system, "N": 2, "t_end": 0.1, "q0": [0, 0.3], "qdot0": [1, 1],
                            "collision_gap": 0.5, "output_points": 3})
        out = str(tmp_path / "x.csv")
        argv = ["simulate"] if solvers is None else ["compare", "--solvers", solvers]
        assert cli.main(argv + ["--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == "error: q0 adjacent gaps must be > 0.5, got 3.000e-01\n"

    @pytest.mark.parametrize("system, solvers", [("matrix", "eigen_track,flat_exact"),
                                                 ("goldfish", "matrix_eigen")])
    def test_eigen_track_stops_at_the_collision_gap(self, tmp_path, capsys, system, solvers):
        # the pair closes from gap 1 to 0.575 at t = 0.074, below collision_gap 0.6
        cfg = write_config(tmp_path / "cfg.json",
                           {"system": system, "N": 2, "t_end": 0.2, "q0": [0, 1], "qdot0": [10, 1],
                            "collision_gap": 0.6, "output_points": 21})
        argv = ["compare", "--solvers", solvers, "--config", cfg, "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            "error: EigenvalueCollision: eigenvalue gap 5.963e-01 below 6.000e-01 at t = 0.06\n")


@pytest.mark.parametrize("system", cli.SYSTEMS)
def test_every_system_simulates_and_its_solvers_agree(tmp_path, system):
    fields, header = SYSTEM_CONFIGS[system]
    cfg = write_config(
        tmp_path / "cfg.json",
        {"system": system, "N": 3, "t_end": 0.3, "output_points": 7, **fields},
    )
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 8

    solvers = list(cli.SPECS[system].solvers)
    out = tmp_path / "cmp.csv"
    assert cli.main(["compare", "--config", cfg, "--solvers", ",".join(solvers),
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:8]])
    assert lines[8] == "solver,seconds"
    assert table.shape == (7, 1 + len(solvers) * (len(solvers) - 1) // 2)
    assert np.all(table[:, 1:] <= 1e-7)


MALFORMED = {
    "q0 not numeric": {**GOLDFISH, "q0": ["x", 1.0]},
    "q0 ragged": {**GOLDFISH, "q0": [[0.0], [1.0, 2.0]]},
    "a not numeric": {"system": "hyperbolic-sinh", "N": 2, "t_end": 1.0, "a": "x",
                      "a_vec": [0.0, 1.0], "c_vec": [1.0, 1.0]},
    "a NaN": {"system": "hyperbolic-sinh", "N": 2, "t_end": 1.0, "a": float("nan"),
              "a_vec": [0.0, 1.0], "c_vec": [1.0, 1.0]},
    "f0 not numeric": {"system": "ecm", "N": 2, "t_end": 1.0, "q0": [0.0, 1.0], "p0": [1.0, 1.0],
                       "f0": [[0.0, "x"], [-1.0, 0.0]]},
    "f0 infinite": {"system": "ecm", "N": 2, "t_end": 1.0, "q0": [0.0, 1.0], "p0": [1.0, 1.0],
                    "f0": [[0.0, float("inf")], [-float("inf"), 0.0]]},
    "t_end NaN": {**GOLDFISH, "t_end": float("nan")},
    "t_end infinite": {**GOLDFISH, "t_end": float("inf")},
    "rel_tol zero": {**GOLDFISH, "rel_tol": 0.0},
    "abs_tol negative": {**GOLDFISH, "abs_tol": -1e-12},
    "abs_tol NaN": {**GOLDFISH, "abs_tol": float("nan")},
    "q0 gap at collision tolerance": {**GOLDFISH, "q0": [0.0, 1e-9]},
    "a_vec gap at collision tolerance": {"system": "hyperbolic-coth", "N": 2, "t_end": 1.0,
                                         "a_vec": [0.0, 1e-9], "c_vec": [1.0, 1.0]},
    "N fractional": {**GOLDFISH, "N": 2.7},
    "N boolean": {**GOLDFISH, "N": True, "q0": [0.0], "qdot0": [1.0]},
    "output_points fractional": {**GOLDFISH, "output_points": 5.5},
    "collision_gap negative": {**GOLDFISH, "collision_gap": -1.0},
    "collision_gap NaN": {**GOLDFISH, "collision_gap": float("nan")},
    "t_end boolean": {**GOLDFISH, "t_end": True},
    "rel_tol string": {**GOLDFISH, "rel_tol": "1e-9"},
    "q0 string entry": {**GOLDFISH, "q0": [0, "1"]},
    "qdot0 boolean entry": {**GOLDFISH, "qdot0": [True, 1]},
    "t_end integer beyond float range": {**GOLDFISH, "t_end": 10**400},
    "q0 integer beyond float range": {**GOLDFISH, "q0": [0, 10**400]},
    "rel_tol below 100 eps": {"system": "goldfish", "N": 2, "q0": [0, 1], "qdot0": [1, 1],
                              "t_end": 0.5, "output_points": 3, "rel_tol": 1e-16},
    # linspace rounds 101 times up to a subnormal t_end to repeated values
    "t_end subnormal grid": {**GOLDFISH, "t_end": 1e-322, "output_points": 101},
}


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_two(tmp_path, capsys, case, command):
    cfg = write_config(tmp_path / "cfg.json", MALFORMED[case])
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out.csv")]
    if command == "compare":
        argv += ["--solvers", "rk_integration"]
    if case == "abs_tol NaN":
        # a NaN tolerance once kept the integrator stepping forever; the
        # timeout turns a regression into a failure instead of a hang
        proc = subprocess.run([sys.executable, "-m", "goldfishlab", *argv],
                              capture_output=True, text=True, timeout=60)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = cli.main(argv), capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


# data near the edge of the float range.  The right-hand side of each RK run
# is not finite at t = 0: the spin and geodesic runs stepped forever on a NaN
# step, and the goldfish pairs ended in RuntimeWarnings and a step underflow or
# a false collision.  The geodesic flat_exact route overflowed in a pidot it
# does not use.  Under -W error each exited 1
_NOT_FINITE_AT_START = "error: IntegrationError: right-hand side is not finite at t = 0\n"
_COTH_SPANS, _COTH_T_ENDS = (180, 250, 300, 350), (1e-3, 1)
_GEODESIC_HUGE_P = {"system": "geodesic", "N": 2, "q0": [-0.5, 0.5], "p0": [2.6e307, 2.6e307],
                    "t_end": 1, "output_points": 3}
EDGE_OF_RANGE = [
    ({"system": "ecm", "N": 3, "q0": [0, 1, 2], "p0": [1, 1, 1],
      "f0": [[0, 1e200, 1e200], [-1e200, 0, -1e200], [-1e200, 1e200, 0]], "t_end": 1, "output_points": 3},
     ["simulate"], 3, _NOT_FINITE_AT_START),
    (_GEODESIC_HUGE_P, ["simulate"], 3, _NOT_FINITE_AT_START),
    (_GEODESIC_HUGE_P, ["compare", "--solvers", "rk_integration"], 3, _NOT_FINITE_AT_START),
    ({**GOLDFISH, "qdot0": [1e200, 1e200], "t_end": 1, "output_points": 3}, ["simulate"], 3,
     _NOT_FINITE_AT_START),
    ({"system": "goldfish", "N": 3, "q0": [0, 0.5, 1], "qdot0": [1e308, -1e308, 1e308], "t_end": 1,
      "output_points": 3}, ["simulate"], 3, _NOT_FINITE_AT_START),
    ({"system": "geodesic", "N": 2, "q0": [0, 1], "p0": [1e200, 1e200], "t_end": 1, "output_points": 3},
     ["compare", "--solvers", "flat_exact"], 0, ""),
    # finite data whose intermediate products overflowed, each exiting 1: the
    # secular kernel's step test at offsets near 1e154 and beyond (coth poles
    # z = e^{2a} from a = 180 on), and the norms of the first RK step size
    ({**GOLDFISH, "q0": [0, 1e160], "output_points": 3}, ["compare", "--solvers", "flat_exact,rk_integration"],
     0, ""),
    ({"system": "goldfish", "N": 3, "q0": [0, 1, 1e300], "qdot0": [1, 1, 1], "t_end": 1, "output_points": 3},
     ["compare", "--solvers", "flat_exact,rk_integration"], 0, ""),
    *[({"system": "hyperbolic-coth", "N": 2, "a_vec": [0, a], "c_vec": [1, 1], "t_end": t_end,
        "output_points": 3}, ["compare", "--solvers", "z_eigen,rk_integration"], 0, "")
      for a in _COTH_SPANS for t_end in _COTH_T_ENDS],
    ({**GOLDFISH, "qdot0": [1e150, 1e150], "output_points": 3}, ["simulate"], 0, ""),
]


@pytest.mark.parametrize("raw, command, code, stderr", EDGE_OF_RANGE,
                         ids=["ecm", "geodesic", "geodesic rk_integration", "goldfish 1e200",
                              "goldfish 1e308", "geodesic flat_exact", "goldfish q0 1e160", "goldfish q0 1e300",
                              *[f"coth {a} t {t_end:g}" for a in _COTH_SPANS for t_end in _COTH_T_ENDS],
                              "goldfish qdot0 1e150"])
def test_data_at_the_edge_of_the_float_range_as_a_process(tmp_path, raw, command, code, stderr):
    cfg = write_config(tmp_path / "cfg.json", raw)
    out = tmp_path / "out.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    # the timeout turns a step loop that never ends into a failure
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "goldfishlab", command[0], "--config", cfg,
                           *command[1:], "--out", str(out)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    if code == 0:
        lines = out.read_text().splitlines()
        end = lines.index("solver,seconds") if command[0] == "compare" else len(lines)
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:end]])
        assert values.shape[0] == 3 and np.isfinite(values).all()
        if command[0] == "compare":
            # every route within RK's tolerance of the others
            assert values[:, 1:].max(initial=0.0) <= 1e-10
    elif command == ["simulate"]:
        sidecar = strict_json(cli.sidecar_path(out))
        assert sidecar["rows_written"] == 0 and sidecar["truncation"]["time"] == 0.0


def _run_python(script: str) -> list[str]:
    """Stdout lines of ``script`` run by a fresh interpreter on this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


SUBMODULES = sorted(path.stem for path in Path(cli.__file__).parent.glob("*.py")
                    if not path.stem.startswith("__"))


def test_runtime_imports_no_scipy(tmp_path):
    """simulate, compare (z_eigen included) and verify run on numpy alone, only
    verify loads the process-pool modules, each command loads only the
    goldfishlab modules it runs, and none loads dataclasses."""
    sim = write_config(tmp_path / "sim.json", GOLDFISH)
    coth = write_config(tmp_path / "coth.json", {"system": "hyperbolic-coth", "N": 3, "t_end": 0.3,
                                                 **SYSTEM_CONFIGS["hyperbolic-coth"][0]})
    script = f"""
import json
import sys
import goldfishlab
def loaded(*packages):
    return sorted(name for name in sys.modules if name.split(".")[0] in packages)
def step():
    return loaded("goldfishlab", "dataclasses")
steps = [step()]
from goldfishlab import cli
codes = [cli.main(["simulate", "--config", {sim!r}, "--out", {str(tmp_path / "sim.csv")!r}])]
steps.append(step())
codes.append(cli.main(["compare", "--config", {coth!r}, "--solvers", "z_eigen,rk_integration,s_exact",
                       "--out", {str(tmp_path / "cmp.csv")!r}]))
steps.append(step())
pool_modules = loaded("multiprocessing", "concurrent")
codes.append(
    cli.main(["verify", "all", "--seed", "42", "--out", {str(tmp_path / "report.json")!r}]))
steps.append(step())
print(json.dumps(steps))
print(codes, loaded("scipy"), pool_modules)
"""
    *_, steps, last = _run_python(script)
    assert last == "[0, 0, 0] [] []"

    def modules(*names):
        return sorted(["goldfishlab"] + [f"goldfishlab.{name}" for name in names])

    simulate = ("cli", "dynamics", "errors", "rk45", "symfun", "utils")
    assert json.loads(steps) == [
        modules(),
        modules(*simulate),
        modules(*simulate, "hyperbolic", "secular"),
        modules(*SUBMODULES),
    ]


def test_every_submodule_resolves_as_a_package_attribute():
    script = f"""
import goldfishlab
print([getattr(goldfishlab, name).__name__ for name in {SUBMODULES!r}])
try:
    goldfishlab.nosuch
except AttributeError as exc:
    print(exc)
"""
    names, error = _run_python(script)
    assert names == repr([f"goldfishlab.{name}" for name in SUBMODULES])
    assert error == "module 'goldfishlab' has no attribute 'nosuch'"


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(GOLDFISH))
        out = tmp_path / "traj.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "goldfishlab", "simulate", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_geodesic_runs_leave_the_closed_form_inverse_metric_to_verify(tmp_path, monkeypatch):
    # the closed-form g^{-1} and its gradient lose about cond(g) digits; the
    # geodesic simulate and compare runs go through J^{-1} instead
    from goldfishlab import geometry

    def refuse(q):
        raise AssertionError("closed-form inverse metric evaluated outside verify")

    monkeypatch.setattr(geometry, "inverse_metric", refuse)
    monkeypatch.setattr(geometry, "inverse_metric_gradient", refuse)
    cfg = write_config(tmp_path / "cfg.json", {"system": "geodesic", "N": 3, "t_end": 0.3,
                                               "output_points": 7, **SYSTEM_CONFIGS["geodesic"][0]})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "traj.csv")]) == 0
    assert cli.main(["compare", "--config", cfg, "--solvers", "rk_integration,flat_exact",
                     "--out", str(tmp_path / "cmp.csv")]) == 0
