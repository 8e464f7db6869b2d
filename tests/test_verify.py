import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from goldfishlab import cli, verify
from goldfishlab.errors import CollisionDetected


def run_on_cpus(monkeypatch, cpus, selector, seed):
    """run_checks as it runs when the process may use ``cpus`` CPUs."""
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return verify.run_checks(selector, seed)


def masked(results):
    return [{**r.to_dict(), "seconds": None} for r in results]


def register_failing_check(monkeypatch) -> str:
    """Register a "below" check whose second and fourth cases exceed its tolerance 2; its name."""
    def above_tolerance(rng):
        yield from [("n=1 first", 0.25), ("n=2 second", 3.0), ("n=3 third", 1.0), ("n=4 fourth", 3.0)]

    spec = verify.CheckSpec(name="symfun_zz_fails", suite="symfun", tolerance=2.0, mode="below",
                            fn=above_tolerance)
    monkeypatch.setattr(verify, "_REGISTRY", [*verify._REGISTRY, spec])
    return spec.name


@pytest.mark.parametrize("seed", [42, 147])
def test_parallel_report_equals_serial(monkeypatch, seed):
    """At seed 147 a check registered here fails."""
    if seed == 147:
        register_failing_check(monkeypatch)
    serial = run_on_cpus(monkeypatch, 1, "all", seed)
    parallel = run_on_cpus(monkeypatch, 2, "all", seed)
    assert [r.name for r in serial] == sorted(r.name for r in serial)
    assert masked(parallel) == masked(serial)
    assert [r.worst_case for r in parallel] == [r.worst_case for r in serial]
    assert all(r.passed for r in serial) == (seed == 42)


def test_check_raising_in_a_worker_reaches_the_caller(monkeypatch):
    def collides(rng):
        yield "n=2 first", 0.0
        raise CollisionDetected("pairwise gap fell below 1e-08 at t = 0.25", time=0.25)

    raising = verify.CheckSpec(name="symfun_zz_raises", suite="symfun", tolerance=1e-9, mode="below",
                               fn=collides)
    monkeypatch.setattr(verify, "_REGISTRY", [*verify._REGISTRY, raising])
    with pytest.raises(CollisionDetected, match=r"^pairwise gap fell below 1e-08 at t = 0\.25$"):
        run_on_cpus(monkeypatch, 2, "symfun", 42)


@pytest.mark.parametrize("mode, tolerance", [("below", 1.0), ("above", 1e-3)])
def test_a_nan_case_is_the_worst_and_fails(monkeypatch, mode, tolerance):
    def with_nan(rng):
        yield "n=2 small", 0.5
        yield "n=3 nan", math.nan
        yield "n=4 large", 10.0

    spec = verify.CheckSpec(name="symfun_zz_nan", suite="symfun", tolerance=tolerance, mode=mode,
                            fn=with_nan)
    monkeypatch.setattr(verify, "_REGISTRY", [*verify._REGISTRY, spec])
    result = verify.run_single("symfun_zz_nan", 42)
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.worst_case == (1, "n=3 nan")


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_a_nan_residual_is_null_in_the_strict_json_report(monkeypatch, tmp_path, capsys):
    def with_nan(rng):
        yield "n=2 nan", math.nan

    spec = verify.CheckSpec(name="symfun_zz_nan", suite="symfun", tolerance=1.0, mode="below", fn=with_nan)
    monkeypatch.setattr(verify, "_REGISTRY", [*verify._REGISTRY, spec])
    # in this process: forked workers would not see the patched registry
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0})
    out = tmp_path / "report.json"
    assert cli.run_verify("symfun", 1, out) == 1
    report = {entry["name"]: entry for entry in _strict_json(out.read_text())}
    assert report["symfun_zz_nan"]["max_residual"] is None and not report["symfun_zz_nan"]["pass"]
    assert "FAIL  symfun_zz_nan  residual=nan" in capsys.readouterr().out
    assert all(entry["max_residual"] is not None for name, entry in report.items() if name != "symfun_zz_nan")


def test_json_output_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "x.json", {"value": math.nan})


def test_the_worst_case_is_the_first_largest_residual():
    cases = [("a", 1.0), ("b", 3.0), ("c", 3.0), ("d", 2.0)]
    assert verify.worst_case(cases) == (1, "b", 3.0)
    with pytest.raises(ValueError, match="no case"):
        verify.worst_case([])


@pytest.mark.parametrize("spec", verify._REGISTRY, ids=lambda spec: spec.name)
def test_every_check_yields_a_case_and_declares_a_finite_tolerance(spec):
    assert spec.mode in ("below", "above")
    assert math.isfinite(spec.tolerance) and spec.tolerance >= 0
    label, residual = next(spec.cases(42))
    assert str(label).startswith("n=")
    assert isinstance(float(residual), float)


@pytest.mark.parametrize(
    "name, seed",
    [
        ("symfun_jacobian_inverse_identity", 147),
        ("symfun_jacobian_inverse_identity", 370),
        ("symfun_roundtrip", 257),
    ],
)
def test_exact_symfun_checks_pass_where_the_float_identities_failed(name, seed):
    # J J^{-1} - I in doubles (seeds 147, 370) and the forward error of
    # clustered roots (seed 257) exceeded 1e-10; the entries of J^{-1} against
    # their exact values and the backward error of the roots do not
    result = verify.run_single(name, seed)
    assert result.passed, result.to_dict()


def test_verify_case_marks_the_worst_case_and_exits_with_the_verdict(monkeypatch, capsys):
    name = register_failing_check(monkeypatch)
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_case.py"
    module_spec = importlib.util.spec_from_file_location("verify_case", path)
    script = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["verify_case.py", name, "147"])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 5
    assert [line.split()[1:3] for line in lines if line.startswith("*")] == [["1", "3.0"]]
    assert lines[-1] == f"{name} seed 147: mode below, tolerance 2.0, worst case 1 residual 3.0: FAIL"


@pytest.mark.parametrize("seed", [106, 193, 215, 249, 384])
def test_offsurface_control_passes_where_its_smallest_draw_vanished(seed):
    # each of these seeds draws one N = 2 point near a zero set of {G_01, H}
    # other than the constraint surface, so only some draw exceeds 1e-3
    for name in ("poisson_constraint_offsurface_control", "poisson_constraint_offsurface_closed_form"):
        result = verify.run_single(name, seed)
        assert result.passed, result.to_dict()


@pytest.mark.parametrize(
    "name, seed",
    [("geometry_hamiltonian_conservation", seed) for seed in (27, 34, 46, 48, 49, 78, 93)]
    + [("geometry_goldfish_equivalence", 105)],
)
def test_geometry_checks_pass_where_the_closed_form_inverse_metric_failed(name, seed):
    # the closed-form g^{-1} lost about cond(g) digits at these draws; Hamilton's
    # equations and the energy now go through the flat momenta P = J^{-T} pi
    result = verify.run_single(name, seed)
    assert result.passed, result.to_dict()
