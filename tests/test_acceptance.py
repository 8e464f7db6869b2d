"""Acceptance gate: every headline property at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them) and asserts.  Residual sweeps reuse the named checks of the
verification harness with the reference seed 42, so ``goldfishlab verify all
--seed 42`` exercises exactly what is asserted here.
"""
import json
import subprocess
import sys
import time

from goldfishlab import verify

SEED = 42


def report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def run(name):
    result = verify.run_single(name, seed=SEED)
    return result


def detail(results):
    return "; ".join(
        f"{r.name} residual={r.max_residual:.3e} (tol {r.tolerance:.1e})" for r in results
    )


def test_criterion_01_flatness():
    started = time.perf_counter()
    flat = run("geometry_curvature_flat")
    control = run("geometry_curvature_nonflat_control")
    elapsed = time.perf_counter() - started
    ok = flat.passed and control.passed and elapsed < 1.0
    report(
        "criterion-01 curvature flatness + negative control",
        ok,
        detail([flat, control]) + f"; runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_02_exact_vs_numeric_goldfish():
    started = time.perf_counter()
    result = run("dynamics_exact_vs_rk")
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 2.0
    report(
        "criterion-02 flat-coordinate solver vs adaptive integration",
        ok,
        detail([result]) + f"; runtime {elapsed:.2f}s < 2s",
    )


def test_criterion_03_conserved_quantities():
    results = [run("dynamics_bn_conservation"), run("dynamics_energy_conservation")]
    report(
        "criterion-03 conserved quantities along integrated flows",
        all(r.passed for r in results),
        detail(results),
    )


def test_criterion_04_matrix_reduction():
    result = run("reduction_eigenvalue_goldfish")
    report("criterion-04 rank-one matrix eigenvalues solve the flow", result.passed, detail([result]))


def test_criterion_05_invariant_vectors():
    result = run("reduction_invariant_vectors")
    report("criterion-05 invariant vectors move freely", result.passed, detail([result]))


def test_criterion_06_commuting_integrals():
    result = run("poisson_b_commutation")
    report("criterion-06 momentum-linear integrals commute", result.passed, detail([result]))


def test_criterion_07_poisson_validity():
    results = [
        run("poisson_antisymmetry"),
        run("poisson_jacobi_ecm"),
        run("poisson_jacobi_goldfish"),
    ]
    report(
        "criterion-07 antisymmetry exact + Jacobi residuals",
        all(r.passed for r in results),
        detail(results),
    )


def test_criterion_08_weak_constraint_conservation():
    results = [
        run("dynamics_constraint_norm"),
        run("poisson_constraint_weak_zero"),
        run("poisson_constraint_offsurface_control"),
        run("poisson_constraint_offsurface_closed_form"),
    ]
    report(
        "criterion-08 constraints weakly conserved on the surface",
        all(r.passed for r in results),
        detail(results),
    )


def test_criterion_09_dirac_bracket_reproduction():
    results = [run("poisson_goldfish_flow_factor2"), run("poisson_goldfish_flow_factor1_control")]
    report(
        "criterion-09 reduced bracket generates the flow (factor-2; factor-1 control)",
        all(r.passed for r in results),
        detail(results),
    )


def test_criterion_10_hyperbolic_suite():
    started = time.perf_counter()
    results = [
        run("hyperbolic_exact_agreement"),
        run("hyperbolic_coth_residual"),
        run("hyperbolic_sn_ode"),
        run("hyperbolic_isospectral"),
        run("hyperbolic_conserved_combination"),
        run("hyperbolic_rational_limit"),
    ]
    elapsed = time.perf_counter() - started
    ok = all(r.passed for r in results) and elapsed < 2.0
    report(
        "criterion-10 hyperbolic suite",
        ok,
        detail(results) + f"; runtime {elapsed:.2f}s < 2s",
    )


def test_criterion_11_closed_forms():
    results = [
        run("symfun_jacobian_det_agreement"),
        run("symfun_jacobian_inverse_identity"),
        run("geometry_inverse_metric_identity"),
        run("geometry_inverse_metric_closed_form"),
    ]
    report(
        "criterion-11 closed forms (determinant, inverse Jacobian, inverse metric)",
        all(r.passed for r in results),
        detail(results),
    )


def _mask_seconds(report_bytes):
    entries = json.loads(report_bytes)
    for entry in entries:
        entry["seconds"] = None
    return json.dumps(entries, sort_keys=True)


def test_criterion_12_end_to_end(tmp_path):
    outputs = []
    elapsed = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        started = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "goldfishlab",
                "verify",
                "all",
                "--seed",
                "42",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        elapsed.append(time.perf_counter() - started)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out.read_bytes())
    entries = json.loads(outputs[0])
    identical = _mask_seconds(outputs[0]) == _mask_seconds(outputs[1])
    ok = len(entries) >= 25 and identical and max(elapsed) < 10.0
    report(
        "criterion-12 end-to-end verify",
        ok,
        f"exit 0; {len(entries)} checks (>= 25); runtimes {elapsed[0]:.1f}s/{elapsed[1]:.1f}s < 10s; "
        "reports byte-identical with runtime fields masked "
        "(wall-clock fields are the documented determinism exception)",
    )
