import pytest

from goldfishlab import verify
from goldfishlab.errors import CollisionDetected


def run_on_cpus(monkeypatch, cpus, selector, seed):
    """run_checks as it runs when the process may use ``cpus`` CPUs."""
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return verify.run_checks(selector, seed)


def masked(results):
    return [{**r.to_dict(), "seconds": None} for r in results]


@pytest.mark.parametrize("seed", [42, 106])
def test_parallel_report_equals_serial(monkeypatch, seed):
    """Seed 106 includes a failing check."""
    serial = run_on_cpus(monkeypatch, 1, "all", seed)
    parallel = run_on_cpus(monkeypatch, 2, "all", seed)
    assert [r.name for r in serial] == sorted(r.name for r in serial)
    assert masked(parallel) == masked(serial)
    assert all(r.passed for r in serial) == (seed == 42)


def test_check_raising_in_a_worker_reaches_the_caller(monkeypatch):
    def collides(rng):
        raise CollisionDetected("pairwise gap fell below 1e-08 at t = 0.25", time=0.25)

    raising = verify.CheckSpec(name="symfun_zz_raises", suite="symfun", mode="below", fn=collides)
    monkeypatch.setattr(verify, "_REGISTRY", [*verify._REGISTRY, raising])
    with pytest.raises(CollisionDetected, match=r"^pairwise gap fell below 1e-08 at t = 0\.25$"):
        run_on_cpus(monkeypatch, 2, "symfun", 42)


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
