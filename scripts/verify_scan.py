#!/usr/bin/env python3
"""Run ``verify all`` over a range of seeds and print one line per seed.

    PYTHONPATH=src python scripts/verify_scan.py SEED_FROM SEED_TO

Seeds SEED_FROM..SEED_TO, both included.  Each line holds the seed, a digest
of the command's stdout and of its JSON report with every ``seconds`` field
masked, the failing checks ("-" if none), and the seed's margin: the "below"
check (pass iff residual <= tolerance) with the largest residual/tolerance
ratio among those with a tolerance above 0, and that ratio.  Two source trees
that print the same digests give the same verify output at those seeds,
timings apart, so diffing the output of two trees checks that a change left
``verify`` alone; where it did not, the margins show by how much it moved.
Exits 1 if any check failed at any seed.
"""
import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from goldfishlab import cli, verify


def tightest_below(report: list[dict]) -> tuple[str, float]:
    """(name, residual / tolerance) of the report's "below" check closest to its tolerance.

    A NaN residual, written as null, fails its check and is left out here.
    """
    ratio, name = max((entry["max_residual"] / entry["tolerance"], entry["name"]) for entry in report
                      if entry["max_residual"] is not None and entry["tolerance"] > 0
                      and verify.lookup(entry["name"]).mode == "below")
    return name, ratio


def scan_seed(seed: int, report_path: Path) -> tuple[str, list[str], tuple[str, float]]:
    """(digest, failing check names, ``tightest_below``) of ``verify all --seed seed``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(["verify", "all", "--seed", str(seed), "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    masked = [{key: value for key, value in entry.items() if key != "seconds"} for entry in report]
    payload = stdout.getvalue() + "\0" + json.dumps(masked, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    failing = [entry["name"] for entry in report if not entry["pass"]]
    return digest, failing, tightest_below(report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed_from", type=int)
    parser.add_argument("seed_to", type=int)
    args = parser.parse_args()

    any_failed = False
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "report.json"
        for seed in range(args.seed_from, args.seed_to + 1):
            digest, failing, (name, ratio) = scan_seed(seed, report_path)
            any_failed = any_failed or bool(failing)
            print(f"{seed} {digest} {','.join(failing) or '-'} {name} {ratio:.3g}", flush=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
