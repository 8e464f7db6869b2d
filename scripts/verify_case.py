#!/usr/bin/env python3
"""Print every case of one verify check at one seed, and mark the worst.

    PYTHONPATH=src python scripts/verify_case.py CHECK SEED

One line per case: its index in draw order, its residual and its label (the
case's N and drawn inputs, every float in full precision).  The first case
with the largest residual is marked with "*"; it is the case ``verify`` keeps
as the check's ``max_residual``.  A last line gives the check's mode,
tolerance and verdict.  Exits 1 iff the check fails at that seed, and 2 for
an unknown check name.
"""
import argparse
import sys

from goldfishlab import verify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check")
    parser.add_argument("seed", type=int)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("seed must be >= 0")
    try:
        spec = verify.lookup(args.check)
    except ValueError as exc:
        parser.error(str(exc))

    cases = list(spec.cases(args.seed))
    index, _, residual = verify.worst_case(cases)
    for k, (case_label, case_residual) in enumerate(cases):
        print(f"{'*' if k == index else ' '} {k:4d}  {float(case_residual)!r}  {case_label}")
    passed = spec.passes(residual)
    print(f"{spec.name} seed {args.seed}: mode {spec.mode}, tolerance {spec.tolerance!r}, "
          f"worst case {index} residual {residual!r}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
