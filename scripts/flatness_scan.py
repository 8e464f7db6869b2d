#!/usr/bin/env python3
"""Scan the pair-function family w(x) = c/x for curvature flatness.

Samples random configurations and reports the largest curvature component per
coefficient c; only c = 2 should sit at machine zero.
"""
import argparse

import numpy as np

from goldfishlab import geometry, sampling


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    configs = [
        sampling.random_configuration(rng, int(rng.integers(2, 7)))
        for _ in range(args.samples)
    ]
    print(f"{'c':>6}  {'max |curvature|':>16}")
    for c in (0.5, 1.0, 1.5, 1.9, 2.0, 2.1, 3.0):
        worst = max(float(np.abs(geometry.curvature(q, c)).max()) for q in configs)
        marker = "   <- flat" if worst < 1e-9 else ""
        print(f"{c:6.2f}  {worst:16.3e}{marker}")


if __name__ == "__main__":
    main()
