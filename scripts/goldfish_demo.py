#!/usr/bin/env python3
"""Three routes to the same goldfish trajectory.

Runs the adaptive integrator, the exact solver of ``compare``'s
``flat_exact`` route (``secular.positions``), and the eigenvalues of the
rank-one matrix flow from a common initial condition, and prints their
pairwise discrepancies plus the drift of the conserved b_n.
"""
import argparse

import numpy as np

from goldfishlab import dynamics, reduction, secular


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--t-end", type=float, default=0.5)
    parser.add_argument("--points", type=int, default=11)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    q0 = np.sort(rng.uniform(-2.0, 2.0, args.n))
    while args.n > 1 and np.diff(q0).min() < 0.5:
        q0 = np.sort(rng.uniform(-2.0, 2.0, args.n))
    qdot0 = rng.uniform(0.5, 1.5, args.n)
    state0 = dynamics.GoldfishState(q0, qdot0)
    print(f"q0    = {q0}")
    print(f"qdot0 = {qdot0}\n")

    config = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    traj = dynamics.integrate(dynamics.GoldfishSystem(args.n), state0, args.t_end, config, args.points)
    numeric = np.vstack([s.q for s in traj.states])
    origin, offset = secular.positions(q0, qdot0, traj.times)
    exact = q0[origin] + offset
    flow = reduction.rank1_velocity(q0, qdot0)
    eigen = np.vstack(
        [np.sort(np.linalg.eigvalsh(reduction.free_flow(flow, t))) for t in traj.times]
    )

    print(f"{'t':>6}  {'|rk - exact|':>14}  {'|eigen - exact|':>16}  {'bn drift':>12}")
    for k, t in enumerate(traj.times):
        print(
            f"{t:6.3f}  {np.abs(numeric[k] - exact[k]).max():14.3e}  "
            f"{np.abs(eigen[k] - exact[k]).max():16.3e}  "
            f"{traj.diagnostics['bn_drift'][k]:12.3e}"
        )
    print(f"\nfinal positions (exact): {exact[-1]}")


if __name__ == "__main__":
    main()
