#!/usr/bin/env python3
"""Cross-validate the hyperbolic exact solvers against integration.

Compares the Z-eigenvalue route and the symmetric-function route for the coth
flow, integrates the sinh flow and monitors the Lax spectrum, and checks the
conserved matrix combination of the positive-matrix geodesic.
"""
import argparse

import numpy as np

from goldfishlab import dynamics, hyperbolic


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--a", type=float, default=0.7)
    parser.add_argument("--t-end", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    a_vec = np.sort(rng.uniform(-1.5, 1.5, args.n))
    while args.n > 1 and np.diff(a_vec).min() < 0.4:
        a_vec = np.sort(rng.uniform(-1.5, 1.5, args.n))
    c_vec = rng.uniform(0.5, 1.5, args.n)
    data = hyperbolic.HyperbolicData(a=args.a, a_vec=a_vec, c_vec=c_vec)
    print(f"a_vec = {a_vec}")
    print(f"c_vec = {c_vec}  (P = {data.momentum:.4f})\n")

    times = np.linspace(0.0, args.t_end, 9)
    print("coth flow, exact-route agreement:")
    worst = 0.0
    for t in times:
        q_z = hyperbolic.z_eigen_solution(
            hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec), t
        )
        _, q_s = hyperbolic.s_exact(
            hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec), t
        )
        worst = max(worst, np.abs(q_z - q_s).max())
    print(f"  max |z_eigen - s_exact| over grid: {worst:.3e}")

    config = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
    state0 = dynamics.GoldfishState(a_vec, c_vec)
    traj = dynamics.integrate(hyperbolic.SinhSystem(args.n, args.a), state0, args.t_end, config, 9)
    print("\nsinh flow, isospectral deformation:")
    print(f"  Lax spectrum drift:          {traj.diagnostics['spectrum_drift'].max():.3e}")
    print(f"  total momentum drift:        {traj.diagnostics['momentum_drift'].max():.3e}")

    worst = 0.0
    for t, s in zip(traj.times, traj.states):
        worst = max(worst, np.abs(hyperbolic.matrix_positions(data, t) - s.q).max())
    print(f"  matrix-geodesic eigenvalues: {worst:.3e} from integrated flow")

    k0 = hyperbolic.conserved_combination(data, 0.0)
    drift = max(
        np.abs(hyperbolic.conserved_combination(data, t) - k0).max() for t in times
    )
    print(f"  conserved combination drift: {drift:.3e}")


if __name__ == "__main__":
    main()
