"""Roots of the rank-one secular equation, batched over a time grid.

Every exact route of the goldfish family and of the coth flow is one
eigenvalue problem diag(d) + gamma w-weighted rank one: the goldfish
positions at time t are the eigenvalues of diag(q0) + t v v^T with
v = sqrt(qdot0) (Calogero), and the coth route's Z(t) = diag(z) + gamma z c^T
with z = e^{2 a}, gamma = expm1(2 P t)/P.  Its eigenvalues are the roots mu of

    f(mu) = 1/gamma + sum_i w_i / (d_i - mu) = 0.

``positions`` is the one entry point of these routes.  With every weight
positive there is one root in each interval (d_k, d_{k+1}) and the last in
(d_{N-1}, d_{N-1} + gamma sum w), and the kernel solves the whole grid.
Each root is iterated on its offset mu - d_o from the nearer pole d_o, so
small gaps keep their relative accuracy where a dense eigensolver or the
polynomial's companion matrix loses it.  The step is R.-C. Li's "middle way"
(LAPACK Working Note 89, 1994; LAPACK ``dlaed4``), and for the last root a
Newton step in the reciprocal offset.  Every step stays inside the bracket of
Bunch, Nielsen & Sorensen (Numer. Math. 31 (1978) 31); a step that leaves it
falls back to its midpoint.  With a weight <= 0 the route's per-point form
gives the roots at each gamma.
"""
from __future__ import annotations

import numpy as np

from . import symfun
from .errors import NonRealSpectrum, SecularNoConvergence, SecularOutOfDomain

#: Elements of the (roots x N) work arrays processed at once; bounds the memory
#: of a long grid at large N.
_BLOCK_ELEMENTS = 1 << 17
#: A root has converged once its model step is below this fraction of its offset.
_STEP_TOL = 4.0 * np.finfo(float).eps
_MAX_ITER = 100


def _vieta_data(d, w, gamma):
    """x(0) + gamma b at each gamma, with (x(0), b) = ``symfun.flat_line(d, w)``."""
    x0, b = symfun.flat_line(d, w)
    return x0 + gamma[:, None] * b


def _eigen_roots(row, g, w):
    """Ascending eigenvalues of diag(d) + g 1 w^T, whose diagonal is ``row``; NonRealSpectrum if complex."""
    matrix = np.broadcast_to(g * w, (w.size, w.size)).copy()
    np.fill_diagonal(matrix, row)
    mu = np.linalg.eigvals(matrix)
    worst_imag = float(np.abs(mu.imag).max())
    if worst_imag >= symfun.IMAG_TOL:
        raise NonRealSpectrum(f"imaginary part {worst_imag:.3e} >= {symfun.IMAG_TOL:.3e}")
    return np.sort(mu.real)


#: The data each branch builds at every gamma, and their name in the domain
#: test: the upper end of the kernel's bracket of the last root, the Vieta
#: data of the polynomial, and the diagonal of diag(d) + gamma 1 w^T.
_DATA = {
    "kernel": (lambda d, w, gamma: gamma * w.sum(), "gamma sum(w)"),
    "vieta": (_vieta_data, "x(0) + gamma b"),
    "eigen": (lambda d, w, gamma: d + gamma[:, None] * w, "d + gamma w"),
}
#: The roots of each per-point form at one gamma, from that gamma's row of its data.
_ROOTS = {"vieta": lambda row, g, w: symfun.roots_from_coords(row), "eigen": _eigen_roots}
#: The exact routes by name: their per-point form, and whether their poles
#: and roots are exponentials e^{2 q}, which must be positive.
_ROUTES = {
    "flat_exact": ("vieta", False),
    "s_exact": ("vieta", True),
    "z_eigen": ("eigen", True),
}


def positions(d, w, gamma, route: str) -> tuple[np.ndarray, np.ndarray]:
    """(origin, offset) of the positions of exact route ``route`` at each gamma, each of shape (len(gamma), N).

    Root k at gamma_j is d[origin[j, k]] + offset[j, k], carried from its
    nearer pole, so the offset holds the root's distance to it to the
    accuracy of the solver; rows ascend, and at gamma = 0 the roots are the
    poles.  The one sign test picks the branch: with every w > 0 the kernel
    solves the whole grid, and otherwise the route's per-point form
    (``_ROUTES``) takes the roots at each gamma > 0, with its typed errors
    (ComplexRoots, RootCollision, NonRealSpectrum).  The one domain test
    (``_domain``) runs before either, and SecularOutOfDomain names the
    condition that fails.
    """
    d, w = np.asarray(d, dtype=float), np.asarray(w, dtype=float)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    form, positive = _ROUTES[route]
    branch = "kernel" if np.all(w > 0) else form
    error, data = _domain(d, w, gamma, positive, branch)
    if error is not None:
        raise SecularOutOfDomain(error)
    if branch == "kernel":
        return _kernel(d, w, gamma)
    roots = np.broadcast_to(d, (gamma.size, d.size)).copy()
    for j in np.flatnonzero(gamma > 0):
        roots[j] = _ROOTS[form](data[j], gamma[j], w)
        if positive and not roots[j, 0] > 0:
            raise SecularOutOfDomain(f"smallest root {roots[j, 0]:.3e} <= 0")
    upper = np.minimum(np.searchsorted(d, roots), d.size - 1)
    lower = np.maximum(upper - 1, 0)
    origin = np.where(roots - d[lower] <= d[upper] - roots, lower, upper)
    return origin, roots - d[origin]


def _domain(d, w, gamma, positive: bool, branch: str) -> tuple[str | None, np.ndarray | None]:
    """(the first condition of the domain that fails, or None; the data of ``branch``).

    The domain: d and w equal-length vectors and gamma a vector; poles d
    finite and strictly increasing, so none underflowed to a tied value, and
    where ``positive`` at least the smallest normal number, so none
    underflowed to zero or lost digits as a subnormal; weights w
    finite; gamma finite and >= 0; and the data the branch builds
    (``_DATA``) finite at every gamma.
    """
    if d.ndim != 1 or w.shape != d.shape or gamma.ndim != 1 or d.size == 0:
        return "d and w must be equal-length vectors and gamma a vector", None
    if not (np.all(np.isfinite(d)) and np.all(np.diff(d) > 0)):
        return "poles d must be finite and strictly increasing", None
    if positive and not d[0] >= np.finfo(float).tiny:
        return "poles d must be positive normal numbers", None
    if not np.all(np.isfinite(w)):
        return "weights w must be finite", None
    if not (np.all(gamma >= 0) and np.all(np.isfinite(gamma))):
        return "gamma must be finite and >= 0", None
    build, name = _DATA[branch]
    with np.errstate(over="ignore", invalid="ignore"):
        data = build(d, w, gamma)
    if not np.all(np.isfinite(data)):
        return f"{name} must be finite", None
    return None, data


def _kernel(d, w, gamma) -> tuple[np.ndarray, np.ndarray]:
    """(origin, offset) of the roots for every w > 0, by blocks of the grid."""
    n = d.size
    origin = np.broadcast_to(np.arange(n), (gamma.size, n)).copy()
    offset = np.zeros((gamma.size, n))
    deltas = d[None, :] - d[:, None]  # deltas[k, i] = d_i - d_k
    rows = max(1, _BLOCK_ELEMENTS // (n * n))
    live = np.flatnonzero(gamma > 0)
    for start in range(0, live.size, rows):
        block = live[start : start + rows]
        origin[block], offset[block] = _solve(deltas, w, gamma[block])
    return origin, offset


def _solve(deltas: np.ndarray, w: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Origins and offsets of all N roots for each g > 0 in ``gamma``."""
    n = w.size
    k = np.tile(np.arange(n), gamma.size)  # interval of each root
    inv_rho = np.repeat(1.0 / gamma, n)
    last = k == n - 1

    # Start interior roots at the interval midpoint and the last root at its
    # upper bound rho sum(w); rho w_{N-1} and rho sum(w) - (d_{N-1} - d_0)
    # bound it from below.
    half = np.append(0.5 * np.diag(deltas, 1), 0.0)[k]
    top = gamma * w.sum()
    tau = np.where(last, np.repeat(top, n), half)
    f, parts = _evaluate(deltas, w, inv_rho, k, k, tau)
    # The sign of f at the midpoint picks the nearer pole as the origin; the
    # midpoint's evaluation holds in either frame.
    lower = last | (f >= 0)
    origin = k + ~lower
    tau = np.where(lower, tau, -half)
    lo = np.where(lower, 0.0, -half)
    hi = np.where(lower, half, 0.0)
    lo[last] = np.maximum(gamma * w[-1], top - deltas[0, -1])
    hi[last] = top
    proposal = _step(f, parts, lower, last, tau)

    active = np.arange(k.size)
    for _ in range(_MAX_ITER):
        # converged on the model step, before the bracket can reject it, or
        # bracketed as tightly as the rounding of f allows
        t = tau[active]
        tol = _STEP_TOL * np.abs(t)
        done = (np.abs(proposal - t) <= tol) | (f == 0) | (hi[active] - lo[active] <= tol)
        inside = (proposal > lo[active]) & (proposal < hi[active])
        tau[active] = np.where(done | inside, proposal, 0.5 * (lo[active] + hi[active]))
        keep = ~done
        active, lower = active[keep], lower[keep]
        if not active.size:
            return origin.reshape(-1, n), tau.reshape(-1, n)
        t = tau[active]
        f, parts = _evaluate(deltas, w, inv_rho[active], k[active], origin[active], t)
        below = f < 0
        lo[active] = np.where(below, t, lo[active])
        hi[active] = np.where(below, hi[active], t)
        proposal = _step(f, parts, lower, last[active], t)
    raise SecularNoConvergence(f"{active.size} secular roots did not converge in {_MAX_ITER} steps")


def _evaluate(deltas, w, inv_rho, k, origin, tau):
    """r f and the parts of the local model at offsets ``tau`` from ``origin``, r = |tau|.

    Everything is scaled by r: the origin is the pole nearest to the root,
    so every u_i = r/(d_i - mu) lies in [-1, 1], and neither a root within
    1e-200 of its pole nor one beyond 1e200 under- or overflows.  psi sums
    over the poles i <= k, below the root, and phi over the poles above it.
    """
    n = w.size
    r = np.abs(tau)
    delta = deltas[origin]
    delta -= tau[:, None]  # d_i - mu; negative exactly for the poles below the root
    u = np.divide(r[:, None], delta, out=delta)
    below, above = np.minimum(u, 0.0), np.maximum(u, 0.0)
    psi, phi = below @ w, above @ w  # r psi and r phi
    dpsi = np.square(below, out=below) @ w  # r^2 psi'
    dphi = np.square(above, out=above) @ w  # r^2 phi'
    at = np.arange(k.size)
    with np.errstate(divide="ignore"):
        # (d_k - mu)/r and (d_{k+1} - mu)/r; the origin's is -1 or 1 exactly
        sk, sk1 = 1.0 / u[at, k], 1.0 / u[at, np.minimum(k + 1, n - 1)]
    return r * inv_rho + psi + phi, (r, dpsi, dphi, sk, sk1)


def _step(f, parts, lower, last, tau) -> np.ndarray:
    """The next offset: the zero of the local model, in ``tau``'s frame.

    Interior roots take Li's middle way: psi and phi are each replaced by a
    constant plus a multiple of 1/(d - mu) at their pole nearest the root,
    matching f and f'.  The model's zero between the two poles is the root
    of a quadratic in the new offset over r, taken in a cancellation-free
    form, so a root far closer to its pole than the current point is still
    found to full relative accuracy.  The last root takes Newton's step in
    the reciprocal offset 1/tau, on which f is nearly linear both near its
    pole and far beyond all poles.  A proposal that is not finite or moves
    away from the root is replaced by Newton's step in tau.
    """
    r, dpsi, dphi, sk, sk1 = parts
    dw = dpsi + dphi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = f - sk * dpsi - sk1 * dphi
        a = (sk + sk1) * f - sk * sk1 * dw
        # origin at the lower pole (sk = -1): c x^2 - (a + 2c) x + dpsi (1 + sk1) = 0
        # for x = new offset / r; at the upper pole (sk1 = 1) the mirror image
        sign = np.where(lower, 1.0, -1.0)
        cs = sign * c
        b = a + 2.0 * cs
        kk = np.where(lower, dpsi * (1.0 + sk1), dphi * (1.0 - sk))
        scale = np.maximum(np.abs(b), np.sqrt(np.abs(cs * kk)))
        root = scale * np.sqrt(np.abs((b / scale) ** 2 - 4.0 * (cs / scale) * (kk / scale)))
        proposal = sign * r * (2.0 * kk / (b + root))
        proposal = np.where(last, tau * (dw / (dw + f)), proposal)
        newton = tau - r * (f / dw)
    bad = ~np.isfinite(proposal) | ((proposal - tau) * f > 0)
    return np.where(bad, newton, proposal)
