"""Geodesic picture of the goldfish flow.

The flow is geodesic motion for a connection whose symbols are built from the
odd pair function w(x) = c/x; the induced metric is the pullback J^T J of the
flat metric under the symmetric-function map, and c = 2 is the one member of
the family whose curvature vanishes.  Hamilton's equations and the energy are
evaluated through the flat momenta P = J^{-T} pi, the conserved velocities of
the straight-line motion in the flat coordinates, with the closed-form J^{-1}.
The closed-form inverse metric g^{-1} = J^{-1} J^{-T} and its gradient lose
about cond(g) digits and serve as the verify oracles.
"""
from __future__ import annotations

import numpy as np

from . import symfun
from .utils import finite_vector, pairwise_differences


class GeodesicState:
    """Positions q with conjugate momenta pi."""

    def __init__(self, q, pi):
        self.q = symfun.as_configuration(q)
        self.pi = finite_vector(pi, self.q.size, "pi")


def pair_weights(q, c: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Matrices w_ik = -1/2 w(q_i - q_k) of w(x) = c/x (zero diagonal) and their gap derivatives."""
    q = symfun.as_configuration(q)
    gaps = pairwise_differences(q)
    off = ~np.eye(q.size, dtype=bool)
    wmat = np.zeros_like(gaps)
    wmat[off] = -0.5 * (c / gaps[off])
    wprime = np.zeros_like(gaps)
    wprime[off] = -0.5 * (-c / gaps[off] ** 2)
    return wmat, wprime


def christoffel(q, c: float = 2.0) -> np.ndarray:
    """Gamma^i_{jk} = delta^i_j w_ik + delta^i_k w_ij of the w = c/x connection.

    At c = 2, the goldfish flow's connection:
    Gamma^i_{jk} = -(delta^i_j (1-delta^i_k)/(q_i-q_k) + delta^i_k (1-delta^i_j)/(q_i-q_j));
    symmetric in (j,k), zero unless i is one of them.
    """
    wmat, _ = pair_weights(q, c)
    eye = np.eye(wmat.shape[0])
    # [i, j, k]
    return eye[:, :, None] * wmat[:, None, :] + eye[:, None, :] * wmat[:, :, None]


def curvature(q, c: float = 2.0) -> np.ndarray:
    """Curvature R^c_{adb} of the w = c/x connection, dense array indexed [c,a,d,b].

    Evaluates the closed form; identically zero for c = 2.
    """
    wm, wp = pair_weights(q, c)
    eye = np.eye(wm.shape[0])
    i_ca = eye[:, :, None, None]
    i_cd = eye[:, None, :, None]
    i_cb = eye[:, None, None, :]
    i_ab = eye[None, :, None, :]
    i_ad = eye[None, :, :, None]
    wp_ab = wp[None, :, None, :]
    wp_ad = wp[None, :, :, None]
    wp_ca = wp[:, :, None, None]
    w_ab = wm[None, :, None, :]
    w_ba = wm.T[None, :, None, :]
    w_ca = wm[:, :, None, None]
    w_cb = wm[:, None, None, :]
    w_ad = wm[None, :, :, None]
    w_da = wm.T[None, :, :, None]
    w_cd = wm[:, None, :, None]
    return (
        i_ca * i_cd * wp_ab
        - i_ca * i_cb * wp_ad
        + wp_ca * (i_ab * i_cd - i_cb * i_ad)
        + i_cd * (w_ab * w_ca + w_ba * w_cb - w_ca * w_cb)
        - i_cb * (w_ad * w_ca + w_da * w_cd - w_ca * w_cd)
    )


def curvature_from_connection(q, c: float = 2.0) -> np.ndarray:
    """Independent curvature assembly R = dGamma + Gamma Gamma - (b <-> d).

    The derivative term is exact: d_d Gamma^c_{ab} = delta_ca d_d w_cb +
    delta_cb d_d w_ca with d_d w_ik = w'_ik (delta_di - delta_dk).  Used as
    the oracle against the closed form ``curvature``.
    """
    _, wp = pair_weights(q, c)
    eye = np.eye(wp.shape[0])
    dw = wp[None, :, :] * (eye[:, :, None] - eye[:, None, :])  # [d, i, k]
    # [d, c, a, b]
    dgamma = eye[None, :, :, None] * dw[:, :, None, :] + eye[None, :, None, :] * dw[:, :, :, None]
    gam = christoffel(q, c)
    quad = np.einsum("eab,cde->cadb", gam, gam) - np.einsum("ead,cbe->cadb", gam, gam)
    return dgamma.transpose(1, 2, 0, 3) - dgamma.transpose(1, 2, 3, 0) + quad


def metric(q) -> np.ndarray:
    """Induced metric g = J^T J; det g is the squared Vandermonde determinant."""
    jac = symfun.jacobian(q)
    return jac.T @ jac


def inverse_metric(q) -> np.ndarray:
    """Closed form g^{ij} = sum_{m=0}^{N-1} (q_i q_j)^m / (D_i D_j)."""
    return _closed_form_inverse_metric(symfun.as_configuration(q))


def _closed_form_inverse_metric(q: np.ndarray) -> np.ndarray:
    """``inverse_metric`` of an unvalidated array in its dtype: exact on Fractions."""
    n = q.size
    prod = np.outer(q, q)
    numer = np.zeros((n, n), q.dtype)
    term = np.ones((n, n), q.dtype)
    for _ in range(n):
        numer += term
        term = term * prod
    denom = symfun.vandermonde_factors(q)
    return numer / np.outer(denom, denom)


def _inverse_gaps(q: np.ndarray) -> np.ndarray:
    """C_ik = 1/(q_i - q_k), zero diagonal."""
    eye = np.eye(q.size)
    return 1.0 / (pairwise_differences(q) + eye) - eye


def inverse_metric_gradient(q) -> np.ndarray:
    """Analytic d g^{ij} / d q_k, indexed [k, i, j].

    Quotient rule over the closed form: the numerator S_ij = sum (q_i q_j)^m
    contributes delta_ki T_ij + delta_kj T_ji with T_ij = dS/dq_i, and each
    denominator contributes its logarithmic derivative.
    """
    q = symfun.as_configuration(q)
    n = q.size
    t = np.zeros((n, n))  # T[i, j] = d S_ij / d q_i
    for m in range(1, n):
        t += m * q[:, None] ** (m - 1) * q[None, :] ** m
    ginv = _closed_form_inverse_metric(q)
    denom = symfun.vandermonde_factors(q)

    inv_gaps = _inverse_gaps(q)
    # d ln D_i / d q_k: -1/(q_i - q_k) for k != i, own-gap sum for k = i
    logd = -inv_gaps.T
    np.fill_diagonal(logd, inv_gaps.sum(axis=1))

    eye = np.eye(n)
    dnum = eye[:, :, None] * t[None, :, :] + eye[:, None, :] * t.T[None, :, :]
    dlog = logd[:, :, None] + logd[:, None, :]
    return dnum / np.outer(denom, denom)[None, :, :] - ginv[None, :, :] * dlog


def geodesic_hamiltonian(state: GeodesicState) -> float:
    """H = 1/2 pi^T g^{-1}(q) pi = 1/2 |P|^2 with the flat momenta P = J^{-T} pi."""
    p = symfun.jacobian_inverse(state.q).T @ state.pi
    return 0.5 * float(p @ p)


def geodesic_rhs(q: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hamilton equations of H = 1/2 |P|^2, P = J^{-T} pi, in O(N^2), on plain arrays.

    qdot = J^{-1} P.  With (J^{-1})[i, m] = (-1)^m q_i^(N-1-m) / D_i
    (0-based m, D_i = prod_{k != i} (q_i - q_k)), pidot_k = -sum_m P_m
    dP_m/dq_k has two parts.  The power in J^{-1}[k, m] differentiates to
    -(N-1-m) J^{-1}[k, m+1].  The logarithmic derivative of D_i in q_k is
    sum_{j != i} C_ij for k = i and -C_ik otherwise, with C_ij = 1/(q_i - q_j):

        pidot = pi * (J^{-1}[:, 1:] ((N-1-m) P_m)_{m<N-1}) + w * rowsum(C) + C w,

    with w = pi * qdot.  Nothing is validated.
    """
    n = q.size
    jinv = symfun.jacobian_inverse_unchecked(q)
    p = jinv.T @ pi
    qdot = jinv @ p
    inv_gaps = _inverse_gaps(q)  # C
    powers = jinv[:, 1:] @ (np.arange(n - 1, 0, -1) * p[:-1])
    w = pi * qdot
    return qdot, pi * powers + w * inv_gaps.sum(axis=1) + inv_gaps @ w
