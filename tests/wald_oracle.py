"""Dense reference implementation of the Wald quadratic forms.

This is the original O((LJ)^3) computation: build the LJ x LJ covariance of
the cell discrepancies and take its spectral pseudoinverse. condgof computes
the same numbers from Pearson plus a p x p correction; the tests compare the
two on value and rank.
"""

import numpy as np

from condgof import CovarianceConstructionError, SingularInformationError, rosenblatt
from condgof.stats import _RANK_RTOL


def pinv_psd(M, neg_tol=1e-8):
    """(pinv, rank) of a symmetric PSD matrix; eigenvalues <= rtol * max dropped."""
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    wmax = float(w.max(initial=0.0))
    if wmax <= 0.0:
        return np.zeros_like(M), 0
    if float(w.min()) < -neg_tol:
        raise CovarianceConstructionError(
            f"covariance has eigenvalue {float(w.min()):.3e} below -{neg_tol:g}"
        )
    keep = w > _RANK_RTOL * wmax
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (V * inv) @ V.T, int(keep.sum())


def discrepancy(table):
    """(d, p0) with d = vec(O/n) - p0 and p0_{lj} = w_l * qhat_j, row-major."""
    p0 = np.outer(table.widths, table.q_hat).ravel()
    return table.O.ravel() / table.n - p0, p0


def null_form(table):
    """(n d' S+ d, rank) with the multinomial covariance S = diag(p0) - p0 p0'."""
    d, p0 = discrepancy(table)
    pinv, rank = pinv_psd(np.diag(p0) - np.outer(p0, p0))
    return float(table.n * d @ pinv @ d), rank


def margin_conditional_base(table):
    """Block-diagonal covariance given the column margins: qhat_j (diag(w) - w w')."""
    L, J = table.L, table.J
    w = table.widths
    block = np.diag(w) - np.outer(w, w)
    S = np.zeros((L * J, L * J))
    for j in range(J):
        idx = np.arange(L) * J + j
        S[np.ix_(idx, idx)] = table.q_hat[j] * block
    return S


def dense_form(table, C, info):
    """(n d' Sigma+ d, rank Sigma) with Sigma = S_base - C info^{-1} C'."""
    d, _p0 = discrepancy(table)
    S = margin_conditional_base(table) - C @ np.linalg.solve(info, C.T)
    pinv, rank = pinv_psd(S)
    return float(table.n * d @ pinv @ d), rank


def moments(table, model, theta, data, grid, cells):
    """(C, info) exactly as the raw-MLE Wald form estimates them.

    C holds per-cell score means (LJ x p, row-major cells) with each
    column's sum reallocated across bins by the null weights.
    """
    L, J = table.L, table.J
    n = data.n
    info = model.expected_information(data.x, theta)
    factors = model.bin_score_means(data.x, grid.thresholds, theta)
    if info is not None and factors is not None:
        G, h = factors
        ebs = G[None, :, :] * h[:, None, :]  # (n, L, p) per-row bin score means
        if not (np.isfinite(info).all() and np.isfinite(ebs).all()):
            raise SingularInformationError("model moments are not finite")
        percell = np.zeros((J, L, model.param_dim))
        np.add.at(percell, cells, ebs)
        C = percell.transpose(1, 0, 2).reshape(L * J, model.param_dim) / n
    else:
        scores = model.score(data.y, data.x, theta)
        if not np.isfinite(scores).all():
            raise SingularInformationError("scores are not finite")
        info = scores.T @ scores / n
        # bin of each transformed response, v = 0 in the first bin
        bins = np.maximum(np.searchsorted(grid.thresholds, rosenblatt(model, theta, data)), 1) - 1
        cell = bins * J + cells
        C = np.zeros((L * J, model.param_dim))
        np.add.at(C, cell, scores)
        C /= n
    info = 0.5 * (info + info.T)
    w_info = np.linalg.eigvalsh(info)
    if w_info.max() <= 0.0 or w_info.min() <= _RANK_RTOL * w_info.max():
        raise SingularInformationError("information matrix is numerically singular")
    C3 = C.reshape(L, J, model.param_dim)
    C3 -= table.widths[:, None, None] * C3.sum(axis=0)[None, :, :]
    return C, info


def wald_raw_mle(table, model, theta, data, grid, cells):
    """Dense raw-MLE Wald statistic and rank."""
    C, info = moments(table, model, model.validate_theta(theta), data, grid, cells)
    return dense_form(table, C, info)
