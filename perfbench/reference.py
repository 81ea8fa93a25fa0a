"""Independent references the benchmark checks the program's outputs against.

Nothing here calls bipergm: the MPLE reference builds the change statistics
of `edges + b1nodematch` with numpy matrix products and fits them with its
own Newton solve.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


def _pow(t: np.ndarray, exponent: float) -> np.ndarray:
    """t**exponent for positive t and 0 elsewhere, so that 0**0 = 0."""
    return np.where(t > 0, np.maximum(t, 0.0) ** exponent, 0.0)


def nodematch_design(B: np.ndarray, groups: np.ndarray, which: str, exponent: float):
    """Design matrix (edges, b1nodematch) and dyad states, one row per dyad
    in row-major order of the n1 x n2 biadjacency matrix `B`.

    With M = B Bᵀ the two-path counts between mode-1 nodes and S the
    same-group mask with a zero diagonal, toggling (i, k) changes the
    node-centric statistic by the sum over matching j tied to k of
    (t+1)**alpha - t**alpha, where t = M[i, j] - B[i, k] counts the two-paths
    not through k.  The edge-centric change is
    ((1+u) u**beta - u (u-1)**beta) / 2 with u = (S B)[i, k].
    """
    B = np.asarray(B, dtype=np.float64)
    S = (groups[:, None] == groups[None, :]).astype(np.float64)
    np.fill_diagonal(S, 0.0)
    if which == "alpha":
        M = B @ B.T

        def gain(t):
            return _pow(t + 1.0, exponent) - _pow(t, exponent)

        x = np.where(B > 0, (S * gain(M - 1.0)) @ B, (S * gain(M)) @ B)
    elif which == "beta":
        U = S @ B
        x = 0.5 * ((1.0 + U) * _pow(U, exponent) - U * _pow(U - 1.0, exponent))
    else:
        raise ValueError(f"exponent kind must be 'alpha' or 'beta', got {which!r}")
    X = np.column_stack([np.ones(B.size), x.ravel()])
    return X, B.ravel()


def logistic_mle(X: np.ndarray, y: np.ndarray, grad_tol: float = 1e-10, max_iter: int = 100):
    """Logistic regression coefficients by Newton's method with step halving."""

    def loglik(theta):
        eta = X @ theta
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

    theta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        mu = expit(X @ theta)
        grad = X.T @ (y - mu)
        if float(np.linalg.norm(grad)) <= grad_tol:
            return theta
        hess = (X * (mu * (1.0 - mu))[:, None]).T @ X
        step = np.linalg.solve(hess, grad)
        base = loglik(theta)
        scale = 1.0
        while scale > 1e-12 and loglik(theta + scale * step) < base:
            scale *= 0.5
        theta = theta + scale * step
    raise ArithmeticError(f"reference Newton solve did not converge in {max_iter} steps")


def total_variation(counts, probabilities) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    return 0.5 * float(np.abs(counts / counts.sum() - np.asarray(probabilities)).sum())
