"""Exhaustive ground truth on tiny networks.

Enumerates all 2**D networks (D = dyad count, capped at 22) by Gray code,
stepping with change statistics so every state costs one incremental
update.  On top of the resulting statistic table sit the exact
normalizer, log-likelihood, MLE, and per-state/per-dyad distributions
used to validate the samplers and estimators.
`estimate` shares two helpers from here: `tilt`, the softmax-weighted
moments of a statistic table, and `newton_ascent`, the one Newton loop of
the pseudo-likelihood fit, the Monte-Carlo MLE anchor step and the exact MLE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .graph import Attributes, BipartiteNetwork
from .terms import ModelSpec, bind

MAX_DYADS = 22
# slack above which a point counts as outside a hull
HULL_TOL = 1e-9


class EstimationError(RuntimeError):
    """Estimation could not produce a finite, trustworthy estimate; defined
    here so that `estimate` imports it without a cycle."""


class SizeCapError(ValueError):
    """The network is too large for exhaustive enumeration."""


class HullBoundaryError(EstimationError):
    """Observed statistics sit on the hull of attainable statistics, so the
    MLE is not finite; `direction` is an increasing direction of the
    log-likelihood."""

    def __init__(self, message: str, direction: np.ndarray):
        super().__init__(message)
        self.direction = direction


class ExactModel:
    """Statistic table over every network on an n1 x n2 dyad grid."""

    def __init__(self, spec: ModelSpec, attrs: Attributes, n1: int, n2: int):
        dyads = n1 * n2
        if dyads > MAX_DYADS:
            raise SizeCapError(
                f"{n1}x{n2} has {dyads} dyads; exhaustive enumeration is capped at {MAX_DYADS}"
            )
        self.n1 = n1
        self.n2 = n2
        self.spec = spec
        net = BipartiteNetwork(n1, n2)
        model = bind(spec, net, attrs)
        self.names = list(model.names)
        self.p = model.p

        self.dyads = [
            (i, k) for i in range(1, n1 + 1) for k in range(n1 + 1, n1 + n2 + 1)
        ]
        count = 1 << dyads
        table = np.empty((count, self.p))
        # a toggle adds its change statistics' pairs as the chain does
        node, change = model.node, model.dependent_change()
        current = model.stats(net).tolist()
        table[0] = current
        for m in range(1, count):
            bit = (m & -m).bit_length() - 1
            i, k = self.dyads[bit]
            pairs = node[i] + node[k] + change(net.mask, i, k)
            sign = 1.0 if net.toggle(i, k) else -1.0
            for j, value in pairs:
                current[j] += sign * value
            table[m ^ (m >> 1)] = current
        self.stats_table = table

    # -- distribution-level quantities --------------------------------------

    def log_kappa(self, theta) -> float:
        theta = self._theta(theta)
        return float(logsumexp(self.stats_table @ theta))

    def log_probabilities(self, theta) -> np.ndarray:
        theta = self._theta(theta)
        scores = self.stats_table @ theta
        return scores - logsumexp(scores)

    def probabilities(self, theta) -> np.ndarray:
        return np.exp(self.log_probabilities(theta))

    def moments(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Exact mean and covariance of the statistic vector under theta."""
        return tilt(self.stats_table, self._theta(theta))[1:]

    def state_index(self, net: BipartiteNetwork) -> int:
        code = 0
        for bit, (i, k) in enumerate(self.dyads):
            if net.has_edge(i, k):
                code |= 1 << bit
        return code

    def stats_of(self, y_obs) -> np.ndarray:
        if isinstance(y_obs, BipartiteNetwork):
            return self.stats_table[self.state_index(y_obs)]
        arr = np.asarray(y_obs, dtype=np.float64)
        if arr.shape != (self.p,):
            raise ValueError(f"expected a network or a length-{self.p} statistic vector")
        return arr

    def _theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.p,):
            raise ValueError(f"theta has shape {theta.shape}, model dimension is {self.p}")
        if not np.all(np.isfinite(theta)):
            raise ValueError(f"theta must be finite, got {theta}")
        return theta


def exact_loglik(model: ExactModel, theta, y_obs) -> float:
    theta = model._theta(theta)
    return float(theta @ model.stats_of(y_obs)) - model.log_kappa(theta)


@dataclass
class DyadDistribution:
    """Full state distribution plus per-dyad edge marginals."""

    dyads: list[tuple[int, int]]
    probabilities: np.ndarray  # indexed by dyad bitmask
    marginals: np.ndarray  # P(edge present), one per dyad


def exact_dyad_distribution(model: ExactModel, theta) -> DyadDistribution:
    probs = model.probabilities(theta)
    codes = np.arange(probs.size, dtype=np.int64)
    marginals = np.empty(len(model.dyads))
    for bit in range(len(model.dyads)):
        marginals[bit] = probs[(codes >> bit) & 1 == 1].sum()
    return DyadDistribution(list(model.dyads), probs, marginals)


def hull_direction(points: np.ndarray, x: np.ndarray) -> np.ndarray | None:
    """A direction w with w.x >= w.p for every point p and strict slack for
    some, or None if x lies in the hull's relative interior.

    Always solved as one LP on the point cloud (deduplicated rows): w in
    [-1, 1]^d maximizing the total slack, x outside when that exceeds
    HULL_TOL; raises EstimationError if the LP fails.  Besides the hull
    checks of the exact and Monte-Carlo MLE, this is the MPLE separation
    check: the logistic fit is separated exactly when the origin lies
    outside the hull of the sign-flipped design rows.
    """
    # imported here, so that a run that solves no LP skips its 0.25 s, 23 MB import
    from scipy.optimize import linprog

    points = np.unique(np.round(points, 12), axis=0)
    diffs = x[None, :] - points  # want w @ diffs_r >= 0 for all rows
    res = linprog(
        c=-diffs.sum(axis=0),
        A_ub=-diffs,
        b_ub=np.zeros(diffs.shape[0]),
        bounds=[(-1.0, 1.0)] * points.shape[1],
        method="highs",
    )
    if res.status != 0:
        raise EstimationError(f"hull LP failed: {res.message}")
    if -res.fun > HULL_TOL:
        return res.x
    return None


def tilt(S: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights proportional to exp(S @ theta) over the rows of `S`, summing
    to 1, with the weighted mean and covariance of the rows."""
    scores = S @ theta
    w = np.exp(scores - logsumexp(scores))
    mean = w @ S
    centered = S - mean
    cov = (centered * w[:, None]).T @ centered
    return w, mean, cov


def newton_ascent(value, slope, x, tol: float, max_iter: int, ridge: float) -> tuple[np.ndarray, int]:
    """Damped Newton ascent of the concave `value` from `x`; `slope(x)` gives
    the gradient and the negative Hessian.  A step solves the latter plus
    `ridge` times the identity (the gradient where singular) and is halved
    until `value` falls by at most 1e-12 of its size; below a scale of 1e-12
    it has stalled.  Returns the last point and the iteration at which the
    gradient norm reached `tol`, or 0 if it stalled or never did."""
    for iteration in range(1, max_iter + 1):
        grad, neg_hess = slope(x)
        if float(np.linalg.norm(grad)) <= tol:
            return x, iteration
        try:
            step = np.linalg.solve(neg_hess + ridge * np.eye(x.size), grad)
        except np.linalg.LinAlgError:
            step = grad
        # near the optimum a Newton step gains less than the rounding error
        # of the value, so a step may lose up to that much and still count
        base = value(x)
        floor = base - 1e-12 * abs(base)
        scale = 1.0
        while scale > 1e-12:
            cand = x + scale * step
            if value(cand) >= floor:
                x = cand
                break
            scale *= 0.5
        else:
            break
    return x, 0


def exact_mle(model: ExactModel, y_obs) -> np.ndarray:
    """Exact maximum-likelihood estimate by Newton ascent on the full
    enumeration.  Requires the observed statistics strictly inside the
    convex hull of attainable statistics."""
    s_obs = model.stats_of(y_obs)
    direction = hull_direction(model.stats_table, s_obs)
    if direction is not None:
        raise HullBoundaryError(
            "observed statistics lie on the boundary of the attainable set; "
            f"the MLE diverges along direction {np.round(direction, 6)}",
            direction,
        )

    def slope(theta):
        mean, cov = model.moments(theta)
        return s_obs - mean, cov

    theta, _ = newton_ascent(
        lambda theta: exact_loglik(model, theta, s_obs), slope, np.zeros(model.p),
        tol=1e-10, max_iter=200, ridge=1e-12,
    )
    # checked from exact moments, whatever the ascent returned, so that the
    # oracle stays a ground truth of its own
    mean, _ = model.moments(theta)
    grad_norm = float(np.linalg.norm(s_obs - mean))
    if grad_norm > 1e-6:
        raise EstimationError(f"exact MLE did not converge; gradient norm {grad_norm:g}")
    return theta
