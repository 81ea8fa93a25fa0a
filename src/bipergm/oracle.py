"""Exhaustive ground truth on tiny networks.

Enumerates all 2**D networks (D = dyad count, capped at 22) by Gray code,
stepping with change statistics so every state costs one incremental
update.  On top of the resulting statistic table sit the exact
normalizer, log-likelihood, MLE, and per-state/per-dyad distributions
used to validate the samplers and estimators.
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
# exact_mle stops once the score norm is at most this, or after MLE_MAX_ITER Newton steps
MLE_GRAD_TOL = 1e-10
MLE_MAX_ITER = 200


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
        current = model.stats(net)
        table[0] = current
        delta = np.zeros(self.p)
        for m in range(1, count):
            bit = (m & -m).bit_length() - 1
            i, k = self.dyads[bit]
            model.delta_into(net, i, k, delta)
            if net.toggle(i, k):
                current = current + delta
            else:
                current = current - delta
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
        probs = self.probabilities(theta)
        mean = probs @ self.stats_table
        centered = self.stats_table - mean
        cov = (centered * probs[:, None]).T @ centered
        return mean, cov

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
    theta = np.zeros(model.p)
    stalled = False
    for _ in range(MLE_MAX_ITER):
        mean, cov = model.moments(theta)
        grad = s_obs - mean
        if float(np.linalg.norm(grad)) <= MLE_GRAD_TOL:
            return theta
        try:
            step = np.linalg.solve(cov + 1e-12 * np.eye(model.p), grad)
        except np.linalg.LinAlgError:
            step = grad
        # backtracking on the exact log-likelihood
        base = exact_loglik(model, theta, s_obs)
        scale = 1.0
        for _ in range(60):
            cand = theta + scale * step
            if exact_loglik(model, cand, s_obs) >= base:
                theta = cand
                break
            scale *= 0.5
        else:
            stalled = True
            break
    mean, _ = model.moments(theta)
    grad_norm = float(np.linalg.norm(s_obs - mean))
    if grad_norm > 1e-6:
        state = "stalled" if stalled else "hit the iteration cap"
        raise EstimationError(f"exact MLE {state}; gradient norm {grad_norm:g}")
    return theta
